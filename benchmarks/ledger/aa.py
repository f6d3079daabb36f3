"""A/A check: the untraced benchmark twice on the same commit.

    python3 benchmarks/ledger/aa.py [--seed N] [--seconds S]

Set A runs the workloads in their declared order, set B in reverse (so no
workload always follows the same neighbour). For every end-to-end metric
x workload it prints both values, their relative difference and the
metric's bound, and exits non-zero if any pair differs by more than the
bound, if an exact-repeat metric differs at all, or if ``failed_ratio``
exceeds its absolute bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import plan  # noqa: E402


def run_set(order, seed: int, seconds: float, out: Path) -> dict[str, dict]:
    results = {}
    for name in order:
        done = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0", "--out", str(out),
            ],
            cwd=HERE.parent.parent, capture_output=True, text=True,
        )
        if done.returncode != 0:
            raise SystemExit(f"{name}: run.py exited {done.returncode}\n{done.stderr}")
        document = json.loads((out / f"{name}-seed{seed}-trace0.json").read_text())
        values = {key: found["value"] for key, found in document["metrics"].items()}
        values["failed_ratio"] = document["failed"] / document["attempted"]
        results[name] = values
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=plan.RUN_SECONDS)
    parser.add_argument("--out", default=str(HERE / "out" / "aa"))
    args = parser.parse_args(argv)
    out = Path(args.out)
    names = list(plan.WORKLOADS)
    set_a = run_set(names, args.seed, args.seconds, out / "a")
    set_b = run_set(names[::-1], args.seed, args.seconds, out / "b")
    breaches = 0
    specs = {**plan.END_TO_END, **plan.DURABLE_END_TO_END}
    print(f"{'workload':<22}{'metric':<26}{'A':>12}{'B':>12}{'diff':>9}{'bound':>8}")
    for name in names:
        for key, spec in specs.items():
            if name not in spec.workloads:
                continue
            a, b = set_a[name][key], set_b[name][key]
            diff = abs(b - a) / abs(a)
            breach = a != b if spec.exact else diff > spec.bound
            breaches += breach
            bound = "exact" if spec.exact else f"{spec.bound:.0%}"
            print(
                f"{name:<22}{key:<26}{a:>12.5g}{b:>12.5g}{diff:>9.2%}{bound:>8}"
                + ("  BREACH" if breach else "")
            )
        a, b = set_a[name]["failed_ratio"], set_b[name]["failed_ratio"]
        breach = max(a, b) > plan.FAILED_RATIO_ABSOLUTE
        breaches += breach
        print(
            f"{name:<22}{'failed_ratio':<26}{a:>12.5g}{b:>12.5g}{abs(b - a):>9.4f}"
            f"{plan.FAILED_RATIO_ABSOLUTE:>8}" + ("  BREACH" if breach else "")
        )
    print(f"aa: {breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
