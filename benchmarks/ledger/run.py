"""Perf ledger: one publish->deliver benchmark, four workloads.

Driver mode (one workload, one JSON object as the last stdout line)::

    python3 benchmarks/ledger/run.py --workload steady_inline --seed 7 \
        --seconds 20 --trace 0

Ledger mode (all workloads, every metric printed by name with its unit,
workload assertions checked, documents written to ``--out``)::

    python3 benchmarks/ledger/run.py [--seed N] [--workload W] [--traced] [--smoke] [--out DIR]

Each workload runs in its own subprocess (so ``peak_rss_mb`` and
``setup_s`` are that workload's alone); set-up is repeated in further
short subprocesses and the median reported. ``--trace 1`` / ``--traced``
repeats the workload with span-recording proxies installed and reports the
per-layer metrics; end-to-end metrics always come from the untraced run.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import plan  # noqa: E402

clock = time.perf_counter
WORK = HERE / ".work"
DEFAULT_OUT = HERE / "out"


# -- the workload subprocess -------------------------------------------------


def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    import numpy

    import inputs as inputs_module
    import workloads as wk
    from repro.evaluation import build_workload

    import_s = clock() - _T0
    name, trace = args.workload, args.trace
    pass_plan = plan.SMOKE_PLAN if args.smoke else plan.PASS_PLANS[name]
    config = inputs_module.workload_config(smoke=args.smoke)
    started = clock()
    if trace:
        import measure

        workload, setup = measure.timed_build_workload(config)
    else:
        workload, setup = build_workload(config), {}
    workload_build_s = clock() - started
    inputs = inputs_module.build_inputs(
        name,
        args.seed,
        warmup=pass_plan.warmup,
        timed=pass_plan.timed,
        smoke=args.smoke,
        workload=workload,
    )
    workdir = WORK / f"{os.getpid()}"
    started = clock()
    first = wk.build_stack(name, inputs, workdir)
    construct_s = clock() - started
    setup_s = import_s + workload_build_s + construct_s
    document = {
        "workload": name,
        "seed": args.seed,
        "trace": trace,
        "setup_s": setup_s,
        "numpy": numpy.__version__,
    }
    try:
        if args.child == "setup":
            first.close()
        else:
            import measure

            setup["semantics.space_build_s"] = first.space_build_s
            setup["broker.subscribe_us"] = (
                first.subscribe_s / len(inputs.subscriptions) * 1e6
            )
            setups = [setup_s]

            def set_up_again() -> None:
                probe = spawn_child("setup", args, 0, Path(args.out))
                if probe is not None:
                    setups.append(probe["setup_s"])

            common = dict(workdir=workdir, corrupt=args.selfcheck_corrupt)
            if trace:
                result = measure.traced_run(
                    name, inputs, first, pass_plan,
                    smoke=args.smoke, setup=setup, out=Path(args.out), **common,
                )
            else:
                repeats = 1 if args.smoke else plan.SETUP_REPEATS
                result = measure.untraced_run(
                    name, inputs, first, pass_plan,
                    seconds=args.seconds, gap_jobs=[set_up_again] * (repeats - 1),
                    **common,
                )
            document.update(result)
            document["setup_samples"] = setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(document))
    return 0


# -- the runner --------------------------------------------------------------


def _rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/statm") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return 0.0


def spawn_child(kind: str, args, trace: int, out: Path) -> dict | None:
    """Run one child; ``None`` if it died or outgrew ``RSS_KILL_MB``."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--child", kind,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--out", str(out),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.selfcheck_corrupt:
        command.append("--selfcheck-corrupt")
    # One hash seed for every child: set and dict orders, and with them
    # a few percent of run time, otherwise differ from process to process.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    try:
        while True:
            try:
                stdout, _ = process.communicate(timeout=0.25)
                break
            except subprocess.TimeoutExpired:
                if _rss_mb(process.pid) > plan.RSS_KILL_MB:
                    process.kill()
                    process.communicate()
                    print(f"killed {args.workload}: above {plan.RSS_KILL_MB} MB", file=sys.stderr)
                    return None
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    if process.returncode != 0 or not stdout.strip():
        return None
    return json.loads(stdout.strip().splitlines()[-1])


def fingerprint(seed: int, numpy_version: str) -> dict:
    def git(*argv: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    status = git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "seed": seed,
    }


def run_workload(args, trace: int, out: Path) -> dict:
    """One workload, traced or not; returns its output document."""
    out.mkdir(parents=True, exist_ok=True)
    document = spawn_child("workload", args, trace, out)
    if document is None:
        plan_ = plan.SMOKE_PLAN if args.smoke else plan.PASS_PLANS[args.workload]
        document = {
            "workload": args.workload, "seed": args.seed, "trace": trace,
            "attempted": plan_.timed, "failed": plan_.timed, "correct": False,
            "metrics": {}, "numpy": "unknown",
        }
    elif not trace:
        setups = document.pop("setup_samples")
        document["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s",
            "min": min(setups), "max": max(setups), "samples": len(setups),
        }
    document["fingerprint"] = fingerprint(args.seed, document.pop("numpy"))
    document["plan"] = {
        "run_seconds": args.seconds,
        "smoke": args.smoke,
        "passes": document.pop("passes", None),
    }
    path = out / f"{args.workload}-seed{args.seed}-trace{trace}.json"
    path.write_text(json.dumps(document, indent=1))
    return document


def print_metrics(document: dict) -> None:
    for name, metric in document["metrics"].items():
        extra = " ".join(
            f"{key}={metric[key]:.6g}" if isinstance(metric[key], float) else f"{key}={metric[key]}"
            for key in ("median", "min", "max", "passes", "samples")
            if key in metric
        )
        print(
            f"metric workload={document['workload']} name={name} "
            f"value={metric['value']:.10g} unit={metric['unit']} {extra}".rstrip()
        )
    failed, attempted = document["failed"], document["attempted"]
    if not document["trace"]:
        print(
            f"metric workload={document['workload']} name=failed_ratio "
            f"value={failed / attempted:.6g} unit=ratio failed={failed} attempted={attempted}"
        )


def driver_result(document: dict) -> dict:
    """The contract's last line: exactly the declared metrics."""
    declared = plan.DRIVER_PER_LAYER if document["trace"] else plan.END_TO_END
    metrics = {}
    for name, spec in declared.items():
        # A run that died has no metrics; it is reported failed, with 0s.
        found = document["metrics"].get(name)
        metrics[name] = {"value": found["value"] if found else 0.0, "unit": spec.unit}
    return {
        "correct": bool(document["correct"]),
        "attempted": int(document["attempted"]),
        "failed": int(document["failed"]),
        "metrics": metrics,
    }


def ledger_main(args) -> int:
    """All workloads; prints every metric; checks the workload assertions."""
    import assertions

    out = Path(args.out)
    names = [args.workload] if args.workload else list(plan.WORKLOADS)
    documents = []
    started = clock()
    for trace in (0, 1) if args.traced else (0,):
        for name in names:
            args.workload = name
            document = run_workload(args, trace, out)
            print_metrics(document)
            documents.append(document)
    problems = assertions.check(documents, smoke=args.smoke)
    elapsed = clock() - started
    print(f"ledger: {len(documents)} runs in {elapsed:.1f} s, documents in {out}")
    for problem in problems:
        print(f"ASSERTION FAILED: {problem}")
    failed = sum(document["failed"] for document in documents)
    summary = {
        "fingerprint": documents[0]["fingerprint"],
        "elapsed_s": elapsed,
        "assertion_failures": problems,
        "runs": documents,
    }
    (out / f"ledger-seed{args.seed}.json").write_text(json.dumps(summary, indent=1))
    return 1 if problems or failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(plan.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=plan.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument("--child", choices=("workload", "setup"), help=argparse.SUPPRESS)
    parser.add_argument("--selfcheck-corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.trace is None:
        return ledger_main(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    document = run_workload(args, args.trace, Path(args.out))
    print_metrics(document)
    print(json.dumps(driver_result(document)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
