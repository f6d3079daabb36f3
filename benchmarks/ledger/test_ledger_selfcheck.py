"""Self-check of the ledger benchmark (run explicitly, not part of tier-1).

    PYTHONPATH=src python3 -m pytest benchmarks/ledger/test_ledger_selfcheck.py -q

(``PYTHONPATH`` only because ``benchmarks/conftest.py`` imports ``repro``.)

Checks the declared contract (names, units, counts, BENCHMARK.json against
plan.py) and, on ``--smoke`` runs, that every declared metric is printed
exactly once per applicable workload, that the exact-repeat metrics repeat,
and that a corrupted delivery is counted as a failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import plan  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
LINE = re.compile(r"^metric workload=(\S+) name=(\S+) value=(\S+) unit=(\S+)")
EXACT = (
    "max_f1", "journal_bytes_per_event",
    "semantics.score.lookups", "broker.deliveries_per_event",
)


def ledger(*argv: str, out: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *argv],
        cwd=ROOT, capture_output=True, text=True,
    )


def printed(stdout: str) -> dict[tuple[str, str], tuple[float, str]]:
    rows = [m.groups() for line in stdout.splitlines() if (m := LINE.match(line))]
    counts = Counter((workload, name) for workload, name, _, _ in rows)
    assert not [key for key, n in counts.items() if n != 1], "a metric printed twice"
    return {(w, n): (float(value), unit) for w, n, value, unit in rows}


@pytest.fixture(scope="module")
def smoke_runs():
    out = HERE / ".work" / "selfcheck"
    shutil.rmtree(out, ignore_errors=True)
    runs = []
    for label in ("first", "second"):
        done = ledger("--traced", out=out / label)
        assert done.returncode == 0, done.stdout + done.stderr
        runs.append(printed(done.stdout))
    yield runs
    shutil.rmtree(out, ignore_errors=True)


def test_benchmark_json_matches_plan():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert declared["paths"] == ["benchmarks/ledger"]
    assert declared["run_seconds"] == plan.RUN_SECONDS
    assert {w["name"]: w["why"] for w in declared["workloads"]} == plan.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == [
        (name, spec.unit, spec.better, spec.bound) for name, spec in plan.END_TO_END.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (name, spec.unit, spec.better) for name, spec in plan.DRIVER_PER_LAYER.items()
    ]


def test_names_units_and_counts():
    assert 2 <= len(plan.WORKLOADS) <= 8
    assert 1 <= len(plan.END_TO_END) <= 16
    assert 1 <= len(plan.PER_LAYER) <= 128
    every = {
        **plan.END_TO_END, **plan.UNBOUNDED_END_TO_END,
        **plan.DURABLE_END_TO_END, **plan.PER_LAYER,
    }
    for name, spec in every.items():
        assert NAME.match(name), name
        assert UNIT.match(spec.unit), (name, spec.unit)
        assert spec.better in ("higher", "lower")
    for name, why in plan.WORKLOADS.items():
        assert NAME.match(name) and len(why) <= 200 and "\n" not in why
    assert "setup_s" in plan.END_TO_END
    assert all(0 < spec.bound <= 0.25 for spec in plan.END_TO_END.values())


def test_every_declared_metric_printed_once(smoke_runs):
    got = smoke_runs[0]
    every = {
        **plan.END_TO_END, **plan.UNBOUNDED_END_TO_END,
        **plan.DURABLE_END_TO_END, **plan.PER_LAYER,
    }
    for name, spec in every.items():
        for workload in plan.WORKLOADS:
            if workload in spec.workloads:
                assert (workload, name) in got, f"{name} missing on {workload}"
                assert got[(workload, name)][1] == spec.unit
            else:
                assert (workload, name) not in got, f"{name} printed on {workload}"
    for workload in plan.WORKLOADS:
        assert got[(workload, "failed_ratio")][0] == 0.0


def test_exact_repeat_metrics_repeat(smoke_runs):
    first, second = smoke_runs
    for (workload, name), (value, _) in first.items():
        if name in EXACT:
            assert second[(workload, name)][0] == value, (workload, name)


def test_corrupted_delivery_is_a_failure():
    out = HERE / ".work" / "selfcheck-corrupt"
    try:
        done = ledger("--workload", "steady_inline", "--selfcheck-corrupt", out=out)
        assert done.returncode != 0
        assert printed(done.stdout)[("steady_inline", "failed_ratio")][0] > 0.0
    finally:
        shutil.rmtree(out, ignore_errors=True)
