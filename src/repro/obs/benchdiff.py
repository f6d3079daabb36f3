"""Benchmark regression detection: fresh artifacts vs committed baselines.

``repro bench diff`` (and the CI ``perf-gate`` job) compares the
``BENCH_<name>.json`` artifacts a bench run just produced against the
trajectory committed under ``benchmarks/baselines/``. Every numeric
metric is flattened to a dotted path, classified by direction
(throughput-like: higher is better; latency-like: lower is better;
counts and configuration echoes: informational), and judged against a
fractional noise tolerance. One regression anywhere fails the diff — a
perf-sensitive PR is judged against the committed trajectory, not
against reviewer optimism.

Comparison rules:

* artifacts pair by bench name; a baseline with no fresh counterpart is
  reported but does not fail the diff (partial bench runs are normal in
  CI — the gate job runs a subset);
* artifacts recorded at different ``scale`` values are *skipped*, never
  compared — cross-scale deltas are meaningless;
* lists (per-cell grids, per-run samples) are skipped; scalar summary
  metrics are the contract between a bench and its gate;
* a metric with baseline value 0 cannot produce a relative delta and is
  reported informationally;
* a metric the baseline has and the fresh artifact lacks is a
  ``"missing"`` row and fails the diff: a renamed or dropped metric
  would otherwise stop being gated without anyone noticing.

The markdown trend table (``--markdown-out``) is the reviewable face of
the same data: one row per metric with direction-aware verdicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "DEFAULT_TOLERANCE",
    "BenchComparison",
    "DiffReport",
    "MetricDelta",
    "classify_metric",
    "compare_artifacts",
    "compare_metrics",
    "diff_directories",
    "flatten_metrics",
    "render_markdown",
]

#: Default fractional noise tolerance: a metric may move 10% in its bad
#: direction before it counts as a regression. Chosen so a genuine >=20%
#: throughput drop always trips the gate while ordinary CI jitter stays
#: below it; the CLI exposes ``--tolerance`` for noisier runners.
DEFAULT_TOLERANCE = 0.10

#: Last path segments that are configuration echoes or sample counts,
#: never perf verdicts ("max" included: single-sample maxima are far too
#: noisy to gate on).
_NEUTRAL_SEGMENTS = frozenset(
    {
        "count",
        "unit",
        "n",
        "runs",
        "events",
        "subscriptions",
        "deliveries",
        "shards",
        "max_batch",
        "max",
        "seed",
        "error",
    }
)

#: Substrings marking higher-is-better metrics. Checked before the
#: lower-is-better markers so ``events_per_second`` resolves as
#: throughput despite containing "second".
_HIGHER_MARKERS = (
    "events_per_second",
    "eps",
    "throughput",
    "hit_rate",
    "f1",
    "speedup",
    "recall",
    "precision",
)

#: Substrings marking lower-is-better metrics.
_LOWER_MARKERS = (
    "latency",
    "seconds",
    "_ms",
    "p50",
    "p90",
    "p99",
    "duration",
    "elapsed",
    "wait",
)


#: Row statuses that fail a diff.
_FAILING = ("regression", "missing")


@dataclass(frozen=True)
class MetricDelta:
    """One metric compared across baseline and current artifacts."""

    metric: str
    baseline: float
    current: float
    #: Fractional change ``(current - baseline) / |baseline|``; 0.0 when
    #: the baseline is 0 (the relative delta is undefined — see status).
    delta: float
    direction: str  # "higher" | "lower" | "info"
    status: str  # "ok" | "regression" | "improved" | "info" | "new" | "missing"


@dataclass(frozen=True)
class BenchComparison:
    """One bench's verdict: its metric deltas and an overall status."""

    bench: str
    status: str  # "ok" | "regression" | "improved" | "skipped"
    deltas: tuple[MetricDelta, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class DiffReport:
    """The full diff: per-bench comparisons plus pairing bookkeeping."""

    comparisons: tuple[BenchComparison, ...]
    missing_current: tuple[str, ...]
    missing_baseline: tuple[str, ...]
    tolerance: float

    @property
    def compared(self) -> int:
        """Benches actually compared (skips excluded)."""
        return sum(1 for c in self.comparisons if c.status != "skipped")

    @property
    def regressions(self) -> tuple[MetricDelta, ...]:
        """Rows that fail the diff: metrics beyond the tolerance in their
        bad direction, and baseline metrics the fresh artifact lacks."""
        return tuple(
            delta
            for comparison in self.comparisons
            for delta in comparison.deltas
            if delta.status in _FAILING
        )

    @property
    def ok(self) -> bool:
        return not self.regressions


def flatten_metrics(
    metrics: dict[str, Any], prefix: str = ""
) -> dict[str, float]:
    """Flatten nested metric dicts to ``a.b.c`` paths; numbers only.

    Lists, strings, and booleans are dropped — gates run on scalar
    summary metrics, not raw sample vectors.
    """
    flat: dict[str, float] = {}
    for key, value in metrics.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, bool):
            continue
        if isinstance(value, dict):
            flat.update(flatten_metrics(value, path))
        elif isinstance(value, (int, float)):
            flat[path] = float(value)
    return flat


def classify_metric(path: str) -> str:
    """Direction of ``path``: "higher", "lower", or "info".

    Precedence: neutral last segment, then error metrics (an "error" in
    the name overrides any embedded throughput/F1 marker —
    ``median_throughput_error_eps`` measures error, not throughput),
    then higher-is-better markers, then lower-is-better markers.
    """
    last = path.rsplit(".", 1)[-1]
    if last in _NEUTRAL_SEGMENTS:
        return "info"
    if "error" in last:
        return "lower"
    for marker in _HIGHER_MARKERS:
        if marker in path:
            return "higher"
    for marker in _LOWER_MARKERS:
        if marker in path:
            return "lower"
    return "info"


def _judge(
    direction: str, delta: float, baseline: float, tolerance: float
) -> str:
    if direction == "info":
        return "info"
    if baseline == 0.0:
        return "info"
    bad = -delta if direction == "higher" else delta
    if bad > tolerance:
        return "regression"
    if bad < -tolerance:
        return "improved"
    return "ok"


def compare_metrics(
    baseline: dict[str, Any],
    current: dict[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[MetricDelta, ...]:
    """Delta every metric present in *both* flattened payloads.

    A metric present only in the current artifact — a bench that just
    grew a new measurement — is reported as an informational ``"new"``
    row (baseline 0.0, delta 0.0) rather than dropped or failed: new
    coverage must never read as a regression, but it should be visible
    in the trend table so the baseline gets re-recorded. A metric
    present only in the baseline is a ``"missing"`` row (current 0.0,
    delta 0.0), which fails the comparison.
    """
    base_flat = flatten_metrics(baseline)
    cur_flat = flatten_metrics(current)
    deltas: list[MetricDelta] = []
    for path in sorted(base_flat):
        base_value = base_flat[path]
        if path not in cur_flat:
            deltas.append(
                MetricDelta(
                    metric=path,
                    baseline=base_value,
                    current=0.0,
                    delta=0.0,
                    direction=classify_metric(path),
                    status="missing",
                )
            )
            continue
        cur_value = cur_flat[path]
        delta = (
            (cur_value - base_value) / abs(base_value)
            if base_value != 0.0
            else 0.0
        )
        direction = classify_metric(path)
        deltas.append(
            MetricDelta(
                metric=path,
                baseline=base_value,
                current=cur_value,
                delta=delta,
                direction=direction,
                status=_judge(direction, delta, base_value, tolerance),
            )
        )
    for path in sorted(set(cur_flat) - set(base_flat)):
        deltas.append(
            MetricDelta(
                metric=path,
                baseline=0.0,
                current=cur_flat[path],
                delta=0.0,
                direction=classify_metric(path),
                status="new",
            )
        )
    return tuple(deltas)


def compare_artifacts(
    baseline_doc: dict[str, Any],
    current_doc: dict[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> BenchComparison:
    """Compare two loaded ``repro.bench/v1`` documents for one bench."""
    bench = str(baseline_doc.get("bench", "?"))
    base_scale = baseline_doc.get("scale")
    cur_scale = current_doc.get("scale")
    if base_scale != cur_scale:
        return BenchComparison(
            bench=bench,
            status="skipped",
            note=(
                f"scale mismatch: baseline {base_scale!r} vs "
                f"current {cur_scale!r}"
            ),
        )
    deltas = compare_metrics(
        baseline_doc.get("metrics", {}),
        current_doc.get("metrics", {}),
        tolerance=tolerance,
    )
    if any(d.status in _FAILING for d in deltas):
        status = "regression"
    elif any(d.status == "improved" for d in deltas):
        status = "improved"
    else:
        status = "ok"
    return BenchComparison(bench=bench, status=status, deltas=deltas)


def _load_artifacts(directory: Path) -> dict[str, dict[str, Any]]:
    docs: dict[str, dict[str, Any]] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        docs[path.stem.removeprefix("BENCH_")] = document
    return docs


def diff_directories(
    baseline_dir: str | Path,
    current_dir: str | Path,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> DiffReport:
    """Pair ``BENCH_*.json`` files by name across two directories."""
    baselines = _load_artifacts(Path(baseline_dir))
    currents = _load_artifacts(Path(current_dir))
    comparisons = tuple(
        compare_artifacts(baselines[name], currents[name], tolerance=tolerance)
        for name in sorted(baselines)
        if name in currents
    )
    return DiffReport(
        comparisons=comparisons,
        missing_current=tuple(
            name for name in sorted(baselines) if name not in currents
        ),
        missing_baseline=tuple(
            name for name in sorted(currents) if name not in baselines
        ),
        tolerance=tolerance,
    )


_STATUS_LABELS = {
    "ok": "ok",
    "regression": "**REGRESSION**",
    "improved": "improved",
    "info": "·",
    "new": "new",
    "missing": "**MISSING**",
}


def render_markdown(report: DiffReport) -> str:
    """The trend table: one section per bench, one row per metric."""
    lines = [
        "# Bench trend vs committed baselines",
        "",
        f"Tolerance: ±{report.tolerance:.0%} · "
        f"benches compared: {report.compared} · "
        f"regressions: {len(report.regressions)}",
        "",
    ]
    for comparison in report.comparisons:
        lines.append(f"## {comparison.bench} — {comparison.status}")
        lines.append("")
        if comparison.status == "skipped":
            lines.append(f"Skipped: {comparison.note}")
            lines.append("")
            continue
        lines.append("| metric | baseline | current | Δ | verdict |")
        lines.append("|---|---:|---:|---:|---|")
        for delta in comparison.deltas:
            if delta.status == "new":
                lines.append(
                    f"| {delta.metric} | – | {delta.current:.4g} | – | new |"
                )
            elif delta.status == "missing":
                lines.append(
                    f"| {delta.metric} | {delta.baseline:.4g} | – | – "
                    f"| {_STATUS_LABELS['missing']} |"
                )
            else:
                lines.append(
                    f"| {delta.metric} | {delta.baseline:.4g} "
                    f"| {delta.current:.4g} | {delta.delta:+.1%} "
                    f"| {_STATUS_LABELS[delta.status]} |"
                )
        lines.append("")
    if report.missing_current:
        lines.append(
            "Baselines with no fresh artifact (not gated): "
            + ", ".join(report.missing_current)
        )
        lines.append("")
    if report.missing_baseline:
        lines.append(
            "Fresh artifacts with no baseline yet: "
            + ", ".join(report.missing_baseline)
        )
        lines.append("")
    return "\n".join(lines)
