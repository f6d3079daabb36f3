"""Sub-experiment runner and theme-grid harness (Section 5.2.4/5.3).

A *sub-experiment* associates one theme combination with every event and
subscription, scores the full subscription x event matrix with a fresh
matcher, and yields an F1 score (Section 5.1 protocol) and a throughput
measurement — exactly one cell sample of Figures 7–10.

``run_grid`` executes a whole (event-theme-size x subscription-theme-
size) grid with several samples per cell and aggregates means and sample
errors; ``run_baseline`` produces the non-thematic reference number the
figures compare against (Section 5.2.5).
"""

from __future__ import annotations

import statistics
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.baselines.nonthematic import NonThematicMatcher
from repro.core.matcher import ThematicMatcher
from repro.obs.clock import MONOTONIC_CLOCK
from repro.evaluation.metrics import (
    EffectivenessResult,
    ThroughputResult,
    effectiveness,
    measure_throughput,
)
from repro.evaluation.themes import (
    ThemeCombination,
    ThemeGridConfig,
    sample_theme_combinations,
)
from repro.evaluation.workload import Workload
from repro.obs import LatencySummary
from repro.semantics.cache import RelatednessCache
from repro.semantics.measures import CachedMeasure, ThematicMeasure

__all__ = [
    "SubExperimentResult",
    "CellResult",
    "GridResult",
    "thematic_matcher_factory",
    "nonthematic_matcher_factory",
    "matcher_cache_hit_rate",
    "run_sub_experiment",
    "run_baseline",
    "run_grid",
]

#: Builds a fresh matcher per sub-experiment (fresh score caches, so each
#: cell pays its own semantic-computation cost).
MatcherFactory = Callable[[], ThematicMatcher]


@dataclass(frozen=True)
class SubExperimentResult:
    """One cell sample: a theme combination with its measurements.

    Besides the paper's two headline numbers (F1, throughput) the
    harness records per-event latency percentiles and, when the matcher
    exposes a memo, its relatedness-cache hit rate — the observability
    numbers the bench artifacts report.
    """

    combination: ThemeCombination
    effectiveness: EffectivenessResult
    throughput: ThroughputResult
    latency: LatencySummary | None = None
    cache_hit_rate: float | None = None

    @property
    def f1(self) -> float:
        return self.effectiveness.max_f1

    @property
    def events_per_second(self) -> float:
        return self.throughput.events_per_second

    def as_metrics(self) -> dict:
        """JSON-ready metrics block for ``BENCH_*.json`` artifacts."""
        metrics: dict = {
            "f1": self.f1,
            "events_per_second": self.events_per_second,
        }
        if self.latency is not None:
            metrics["latency"] = self.latency.as_dict(unit="ms")
        if self.cache_hit_rate is not None:
            metrics["cache_hit_rate"] = self.cache_hit_rate
        return metrics


@dataclass(frozen=True)
class CellResult:
    """Aggregate of all samples for one grid cell."""

    event_size: int
    subscription_size: int
    samples: tuple[SubExperimentResult, ...]

    @property
    def mean_f1(self) -> float:
        return statistics.fmean(s.f1 for s in self.samples)

    @property
    def f1_error(self) -> float:
        """Sample standard deviation of F1 (the paper's Figure 8 metric)."""
        values = [s.f1 for s in self.samples]
        return statistics.stdev(values) if len(values) > 1 else 0.0

    @property
    def mean_throughput(self) -> float:
        return statistics.fmean(s.events_per_second for s in self.samples)

    @property
    def throughput_error(self) -> float:
        values = [s.events_per_second for s in self.samples]
        return statistics.stdev(values) if len(values) > 1 else 0.0

    def as_metrics(self) -> dict:
        """JSON-ready aggregate for ``BENCH_*.json`` artifacts.

        Latency percentiles average across the cell's samples (each
        sample already summarizes its own event stream); cache hit rate
        averages over the samples that report one.
        """
        metrics: dict = {
            "event_size": self.event_size,
            "subscription_size": self.subscription_size,
            "mean_f1": self.mean_f1,
            "f1_error": self.f1_error,
            "mean_events_per_second": self.mean_throughput,
            "throughput_error": self.throughput_error,
        }
        latencies = [s.latency for s in self.samples if s.latency is not None]
        if latencies:
            metrics["latency"] = {
                "unit": "ms",
                "p50": statistics.fmean(s.p50 for s in latencies) * 1000,
                "p90": statistics.fmean(s.p90 for s in latencies) * 1000,
                "p99": statistics.fmean(s.p99 for s in latencies) * 1000,
            }
        hit_rates = [
            s.cache_hit_rate for s in self.samples if s.cache_hit_rate is not None
        ]
        if hit_rates:
            metrics["cache_hit_rate"] = statistics.fmean(hit_rates)
        return metrics


@dataclass(frozen=True)
class GridResult:
    """A completed grid run: per-cell aggregates plus its configuration."""

    cells: dict[tuple[int, int], CellResult]
    grid_config: ThemeGridConfig

    def cell(self, event_size: int, subscription_size: int) -> CellResult:
        return self.cells[(event_size, subscription_size)]

    def fraction_above(
        self, baseline: float, value: str = "f1"
    ) -> float:
        """Share of cells whose mean exceeds ``baseline`` (Fig 7/9 claim)."""
        if value == "f1":
            means = [c.mean_f1 for c in self.cells.values()]
        elif value == "throughput":
            means = [c.mean_throughput for c in self.cells.values()]
        else:
            raise ValueError(f"unknown value kind {value!r}")
        return sum(1 for m in means if m > baseline) / len(means)

    def best(self, value: str = "f1") -> CellResult:
        key = (
            (lambda c: c.mean_f1) if value == "f1" else (lambda c: c.mean_throughput)
        )
        return max(self.cells.values(), key=key)

    def overall_mean(self, value: str = "f1") -> float:
        if value == "f1":
            return statistics.fmean(c.mean_f1 for c in self.cells.values())
        return statistics.fmean(c.mean_throughput for c in self.cells.values())

    def as_metrics(self) -> dict:
        """JSON-ready grid summary for ``BENCH_*.json`` artifacts."""
        cells = [cell.as_metrics() for _, cell in sorted(self.cells.items())]
        metrics: dict = {
            "overall_mean_f1": self.overall_mean("f1"),
            "overall_mean_events_per_second": self.overall_mean("throughput"),
            "cells": cells,
        }
        cell_p50 = [c["latency"]["p50"] for c in cells if "latency" in c]
        cell_p99 = [c["latency"]["p99"] for c in cells if "latency" in c]
        if cell_p50:
            metrics["latency"] = {
                "unit": "ms",
                "p50": statistics.fmean(cell_p50),
                "p99": statistics.fmean(cell_p99),
            }
        hit_rates = [c["cache_hit_rate"] for c in cells if "cache_hit_rate" in c]
        if hit_rates:
            metrics["cache_hit_rate"] = statistics.fmean(hit_rates)
        return metrics


def thematic_matcher_factory(
    workload: Workload,
    *,
    k: int = 1,
    min_relatedness: float = 0.0,
    vectorized: bool = False,
) -> MatcherFactory:
    """Fresh thematic matcher over the workload's shared space.

    ``vectorized=True`` scores through the numpy relatedness kernel —
    see :mod:`repro.semantics.kernel` for the float contract.
    The kernel path skips the :class:`CachedMeasure` memo: the staged
    pipeline's persistent side-score tables already deduplicate lookups
    per theme pair, and the kernel's own row caches cover the rest, so
    the extra dict layer is pure overhead there (scores are identical
    either way — a cache returns the same floats it was fed).
    """

    def factory() -> ThematicMatcher:
        if vectorized:
            measure = ThematicMeasure(workload.space, vectorized=True)
        else:
            measure = CachedMeasure(
                ThematicMeasure(workload.space), RelatednessCache()
            )
        return ThematicMatcher(measure, k=k, min_relatedness=min_relatedness)

    return factory


def nonthematic_matcher_factory(
    workload: Workload, *, k: int = 1, min_relatedness: float = 0.0
) -> MatcherFactory:
    """Fresh non-thematic (prior work [16]) matcher for the baseline."""

    def factory() -> ThematicMatcher:
        return NonThematicMatcher(
            workload.space, k=k, min_relatedness=min_relatedness
        )

    return factory


def score_matrix(
    matcher: ThematicMatcher,
    subscriptions: Sequence,
    events: Sequence,
) -> list[list[float]]:
    """Score every subscription against every event (no timing).

    One staged ``match_batch`` call when the matcher supports it
    (term-pair scoring deduplicates across the whole grid), falling
    back to the per-pair loop for minimal matchers; scores are
    identical either way.
    """
    match_batch = getattr(matcher, "match_batch", None)
    if match_batch is not None:
        return match_batch(subscriptions, events, scores_only=True).score_grid()
    return [[matcher.score(sub, event) for event in events] for sub in subscriptions]


def matcher_cache_hit_rate(matcher: ThematicMatcher) -> float | None:
    """Relatedness-cache hit rate of a matcher's measure, if it has one."""
    cache = getattr(matcher.measure, "cache", None)
    hit_rate = getattr(cache, "hit_rate", None)
    return float(hit_rate) if hit_rate is not None else None


def run_sub_experiment(
    workload: Workload,
    matcher_factory: MatcherFactory,
    combination: ThemeCombination,
) -> SubExperimentResult:
    """One Figure-6 sub-experiment: theme the artifacts, score, measure."""
    matcher = matcher_factory()
    themed_events = [
        event.with_theme(combination.event_tags) for event in workload.events
    ]
    themed_subscriptions = [
        sub.with_theme(combination.subscription_tags)
        for sub in workload.subscriptions.approximate
    ]
    scores: list[list[float]] = [
        [0.0] * len(themed_events) for _ in themed_subscriptions
    ]
    latencies: list[float] = []

    def process() -> int:
        # One staged batch per event (the dispatch-side shape: an event
        # arrives, all subscriptions are matched at once), keeping the
        # per-event latency measurement meaningful. The pipeline's score
        # table persists across events, so dedup compounds over the run.
        for j, event in enumerate(themed_events):
            started = MONOTONIC_CLOCK.monotonic()
            column = matcher.match_batch(
                themed_subscriptions, [event], scores_only=True
            ).scores
            for i in range(len(themed_subscriptions)):
                scores[i][j] = column[i][0]
            latencies.append(MONOTONIC_CLOCK.monotonic() - started)
        return len(themed_events)

    throughput = measure_throughput(process)
    result = effectiveness(scores, workload.ground_truth.relevant_sets)
    return SubExperimentResult(
        combination=combination,
        effectiveness=result,
        throughput=throughput,
        latency=LatencySummary.from_seconds(latencies),
        cache_hit_rate=matcher_cache_hit_rate(matcher),
    )


def run_baseline(
    workload: Workload, matcher_factory: MatcherFactory | None = None
) -> SubExperimentResult:
    """The Section 5.2.5 baseline: non-thematic matcher, empty themes."""
    factory = (
        matcher_factory
        if matcher_factory is not None
        else nonthematic_matcher_factory(workload)
    )
    empty = ThemeCombination(event_tags=(), subscription_tags=())
    return run_sub_experiment(workload, factory, empty)


def run_grid(
    workload: Workload,
    matcher_factory: MatcherFactory | None = None,
    grid_config: ThemeGridConfig | None = None,
    *,
    progress: Callable[[str], None] | None = None,
) -> GridResult:
    """Run every configured cell (Figures 7–10's data collection)."""
    factory = (
        matcher_factory
        if matcher_factory is not None
        else thematic_matcher_factory(workload)
    )
    grid_config = grid_config if grid_config is not None else workload.config.themes
    combinations = sample_theme_combinations(workload.thesaurus, grid_config)
    cells: dict[tuple[int, int], CellResult] = {}
    total = len(combinations)
    for index, (cell_key, cell_combinations) in enumerate(
        sorted(combinations.items())
    ):
        samples = tuple(
            run_sub_experiment(workload, factory, combination)
            for combination in cell_combinations
        )
        cells[cell_key] = CellResult(
            event_size=cell_key[0],
            subscription_size=cell_key[1],
            samples=samples,
        )
        if progress is not None:
            cell = cells[cell_key]
            progress(
                f"[{index + 1}/{total}] cell {cell_key}: "
                f"F1={cell.mean_f1:.2f} eps={cell.mean_throughput:.0f}"
            )
    return GridResult(cells=cells, grid_config=grid_config)
