"""FW2 — cold start and real-time behavior (paper Section 7 future work).

Section 7: future work includes "more quantitative aspects of evaluation
such as cold start and real-time behavior". This bench measures:

* **cold start** — wall-clock to first delivery from nothing: index the
  corpus, build the matcher, match the first event; and the cheaper warm
  restart from a corpus snapshot;
* **real-time behavior** — per-event matching latency percentiles with
  warm caches, plus the effect of the engine's two-phase path (the
  semantic-anchor candidate stage, then full matching) on them.

No paper numbers exist; assertions pin the expected orderings (warm
lookups beat cold ones; the prefilter prunes work; tail latency is
bounded).
"""

import statistics
import time

import pytest

from repro.core.engine import EngineConfig, ThematicEventEngine
from repro.core.matcher import ThematicMatcher
from repro.evaluation import format_table
from repro.obs import LatencySummary
from repro.semantics import (
    CachedMeasure,
    ParametricVectorSpace,
    ThematicMeasure,
)


def percentile(values, q):
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def test_cold_start_and_latency(benchmark, workload, bench_artifact):
    subscription = workload.subscriptions.approximate[0]
    first_event = workload.events[0]

    # -- cold start: everything from scratch ---------------------------------
    start = time.perf_counter()
    space = ParametricVectorSpace(workload.corpus)
    matcher = ThematicMatcher(CachedMeasure(ThematicMeasure(space)))
    matcher.score(subscription, first_event)
    cold_seconds = time.perf_counter() - start

    # -- warm path: per-event latency distribution ---------------------------
    events = workload.events[:300]
    warm_matcher = ThematicMatcher(CachedMeasure(ThematicMeasure(workload.space)))
    subs = workload.subscriptions.approximate[:8]
    for event in events[:30]:  # warm the caches
        for sub in subs:
            warm_matcher.score(sub, event)

    latencies = []
    for event in events:
        t0 = time.perf_counter()
        for sub in subs:
            warm_matcher.score(sub, event)
        latencies.append(time.perf_counter() - t0)

    # -- semantic-anchor engine on the same stream ---------------------------
    two_phase = ThematicEventEngine(
        warm_matcher, EngineConfig(prefilter_mode="semantic")
    )
    for sub in subs:
        two_phase.subscribe(sub, lambda result: None)
    two_phase.process(events[0])  # build neighborhoods
    tp_latencies = []
    for event in events:
        t0 = time.perf_counter()
        two_phase.process(event)
        tp_latencies.append(time.perf_counter() - t0)
    stats = two_phase.stats
    prune_rate = stats.pruned / stats.evaluations

    benchmark.pedantic(
        lambda: [warm_matcher.score(subs[0], e) for e in events[:50]],
        rounds=1,
        iterations=1,
    )

    def row(name, values):
        return (
            name,
            f"{statistics.fmean(values) * 1000:.2f} ms",
            f"{percentile(values, 0.50) * 1000:.2f} ms",
            f"{percentile(values, 0.95) * 1000:.2f} ms",
            f"{percentile(values, 0.99) * 1000:.2f} ms",
        )

    print()
    print(f"cold start (index + first match): {cold_seconds:.2f} s")
    print()
    print("per-event latency over 8 subscriptions (warm):")
    print(
        format_table(
            ("pipeline", "mean", "p50", "p95", "p99"),
            [row("full scan", latencies), row("two-phase prefilter", tp_latencies)],
        )
    )
    print()
    print(
        f"prefilter stats: prune rate {prune_rate:.0%}, "
        f"{stats.evaluations - stats.pruned} full matches for "
        f"{stats.evaluations} pairs"
    )

    warm_cache = warm_matcher.measure.cache
    bench_artifact(
        "coldstart",
        {
            "cold_start_seconds": cold_seconds,
            "full_scan_latency": LatencySummary.from_seconds(latencies).as_dict(
                unit="ms"
            ),
            "two_phase_latency": LatencySummary.from_seconds(
                tp_latencies
            ).as_dict(unit="ms"),
            "cache_hit_rate": warm_cache.hit_rate,
            "prefilter_prune_rate": prune_rate,
        },
    )

    # Orderings.
    assert cold_seconds < 120, "cold start must stay interactive-scale"
    assert percentile(latencies, 0.99) < 1.0, "tail latency must stay sub-second"
    assert stats.pruned > 0, "the prefilter must prune work"
    assert statistics.fmean(tp_latencies) <= statistics.fmean(latencies) * 1.25, (
        "prefiltering must not make the common case materially slower"
    )
