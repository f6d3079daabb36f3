"""Sublinear matching tier: ANN anchor recall curve + warmed score store.

Not a paper figure: this bench guards the two engineering claims of the
sublinear matching tier on the fig9 workload.

* The LSH anchor mode trades recall for anchor-phase work along its
  knob: delivered-match recall against ``prefilter_mode="semantic"`` is
  measured at several ``ann_recall_target`` points, must be monotone in
  the knob, and must be *exactly* 1.0 (bit-identical deliveries, scores
  included) at the loss-free default — an approximation whose exact
  setting was not exact would be a correctness bug, not a slow bench.
* A ``repro warm-cache`` score store moves the semantic computation
  offline: a cold engine backed by the warmed store must beat the same
  cold engine computing through the kernel by >= 2x, and every timed
  run re-checks full delivery parity (subscription, event, score) —
  a speedup that changed one delivery would fail the run, not report
  a number.
"""

import os
import random
import tempfile
from pathlib import Path

from repro.core.engine import EngineConfig, ThematicEventEngine
from repro.evaluation import format_comparison
from repro.evaluation.brokers import sample_combination
from repro.evaluation.harness import thematic_matcher_factory
from repro.obs.clock import MONOTONIC_CLOCK
from repro.semantics.cache import PersistentScoreStore
from repro.semantics.persistence import corpus_digest, save_score_store
from repro.semantics.pvsm import ParametricVectorSpace
from repro.semantics.warm import plan_lookups, warm_score_table, workload_vocabulary

SCALE = os.environ.get("REPRO_SCALE", "small")

#: Events pushed through every engine variant. The stream must be long
#: enough that the anchor phase and the score tier dominate timing.
EVENT_BUDGET = {"tiny": 60, "small": 200, "paper": 760}.get(SCALE, 200)

#: The knob sweep: three lossy points plus the loss-free default.
RECALL_TARGETS = (0.25, 0.5, 0.75, 1.0)

def theme_varied_events(workload, combination, budget):
    """The event stream with per-event theme subsets (fig9 churn).

    Every event samples its own theme set from the subscription tags
    (containment holds, like the grid harness), so consecutive events
    keep presenting *new* (subscription-theme, event-theme) pairs — the
    regime where the online kernel pays fresh projections per event and
    the side-score dedup tables cannot amortize them away. That
    recurring cost is exactly what the offline warm tier removes.
    """
    rng = random.Random(17)
    pool = list(combination.subscription_tags)
    size = min(len(combination.event_tags), len(pool))
    return [
        event.with_theme(tuple(rng.sample(pool, size)))
        for event in workload.events[:budget]
    ]


def delivered(engine, events):
    """Timed pass: delivered (sub, event, score, mapping) signatures.

    Returns the per-event delivery signature list (for parity and
    recall accounting) and the wall-clock events/second of the pass.
    """
    signatures = []
    started = MONOTONIC_CLOCK.monotonic()
    for index, event in enumerate(events):
        for result in engine.process(event):
            signatures.append(
                (
                    id(result.subscription),
                    index,
                    result.score,
                    result.mapping.correspondences,
                )
            )
    elapsed = MONOTONIC_CLOCK.monotonic() - started
    return signatures, (len(events) / elapsed if elapsed else 0.0)


def engine_for(matcher_factory, subscriptions, **config):
    engine = ThematicEventEngine(matcher_factory(), EngineConfig(**config))
    for subscription in subscriptions:
        engine.subscribe(subscription, lambda result: None)
    return engine


def bench_recall_curve(matcher_factory, subscriptions, events):
    """Sweep ``ann_recall_target``; reference is the exact-scan mode."""
    reference, reference_eps = delivered(
        engine_for(matcher_factory, subscriptions, prefilter_mode="semantic"),
        events,
    )
    reference_pairs = {sig[:2] for sig in reference}
    points = []
    for target in RECALL_TARGETS:
        signatures, eps = delivered(
            engine_for(
                matcher_factory,
                subscriptions,
                prefilter_mode="ann",
                ann_recall_target=target,
            ),
            events,
        )
        pairs = {sig[:2] for sig in signatures}
        assert pairs <= reference_pairs, (
            f"ann target {target} invented matches: {pairs - reference_pairs}"
        )
        points.append(
            {
                "ann_recall_target": target,
                "measured_recall": (
                    len(pairs & reference_pairs) / len(reference_pairs)
                    if reference_pairs
                    else 1.0
                ),
                "events_per_second": eps,
                "deliveries": len(signatures),
                "exact_deliveries": signatures == reference,
            }
        )
    return reference, reference_eps, points


def bench_warm_tier(workload, subscriptions, events, combination):
    """Cold kernel engine vs the same engine over a warmed score store.

    The store is built on a *separate* space over the same corpus so
    warming it cannot pre-populate the projection caches the unwarmed
    engine is about to pay for — that cost is exactly what the offline
    tier claims to remove. Lookups are planned per event (its terms
    against the subscription vocabulary under its own theme pair), the
    tight version of the warmer's full vocabulary cross-product.
    """
    warm_space = ParametricVectorSpace(workload.corpus)
    subscription_theme = tuple(sorted(combination.subscription_tags))
    sub_terms, _ = workload_vocabulary(subscriptions, [])
    planned = {}
    for event in events:
        _, event_terms = workload_vocabulary([], [event])
        theme_pair = (subscription_theme, tuple(sorted(event.theme)))
        for lookup in plan_lookups(sub_terms, event_terms, [theme_pair]):
            planned[lookup] = None
    table = warm_score_table(warm_space, list(planned))
    store = PersistentScoreStore.build(
        table.scores, corpus_digest=corpus_digest(warm_space.documents)
    )
    matcher_factory = thematic_matcher_factory(workload, vectorized=True)
    with tempfile.TemporaryDirectory(prefix="repro-bench-warm-") as directory:
        path = Path(directory) / "scores.bin"
        save_score_store(store, path)

        unwarmed, unwarmed_eps = delivered(
            engine_for(matcher_factory, subscriptions), events
        )
        warmed_engine = engine_for(
            matcher_factory,
            subscriptions,
            score_store_path=str(path),
            warm_on_start=True,
        )
        warmed, warmed_eps = delivered(warmed_engine, events)

    assert warmed == unwarmed, (
        "warmed store changed deliveries: "
        f"{len(warmed)} vs {len(unwarmed)} results"
    )
    counters = warmed_engine.stats.registry.snapshot()["counters"]
    assert counters.get("score_store.hits", 0) > 0, "store never consulted"
    return {
        "store_entries": len(store),
        "unwarmed_events_per_second": unwarmed_eps,
        "warmed_events_per_second": warmed_eps,
        "speedup": warmed_eps / unwarmed_eps if unwarmed_eps else 0.0,
        "parity": warmed == unwarmed,
        "deliveries": len(warmed),
        "store_hits": counters.get("score_store.hits", 0),
    }


def test_ann_prefilter(benchmark, workload, bench_artifact):
    combination = sample_combination(workload, seed=99)
    events = theme_varied_events(workload, combination, EVENT_BUDGET)
    subscriptions = [
        subscription.with_theme(combination.subscription_tags)
        for subscription in workload.subscriptions.approximate
    ]
    matcher_factory = thematic_matcher_factory(workload)
    metrics = {}

    def run():
        reference, reference_eps, points = bench_recall_curve(
            matcher_factory, subscriptions, events
        )
        assert reference, "reference run delivered nothing to recall against"
        metrics["semantic_reference"] = {
            "events_per_second": reference_eps,
            "deliveries": len(reference),
        }
        metrics["recall_curve"] = points
        metrics["recall_at_full_target"] = points[-1]["measured_recall"]
        metrics["warm_tier"] = bench_warm_tier(
            workload, subscriptions, events, combination
        )
        return len(events)

    benchmark.pedantic(run, rounds=1, iterations=1)

    points = metrics["recall_curve"]
    warm = metrics["warm_tier"]
    print()
    print(
        format_comparison(
            [
                (
                    "semantic anchors (exact scan)",
                    "reference",
                    f"{metrics['semantic_reference']['events_per_second']:.0f}"
                    " ev/s",
                ),
                *[
                    (
                        f"ann target {point['ann_recall_target']:.2f}",
                        "recall <= target neighborhood",
                        f"recall {point['measured_recall']:.2f} at "
                        f"{point['events_per_second']:.0f} ev/s",
                    )
                    for point in points
                ],
                (
                    "warmed store vs cold kernel",
                    ">= 2x, identical deliveries",
                    f"{warm['speedup']:.2f}x "
                    f"({warm['warmed_events_per_second']:.0f} vs "
                    f"{warm['unwarmed_events_per_second']:.0f} ev/s)",
                ),
            ],
            title="Sublinear matching tier",
        )
    )

    bench_artifact("ann_prefilter", metrics)

    # The loss-free default must be *exactly* the semantic mode — same
    # deliveries, same scores — not merely recall ~1.
    assert points[-1]["ann_recall_target"] == 1.0
    assert points[-1]["measured_recall"] == 1.0
    assert points[-1]["exact_deliveries"] is True
    # Recall is monotone in the knob (probed bands are a prefix).
    recalls = [point["measured_recall"] for point in points]
    assert recalls == sorted(recalls), f"recall not monotone: {recalls}"
    # Parity is asserted inside the timed run; here we gate the margin.
    # The committed baseline demonstrates the full >= 2x on a quiet
    # machine; in CI (noisy shared runners) we assert a real win, not
    # the full margin.
    assert warm["parity"] is True
    assert warm["speedup"] > 1.2, (
        f"warmed store barely helps: {warm['speedup']:.2f}x"
    )
