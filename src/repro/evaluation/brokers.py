"""Broker-level throughput comparison: serial ingress vs sharded batches.

The matcher benchmarks (:mod:`repro.evaluation.harness`) time the staged
pipeline in isolation; this module times whole broker front-ends — the
same themed fig9-style workload published through
:class:`~repro.broker.threaded.ThreadedBroker` (one shard, one event
per dispatch) and :class:`~repro.broker.sharded.ShardedBroker`
(subscription shards + ingress micro-batching), with delivery parity
checked on every run. Both are ingress settings of one broker core, so
the ratio measures sharding and batching alone. Shared by
``repro evaluate --shards`` and ``benchmarks/bench_sharded_throughput.py``
so the CLI and the bench can never drift apart on methodology.
"""

from __future__ import annotations

import os
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.broker import ShardedBroker, ThreadedBroker
from repro.broker.config import BrokerConfig
from repro.evaluation.harness import thematic_matcher_factory
from repro.obs.clock import MONOTONIC_CLOCK
from repro.evaluation.themes import ThemeCombination, theme_pool
from repro.evaluation.workload import Workload

__all__ = [
    "BrokerRunResult",
    "compare_broker_throughput",
    "compare_kernel_scaling",
    "run_broker_workload",
    "sample_combination",
]


@dataclass(frozen=True)
class BrokerRunResult:
    """One timed publish-everything-then-flush pass through a broker."""

    name: str
    events: int
    seconds: float
    deliveries: int
    #: Per subscriber (in subscription order): the delivered
    #: ``(sequence, event index, score, alternatives)`` tuples in arrival
    #: order — the full observable delivery stream, used for parity.
    signature: tuple[tuple, ...]
    metrics: dict

    @property
    def events_per_second(self) -> float:
        return self.events / self.seconds if self.seconds > 0 else float("inf")


def sample_combination(
    workload: Workload,
    *,
    event_tags: int = 4,
    subscription_tags: int = 12,
    seed: int = 99,
) -> ThemeCombination:
    """A deterministic fig9-style theme combination (containment holds)."""
    pool = list(theme_pool(workload.thesaurus))
    rng = random.Random(seed)
    subscription = tuple(rng.sample(pool, min(subscription_tags, len(pool))))
    event = tuple(rng.sample(subscription, min(event_tags, len(subscription))))
    return ThemeCombination(event_tags=event, subscription_tags=subscription)


def run_broker_workload(
    name: str,
    make_broker: Callable[[], object],
    subscriptions: Sequence,
    events: Sequence,
) -> BrokerRunResult:
    """Publish ``events`` through a fresh broker and time to full drain.

    The clock covers publish + flush (matching and delivery inclusive),
    the broker lifecycle end to end — exactly what a producer observes.
    """
    broker = make_broker()
    try:
        handles = [broker.subscribe(subscription) for subscription in subscriptions]
        started = MONOTONIC_CLOCK.monotonic()
        for event in events:
            broker.publish(event)
        broker.flush()
        elapsed = MONOTONIC_CLOCK.monotonic() - started
    finally:
        broker.close()
    event_index = {id(event): j for j, event in enumerate(events)}
    signature = tuple(
        tuple(
            (
                delivery.sequence,
                event_index[id(delivery.event)],
                delivery.score,
                len(delivery.result.alternatives),
            )
            for delivery in handle.drain()
        )
        for handle in handles
    )
    return BrokerRunResult(
        name=name,
        events=len(events),
        seconds=elapsed,
        deliveries=sum(len(stream) for stream in signature),
        signature=signature,
        metrics=broker.metrics_snapshot(),
    )


def compare_broker_throughput(
    workload: Workload,
    *,
    combination: ThemeCombination | None = None,
    shards: int = 4,
    strategy: str = "hash",
    max_batch: int = 32,
    linger: float = 0.001,
    repeats: int = 1,
    max_events: int | None = None,
    max_subscriptions: int | None = None,
    seed: int = 99,
) -> dict:
    """Serial vs sharded broker throughput on one themed workload.

    Each repeat runs both brokers with fresh matchers (cold semantic
    caches — neither side inherits warmth) over the *same* themed event
    and subscription objects, asserts delivery parity — identical
    per-subscriber streams of ``(sequence, event, score, alternatives)``
    — and records events/second. Raises ``AssertionError`` on any parity
    violation; speed without identical deliveries is not a result.
    """
    if combination is None:
        combination = sample_combination(workload, seed=seed)
    events = [
        event.with_theme(combination.event_tags)
        for event in workload.events[:max_events]
    ]
    subscriptions = [
        subscription.with_theme(combination.subscription_tags)
        for subscription in workload.subscriptions.approximate[:max_subscriptions]
    ]
    matcher_factory = thematic_matcher_factory(workload)
    serial_runs: list[BrokerRunResult] = []
    sharded_runs: list[BrokerRunResult] = []
    for _ in range(max(1, repeats)):
        serial = run_broker_workload(
            "threaded",
            lambda: ThreadedBroker(matcher_factory()),
            subscriptions,
            events,
        )
        sharded_config = BrokerConfig(
            shards=shards,
            strategy=strategy,
            max_batch=max_batch,
            linger=linger,
        )
        sharded = run_broker_workload(
            f"sharded[{shards}x{max_batch}]",
            lambda: ShardedBroker(matcher_factory(), sharded_config),
            subscriptions,
            events,
        )
        assert sharded.signature == serial.signature, (
            f"delivery parity violated: serial delivered {serial.deliveries}, "
            f"sharded delivered {sharded.deliveries}"
        )
        serial_runs.append(serial)
        sharded_runs.append(sharded)

    def _mean(values: list[float]) -> float:
        return sum(values) / len(values)

    serial_eps = [run.events_per_second for run in serial_runs]
    sharded_eps = [run.events_per_second for run in sharded_runs]
    return {
        "combination": {
            "event_tags": list(combination.event_tags),
            "subscription_tags": list(combination.subscription_tags),
        },
        "events": len(events),
        "subscriptions": len(subscriptions),
        "repeats": len(serial_runs),
        "deliveries": serial_runs[0].deliveries,
        "parity": True,
        "serial": {
            "broker": "ThreadedBroker",
            "eps_runs": serial_eps,
            "mean_eps": _mean(serial_eps),
        },
        "sharded": {
            "broker": "ShardedBroker",
            "shards": shards,
            "strategy": strategy,
            "max_batch": max_batch,
            "linger": linger,
            "eps_runs": sharded_eps,
            "mean_eps": _mean(sharded_eps),
            "batch_size": sharded_runs[-1].metrics["batch_size"],
        },
        "speedup": _mean(sharded_eps) / _mean(serial_eps),
        # Shard pools only overlap on spare cores; a ratio is not
        # comparable across hosts without this.
        "host_nproc": os.cpu_count(),
    }


def _signatures_equivalent(
    reference: tuple[tuple, ...],
    other: tuple[tuple, ...],
    *,
    tolerance: float,
) -> bool:
    """Same deliveries, with scores allowed to drift by ``tolerance``.

    Sequence stamps, event identities, per-subscriber order and
    alternative counts must be identical; only the floating score may
    differ (the scalar and kernel paths sum in different orders).
    """
    if len(reference) != len(other):
        return False
    for ref_stream, other_stream in zip(reference, other, strict=True):
        if len(ref_stream) != len(other_stream):
            return False
        for ref, cur in zip(ref_stream, other_stream, strict=True):
            if (ref[0], ref[1], ref[3]) != (cur[0], cur[1], cur[3]):
                return False
            if abs(ref[2] - cur[2]) > tolerance:
                return False
    return True


def compare_kernel_scaling(
    workload: Workload,
    *,
    combination: ThemeCombination | None = None,
    shards: int = 4,
    max_batch: int = 32,
    linger: float = 0.001,
    repeats: int = 1,
    max_events: int | None = None,
    max_subscriptions: int | None = None,
    seed: int = 99,
) -> dict:
    """The kernel-scaling ladder: scalar serial -> kernel -> shard pool.

    Three configurations over one themed fig9-style workload, all timed
    with :func:`run_broker_workload`:

    * ``serial_scalar`` — :class:`ThreadedBroker` with the scalar
      ``SparseVector`` measure: the reference fig9 serial number;
    * ``serial_kernel`` — the same serial broker scoring through the
      vectorized numpy kernel;
    * ``thread_shards`` — sharded broker on its thread pool, kernel.

    Parity is asserted, not reported: the two kernel configurations
    must produce **bit-identical** delivery signatures, and the scalar
    reference must match them within the kernel's documented
    ``PARITY_TOLERANCE`` (same sequences, events and alternative counts;
    scores may differ only by summation order). Shared by
    ``benchmarks/bench_kernel_scaling.py`` and any CLI caller, so the
    gate and the methodology cannot drift apart.
    """
    from repro.semantics.kernel import PARITY_TOLERANCE

    if combination is None:
        combination = sample_combination(workload, seed=seed)
    events = [
        event.with_theme(combination.event_tags)
        for event in workload.events[:max_events]
    ]
    subscriptions = [
        subscription.with_theme(combination.subscription_tags)
        for subscription in workload.subscriptions.approximate[:max_subscriptions]
    ]
    scalar_factory = thematic_matcher_factory(workload, vectorized=False)
    kernel_factory = thematic_matcher_factory(workload, vectorized=True)

    sharded_config = BrokerConfig(
        shards=shards, max_batch=max_batch, linger=linger
    )
    configurations: list[tuple[str, Callable[[], object]]] = [
        ("serial_scalar", lambda: ThreadedBroker(scalar_factory())),
        ("serial_kernel", lambda: ThreadedBroker(kernel_factory())),
        (
            "thread_shards",
            lambda: ShardedBroker(kernel_factory(), sharded_config),
        ),
    ]
    eps: dict[str, list[float]] = {name: [] for name, _ in configurations}
    deliveries = 0
    for _ in range(max(1, repeats)):
        runs = {
            name: run_broker_workload(name, make, subscriptions, events)
            for name, make in configurations
        }
        reference = runs["serial_kernel"]
        assert runs["thread_shards"].signature == reference.signature, (
            "kernel delivery parity violated: thread_shards delivered "
            f"{runs['thread_shards'].deliveries}, serial kernel delivered "
            f"{reference.deliveries}"
        )
        assert _signatures_equivalent(
            runs["serial_scalar"].signature,
            reference.signature,
            tolerance=PARITY_TOLERANCE,
        ), (
            "scalar/kernel parity violated beyond PARITY_TOLERANCE: "
            f"scalar delivered {runs['serial_scalar'].deliveries}, "
            f"kernel delivered {reference.deliveries}"
        )
        deliveries = reference.deliveries
        for name, _ in configurations:
            eps[name].append(runs[name].events_per_second)

    def _mean(values: list[float]) -> float:
        return sum(values) / len(values)

    scalar_mean = _mean(eps["serial_scalar"])
    result: dict = {
        "combination": {
            "event_tags": list(combination.event_tags),
            "subscription_tags": list(combination.subscription_tags),
        },
        "events": len(events),
        "subscriptions": len(subscriptions),
        "shards": shards,
        "max_batch": max_batch,
        "repeats": max(1, repeats),
        "deliveries": deliveries,
        "parity": True,
        "host_nproc": os.cpu_count(),
        "configs": {
            name: {
                "eps_runs": values,
                "mean_eps": _mean(values),
                "speedup": _mean(values) / scalar_mean,
            }
            for name, values in eps.items()
        },
    }
    return result
