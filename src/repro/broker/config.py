"""Typed construction config shared by every broker front-end.

:class:`BrokerConfig` is the single typed, frozen, documented home for
every broker construction knob; each front-end reads the fields it
uses and ignores the rest, so one config object can describe a whole
deployment and be passed to any broker class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.broker.durability import DurabilityPolicy
from repro.broker.reliability import DeliveryPolicy
from repro.core.degrade import DegradedPolicy
from repro.core.engine import EngineConfig

__all__ = ["BrokerConfig", "engine_config"]


@dataclass(frozen=True)
class BrokerConfig:
    """Every broker construction knob, in one frozen dataclass.

    Parameters
    ----------
    replay_capacity:
        Recent events retained for late joiners (all brokers).
    max_queue:
        Ingress queue bound before ``publish`` blocks (threaded +
        sharded).
    shards:
        Subscription shard count (sharded).
    strategy:
        Sharding strategy: ``"hash"`` or ``"size"`` (sharded).
    max_batch:
        Ingress micro-batch size cap (sharded).
    linger:
        Seconds the batcher waits for the batch to fill (sharded).
    delivery:
        Default :class:`~repro.broker.reliability.DeliveryPolicy` for
        every subscriber (all brokers); per-subscription overrides via
        ``subscribe(..., policy=...)``.
    degraded:
        Optional :class:`~repro.core.degrade.DegradedPolicy` enabling
        the exact-anchor fallback when thematic scoring blows its
        latency budget (all brokers — forwarded to each embedded
        engine).
    dead_letter_capacity:
        Bound on the dead-letter queue, ``None`` for unbounded.
    executor:
        Shard execution backend; ``"thread"`` is the only accepted
        value and any other raises ``ValueError`` at construction.
        Shards always run as in-process engines. The field is kept only
        because the perf-ledger workloads pass ``executor="thread"``;
        it can go once that caller stops passing it.
    durability:
        Optional :class:`~repro.broker.durability.DurabilityPolicy`
        (all brokers). When set, registrations, published events, inbox
        cursors, and dead letters are journaled to a CRC-framed
        write-ahead log with periodic snapshots; a broker constructed
        over a non-empty journal directory recovers its state from disk
        and exposes the restored handles via ``broker.recovered`` —
        see :mod:`repro.broker.durability`.
    prefilter_mode:
        Semantic-anchor mode forwarded to every embedded engine's
        :class:`~repro.core.engine.EngineConfig` — ``"exact"``
        (default: only the loss-free structural prefilter),
        ``"semantic"`` (exact-scan token-neighborhood anchors), or
        ``"ann"`` (LSH candidate generation at ``ann_recall_target``).
    ann_recall_target:
        Recall knob for ``prefilter_mode="ann"``; ``1.0`` falls back to
        the exact scan (bit-identical to ``"semantic"``).
    score_store_path:
        Optional path to a ``repro warm-cache`` score-store snapshot;
        when set, each embedded engine consults the precomputed tier
        after its online memo and before the matcher's own measure.
    warm_on_start:
        Materialize the score store into RAM at construction instead of
        paging it in lazily (requires ``score_store_path``).
    """

    replay_capacity: int = 256
    max_queue: int = 10_000
    shards: int = 4
    strategy: str = "hash"
    max_batch: int = 32
    linger: float = 0.001
    delivery: DeliveryPolicy = DeliveryPolicy()
    degraded: DegradedPolicy | None = None
    dead_letter_capacity: int | None = None
    executor: str = "thread"
    durability: DurabilityPolicy | None = None
    prefilter_mode: str = "exact"
    ann_recall_target: float = 1.0
    score_store_path: str | None = None
    warm_on_start: bool = False


def engine_config(config: BrokerConfig, **overrides) -> EngineConfig:
    """The :class:`~repro.core.engine.EngineConfig` a broker embeds.

    Forwards every engine-facing broker knob (degraded policy plus the
    sublinear-matching surface) so all front-ends derive their engines
    the same way; ``overrides`` layer front-end specifics on top (the
    multi-shard layout's private pipelines and shard span tags).
    """
    fields = dict(
        degraded=config.degraded,
        prefilter_mode=config.prefilter_mode,
        ann_recall_target=config.ann_recall_target,
        score_store_path=config.score_store_path,
        warm_on_start=config.warm_on_start,
    )
    fields.update(overrides)
    return EngineConfig(**fields)
