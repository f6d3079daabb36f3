"""Subscription shards: placement strategies and the shard engines.

The broker core (:mod:`repro.broker.core`) partitions its subscription
set into N shards and never looks inside one: every shard operation
goes through :class:`EngineShards` — one in-process
:class:`~repro.core.engine.ThematicEventEngine` per shard, matched in
turn on the thread that dispatches the batch.

Shard assignment is pluggable: :class:`HashSharding` (stable modulo
placement, no rebalancing) or :class:`SizeBalancedSharding` (least-
loaded placement, shards rebalanced whenever unsubscribes leave them
more than one subscription apart). Delivery order is decided by each
subscriber's global registration order, not by shard-internal order, so
rebalancing is invisible to subscribers.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.broker.config import BrokerConfig, engine_config
from repro.core.engine import SubscriptionHandle, ThematicEventEngine
from repro.core.events import Event
from repro.core.matcher import MatchResult, ThematicMatcher
from repro.core.subscriptions import Subscription
from repro.obs import MetricsRegistry
from repro.obs.clock import Clock

__all__ = [
    "STRATEGIES",
    "EngineShards",
    "HashSharding",
    "ShardSlot",
    "SizeBalancedSharding",
]

#: One deliverable pair of a micro-batch: (subscriber order, event index
#: within the batch, result).
Survivor = tuple[int, int, MatchResult]


class HashSharding:
    """Stable modulo placement: subscriber id mod shard count.

    Placement never depends on current loads, so a subscription's shard
    is reproducible from its id alone and unsubscribes never move other
    subscriptions around.
    """

    name = "hash"

    def assign(self, subscriber_id: int, loads: Sequence[int]) -> int:
        return subscriber_id % len(loads)

    def rebalance(self, loads: Sequence[int]) -> list[tuple[int, int]]:
        return []


class SizeBalancedSharding:
    """Least-loaded placement with rebalancing on shrink.

    ``assign`` picks the smallest shard (lowest index wins ties), and
    after an unsubscribe ``rebalance`` moves subscriptions from the
    largest to the smallest shard until the spread is at most one — so
    long-lived brokers with churn keep near-equal per-shard batch cost.
    """

    name = "size"

    def assign(self, subscriber_id: int, loads: Sequence[int]) -> int:
        return min(range(len(loads)), key=loads.__getitem__)

    def rebalance(self, loads: Sequence[int]) -> list[tuple[int, int]]:
        loads = list(loads)
        moves: list[tuple[int, int]] = []
        while True:
            source = max(range(len(loads)), key=loads.__getitem__)
            target = min(range(len(loads)), key=loads.__getitem__)
            if loads[source] - loads[target] <= 1:
                return moves
            moves.append((source, target))
            loads[source] -= 1
            loads[target] += 1


STRATEGIES = {
    HashSharding.name: HashSharding,
    SizeBalancedSharding.name: SizeBalancedSharding,
}


class ShardSlot:
    """Engine callback slot naming a registration by its global order.

    Shard engines never dispatch: the broker takes each batch's
    survivors and merges them across shards, so deliveries can be
    ordered globally and stamped with their sequence. Registrations
    carry this object purely so a survivor can say whose it is.
    """

    __slots__ = ("order",)

    def __init__(self, order: int) -> None:
        self.order = order

    def __call__(self, result: object) -> None:  # pragma: no cover - guard rail
        raise RuntimeError(
            "shard engines must not dispatch directly; "
            "deliveries go through the broker's ordered merge"
        )


class EngineShards:
    """In-process shards: one engine each, matched in turn.

    A single shard matches through the matcher's shared lazy pipeline
    and counts into the broker's own registry, so one registry snapshot
    covers ``broker.*``, ``engine.*`` and ``reliability.*`` alike.
    Several shards each get a private staged pipeline (per-shard
    term-pair dedup and compiled subscriptions) and a private registry,
    and :meth:`deliverable` matches the non-empty ones one after another
    on the calling thread, so their spans nest under the caller's
    ``broker.match_batch`` span. All calls are serialized by the broker
    core's registration lock.

    Matchers exposing ``new_pipeline`` (the
    :class:`~repro.core.matcher.ThematicMatcher` family) get the private
    pipelines; others are called through their own ``match_batch``.
    """

    def __init__(
        self,
        matcher: ThematicMatcher,
        config: BrokerConfig,
        *,
        shards: int,
        registry: MetricsRegistry,
        clock: Clock | None,
    ) -> None:
        single = shards == 1
        self.engines = [
            ThematicEventEngine(
                matcher,
                engine_config(
                    config,
                    private_pipeline=not single,
                    span_tags=None if single else {"shard": index},
                ),
                registry=registry if single else MetricsRegistry(),
                clock=clock,
            )
            for index in range(shards)
        ]
        self._handles: dict[int, SubscriptionHandle] = {}

    def subscribe(
        self, shard_index: int, order: int, subscription: Subscription
    ) -> None:
        self._handles[order] = self.engines[shard_index].subscribe(
            subscription, ShardSlot(order)
        )

    def unsubscribe(self, shard_index: int, order: int) -> None:
        self.engines[shard_index].unsubscribe(self._handles.pop(order))

    def move(
        self, order: int, source: int, target: int, subscription: Subscription
    ) -> None:
        self.unsubscribe(source, order)
        self.subscribe(target, order, subscription)

    def loads(self) -> list[int]:
        return [engine.subscription_count() for engine in self.engines]

    def deliverable(self, events: list[Event]) -> list[Survivor]:
        return [
            (slot.order, j, result)
            for engine in self.engines
            if engine.subscription_count()
            for j, slot, result in engine.survivors(events)
        ]

    def replay(
        self, shard: int, subscription: Subscription, retained: list[tuple[int, Event]]
    ) -> list[tuple[int, MatchResult]]:
        """``(sequence, result)`` for each retained ``(sequence, event)``
        delivered to ``subscription``, matched as one batch on ``shard``."""
        events = [event for _, event in retained]
        matches = self.engines[shard].replay(subscription, events)
        return [(retained[j][0], result) for j, result in matches]

    def shard_snapshots(self) -> list[dict[str, Any]]:
        return [engine.stats.registry.snapshot() for engine in self.engines]

