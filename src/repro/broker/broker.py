"""Inline broker front-end: ``publish`` dispatches on the caller's thread.

:class:`ThematicBroker` is the synchronous ingress over
:class:`~repro.broker.core.BrokerCore` — one shard, one event per
dispatch, no queue and no thread: when ``publish`` returns, the event
has been matched and every delivery has reached its inbox or the
dead-letter queue.
"""

from __future__ import annotations

from repro.broker.config import BrokerConfig
from repro.broker.core import BrokerCore, BrokerMetrics, Delivery
from repro.core.engine import ThematicEventEngine
from repro.core.events import Event
from repro.core.matcher import ThematicMatcher
from repro.obs import TRACER, MetricsRegistry
from repro.obs.clock import Clock

__all__ = ["BrokerMetrics", "Delivery", "ThematicBroker"]


class ThematicBroker(BrokerCore):
    """Single broker node, synchronous ingress.

    Reads ``replay_capacity``, ``delivery``, ``degraded``,
    ``dead_letter_capacity``, ``durability`` and the engine-facing
    fields of its :class:`~repro.broker.config.BrokerConfig`. One
    registry snapshot covers ``broker.*``, ``engine.*``,
    ``reliability.*`` and ``durability.*`` counters alike.
    """

    def __init__(
        self,
        matcher: ThematicMatcher,
        config: BrokerConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
        clock: Clock | None = None,
    ) -> None:
        super().__init__(matcher, config, shards=1, registry=registry, clock=clock)

    @property
    def engine(self) -> ThematicEventEngine:
        """The one shard's engine (stats, degraded-mode controls)."""
        return self._shards.engines[0]

    def publish(self, event: Event) -> int:
        """Match ``event`` against all subscriptions and deliver; returns
        the match count.

        This span is the root of the event's trace, and every delivery
        of the event carries its context.
        """
        ctx = TRACER.mint_trace()
        with TRACER.root_span("broker.publish", ctx):
            return self._dispatch([event], [ctx])
