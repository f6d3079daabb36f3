"""Threaded broker front-end: true synchronization decoupling.

:class:`ThreadedBroker` is the queue-fed ingress
(:class:`~repro.broker.ingress.QueuedBroker`) over one shard,
dispatching one event at a time: ``publish`` returns immediately and
matching and delivery happen on the dispatcher thread.
"""

from __future__ import annotations

from repro.broker.config import BrokerConfig
from repro.broker.ingress import QueuedBroker
from repro.core.matcher import ThematicMatcher
from repro.obs import MetricsRegistry
from repro.obs.clock import Clock

__all__ = ["ThreadedBroker"]


class ThreadedBroker(QueuedBroker):
    """Asynchronous single-shard broker: ``publish`` returns at once,
    ``flush()`` waits until the queue drains.

    Reads what :class:`~repro.broker.broker.ThematicBroker` reads from
    its :class:`~repro.broker.config.BrokerConfig`, plus ``max_queue``.
    """

    thread_name = "thematic-broker"

    def __init__(
        self,
        matcher: ThematicMatcher,
        config: BrokerConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
        clock: Clock | None = None,
    ) -> None:
        super().__init__(
            matcher, config, shards=1, max_batch=1, linger=0.0,
            registry=registry, clock=clock,
        )
