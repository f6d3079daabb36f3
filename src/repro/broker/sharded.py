"""Sharded broker: subscription shards + ingress micro-batching.

:class:`ShardedBroker` is the queue-fed ingress
(:class:`~repro.broker.ingress.QueuedBroker`) at scale-out settings —
the layout content-based brokers use (the SIENA-style partitioning
echoed in the paper's prior work): the subscription set is partitioned
into ``config.shards`` shards (see :mod:`repro.broker.shards`) and the
ingress queue drains in adaptive micro-batches of up to
``config.max_batch`` events, one delivery-gated ``match_batch`` per
(event-batch x shard), the shards matched in turn on the dispatcher
thread.
"""

from __future__ import annotations

from repro.broker.config import BrokerConfig
from repro.broker.ingress import QueuedBroker
from repro.broker.shards import HashSharding, SizeBalancedSharding
from repro.core.matcher import ThematicMatcher
from repro.obs import MetricsRegistry
from repro.obs.clock import Clock

__all__ = ["HashSharding", "ShardedBroker", "SizeBalancedSharding"]


class ShardedBroker(QueuedBroker):
    """Sharded subscriptions, micro-batched ingress.

    Usage::

        broker = ShardedBroker(matcher, BrokerConfig(shards=4, max_batch=32))
        handle = broker.subscribe(subscription)
        broker.publish(event)          # returns immediately (backpressured)
        broker.flush()                 # wait until the queue drains
        deliveries = handle.drain()
        broker.close()

    Reads every field of its :class:`~repro.broker.config.BrokerConfig`.
    """

    thread_name = "sharded-broker"

    def __init__(
        self,
        matcher: ThematicMatcher,
        config: BrokerConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
        clock: Clock | None = None,
    ) -> None:
        config = config if config is not None else BrokerConfig()
        super().__init__(
            matcher, config, shards=config.shards, max_batch=config.max_batch,
            linger=config.linger, registry=registry, clock=clock,
        )
