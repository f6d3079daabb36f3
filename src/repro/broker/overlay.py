"""Simulated multi-broker overlay network.

Internet-scale event systems (SIENA [7]) run a network of brokers so
producers and consumers attach to their nearest node. This module
simulates such an overlay: brokers are vertices of a ``networkx`` graph,
events published at one node propagate hop-by-hop to every reachable
node (scoped by a TTL), and each node matches against its local
subscribers only — one staged, prefilter-backed ``match_batch`` per
event at each node (see :class:`~repro.core.engine.ThematicEventEngine`).

Approximate semantic subscriptions cannot be summarized/covered the way
exact predicates can (there is no containment relation between
arbitrary relatedness queries), so the overlay floods with
de-duplication — the honest baseline routing for this model, and the
reason the paper treats single-node matcher throughput as the unit of
efficiency. Routing statistics are exposed so the examples can show the
cost of flooding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.broker.broker import ThematicBroker
from repro.broker.config import BrokerConfig
from repro.core.engine import SubscriptionHandle
from repro.core.events import Event
from repro.core.matcher import ThematicMatcher
from repro.core.subscriptions import Subscription

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["OverlayMetrics", "BrokerOverlay"]


@dataclass
class OverlayMetrics:
    """Network-level counters."""

    injected: int = 0
    hops: int = 0
    duplicate_suppressions: int = 0
    deliveries: int = 0


@dataclass
class _Node:
    name: str
    broker: ThematicBroker
    seen: set[int] = field(default_factory=set)
    failed: bool = False


class BrokerOverlay:
    """A graph of :class:`ThematicBroker` nodes with flood routing.

    Parameters
    ----------
    graph:
        Overlay topology; every node of the graph becomes a broker.
    matcher_factory:
        Called once per node to build its matcher (nodes can share a
        vector space but should not share score caches across threads).
    default_ttl:
        Hop budget for event propagation; ``None`` floods everywhere.
    """

    def __init__(
        self,
        graph: nx.Graph,
        matcher_factory: Callable[[], ThematicMatcher],
        *,
        default_ttl: int | None = None,
        replay_capacity: int = 256,
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise ValueError("overlay needs at least one node")
        self.graph = graph
        self.metrics = OverlayMetrics()
        self._nodes: dict[str, _Node] = {}
        self._event_counter = 0
        config = BrokerConfig(replay_capacity=replay_capacity)
        for name in graph.nodes:
            matcher: ThematicMatcher = matcher_factory()
            self._nodes[name] = _Node(
                name=name,
                broker=ThematicBroker(matcher, config),
            )

    def broker(self, node: str) -> ThematicBroker:
        return self._nodes[node].broker

    def nodes(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    def subscribe(
        self,
        node: str,
        subscription: Subscription,
        callback: Callable[[Delivery], None] | None = None,
    ) -> SubscriptionHandle:
        """Attach a subscriber at its local broker node."""
        return self._nodes[node].broker.subscribe(subscription, callback)

    # -- fault injection -------------------------------------------------------

    def fail_node(self, node: str) -> None:
        """Crash a broker: it stops matching and stops forwarding.

        Events routed through a failed node are lost for the partition
        behind it — the honest consequence of flood routing without
        retransmission, observable in the tests.
        """
        self._nodes[node].failed = True

    def recover_node(self, node: str) -> None:
        """Bring a crashed broker back (its subscriptions survive)."""
        self._nodes[node].failed = False

    def failed_nodes(self) -> tuple[str, ...]:
        return tuple(
            name for name, node in self._nodes.items() if node.failed
        )

    def publish(self, node: str, event: Event, *, ttl: int | None = None) -> int:
        """Inject an event at ``node``; flood with de-duplication.

        Returns total deliveries across the overlay. Propagation is
        breadth-first so ``ttl`` bounds the hop distance from the
        injection point.
        """
        if node not in self._nodes:
            raise KeyError(f"unknown overlay node {node!r}")
        if self._nodes[node].failed:
            raise RuntimeError(f"overlay node {node!r} is down")
        self.metrics.injected += 1
        event_id = self._event_counter
        self._event_counter += 1
        budget = ttl
        delivered = 0
        frontier = [(node, 0)]
        self._nodes[node].seen.add(event_id)
        while frontier:
            current, distance = frontier.pop(0)
            delivered += self._nodes[current].broker.publish(event)
            if budget is not None and distance >= budget:
                continue
            for neighbour in self.graph.neighbors(current):
                neighbour_node = self._nodes[neighbour]
                if neighbour_node.failed:
                    continue  # crashed brokers neither match nor forward
                if event_id in neighbour_node.seen:
                    self.metrics.duplicate_suppressions += 1
                    continue
                neighbour_node.seen.add(event_id)
                self.metrics.hops += 1
                frontier.append((neighbour, distance + 1))
        self.metrics.deliveries += delivered
        return delivered

    def total_subscribers(self) -> int:
        return sum(n.broker.subscriber_count() for n in self._nodes.values())
