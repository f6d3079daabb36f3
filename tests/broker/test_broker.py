"""Tests for the single-node thematic broker."""

import gc
import threading
import weakref

import pytest

from repro.broker import (
    BrokerConfig,
    DurabilityPolicy,
    ShardedBroker,
    ThematicBroker,
    ThreadedBroker,
)
from repro.core.language import parse_event, parse_subscription
from repro.core.matcher import ThematicMatcher
from repro.semantics.cache import RelatednessCache
from repro.semantics.measures import CachedMeasure, ThematicMeasure

EVENT = parse_event(
    "({energy, appliances, building},"
    " {type: increased energy consumption event, device: computer,"
    "  office: room 112})"
)
MATCHING = parse_subscription(
    "({power, computers},"
    " {type= increased energy usage event~, device~= laptop~, office= room 112})"
)
NON_MATCHING = parse_subscription(
    "({transport}, {type= parking space occupied event~, street= main street})"
)


@pytest.fixture()
def broker(space):
    return ThematicBroker(ThematicMatcher(ThematicMeasure(space)))


class TestPubSub:
    def test_delivery_to_matching_subscriber(self, broker):
        handle = broker.subscribe(MATCHING)
        other = broker.subscribe(NON_MATCHING)
        assert broker.publish(EVENT) == 1
        deliveries = handle.drain()
        assert len(deliveries) == 1
        assert deliveries[0].event == EVENT
        assert deliveries[0].score > 0
        assert other.drain() == []

    def test_callback_invoked(self, broker):
        seen = []
        broker.subscribe(MATCHING, seen.append)
        broker.publish(EVENT)
        assert len(seen) == 1

    def test_drain_empties_inbox(self, broker):
        handle = broker.subscribe(MATCHING)
        broker.publish(EVENT)
        assert handle.drain()
        assert handle.drain() == []

    def test_unsubscribe(self, broker):
        handle = broker.subscribe(MATCHING)
        assert broker.unsubscribe(handle)
        broker.publish(EVENT)
        assert handle.drain() == []
        assert not broker.unsubscribe(handle)

    def test_space_decoupling_multiple_subscribers(self, broker):
        handles = [broker.subscribe(MATCHING) for _ in range(3)]
        assert broker.publish(EVENT) == 3
        for handle in handles:
            assert len(handle.drain()) == 1

    def test_unsubscribed_subscriptions_are_released(self, broker):
        """A retired subscription must not stay pinned by the matching
        path: once it stops arriving, the next publish that runs a match
        lets go of it (the pipeline's compiled-subscription table used
        to keep every subscription it ever saw alive)."""
        broker.subscribe(MATCHING)  # keeps a match running per publish
        retired = []
        for room in range(6):
            subscription = parse_subscription(
                f"({{power}}, {{device~= laptop~, office= room {room}}})"
            )
            handle = broker.subscribe(subscription)
            broker.publish(EVENT)  # matched, hence compiled
            assert broker.unsubscribe(handle)
            retired.append(weakref.ref(subscription))
            del subscription, handle
        broker.publish(EVENT)
        gc.collect()
        assert [ref() for ref in retired] == [None] * 6

    def test_dropped_stack_frees_its_score_memo_without_the_collector(
        self, space
    ):
        """The matcher's lazy shared pipeline must not point back at the
        matcher strongly: that cycle kept a dropped inline stack's score
        memo and side-score tables alive until a ``gc.collect()``."""
        cache = RelatednessCache()
        matcher = ThematicMatcher(CachedMeasure(ThematicMeasure(space), cache))
        broker = ThematicBroker(matcher)
        handle = broker.subscribe(MATCHING)
        freed = weakref.ref(cache)
        gc.disable()
        try:
            assert broker.publish(EVENT) == 1
            assert len(cache) > 0
            broker.close()
            del cache, matcher, broker, handle
            assert freed() is None
        finally:
            gc.enable()


class TestTimeDecoupling:
    def test_replay_catches_up_late_subscriber(self, broker):
        broker.publish(EVENT)
        late = broker.subscribe(MATCHING, replay=True)
        deliveries = late.drain()
        assert len(deliveries) == 1
        assert broker.metrics.replayed == 1

    def test_no_replay_by_default(self, broker):
        broker.publish(EVENT)
        late = broker.subscribe(MATCHING)
        assert late.drain() == []

    def test_replay_capacity_bounds_buffer(self, space):
        from repro.broker import BrokerConfig

        broker = ThematicBroker(
            ThematicMatcher(ThematicMeasure(space)),
            BrokerConfig(replay_capacity=1),
        )
        first = parse_event("({energy}, {type: increased energy usage event, device: laptop, office: room 112})")
        broker.publish(first)
        broker.publish(EVENT)
        late = broker.subscribe(MATCHING, replay=True)
        deliveries = late.drain()
        assert len(deliveries) == 1
        assert deliveries[0].event == EVENT


class TestReentrantCallbacks:
    """Callbacks run with no reliability lock held, so they may call
    back into their own broker — these are regressions for a deadlock
    where dispatch held the breaker lock across callback execution."""

    def run_with_deadline(self, target):
        worker = threading.Thread(target=target, daemon=True)
        worker.start()
        worker.join(timeout=30.0)
        assert not worker.is_alive(), "re-entrant callback deadlocked"

    def test_callback_may_publish(self, broker):
        seen = []

        def republisher(delivery):
            seen.append(delivery)
            if len(seen) == 1:
                broker.publish(EVENT)

        broker.subscribe(MATCHING, republisher)
        self.run_with_deadline(lambda: broker.publish(EVENT))
        assert len(seen) == 2
        assert len(broker.dead_letters) == 0

    def test_callback_may_subscribe_with_replay(self, broker):
        late_seen = []
        registered = []

        def registrar(delivery):
            if not registered:
                registered.append(
                    broker.subscribe(MATCHING, late_seen.append, replay=True)
                )

        broker.subscribe(MATCHING, registrar)
        self.run_with_deadline(lambda: broker.publish(EVENT))
        # The published event was in the replay buffer already, so the
        # callback-registered subscriber was caught up via its own
        # reliable dispatch path.
        assert len(late_seen) == 1
        assert len(registered[0].drain()) == 1


    @pytest.mark.parametrize("durable", [False, True], ids=["volatile", "durable"])
    @pytest.mark.parametrize(
        "broker_cls", [ThematicBroker, ThreadedBroker, ShardedBroker]
    )
    def test_reentrant_publish_keeps_the_outer_events_stamps(
        self, space, tmp_path, broker_cls, durable
    ):
        """A callback that publishes must not change the sequence or
        trace stamped on the rest of the outer event's deliveries:
        every delivery of event *n* carries ``sequence == n``."""
        config = BrokerConfig(
            shards=2,
            durability=DurabilityPolicy(directory=str(tmp_path)) if durable else None,
        )
        broker = broker_cls(ThematicMatcher(ThematicMeasure(space)), config)
        inner = parse_event("({transport}, {street: main street})")
        seen = []
        all_seen = threading.Event()

        def republisher(delivery):
            seen.append((delivery.sequence, delivery.event is EVENT))
            if len(seen) == 1:
                broker.publish(inner)  # matches nobody; takes sequence 1
            if len(seen) == 5:
                all_seen.set()

        try:
            for _ in range(5):
                broker.subscribe(MATCHING, republisher)
            broker.publish(EVENT)
            assert all_seen.wait(timeout=30)
        finally:
            broker.close()  # drains the inner event where it was queued
        assert seen == [(0, True)] * 5
        assert broker.metrics.published == 2


class TestMetrics:
    def test_counters(self, broker):
        broker.subscribe(MATCHING)
        broker.subscribe(NON_MATCHING)
        broker.publish(EVENT)
        assert broker.metrics.published == 1
        assert broker.metrics.evaluations == 2
        assert broker.metrics.deliveries == 1

    def test_sequence_numbers_increase(self, broker):
        handle = broker.subscribe(MATCHING)
        broker.publish(EVENT)
        broker.publish(EVENT)
        sequences = [d.sequence for d in handle.drain()]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == 2
