"""ShardedBroker: shard placement strategies and the observability of a
sharded broker.

Delivery parity with the per-pair oracle, for every layout, lives in
``tests/test_oracle.py``.
"""

import threading

from repro.broker import BrokerConfig, ShardedBroker, SizeBalancedSharding
from repro.core.matcher import ThematicMatcher
from repro.semantics.cache import RelatednessCache
from repro.semantics.measures import CachedMeasure, ThematicMeasure


def _matcher(space, k: int, threshold: float) -> ThematicMatcher:
    return ThematicMatcher(
        CachedMeasure(ThematicMeasure(space), RelatednessCache()),
        k=k,
        threshold=threshold,
    )


class TestShardingStrategies:
    def test_hash_is_stable_modulo(self):
        from repro.broker import HashSharding

        strategy = HashSharding()
        assert [strategy.assign(i, [0, 0, 0]) for i in range(6)] == [
            0, 1, 2, 0, 1, 2,
        ]
        assert strategy.rebalance([5, 0, 0]) == []

    def test_size_balanced_assign_picks_smallest(self):
        strategy = SizeBalancedSharding()
        assert strategy.assign(17, [2, 0, 1]) == 1
        assert strategy.assign(17, [1, 1, 1]) == 0  # lowest index wins ties

    def test_size_balanced_rebalance_converges(self):
        strategy = SizeBalancedSharding()
        loads = [6, 0, 3]
        moves = strategy.rebalance(loads)
        for source, target in moves:
            loads[source] -= 1
            loads[target] += 1
        assert max(loads) - min(loads) <= 1
        assert sum(loads) == 9

    def test_broker_shard_sizes_stay_balanced(self, space):
        with ShardedBroker(
            _matcher(space, 1, 0.5), BrokerConfig(shards=3, strategy="size")
        ) as broker:
            from tests.broker.test_threaded import SUBSCRIPTION

            handles = [broker.subscribe(SUBSCRIPTION) for _ in range(9)]
            assert broker.shard_sizes() == [3, 3, 3]
            for handle in handles[:4]:
                broker.unsubscribe(handle)
            sizes = broker.shard_sizes()
            assert sum(sizes) == 5
            assert max(sizes) - min(sizes) <= 1

    def test_unknown_strategy_rejected(self, space):
        import pytest

        with pytest.raises(ValueError, match="unknown shard strategy"):
            ShardedBroker(_matcher(space, 1, 0.5), BrokerConfig(strategy="nope"))


class TestShardedObservability:
    def test_metrics_snapshot_aggregates_shards(self, space):
        from tests.broker.test_threaded import EVENT, SUBSCRIPTION

        with ShardedBroker(
            _matcher(space, 1, 0.5), BrokerConfig(shards=2, max_batch=4)
        ) as broker:
            broker.subscribe(SUBSCRIPTION)
            broker.subscribe(SUBSCRIPTION)
            for _ in range(6):
                broker.publish(EVENT)
            assert broker.flush(timeout=60)
            snapshot = broker.metrics_snapshot()
        assert snapshot["published"] == 6
        assert snapshot["evaluations"] == 12
        assert set(snapshot["shards"]) == {"shard0", "shard1"}
        totals = snapshot["engine_totals"]
        assert totals["engine.evaluations"] == 12
        # Each shard processed every event of every batch.
        assert totals["engine.events_processed"] == 12
        assert snapshot["batch_size"]["count"] >= 1
        assert snapshot["batch_size"]["sum"] == 6.0
        assert snapshot["queue_wait"]["count"] == 6
        assert snapshot["pending"] == 0

    def test_replay_on_subscribe(self, space):
        from tests.broker.test_threaded import EVENT, SUBSCRIPTION

        with ShardedBroker(
            _matcher(space, 1, 0.5), BrokerConfig(shards=2)
        ) as broker:
            broker.publish(EVENT)
            broker.publish(EVENT)
            assert broker.flush(timeout=60)
            handle = broker.subscribe(SUBSCRIPTION, replay=True)
            deliveries = handle.drain()
        assert [d.sequence for d in deliveries] == [0, 1]
        assert broker.metrics.replayed == 2

    def test_callbacks_run_on_dispatcher_thread(self, space):
        from tests.broker.test_threaded import EVENT, SUBSCRIPTION

        seen = []
        with ShardedBroker(
            _matcher(space, 1, 0.5), BrokerConfig(shards=2)
        ) as broker:
            broker.subscribe(
                SUBSCRIPTION,
                lambda d: seen.append(threading.current_thread().name),
            )
            broker.publish(EVENT)
            assert broker.flush(timeout=60)
        assert seen == ["sharded-broker"]
