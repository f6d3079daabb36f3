"""The typed BrokerConfig: one config object for every front-end."""

import threading
import warnings

import pytest

from repro.broker.broker import ThematicBroker
from repro.broker.config import BrokerConfig
from repro.broker.core import BrokerCore
from repro.broker.reliability import DeliveryPolicy
from repro.broker.sharded import ShardedBroker
from repro.broker.threaded import ThreadedBroker
from repro.core.engine import ThematicEventEngine
from repro.core.language import parse_event, parse_subscription
from repro.core.matcher import ThematicMatcher
from repro.semantics.measures import ThematicMeasure
from tests.oracle import Oracle, Reference, signature

FRONT_ENDS = (ThematicBroker, ThreadedBroker, ShardedBroker)


@pytest.fixture()
def matcher(space):
    return ThematicMatcher(ThematicMeasure(space))


class TestBrokerConfig:
    def test_defaults(self):
        config = BrokerConfig()
        assert config.replay_capacity == 256
        assert config.shards == 4
        assert config.strategy == "hash"
        assert config.delivery == DeliveryPolicy()
        assert config.degraded is None
        assert config.dead_letter_capacity is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            BrokerConfig().shards = 8

    def test_one_config_fits_every_front_end(self, matcher):
        """A single config object constructs all three brokers."""
        config = BrokerConfig(replay_capacity=8, shards=2, max_batch=4,
                              linger=0.0, workers=0)
        serial = ThematicBroker(matcher, config)
        threaded = ThreadedBroker(matcher, config)
        sharded = ShardedBroker(matcher, config)
        try:
            assert serial.reliability.policy == config.delivery
            assert threaded.reliability.policy == config.delivery
            assert sharded.reliability.policy == config.delivery
        finally:
            threaded.close()
            sharded.close()


class TestLegacyShim:
    """The keyword-argument shims are gone: options live on the config
    objects, and a stray keyword is an ordinary ``TypeError``."""

    def test_serial_broker_rejects_unknown_kwargs(self, matcher):
        with pytest.raises(TypeError):
            ThematicBroker(matcher, replay=3)

    def test_configured_brokers_emit_no_warning(self, matcher):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ThematicBroker(matcher, BrokerConfig())

    def test_engine_rejects_unknown_kwargs(self, matcher):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ThematicEventEngine(matcher, prefiler=True)


class TestShardedValidation:
    def test_invalid_shards_rejected(self, matcher):
        with pytest.raises(ValueError, match="shards"):
            ShardedBroker(matcher, BrokerConfig(shards=0))

    def test_zero_shards_rejected(self, matcher):
        # The check lives in the shared core, so it holds for whatever
        # shard count a front-end hands down, not only the config's.
        with pytest.raises(ValueError, match="shards must be >= 1"):
            BrokerCore(matcher, BrokerConfig(), shards=0)

    def test_invalid_max_batch_rejected(self, matcher):
        with pytest.raises(ValueError, match="max_batch"):
            ShardedBroker(matcher, BrokerConfig(max_batch=0))

    def test_unknown_strategy_rejected(self, matcher):
        with pytest.raises(ValueError):
            ShardedBroker(matcher, BrokerConfig(strategy="modulo"))


class TestExecutorValidation:
    """``"thread"`` is the only shard executor; anything else is
    rejected at construction, before any thread starts."""

    @pytest.mark.parametrize("front_end", FRONT_ENDS)
    @pytest.mark.parametrize("executor", ["process", "bogus"])
    def test_unknown_executor_rejected(self, matcher, front_end, executor):
        with pytest.raises(ValueError, match="expected 'thread'"):
            front_end(matcher, BrokerConfig(executor=executor))


SUBSCRIPTIONS = [
    parse_subscription(
        "({power, computers},"
        " {type= increased energy usage event~, device~= laptop~,"
        "  office= room 112})"
    ),
    parse_subscription("({transport}, {vehicle~= bus~, pollutant~= smog~})"),
    parse_subscription("({energy}, {device~= computer~})"),
]
EVENTS = [
    parse_event(
        "({energy, appliances, building},"
        " {type: increased energy consumption event, device: computer,"
        "  office: room 112})"
    ),
    parse_event(
        "({transport, environment}, {vehicle: vehicle, pollutant: pollution})"
    ),
    parse_event("({energy}, {device: computer, office: room 112})"),
]


def _shard_workers() -> set[threading.Thread]:
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("shard-worker")
    }


class TestDefaultWorkers:
    """``workers=None`` sizes the pool to ``min(shards, cpu_count)``."""

    @pytest.mark.parametrize("cpus, pooled", [(1, False), (4, True)])
    def test_pool_follows_cpu_count(
        self, space, matcher, monkeypatch, cpus, pooled
    ):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        reference = Reference(Oracle(ThematicMatcher(ThematicMeasure(space))))
        before = _shard_workers()
        with ShardedBroker(
            matcher, BrokerConfig(shards=4, workers=None, linger=0.0)
        ) as broker:
            handles = [broker.subscribe(s) for s in SUBSCRIPTIONS]
            for handle in handles:
                reference.subscribe(handle.id, handle.subscription)
            for event in EVENTS:
                broker.publish(event)
                reference.publish(event)
            assert broker.flush(timeout=60), "broker did not drain"
            assert sum(1 for load in broker.shard_sizes() if load) >= 2
            assert bool(_shard_workers() - before) is pooled
        assert reference.stream
        for handle in handles:
            assert [
                signature(handle.id, d.sequence, d.result) for d in handle.drain()
            ] == reference.of(handle.id)
