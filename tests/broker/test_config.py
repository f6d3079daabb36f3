"""The typed BrokerConfig: one config object for every front-end."""

import warnings

import pytest

from repro.broker.broker import ThematicBroker
from repro.broker.config import BrokerConfig
from repro.broker.reliability import DeliveryPolicy
from repro.broker.sharded import ShardedBroker
from repro.broker.threaded import ThreadedBroker
from repro.core.engine import ThematicEventEngine
from repro.core.matcher import ThematicMatcher
from repro.semantics.measures import ThematicMeasure


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

    def test_invalid_max_batch_rejected(self, matcher):
        with pytest.raises(ValueError, match="max_batch"):
            ShardedBroker(matcher, BrokerConfig(max_batch=0))

    def test_unknown_strategy_rejected(self, matcher):
        with pytest.raises(ValueError):
            ShardedBroker(matcher, BrokerConfig(strategy="modulo"))
