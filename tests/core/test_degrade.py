"""Degraded-mode controller and its wiring into the event engine."""

import logging

import pytest

from repro.core.degrade import DegradedMode, DegradedPolicy
from repro.core.engine import EngineConfig, ThematicEventEngine
from repro.core.language import parse_event, parse_subscription
from repro.core.matcher import ThematicMatcher
from repro.obs import MetricsRegistry
from repro.obs.clock import FakeClock
from repro.semantics.measures import ThematicMeasure

def make_event(token="base"):
    """Variant events that all match both subscriptions below.

    The staged pipeline's side-score table persists across batches, so a
    literally repeated event would never reach the semantic measure
    again (and a scorer spike would be invisible). The throwaway
    ``extra`` attribute varies per batch, forcing a couple of fresh
    measure calls each time without disturbing what matches.
    """
    return parse_event(
        "({energy, appliances, building},"
        " {type: increased energy consumption event, device: computer,"
        f"  office: room 112, extra: {token}}})"
    )


#: Matches thematically AND exactly (literal attribute values).
EXACT_SUB = parse_subscription(
    "({energy, appliances},"
    " {type= increased energy consumption event, office= room 112})"
)
#: Matches only thematically (approximate terms, no literal anchors).
APPROX_SUB = parse_subscription(
    "({power, computers},"
    " {type= increased energy usage event~, device~= laptop~, office= room 112})"
)


def controller(policy=None, clock=None, registry=None):
    clock = clock if clock is not None else FakeClock()
    registry = registry if registry is not None else MetricsRegistry()
    policy = policy if policy is not None else DegradedPolicy(
        latency_budget=0.1, cooldown=5.0
    )
    return DegradedMode(policy, clock=clock, registry=registry), clock, registry


def degraded_counters(registry):
    counters = registry.snapshot()["counters"]
    return {
        key.removeprefix("engine.degraded_"): value
        for key, value in counters.items()
        if key.startswith("engine.degraded_")
    }


class TestDegradedPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"latency_budget": 0.0},
            {"latency_budget": -1.0},
            {"latency_budget": 1.0, "cooldown": -1.0},
            {"latency_budget": 1.0, "trip_after": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DegradedPolicy(**kwargs)


class TestDegradedMode:
    def test_healthy_until_budget_exceeded(self):
        mode, _, registry = controller()
        assert not mode.use_fallback()
        mode.observe(0.05)
        assert not mode.degraded
        mode.observe(0.5)
        assert mode.degraded
        assert degraded_counters(registry)["trips"] == 1
        assert registry.snapshot()["gauges"]["engine.degraded_active"] == 1.0

    def test_trip_after_requires_consecutive_over_budget(self):
        policy = DegradedPolicy(latency_budget=0.1, trip_after=2)
        mode, _, _ = controller(policy)
        mode.observe(0.5)
        assert not mode.degraded  # one spike rides out
        mode.observe(0.05)  # within budget: streak resets
        mode.observe(0.5)
        assert not mode.degraded
        mode.observe(0.5)
        assert mode.degraded

    def test_probe_after_cooldown_then_recover(self):
        mode, clock, registry = controller()
        mode.observe(0.5)
        assert mode.use_fallback()  # inside cooldown
        clock.advance(5.0)
        assert not mode.use_fallback()  # probe armed: run the full path
        mode.observe(0.05)  # probe within budget
        assert not mode.degraded
        snap = degraded_counters(registry)
        assert snap["recoveries"] == 1
        assert registry.snapshot()["gauges"]["engine.degraded_active"] == 0.0

    def test_failed_probe_restarts_cooldown(self):
        mode, clock, registry = controller()
        mode.observe(0.5)
        clock.advance(5.0)
        assert not mode.use_fallback()  # probe
        mode.observe(0.5)  # probe blows the budget too
        assert mode.degraded
        assert mode.use_fallback()  # cooldown restarted
        assert degraded_counters(registry)["trips"] == 2

    def test_fallback_batches_counted(self):
        mode, _, registry = controller()
        mode.note_fallback_batch()
        mode.note_fallback_batch()
        assert degraded_counters(registry)["batches"] == 2

    def test_manual_unhealthy_overrides_until_healthy(self, caplog):
        mode, _, registry = controller()
        with caplog.at_level(logging.WARNING, logger="repro.core.degrade"):
            mode.mark_unhealthy("cache corrupted")
        assert mode.degraded
        assert mode.use_fallback()
        assert any("cache corrupted" in r.message for r in caplog.records)
        mode.mark_healthy()
        assert not mode.degraded
        assert not mode.use_fallback()
        kinds = [event.kind for event in mode.events]
        assert kinds == ["mark_unhealthy", "mark_healthy"]
        assert registry.snapshot()["gauges"]["engine.degraded_active"] == 0.0

    def test_transitions_recorded_with_clock_times(self):
        mode, clock, _ = controller()
        clock.advance(3.0)
        mode.observe(0.5)
        assert mode.events[0].kind == "trip"
        assert mode.events[0].at == pytest.approx(3.0)
        assert "budget" in mode.events[0].reason


class _SpikyMeasure:
    """Test double: advance the clock by ``spike`` per score call."""

    def __init__(self, inner, clock):
        self._inner = inner
        self._clock = clock
        self.spike = 0.0

    def score(self, *args):
        if self.spike:
            self._clock.advance(self.spike)
        return self._inner.score(*args)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestEngineIntegration:
    def engine(self, space):
        clock = FakeClock()
        matcher = ThematicMatcher(ThematicMeasure(space))
        measure = _SpikyMeasure(matcher.measure, clock)
        matcher.measure = measure
        engine = ThematicEventEngine(
            matcher,
            EngineConfig(degraded=DegradedPolicy(latency_budget=0.1, cooldown=5.0)),
            clock=clock,
        )
        return engine, measure, clock

    def test_trip_fallback_probe_recover_end_to_end(self, space):
        engine, measure, clock = self.engine(space)
        exact_seen, approx_seen = [], []
        engine.subscribe(EXACT_SUB, exact_seen.append)
        engine.subscribe(APPROX_SUB, approx_seen.append)

        # Healthy: full thematic path delivers to both subscribers.
        engine.process(make_event("alpha"))
        assert len(exact_seen) == len(approx_seen) == 1
        assert not engine.degraded.degraded

        # A slow backend blows the budget; this batch still completes on
        # the full path, then the engine trips.
        measure.spike = 1.0
        engine.process(make_event("beta"))
        assert len(exact_seen) == len(approx_seen) == 2
        assert engine.degraded.degraded

        # Degraded: exact-anchor fallback keeps literal matches flowing
        # and drops only the approximate fragment of the workload.
        measure.spike = 0.0
        engine.process(make_event("gamma"))
        assert len(exact_seen) == 3
        assert len(approx_seen) == 2
        snap = engine.metrics_snapshot()
        registry_snap = engine.stats.registry.snapshot()["counters"]
        assert registry_snap["engine.degraded_batches"] == 1
        assert snap["deliveries"] == 5

        # After the cooldown the next batch probes the (now fast) full
        # path and the engine recovers.
        clock.advance(5.0)
        engine.process(make_event("delta"))
        assert len(exact_seen) == 4
        assert len(approx_seen) == 3
        assert not engine.degraded.degraded
        assert (
            engine.stats.registry.snapshot()["counters"][
                "engine.degraded_recoveries"
            ]
            == 1
        )

    def test_replay_uses_fallback_while_degraded(self, space):
        """A replay is a batch like any other: while the backend is
        unhealthy it runs the exact-anchor fallback, never the (now very
        slow) semantic backend, and counts as a fallback batch."""
        from repro.broker import BrokerConfig, ThematicBroker

        clock = FakeClock()
        matcher = ThematicMatcher(ThematicMeasure(space))
        measure = matcher.measure = _SpikyMeasure(matcher.measure, clock)
        broker = ThematicBroker(
            matcher,
            BrokerConfig(
                degraded=DegradedPolicy(latency_budget=0.1, cooldown=5.0)
            ),
            clock=clock,
        )
        broker.publish(make_event("one"))
        broker.engine.degraded.mark_unhealthy("backend down")
        measure.spike = 100.0
        exact_late = broker.subscribe(EXACT_SUB, replay=True)
        approx_late = broker.subscribe(APPROX_SUB, replay=True)
        assert clock.monotonic() == 0.0
        assert len(exact_late.drain()) == 1
        assert approx_late.drain() == []  # approximate fragment suspended
        counters = broker.engine.stats.registry.snapshot()["counters"]
        assert counters["engine.degraded_batches"] == 2
        # Recovery restores the full path for replays too.
        broker.engine.degraded.mark_healthy()
        measure.spike = 0.0
        assert len(broker.subscribe(APPROX_SUB, replay=True).drain()) == 1

    def test_no_policy_means_no_controller(self, space):
        matcher = ThematicMatcher(ThematicMeasure(space))
        engine = ThematicEventEngine(matcher)
        assert engine.degraded is None

    def test_fallback_requires_matcher_family(self):
        class Opaque:
            threshold = 0.5

            def match_batch(self, *a, **k):  # pragma: no cover - stub
                raise NotImplementedError

        with pytest.raises(ValueError, match="ThematicMatcher-family"):
            ThematicEventEngine(
                Opaque(),
                EngineConfig(degraded=DegradedPolicy(latency_budget=0.1)),
            )
