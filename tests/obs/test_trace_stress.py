"""Trace completeness under faults: one causal tree per event, always.

The tentpole invariant of the tracing subsystem: for every event a
broker accepts, whether it is ultimately delivered or dead-lettered,
the span log contains exactly one complete causal tree — a single root
(``broker.publish`` / ``broker.replay``) whose trace id is carried on
the delivery (``Delivery.trace``) or the dead-letter record
(``DeadLetterRecord.trace_id``), with every other span's parent
resolving inside the same trace. Hypothesis draws the fault plans; the
invariant must hold on the serial, threaded, and sharded brokers alike,
through retries, breaker rejections, and dead-lettering.
"""

import io
import json
import logging

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broker.broker import ThematicBroker
from repro.broker.config import BrokerConfig
from repro.broker.faults import CallbackFault, FaultInjector, FaultPlan
from repro.broker.reliability import DeliveryPolicy
from repro.broker.sharded import ShardedBroker
from repro.broker.threaded import ThreadedBroker
from repro.evaluation.brokers import sample_combination
from repro.evaluation.harness import thematic_matcher_factory
from repro.obs import TRACER, MetricsRegistry
from repro.obs.clock import FakeClock
from repro.obs.traceview import build_trace_index

BROKER_KINDS = ("serial", "threaded", "sharded")

#: Span names that may open a causal tree.
ROOT_SPANS = {"broker.publish", "broker.replay"}

#: Deterministic fast policy: retries on, no jitter, breaker armed low
#: enough that permanently-failing plans trip it mid-run.
POLICY = DeliveryPolicy(
    max_retries=2,
    backoff_base=0.01,
    backoff_cap=0.1,
    jitter=0.0,
    breaker_threshold=3,
    breaker_reset=1_000_000.0,
)

STRESS_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def fault_plans(draw, max_subscribers=4):
    count = draw(st.integers(min_value=0, max_value=2))
    subscribers = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_subscribers - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    callbacks = tuple(
        CallbackFault(
            subscriber=subscriber,
            kind=draw(st.sampled_from(["raise", "flaky", "hang"])),
            times=draw(st.integers(min_value=0, max_value=3)),
            hang_seconds=0.05,
        )
        for subscriber in subscribers
    )
    return FaultPlan(name="trace-stress", callbacks=callbacks)


def _build_broker(kind, matcher, config, clock):
    if kind == "serial":
        return ThematicBroker(matcher, config, clock=clock)
    if kind == "threaded":
        return ThreadedBroker(matcher, config, clock=clock)
    return ShardedBroker(matcher, config, clock=clock)


def run_traced(workload, kind, plan, policy=POLICY):
    """One faulted, fully-traced run.

    Returns ``(records, delivered_ids, dead_ids)``: the parsed span log
    plus the trace ids carried out of the broker on deliveries and
    dead-letter records.
    """
    combination = sample_combination(workload, seed=7)
    events = [
        event.with_theme(combination.event_tags)
        for event in workload.events[:12]
    ]
    subscriptions = [
        subscription.with_theme(combination.subscription_tags)
        for subscription in workload.subscriptions.approximate[:4]
    ]
    clock = FakeClock()
    injector = FaultInjector(plan, clock=clock)
    matcher = thematic_matcher_factory(workload)()
    matcher.measure = injector.wrap_measure(matcher.measure)
    config = BrokerConfig(delivery=policy, shards=2, max_batch=8, linger=0.0)
    broker = _build_broker(kind, matcher, config, clock)
    sink = io.StringIO()
    # Every dead letter here is scripted; keep the log quiet.
    reliability_logger = logging.getLogger("repro.broker.reliability")
    previous_level = reliability_logger.level
    reliability_logger.setLevel(logging.CRITICAL)
    TRACER.enable(registry=MetricsRegistry(), sink=sink, sample_rate=1.0)
    try:
        handles = [
            broker.subscribe(
                subscription, injector.wrap_callback(subscriber_id)
            )
            for subscriber_id, subscription in enumerate(subscriptions)
        ]
        for event in events:
            broker.publish(event)
        if hasattr(broker, "flush"):
            broker.flush()
    finally:
        if hasattr(broker, "close"):
            broker.close()
        TRACER.disable()
        reliability_logger.setLevel(previous_level)
    deliveries = [
        delivery for handle in handles for delivery in handle.drain()
    ]
    assert all(delivery.trace is not None for delivery in deliveries)
    dead = broker.dead_letters.drain()
    assert all(record.trace_id is not None for record in dead)
    records = [
        json.loads(line)
        for line in sink.getvalue().splitlines()
        if line.strip()
    ]
    return (
        records,
        [delivery.trace.trace_id for delivery in deliveries],
        [record.trace_id for record in dead],
    )


def assert_complete_trees(records, delivered_ids, dead_ids):
    index = build_trace_index(records)
    for trace_id in set(delivered_ids) | set(dead_ids):
        spans = index.get(trace_id)
        assert spans, f"trace {trace_id} left no spans at all"
        span_ids = {span["span_id"] for span in spans}
        roots = [
            span for span in spans if span.get("parent_span_id") is None
        ]
        assert len(roots) == 1, (
            f"trace {trace_id}: expected one root, got "
            f"{[span['span'] for span in roots]}"
        )
        assert roots[0]["span"] in ROOT_SPANS
        for span in spans:
            parent = span.get("parent_span_id")
            assert parent is None or parent in span_ids, (
                f"trace {trace_id}: span {span['span']} has dangling "
                f"parent {parent}"
            )
    for trace_id in set(dead_ids):
        names = {span["span"] for span in index[trace_id]}
        assert "deliver.dead_letter" in names


class TestTraceCompleteness:
    @STRESS_SETTINGS
    @given(plan=fault_plans())
    @pytest.mark.parametrize("kind", BROKER_KINDS)
    def test_every_outcome_has_one_complete_tree(
        self, tiny_workload, kind, plan
    ):
        records, delivered_ids, dead_ids = run_traced(
            tiny_workload, kind, plan
        )
        assert delivered_ids or dead_ids  # the run did something
        assert_complete_trees(records, delivered_ids, dead_ids)

    @pytest.mark.parametrize("kind", BROKER_KINDS)
    def test_dead_letter_trace_carries_attempts_and_rejections(
        self, tiny_workload, kind
    ):
        """The acceptance scenario: a permanently failing subscriber.

        Its events' traces must contain the retry attempts and the
        dead-letter marker; once the breaker opens, later events carry
        a breaker-rejection marker under their own trace id instead.
        """
        # Subscriber 2 is the one this workload slice actually matches
        # against (the others see 0-1 events); faulting it guarantees
        # retries, a breaker trip, and dead letters.
        plan = FaultPlan(
            name="perma",
            callbacks=(CallbackFault(subscriber=2, kind="raise"),),
        )
        records, delivered_ids, dead_ids = run_traced(
            tiny_workload, kind, plan
        )
        assert dead_ids
        assert_complete_trees(records, delivered_ids, dead_ids)
        index = build_trace_index(records)
        attempted = [
            trace_id
            for trace_id in set(dead_ids)
            if any(
                span["span"] == "deliver.attempt"
                for span in index[trace_id]
            )
        ]
        assert attempted, "no dead-lettered trace recorded its attempts"
        rejected_traces = {
            record["trace_id"]
            for record in records
            if record["span"] == "deliver.breaker_rejected"
        }
        assert rejected_traces, "breaker never rejected anything"
        for trace_id in rejected_traces:
            roots = [
                span
                for span in index[trace_id]
                if span.get("parent_span_id") is None
            ]
            assert len(roots) == 1 and roots[0]["span"] in ROOT_SPANS
