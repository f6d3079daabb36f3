"""Fault-injection evaluation: prove the no-loss invariant end to end.

The acceptance bar for the reliability layer
(:mod:`repro.broker.reliability`) is an accounting identity: for every
broker front-end, under any scripted :class:`~repro.broker.faults.FaultPlan`,

    inbox deliveries + dead-letter records == matched deliveries of a
    fault-free serial run

per subscriber — events are delayed, retried, or dead-lettered, never
lost and never duplicated. This module runs that experiment: a
fault-free serial oracle first, then each requested broker kind under
the plan with a fresh :class:`~repro.obs.clock.FakeClock` and
:class:`~repro.broker.faults.FaultInjector`, returning a
machine-readable report. Shared by the stress suite
(``tests/broker/test_fault_stress.py``) and ``repro evaluate --faults``
so tests and CLI can never drift apart on methodology.

When the plan carries a :class:`~repro.core.degrade.DegradedPolicy`,
scorer spikes may legitimately change *what matches* (the engine
downgrades to exact-anchor matching and records it), so the strict
identity against the thematic oracle is only asserted for plans without
a degraded policy; the report then carries the degraded counters
instead.

When the plan carries a :class:`~repro.broker.faults.KillFault`, each
broker runs with a :class:`~repro.broker.durability.DurabilityPolicy`
over a scratch journal directory and is **killed at the plan's WAL
offset**: the first pass subscribes and publishes until the armed
journal raises :class:`~repro.broker.durability.SimulatedCrash`, the
crashed broker is abandoned exactly as a dead process would be, and a
second broker is constructed over the same directory — recovering
registrations, inboxes, and dead letters from disk, re-dispatching
in-flight events (idempotency keys suppress everything that already
reached a terminal state), and resuming the publish stream from the
first sequence the journal never recorded. The same no-loss identity is
then asserted *across the restart*.
"""

from __future__ import annotations

import logging
import tempfile
from collections import Counter
from dataclasses import replace

from repro.broker.broker import ThematicBroker
from repro.broker.config import BrokerConfig
from repro.broker.durability import DurabilityPolicy, SimulatedCrash
from repro.broker.faults import FaultInjector, FaultPlan
from repro.broker.reliability import DeliveryPolicy
from repro.broker.sharded import ShardedBroker
from repro.broker.threaded import ThreadedBroker
from repro.evaluation.brokers import sample_combination
from repro.evaluation.harness import thematic_matcher_factory
from repro.evaluation.workload import Workload
from repro.obs.clock import FakeClock
from repro.obs.flightrec import trigger_dump

__all__ = ["BROKER_KINDS", "run_fault_injection"]

_BROKER_CLASSES = {
    "serial": ThematicBroker,
    "threaded": ThreadedBroker,
    "sharded": ShardedBroker,
}

#: Broker front-ends the experiment can exercise, in report order.
BROKER_KINDS = tuple(_BROKER_CLASSES)

#: Fault-run default: quick deterministic retries (no jitter), small
#: breaker threshold so plans can actually trip it. Sleeps go through
#: the fake clock, so none of this costs wall time in tests.
DEFAULT_FAULT_POLICY = DeliveryPolicy(
    max_retries=2,
    backoff_base=0.01,
    backoff_cap=0.1,
    jitter=0.0,
    breaker_threshold=0,
)


def _build_broker(kind: str, matcher, config: BrokerConfig, clock):
    try:
        broker_cls = _BROKER_CLASSES[kind]
    except KeyError:
        raise ValueError(
            f"unknown broker kind {kind!r} (expected {BROKER_KINDS})"
        ) from None
    return broker_cls(matcher, config, clock=clock)


def _account(broker, handles):
    """(delivered per subscriber, dead-lettered per subscriber, counters)
    of a closed broker.

    The counter view is flat across layers: ``broker.*`` and
    ``reliability.*`` live on the broker registry, ``engine.*`` on the
    shard registries, merged at read time.
    """
    delivered = [len(handle.drain()) for handle in handles]
    dead = Counter(
        record.subscriber_id for record in broker.dead_letters.drain()
    )
    counters = dict(broker.metrics.registry.snapshot()["counters"])
    counters.update(broker.metrics_snapshot()["engine_totals"])
    return delivered, [dead.get(i, 0) for i in range(len(handles))], counters


def _run_one(kind, matcher_factory, subscriptions, events, plan, config, clock):
    """One faulted pass: returns (delivered_per_sub, dead_per_sub, metrics)."""
    injector = FaultInjector(plan, clock=clock)
    matcher = matcher_factory()
    matcher.measure = injector.wrap_measure(matcher.measure)
    broker = _build_broker(kind, matcher, config, clock)
    try:
        handles = [
            broker.subscribe(
                subscription, injector.wrap_callback(subscriber_id)
            )
            for subscriber_id, subscription in enumerate(subscriptions)
        ]
        for event in events:
            broker.publish(event)
        broker.flush()
    finally:
        broker.close()
    return _account(broker, handles)


def _run_one_with_kill(
    kind, matcher_factory, subscriptions, events, plan, config, clock, directory
):
    """One kill/restart pass; returns (delivered, dead, metrics, extras).

    Phase 1 runs the broker with an armed journal until the plan's WAL
    offset raises :class:`SimulatedCrash` (or until the run completes
    because the offset was never reached). A crashed broker is
    abandoned, never closed — a dead process flushes nothing.

    Phase 2 builds a fresh broker (fresh matcher, fresh injector with
    reset fault budgets — a restarted process loses its in-memory
    counters too) over the same directory, reattaches the scripted
    callbacks to the recovered handles, re-dispatches in-flight events,
    and resumes publishing at the first sequence the journal never
    recorded. Events are published one flush at a time in both phases,
    so the event index *is* the sequence number on every broker kind —
    which is what makes the resume point exact.
    """
    durable_config = replace(
        config, durability=DurabilityPolicy(directory=directory)
    )
    injector = FaultInjector(plan, clock=clock)
    matcher = matcher_factory()
    matcher.measure = injector.wrap_measure(matcher.measure)
    broker = _build_broker(kind, matcher, durable_config, clock)
    injector.arm(broker.durability)
    crashed = False
    handles = []
    try:
        for subscriber_id, subscription in enumerate(subscriptions):
            handles.append(
                broker.subscribe(
                    subscription, injector.wrap_callback(subscriber_id)
                )
            )
        for event in events:
            broker.publish(event)
            # Flush per event so async brokers process strictly in
            # publish order and the crash lands at a deterministic
            # point in the stream.
            broker.flush(10.0)
            if broker.durability.crashed:
                break
    except SimulatedCrash:
        pass
    crashed = broker.durability.crashed
    if not crashed:
        # Kill offset beyond this run's journal: a clean, uninterrupted
        # run. Close and account exactly like the no-kill path.
        broker.close()
        return (*_account(broker, handles), {"restarted": False})

    # -- phase 2: restart from disk ---------------------------------------
    injector2 = FaultInjector(plan, clock=clock)
    matcher2 = matcher_factory()
    matcher2.measure = injector2.wrap_measure(matcher2.measure)
    broker2 = _build_broker(kind, matcher2, durable_config, clock)
    recovery = broker2.durability.report
    handles2 = []
    for subscriber_id, subscription in enumerate(subscriptions):
        recovered = broker2.recovered.get(subscriber_id)
        if recovered is not None:
            # Callbacks are code, not journal data: reattach the
            # scripted fault wrapper to the restored handle.
            recovered.callback = injector2.wrap_callback(subscriber_id)
            handles2.append(recovered)
        else:
            # The crash predated this registration; ids continue
            # contiguously, so re-subscribing preserves the mapping
            # between fault-plan subscriber indexes and handle ids.
            handles2.append(
                broker2.subscribe(
                    subscription, injector2.wrap_callback(subscriber_id)
                )
            )
    resumed_at = broker2.durability.state.next_sequence
    recover_completed = broker2.recover_pending()
    for event in events[resumed_at:]:
        broker2.publish(event)
        broker2.flush(10.0)
    broker2.close()
    extras = {
        "restarted": True,
        "resumed_at": resumed_at,
        "recover_completed": recover_completed,
        "recovery": recovery.to_dict() if recovery is not None else None,
    }
    return (*_account(broker2, handles2), extras)


def run_fault_injection(
    workload: Workload,
    plan: FaultPlan,
    *,
    brokers: tuple[str, ...] = BROKER_KINDS,
    policy: DeliveryPolicy | None = None,
    shards: int = 2,
    max_batch: int = 8,
    max_events: int | None = None,
    max_subscriptions: int | None = None,
    seed: int = 99,
) -> dict:
    """Run ``plan`` against each broker kind; verify no event is lost.

    Returns a report dict: the fault-free per-subscriber matched counts
    (``baseline``), then per broker kind the delivered/dead-lettered
    accounting, the ``no_loss`` verdict, and the relevant reliability
    and degraded counters. ``report["no_loss"]`` aggregates all kinds.
    """
    combination = sample_combination(workload, seed=seed)
    events = [
        event.with_theme(combination.event_tags)
        for event in workload.events[:max_events]
    ]
    subscriptions = [
        subscription.with_theme(combination.subscription_tags)
        for subscription in workload.subscriptions.approximate[:max_subscriptions]
    ]
    matcher_factory = thematic_matcher_factory(workload)

    # Fault-free serial oracle: matched counts per subscriber.
    oracle = ThematicBroker(matcher_factory())
    oracle_handles = [
        oracle.subscribe(subscription) for subscription in subscriptions
    ]
    for event in events:
        oracle.publish(event)
    baseline = [len(handle.drain()) for handle in oracle_handles]

    # Precedence: explicit argument > policy embedded in the plan >
    # the harness default (plans that need breakers to trip ship their
    # own low-threshold policy).
    if policy is None:
        policy = plan.policy
    delivery_policy = policy if policy is not None else DEFAULT_FAULT_POLICY
    config = BrokerConfig(
        delivery=delivery_policy,
        degraded=plan.degraded,
        shards=shards,
        max_batch=max_batch,
        linger=0.0,
    )
    strict = plan.degraded is None
    report: dict = {
        "plan": plan.to_dict(),
        "events": len(events),
        "subscriptions": len(subscriptions),
        "baseline": baseline,
        "strict": strict,
        "brokers": {},
    }
    all_no_loss = True
    # Every dead letter here is a scripted fault; logging each one at
    # ERROR would drown the report, so mute the delivery logger for the
    # duration of the experiment.
    reliability_logger = logging.getLogger("repro.broker.reliability")
    previous_level = reliability_logger.level
    reliability_logger.setLevel(logging.CRITICAL)
    try:
        for kind in brokers:
            clock = FakeClock()
            extras: dict = {}
            if plan.kill is not None:
                with tempfile.TemporaryDirectory(
                    prefix=f"repro-wal-{kind}-"
                ) as directory:
                    delivered, dead, metrics, extras = _run_one_with_kill(
                        kind, matcher_factory, subscriptions, events, plan,
                        config, clock, directory,
                    )
            else:
                delivered, dead, metrics = _run_one(
                    kind, matcher_factory, subscriptions, events, plan, config,
                    clock,
                )
            accounted = [d + x for d, x in zip(delivered, dead, strict=True)]
            no_loss = accounted == baseline if strict else True
            all_no_loss = all_no_loss and no_loss
            if strict and not no_loss:
                trigger_dump(
                    "no_loss_violation",
                    f"broker {kind}: accounted {accounted} != "
                    f"baseline {baseline}",
                )
            entry = {
                "delivered": delivered,
                "dead_letters": dead,
                "accounted": accounted,
                "no_loss": no_loss,
                "retries": metrics.get("reliability.retries", 0),
                "dead_lettered": metrics.get("reliability.dead_letters", 0),
                "callback_errors": metrics.get("broker.callback_errors", 0),
            }
            entry.update(extras)
            if plan.kill is not None:
                entry["durability"] = {
                    key.removeprefix("durability."): value
                    for key, value in metrics.items()
                    if isinstance(key, str) and key.startswith("durability.")
                }
            if plan.degraded is not None:
                entry["degraded"] = {
                    key.removeprefix("engine.degraded_"): value
                    for key, value in metrics.items()
                    if isinstance(key, str) and key.startswith("engine.degraded_")
                }
            report["brokers"][kind] = entry
    finally:
        reliability_logger.setLevel(previous_level)
    report["no_loss"] = all_no_loss
    return report
