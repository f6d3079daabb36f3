"""Fault-tolerant delivery: deadlines, retries, breakers, dead letters.

The broker's terminal delivery step used to be a bare ``try/except``
around the subscriber callback — an exception bumped a counter and the
stack trace evaporated; a stalled callback wedged the dispatching
thread forever. This module replaces that step with a
:class:`ReliableDelivery` engine shared by every broker front-end
(:class:`~repro.broker.broker.ThematicBroker`,
:class:`~repro.broker.threaded.ThreadedBroker`,
:class:`~repro.broker.sharded.ShardedBroker`):

* every callback runs under a :class:`DeliveryPolicy` — an optional
  per-delivery **deadline**, bounded **retries** with exponential
  backoff and seeded jitter, and a per-subscriber **circuit breaker**
  that short-circuits delivery to a persistently failing consumer;
* a delivery whose retries are exhausted (or that a breaker refuses) is
  never dropped: it lands in a drainable :class:`DeadLetterQueue` as a
  :class:`DeadLetterRecord` carrying the exception and formatted
  traceback, and the failure is logged through the module logger.

The invariant the stress suite proves: **every matched delivery ends in
exactly one of the subscriber's inbox or the dead-letter queue** — never
both, never neither — under any injected fault
(:mod:`repro.broker.faults`).

.. warning:: **Delivery semantics changed from the legacy dispatch.**
   At the default policy a failing callback is retried
   (``max_retries=3`` → up to four invocations), so callback delivery
   is **at-least-once**: a non-idempotent consumer should subscribe
   with ``policy=DeliveryPolicy.no_retry()`` (or set a broker-wide
   single-attempt default). The inbox append likewise moved to
   *after* a successful callback — the pre-reliability dispatch
   appended before invoking it, so a failing callback used to leave
   the delivery in the inbox where it is now dead-lettered.

Locking is deliberately narrow: the delivery engine's internal lock
guards breaker state only and is never held across a callback or a
backoff sleep, so callbacks may re-enter their broker and a stalled
subscriber never blocks another subscriber's dispatch on reliability
internals.

All timing flows through an injectable :class:`~repro.obs.clock.Clock`,
so backoff sleeps, deadline measurement, and breaker resets are
deterministic under test. Deadlines are *cooperative*: Python offers no
safe preemption, so a deadline is enforced by measuring the callback's
elapsed clock time after it returns (a "hang" in the fault harness
advances the fake clock), which keeps production semantics honest — an
over-deadline callback's side effects may have happened, but the
delivery is recorded as failed and retried/dead-lettered.

At the **default policy** the fast path is unchanged: a subscriber
without a callback gets an inbox append and nothing else, so inbox
deliveries stay bit-identical to the per-pair oracle with reliability
enabled (``tests/test_oracle.py``).
"""

from __future__ import annotations

import logging
import random
import threading
import traceback
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs import TRACER
from repro.obs.clock import MONOTONIC_CLOCK, Clock, iso_time, wall_time
from repro.obs.flightrec import trigger_dump

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.broker.core import BrokerMetrics, Delivery
    from repro.broker.durability import BrokerDurability
    from repro.core.engine import SubscriptionHandle

__all__ = [
    "CircuitBreaker",
    "DeadLetterQueue",
    "DeadLetterRecord",
    "DeliveryPolicy",
    "ReliableDelivery",
]

logger = logging.getLogger(__name__)

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class DeliveryPolicy:
    """How hard to try before a delivery is declared undeliverable.

    Parameters
    ----------
    deadline:
        Per-attempt latency bound (seconds) on the subscriber callback,
        or ``None`` for no bound. Cooperative: measured after the
        callback returns (see module docstring).
    max_retries:
        Retries *after* the first attempt; ``max_retries=3`` means up to
        four invocations. ``0`` disables retrying.
    backoff_base / backoff_multiplier / backoff_cap:
        Exponential backoff schedule between attempts: retry *n* waits
        ``min(cap, base * multiplier**(n-1))`` seconds before jitter.
    jitter:
        Fractional jitter on each backoff delay — delay is scaled by a
        uniform draw from ``[1-jitter, 1+jitter]``. ``0`` disables it
        (fully deterministic schedule).
    breaker_threshold:
        Consecutive *exhausted* deliveries to one subscriber that trip
        its circuit breaker; ``0`` (or negative) disables breakers.
    breaker_reset:
        Seconds an open breaker waits before letting one probe delivery
        through (half-open).
    seed:
        Seed for the jitter RNG, so retry schedules are reproducible.
    """

    deadline: float | None = None
    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.1
    breaker_threshold: int = 5
    breaker_reset: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.breaker_reset < 0:
            raise ValueError("breaker_reset must be >= 0")

    @classmethod
    def no_retry(cls, **overrides: object) -> "DeliveryPolicy":
        """A policy that attempts each delivery exactly once."""
        overrides.setdefault("max_retries", 0)
        return cls(**overrides)

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (1-based), jitter applied."""
        delay = min(
            self.backoff_cap,
            self.backoff_base * self.backoff_multiplier ** (attempt - 1),
        )
        if self.jitter:
            delay *= 1.0 - self.jitter + 2.0 * self.jitter * rng.random()
        return delay


@dataclass(frozen=True)
class DeadLetterRecord:
    """One undeliverable delivery, with everything needed to diagnose it.

    ``timestamp`` is an ISO-8601 UTC wall-clock string (from the
    injectable clock, so deterministic under test) — dead-letter records
    and flight-recorder dumps are postmortem artifacts meant to be
    correlated side by side, which raw monotonic floats made impossible.
    ``trace_id`` ties the record to every span the event generated, so
    ``repro trace <id>`` can show the full causal path into the DLQ.
    """

    delivery: "Delivery"
    subscriber_id: int
    reason: str  # "retries_exhausted" | "circuit_open"
    attempts: int
    error: str | None = None
    traceback: str | None = None
    timestamp: str = ""
    trace_id: str | None = None


class DeadLetterQueue:
    """Drainable terminal parking lot for undeliverable deliveries.

    Thread-safe; unbounded by default (the no-loss invariant forbids
    silently discarding records, so a capacity, if set, evicts the
    *oldest* record and logs it — the operator opted into bounded
    memory over complete retention).
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self._records: deque[DeadLetterRecord] = deque()
        self._capacity = capacity
        self._lock = threading.Lock()
        #: Journal hook (set by a durable broker): called with the drain
        #: count, outside the queue lock.
        self.on_drain: Callable[[int], None] | None = None

    def append(self, record: DeadLetterRecord) -> None:
        with self._lock:
            if self._capacity is not None and len(self._records) >= self._capacity:
                evicted = self._records.popleft()
                logger.warning(
                    "dead-letter queue at capacity %d; evicting oldest record "
                    "(subscriber %d, seq %d)",
                    self._capacity,
                    evicted.subscriber_id,
                    evicted.delivery.sequence,
                )
            self._records.append(record)

    def drain(self) -> list[DeadLetterRecord]:
        """Remove and return all records, oldest first."""
        with self._lock:
            records = list(self._records)
            self._records.clear()
        # Journal the consumption outside the queue lock so a WAL
        # append can never nest inside it.
        if records and self.on_drain is not None:
            self.on_drain(len(records))
        return records

    def peek(self) -> list[DeadLetterRecord]:
        """Non-destructive snapshot, oldest first."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class CircuitBreaker:
    """Per-subscriber breaker: stop hammering a consumer that only fails.

    Counts *exhausted* deliveries (a success after retries still closes
    the loop). After ``threshold`` consecutive exhaustions the breaker
    opens: deliveries short-circuit straight to the dead-letter queue
    without invoking the callback. After ``reset`` seconds one delivery
    is allowed through as a probe (half-open); success closes the
    breaker, failure re-opens it and restarts the clock.

    Not thread-safe on its own — :class:`ReliableDelivery` mutates
    breaker state only while holding its breaker lock, and that lock is
    *not* held while a callback attempt runs. Concurrent dispatches to
    one subscriber may therefore each run a full attempt loop before
    the breaker observes either outcome (and an open breaker past its
    reset may admit more than one probe). The breaker is admission
    control, not a mutual-exclusion device; serializing deliveries is
    the calling broker's concern.
    """

    def __init__(self, threshold: int, reset: float) -> None:
        self.threshold = threshold
        self.reset = reset
        self.state = CLOSED
        self.failures = 0
        self.opened_at = 0.0

    def allow(self, now: float) -> bool:
        """May a delivery attempt proceed right now?"""
        if self.threshold <= 0 or self.state == CLOSED:
            return True
        if self.state == OPEN and now - self.opened_at >= self.reset:
            self.state = HALF_OPEN
            return True
        return self.state == HALF_OPEN

    def record_success(self) -> None:
        self.failures = 0
        self.state = CLOSED

    def record_failure(self, now: float) -> bool:
        """Count one exhausted delivery; True on a CLOSED→OPEN transition.

        A failed half-open probe re-opens the breaker (restarting the
        reset clock) but returns False — for accounting purposes it was
        never closed.
        """
        if self.threshold <= 0:
            return False
        self.failures += 1
        if self.state == HALF_OPEN or self.failures >= self.threshold:
            newly = self.state == CLOSED
            self.state = OPEN
            self.opened_at = now
            self.failures = 0
            return newly
        return False


class ReliableDelivery:
    """The shared terminal delivery engine behind every broker front-end.

    Parameters
    ----------
    metrics:
        The owning broker's :class:`~repro.broker.broker.BrokerMetrics`
        (``deliveries``/``callback_errors`` stay the source of truth for
        the legacy counters; reliability adds its own ``reliability.*``
        family to the same registry).
    policy:
        Broker-wide default :class:`DeliveryPolicy`; a handle whose
        ``policy`` is set overrides it per subscription.
    dead_letters:
        Queue receiving exhausted/refused deliveries; defaults to a
        fresh unbounded :class:`DeadLetterQueue`.
    clock:
        Time source for backoff, deadlines, and breaker resets.
    durability:
        Optional :class:`~repro.broker.durability.BrokerDurability`.
        When set, every consumption is journaled (an ``ack`` record
        lands *after* the callback succeeds and *before* the inbox
        append) and every dead letter is journaled before it is parked,
        and deliveries whose idempotency key ``(subscriber id, event
        sequence)`` already reached a terminal state are suppressed —
        this is what turns at-least-once retries plus crash recovery
        into effectively-once consumption.
    """

    def __init__(
        self,
        metrics: "BrokerMetrics",
        *,
        policy: DeliveryPolicy | None = None,
        dead_letters: DeadLetterQueue | None = None,
        clock: Clock | None = None,
        durability: "BrokerDurability | None" = None,
    ) -> None:
        self.metrics = metrics
        self.policy = policy if policy is not None else DeliveryPolicy()
        self.dead_letters = (
            dead_letters if dead_letters is not None else DeadLetterQueue()
        )
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        self.durability = durability
        registry = metrics.registry
        self._retries = registry.counter("reliability.retries")
        self._dead = registry.counter("reliability.dead_letters")
        self._deadline_exceeded = registry.counter("reliability.deadline_exceeded")
        self._breaker_opens = registry.counter("reliability.breaker_opens")
        self._short_circuits = registry.counter("reliability.breaker_short_circuits")
        self._breakers_open = registry.gauge("reliability.breakers_open")
        self._backoff_seconds = registry.histogram("reliability.backoff_seconds")
        self._callback_seconds = registry.histogram("reliability.callback_seconds")
        self._rng = random.Random(self.policy.seed)
        self._rng_lock = threading.Lock()
        self._breakers: dict[int, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()

    # -- helpers -----------------------------------------------------------

    def _policy_for(self, handle: "SubscriptionHandle") -> DeliveryPolicy:
        override = getattr(handle, "policy", None)
        return override if override is not None else self.policy

    def _breaker_for(
        self, subscriber_id: int, policy: DeliveryPolicy
    ) -> CircuitBreaker:
        breaker = self._breakers.get(subscriber_id)
        if breaker is None:
            breaker = CircuitBreaker(policy.breaker_threshold, policy.breaker_reset)
            self._breakers[subscriber_id] = breaker
        return breaker

    def breaker_state(self, subscriber_id: int) -> str:
        """Observability hook: this subscriber's breaker state."""
        with self._breaker_lock:
            breaker = self._breakers.get(subscriber_id)
            return breaker.state if breaker is not None else CLOSED

    def _tripped_count(self) -> int:
        """Breakers not CLOSED (open or half-open); call with the lock held.

        The ``reliability.breakers_open`` gauge is recomputed from the
        actual breaker states on every transition, so the accounting can
        never drift from reality the way a mirror counter could.
        """
        return sum(
            1 for breaker in self._breakers.values() if breaker.state != CLOSED
        )

    def _jittered(self, policy: DeliveryPolicy, attempt: int) -> float:
        with self._rng_lock:
            return policy.backoff_delay(attempt, self._rng)

    def _dead_letter(
        self,
        handle: "SubscriptionHandle",
        delivery: "Delivery",
        *,
        reason: str,
        attempts: int,
        error: BaseException | None = None,
    ) -> None:
        # Defensive on wall(): third-party Clock implementations predate
        # the wall-clock extension of the protocol.
        wall = (
            self.clock.wall() if hasattr(self.clock, "wall") else wall_time()
        )
        trace = getattr(delivery, "trace", None)
        record = DeadLetterRecord(
            delivery=delivery,
            subscriber_id=handle.id,
            reason=reason,
            attempts=attempts,
            error=repr(error) if error is not None else None,
            traceback=(
                "".join(traceback.format_exception(error))
                if error is not None
                else None
            ),
            timestamp=iso_time(wall),
            trace_id=trace.trace_id if trace is not None else None,
        )
        # Write-ahead: journal the dead letter before parking it, so a
        # crash between the two replays the record instead of losing it
        # (a duplicate in-memory append after replay is impossible —
        # the key is settled and dispatch suppresses it).
        if self.durability is not None:
            self.durability.log_dead_letter(record)
        self.dead_letters.append(record)
        self._dead.inc()
        now = self.clock.monotonic()
        TRACER.record_span(
            "deliver.dead_letter",
            trace,
            now,
            now,
            subscriber=handle.id,
            reason=reason,
            attempts=attempts,
        )
        if error is not None:
            logger.error(
                "delivery to subscriber %d dead-lettered after %d attempt(s) "
                "(%s): %r",
                handle.id,
                attempts,
                reason,
                error,
                exc_info=error,
            )
        else:
            logger.error(
                "delivery to subscriber %d dead-lettered without attempt (%s)",
                handle.id,
                reason,
            )

    # -- the dispatch path -------------------------------------------------

    def dispatch(self, handle: "SubscriptionHandle", delivery: "Delivery") -> bool:
        """Deliver one matched result to one subscriber, reliably.

        Returns True when the delivery reached the inbox, False when it
        was dead-lettered. Exactly one of the two always happens.

        A subscriber with no callback is pure inbox delivery — nothing
        can fail, so the fast path is an append and a counter, identical
        to the pre-reliability broker (bit-identical parity at default
        policy). With a callback, the inbox append happens only *after*
        the callback succeeds: the inbox is the record of consumption,
        and a failed consumption belongs in the dead-letter queue, not
        in both places.

        The breaker lock is held only to read and update breaker state,
        never across the callback or its backoff sleeps. A callback may
        therefore re-enter the broker (``publish``,
        ``subscribe(replay=True)``, …) without deadlocking, and one
        subscriber's retry storm never blocks another subscriber's
        dispatch — or the :meth:`breaker_state` hook — on this lock.

        The delivery's trace context (if any) is activated for the whole
        dispatch, so attempt spans, breaker rejections, and dead-letter
        markers all land in the publishing event's trace — including on
        dispatcher threads that never saw the publish.
        """
        with TRACER.activate(getattr(delivery, "trace", None)):
            return self._dispatch(handle, delivery)

    def _dispatch(self, handle: "SubscriptionHandle", delivery: "Delivery") -> bool:
        if self.durability is not None and self.durability.is_settled(
            handle.id, delivery.sequence
        ):
            # This (subscriber, sequence) key already reached its
            # terminal state (inbox or DLQ) before a crash; recovery
            # re-dispatch must not consume it again.
            self.durability.note_suppressed()
            return True
        if handle.callback is None:
            with TRACER.span("broker.deliver"):
                self.metrics.inc("deliveries")
                if self.durability is not None:
                    self.durability.log_ack(handle.id, delivery.sequence)
                handle.append(delivery)
            return True
        policy = self._policy_for(handle)
        with self._breaker_lock:
            breaker = self._breaker_for(handle.id, policy)
            was_open = breaker.state == OPEN
            allowed = breaker.allow(self.clock.monotonic())
            probing = allowed and was_open and breaker.state == HALF_OPEN
        if not allowed:
            self._short_circuits.inc()
            now = self.clock.monotonic()
            TRACER.record_span(
                "deliver.breaker_rejected",
                getattr(delivery, "trace", None),
                now,
                now,
                subscriber=handle.id,
            )
            self._dead_letter(handle, delivery, reason="circuit_open", attempts=0)
            return False
        if probing:
            logger.info(
                "breaker for subscriber %d half-open; probing", handle.id
            )
        succeeded, attempts, last_error = self._attempt_loop(
            handle, delivery, policy
        )
        with self._breaker_lock:
            if succeeded:
                breaker.record_success()
                newly_opened = False
            else:
                newly_opened = breaker.record_failure(self.clock.monotonic())
            self._breakers_open.set(self._tripped_count())
        if succeeded:
            return True
        if newly_opened:
            self._breaker_opens.inc()
            logger.warning(
                "circuit breaker opened for subscriber %d after repeated "
                "delivery failures",
                handle.id,
            )
            # Breaker lock already released: the flight-recorder dump
            # (file I/O under its own lock) must never nest inside it.
            trigger_dump("breaker_open", f"subscriber {handle.id}")
        self._dead_letter(
            handle,
            delivery,
            reason="retries_exhausted",
            attempts=attempts,
            error=last_error,
        )
        return False

    def _attempt_loop(
        self,
        handle: "SubscriptionHandle",
        delivery: "Delivery",
        policy: DeliveryPolicy,
    ) -> tuple[bool, int, BaseException | None]:
        """Run the retry loop; (succeeded, attempts, last_error)."""
        last_error: BaseException | None = None
        attempts = 0
        with TRACER.span("broker.deliver"):
            for attempt in range(1, policy.max_attempts + 1):
                attempts = attempt
                if attempt > 1:
                    self._retries.inc()
                    delay = self._jittered(policy, attempt - 1)
                    self._backoff_seconds.record(delay)
                    self.clock.sleep(delay)
                started = self.clock.monotonic()
                try:
                    with TRACER.span(
                        "deliver.attempt", subscriber=handle.id, attempt=attempt
                    ):
                        handle.callback(delivery)
                except Exception as exc:
                    self._callback_seconds.record(self.clock.monotonic() - started)
                    self.metrics.inc("callback_errors")
                    last_error = exc
                    continue
                elapsed = self.clock.monotonic() - started
                self._callback_seconds.record(elapsed)
                if policy.deadline is not None and elapsed > policy.deadline:
                    self._deadline_exceeded.inc()
                    self.metrics.inc("callback_errors")
                    last_error = TimeoutError(
                        f"callback exceeded deadline: {elapsed:.6f}s > "
                        f"{policy.deadline:.6f}s"
                    )
                    continue
                self.metrics.inc("deliveries")
                # The idempotency barrier: the ack is durable *after*
                # the callback succeeded and *before* the inbox append.
                # A crash in that window is the at-least-once edge —
                # on recovery the key is settled, the callback is not
                # re-invoked, and the inbox entry is restored by
                # re-matching the journaled event.
                if self.durability is not None:
                    self.durability.log_ack(handle.id, delivery.sequence)
                handle.append(delivery)
                return True, attempts, None
        return False, attempts, last_error
