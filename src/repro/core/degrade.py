"""Degraded matching mode: fall back to exact-anchor matching under load.

The thematic matcher's semantic backend (PVSM projections, relatedness
scoring) is the expensive part of the pipeline. Internet-scale
approximate pub/sub systems (S-ToPSS, "I know what you mean") stress
that the approximate layer must *degrade gracefully* rather than fail
closed when the semantic backend is slow or unhealthy: better to keep
delivering the exact fragment of the workload late-and-complete than to
wedge the broker behind a stalled scorer.

:class:`DegradedMode` implements that policy for
:class:`~repro.core.engine.ThematicEventEngine`. The engine times every
full ``match_batch`` through an injected clock and reports the elapsed
time here; when a batch exceeds the configured latency budget for
``trip_after`` consecutive batches (or the backend is marked unhealthy
explicitly, e.g. by a cache health check), the controller trips and the
engine routes subsequent batches through an **exact-anchor fallback** —
the same staged pipeline over an
:class:`~repro.semantics.measures.ExactMeasure`, where only literal
(normalized) term matches score. Approximate semantics are suspended,
never the delivery of exactly-matching events.

Recovery is probe-based: after ``cooldown`` seconds in degraded mode the
next batch runs the full thematic path as a probe; a within-budget probe
closes the loop, an over-budget probe re-trips. A replay or restore
batch (``ThematicEventEngine.replay``) is a batch like any other: it is
timed, shielded, and may serve as the probe. Every transition is
recorded as a :class:`DowngradeEvent` and counted in the engine's
metrics registry (``engine.degraded_*``), so a downgrade is always
observable, never silent.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass

from repro.obs import MetricsRegistry
from repro.obs.clock import MONOTONIC_CLOCK, Clock
from repro.obs.flightrec import trigger_dump

__all__ = ["DegradedMode", "DegradedPolicy", "DowngradeEvent"]

logger = logging.getLogger(__name__)

#: Controller states.
HEALTHY = "healthy"
DEGRADED = "degraded"


@dataclass(frozen=True)
class DegradedPolicy:
    """When to abandon semantic scoring and how eagerly to come back.

    Parameters
    ----------
    latency_budget:
        Maximum acceptable duration (seconds) of one full thematic
        ``match_batch`` call. Budgets are per batch, so size them for
        the broker's ``max_batch`` (micro-batches are bounded) and for
        a replay, which matches one subscription against the whole
        replay ring in one batch.
    cooldown:
        Seconds to stay degraded before probing the full path again.
    trip_after:
        Consecutive over-budget batches required to trip. 1 trips on
        the first slow batch; higher values ride out isolated spikes.
    """

    latency_budget: float
    cooldown: float = 1.0
    trip_after: int = 1

    def __post_init__(self) -> None:
        if self.latency_budget <= 0:
            raise ValueError("latency_budget must be positive")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        if self.trip_after < 1:
            raise ValueError("trip_after must be >= 1")


@dataclass(frozen=True)
class DowngradeEvent:
    """One recorded mode transition (times are clock readings)."""

    kind: str  # "trip" | "recover" | "mark_unhealthy" | "mark_healthy"
    reason: str
    at: float


class DegradedMode:
    """Trip/probe/recover state machine guarding the thematic path.

    Thread-safe: the sharded broker may run one engine's batches from a
    pool worker while another thread reads health state.
    """

    def __init__(
        self,
        policy: DegradedPolicy,
        *,
        clock: Clock | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.policy = policy
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        registry = registry if registry is not None else MetricsRegistry()
        self._trips = registry.counter("engine.degraded_trips")
        self._recoveries = registry.counter("engine.degraded_recoveries")
        self._fallback_batches = registry.counter("engine.degraded_batches")
        self._active = registry.gauge("engine.degraded_active")
        self._lock = threading.Lock()
        self._state = HEALTHY
        self._over_budget = 0
        self._tripped_at = 0.0
        self._probing = False
        self._manual = False
        self.events: list[DowngradeEvent] = []

    # -- queries -----------------------------------------------------------

    @property
    def degraded(self) -> bool:
        with self._lock:
            return self._state == DEGRADED or self._manual

    def use_fallback(self) -> bool:
        """Decide the mode of the next batch (and arm probes).

        Returns True when the batch should run the exact-anchor
        fallback. While degraded, one batch per elapsed ``cooldown``
        runs the full path as a recovery probe (returns False with the
        probe armed; :meth:`observe` settles it).
        """
        with self._lock:
            if self._manual:
                return True
            if self._state != DEGRADED:
                return False
            now = self.clock.monotonic()
            if now - self._tripped_at >= self.policy.cooldown:
                self._probing = True
                return False
            return True

    # -- reports from the engine -------------------------------------------

    def note_fallback_batch(self) -> None:
        """Count one batch served by the exact-anchor fallback."""
        self._fallback_batches.inc()

    def observe(self, elapsed: float) -> None:
        """Feed the duration of one *full* (thematic) batch."""
        tripped: str | None = None
        with self._lock:
            over = elapsed > self.policy.latency_budget
            probing, self._probing = self._probing, False
            if over:
                self._over_budget += 1
                if probing or self._over_budget >= self.policy.trip_after:
                    tripped = (
                        f"batch took {elapsed:.6f}s "
                        f"> budget {self.policy.latency_budget:.6f}s"
                        + (" (probe)" if probing else "")
                    )
                    self._trip(tripped)
            else:
                self._over_budget = 0
                if self._state == DEGRADED:
                    self._recover(f"probe within budget ({elapsed:.6f}s)")
        if tripped is not None:
            # With the lock released: the dump takes its own lock and
            # does file I/O; nesting it inside ours would let a slow disk
            # block every thread feeding batch timings.
            trigger_dump("degraded_mode_trip", tripped)

    # -- manual health overrides -------------------------------------------

    def mark_unhealthy(self, reason: str = "backend marked unhealthy") -> None:
        """Force degraded mode until :meth:`mark_healthy` (no auto-probe)."""
        transitioned = False
        with self._lock:
            if not self._manual:
                self._manual = True
                transitioned = True
                self._active.set(1.0)
                self._record("mark_unhealthy", reason)
                logger.warning("matching degraded (manual): %s", reason)
        if transitioned:
            trigger_dump("degraded_mode_trip", reason)

    def mark_healthy(self, reason: str = "backend marked healthy") -> None:
        with self._lock:
            if self._manual:
                self._manual = False
                self._record("mark_healthy", reason)
                if self._state != DEGRADED:
                    self._active.set(0.0)

    # -- internals (call with the lock held) -------------------------------

    def _trip(self, reason: str) -> None:
        self._tripped_at = self.clock.monotonic()
        self._over_budget = 0
        if self._state != DEGRADED:
            self._state = DEGRADED
            self._trips.inc()
            self._active.set(1.0)
            self._record("trip", reason)
            logger.warning(
                "matching degraded to exact-anchor fallback: %s", reason
            )
        else:
            # A failed probe: stay degraded, restart the cooldown.
            self._trips.inc()
            self._record("trip", reason)

    def _recover(self, reason: str) -> None:
        self._state = HEALTHY
        self._over_budget = 0
        self._recoveries.inc()
        if not self._manual:
            self._active.set(0.0)
        self._record("recover", reason)
        logger.info("matching recovered to full thematic path: %s", reason)

    def _record(self, kind: str, reason: str) -> None:
        self.events.append(
            DowngradeEvent(kind=kind, reason=reason, at=self.clock.monotonic())
        )
