"""Deterministic fault injection for the delivery and matching layers.

The reliability layer (:mod:`repro.broker.reliability`) and degraded
mode (:mod:`repro.core.degrade`) make promises — no delivery lost, no
thread wedged, downgrade instead of stall — that only mean something if
they hold under misbehavior. This module scripts that misbehavior
deterministically:

* a :class:`FaultPlan` declares which subscriber callbacks fail and how
  (``raise`` forever, ``flaky`` for the first N attempts, ``hang`` by a
  scripted duration) and whether the semantic scorer suffers latency
  spikes;
* a :class:`FaultInjector` applies the plan by *wrapping* — it wraps
  subscriber callbacks and the matcher's measure, and never reaches into
  broker internals, so the system under test is the real code path;
* all simulated time flows through the injected
  :class:`~repro.obs.clock.Clock`: a "hang" advances a
  :class:`~repro.obs.clock.FakeClock` rather than sleeping, so a test
  that simulates a 30-second outage runs in microseconds and every
  deadline/breaker/backoff decision is a pure function of the plan.

Plans round-trip through JSON (:meth:`FaultPlan.to_json` /
:meth:`FaultPlan.from_json`) so the same scenario runs in tests and via
``repro evaluate --faults plan.json``.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

from repro.broker.reliability import DeliveryPolicy
from repro.core.degrade import DegradedPolicy
from repro.obs.clock import MONOTONIC_CLOCK, Clock
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.broker.core import Delivery
    from repro.broker.durability import BrokerDurability

__all__ = [
    "CallbackFault",
    "FaultInjector",
    "FaultyCallbackError",
    "FaultPlan",
    "KillFault",
    "ScorerFault",
]


class FaultyCallbackError(RuntimeError):
    """Raised by injected callback faults (distinguishable from real bugs)."""


@dataclass(frozen=True)
class CallbackFault:
    """Scripted misbehavior for one subscriber's callback.

    Parameters
    ----------
    subscriber:
        The subscriber id (registration order) the fault attaches to.
    kind:
        ``"raise"`` — raise :class:`FaultyCallbackError`;
        ``"flaky"`` — raise on the first ``times`` invocations, then
        succeed (exercises the retry path to success);
        ``"hang"`` — advance the clock by ``hang_seconds`` inside the
        callback, then return normally (exercises deadlines).
    times:
        For ``raise``/``hang``: how many invocations misbehave before
        behaving (``0`` = every invocation, forever). For ``flaky`` the
        first ``times`` invocations fail (``0`` is promoted to 1 — a
        flaky callback that never fails is no fault at all).
    hang_seconds:
        Simulated stall per hung invocation.
    """

    subscriber: int
    kind: str
    times: int = 0
    hang_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("raise", "flaky", "hang"):
            raise ValueError(f"unknown callback fault kind {self.kind!r}")
        if self.times < 0:
            raise ValueError("times must be >= 0")
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be >= 0")
        if self.kind == "flaky" and self.times == 0:
            object.__setattr__(self, "times", 1)


@dataclass(frozen=True)
class ScorerFault:
    """Latency spikes in the semantic measure.

    Every ``every``-th score call starting at call index ``start``
    (0-based) stalls the clock by ``spike_seconds`` — enough to blow a
    degraded-mode latency budget on schedule.
    """

    spike_seconds: float
    every: int = 1
    start: int = 0

    def __post_init__(self) -> None:
        if self.spike_seconds < 0:
            raise ValueError("spike_seconds must be >= 0")
        if self.every < 1:
            raise ValueError("every must be >= 1")
        if self.start < 0:
            raise ValueError("start must be >= 0")


@dataclass(frozen=True)
class KillFault:
    """Kill the broker at a write-ahead-log byte offset.

    The broker under test must run with a
    :class:`~repro.broker.durability.DurabilityPolicy`; the injector
    arms the journal (:meth:`FaultInjector.arm`) so that the append
    crossing cumulative offset ``at`` raises
    :class:`~repro.broker.durability.SimulatedCrash` — on whichever
    thread happens to be journaling, exactly like a real process death.

    Parameters
    ----------
    at:
        Cumulative WAL byte offset (segment headers included) at which
        the crash fires. Offsets beyond the run's journal size simply
        never fire (the run completes fault-free).
    mode:
        What the crashing append leaves on disk: ``"before"`` nothing,
        ``"torn"`` a partial frame (the torn-write recovery path),
        ``"after"`` the full fsynced frame whose in-memory effect never
        happened (the effectively-once edge).
    """

    at: int
    mode: str = "before"

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("at must be >= 0")
        if self.mode not in ("before", "torn", "after"):
            raise ValueError(
                f"unknown kill mode {self.mode!r} "
                "(expected 'before', 'torn', or 'after')"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A named, serializable bundle of scripted faults.

    The unit of input for the stress suite and for
    ``repro evaluate --faults``: everything the injector needs, nothing
    about the workload itself.
    """

    name: str = "plan"
    callbacks: tuple[CallbackFault, ...] = ()
    scorer: ScorerFault | None = None
    degraded: DegradedPolicy | None = None
    #: Delivery policy the scenario should run under, or None to use
    #: whatever the harness defaults to. A plan that wants breakers to
    #: trip (low threshold, no jitter) carries that policy itself, so
    #: tests and ``repro evaluate --faults`` reproduce the same run.
    policy: DeliveryPolicy | None = None
    #: Optional mid-plan broker death; the harness kills the broker at
    #: this WAL offset, restarts it from disk, and asserts no-loss
    #: across the restart (see :mod:`repro.evaluation.faults`).
    kill: KillFault | None = None

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        plan: dict = {"name": self.name}
        if self.callbacks:
            plan["callbacks"] = [
                {
                    "subscriber": fault.subscriber,
                    "kind": fault.kind,
                    "times": fault.times,
                    "hang_seconds": fault.hang_seconds,
                }
                for fault in self.callbacks
            ]
        if self.scorer is not None:
            plan["scorer"] = {
                "spike_seconds": self.scorer.spike_seconds,
                "every": self.scorer.every,
                "start": self.scorer.start,
            }
        if self.degraded is not None:
            plan["degraded"] = {
                "latency_budget": self.degraded.latency_budget,
                "cooldown": self.degraded.cooldown,
                "trip_after": self.degraded.trip_after,
            }
        if self.policy is not None:
            plan["policy"] = {
                "deadline": self.policy.deadline,
                "max_retries": self.policy.max_retries,
                "backoff_base": self.policy.backoff_base,
                "backoff_multiplier": self.policy.backoff_multiplier,
                "backoff_cap": self.policy.backoff_cap,
                "jitter": self.policy.jitter,
                "breaker_threshold": self.policy.breaker_threshold,
                "breaker_reset": self.policy.breaker_reset,
                "seed": self.policy.seed,
            }
        if self.kill is not None:
            plan["kill"] = {"at": self.kill.at, "mode": self.kill.mode}
        return plan

    @classmethod
    def from_dict(cls, plan: dict) -> "FaultPlan":
        known = {"name", "callbacks", "scorer", "degraded", "policy", "kill"}
        unknown = set(plan) - known
        if unknown:
            raise ValueError(f"unknown fault plan keys {sorted(unknown)}")
        callbacks = tuple(
            CallbackFault(**spec) for spec in plan.get("callbacks", ())
        )
        scorer_spec = plan.get("scorer")
        degraded_spec = plan.get("degraded")
        policy_spec = plan.get("policy")
        kill_spec = plan.get("kill")
        return cls(
            name=plan.get("name", "plan"),
            callbacks=callbacks,
            scorer=ScorerFault(**scorer_spec) if scorer_spec else None,
            degraded=DegradedPolicy(**degraded_spec) if degraded_spec else None,
            policy=DeliveryPolicy(**policy_spec) if policy_spec else None,
            kill=KillFault(**kill_spec) if kill_spec else None,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


class _FaultyCallback:
    """Stateful wrapper applying one :class:`CallbackFault`."""

    def __init__(
        self,
        fault: CallbackFault,
        inner: Callable[["Delivery"], None] | None,
        clock: Clock,
    ) -> None:
        self._fault = fault
        self._inner = inner
        self._clock = clock
        self._calls = 0
        self._lock = threading.Lock()

    def __call__(self, delivery: "Delivery") -> None:
        with self._lock:
            self._calls += 1
            call = self._calls
        fault = self._fault
        active = fault.times == 0 or call <= fault.times
        if fault.kind == "hang" and active:
            self._clock.sleep(fault.hang_seconds)
        elif fault.kind in ("raise", "flaky") and active:
            raise FaultyCallbackError(
                f"injected {fault.kind} fault for subscriber "
                f"{fault.subscriber} (call {call})"
            )
        if self._inner is not None:
            self._inner(delivery)


class _SpikingMeasure:
    """Measure wrapper applying a :class:`ScorerFault` spike schedule."""

    def __init__(self, fault: ScorerFault, inner: Any, clock: Clock) -> None:
        self._fault = fault
        self._inner = inner
        self._clock = clock
        self._calls = 0
        self._lock = threading.Lock()

    def score(
        self, term_s: Any, theme_s: Any, term_e: Any, theme_e: Any
    ) -> float:
        with self._lock:
            call = self._calls
            self._calls += 1
        fault = self._fault
        if call >= fault.start and (call - fault.start) % fault.every == 0:
            self._clock.sleep(fault.spike_seconds)
        return self._inner.score(term_s, theme_s, term_e, theme_e)

    def __getattr__(self, name: str) -> Any:
        # Measures expose extras (space, caches); forward transparently.
        return getattr(self._inner, name)


@dataclass
class FaultInjector:
    """Applies a :class:`FaultPlan` by wrapping callbacks and the measure.

    One injector per broker under test: the callback wrappers are
    stateful (flaky counters), so sharing an injector across brokers
    would let one broker's retries consume another broker's fault
    budget.
    """

    plan: FaultPlan
    clock: Clock = field(default_factory=lambda: MONOTONIC_CLOCK)

    def __post_init__(self) -> None:
        self._by_subscriber = {
            fault.subscriber: fault for fault in self.plan.callbacks
        }

    def wrap_callback(
        self,
        subscriber: int,
        inner: Callable[["Delivery"], None] | None = None,
    ) -> Callable[["Delivery"], None] | None:
        """Wrap ``inner`` with this subscriber's scripted fault (if any).

        Returns ``inner`` unchanged when the plan has no fault for this
        subscriber — un-faulted subscribers run the pristine path.
        """
        fault = self._by_subscriber.get(subscriber)
        if fault is None:
            return inner
        return _FaultyCallback(fault, inner, self.clock)

    def wrap_measure(self, measure: Any) -> Any:
        """Wrap a semantic measure with the plan's scorer spikes (if any)."""
        if self.plan.scorer is None:
            return measure
        return _SpikingMeasure(self.plan.scorer, measure, self.clock)

    def arm(self, durability: "BrokerDurability | None") -> None:
        """Arm the plan's :class:`KillFault` on a broker's journal.

        No-op when the plan has no kill or the broker runs without
        durability — the injector stays wrap-only either way; the crash
        fires inside the journal's own append path.
        """
        if self.plan.kill is None or durability is None:
            return
        durability.arm_kill(self.plan.kill.at, self.plan.kill.mode)
