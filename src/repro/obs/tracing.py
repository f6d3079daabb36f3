"""Pipeline tracing: causal spans over the match and delivery path.

A *span* times one stage of an event's life (theme projection,
similarity-matrix build, top-k enumeration, ingress wait, delivery
attempt, …). Spans participate in two regimes:

* **Full tracing** (:meth:`Tracer.enable`): every span aggregates its
  duration into a ``stage.<name>`` histogram on the tracer's registry
  and can append a JSONL record to a sink, so ``repro stats`` /
  ``--trace`` can print per-stage p50/p99 and ``repro trace <id>`` can
  rebuild call trees offline.
* **Flight recording** (:meth:`Tracer.attach_flight_recorder`): spans
  belonging to *sampled* traces are appended to a bounded ring buffer
  (:mod:`repro.obs.flightrec`) at near-zero cost, dumped only when an
  incident trigger fires.

Causality rides on :class:`~repro.obs.context.TraceContext`: the broker
mints one context per published event (:meth:`Tracer.mint_trace`), opens
the event's root span with :meth:`Tracer.root_span`, and passes the
context along explicitly (queue tuples, :class:`Delivery` objects,
dead-letter records). Within a thread, child spans inherit the current
context automatically; crossing a thread (shard pool workers, dispatcher
threads) uses :meth:`Tracer.activate` to re-establish it.

When tracing is **fully inactive** (the default) ``Tracer.span`` returns
a shared no-op context manager and ``mint_trace`` returns ``None``: the
cost on the hot path is one attribute check and an empty ``with`` block
— no allocation, no clock reads — keeping the instrumented pipeline
within noise of the uninstrumented one.

Usage::

    from repro.obs import TRACER

    with TRACER.span("matcher.match", n=3, m=5):
        ...

    ctx = TRACER.mint_trace()
    with TRACER.root_span("broker.publish", ctx):
        ...

    TRACER.enable(sink="trace.jsonl")
"""

from __future__ import annotations

import functools
import json
import random
import threading
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING, Any, TextIO

from repro.obs.clock import MONOTONIC_CLOCK, Clock, wall_time
from repro.obs.context import TraceContext, new_span_id, new_trace_id
from repro.obs.registry import MetricsRegistry, get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.flightrec import FlightRecorder

__all__ = ["DEFAULT_FLIGHT_SAMPLE_RATE", "Tracer", "TRACER", "traced"]

#: Default sampling rate while only the flight recorder is attached:
#: 1-in-100 traces recorded completely, the rest cost one RNG draw at
#: mint time plus a near-free unsampled span path. Chosen so armed
#: flight recording stays under ~2% throughput overhead on the fig9
#: workload while a dump still captures dozens of whole traces.
DEFAULT_FLIGHT_SAMPLE_RATE = 0.01


class _NoopSpan:
    """Shared do-nothing span for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def tag(self, **attributes: object) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _NoopActivation:
    """Shared do-nothing context activation."""

    __slots__ = ()

    def __enter__(self) -> "_NoopActivation":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP_ACTIVATION = _NoopActivation()


class _Activation:
    """Re-establish a trace context as current on this thread."""

    __slots__ = ("tracer", "ctx", "_previous")

    def __init__(self, tracer: "Tracer", ctx: TraceContext) -> None:
        self.tracer = tracer
        self.ctx = ctx
        self._previous: TraceContext | None = None

    def __enter__(self) -> "_Activation":
        local = self.tracer._local
        self._previous = getattr(local, "ctx", None)
        local.ctx = self.ctx
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.tracer._local.ctx = self._previous
        return False


class _Span:
    """An active timed span; created only when tracing is active."""

    __slots__ = (
        "tracer",
        "name",
        "attributes",
        "start",
        "ctx",
        "_root",
        "_parent",
        "_parent_ctx",
        "_parent_span_id",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attributes: dict[str, Any],
        *,
        ctx: TraceContext | None = None,
        root: bool = False,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attributes = attributes
        self.start = 0.0
        self.ctx = ctx
        self._root = root
        self._parent: str | None = None
        self._parent_ctx: TraceContext | None = None
        self._parent_span_id: str | None = None

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        if tracer.enabled:
            # The name stack only feeds sink records' "parent" field;
            # recorder-only mode links spans by ids and skips the upkeep.
            stack = tracer._stack()
            self._parent = stack[-1] if stack else None
            stack.append(self.name)
        local = tracer._local
        parent_ctx: TraceContext | None = getattr(local, "ctx", None)
        self._parent_ctx = parent_ctx
        if self.ctx is None and parent_ctx is not None:
            self.ctx = parent_ctx.child()
        if not self._root and parent_ctx is not None:
            self._parent_span_id = parent_ctx.span_id
        if self.ctx is not None:
            local.ctx = self.ctx
        self.start = tracer.clock.monotonic()
        return self

    def tag(self, **attributes: Any) -> None:
        """Add attributes that are known only once the span's work is done."""
        self.attributes.update(attributes)

    def __exit__(self, *exc_info: object) -> bool:
        tracer = self.tracer
        duration = tracer.clock.monotonic() - self.start
        if tracer.enabled:
            stack = tracer._stack()
            if stack and stack[-1] == self.name:
                stack.pop()
        if self.ctx is not None:
            tracer._local.ctx = self._parent_ctx
        tracer._record(
            self.name,
            self._parent,
            duration,
            self.attributes,
            ctx=self.ctx,
            parent_span_id=self._parent_span_id,
            start=self.start,
        )
        return False


class Tracer:
    """Span factory with a zero-overhead inactive mode.

    Parameters of :meth:`enable`:

    registry:
        Where span durations aggregate as ``stage.<name>`` histograms
        (default: the process-wide registry).
    sink:
        Optional JSONL destination — a path or an open text file. Each
        finished span appends one JSON object per line.
    sample_rate:
        Fraction of minted traces that are *sampled* (recorded by the
        flight recorder; full tracing records every span regardless).
    """

    def __init__(self, *, clock: Clock | None = None) -> None:
        #: Duration source for spans; injectable so traced pipelines stay
        #: deterministic under the fault harness's FakeClock.
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        self.enabled = False
        self._registry: MetricsRegistry | None = None
        self._sink: TextIO | None = None
        self._owns_sink = False
        self._sink_lock = threading.Lock()
        self._local = threading.local()
        self._recorder: "FlightRecorder | None" = None
        self._enabled_rate = 1.0
        self._recorder_rate = DEFAULT_FLIGHT_SAMPLE_RATE
        self._rng = random.Random(0x5EED)
        self._rng_lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def enable(
        self,
        *,
        registry: MetricsRegistry | None = None,
        sink: str | TextIO | None = None,
        sample_rate: float = 1.0,
    ) -> None:
        self.disable()
        self._registry = registry if registry is not None else get_registry()
        if isinstance(sink, str):
            Path(sink).parent.mkdir(parents=True, exist_ok=True)
            self._sink = open(sink, "a", encoding="utf-8")
            self._owns_sink = True
        else:
            self._sink = sink
            self._owns_sink = False
        self._enabled_rate = sample_rate
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
        if self._sink is not None and self._owns_sink:
            self._sink.close()
        self._sink = None
        self._owns_sink = False

    def attach_flight_recorder(
        self,
        recorder: "FlightRecorder",
        *,
        sample_rate: float = DEFAULT_FLIGHT_SAMPLE_RATE,
    ) -> None:
        """Feed sampled spans to ``recorder`` (independently of enable)."""
        self._recorder = recorder
        self._recorder_rate = sample_rate

    def detach_flight_recorder(self) -> None:
        self._recorder = None

    @property
    def active(self) -> bool:
        """True when spans are being recorded anywhere at all."""
        if self.enabled:
            return True
        recorder = self._recorder
        return recorder is not None and recorder.enabled

    @property
    def sample_rate(self) -> float:
        return self._enabled_rate if self.enabled else self._recorder_rate

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    # -- trace-context API --------------------------------------------------

    def mint_trace(self) -> TraceContext | None:
        """A fresh root context for one published event; None when inactive.

        The sampling decision is drawn here, once per trace, so a trace
        is flight-recorded completely or not at all.
        """
        recorder = self._recorder
        recording = recorder is not None and recorder.enabled
        if not self.enabled and not recording:
            return None
        rate = self._enabled_rate if self.enabled else self._recorder_rate
        if rate >= 1.0:
            sampled = True
        elif rate <= 0.0:
            sampled = False
        else:
            with self._rng_lock:
                sampled = self._rng.random() < rate
        return TraceContext(
            trace_id=new_trace_id(), span_id=new_span_id(), sampled=sampled
        )

    def current_context(self) -> TraceContext | None:
        """The trace context active on this thread, if any."""
        return getattr(self._local, "ctx", None)

    def activate(self, ctx: TraceContext | None) -> "_Activation | _NoopActivation":
        """Make ``ctx`` current for a block (cross-thread propagation)."""
        if ctx is None or not self.active:
            return _NOOP_ACTIVATION
        return _Activation(self, ctx)

    # -- span API -----------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> "_Span | _NoopSpan":
        """A context manager timing one pipeline stage.

        Returns the shared no-op span when tracing is inactive — callers
        never branch on :attr:`enabled` themselves. In flight-recorder
        mode a span is only real when the current thread carries a
        sampled context.
        """
        if self.enabled:
            return _Span(self, name, attributes)
        recorder = self._recorder
        if recorder is not None and recorder.enabled:
            ctx = getattr(self._local, "ctx", None)
            if ctx is not None and ctx.sampled:
                return _Span(self, name, attributes)
        return _NOOP_SPAN

    def root_span(
        self, name: str, ctx: TraceContext | None, **attributes: Any
    ) -> "_Span | _NoopSpan":
        """The root span of a trace: span id taken from ``ctx`` itself.

        With ``ctx=None`` this degrades to a plain :meth:`span` (legacy
        uncontexted tracing keeps working).
        """
        if ctx is None:
            return self.span(name, **attributes)
        if self.enabled or (
            self._recorder is not None and self._recorder.enabled and ctx.sampled
        ):
            return _Span(self, name, attributes, ctx=ctx, root=True)
        return _NOOP_SPAN

    def record_span(
        self,
        name: str,
        ctx: TraceContext | None,
        start: float,
        end: float,
        **attributes: Any,
    ) -> None:
        """Record a span for an interval that already elapsed.

        Used for waits that are only measurable after the fact (ingress
        queue wait: enqueue on the producer thread, pickup on the
        dispatcher) and for zero-duration incident markers (dead-letter,
        breaker rejection). The span is recorded as a child of ``ctx``.

        ``start``/``end`` may come from the *caller's* clock (brokers
        run on injectable, possibly fake clocks); only their difference
        is trusted. The span is re-anchored onto the tracer's own clock
        ending at the call, so every span in a dump shares one timeline
        regardless of clock domain.
        """
        if ctx is None:
            return
        recording = (
            self._recorder is not None
            and self._recorder.enabled
            and ctx.sampled
        )
        if not self.enabled and not recording:
            return
        duration = max(0.0, end - start)
        anchored_start = self.clock.monotonic() - duration
        child = ctx.child()
        self._record(
            name,
            None,
            duration,
            attributes,
            ctx=child,
            parent_span_id=ctx.span_id,
            start=anchored_start,
        )

    def stage_timings(self) -> dict[str, dict[str, Any]]:
        """Summaries of every ``stage.*`` histogram, keyed by stage name."""
        snapshot = self.registry.snapshot()["histograms"]
        return {
            name.removeprefix("stage."): summary
            for name, summary in snapshot.items()
            if name.startswith("stage.")
        }

    # -- internals ----------------------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(
        self,
        name: str,
        parent: str | None,
        duration: float,
        attributes: dict[str, Any],
        *,
        ctx: TraceContext | None = None,
        parent_span_id: str | None = None,
        start: float | None = None,
    ) -> None:
        if self.enabled:
            registry = self._registry
            if registry is not None:
                registry.histogram(f"stage.{name}").record(duration)
            sink = self._sink
            if sink is not None:
                record: dict[str, Any] = {
                    "ts": wall_time(),
                    "span": name,
                    "duration_ms": duration * 1000.0,
                }
                if start is not None:
                    record["start"] = start
                if parent is not None:
                    record["parent"] = parent
                if ctx is not None:
                    record["trace_id"] = ctx.trace_id
                    record["span_id"] = ctx.span_id
                    if parent_span_id is not None:
                        record["parent_span_id"] = parent_span_id
                if attributes:
                    record["attributes"] = attributes
                line = json.dumps(record, separators=(",", ":"), default=str)
                with self._sink_lock:
                    sink.write(line + "\n")
        recorder = self._recorder
        if (
            recorder is not None
            and recorder.enabled
            and ctx is not None
            and ctx.sampled
        ):
            local = self._local
            thread_name = getattr(local, "thread_name", None)
            if thread_name is None:
                thread_name = local.thread_name = (
                    threading.current_thread().name
                )
            recorder.record(
                start if start is not None else 0.0,
                duration,
                name,
                ctx.trace_id,
                ctx.span_id,
                parent_span_id,
                thread_name,
                attributes or None,
            )


#: The process-wide tracer every instrumented module shares.
TRACER = Tracer()


def traced(name: str, tracer: Tracer | None = None) -> Callable:
    """Decorator tracing every call of a function as span ``name``."""

    def decorate(func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            active = tracer if tracer is not None else TRACER
            if not active.active:
                return func(*args, **kwargs)
            with active.span(name):
                return func(*args, **kwargs)

        return wrapper

    return decorate
