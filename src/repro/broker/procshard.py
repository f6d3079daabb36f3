"""Process-pool shard execution over a shared, zero-copy semantic space.

The in-process shard layout (:class:`~repro.broker.shards.EngineShards`)
is GIL-bound: shard engines score in pure Python, so four threads buy
little. This module supplies the process-backed alternative behind the
same :class:`~repro.broker.shards.ShardExecutor` surface —
``BrokerConfig(executor="process")`` keeps the broker core's ingress,
micro-batching, globally ordered merge and delivery semantics, but each
shard's matching runs in its own **spawned worker process**:

* the parent writes the space's columnar arrays once to a versioned
  binary snapshot (:func:`~repro.semantics.persistence.save_columnar`)
  and every worker attaches **zero-copy** via ``np.memmap`` — the space
  is never pickled, and all workers share the same page cache;
* workers score through the vectorized kernel
  (:class:`~repro.semantics.kernel.KernelMeasure`) over the mapped
  arrays — the identical arrays the parent's kernel uses, so scores are
  bit-identical to the parent's serial vectorized path;
* a worker returns **compact match records** — ``(order, event index,
  similarity matrix)`` for threshold survivors only — and the parent
  rebuilds :class:`~repro.core.matcher.MatchResult` objects against its
  *own* subscription and event instances (the deterministic assignment
  solver reproduces the worker's mapping exactly). Results therefore
  reference parent objects, never pickled copies.

Parity requirement: the matcher must score through the vectorized
kernel (``ThematicMeasure(..., vectorized=True)`` or its non-thematic /
cached variants) — otherwise parent-side replay and worker-side batch
scoring would take different float paths. :func:`spec_from_matcher`
rejects anything else.

Clock discipline: the executor never touches ``time.*``. The parent's
injected :class:`~repro.obs.clock.Clock` times the batch fan-out, and
its *description* is shipped to workers so their engines (including the
degraded-mode budget) run on the same kind of clock — a
:class:`~repro.obs.clock.FakeClock` worker clock is frozen at its value
at spawn time, which keeps ``--faults`` plans deterministic (worker
budgets never trip on scripted time they cannot observe advancing).

Known limits (documented, not silent): workers are not restarted on
crash — a dead worker surfaces as a batch error on the next call; and
parent-side replay (``match_one``) does not consult worker degraded
state.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import threading
import traceback
from collections.abc import Sequence
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Any

import numpy as np

from repro.broker.shards import ShardSlot, Survivor
from repro.core.degrade import DegradedPolicy
from repro.core.engine import EngineConfig, ThematicEventEngine
from repro.core.events import Event
from repro.core.mapping import single_mapping, top_assignment, top_k_mappings
from repro.core.matcher import MatchResult, ThematicMatcher
from repro.core.similarity import Calibration, SimilarityMatrix
from repro.core.subscriptions import Subscription
from repro.obs import MetricsRegistry
from repro.obs.clock import MONOTONIC_CLOCK, Clock, FakeClock

__all__ = ["ProcessShardExecutor", "WorkerSpec", "spec_from_matcher"]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild its matcher, picklable.

    The space itself travels as ``(space_path, digest)`` — the columnar
    snapshot on disk — never as a pickled object.
    """

    space_path: str
    digest: str
    normalize: bool
    metric: str
    recompute_idf: bool
    thematic: bool
    mode: str
    cached: bool
    k: int
    threshold: float
    min_relatedness: float
    calibration: Calibration | None
    degraded: DegradedPolicy | None
    clock: tuple[Any, ...]
    shard_index: int


def _describe_clock(clock: Clock) -> tuple[Any, ...]:
    """Picklable description of the parent's clock for worker setup."""
    if isinstance(clock, FakeClock):
        return ("fake", clock.monotonic(), clock.wall())
    return ("monotonic",)


def _build_clock(spec: tuple[Any, ...]) -> Clock:
    if spec[0] == "fake":
        start, wall = spec[1], spec[2]
        return FakeClock(start, epoch=wall - start)
    return MONOTONIC_CLOCK


def spec_from_matcher(
    matcher: ThematicMatcher,
    *,
    space_path: str,
    digest: str,
    shard_index: int,
    degraded: DegradedPolicy | None,
    clock: Clock,
) -> WorkerSpec:
    """Derive a :class:`WorkerSpec` from a kernel-backed matcher.

    Raises :class:`ValueError` for matcher families the process executor
    cannot reproduce bit-identically in a worker (see module docstring).
    """
    from repro.semantics.measures import (
        CachedMeasure,
        NonThematicMeasure,
        ThematicMeasure,
    )

    measure = matcher.measure
    cached = isinstance(measure, CachedMeasure)
    inner = measure.inner if cached else measure
    if isinstance(inner, ThematicMeasure):
        thematic, mode = True, inner.mode
    elif isinstance(inner, NonThematicMeasure):
        thematic, mode = False, "common"
    else:
        raise ValueError(
            "executor='process' needs a ThematicMeasure or "
            f"NonThematicMeasure matcher (got {type(inner).__name__})"
        )
    if not getattr(inner, "vectorized", False):
        raise ValueError(
            "executor='process' requires vectorized=True on the measure: "
            "workers score through the numpy kernel, and the parent must "
            "take the same float path for delivery parity"
        )
    space = inner.space
    return WorkerSpec(
        space_path=space_path,
        digest=digest,
        normalize=space.normalize,
        metric=space.metric,
        recompute_idf=getattr(space, "recompute_idf", True),
        thematic=thematic,
        mode=mode,
        cached=cached,
        k=matcher.k,
        threshold=matcher.threshold,
        min_relatedness=matcher.min_relatedness,
        calibration=matcher.calibration,
        degraded=degraded,
        clock=_describe_clock(clock),
        shard_index=shard_index,
    )


def _worker_main(conn: Connection, spec: WorkerSpec) -> None:
    """Worker entrypoint: attach the space, serve match commands."""
    try:
        from repro.semantics.kernel import KernelMeasure, RelatednessKernel
        from repro.semantics.measures import CachedMeasure, SemanticMeasure
        from repro.semantics.persistence import load_columnar

        columnar, _ = load_columnar(
            spec.space_path, expected_digest=spec.digest
        )
        kernel = RelatednessKernel(
            columnar,
            normalize=spec.normalize,
            metric=spec.metric,
            recompute_idf=spec.recompute_idf,
        )
        measure: SemanticMeasure = KernelMeasure(
            kernel, mode=spec.mode, thematic=spec.thematic
        )
        if spec.cached:
            measure = CachedMeasure(measure)
        matcher = ThematicMatcher(
            measure,
            k=spec.k,
            threshold=spec.threshold,
            min_relatedness=spec.min_relatedness,
            calibration=spec.calibration,
        )
        engine = ThematicEventEngine(
            matcher,
            EngineConfig(
                private_pipeline=True,
                span_tags={"shard": spec.shard_index},
                degraded=spec.degraded,
            ),
            clock=_build_clock(spec.clock),
        )
    except Exception:
        conn.send(("err", traceback.format_exc()))
        conn.close()
        return
    conn.send(("ok", None))
    handles: dict[int, object] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent went away
            return
        op = message[0]
        try:
            if op == "stop":
                conn.send(("ok", None))
                conn.close()
                return
            if op == "subscribe":
                _, order, subscription = message
                handles[order] = engine.subscribe(subscription, ShardSlot(order))
                conn.send(("ok", None))
            elif op == "unsubscribe":
                _, order = message
                handle = handles.pop(order, None)
                if handle is not None:
                    engine.unsubscribe(handle)  # type: ignore[arg-type]
                conn.send(("ok", None))
            elif op == "match":
                _, events = message
                survivors = [
                    (
                        slot.order,
                        j,
                        result.matrix.scores.shape,
                        result.matrix.scores.tobytes(),
                    )
                    for j, slot, result in engine.survivors(events)
                ]
                conn.send(("ok", survivors))
            elif op == "snapshot":
                conn.send(("ok", engine.stats.registry.snapshot()))
            else:
                conn.send(("err", f"unknown worker op {op!r}"))
        except Exception:
            conn.send(("err", traceback.format_exc()))


def _result_from_matrix(
    matcher: ThematicMatcher,
    subscription: Subscription,
    event: Event,
    matrix: np.ndarray,
) -> MatchResult | None:
    """Rebuild a worker survivor's result from its similarity matrix.

    The same solver sequence as the pipeline's delivery-gated assignment
    stage, so mapping, score and alternatives are reproduced exactly.
    """
    wrapped = SimilarityMatrix(
        subscription=subscription, event=event, scores=matrix
    )
    if matcher.k == 1:
        solved = top_assignment(matrix)
        if solved is None:  # pragma: no cover - workers gate on arity
            return None
        assignment, _ = solved
        return MatchResult(
            subscription=subscription,
            event=event,
            matrix=wrapped,
            mapping=single_mapping(wrapped, assignment),
        )
    mappings = top_k_mappings(wrapped, matcher.k)
    if not mappings:  # pragma: no cover - workers gate on arity
        return None
    return MatchResult(
        subscription=subscription,
        event=event,
        matrix=wrapped,
        mapping=mappings[0],
        alternatives=tuple(mappings[1:]),
    )


class ProcessShardExecutor:
    """Owns the worker pool, the shared space file and the shard pipes.

    All registration and matching calls are serialized by the broker's
    registration lock; an internal lock additionally guards the pipes so
    ``close`` cannot interleave with a straggling call.
    """

    #: The shard engines live in the workers, not in this process.
    engines: Sequence[ThematicEventEngine] = ()

    def __init__(
        self,
        matcher: ThematicMatcher,
        *,
        shards: int,
        degraded: DegradedPolicy | None = None,
        clock: Clock | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        from repro.semantics.measures import CachedMeasure
        from repro.semantics.persistence import corpus_digest, save_columnar

        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.matcher = matcher
        self._clock = clock if clock is not None else MONOTONIC_CLOCK
        registry = registry if registry is not None else MetricsRegistry()
        self._batches = registry.counter("shard.worker.batches")
        self._events = registry.counter("shard.worker.events")
        self._deliveries = registry.counter("shard.worker.deliveries")
        self._batch_seconds = registry.histogram("shard.worker.batch_seconds")
        measure = matcher.measure
        inner = measure.inner if isinstance(measure, CachedMeasure) else measure
        space = inner.space
        digest = corpus_digest(space.documents)
        # Plain state first: _shutdown reads these, so they must exist
        # before any statement that can raise with the temp file live.
        ctx = multiprocessing.get_context("spawn")
        self._lock = threading.RLock()
        self._counts = [0] * shards
        self._subscriptions: dict[int, Subscription] = {}
        self._procs: list[Any] = []
        self._conns: list[Connection] = []
        self._closed = False
        self._final_snapshots: list[dict[str, Any]] = []
        fd, self._space_path = tempfile.mkstemp(suffix=".repro-col")
        try:
            os.close(fd)
            # Inside the try: a failed snapshot write (disk full,
            # serialization error) must unlink the temp file — before
            # this, the exception escaped __init__ with no caller
            # holding a reference to clean up (RL801).
            save_columnar(space.columnar(), self._space_path, digest=digest)
            for index in range(shards):
                spec = spec_from_matcher(
                    matcher,
                    space_path=self._space_path,
                    digest=digest,
                    shard_index=index,
                    degraded=degraded,
                    clock=self._clock,
                )
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, spec),
                    name=f"shard-worker-{index}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
            # Block until every worker has attached the space — worker
            # import/attach cost must not leak into the first batch.
            for index, conn in enumerate(self._conns):
                status, payload = conn.recv()
                if status != "ok":
                    raise RuntimeError(
                        f"shard worker {index} failed to start:\n{payload}"
                    )
        except BaseException:
            self._shutdown(force=True)
            raise

    # -- registration ------------------------------------------------------

    def _call(self, shard_index: int, message: tuple[Any, ...]) -> Any:
        conn = self._conns[shard_index]
        conn.send(message)
        status, payload = conn.recv()
        if status != "ok":
            raise RuntimeError(
                f"shard worker {shard_index} failed:\n{payload}"
            )
        return payload

    def subscribe(
        self, shard_index: int, order: int, subscription: Subscription
    ) -> None:
        with self._lock:
            self._ensure_open()
            self._call(shard_index, ("subscribe", order, subscription))
            self._counts[shard_index] += 1
            self._subscriptions[order] = subscription

    def unsubscribe(self, shard_index: int, order: int) -> None:
        with self._lock:
            self._ensure_open()
            self._call(shard_index, ("unsubscribe", order))
            self._counts[shard_index] -= 1
            self._subscriptions.pop(order, None)

    def move(
        self,
        order: int,
        source: int,
        target: int,
        subscription: Subscription,
    ) -> None:
        """Rebalance one registration between shard workers."""
        with self._lock:
            self._ensure_open()
            self._call(source, ("unsubscribe", order))
            self._counts[source] -= 1
            self._call(target, ("subscribe", order, subscription))
            self._counts[target] += 1

    def loads(self) -> list[int]:
        with self._lock:
            return list(self._counts)

    # -- matching ----------------------------------------------------------

    def match_batch(
        self, events: list[Event]
    ) -> list[tuple[int, int, np.ndarray]]:
        """Fan one micro-batch out to every active worker.

        Returns threshold survivors as ``(order, event index, matrix)``
        across all shards, unordered; :meth:`deliverable` rebuilds the
        results.
        """
        with self._lock:
            self._ensure_open()
            started = self._clock.monotonic()
            active = [
                index for index, count in enumerate(self._counts) if count
            ]
            # Send to every active worker first, then collect — the
            # workers run their batches concurrently.
            for index in active:
                self._conns[index].send(("match", events))
            survivors: list[tuple[int, int, np.ndarray]] = []
            failures: list[str] = []
            for index in active:
                status, payload = self._conns[index].recv()
                if status != "ok":
                    failures.append(
                        f"shard worker {index} failed:\n{payload}"
                    )
                    continue
                for order, j, shape, raw in payload:
                    matrix = np.frombuffer(raw, dtype=np.float64)
                    survivors.append((order, j, matrix.reshape(shape).copy()))
            self._batches.inc(len(active))
            self._events.inc(len(events))
            self._deliveries.inc(len(survivors))
            self._batch_seconds.record(
                self._clock.monotonic() - started
            )
            if failures:
                raise RuntimeError("; ".join(failures))
        return survivors

    def build_result(
        self, subscription: Subscription, event: Event, matrix: np.ndarray
    ) -> MatchResult | None:
        """Parent-side result reconstruction for one survivor."""
        return _result_from_matrix(self.matcher, subscription, event, matrix)

    def deliverable(self, events: list[Event]) -> list[Survivor]:
        """:meth:`match_batch` with every survivor's result rebuilt here,
        against the parent's own subscription and event objects."""
        survivors = []
        for order, j, matrix in self.match_batch(events):
            result = self.build_result(
                self._subscriptions[order], events[j], matrix
            )
            if result is not None:
                survivors.append((order, j, result))
        return survivors

    def match_one(
        self, subscription: Subscription, event: Event, *, shard: int = 0
    ) -> MatchResult | None:
        """Parent-side replay match (same kernel, same arrays as workers).

        Whatever its ``shard``, the pair never reaches a worker, so it
        does not consult worker degraded state — replay of a handful of
        retained events runs on the parent's healthy path by design.
        """
        result = self.matcher.match(subscription, event)
        if result is None or not result.is_match(self.matcher.threshold):
            return None
        return result

    # -- observability -----------------------------------------------------

    def shard_snapshots(self) -> list[dict[str, Any]]:
        """Each worker engine's registry snapshot (counters intact).

        After :meth:`close` this serves the snapshots taken during
        shutdown — post-mortem ``metrics_snapshot`` reads keep working
        once the workers are gone, like the thread executor's registries.
        """
        with self._lock:
            if self._closed:
                return list(self._final_snapshots)
            return [
                self._call(index, ("snapshot",))
                for index in range(len(self._conns))
            ]

    # -- lifecycle ---------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("process shard executor is closed")

    def _shutdown(self, *, force: bool) -> None:
        for conn in self._conns:
            if not force:
                try:
                    conn.send(("stop",))
                    conn.recv()
                except (BrokenPipeError, EOFError, OSError):
                    pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1.0)
        try:
            os.unlink(self._space_path)
        except OSError:  # pragma: no cover - already gone
            pass

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            try:
                self._final_snapshots = [
                    self._call(index, ("snapshot",))
                    for index in range(len(self._conns))
                ]
            except (RuntimeError, BrokenPipeError, EOFError, OSError):
                pass  # a dead worker forfeits its final snapshot
            self._closed = True
        # Teardown happens outside the lock: worker joins can take
        # seconds, and every entry point re-checks ``_closed`` under the
        # lock, so nothing can race the shutdown once the flag is set.
        self._shutdown(force=False)
