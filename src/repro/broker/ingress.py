"""Queue-fed ingress: the dispatcher thread shared by the asynchronous
broker front-ends.

:class:`QueuedBroker` puts a bounded ``queue.Queue`` and one dispatcher
thread in front of :class:`~repro.broker.core.BrokerCore`, so producers
return immediately (the synchronization decoupling of Figure 1 made
literal) while matching and delivery happen on the dispatcher thread.
:class:`~repro.broker.threaded.ThreadedBroker` and
:class:`~repro.broker.sharded.ShardedBroker` are the same ingress with
different shard counts and batch sizes. Around the queue it needs:

* a shutdown sentinel (:data:`STOP`);
* a leak-free bounded wait for the queue to drain
  (:func:`wait_until_drained`) — the original ``flush(timeout=...)``
  spawned a daemon thread blocking on ``Queue.join()`` forever when the
  queue never drained, leaking one thread per timed-out flush;
* adaptive micro-batch collection (:func:`collect_batch`): drain
  whatever is already queued up to ``max_batch``, then wait a short
  *linger* for stragglers so bursts amortize per-batch dispatch cost
  without adding latency to a steady trickle.
"""

from __future__ import annotations

import queue
import threading

from repro.broker.config import BrokerConfig
from repro.broker.core import BrokerCore
from repro.broker.durability import SimulatedCrash
from repro.core.events import Event
from repro.core.matcher import ThematicMatcher
from repro.obs import TRACER, MetricsRegistry
from repro.obs.clock import MONOTONIC_CLOCK, Clock
from repro.obs.context import TraceContext

__all__ = ["STOP", "QueuedBroker", "collect_batch", "wait_until_drained"]

#: Sentinel item shutting a broker's dispatcher thread down.
STOP = object()


def wait_until_drained(
    q: queue.Queue,
    timeout: float | None = None,
    *,
    clock: Clock = MONOTONIC_CLOCK,
) -> bool:
    """Block until every item put on ``q`` has been ``task_done``-ed.

    ``Queue.join()`` with a deadline, built on the queue's own
    ``all_tasks_done`` condition (a documented attribute since the
    module's first release) so no helper thread is needed: returns
    ``True`` when the queue drained, ``False`` when ``timeout`` elapsed
    first — leaving nothing behind either way.
    """
    if timeout is None:
        q.join()
        return True
    deadline = clock.monotonic() + timeout
    with q.all_tasks_done:
        while q.unfinished_tasks:
            remaining = deadline - clock.monotonic()
            if remaining <= 0:
                return False
            q.all_tasks_done.wait(remaining)
    return True


def collect_batch(
    q: queue.Queue,
    first: object,
    max_batch: int,
    linger: float,
    *,
    clock: Clock = MONOTONIC_CLOCK,
) -> tuple[list, bool]:
    """Collect one micro-batch starting from an already-dequeued item.

    Drains items that are immediately available, up to ``max_batch``;
    once the queue runs dry, waits up to ``linger`` seconds (measured
    from the first dry ``get``) for more before settling for a smaller
    batch. Returns ``(items, saw_stop)``; when :data:`STOP` is
    encountered it terminates the batch and is *not* included in the
    items (the caller still owes its ``task_done``).
    """
    batch = [first]
    saw_stop = False
    deadline: float | None = None
    while len(batch) < max_batch:
        try:
            item = q.get_nowait()
        except queue.Empty:
            if linger <= 0.0:
                break
            if deadline is None:
                deadline = clock.monotonic() + linger
            remaining = deadline - clock.monotonic()
            if remaining <= 0.0:
                break
            try:
                item = q.get(timeout=remaining)
            except queue.Empty:
                break
        if item is STOP:
            saw_stop = True
            break
        batch.append(item)
    return batch, saw_stop


class QueuedBroker(BrokerCore):
    """Asynchronous ingress over the broker core.

    Three properties the tests pin down:

    * **Backpressure.** The ingress queue is bounded
      (``config.max_queue``); ``publish`` blocks when matching falls
      behind instead of growing memory without bound.
    * **Batching.** The dispatcher drains the queue in adaptive
      micro-batches of up to ``max_batch`` events (waiting ``linger``
      seconds for stragglers) — one core dispatch per batch.
    * **Losslessness.** ``publish`` after ``close`` raises
      ``RuntimeError``; a publish that won its race against ``close`` is
      still delivered by ``close``'s leftover drain. Events are never
      silently dropped.

    Subscriber callbacks run on the dispatcher thread; inbox draining is
    safe from any thread. Usable as a context manager.
    """

    #: Name of the dispatcher thread (callbacks observe it); set by each
    #: front-end.
    thread_name: str

    def __init__(
        self,
        matcher: ThematicMatcher,
        config: BrokerConfig | None = None,
        *,
        shards: int,
        max_batch: int,
        linger: float,
        registry: MetricsRegistry | None = None,
        clock: Clock | None = None,
    ) -> None:
        super().__init__(
            matcher, config, shards=shards, registry=registry, clock=clock
        )
        self._max_batch = max_batch
        self._linger = linger
        registry_ = self.metrics.registry
        self._queue_wait = registry_.histogram("broker.queue_wait_seconds")
        self._batch_size = registry_.histogram("broker.batch_size")
        self._queue_depth = registry_.gauge("broker.queue_depth")
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.max_queue)
        self._closed = False
        self._close_lock = threading.Lock()
        self._dispatcher = threading.Thread(
            target=self._run, name=self.thread_name, daemon=True
        )
        self._dispatcher.start()

    # -- lifecycle ---------------------------------------------------------

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is STOP:
                self._queue.task_done()
                return
            batch, saw_stop = collect_batch(
                self._queue, item, self._max_batch, self._linger
            )
            try:
                self._ingest(batch)
            except SimulatedCrash:
                # A scripted broker death (fault injection): the
                # dispatcher dies like the process would, silently —
                # the journal's ``crashed`` flag is the record. The
                # finally below still runs task_done so flush stays
                # truthful.
                return
            except Exception:  # pragma: no cover - defensive
                # A matching failure must not kill the dispatcher (and
                # with it flush/close); the batch's task_done below keeps
                # flush truthful, and the counter makes the loss visible.
                self.metrics.registry.counter("broker.batch_errors").inc()
            finally:
                for _ in batch:
                    self._queue.task_done()
                if saw_stop:
                    self._queue.task_done()
            if saw_stop:
                return

    def _ingest(
        self, batch: list[tuple[float, Event, TraceContext | None]]
    ) -> None:
        """Account one micro-batch's queue dwell, then dispatch it."""
        started = self._clock.monotonic()
        for enqueued_at, _, ctx in batch:
            self._queue_wait.record(started - enqueued_at)
            TRACER.record_span("broker.ingress.wait", ctx, enqueued_at, started)
        self._batch_size.record(len(batch))
        self._queue_depth.set(self._queue.qsize())
        self._dispatch(
            [event for _, event, _ in batch], [ctx for _, _, ctx in batch]
        )

    def close(self) -> None:
        """Drain everything queued, stop the dispatcher, close the core.

        Events that raced past the closed check and landed behind the
        stop sentinel are dispatched inline before returning —
        closed-broker publishes either raise or deliver, never
        disappear.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(STOP)
        self._dispatcher.join()
        leftovers = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            leftovers.append(item)
        events = [item for item in leftovers if item is not STOP]
        try:
            for start in range(0, len(events), self._max_batch):
                self._ingest(events[start:start + self._max_batch])
        finally:
            for _ in leftovers:
                self._queue.task_done()
            super().close()

    # -- producer side -----------------------------------------------------

    def publish(self, event: Event) -> None:
        """Enqueue an event; blocks only when the bounded queue is full.

        Raises ``RuntimeError`` after :meth:`close` — silently dropping
        events would hide producer bugs.
        """
        if self._closed:
            raise RuntimeError("broker is closed")
        # The root span of the event's trace is the enqueue itself; the
        # ingress wait, the match, and every delivery attempt hang off
        # this context downstream.
        ctx = TRACER.mint_trace()
        with TRACER.root_span("broker.publish", ctx):
            self._queue.put((self._clock.monotonic(), event, ctx))

    def flush(self, timeout: float | None = None) -> bool:
        """Block until every queued event is matched *and* delivered.

        Returns False if ``timeout`` elapsed first; never leaks a waiter
        thread (see :func:`wait_until_drained`).
        """
        return wait_until_drained(self._queue, timeout)

    def pending(self) -> int:
        """Events queued but not yet dispatched (approximate)."""
        return self._queue.qsize()

    def metrics_snapshot(self) -> dict:
        """:meth:`BrokerCore.metrics_snapshot` plus the queue-wait and
        batch-size summaries."""
        snapshot = super().metrics_snapshot()
        snapshot["queue_wait"] = self._queue_wait.summary()
        snapshot["batch_size"] = self._batch_size.summary()
        return snapshot
