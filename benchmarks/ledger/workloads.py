"""The four workloads: build the program under test, drive it, check it.

One *pass* builds a fresh ``ParametricVectorSpace``, matcher and broker
(so every pass starts from the same empty caches), publishes the warm-up
events untimed, then the timed events. The same code runs untraced and
traced: a :class:`~trace.SpanRecorder` only swaps the callables the driver
loops call (``publish``, callbacks, …) for span-recording wrappers.
"""

from __future__ import annotations

import gc
import itertools
import shutil
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path

import plan
import trace as tr
from repro.broker import ShardedBroker, ThematicBroker
from repro.broker.config import BrokerConfig
from repro.broker.durability import DurabilityPolicy
from repro.core.api import pairwise_match_batch
from repro.core.matcher import ThematicMatcher
from repro.evaluation.metrics import effectiveness
from repro.semantics.cache import RelatednessCache
from repro.semantics.kernel import PARITY_TOLERANCE
from repro.semantics.measures import CachedMeasure, ThematicMeasure
from repro.semantics.pvsm import ParametricVectorSpace

clock = time.perf_counter


def make_matcher(space, *, kernel: bool) -> ThematicMatcher:
    """What ``thematic_matcher_factory`` builds, over a given space."""
    if kernel:
        measure = ThematicMeasure(space, vectorized=True)
    else:
        measure = CachedMeasure(ThematicMeasure(space), RelatednessCache())
    return ThematicMatcher(measure, k=1)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation past the sample)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class DeliveryLog:
    """Every delivery, and when each event's last callback arrived."""

    def __init__(self, capacity: int) -> None:
        self.arrival = [0.0] * capacity
        self.records: list[tuple[int, int, float]] = []  # (sequence, slot, score)

    def callback(self, slot: int):
        arrival, records = self.arrival, self.records

        def on_delivery(delivery) -> None:
            sequence = delivery.sequence
            arrival[sequence] = clock()
            records.append((sequence, slot, delivery.score))

        return on_delivery

    def absorb(self, slot: int, deliveries) -> None:
        """Deliveries drained from an inbox (no arrival time)."""
        previous = -1
        for delivery in deliveries:
            if delivery.sequence <= previous:
                raise AssertionError(f"inbox of slot {slot} is out of order")
            previous = delivery.sequence
            self.records.append((delivery.sequence, slot, delivery.score))


class Population:
    """Which subscription slots are live, in registration order.

    ``swap`` retires the oldest live slot to the back of the spare queue
    and brings the next spare in: a pure function of how often it was
    called, so the oracle can replay it.
    """

    def __init__(self, live: int, spare: int) -> None:
        self.live = deque(range(live))
        self.spare = deque(range(live, live + spare))

    def swap(self) -> tuple[int, int]:
        out = self.live.popleft()
        incoming = self.spare.popleft()
        self.spare.append(out)
        self.live.append(incoming)
        return out, incoming


@dataclass
class Stack:
    """One pass's program under test plus the benchmark's view of it."""

    name: str
    space: object
    matcher: ThematicMatcher
    broker: object
    log: DeliveryLog
    subscriptions: tuple
    population: Population
    handles: dict = field(default_factory=dict)
    durable_dir: Path | None = None
    recorder: tr.SpanRecorder | None = None
    event_ids: object = field(default_factory=itertools.count)
    space_build_s: float = 0.0
    subscribe_s: float = 0.0
    churn_subscribe_s: list = field(default_factory=list)
    churn_unsubscribe_s: list = field(default_factory=list)

    def wrap(self, name, fn, **kwargs):
        return self.recorder.wrap(name, fn, **kwargs) if self.recorder else fn

    def uses_callback(self, slot: int) -> bool:
        return self.name != "durable_churn_inline" or slot % 2 == 0

    def subscribe(self, slot: int) -> None:
        callback = None
        if self.uses_callback(slot):
            callback = self.wrap(tr.CALLBACK, self.log.callback(slot))
        subscribe = self.wrap(tr.SUBSCRIBE, self.broker.subscribe)
        self.handles[slot] = subscribe(self.subscriptions[slot], callback)

    def swap(self) -> None:
        out, incoming = self.population.swap()
        handle = self.handles.pop(out)
        started = clock()
        self.wrap(tr.UNSUBSCRIBE, self.broker.unsubscribe)(handle)
        middle = clock()
        if handle.callback is None:
            # Undrained deliveries of the retired inbox still count.
            self.log.absorb(out, handle.drain())
        resumed = clock()
        self.subscribe(incoming)
        self.churn_unsubscribe_s.append(middle - started)
        self.churn_subscribe_s.append(clock() - resumed)

    def after_publish(self, count: int) -> None:
        """The churn schedule: ``count`` events have been published."""
        if count % plan.CHURN_EVERY == 0:
            self.swap()
        if count % plan.DRAIN_EVERY == 0:
            self.drain_inboxes()

    def drain_inboxes(self) -> None:
        for slot, handle in self.handles.items():
            if handle.callback is None:
                self.log.absorb(slot, self.wrap(tr.DRAIN, handle.drain)())

    def counters(self) -> dict:
        if isinstance(self.broker, ShardedBroker):
            snapshot = self.broker.metrics_snapshot()
            return {**snapshot, **snapshot["engine_totals"]}
        return self.broker.metrics.registry.snapshot()["counters"]

    def close(self) -> None:
        self.broker.close()
        if self.durable_dir is not None:
            shutil.rmtree(self.durable_dir, ignore_errors=True)


def build_stack(
    name: str, inputs, workdir: Path, recorder=None, *, capacity: int | None = None
) -> Stack:
    """Space + matcher + broker + all initial subscribe calls.

    ``capacity`` sizes the delivery log when more events will be
    published than ``inputs`` holds (the open loop).
    """
    started = clock()
    space = ParametricVectorSpace(inputs.workload.corpus)
    space_build_s = clock() - started
    sharded = name == "steady_sharded_open"
    matcher = make_matcher(space, kernel=sharded)
    if recorder is not None:
        matcher.measure = tr.MeasureProxy(matcher.measure, recorder)
        # Every match_batch — the matcher's own (inline broker) and each
        # shard engine's private one — runs through a pipeline made here.
        new_pipeline = matcher.new_pipeline

        def traced_pipeline(**kwargs):
            pipeline = new_pipeline(**kwargs)
            pipeline.run = recorder.wrap(
                tr.MATCH,
                pipeline.run,
                work=lambda subs, events, **_: len(subs) * len(events),
            )
            return pipeline

        matcher.new_pipeline = traced_pipeline
    durable_dir = None
    if sharded:
        broker = ShardedBroker(
            matcher,
            BrokerConfig(
                shards=plan.SHARDS,
                max_batch=plan.MAX_BATCH,
                linger=plan.LINGER,
                executor="thread",
            ),
        )
    elif name == "durable_churn_inline":
        durable_dir = workdir / f"wal-{time.monotonic_ns()}"
        durable_dir.mkdir(parents=True)
        broker = ThematicBroker(
            matcher,
            BrokerConfig(durability=DurabilityPolicy(directory=str(durable_dir))),
        )
    else:
        broker = ThematicBroker(matcher)
    subscriptions = inputs.subscriptions + inputs.reserve
    stack = Stack(
        name=name,
        space=space,
        matcher=matcher,
        broker=broker,
        log=DeliveryLog(capacity or len(inputs.warmup) + len(inputs.timed) + 8),
        subscriptions=subscriptions,
        population=Population(len(inputs.subscriptions), len(inputs.reserve)),
        durable_dir=durable_dir,
        recorder=recorder,
        space_build_s=space_build_s,
    )
    started = clock()
    for slot in range(len(inputs.subscriptions)):
        stack.subscribe(slot)
    stack.subscribe_s = clock() - started
    return stack


@dataclass
class PassResult:
    """One pass's raw measurements.

    ``wall_by_event`` / ``cpu_by_event`` are per timed event (start of
    this publish to start of the next, so churn between events counts);
    ``latency_by_event`` is ``None`` for events nobody was sent.
    """

    events: int
    wall_s: float
    cpu_s: float
    latency_by_event: list[float | None]
    failed: int
    #: Start and end of the whole pass, warm-up included (closed loop).
    pass_window: tuple[float, float] = (0.0, 0.0)
    wall_by_event: list[float] = field(default_factory=list)
    cpu_by_event: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def throughput_eps(self) -> float:
        return self.events / self.wall_s

    @property
    def latencies_s(self) -> list[float]:
        return [value for value in self.latency_by_event if value is not None]


def _latencies(stack: Stack, origin: list[float], offset: int) -> list[float | None]:
    arrival = stack.log.arrival
    return [
        arrival[offset + i] - start if arrival[offset + i] else None
        for i, start in enumerate(origin)
    ]


def drive_closed_loop(stack: Stack, warmup, timed) -> PassResult:
    """One publisher; the next event is sent when the last one returned.

    Inline brokers deliver inside ``publish``; the sharded broker gets
    the whole region as a burst followed by ``flush``.
    """
    sharded = stack.name == "steady_sharded_open"
    churn = stack.name == "durable_churn_inline"
    publish = stack.wrap(tr.PUBLISH, stack.broker.publish, event_ids=stack.event_ids)
    flush = stack.wrap(tr.FLUSH, stack.broker.flush) if sharded else None
    count = 0
    pass_started = clock()
    for event in warmup:
        publish(event)
        count += 1
        if churn:
            stack.after_publish(count)
    if sharded:
        flush(plan.FLUSH_TIMEOUT_S)
    stack.churn_subscribe_s.clear()
    stack.churn_unsubscribe_s.clear()
    marks = [0.0] * (len(timed) + 1)
    cpu_marks = [0.0] * (len(timed) + 1)
    cpu_clock = time.process_time
    failed = 0
    gc.collect()
    for i, event in enumerate(timed):
        cpu_marks[i] = cpu_clock()
        marks[i] = clock()
        try:
            publish(event)
        except Exception:  # noqa: BLE001 - a raising publish is a failed event
            failed += 1
        count += 1
        if churn:
            stack.after_publish(count)
    if sharded and not flush(plan.FLUSH_TIMEOUT_S):
        failed += stack.broker.pending()
    marks[-1] = clock()
    cpu_marks[-1] = cpu_clock()
    if churn:
        stack.drain_inboxes()
    failed += len(stack.broker.dead_letters)
    return PassResult(
        events=len(timed),
        wall_s=marks[-1] - marks[0],
        cpu_s=cpu_marks[-1] - cpu_marks[0],
        latency_by_event=_latencies(stack, marks[:-1], len(warmup)),
        failed=failed,
        pass_window=(pass_started, marks[-1]),
        wall_by_event=[b - a for a, b in zip(marks, marks[1:])],
        cpu_by_event=[b - a for a, b in zip(cpu_marks, cpu_marks[1:])],
    )


def warm_up(stack: Stack, warmup) -> None:
    """Publish the warm-up events as a burst and wait for them."""
    for event in warmup:
        stack.broker.publish(event)
    stack.broker.flush(plan.FLUSH_TIMEOUT_S)


def drive_open_loop(stack: Stack, events, rate_eps: float, published: int) -> PassResult:
    """One generator thread publishing on a fixed schedule.

    Each event is timed from when it was *due*, so a stall also counts
    against the events queued behind it; ``late_s`` says how late the
    generator itself ran. ``published`` is how many events the broker
    has already been sent (their sequence numbers come first).
    """
    publish = stack.wrap(tr.PUBLISH, stack.broker.publish, event_ids=stack.event_ids)
    flush = stack.wrap(tr.FLUSH, stack.broker.flush)
    interval = 1.0 / rate_eps
    due = [0.0] * len(events)
    late = [0.0] * len(events)
    failed = 0
    gc.collect()
    cpu_started = time.process_time()
    started = clock() + 0.01
    for i, event in enumerate(events):
        target = started + i * interval
        now = clock()
        if now < target:
            time.sleep(target - now)
            now = clock()
        due[i] = target
        late[i] = now - target
        try:
            publish(event)
        except Exception:  # noqa: BLE001 - a raising publish is a failed event
            failed += 1
    backlog = stack.broker.pending()
    if not flush(plan.FLUSH_TIMEOUT_S):
        failed += stack.broker.pending()
    ended = clock()
    cpu_ended = time.process_time()
    failed += len(stack.broker.dead_letters)
    return PassResult(
        events=len(events),
        wall_s=ended - started,
        cpu_s=cpu_ended - cpu_started,
        latency_by_event=_latencies(stack, due, published),
        failed=failed,
        extra={"rate_eps": rate_eps, "late_s": late, "backlog_end": backlog},
    )


def recover(stack: Stack, inputs, next_sequence: int) -> dict:
    """Close the durable broker, reopen its directory, time recovery.

    The recovering broker reuses the pass's (hot) matcher, so
    ``recovery_s`` is journal replay + state restore, not cache warm-up.
    """
    live = len(stack.handles)
    stack.broker.close()
    config = stack.broker.config
    started = clock()
    broker = ThematicBroker(stack.matcher, config)
    broker.recover_pending()
    recovery_s = clock() - started
    report = broker.durability.report
    problems = []
    if broker.subscriber_count() != live:
        problems.append(
            f"recovered {broker.subscriber_count()} subscribers, expected {live}"
        )
    seen: list[int] = []
    for handle in broker.recovered.values():
        handle.callback = lambda delivery: seen.append(delivery.sequence)
    for event in inputs.timed:
        if broker.publish(event):
            break
    if not seen or any(sequence < next_sequence for sequence in seen):
        problems.append(f"sequence did not continue from {next_sequence}: {seen[:3]}")
    broker.close()
    return {
        "recovery_s": recovery_s,
        "records_replayed": report.records_replayed if report else 0,
        "problems": problems,
    }


def oracle_failures(stack: Stack, inputs) -> int:
    """Sampled events whose deliveries differ from the reference oracle.

    The oracle is ``pairwise_match_batch`` (the naive per-pair loop) over
    the subscriptions live when the event was published: subscriber set,
    callback order and scores must agree — bit-identical for the scalar
    measure (same matcher), within ``PARITY_TOLERANCE`` of a scalar
    matcher for the kernel.
    """
    warm = len(inputs.warmup)
    wanted = {warm + i for i in inputs.oracle_sample}
    delivered = defaultdict(list)
    for sequence, slot, score in stack.log.records:
        if sequence in wanted:
            delivered[sequence].append((slot, score))
    matcher, tolerance = stack.matcher, 0.0
    if stack.name == "steady_sharded_open":
        # The kernel's reference is the scalar measure over the same space.
        matcher, tolerance = make_matcher(stack.space, kernel=False), PARITY_TOLERANCE
    churn = stack.name == "durable_churn_inline"
    population = Population(len(inputs.subscriptions), len(inputs.reserve))
    swaps_done = 0
    threshold = matcher.threshold
    failures = 0
    for i in inputs.oracle_sample:
        if churn:
            # Events 1..n have been published before event index n; a
            # swap follows every CHURN_EVERY-th event.
            # (the sample is sorted, so the replay only moves forward)
            due = (warm + i) // plan.CHURN_EVERY
            for _ in range(swaps_done, due):
                population.swap()
            swaps_done = due
        live = list(population.live)
        batch = pairwise_match_batch(
            matcher, [stack.subscriptions[s] for s in live], [inputs.timed[i]]
        )
        expected = [
            (slot, result.score)
            for slot, row in zip(live, batch.results, strict=True)
            if (result := row[0]) is not None and result.is_match(threshold)
        ]
        got = delivered.get(warm + i, [])
        if not _same_deliveries(stack, expected, got, tolerance):
            failures += 1
    return failures


def _same_deliveries(stack: Stack, expected, got, tolerance: float) -> bool:
    """Callback deliveries in order; inbox deliveries (drained later) as a set."""

    def split(pairs):
        callbacks = [p for p in pairs if stack.uses_callback(p[0])]
        return callbacks + sorted(p for p in pairs if not stack.uses_callback(p[0]))

    want, have = split(expected), split(got)
    return [slot for slot, _ in want] == [slot for slot, _ in have] and all(
        abs(a - b) <= tolerance for (_, a), (_, b) in zip(want, have)
    )


def max_f1(stack: Stack, inputs) -> float:
    """11-point max-F1 of a scores-only grid under this workload's themes."""
    stride = plan.F1_GRID_STRIDE.get(stack.name, 1)
    events = inputs.grid_events[::stride]
    grid: list[list[float]] = [[] for _ in inputs.subscriptions]
    for start in range(0, len(events), plan.F1_GRID_CHUNK):
        part = stack.matcher.match_batch(
            inputs.subscriptions,
            events[start : start + plan.F1_GRID_CHUNK],
            scores_only=True,
        ).scores
        for row, scores in zip(grid, part, strict=True):
            row.extend(scores)
    relevant = [
        {j // stride for j in subset if j % stride == 0}
        for subset in inputs.workload.ground_truth.relevant_sets
    ]
    return effectiveness(grid, relevant).max_f1
