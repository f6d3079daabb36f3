"""The one broker core: registration, journal, match-merge-dispatch.

The broker realizes the three classic decoupling dimensions of Figure 1
around the thematic matcher:

* **space** — publishers and subscribers only ever talk to the broker;
  neither knows the other exists;
* **time** — the broker keeps a bounded replay buffer, so a subscriber
  that arrives late can be caught up on recent events on request;
* **synchronization** — deliveries go to per-subscriber inbox queues;
  publishing never blocks on consumption and consumers drain their
  inbox whenever they choose (callbacks are optional).

The fourth dimension — **semantics** — is the paper's contribution: the
matcher is pluggable, so the same broker runs content-based (exact),
non-thematic approximate, or thematic matching.

:class:`BrokerCore` is that broker, once. It owns config validation,
the metrics, the dead-letter queue, the durability and reliability
wiring, the subscriber table, sequence numbers, the replay ring,
recovery, and the single :meth:`~BrokerCore._dispatch` routine every
published event goes through. The public broker classes are *ingress
choices* over it and nothing else:

* :class:`~repro.broker.broker.ThematicBroker` — one shard; ``publish``
  dispatches on the caller's thread and returns the match count;
* :class:`~repro.broker.threaded.ThreadedBroker` — one shard, fed from
  a queue one event at a time;
* :class:`~repro.broker.sharded.ShardedBroker` — ``config.shards``
  shards, fed from a queue in micro-batches.

Shards are in-process engines (:class:`~repro.broker.shards.EngineShards`),
matched inline or on a thread pool; the core only places registrations
on them and merges their survivors.

Three properties the tests pin down, for every front-end:

* **Parity.** Deliveries — the set, the per-subscriber order, the
  sequence stamps, and every score — are bit-identical across
  front-ends in every ``prefilter_mode``, however events are batched,
  sharded, journaled or replayed. They equal the per-pair reference
  oracle (:func:`~repro.core.api.pairwise_match_batch` over the
  subscriptions live at each publish, or the retained events at a
  ``subscribe(replay=True)``): exactly in ``"exact"`` mode, and
  filtered by the per-pair anchor rule in the lossy ``"semantic"`` /
  ``"ann"`` modes, where ``"ann"`` below recall 1.0 delivers a subset
  of that. ``tests/test_oracle.py`` checks every front-end, anchor
  mode, score source and durability setting against it.
* **No lock across user code.** Matching and sequencing happen under
  the registration lock; subscriber callbacks run after it is released,
  so a callback may subscribe, unsubscribe or publish.
* **Losslessness.** Every matched delivery ends in exactly one of the
  subscriber's inbox or the dead-letter queue (see
  :mod:`repro.broker.reliability`), across crashes too when a
  :class:`~repro.broker.durability.DurabilityPolicy` is set.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any

from repro.broker.config import BrokerConfig
from repro.broker.durability import BrokerDurability
from repro.broker.reliability import (
    DeadLetterQueue,
    DeadLetterRecord,
    DeliveryPolicy,
    ReliableDelivery,
)
from repro.broker.shards import STRATEGIES, EngineShards
from repro.core.engine import SubscriptionHandle
from repro.core.events import Event
from repro.core.matcher import MatchResult, ThematicMatcher
from repro.core.subscriptions import Subscription
from repro.obs import TRACER, MetricsRegistry
from repro.obs.clock import MONOTONIC_CLOCK, Clock
from repro.obs.context import TraceContext
from repro.obs.registry import merge_snapshots

__all__ = ["BrokerCore", "BrokerMetrics", "Delivery"]


class BrokerMetrics:
    """Registry-backed operational counters, exposed for tests and benches.

    Counters live in a :class:`~repro.obs.registry.MetricsRegistry` (one
    per broker by default, or a shared one passed in), so increments
    are thread-safe and :meth:`snapshot` gives readers a coherent,
    JSON-ready view; ``metrics.published`` … read single counters.
    """

    FIELDS = ("published", "evaluations", "deliveries", "replayed",
              "callback_errors")

    def __init__(
        self, registry: MetricsRegistry | None = None, *, prefix: str = "broker"
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.prefix = prefix
        self._counters = {
            name: self.registry.counter(f"{prefix}.{name}") for name in self.FIELDS
        }

    def inc(self, name: str, amount: int = 1) -> None:
        self._counters[name].inc(amount)

    def snapshot(self) -> dict[str, int]:
        """Thread-safe point-in-time view of all counters."""
        return {name: counter.value for name, counter in self._counters.items()}

    @property
    def published(self) -> int:
        return self._counters["published"].value

    @property
    def evaluations(self) -> int:
        return self._counters["evaluations"].value

    @property
    def deliveries(self) -> int:
        return self._counters["deliveries"].value

    @property
    def replayed(self) -> int:
        return self._counters["replayed"].value

    @property
    def callback_errors(self) -> int:
        return self._counters["callback_errors"].value


@dataclass(frozen=True)
class Delivery:
    """One matched event delivered to one subscriber."""

    result: MatchResult
    sequence: int
    #: Causal trace context of the publish that produced this delivery;
    #: carried so retry attempts, breaker rejections, and dead-letter
    #: records downstream all share the event's trace id. Excluded from
    #: equality so pre-tracing tests comparing deliveries still hold.
    trace: TraceContext | None = field(default=None, compare=False, repr=False)

    @property
    def event(self) -> Event:
        return self.result.event

    @property
    def score(self) -> float:
        return self.result.score


@dataclass
class _Entry:
    """Registration record for one subscriber: its handle and its shard."""

    handle: SubscriptionHandle
    shard: int


class BrokerCore:
    """Subscriber table, journal and match-merge-dispatch for one broker.

    Parameters
    ----------
    matcher:
        Any :class:`~repro.core.api.MatchEngine` implementation
        (``match``/``matches``/``score``/``match_batch``/``threshold``).
    config:
        A :class:`~repro.broker.config.BrokerConfig` (defaults when
        omitted). The shard engines always run in this process
        (:class:`~repro.broker.shards.EngineShards`).
    shards:
        Subscription shard count, chosen by the front-end.
    registry:
        Metrics registry backing the broker's counters; defaults to a
        private one so broker instances never share state by accident.
        The reliability layer and the journal count into it too, as
        does the shard engine of a one-shard broker; several shards
        keep a registry each (see :meth:`metrics_snapshot`).
    clock:
        Time source for delivery deadlines/backoff, ingress waits and
        the degraded-mode budget; injectable for the fault harness.
    """

    def __init__(
        self,
        matcher: ThematicMatcher,
        config: BrokerConfig | None = None,
        *,
        shards: int,
        registry: MetricsRegistry | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.config = config = config if config is not None else BrokerConfig()
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if config.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        strategy: Any = config.strategy
        if isinstance(strategy, str):
            try:
                strategy = STRATEGIES[strategy]()
            except KeyError:
                raise ValueError(
                    f"unknown shard strategy {strategy!r} "
                    f"(expected one of {sorted(STRATEGIES)})"
                ) from None
        if config.executor != "thread":
            raise ValueError(
                f"unknown executor {config.executor!r} (expected 'thread')"
            )
        self.matcher = matcher
        self.metrics = BrokerMetrics(registry)
        self._strategy = strategy
        self._clock = clock if clock is not None else MONOTONIC_CLOCK
        self.dead_letters = DeadLetterQueue(config.dead_letter_capacity)
        # Constructing the journal *is* recovery: an existing directory
        # is replayed into durability.state before the broker accepts
        # any work (durability.report is None on a pristine directory).
        self.durability: BrokerDurability | None = None
        if config.durability is not None:
            self.durability = BrokerDurability(
                config.durability,
                replay_capacity=config.replay_capacity,
                registry=self.metrics.registry,
                clock=clock,
            )
            self.dead_letters.on_drain = self.durability.log_dlq_drain
        self.reliability = ReliableDelivery(
            self.metrics,
            policy=config.delivery,
            dead_letters=self.dead_letters,
            clock=clock,
            durability=self.durability,
        )
        self._shards = EngineShards(
            matcher,
            config,
            shards=shards,
            registry=self.metrics.registry,
            clock=clock,
        )
        # Guards the subscriber table, the sequence counter, the replay
        # ring and the shards. Deliveries are dispatched *after* it is
        # released (lock-scope rule RL100: user callbacks may re-enter
        # subscribe/unsubscribe/publish). Reentrant because measures and
        # placement strategies are user-supplied code that does run
        # under it: a same-thread re-entry must nest, not self-deadlock.
        self._lock = threading.RLock()
        self._subscribers: dict[int, _Entry] = {}
        self._next_id = 0
        self._sequence = 0
        self._replay: deque[tuple[int, Event]] = deque(
            maxlen=config.replay_capacity
        )
        #: Handles restored from the journal, by original subscriber id.
        #: Callbacks are not journaled (they are code); a recovering
        #: application reattaches them here before ``recover_pending``.
        self.recovered: dict[int, SubscriptionHandle] = {}
        self._pending_recovery: list[tuple[int, Event]] = []
        if self.durability is not None and self.durability.report is not None:
            self._restore()

    # -- subscriber side ---------------------------------------------------

    def subscribe(
        self,
        subscription: Subscription,
        callback: Callable[[Delivery], None] | None = None,
        *,
        replay: bool = False,
        policy: DeliveryPolicy | None = None,
    ) -> SubscriptionHandle:
        """Register a subscription; optionally replay buffered events.

        With ``replay=True`` the retained events are matched against the
        new subscription immediately, as one gated batch on its shard
        (time decoupling: consumers need not be active when producers
        fire). ``policy`` overrides the broker-wide delivery policy for
        this subscriber alone.

        The handle's ``id`` is assigned here (registration order, also
        the delivery-order key of the shard merge) and its
        :attr:`~repro.core.engine.SubscriptionHandle.key` is a stable,
        serializable function of ``(id, subscription)`` — the identity
        durable journals use across restarts.
        """
        replayed: list[Delivery] = []
        with self._lock:
            entry = self._register(subscription, callback, policy)
            if replay:
                self.metrics.inc("evaluations", len(self._replay))
                replayed = [
                    Delivery(
                        result=result, sequence=sequence, trace=TRACER.mint_trace()
                    )
                    for sequence, result in self._shards.replay(
                        entry.shard, subscription, list(self._replay)
                    )
                ]
                self.metrics.inc("replayed", len(replayed))
        # Dispatch with the lock released: callbacks are user code and may
        # re-enter the broker (RL100). The handle is already registered,
        # so replayed deliveries keep their position before any batch
        # matched afterwards.
        for delivery in replayed:
            with TRACER.root_span("broker.replay", delivery.trace):
                self.reliability.dispatch(entry.handle, delivery)
        return entry.handle

    def _register(
        self,
        subscription: Subscription,
        callback: Callable[[Delivery], None] | None,
        policy: DeliveryPolicy | None,
        *,
        sub_id: int | None = None,
        key: str = "",
        log: bool = True,
    ) -> _Entry:
        """Create + shard-place one registration (``_lock`` held).

        ``sub_id``/``key``/``log=False`` is the journal-restore path:
        the original subscriber id and stable key are preserved and the
        registration is not re-journaled.
        """
        if sub_id is None:
            sub_id = self._next_id
        handle = SubscriptionHandle(
            id=sub_id,
            subscription=subscription,
            policy=policy,
            callback=callback,
            key=key,
        )
        loads = self._shards.loads()
        shard = self._strategy.assign(sub_id, loads)
        if not 0 <= shard < len(loads):
            raise ValueError(
                f"strategy assigned shard {shard} outside [0, {len(loads)})"
            )
        durability = self.durability
        if durability is not None:
            handle.on_drain = lambda count, _id=sub_id: durability.log_drain(
                _id, count
            )
            if log:
                # Write-ahead: the registration is durable before it can
                # observe any event.
                durability.log_subscribe(handle)
        self._next_id = max(self._next_id, sub_id + 1)
        self._shards.subscribe(shard, sub_id, subscription)
        entry = self._subscribers[sub_id] = _Entry(handle, shard)
        return entry

    def unsubscribe(self, handle: SubscriptionHandle) -> bool:
        with self._lock:
            entry = self._subscribers.get(handle.id)
            if entry is None:
                return False
            if self.durability is not None:
                # Write-ahead: journal the removal before applying it.
                # The unknown-id early return above keeps this the
                # *only* path to the mutation, so the journal record
                # always precedes it (RL700: the log call must dominate
                # the state change).
                self.durability.log_unsubscribe(handle.id)
            del self._subscribers[handle.id]
            self._shards.unsubscribe(entry.shard, handle.id)
            for source, target in self._strategy.rebalance(self._shards.loads()):
                self._move_one(source, target)
            return True

    def _move_one(self, source: int, target: int) -> None:
        """Move the most recently registered subscription off ``source``.

        Global delivery order rides on each subscriber's id, not on
        shard-internal registration order, so the move is invisible to
        subscribers.
        """
        for entry in reversed(self._subscribers.values()):
            if entry.shard == source:
                self._shards.move(
                    entry.handle.id, source, target, entry.handle.subscription
                )
                entry.shard = target
                return

    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def shard_sizes(self) -> list[int]:
        """Current subscription count per shard."""
        with self._lock:
            return self._shards.loads()

    # -- the dispatch path -------------------------------------------------

    @contextmanager
    def _match_span(
        self, contexts: Sequence[TraceContext | None]
    ) -> Iterator[None]:
        """The ``broker.match_batch`` span around one dispatch's matching.

        A dispatch of one event belongs to that event's trace. A
        micro-batch serves many events at once, so it gets its own
        trace; the member events' traces are referenced through the
        OTel-style ``links`` attribute rather than a fake parent edge.
        """
        if len(contexts) == 1:
            with TRACER.activate(contexts[0]), TRACER.span(
                "broker.match_batch", events=1
            ):
                yield
        else:
            links = [ctx.trace_id for ctx in contexts if ctx is not None]
            with TRACER.root_span(
                "broker.match_batch",
                TRACER.mint_trace(),
                events=len(contexts),
                links=links,
            ):
                yield

    def _dispatch(
        self,
        events: list[Event],
        contexts: Sequence[TraceContext | None],
        *,
        sequences: list[int] | None = None,
    ) -> int:
        """Sequence, journal, match, merge and deliver one batch of events.

        ``contexts`` holds each event's trace context, in step with
        ``events``. Returns the number of matched deliveries.
        ``sequences`` is the recovery path: the events already carry
        journaled sequence numbers, so nothing is stamped, journaled or
        retained again. A matched delivery whose callback exhausts its retry budget is
        dead-lettered, not dropped — the return value counts matches,
        ``metrics.deliveries`` counts deliveries that reached an inbox.
        """
        with self._match_span(contexts), self._lock:
            if sequences is None:
                self.metrics.inc("published", len(events))
                sequences = []
                for event in events:
                    sequences.append(self._sequence)
                    if self.durability is not None:
                        # Write-ahead: each event is durable (redo
                        # record) before any shard can match it, and in
                        # sequence order.
                        self.durability.log_publish(self._sequence, event)
                    self._replay.append((self._sequence, event))
                    self._sequence += 1
            self.metrics.inc("evaluations", len(self._subscribers) * len(events))
            # Merge the shards' survivors into one stream: events in
            # arrival order, each in global registration order. Deliveries
            # are built here, before any callback can run: a callback
            # that publishes must not change what the rest of this batch
            # is stamped with.
            pending = [
                (
                    self._subscribers[order].handle,
                    Delivery(
                        result=result, sequence=sequences[j], trace=contexts[j]
                    ),
                )
                for order, j, result in sorted(
                    self._shards.deliverable(events), key=itemgetter(1, 0)
                )
            ]
        # Matching and sequencing happen under the lock; the callbacks
        # themselves must not (RL100) — a subscriber that subscribes,
        # unsubscribes or publishes from its callback would otherwise
        # deadlock against a dispatcher thread.
        for handle, delivery in pending:
            self.reliability.dispatch(handle, delivery)
        if self.durability is not None:
            # Every delivery of these events reached its terminal state;
            # the journal can forget the in-flight entries.
            for sequence in sequences:
                self.durability.log_done(sequence)
        return len(pending)

    # -- durability --------------------------------------------------------

    def recover_pending(self) -> int:
        """Re-dispatch events that were in flight at the crash.

        A ``pub`` record without a matching ``done`` means the event was
        published but its dispatch never completed. Re-running dispatch
        is safe because the idempotency keys suppress every delivery
        that already reached an inbox or the dead-letter queue before
        the crash — only the unfinished remainder runs. Call after
        reattaching callbacks to the :attr:`recovered` handles; returns
        the number of events re-dispatched.
        """
        pending = self._pending_recovery
        self._pending_recovery = []
        for sequence, event in pending:
            ctx = TRACER.mint_trace()
            with TRACER.root_span("broker.recover", ctx):
                self._dispatch([event], [ctx], sequences=[sequence])
        return len(pending)

    def _restore(self) -> None:
        """Rebuild broker state from the recovered journal mirror."""
        durability = self.durability
        assert durability is not None
        state = durability.state

        with self._lock:
            for sub_id, key, subscription, policy in state.subscription_entries():
                entry = self._register(
                    subscription, None, policy, sub_id=sub_id, key=key, log=False
                )
                self.recovered[sub_id] = entry.handle
            # One replay batch per subscriber over its undrained inbox and
            # dead letters. Matching is deterministic, so a restored inbox
            # or dead letter equals the lost one.
            inboxes = state.live_entries()
            dead = state.dead_letter_entries()
            wanted = {sub_id: list(sequences) for sub_id, sequences in inboxes}
            for record in dead:
                wanted.setdefault(int(record["id"]), []).append(int(record["seq"]))
            matched = {
                (sub_id, sequence): result
                for sub_id, sequences in wanted.items()
                if (owner := self._subscribers.get(sub_id)) is not None
                for sequence, result in self._shards.replay(
                    owner.shard, owner.handle.subscription, state.entries(sequences)
                )
            }

            def rematch(sub_id: int, sequence: int) -> Delivery | None:
                result = matched.get((sub_id, sequence))
                if result is None:
                    durability.note_restore_miss()
                    return None
                return Delivery(result=result, sequence=sequence)

            for sub_id, sequences in inboxes:
                if sub_id not in self._subscribers:
                    continue
                for sequence in sequences:
                    delivery = rematch(sub_id, sequence)
                    if delivery is not None:
                        self._subscribers[sub_id].handle.append(delivery)
            for record in dead:
                sub_id = int(record["id"])
                delivery = rematch(sub_id, int(record["seq"]))
                if delivery is not None:
                    self.dead_letters.append(
                        DeadLetterRecord(
                            delivery=delivery,
                            subscriber_id=sub_id,
                            reason=str(record["reason"]),
                            attempts=int(record["attempts"]),
                            error=record.get("error"),
                            timestamp=str(record.get("timestamp") or ""),
                            trace_id=record.get("trace_id"),
                        )
                    )
            self._replay.extend(state.ring_entries())
            self._sequence = state.next_sequence
            self._next_id = max(self._next_id, state.next_id)
            self._pending_recovery = state.pending_entries()

    # -- lifecycle and observability ---------------------------------------

    def flush(self, timeout: float | None = None) -> bool:
        """Block until every accepted event is matched *and* delivered.

        Returns False if ``timeout`` elapsed first. Inline dispatch has
        nothing in flight once ``publish`` returned.
        """
        return True

    def pending(self) -> int:
        """Events accepted but not yet dispatched (approximate)."""
        return 0

    def close(self) -> None:
        """Stop the shard pool; flush and close the journal."""
        self._shards.close()
        if self.durability is not None:
            self.durability.close()

    def __enter__(self) -> "BrokerCore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def metrics_snapshot(self) -> dict:
        """Broker counters plus per-shard registries and their merge.

        Counters are registry-backed (each guarded by its own lock), so
        reading them from a producer thread while a dispatcher publishes
        is race-free. ``shards`` holds each shard registry's own
        snapshot (percentiles intact) — for a one-shard broker that is
        the broker's registry; ``engine_totals`` aggregates them —
        counters summed — via
        :func:`~repro.obs.registry.merge_snapshots`.
        """
        snapshot: dict[str, Any] = dict(self.metrics.snapshot())
        snapshot["pending"] = self.pending()
        shard_snapshots = self._shards.shard_snapshots()
        snapshot["shards"] = {
            f"shard{index}": shard_snapshot
            for index, shard_snapshot in enumerate(shard_snapshots)
        }
        snapshot["engine_totals"] = merge_snapshots(shard_snapshots)["counters"]
        return snapshot
