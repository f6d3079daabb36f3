"""Subscription registry + dispatch: the in-process event engine.

:class:`ThematicEventEngine` is the smallest useful host for the
matcher: register subscriptions with callbacks, feed it events, and it
delivers :class:`~repro.core.matcher.MatchResult` objects for every
subscription whose match score clears the threshold. The distributed
broker (:mod:`repro.broker`) embeds one engine per broker node.

Dispatch runs through the engine's ``match_batch`` (one event against
the whole registration snapshot per call), which stages the work —
candidate filtering, cross-subscription term-pair dedup, bulk semantic
scoring, assignment — instead of matching pair by pair. The candidate
stage's exact anchors prune pairs whose score is provably 0.0 before
any semantic scoring happens; since delivery only wants results at or
above the matcher's threshold, pruning is loss-free for any positive
threshold (and is disabled automatically at threshold 0.0, where
zero-score results are deliverable).

The ``"semantic"`` and ``"ann"`` anchor modes (:data:`PREFILTER_MODES`)
hand the engine's private pipeline an
:class:`~repro.semantics.index.ApproxNeighborIndex` — exact scan at
``recall_target=1.0`` for ``"semantic"``, LSH at ``ann_recall_target``
for ``"ann"`` — which adds the pipeline's lossy semantic anchors (and
keeps the exact anchors on at any threshold). Every anchor decision is
per (subscription, event) pair, so a micro-batch delivers exactly what
its events deliver one at a time.

Replay and journal restore match through the same gated batch
(:meth:`ThematicEventEngine.replay`, one subscription against the
retained events), so every way an event reaches a subscriber passes the
same anchors, threshold gate and degraded fallback.

Configuration is an :class:`EngineConfig`; when a
:class:`~repro.core.degrade.DegradedPolicy` is set, every full batch
(replays included) is timed through the injected clock and an
over-budget (or manually unhealthy) backend flips dispatch to an
exact-anchor fallback pipeline until a probe recovers — see
:mod:`repro.core.degrade`.
"""

from __future__ import annotations

import hashlib
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from threading import Lock
from typing import TYPE_CHECKING, Any

from repro.core.degrade import DegradedMode, DegradedPolicy
from repro.core.events import Event
from repro.core.matcher import MatchResult, ThematicMatcher
from repro.core.subscriptions import Subscription
from repro.obs import MetricsRegistry
from repro.obs.clock import MONOTONIC_CLOCK, Clock
from repro.semantics.index import ApproxNeighborIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.broker.reliability import DeliveryPolicy

__all__ = [
    "EngineConfig",
    "EngineStats",
    "SubscriptionHandle",
    "ThematicEventEngine",
    "stable_subscriber_key",
]

#: Callback invoked on every delivered match.
MatchCallback = Callable[[MatchResult], None]

#: Supported candidate-filter anchor modes (see module docstring).
PREFILTER_MODES = ("exact", "semantic", "ann")


def stable_subscriber_key(sub_id: int, subscription: Subscription | None) -> str:
    """Serializable identity for one registration.

    Handles are identity objects (``eq=False``), which a replayed
    journal cannot reference; this key is a pure function of the
    registration order and the subscription's deterministic string
    form, so a recovered broker re-derives the *same* key for the same
    registration and durable records can name subscribers across
    restarts.
    """
    text = f"{sub_id}|{subscription}" if subscription is not None else f"{sub_id}|"
    return "sub-" + hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


@dataclass(eq=False)
class SubscriptionHandle:
    """One registration, shared by the engine and every broker front-end.

    Historically the engine and the brokers each grew their own handle
    type (a frozen ``SubscriptionHandle`` ticket here, a mutable
    ``SubscriberHandle`` with an inbox in the broker); this is the
    unified replacement. ``id`` is the registration order (also the
    delivery-order key for the sharded broker's merge), ``policy`` an
    optional per-subscription
    :class:`~repro.broker.reliability.DeliveryPolicy` override, and
    ``inbox``/``callback`` the delivery wiring (unused when the handle
    only serves as an engine ticket).

    Identity semantics (``eq=False``): two registrations of the same
    subscription are distinct subscribers. :meth:`append` and
    :meth:`drain` are lock-guarded so a subscriber may drain its inbox
    while a broker thread is delivering — drains never tear and never
    drop: every delivery lands in exactly one drain, in delivery order.
    """

    id: int
    subscription: Subscription
    policy: "DeliveryPolicy | None" = None
    callback: Callable[..., None] | None = None
    inbox: deque = field(default_factory=deque, repr=False)
    key: str = ""
    on_drain: Callable[[int], None] | None = field(default=None, repr=False)
    _lock: Lock = field(default_factory=Lock, init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.key:
            self.key = stable_subscriber_key(self.id, self.subscription)

    @property
    def subscription_id(self) -> int:
        """Engine-era alias for :attr:`id`."""
        return self.id

    @property
    def subscriber_id(self) -> int:
        """Broker-era alias for :attr:`id`."""
        return self.id

    def append(self, item: Any) -> None:
        """Deliver one item into the inbox (thread-safe)."""
        with self._lock:
            self.inbox.append(item)

    def drain(self) -> list:
        """Remove and return everything currently in the inbox."""
        with self._lock:
            items = list(self.inbox)
            self.inbox.clear()
        # The hook journals the consumption; it runs outside the inbox
        # lock so a journal append can never nest inside it.
        if items and self.on_drain is not None:
            self.on_drain(len(items))
        return items


@dataclass(frozen=True)
class EngineConfig:
    """Typed construction knobs for :class:`ThematicEventEngine`.

    Parameters
    ----------
    private_pipeline:
        Give this engine its own staged pipeline (when the matcher
        supports one) instead of the matcher's shared lazy instance.
        Required when several engines over the same matcher run
        concurrently — the sharded broker's layout.
    span_tags:
        Extra attributes stamped on every pipeline span (e.g. a shard
        label); only meaningful with ``private_pipeline``.
    degraded:
        Optional :class:`~repro.core.degrade.DegradedPolicy`; when set,
        slow or unhealthy semantic scoring flips dispatch to the
        exact-anchor fallback instead of failing closed.
    prefilter_mode:
        Candidate-stage anchor mode (:data:`PREFILTER_MODES`).
        ``"exact"`` (default) keeps only the loss-free structural
        checks; ``"semantic"`` adds exact-scan token-neighborhood
        anchors for fully-approximated predicates (lossy — see
        :mod:`repro.core.pipeline`); ``"ann"`` generates the same
        anchors through the LSH index at ``ann_recall_target``. Both
        non-exact modes need a ThematicMatcher-family engine whose
        measure exposes a semantic space, and match through a private
        pipeline.
    ann_recall_target:
        Recall knob for ``prefilter_mode="ann"``; ``1.0`` (default)
        falls back to the exact scan, bit-identical to ``"semantic"``.
    score_store_path:
        Optional path to a persistent precomputed-score snapshot
        (``repro warm-cache``). When set, the engine matches through
        ``CachedMeasure(matcher.measure, RelatednessCache(backing=store))``
        so both per-lookup and bulk (``score_batch``) scoring consult
        that memo, then the store, before the matcher's own measure;
        the snapshot's corpus digest is verified against the matcher's
        space when one is reachable. The memo is unbounded; to bound it,
        build the same ``CachedMeasure`` yourself with ``max_entries``
        and leave this unset.
    warm_on_start:
        Materialize the score store into RAM at construction instead of
        paging it in lazily (requires ``score_store_path``).
    """

    private_pipeline: bool = False
    span_tags: dict | None = None
    degraded: DegradedPolicy | None = None
    prefilter_mode: str = "exact"
    ann_recall_target: float = 1.0
    score_store_path: str | None = None
    warm_on_start: bool = False


class EngineStats:
    """Registry-backed counters for observability and the benchmarks.

    Formerly a plain dataclass of bare ints mutated in place — the last
    unsynchronized counter on the hot path, racy once an engine runs
    under :class:`~repro.broker.threaded.ThreadedBroker`. Counters now
    live in a :class:`~repro.obs.registry.MetricsRegistry` (a private
    one by default, or a shared one passed in), so increments are
    thread-safe and :meth:`snapshot` gives readers a coherent, JSON-ready
    view. The old attribute reads (``stats.events_processed`` …) still
    work.
    """

    FIELDS = ("events_processed", "evaluations", "deliveries", "pruned")

    def __init__(
        self, registry: MetricsRegistry | None = None, *, prefix: str = "engine"
    ):
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
    def events_processed(self) -> int:
        return self._counters["events_processed"].value

    @property
    def evaluations(self) -> int:
        return self._counters["evaluations"].value

    @property
    def deliveries(self) -> int:
        return self._counters["deliveries"].value

    @property
    def pruned(self) -> int:
        """Pairs the candidate stage skipped before semantic scoring."""
        return self._counters["pruned"].value


class ThematicEventEngine:
    """Match-and-dispatch engine over a set of registered subscriptions.

    Parameters
    ----------
    matcher:
        Any :class:`~repro.core.api.MatchEngine` implementation; all
        four Table-1 approaches qualify.
    config:
        An :class:`EngineConfig` (defaults when omitted).
    registry:
        Metrics registry backing :class:`EngineStats`; defaults to a
        private one. The broker passes its own so one snapshot covers
        both layers.
    clock:
        Time source for the degraded-mode latency budget; injectable so
        the fault harness controls every timing decision.
    """

    def __init__(
        self,
        matcher: ThematicMatcher,
        config: EngineConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
        clock: Clock | None = None,
    ):
        self.config = config if config is not None else EngineConfig()
        if self.config.prefilter_mode not in PREFILTER_MODES:
            raise ValueError(
                f"unknown prefilter mode {self.config.prefilter_mode!r} "
                f"(expected one of {PREFILTER_MODES})"
            )
        if self.config.warm_on_start and self.config.score_store_path is None:
            raise ValueError("warm_on_start requires score_store_path")
        self.stats = EngineStats(registry)
        self.score_store = None
        if self.config.score_store_path is not None:
            matcher = self._attach_store(matcher)
        self.matcher = matcher
        neighborhoods = None
        if self.config.prefilter_mode != "exact":
            neighborhoods = self._neighbor_index(matcher)
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        self._pipeline = None
        if self.config.private_pipeline or neighborhoods is not None:
            factory = getattr(matcher, "new_pipeline", None)
            if factory is not None:
                self._pipeline = factory(
                    span_tags=self.config.span_tags, neighborhoods=neighborhoods
                )
        self.degraded: DegradedMode | None = None
        self._fallback_pipeline = None
        if self.config.degraded is not None:
            self._fallback_pipeline = self._build_fallback(matcher).new_pipeline(
                span_tags={"degraded": True}, neighborhoods=neighborhoods
            )
            self.degraded = DegradedMode(
                self.config.degraded,
                clock=self.clock,
                registry=self.stats.registry,
            )
        self._subscriptions: dict[int, tuple[Subscription, MatchCallback]] = {}
        self._next_id = 0
        # Registration snapshot, rebuilt only when the set changes.
        self._snapshot: tuple[list[Subscription], list[MatchCallback]] | None = None

    @staticmethod
    def _build_fallback(matcher: ThematicMatcher) -> ThematicMatcher:
        """Exact-anchor fallback matcher mirroring the matcher's knobs.

        Same ``k``/``threshold``/arity handling, but the measure is
        :class:`~repro.semantics.measures.ExactMeasure` with no
        calibration: a non-identical approximated term scores exactly
        0.0, so only literal anchors carry matches — content-based
        matching at the original matcher's delivery threshold. Every
        batch the controller sends to the fallback — live, replay or
        restore — runs it through one private pipeline.
        """
        required = ("measure", "k", "threshold", "min_relatedness")
        if any(not hasattr(matcher, name) for name in required):
            raise ValueError(
                "degraded mode needs a ThematicMatcher-family engine "
                f"(got {type(matcher).__name__})"
            )
        from repro.semantics.measures import ExactMeasure

        return ThematicMatcher(
            ExactMeasure(),
            k=matcher.k,
            threshold=matcher.threshold,
            min_relatedness=matcher.min_relatedness,
            calibration=None,
        )

    @staticmethod
    def _find_space(measure):
        """The semantic space behind a (possibly wrapped) measure.

        The space sits on the innermost scoring measure; wrappers
        (``CachedMeasure``, instrumentation) expose what they wrap as
        ``.inner``. Returns the first corpus-backed ``.space`` down that
        chain, or ``None`` (e.g. ``ExactMeasure``).
        """
        while measure is not None:
            space = getattr(measure, "space", None)
            if space is not None and hasattr(space, "documents"):
                return space
            measure = getattr(measure, "inner", None)
        return None

    def _neighbor_index(self, matcher: ThematicMatcher) -> ApproxNeighborIndex:
        """The semantic-anchor provider for a non-``"exact"`` mode.

        ``"semantic"`` is the exact full-vocabulary scan
        (``recall_target=1.0``); ``"ann"`` probes the LSH bands at
        ``ann_recall_target``. The anchors run in the candidate stage of
        this engine's private pipeline, so the matcher must build one.
        """
        mode = self.config.prefilter_mode
        if not all(hasattr(matcher, name) for name in ("measure", "new_pipeline")):
            raise ValueError(
                f"prefilter_mode {mode!r} needs a ThematicMatcher-family "
                f"engine (got {type(matcher).__name__})"
            )
        space = self._find_space(matcher.measure)
        if space is None:
            raise ValueError(
                f"prefilter_mode {mode!r} needs a matcher whose measure "
                "exposes a semantic space"
            )
        return ApproxNeighborIndex(
            space,
            recall_target=(
                self.config.ann_recall_target if mode == "ann" else 1.0
            ),
            registry=self.stats.registry,
        )

    def _attach_store(self, matcher: ThematicMatcher) -> ThematicMatcher:
        """Put the persistent score store in front of the matcher's measure.

        The engine matches through a :class:`ThematicMatcher` with the
        caller's knobs whose measure is
        ``CachedMeasure(matcher.measure, RelatednessCache(backing=store))``
        — the same wrapper any caller would use: memo, then store, then
        the original measure (cache and kernel unchanged), for both
        per-lookup and bulk scoring. The caller's matcher is left as it
        was. The snapshot's corpus digest is checked against the
        matcher's space whenever one is reachable, so a store warmed
        against a different corpus is rejected at construction, not
        silently consulted.
        """
        required = ("measure", "k", "threshold", "min_relatedness", "calibration")
        if any(not hasattr(matcher, name) for name in required):
            raise ValueError(
                "score_store_path needs a ThematicMatcher-family engine "
                f"(got {type(matcher).__name__})"
            )
        from repro.semantics.cache import PersistentScoreStore, RelatednessCache
        from repro.semantics.measures import CachedMeasure

        expected = None
        space = self._find_space(matcher.measure)
        if space is not None:
            from repro.semantics.persistence import corpus_digest

            expected = corpus_digest(space.documents)
        store = PersistentScoreStore.load(
            self.config.score_store_path,
            expected_digest=expected,
            registry=self.stats.registry,
        )
        if self.config.warm_on_start:
            store.warm()
        self.score_store = store
        return ThematicMatcher(
            CachedMeasure(matcher.measure, RelatednessCache(backing=store)),
            k=matcher.k,
            threshold=matcher.threshold,
            min_relatedness=matcher.min_relatedness,
            calibration=matcher.calibration,
        )

    def subscribe(
        self, subscription: Subscription, callback: MatchCallback
    ) -> SubscriptionHandle:
        """Register a subscription; returns a handle for unsubscribing."""
        handle = SubscriptionHandle(
            self._next_id, subscription, callback=callback
        )
        self._subscriptions[self._next_id] = (subscription, callback)
        self._next_id += 1
        self._snapshot = None
        return handle

    def unsubscribe(self, handle: SubscriptionHandle) -> bool:
        """Remove a registration; True if it was present."""
        removed = self._subscriptions.pop(handle.id, None) is not None
        if removed:
            self._snapshot = None
        return removed

    def subscription_count(self) -> int:
        return len(self._subscriptions)

    def metrics_snapshot(self) -> dict[str, int]:
        """Coherent view of the engine counters (JSON-ready)."""
        return self.stats.snapshot()

    def _registrations(self) -> tuple[list[Subscription], list[MatchCallback]]:
        if self._snapshot is None:
            registered = self._subscriptions.values()
            self._snapshot = ([s for s, _ in registered], [c for _, c in registered])
        return self._snapshot

    def _run_full(
        self,
        subscriptions: list[Subscription],
        events: list[Event],
        *,
        prune_zero: bool,
    ):
        """A private pipeline takes precedence; otherwise the matcher's
        own ``match_batch`` runs, delivery-gated when the matcher family
        supports it (Boolean baselines build full results either way,
        and dispatch filters identically)."""
        threshold = self.matcher.threshold
        if self._pipeline is not None:
            return self._pipeline.run(
                subscriptions,
                events,
                prune_zero=prune_zero,
                deliver_threshold=threshold,
            )
        if hasattr(self.matcher, "new_pipeline"):
            return self.matcher.match_batch(
                subscriptions,
                events,
                prune_zero=prune_zero,
                deliver_threshold=threshold,
            )
        return self.matcher.match_batch(subscriptions, events, prune_zero=prune_zero)

    def survivors(
        self, events: list[Event]
    ) -> Iterator[tuple[int, Any, MatchResult]]:
        """Match a micro-batch; yield every deliverable pair, undispatched.

        The engine's dispatch path: one delivery-gated ``match_batch``
        covers the (registration snapshot x batch) grid and each
        survivor comes back as ``(event index, registered callback,
        result)``, events in arrival order, each in registration order.
        :meth:`process_batch` invokes the callbacks; the broker's shard
        engines read the registration off the callback slot instead and
        merge shards into one globally ordered delivery stream.
        """
        subscriptions, callbacks = self._registrations()
        self.stats.inc("events_processed", len(events))
        self.stats.inc("evaluations", len(subscriptions) * len(events))
        if not events or not subscriptions:
            return iter(())
        return self._deliverable(subscriptions, callbacks, events)

    def replay(
        self, subscription: Subscription, events: list[Event]
    ) -> list[tuple[int, MatchResult]]:
        """Match one (possibly unregistered) subscription against events.

        The broker's replay and journal-restore path: the same gated
        batch as :meth:`survivors` — candidate anchors, threshold gate,
        degraded fallback and its timing — over a ``[subscription] x
        events`` grid. Returns ``(event index, result)`` for every
        deliverable pair, in event order; nothing is dispatched and
        ``events_processed`` is not counted.
        """
        self.stats.inc("evaluations", len(events))
        if not events:
            return []
        return [
            (j, result)
            for j, _, result in self._deliverable([subscription], [None], events)
        ]

    def _deliverable(
        self, subscriptions: list[Subscription], tags: list[Any], events: list[Event]
    ) -> Iterator[tuple[int, Any, MatchResult]]:
        """Yield ``(event index, tags[i], result)`` for each deliverable
        pair of ``subscriptions[i]``: the engine's one match path.

        One delivery-gated ``match_batch``, with zero-score pruning on
        for any positive threshold; result objects are materialized only
        for pairs at or above the matcher's threshold. With a degraded
        policy configured the full path is timed and an over-budget (or
        manually unhealthy) backend routes subsequent batches to the
        exact-anchor fallback; recovery probes re-enter the full path
        (see :class:`~repro.core.degrade.DegradedMode`).
        """
        threshold = self.matcher.threshold
        prune_zero = threshold > 0
        degraded = self.degraded
        if degraded is None:
            batch = self._run_full(subscriptions, events, prune_zero=prune_zero)
        elif degraded.use_fallback():
            degraded.note_fallback_batch()
            batch = self._fallback_pipeline.run(
                subscriptions,
                events,
                prune_zero=prune_zero,
                deliver_threshold=threshold,
            )
        else:
            started = self.clock.monotonic()
            batch = self._run_full(subscriptions, events, prune_zero=prune_zero)
            degraded.observe(self.clock.monotonic() - started)
        if batch.stats is not None:
            self.stats.inc("pruned", batch.stats.pruned)
        for j in range(len(events)):
            for index, tag in enumerate(tags):
                result = batch.result(index, j)
                if result is not None and result.is_match(threshold):
                    self.stats.inc("deliveries")
                    yield j, tag, result

    def process_batch(self, events: list[Event]) -> list[list[MatchResult]]:
        """Match and dispatch a micro-batch; one result list per event.

        Callbacks fire per event in arrival order, each in registration
        order; the delivered results (also handed to the callbacks) come
        back grouped the same way. ``evaluations`` counts the pairs
        considered (before candidate filtering) and ``pruned`` how many
        of those the candidate stage settled without semantic scoring.
        """
        events = list(events)
        delivered: list[list[MatchResult]] = [[] for _ in events]
        for j, callback, result in self.survivors(events):
            delivered[j].append(result)
            callback(result)
        return delivered

    def process(self, event: Event) -> list[MatchResult]:
        """:meth:`process_batch` for one event."""
        return self.process_batch([event])[0]
