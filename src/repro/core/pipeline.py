"""Staged batch execution of the matching path (the ``match_batch`` engine).

The naive matching loop scores every (subscription, event) pair from
scratch: each pair rebuilds its similarity matrix, each matrix entry
re-normalizes its terms, re-canonicalizes its themes and re-asks the
semantic measure — so a term pair appearing in 50 pairs of a batch is
keyed and looked up 50 times. This module replaces that loop with the
explicit staged pipeline the paper's Section 7 efficiency discussion
points at (and SIENA-style brokers implement for the exact fragment):

1. **Candidates** — cheap loss-free prefiltering: *arity* (an event with
   fewer tuples than the subscription has predicates carries no
   mapping) always applies; *exact anchors* (a non-approximated ``=``
   predicate requires its literal (attribute, value) tuple) apply when
   the caller only needs scores or threshold survivors, because a
   missing anchor proves the pair's score is exactly 0.0.
2. **Collection** — walk the surviving pairs and gather the *unique*
   (term, theme, term, theme) combinations their matrices will need,
   deduplicated across the whole batch against a table that persists
   between batches.
3. **Bulk scoring** — ask the semantic measure once per unique
   combination (theme projections are shared inside the PVSM), apply
   the matcher's calibration, and fill the persistent side-score table.
4. **Assignment** — build each pair's similarity matrix from plain
   table lookups and solve for the best mapping: full
   :func:`~repro.core.mapping.top_k_mappings` when result objects are
   needed, or the :func:`~repro.core.mapping.top_assignment_score`
   fast path when only scores are.

Every stage emits an observability span tagged with the batch size, and
the scoring stage carries the measured dedup ratio.

**Parity guarantee.** The batch path reproduces the per-pair path's
scores bit-for-bit: matrix entries replicate
:func:`~repro.core.similarity.predicate_tuple_score` operation for
operation (identity short-circuits, approximation gating, calibration,
``min_relatedness`` clamps, operator evaluation), side scores come from
the *same* measure instance (so memoized measures keep their exact
semantics), and assignment scoring reuses the per-pair solver. The
hypothesis parity suite in ``tests/core/test_pipeline.py`` asserts
exact equality against the reference per-pair loop.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.api import BatchMatchResult
from repro.core.events import Event
from repro.core.mapping import (
    assignment_costs,
    single_mapping,
    top_assignment,
    top_assignment_prepared,
    top_assignment_score,
    top_k_mappings,
)
from repro.core.matcher import MatchResult
from repro.core.similarity import SimilarityMatrix
from repro.core.subscriptions import Predicate, Subscription
from repro.obs import TRACER
from repro.semantics.pvsm import theme_key
from repro.semantics.tokenize import normalize_term

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.matcher import ThematicMatcher

__all__ = ["BatchStats", "StagedBatchPipeline"]


@dataclass
class BatchStats:
    """What one batch did, stage by stage (attached to the result)."""

    subscriptions: int = 0
    events: int = 0
    pairs: int = 0
    candidates: int = 0
    pruned_arity: int = 0
    pruned_anchor: int = 0
    term_pairs: int = 0
    unique_term_pairs: int = 0

    @property
    def pruned(self) -> int:
        return self.pruned_arity + self.pruned_anchor

    @property
    def dedup_ratio(self) -> float:
        """Share of term-pair lookups served without a measure call."""
        if self.term_pairs == 0:
            return 0.0
        return 1.0 - (self.unique_term_pairs / self.term_pairs)


class _CompiledPredicate:
    """One predicate, pre-normalized for batch matrix construction.

    ``attr_id``/``value_id`` are pipeline-global interned term ids
    (assigned by :meth:`StagedBatchPipeline._compile_subscription`);
    ``value_id`` is ``-1`` for non-string values, so it can never equal
    an event-side id.
    """

    __slots__ = (
        "predicate", "attribute", "attr_norm", "approx_attribute", "operator",
        "value", "value_is_str", "value_norm", "approx_value", "exact_key",
        "attr_id", "value_id",
    )

    def __init__(self, predicate: Predicate):
        self.predicate = predicate
        self.attribute = predicate.attribute
        self.attr_norm = normalize_term(predicate.attribute)
        self.approx_attribute = predicate.approx_attribute
        self.operator = predicate.operator
        self.value = predicate.value
        self.value_is_str = isinstance(predicate.value, str)
        self.value_norm = (
            normalize_term(predicate.value) if self.value_is_str else None
        )
        self.approx_value = predicate.approx_value
        # A non-approximated equality predicate demands its literal
        # (attribute, value) tuple verbatim — the exact anchor.
        if (
            predicate.operator == "="
            and not predicate.approx_attribute
            and not predicate.approx_value
        ):
            self.exact_key = (
                self.attr_norm,
                self.value_norm if self.value_is_str else self.value,
            )
        else:
            self.exact_key = None
        self.attr_id = -1
        self.value_id = -1


class _CompiledSubscription:
    __slots__ = ("subscription", "predicates", "arity", "exact_anchors",
                 "theme", "tkey")

    def __init__(self, subscription: Subscription):
        self.subscription = subscription
        self.predicates = tuple(
            _CompiledPredicate(p) for p in subscription.predicates
        )
        self.arity = len(self.predicates)
        self.exact_anchors = tuple(
            p.exact_key for p in self.predicates if p.exact_key is not None
        )
        self.theme = subscription.theme
        self.tkey = theme_key(subscription.theme)


class _CompiledTuple:
    __slots__ = ("attribute", "attr_norm", "value", "value_is_str", "value_norm")

    def __init__(self, attribute: str, value):
        self.attribute = attribute
        self.attr_norm = normalize_term(attribute)
        self.value = value
        self.value_is_str = isinstance(value, str)
        self.value_norm = normalize_term(value) if self.value_is_str else None


class _CompiledEvent:
    __slots__ = ("event", "tuples", "size", "exact_keys", "theme", "tkey")

    def __init__(self, event: Event):
        self.event = event
        self.tuples = tuple(
            _CompiledTuple(av.attribute, av.value) for av in event.payload
        )
        self.size = len(self.tuples)
        self.exact_keys = frozenset(
            (t.attr_norm, t.value_norm if t.value_is_str else t.value)
            for t in self.tuples
        )
        self.theme = event.theme
        self.tkey = theme_key(event.theme)


class StagedBatchPipeline:
    """Batch matcher over a :class:`ThematicMatcher`-family engine.

    One pipeline belongs to one matcher (its measure, calibration,
    ``min_relatedness`` and ``k`` parametrize every stage). Compiled
    subscriptions and the side-score table persist across batches, so a
    long-lived engine pays normalization and semantic scoring once per
    distinct subscription / term pair — both tables are bounded by the
    registered vocabulary, not by event count.
    """

    def __init__(
        self,
        matcher: "ThematicMatcher",
        *,
        span_tags: dict | None = None,
    ):
        self.matcher = matcher
        # Attributes stamped onto every span this pipeline emits — the
        # sharded broker labels each shard's private pipeline here.
        self._span_tags = dict(span_tags) if span_tags else {}
        # id() keys avoid re-hashing subscriptions per event; the value
        # keeps the subscription alive, so ids cannot be recycled.
        self._compiled_subs: dict[int, _CompiledSubscription] = {}
        # (sub theme key, event theme key) -> {(term_s, term_e): side score}.
        self._tables: dict[
            tuple[tuple[str, ...], tuple[str, ...]], dict[tuple[str, str], float]
        ] = {}
        # Pipeline-global term interner for the vectorized block fill:
        # normalized term -> dense id, plus per-id norm and a
        # representative original spelling (what the measure is asked
        # with — any original works, measures normalize internally,
        # which is the same property the score tables already rely on).
        # Bounded by the vocabulary seen, like the score tables.
        self._interned: dict[str, int] = {}
        self._norm_by_id: list[str] = []
        self._original_by_id: list[str] = []

    # -- compilation -------------------------------------------------------

    def _intern(self, norm: str, original: str) -> int:
        gid = self._interned.get(norm)
        if gid is None:
            gid = len(self._norm_by_id)
            self._interned[norm] = gid
            self._norm_by_id.append(norm)
            self._original_by_id.append(original)
        return gid

    def _compile_subscription(self, subscription: Subscription) -> _CompiledSubscription:
        compiled = self._compiled_subs.get(id(subscription))
        if compiled is None or compiled.subscription is not subscription:
            compiled = _CompiledSubscription(subscription)
            for p in compiled.predicates:
                p.attr_id = self._intern(p.attr_norm, p.attribute)
                if p.value_is_str:
                    p.value_id = self._intern(p.value_norm, p.value)
            self._compiled_subs[id(subscription)] = compiled
        return compiled

    def _table_for(
        self, sub: _CompiledSubscription, event: _CompiledEvent
    ) -> dict[tuple[str, str], float]:
        key = (sub.tkey, event.tkey)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = {}
        return table

    # -- the staged batch --------------------------------------------------

    def run(
        self,
        subscriptions: Sequence[Subscription],
        events: Sequence[Event],
        *,
        scores_only: bool = False,
        prune_zero: bool | None = None,
        deliver_threshold: float | None = None,
    ) -> BatchMatchResult:
        """Match every subscription against every event, staged.

        ``scores_only`` skips result-object construction (the harness's
        grid mode). ``prune_zero`` additionally prunes pairs whose score
        the exact anchors prove to be 0.0 — on by default in scores-only
        mode; full-result callers that must mirror per-pair ``match``
        output exactly (which returns zero-score results, not ``None``)
        leave it off unless, like the engine, they only consume
        above-threshold results.

        ``deliver_threshold`` selects the delivery-gated mode used by the
        micro-batching broker path: every candidate gets its (bit-
        identical) top assignment score, but full ``MatchResult`` objects
        — the expensive top-k enumeration — are materialized only for
        candidates at or above the threshold. Results below it come back
        as ``None``; callers that only deliver threshold survivors (the
        engine's dispatch contract) observe exactly the same outcome as
        the full-result mode. Mutually exclusive with ``scores_only``.
        """
        if deliver_threshold is not None and scores_only:
            raise ValueError("deliver_threshold is incompatible with scores_only")
        if prune_zero is None:
            prune_zero = scores_only
        subscriptions = tuple(subscriptions)
        events = tuple(events)
        stats = BatchStats(
            subscriptions=len(subscriptions),
            events=len(events),
            pairs=len(subscriptions) * len(events),
        )
        with TRACER.span(
            "pipeline.match_batch",
            subscriptions=stats.subscriptions,
            events=stats.events,
            scores_only=scores_only,
            **self._span_tags,
        ):
            scores: list[list[float]] = [
                [0.0] * len(events) for _ in subscriptions
            ]
            results: list[list[MatchResult | None]] | None = (
                None if scores_only
                else [[None] * len(events) for _ in subscriptions]
            )

            candidates = self._stage_candidates(
                subscriptions, events, prune_zero, stats
            )
            if deliver_threshold is not None:
                vectorized = getattr(self.matcher.measure, "vectorized", False)
                if vectorized and len(events) > 1:
                    # With a batch-vectorized measure and a real batch,
                    # the gated mode runs the block fill: vocab-level
                    # collection, one kernel call for the whole batch's
                    # missing term pairs, then numpy gathers building
                    # every candidate matrix at once.
                    self._stage_block_deliverable(
                        candidates, scores, results, deliver_threshold, stats
                    )
                else:
                    if vectorized:
                        # Single-event dispatch: block arithmetic has
                        # nothing to stack, so bulk-score the event's
                        # missing pairs (still one kernel call) and let
                        # fill-on-touch read warm tables.
                        missing = self._stage_collect(candidates, stats)
                        self._stage_score(missing, stats)
                    self._stage_assign_deliverable(
                        candidates, scores, results, deliver_threshold, stats
                    )
            else:
                missing = self._stage_collect(candidates, stats)
                self._stage_score(missing, stats)
                self._stage_assign(candidates, scores, results, stats)

        return BatchMatchResult(
            subscriptions=subscriptions,
            events=events,
            scores=scores,
            results=results,
            stats=stats,
        )

    # -- stage 1: candidate generation ------------------------------------

    def _stage_candidates(
        self,
        subscriptions: tuple[Subscription, ...],
        events: tuple[Event, ...],
        prune_zero: bool,
        stats: BatchStats,
    ) -> list[tuple[int, int, _CompiledSubscription, _CompiledEvent]]:
        with TRACER.span(
            "pipeline.candidates", batch=stats.pairs, **self._span_tags
        ):
            compiled_subs = [self._compile_subscription(s) for s in subscriptions]
            compiled_events = [_CompiledEvent(e) for e in events]
            candidates = []
            for i, sub in enumerate(compiled_subs):
                for j, event in enumerate(compiled_events):
                    if event.size < sub.arity:
                        stats.pruned_arity += 1
                        continue
                    if prune_zero and any(
                        anchor not in event.exact_keys
                        for anchor in sub.exact_anchors
                    ):
                        stats.pruned_anchor += 1
                        continue
                    candidates.append((i, j, sub, event))
            stats.candidates = len(candidates)
        return candidates

    # -- stage 2: term-pair collection with dedup --------------------------

    def _stage_collect(
        self,
        candidates: list[tuple[int, int, _CompiledSubscription, _CompiledEvent]],
        stats: BatchStats,
    ) -> list[tuple[dict, tuple[str, str], str, frozenset, str, frozenset]]:
        """Unique semantic lookups the batch needs but the tables lack."""
        with TRACER.span("pipeline.collect", batch=stats.pairs,
                         candidates=len(candidates), **self._span_tags):
            missing: list[
                tuple[dict, tuple[str, str], str, frozenset, str, frozenset]
            ] = []
            queued: set[tuple[int, tuple[str, str]]] = set()
            for _i, _j, sub, event in candidates:
                table = self._table_for(sub, event)
                table_id = id(table)
                for p in sub.predicates:
                    for t in event.tuples:
                        if p.approx_attribute and p.attr_norm != t.attr_norm:
                            stats.term_pairs += 1
                            key = (p.attr_norm, t.attr_norm)
                            if key not in table and (table_id, key) not in queued:
                                queued.add((table_id, key))
                                missing.append((
                                    table, key,
                                    p.attribute, sub.theme,
                                    t.attribute, event.theme,
                                ))
                        if (
                            p.approx_value
                            and t.value_is_str
                            and p.value_norm != t.value_norm
                        ):
                            stats.term_pairs += 1
                            key = (p.value_norm, t.value_norm)
                            if key not in table and (table_id, key) not in queued:
                                queued.add((table_id, key))
                                missing.append((
                                    table, key,
                                    p.value, sub.theme,
                                    t.value, event.theme,
                                ))
            stats.unique_term_pairs = len(missing)
        return missing

    # -- stage 3: bulk relatedness scoring ---------------------------------

    def _stage_score(
        self,
        missing: list[tuple[dict, tuple[str, str], str, frozenset, str, frozenset]],
        stats: BatchStats,
    ) -> None:
        matcher = self.matcher
        measure = matcher.measure
        calibration = matcher.calibration
        # Bulk-call only measures that declare themselves vectorized:
        # wrappers that intercept score() but proxy other attributes
        # (test doubles, instrumentation) must keep seeing every call.
        score_batch = (
            getattr(measure, "score_batch", None)
            if getattr(measure, "vectorized", False)
            else None
        )
        with TRACER.span(
            "pipeline.score",
            batch=stats.pairs,
            total=stats.term_pairs,
            unique=stats.unique_term_pairs,
            dedup_ratio=round(stats.dedup_ratio, 4),
            **self._span_tags,
        ):
            if score_batch is not None and missing:
                # One bulk call for every unique lookup of the batch.
                # Measures without a vectorized kernel implement this as
                # a per-lookup loop over score(), so values (and their
                # computation order) are identical to the loop below.
                raws = score_batch(
                    [
                        (term_s, theme_s, term_e, theme_e)
                        for _, _, term_s, theme_s, term_e, theme_e in missing
                    ]
                )
                for (table, key, *_), raw in zip(missing, raws, strict=True):
                    table[key] = (
                        calibration.apply(raw)
                        if calibration is not None
                        else raw
                    )
                return
            for table, key, term_s, theme_s, term_e, theme_e in missing:
                raw = measure.score(term_s, theme_s, term_e, theme_e)
                table[key] = (
                    calibration.apply(raw) if calibration is not None else raw
                )

    # -- stage 4: k-best assignment over table-backed matrices -------------

    def _stage_assign(
        self,
        candidates: list[tuple[int, int, _CompiledSubscription, _CompiledEvent]],
        scores: list[list[float]],
        results: list[list[MatchResult | None]] | None,
        stats: BatchStats,
    ) -> None:
        matcher = self.matcher
        min_relatedness = matcher.min_relatedness
        with TRACER.span(
            "pipeline.assign",
            batch=stats.pairs,
            candidates=len(candidates),
            dedup_ratio=round(stats.dedup_ratio, 4),
            **self._span_tags,
        ):
            for i, j, sub, event in candidates:
                table = self._table_for(sub, event)
                matrix = self._pair_matrix_fill(
                    sub, event, table, min_relatedness, stats
                )
                if results is None:
                    scores[i][j] = top_assignment_score(matrix)
                    continue
                wrapped = SimilarityMatrix(
                    subscription=sub.subscription,
                    event=event.event,
                    scores=matrix,
                )
                mappings = top_k_mappings(wrapped, matcher.k)
                if not mappings:  # pragma: no cover - arity stage prevents it
                    continue
                result = MatchResult(
                    subscription=sub.subscription,
                    event=event.event,
                    matrix=wrapped,
                    mapping=mappings[0],
                    alternatives=tuple(mappings[1:]),
                )
                results[i][j] = result
                scores[i][j] = result.score

    # -- delivery-gated assignment (the micro-batching broker path) --------

    def _stage_assign_deliverable(
        self,
        candidates: list[tuple[int, int, _CompiledSubscription, _CompiledEvent]],
        scores: list[list[float]],
        results: list[list[MatchResult | None]],
        threshold: float,
        stats: BatchStats,
    ) -> None:
        """Collect, score and assign in one pass, materializing survivors.

        Each candidate's matrix is built directly against the persistent
        side-score table, computing (and memoizing) missing term-pair
        scores on first touch — the dedup guarantee of the collect stage
        holds implicitly, because a table entry is only ever computed
        once. Every candidate gets the cheap top assignment score (bit-
        identical to the full path's top-1 score); the expensive mapping
        materialization runs only for candidates whose score clears
        ``threshold``. In top-1 mode (``k == 1``) the gate's own solve
        is reused — :func:`~repro.core.mapping.single_mapping` rebuilds
        the full path's mapping object from the gate's assignment with
        the same arithmetic, so survivors cost one solver call instead
        of two. For ``k > 1`` survivors re-enter
        :func:`~repro.core.mapping.top_k_mappings` unchanged: same
        matrix, same solver, same arithmetic as full mode either way.
        """
        matcher = self.matcher
        min_relatedness = matcher.min_relatedness
        top_1 = matcher.k == 1
        with TRACER.span(
            "pipeline.assign_deliverable",
            batch=stats.pairs,
            candidates=len(candidates),
            threshold=threshold,
            **self._span_tags,
        ):
            for i, j, sub, event in candidates:
                table = self._table_for(sub, event)
                matrix = self._pair_matrix_fill(
                    sub, event, table, min_relatedness, stats
                )
                self._gate_candidate(
                    i, j, sub, event, matrix, scores, results, threshold, top_1
                )

    def _gate_candidate(
        self,
        i: int,
        j: int,
        sub: _CompiledSubscription,
        event: _CompiledEvent,
        matrix: np.ndarray,
        scores: list[list[float]],
        results: list[list[MatchResult | None]],
        threshold: float,
        top_1: bool,
        cost: np.ndarray | None = None,
    ) -> None:
        """Threshold-gate one candidate matrix, materializing survivors.

        ``cost`` optionally carries the candidate's precomputed ``-log``
        assignment cost matrix (the block path derives one for a whole
        sub-group in a single elementwise pass); the solved assignment
        and score are identical either way.
        """
        if top_1:
            if cost is not None:
                solved = top_assignment_prepared(matrix, cost)
            else:
                solved = top_assignment(matrix)
            if solved is None:  # pragma: no cover - arity stage prevents it
                return
            assignment, top = solved
            if top < threshold:
                scores[i][j] = top
                return
            wrapped = SimilarityMatrix(
                subscription=sub.subscription,
                event=event.event,
                scores=matrix,
            )
            mapping = single_mapping(wrapped, assignment)
            result = MatchResult(
                subscription=sub.subscription,
                event=event.event,
                matrix=wrapped,
                mapping=mapping,
            )
            results[i][j] = result
            scores[i][j] = result.score
            return
        top = top_assignment_score(matrix)
        if top < threshold:
            scores[i][j] = top
            return
        wrapped = SimilarityMatrix(
            subscription=sub.subscription,
            event=event.event,
            scores=matrix,
        )
        mappings = top_k_mappings(wrapped, self.matcher.k)
        if not mappings:  # pragma: no cover - arity stage prevents it
            scores[i][j] = top
            return
        result = MatchResult(
            subscription=sub.subscription,
            event=event.event,
            matrix=wrapped,
            mapping=mappings[0],
            alternatives=tuple(mappings[1:]),
        )
        results[i][j] = result
        scores[i][j] = result.score

    # -- vectorized block fill (the kernel-backed deliverable path) ---------

    def _stage_block_deliverable(
        self,
        candidates: list[tuple[int, int, _CompiledSubscription, _CompiledEvent]],
        scores: list[list[float]],
        results: list[list[MatchResult | None]],
        threshold: float,
        stats: BatchStats,
    ) -> None:
        """Deliverable-gated assignment with vectorized matrix fill.

        Semantically identical to :meth:`_stage_assign_deliverable` —
        same table entries, same clamps, same gate, same survivors —
        but the per-cell Python walk is replaced by numpy block
        arithmetic over each (subscription, event-theme) group of the
        batch:

        1. **Vocabulary collection** — each group's events contribute
           their unique attribute/value term norms to per-group
           vocabularies; the (predicate term × vocabulary term)
           rectangle is exactly the set of table lookups the per-cell
           walk would make, so missing entries are found at vocabulary
           granularity instead of cell granularity.
        2. **Bulk scoring** — one :meth:`_stage_score` call (one kernel
           batch) for every missing pair of the whole batch, same as
           full mode.
        3. **Block gather** — per group (sub-grouped by event size so
           events stack), score rectangles are gathered into
           ``(arity, events, size)`` blocks with the short-circuit /
           approximation / ``min_relatedness`` rules applied as masks.
           Cells ruled by extension operators or non-string values
           (never semantic lookups) are patched row-wise in Python via
           the same expressions the scalar walk uses. Each candidate's
           matrix is a contiguous slice of its block, float-identical
           to the fill-on-touch matrix because every cell is the same
           product of the same table floats.
        """
        matcher = self.matcher
        min_rel = matcher.min_relatedness
        top_1 = matcher.k == 1
        norms = self._norm_by_id
        originals = self._original_by_id
        # Group candidates by (subscription, event theme key): one score
        # rectangle per group, one table per group (tables already merge
        # raw themes sharing a canonical key).
        groups: dict[
            tuple[int, tuple[str, ...]],
            tuple[_CompiledSubscription, list[tuple[int, _CompiledEvent]]],
        ] = {}
        for i, j, sub, event in candidates:
            key = (i, event.tkey)
            group = groups.get(key)
            if group is None:
                groups[key] = (sub, [(j, event)])
            else:
                group[1].append((j, event))

        # Per-event interned index arrays, built once per batch and
        # shared by every group the event appears in: global attr ids,
        # global value ids (-2 for non-strings, so they can never equal
        # a predicate id), string mask, and the unique id sets feeding
        # group vocabularies.
        ev_cache: dict[
            int, tuple[np.ndarray, np.ndarray, np.ndarray, set[int], set[int]]
        ] = {}

        def _event_arrays(event: _CompiledEvent):
            data = ev_cache.get(id(event))
            if data is None:
                size = event.size
                a = np.empty(size, dtype=np.int64)
                v = np.full(size, -2, dtype=np.int64)
                s = np.zeros(size, dtype=bool)
                for t_idx, t in enumerate(event.tuples):
                    a[t_idx] = self._intern(t.attr_norm, t.attribute)
                    if t.value_is_str:
                        s[t_idx] = True
                        v[t_idx] = self._intern(t.value_norm, t.value)
                data = (a, v, s, set(a.tolist()), set(v[s].tolist()))
                ev_cache[id(event)] = data
            return data

        missing: list[
            tuple[dict, tuple[str, str], str, frozenset, str, frozenset]
        ] = []
        queued: set[tuple[int, tuple[str, str]]] = set()
        prepared: list[tuple] = []
        with TRACER.span("pipeline.collect", batch=stats.pairs,
                         candidates=len(candidates), **self._span_tags):
            for (i, _tkey), (sub, entries) in groups.items():
                first_event = entries[0][1]
                table = self._table_for(sub, first_event)
                table_id = id(table)
                theme_e = first_event.theme
                preds = sub.predicates
                arity = sub.arity

                # Group vocabularies: the unique interned ids this
                # group's events carry on each side.
                group_attr: set[int] = set()
                group_val: set[int] = set()
                for _j, event in entries:
                    _a, _v, _s, unique_a, unique_v = _event_arrays(event)
                    group_attr |= unique_a
                    group_val |= unique_v

                # Score rectangles over the global id space: row r holds
                # predicate r's table scores against every vocabulary
                # term (masked positions stay 0 and are never read).
                width = len(norms)
                s_attr = np.zeros((arity, max(1, width)))
                s_val = np.zeros((arity, max(1, width)))
                deferred: list[tuple[np.ndarray, int, int, tuple[str, str]]] = []
                for r, p in enumerate(preds):
                    if p.approx_attribute:
                        row = s_attr[r]
                        p_norm = p.attr_norm
                        p_id = p.attr_id
                        # Sorted: the iteration order decides the order
                        # of the `missing` work list (and so the batch
                        # scoring order downstream); a raw set here
                        # would make it interpreter-run-dependent.
                        for gid in sorted(group_attr):
                            if gid == p_id:
                                continue
                            pair = (p_norm, norms[gid])
                            got = table.get(pair)
                            if got is None:
                                if (table_id, pair) not in queued:
                                    queued.add((table_id, pair))
                                    missing.append((
                                        table, pair,
                                        p.attribute, sub.theme,
                                        originals[gid], theme_e,
                                    ))
                                deferred.append((s_attr, r, gid, pair))
                            else:
                                row[gid] = got
                    if p.approx_value:
                        # Validation guarantees approximated values are
                        # string equality predicates.
                        row = s_val[r]
                        p_norm = p.value_norm
                        p_id = p.value_id
                        # Sorted for the same reason as the attribute
                        # side: `missing` order must be run-stable.
                        for gid in sorted(group_val):
                            if gid == p_id:
                                continue
                            pair = (p_norm, norms[gid])
                            got = table.get(pair)
                            if got is None:
                                if (table_id, pair) not in queued:
                                    queued.add((table_id, pair))
                                    missing.append((
                                        table, pair,
                                        p.value, sub.theme,
                                        originals[gid], theme_e,
                                    ))
                                deferred.append((s_val, r, gid, pair))
                            else:
                                row[gid] = got

                # Predicate-side index/mask vectors (interned ids are
                # assigned at compile time).
                p_aid = np.fromiter(
                    (p.attr_id for p in preds), dtype=np.int64, count=arity
                )
                p_vid = np.fromiter(
                    (p.value_id for p in preds), dtype=np.int64, count=arity
                )
                approx_a = np.fromiter(
                    (p.approx_attribute for p in preds), dtype=bool, count=arity
                )
                approx_v = np.fromiter(
                    (p.approx_value for p in preds), dtype=bool, count=arity
                )
                # Rows the block arithmetic fully covers: string
                # equality predicates. Extension operators and
                # non-string values take the Python patch path.
                vec_row = np.fromiter(
                    (p.operator == "=" and p.value_is_str for p in preds),
                    dtype=bool, count=arity,
                )

                # Sub-group by event size so event index arrays stack.
                by_size: dict[int, list[tuple[int, _CompiledEvent]]] = {}
                for j, event in entries:
                    by_size.setdefault(event.size, []).append((j, event))
                subgroups = []
                for _size, evs in by_size.items():
                    ev_attr = np.stack(
                        [ev_cache[id(e)][0] for _, e in evs]
                    )
                    ev_val = np.stack([ev_cache[id(e)][1] for _, e in evs])
                    ev_str = np.stack([ev_cache[id(e)][2] for _, e in evs])
                    eq_a = p_aid[:, None, None] == ev_attr[None, :, :]
                    eq_v = p_vid[:, None, None] == ev_val[None, :, :]
                    # Lookup-walk accounting, identical to the collect
                    # stage's cell counts (approximated sides with
                    # differing norms).
                    stats.term_pairs += int(
                        np.count_nonzero(approx_a[:, None, None] & ~eq_a)
                    )
                    stats.term_pairs += int(np.count_nonzero(
                        approx_v[:, None, None] & ev_str[None, :, :] & ~eq_v
                    ))
                    subgroups.append((evs, ev_val, ev_str, eq_a, eq_v, ev_attr))
                prepared.append((
                    i, sub, s_attr, s_val, deferred, table,
                    approx_a, approx_v, vec_row, subgroups,
                ))
            stats.unique_term_pairs = len(missing)

        self._stage_score(missing, stats)

        with TRACER.span(
            "pipeline.assign_deliverable",
            batch=stats.pairs,
            candidates=len(candidates),
            threshold=threshold,
            **self._span_tags,
        ):
            for (
                i, sub, s_attr, s_val, deferred, table,
                approx_a, approx_v, vec_row, subgroups,
            ) in prepared:
                for target, r, gid, pair in deferred:
                    target[r, gid] = table[pair]
                preds = sub.predicates
                for evs, ev_val, ev_str, eq_a, eq_v, ev_attr in subgroups:
                    gathered_a = s_attr[:, ev_attr]
                    attr_sim = np.where(
                        eq_a, 1.0,
                        np.where(approx_a[:, None, None], gathered_a, 0.0),
                    )
                    attr_ok = (attr_sim >= min_rel) & (attr_sim != 0.0)
                    gathered_v = s_val[:, np.where(ev_val >= 0, ev_val, 0)]
                    value_sim = np.where(
                        eq_v, 1.0,
                        np.where(
                            (vec_row & approx_v)[:, None, None]
                            & ev_str[None, :, :],
                            gathered_v, 0.0,
                        ),
                    )
                    value_ok = value_sim >= min_rel
                    block = np.where(
                        attr_ok & value_ok & vec_row[:, None, None],
                        attr_sim * value_sim, 0.0,
                    )
                    for r in np.nonzero(~vec_row)[0]:
                        p = preds[r]
                        sim_r = attr_sim[r]
                        ok_r = attr_ok[r]
                        for e_idx, (_j, event) in enumerate(evs):
                            brow = block[r, e_idx]
                            for t_idx, t in enumerate(event.tuples):
                                if not ok_r[e_idx, t_idx]:
                                    continue
                                a = sim_r[e_idx, t_idx]
                                if p.operator != "=":
                                    if p.predicate.evaluate_value(t.value):
                                        brow[t_idx] = a
                                    continue
                                v = 1.0 if p.value == t.value else 0.0
                                if v >= min_rel:
                                    brow[t_idx] = a * v
                    if top_1:
                        # One elementwise pass builds every candidate's
                        # -log cost matrix; the gate below just solves.
                        cost_block = assignment_costs(block)
                        for e_idx, (j, event) in enumerate(evs):
                            matrix = np.ascontiguousarray(
                                block[:, e_idx, :]
                            )
                            self._gate_candidate(
                                i, j, sub, event, matrix,
                                scores, results, threshold, top_1,
                                cost=cost_block[:, e_idx, :],
                            )
                    else:
                        for e_idx, (j, event) in enumerate(evs):
                            matrix = np.ascontiguousarray(
                                block[:, e_idx, :]
                            )
                            self._gate_candidate(
                                i, j, sub, event, matrix,
                                scores, results, threshold, top_1,
                            )

    def _pair_matrix_fill(
        self,
        sub: _CompiledSubscription,
        event: _CompiledEvent,
        table: dict[tuple[str, str], float],
        min_relatedness: float,
        stats: BatchStats,
    ) -> np.ndarray:
        """The pair's similarity matrix over the side-score table.

        Mirrors :func:`~repro.core.similarity.predicate_tuple_score`
        exactly — same short-circuits, same clamping order, same float
        operations — with every semantic lookup served by the table;
        an entry the table lacks is computed (and memoized) on first
        touch. After the collect + bulk-scoring stages the table is
        complete for every candidate, so the full-result and
        scores-only modes perform this walk without ever filling.

        Filling performs the same float operations in the same order as
        the collect + bulk-scoring stages would — each table entry
        comes from one measure call and one calibration application —
        only the *scheduling* differs (on first touch instead of
        batched), which cannot change any value: measure calls are
        independent and deterministic. Stats count each computed entry
        as one collected and one unique term pair (lookups served by
        the table are free in this mode and are not walked, so
        ``dedup_ratio`` is not meaningful in the delivery-gated mode).
        """
        matcher = self.matcher
        measure = matcher.measure
        calibration = matcher.calibration
        matrix = np.zeros((sub.arity, event.size))
        for i, p in enumerate(sub.predicates):
            row = matrix[i]
            for j, t in enumerate(event.tuples):
                # Attribute side (two strings, always).
                if p.attr_norm == t.attr_norm:
                    attr_sim = 1.0
                elif not p.approx_attribute:
                    continue  # attr_sim == 0.0 -> entry stays 0.0
                else:
                    key = (p.attr_norm, t.attr_norm)
                    attr_sim = table.get(key)
                    if attr_sim is None:
                        raw = measure.score(
                            p.attribute, sub.theme, t.attribute, event.theme
                        )
                        attr_sim = (
                            calibration.apply(raw)
                            if calibration is not None else raw
                        )
                        table[key] = attr_sim
                        stats.term_pairs += 1
                        stats.unique_term_pairs += 1
                if attr_sim < min_relatedness or attr_sim == 0.0:
                    continue
                if p.operator != "=":
                    if p.predicate.evaluate_value(t.value):
                        row[j] = attr_sim
                    continue
                # Value side.
                if p.value_is_str and t.value_is_str:
                    if p.value_norm == t.value_norm:
                        value_sim = 1.0
                    elif not p.approx_value:
                        continue
                    else:
                        key = (p.value_norm, t.value_norm)
                        value_sim = table.get(key)
                        if value_sim is None:
                            raw = measure.score(
                                p.value, sub.theme, t.value, event.theme
                            )
                            value_sim = (
                                calibration.apply(raw)
                                if calibration is not None else raw
                            )
                            table[key] = value_sim
                            stats.term_pairs += 1
                            stats.unique_term_pairs += 1
                else:
                    value_sim = 1.0 if p.value == t.value else 0.0
                if value_sim < min_relatedness:
                    continue
                row[j] = attr_sim * value_sim
        return matrix
