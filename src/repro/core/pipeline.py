"""Staged batch execution of the matching path (the ``match_batch`` engine).

The naive matching loop scores every (subscription, event) pair from
scratch: each pair rebuilds its similarity matrix, each matrix entry
re-normalizes its terms, re-canonicalizes its themes and re-asks the
semantic measure — so a term pair appearing in 50 pairs of a batch is
keyed and looked up 50 times. This module replaces that loop with the
explicit staged pipeline the paper's Section 7 efficiency discussion
points at (and SIENA-style brokers implement for the exact fragment):

1. **Candidates** — the one candidate filter, decided per (subscription,
   event) pair: *arity* (an event with fewer tuples than the
   subscription has predicates carries no mapping) always applies;
   *exact anchors* (a non-approximated ``=`` predicate requires its
   literal (attribute, value) tuple) apply when the caller only needs
   scores or threshold survivors, because a missing anchor proves the
   pair's score is exactly 0.0. A pipeline built with a
   ``neighborhoods`` provider (the engine's ``"semantic"`` / ``"ann"``
   anchor modes) always applies the exact anchors and adds *semantic
   anchors*: a predicate approximated on both sides with a string value
   needs at least one event token inside its value's full-space
   neighborhood. That check is **lossy** — thematic projection can raise
   relatedness above its full-space value — which is why it is opt-in.
2. **Rows** — walk the (predicate x tuple) cells once per *shared row*:
   one row per (distinct predicate, side-score table, event) of a chunk.
   Equal predicates are one pooled object, so every candidate that
   holds a predicate reuses its row instead of walking the cells again.
   Cells come from the side-score tables that persist between batches.
   A lookup the table lacks is not computed on touch: it is queued,
   deduplicated across the whole batch, and the cell is remembered as
   pending.
3. **Bulk scoring** — ask the semantic measure once per queued lookup
   (one ``score_batch`` call when the measure declares itself
   ``vectorized``; theme projections are shared inside the PVSM), apply
   the matcher's calibration, fill the tables, and recompute the pending
   cells from the now-complete tables.
4. **Bound** — delivery-gated only: a candidate's score is at most its
   rows' maxima chained the way the solver chains the chosen cells
   (:func:`~repro.core.mapping.row_max_bound`). A candidate whose bound
   is below the threshold (less a margin for ``pow``) is rejected
   without a matrix or a solve.
5. **Assignment** — stack each remaining candidate's rows into its
   matrix and solve it for the best mapping: the
   :func:`~repro.core.mapping.top_assignment_score` fast path when only
   scores are needed, full :func:`~repro.core.mapping.top_k_mappings`
   results for every candidate, or — delivery-gated — results only for
   candidates whose top score clears the threshold.

Every mode and every measure runs these stages in this order (the
bound only where a threshold is given); each stage emits an
observability span tagged with the batch size (the bound runs inside
``pipeline.assign``), and the scoring stage carries the measured dedup
ratio. A batch with more candidates than ``_CHUNK`` (an offline grid,
never a broker micro-batch) runs stages 2-5 once per chunk of
candidates, which bounds the rows and pending cells in flight; the
tables persist across chunks, so the dedup still spans the whole batch.

**Parity guarantee.** The batch path reproduces the per-pair path's
scores bit-for-bit: matrix entries replicate
:func:`~repro.core.similarity.predicate_tuple_score` operation for
operation (identity short-circuits, approximation gating, calibration,
``min_relatedness`` clamps, operator evaluation), side scores come from
the *same* measure instance (so memoized measures keep their exact
semantics; deferring a lookup changes when the measure is asked, never
what it answers), and assignment scoring reuses the per-pair solver.
A shared row holds exactly the cells each of its candidates would have
computed. The hypothesis parity suite in ``tests/core/test_pipeline.py``
asserts exact equality against the reference per-pair loop; in the
delivery-gated mode it is exact for every pair at or above the
threshold, and every pair below it reads 0.0. Candidate decisions
are per pair too, so a batch keeps exactly the pairs its events keep one
at a time — semantic anchors included.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.api import BatchMatchResult
from repro.core.events import Event
from repro.core.mapping import (
    row_max_bound,
    single_mapping,
    top_assignment,
    top_assignment_score,
    top_k_mappings,
)
from repro.core.matcher import MatchResult
from repro.core.similarity import SimilarityMatrix
from repro.core.subscriptions import Predicate, Subscription
from repro.obs import TRACER
from repro.semantics.pvsm import theme_key
from repro.semantics.tokenize import normalize_term, tokenize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.matcher import ThematicMatcher
    from repro.semantics.index import ApproxNeighborIndex

__all__ = ["BatchStats", "StagedBatchPipeline"]


@dataclass
class BatchStats:
    """What one batch did, stage by stage (attached to the result).

    ``term_pairs`` counts the approximated-side table lookups the fill
    walked and ``unique_term_pairs`` the ones the tables lacked (each
    scored once); ``rows`` counts the shared rows the fill computed —
    the same meaning in every mode. ``bound_rejected`` counts the
    candidates the delivery-gated mode settled by their row-max bound,
    without a solve; it is 0 in the other modes. Those candidates were
    scored, so they are not part of ``pruned``.
    """

    subscriptions: int = 0
    events: int = 0
    pairs: int = 0
    candidates: int = 0
    pruned_arity: int = 0
    pruned_anchor: int = 0
    pruned_semantic: int = 0
    term_pairs: int = 0
    unique_term_pairs: int = 0
    rows: int = 0
    bound_rejected: int = 0

    @property
    def pruned(self) -> int:
        return self.pruned_arity + self.pruned_anchor + self.pruned_semantic

    @property
    def dedup_ratio(self) -> float:
        """Share of term-pair lookups served without a measure call."""
        if self.term_pairs == 0:
            return 0.0
        return 1.0 - (self.unique_term_pairs / self.term_pairs)


class _CompiledPredicate:
    """One predicate, pre-normalized for batch matrix construction.

    Pooled per pipeline under :attr:`key`: equal predicates share one
    object, and the fill shares its rows by that identity.
    """

    __slots__ = (
        "key", "predicate", "attribute", "attr_norm", "approx_attribute",
        "operator", "value", "value_is_str", "value_norm", "approx_value",
        "exact_key",
    )

    def __init__(self, predicate: Predicate, key: tuple):
        self.key = key
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


class _CompiledSubscription:
    __slots__ = ("subscription", "predicates", "arity", "exact_anchors",
                 "semantic_anchors", "theme", "tkey")

    def __init__(
        self,
        subscription: Subscription,
        pool: dict[tuple, _CompiledPredicate],
        neighborhoods: "ApproxNeighborIndex | None" = None,
    ):
        self.subscription = subscription
        predicates = []
        for predicate in subscription.predicates:
            # 1, 1.0 and True are equal and hash alike; the type keeps
            # them apart, since the cells read the value itself.
            key = (predicate, type(predicate.value))
            compiled = pool.get(key)
            if compiled is None:
                compiled = pool[key] = _CompiledPredicate(predicate, key)
            predicates.append(compiled)
        self.predicates = tuple(predicates)
        self.arity = len(self.predicates)
        self.exact_anchors = tuple(
            p.exact_key for p in self.predicates if p.exact_key is not None
        )
        self.semantic_anchors = () if neighborhoods is None else tuple(
            neighborhoods.neighbors(p.value)
            for p in self.predicates
            if p.value_is_str and p.approx_attribute and p.approx_value
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
    __slots__ = ("event", "tuples", "size", "exact_keys", "tokens", "theme",
                 "tkey")

    def __init__(self, event: Event, with_tokens: bool = False):
        self.event = event
        self.tuples = tuple(
            _CompiledTuple(av.attribute, av.value) for av in event.payload
        )
        self.size = len(self.tuples)
        self.exact_keys = frozenset(
            (t.attr_norm, t.value_norm if t.value_is_str else t.value)
            for t in self.tuples
        )
        tokens: set[str] = set()
        if with_tokens:
            for t in self.tuples:
                if t.value_is_str:
                    tokens.update(tokenize(t.value))
                tokens.update(tokenize(t.attribute))
        self.tokens = frozenset(tokens)
        self.theme = event.theme
        self.tkey = theme_key(event.theme)


def _cell_score(
    p: _CompiledPredicate,
    t: _CompiledTuple,
    table: dict[tuple[str, str], float],
    min_relatedness: float,
) -> float:
    """One matrix cell over a complete side-score table.

    The fill walk's cell arithmetic for a cell it left pending: same
    short-circuits, same clamping order, same float operations as
    :func:`~repro.core.similarity.predicate_tuple_score`, every semantic
    lookup served by the (now complete) table.
    """
    if p.attr_norm == t.attr_norm:
        attr_sim = 1.0
    elif not p.approx_attribute:
        return 0.0
    else:
        attr_sim = table[(p.attr_norm, t.attr_norm)]
    if attr_sim < min_relatedness or attr_sim == 0.0:
        return 0.0
    if p.operator != "=":
        return attr_sim if p.predicate.evaluate_value(t.value) else 0.0
    if p.value_is_str and t.value_is_str:
        if p.value_norm == t.value_norm:
            value_sim = 1.0
        elif not p.approx_value:
            return 0.0
        else:
            value_sim = table[(p.value_norm, t.value_norm)]
    else:
        value_sim = 1.0 if p.value == t.value else 0.0
    if value_sim < min_relatedness:
        return 0.0
    return attr_sim * value_sim


#: One (subscription index, event index, compiled pair) the prefilter kept.
_Candidate = tuple[int, int, _CompiledSubscription, _CompiledEvent]
#: A queued semantic lookup: the table and key it fills, then the
#: measure's arguments (term, theme, term, theme).
_Lookup = tuple[dict, tuple[str, str], str, frozenset, str, frozenset]
#: A cell waiting for a queued lookup: shared row, column, and what
#: :func:`_cell_score` needs to compute it.
_PendingCell = tuple[list[float], int, _CompiledPredicate, _CompiledTuple, dict]

#: How far below the threshold a row-max bound must fall before its
#: candidate is rejected unsolved: covers ``pow``'s last-ulp rounding, so
#: a pair scoring exactly at the threshold is never lost.
_BOUND_MARGIN = 1e-12

#: Candidates filled, scored and assigned together. Far above any
#: micro-batch the brokers dispatch (those run as one chunk, one bulk
#: scoring call); it bounds what an offline grid of 10^5+ pairs keeps in
#: flight, and lets such a grid warm its tables on the first chunk
#: instead of leaving every cell of a cold batch pending.
_CHUNK = 1024


class StagedBatchPipeline:
    """Batch matcher over a :class:`ThematicMatcher`-family engine.

    One pipeline belongs to one matcher (its measure, calibration,
    ``min_relatedness`` and ``k`` parametrize every stage). Compiled
    subscriptions, the pool of compiled predicates they share and the
    side-score table persist across batches, so a long-lived engine pays
    normalization and semantic scoring once per distinct subscription /
    term pair. The score tables are bounded by the vocabulary seen;
    compiled subscriptions and their predicates are dropped once they
    stop arriving (see :meth:`_stage_candidates`).

    ``neighborhoods`` (an :class:`~repro.semantics.index.ApproxNeighborIndex`)
    turns on the semantic anchors of the candidate stage; ``None`` keeps
    the candidate stage loss-free.
    """

    def __init__(
        self,
        matcher: "ThematicMatcher",
        *,
        span_tags: dict | None = None,
        neighborhoods: "ApproxNeighborIndex | None" = None,
    ):
        self.matcher = matcher
        self.neighborhoods = neighborhoods
        # Attributes stamped onto every span this pipeline emits — the
        # sharded broker labels each shard's private pipeline here.
        self._span_tags = dict(span_tags) if span_tags else {}
        # id() keys avoid re-hashing subscriptions per event; an entry
        # keeps its subscription alive, so its id cannot be recycled
        # while the entry exists.
        self._compiled_subs: dict[int, _CompiledSubscription] = {}
        # (predicate, value type) -> its one compiled form, shared by
        # every compiled subscription that holds an equal predicate.
        self._predicates: dict[tuple, _CompiledPredicate] = {}
        # (sub theme key, event theme key) -> {(term_s, term_e): side score}.
        self._tables: dict[
            tuple[tuple[str, ...], tuple[str, ...]], dict[tuple[str, str], float]
        ] = {}

    # -- compilation -------------------------------------------------------

    def _compile_subscription(self, subscription: Subscription) -> _CompiledSubscription:
        compiled = self._compiled_subs.get(id(subscription))
        if compiled is None or compiled.subscription is not subscription:
            compiled = _CompiledSubscription(
                subscription, self._predicates, self.neighborhoods
            )
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
        above-threshold results. A pipeline with ``neighborhoods``
        applies the exact and semantic anchors regardless.

        ``deliver_threshold`` selects the delivery-gated mode used by the
        engine's dispatch: only pairs at or above the threshold get their
        (bit-identical) score and their full ``MatchResult``. A pair below
        it reads score 0.0 and result ``None``, as a pruned pair does —
        most are settled by their row-max bound without a solve. Callers
        that only deliver threshold survivors (the engine's dispatch
        contract) observe exactly the same outcome as the full-result
        mode. Mutually exclusive with ``scores_only``.
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
            for start in range(0, len(candidates), _CHUNK):
                chunk = candidates[start:start + _CHUNK]
                rows, layouts, missing, pending = self._stage_fill(chunk, stats)
                self._stage_score(missing, pending, stats)
                self._stage_assign(
                    chunk, rows, layouts, scores, results, deliver_threshold,
                    stats,
                )

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
    ) -> list[_Candidate]:
        with TRACER.span(
            "pipeline.candidates", batch=stats.pairs, **self._span_tags
        ):
            compiled_subs = [self._compile_subscription(s) for s in subscriptions]
            if len(self._compiled_subs) > 2 * len(compiled_subs):
                # More than half the table is subscriptions this batch
                # did not bring (unsubscribed since): keep the current
                # ones only, so a retired subscription is not pinned for
                # the pipeline's lifetime. A rebuild drops more entries
                # than it keeps, so the compilations that inserted them
                # have already paid for it. The predicate pool goes with
                # it: only predicates the kept subscriptions hold.
                self._compiled_subs = {
                    id(c.subscription): c for c in compiled_subs
                }
                self._predicates = {
                    p.key: p for c in compiled_subs for p in c.predicates
                }
            anchored = self.neighborhoods is not None
            prune_zero = prune_zero or anchored
            compiled_events = [_CompiledEvent(e, anchored) for e in events]
            candidates = []
            for i, sub in enumerate(compiled_subs):
                for j, event in enumerate(compiled_events):
                    if event.size < sub.arity:
                        stats.pruned_arity += 1
                        continue
                    if (
                        prune_zero
                        and sub.exact_anchors
                        and not event.exact_keys.issuperset(sub.exact_anchors)
                    ):
                        stats.pruned_anchor += 1
                        continue
                    if sub.semantic_anchors and any(
                        neighborhood.isdisjoint(event.tokens)
                        for neighborhood in sub.semantic_anchors
                    ):
                        stats.pruned_semantic += 1
                        continue
                    candidates.append((i, j, sub, event))
            stats.candidates = len(candidates)
        return candidates

    # -- stage 2: shared rows over the side-score tables -------------------

    def _stage_fill(
        self, candidates: list[_Candidate], stats: BatchStats
    ) -> tuple[
        list[list[float]], list[tuple[int, ...]], list[_Lookup], list[_PendingCell]
    ]:
        """Every candidate's similarity rows, each shared row walked once.

        A row is keyed by (pooled predicate, side-score table, event):
        its cells depend on nothing else, so every candidate holding an
        equal predicate against the same event and theme pair reuses it.
        The cell walk mirrors
        :func:`~repro.core.similarity.predicate_tuple_score` exactly —
        same short-circuits, same clamping order, same float operations —
        with every semantic lookup served by the pair's side-score table.
        A lookup the table lacks is queued once per (table, term pair)
        for :meth:`_stage_score` and its cell left pending; when the
        attribute side is the one missing, the walk still visits the
        value side so its lookup joins the same bulk call instead of
        waiting for a second round.

        Returns the shared rows, each candidate's row indices (aligned
        with ``candidates``, in predicate order), the queued lookups in
        first-touch order, and the pending cells. The rows live only as
        long as the chunk.
        """
        min_relatedness = self.matcher.min_relatedness
        rows: list[list[float]] = []
        row_index: dict[tuple[_CompiledPredicate, int, int], int] = {}
        layouts: list[tuple[int, ...]] = []
        # Insertion-ordered and keyed per table, so a lookup shared by
        # many cells of the batch is queued (and scored) once.
        missing: dict[tuple[int, tuple[str, str]], _Lookup] = {}
        pending: list[_PendingCell] = []
        lookups = 0
        with TRACER.span("pipeline.fill", batch=stats.pairs,
                         candidates=len(candidates), **self._span_tags) as span:
            for _i, event_index, sub, event in candidates:
                table = self._table_for(sub, event)
                table_id = id(table)
                layout = []
                for p in sub.predicates:
                    row_key = (p, table_id, event_index)
                    shared = row_index.get(row_key)
                    if shared is not None:
                        layout.append(shared)
                        continue
                    row_index[row_key] = len(rows)
                    layout.append(len(rows))
                    row = [0.0] * event.size
                    rows.append(row)
                    for j, t in enumerate(event.tuples):
                        # Attribute side (two strings, always).
                        if p.attr_norm == t.attr_norm:
                            attr_sim = 1.0
                        elif not p.approx_attribute:
                            continue  # attr_sim == 0.0 -> entry stays 0.0
                        else:
                            lookups += 1
                            key = (p.attr_norm, t.attr_norm)
                            attr_sim = table.get(key)
                            if attr_sim is None:
                                missing.setdefault((table_id, key), (
                                    table, key,
                                    p.attribute, sub.theme,
                                    t.attribute, event.theme,
                                ))
                        if attr_sim is not None and (
                            attr_sim < min_relatedness or attr_sim == 0.0
                        ):
                            continue
                        if p.operator != "=":
                            if attr_sim is None:
                                pending.append((row, j, p, t, table))
                            elif p.predicate.evaluate_value(t.value):
                                row[j] = attr_sim
                            continue
                        # Value side.
                        if p.value_is_str and t.value_is_str:
                            if p.value_norm == t.value_norm:
                                value_sim = 1.0
                            elif not p.approx_value:
                                continue
                            else:
                                lookups += 1
                                key = (p.value_norm, t.value_norm)
                                value_sim = table.get(key)
                                if value_sim is None:
                                    missing.setdefault((table_id, key), (
                                        table, key,
                                        p.value, sub.theme,
                                        t.value, event.theme,
                                    ))
                        else:
                            value_sim = 1.0 if p.value == t.value else 0.0
                        if attr_sim is None or value_sim is None:
                            pending.append((row, j, p, t, table))
                            continue
                        if value_sim < min_relatedness:
                            continue
                        row[j] = attr_sim * value_sim
                layouts.append(tuple(layout))
            stats.term_pairs += lookups
            stats.unique_term_pairs += len(missing)
            stats.rows += len(rows)
            span.tag(rows=len(rows))
        return rows, layouts, list(missing.values()), pending

    # -- stage 3: bulk relatedness scoring ---------------------------------

    def _stage_score(
        self,
        missing: list[_Lookup],
        pending: list[_PendingCell],
        stats: BatchStats,
    ) -> None:
        """Score the batch's queued lookups, then finish the pending cells."""
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
            else:
                raws = [
                    measure.score(term_s, theme_s, term_e, theme_e)
                    for _, _, term_s, theme_s, term_e, theme_e in missing
                ]
            for (table, key, *_), raw in zip(missing, raws, strict=True):
                table[key] = (
                    calibration.apply(raw) if calibration is not None else raw
                )
            min_relatedness = matcher.min_relatedness
            for row, j, p, t, table in pending:
                row[j] = _cell_score(p, t, table, min_relatedness)

    # -- stages 4-5: row-max bound, then k-best assignment ----------------

    def _stage_assign(
        self,
        candidates: list[_Candidate],
        rows: list[list[float]],
        layouts: list[tuple[int, ...]],
        scores: list[list[float]],
        results: list[list[MatchResult | None]] | None,
        threshold: float | None,
        stats: BatchStats,
    ) -> None:
        """Solve every candidate matrix; materialize what the mode asks for.

        Scores-only (``results is None``): the top assignment score and
        nothing else. With a ``threshold`` (delivery-gated): a candidate
        whose :func:`~repro.core.mapping.row_max_bound` is below the
        threshold (less ``_BOUND_MARGIN``) is rejected without building
        its matrix; the rest get the cheap top assignment score
        (bit-identical to the full path's top-1 score) and the expensive
        mapping materialization runs only for those that clear it. Every
        pair below the threshold, rejected or solved, keeps score 0.0 and
        no result. In top-1 mode (``k == 1``) the gate's own solve is
        reused —
        :func:`~repro.core.mapping.single_mapping` rebuilds the full
        path's mapping object from the gate's assignment with the same
        arithmetic, so survivors cost one solver call instead of two.
        For ``k > 1`` survivors — and, without a threshold, every
        candidate — enter :func:`~repro.core.mapping.top_k_mappings`:
        same matrix, same solver, same arithmetic in every mode.
        """
        k = self.matcher.k
        rejected = 0
        with TRACER.span(
            "pipeline.assign",
            batch=stats.pairs,
            candidates=len(candidates),
            threshold=threshold,
            **self._span_tags,
        ) as span:
            if threshold is not None:
                floor = threshold - _BOUND_MARGIN
                maxima = [max(row) for row in rows]
            for (i, j, sub, event), layout in zip(
                candidates, layouts, strict=True
            ):
                if threshold is not None and row_max_bound(
                    [maxima[r] for r in layout]
                ) < floor:
                    rejected += 1
                    continue
                matrix = np.array([rows[r] for r in layout], dtype=np.float64)
                if results is None:
                    scores[i][j] = top_assignment_score(matrix)
                    continue
                assignment = None
                if threshold is not None:
                    if k == 1:
                        solved = top_assignment(matrix)
                        if solved is None:  # pragma: no cover - arity prune
                            continue
                        assignment, top = solved
                    else:
                        top = top_assignment_score(matrix)
                    if top < threshold:
                        continue
                wrapped = SimilarityMatrix(
                    subscription=sub.subscription,
                    event=event.event,
                    scores=matrix,
                )
                if assignment is not None:
                    mappings = [single_mapping(wrapped, assignment)]
                else:
                    mappings = top_k_mappings(wrapped, k)
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
            stats.bound_rejected += rejected
            span.tag(bound_rejected=rejected)
