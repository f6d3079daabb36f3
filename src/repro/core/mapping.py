"""Mappings between subscription predicates and event tuples (Section 3.5).

A *mapping* σ assigns every predicate of the subscription to a distinct
tuple of the event — exactly ``n`` correspondences for ``n`` predicates.
The matcher needs the most probable mapping (top-1 mode) or the ``k``
most probable ones (top-k mode, which "increases the chance of hitting
the correct mapping" [13]).

Finding the best mapping is a rectangular assignment problem over the
similarity matrix; we maximize the *product* of correspondence scores
(the probabilistic reading) by minimizing summed negative logs with
``scipy.optimize.linear_sum_assignment``. The top-k enumeration uses
Murty's partitioning algorithm with the same solver as its subroutine.

Probability spaces (Section 3.5):

* ``P_sigma`` — per-correspondence: row-normalized similarity, i.e.
  ``P(p -> t) = M[p, t] / sum_t' M[p, t']``;
* ``P`` — over mappings: each mapping's weight is the product of its
  correspondences' ``P_sigma`` values; weights are normalized across the
  enumerated top-k set. (Exact normalization over all ``m!/(m-n)!``
  mappings is a matrix-permanent computation; normalizing over the
  enumerated set is the standard tractable approximation and matches the
  top-k usage the paper inherits from [16].)
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.core.similarity import SimilarityMatrix
from repro.obs import TRACER

__all__ = [
    "Correspondence",
    "Mapping",
    "k_best_assignments",
    "row_max_bound",
    "single_mapping",
    "top_assignment",
    "top_k_mappings",
    "top_assignment_score",
]

#: Scores below this are treated as impossible edges in the assignment.
_EPSILON = 1e-12
#: Cost standing in for -log(0): any assignment using such an edge has
#: zero product weight but may still be structurally valid.
_FORBIDDEN_COST = -math.log(_EPSILON)


@dataclass(frozen=True)
class Correspondence:
    """One predicate-to-tuple edge of a mapping, with its probabilities."""

    predicate_index: int
    tuple_index: int
    score: float
    probability: float

    def describe(self, matrix: SimilarityMatrix) -> str:
        predicate = matrix.subscription.predicates[self.predicate_index]
        av = matrix.event.payload[self.tuple_index]
        return f"({predicate} <-> {av})"


@dataclass(frozen=True)
class Mapping:
    """A full mapping σ with its score and probability-space values.

    ``score`` is the geometric mean of correspondence scores — a
    size-independent match strength in ``[0, 1]`` used for ranking and
    thresholding. ``weight`` is the raw product of ``P_sigma``
    probabilities; ``probability`` is ``weight`` normalized across the
    mappings enumerated together (set by :func:`top_k_mappings`).
    """

    correspondences: tuple[Correspondence, ...]
    score: float
    weight: float
    probability: float

    def tuple_for(self, predicate_index: int) -> int:
        for corr in self.correspondences:
            if corr.predicate_index == predicate_index:
                return corr.tuple_index
        raise KeyError(predicate_index)

    def assignment(self) -> tuple[int, ...]:
        """Tuple index chosen for each predicate, in predicate order."""
        ordered = sorted(self.correspondences, key=lambda c: c.predicate_index)
        return tuple(c.tuple_index for c in ordered)

    def describe(self, matrix: SimilarityMatrix) -> str:
        inner = ", ".join(c.describe(matrix) for c in self.correspondences)
        return f"{{{inner}}}"


def _solve(cost: np.ndarray) -> tuple[tuple[int, ...], float] | None:
    """Best assignment of all rows to distinct columns; None if infeasible."""
    n, m = cost.shape
    if n > m:
        return None
    rows, cols = linear_sum_assignment(cost)
    total = float(cost[rows, cols].sum())
    assignment = [0] * n
    for r, c in zip(rows, cols, strict=True):
        assignment[r] = int(c)
    return tuple(assignment), total


def k_best_assignments(
    scores: np.ndarray, k: int
) -> list[tuple[tuple[int, ...], float]]:
    """The ``k`` best row-to-column assignments by product of scores.

    Returns ``(assignment, cost)`` pairs, best first, where
    ``assignment[i]`` is the column for row ``i`` and ``cost`` is the
    summed ``-log`` score (lower is better). Murty's algorithm: pop the
    best solution, then partition its search space by fixing a prefix of
    its edges and excluding the next edge, re-solving each partition.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    n, m = scores.shape
    if n == 0 or n > m:
        return []
    base_cost = -np.log(np.maximum(scores, _EPSILON))
    base_cost = np.minimum(base_cost, _FORBIDDEN_COST)

    first = _solve(base_cost)
    if first is None:
        return []

    results: list[tuple[tuple[int, ...], float]] = []
    seen: set[tuple[int, ...]] = set()
    # Heap entries: (cost, tiebreak, assignment, fixed edges, exclusions).
    counter = 0
    heap: list[tuple[float, int, tuple[int, ...], tuple[tuple[int, int], ...],
                     frozenset[tuple[int, int]]]] = []
    heapq.heappush(heap, (first[1], counter, first[0], (), frozenset()))

    while heap and len(results) < k:
        cost_value, _, assignment, fixed, excluded = heapq.heappop(heap)
        if assignment in seen:
            continue
        seen.add(assignment)
        results.append((assignment, cost_value))

        if len(results) == k:
            # Partitioning the final solution's search space would only
            # push heap entries that are never popped; skip the (k x n
            # solver calls) of wasted work — a large share of top-1 cost.
            break

        fixed_rows = {row for row, _ in fixed}
        free_rows = [row for row in range(n) if row not in fixed_rows]
        partition_fixed = list(fixed)
        partition_excluded = set(excluded)
        for row in free_rows:
            exclusion = (row, assignment[row])
            candidate = _solve_restricted(
                base_cost,
                tuple(partition_fixed),
                frozenset(partition_excluded | {exclusion}),
            )
            if candidate is not None:
                counter += 1
                cand_assignment, cand_cost = candidate
                heapq.heappush(
                    heap,
                    (
                        cand_cost,
                        counter,
                        cand_assignment,
                        tuple(partition_fixed),
                        frozenset(partition_excluded | {exclusion}),
                    ),
                )
            # Deeper partitions keep this row fixed to its current column.
            partition_fixed.append(exclusion)
    return results


def _solve_restricted(
    base_cost: np.ndarray,
    fixed: tuple[tuple[int, int], ...],
    excluded: frozenset[tuple[int, int]],
) -> tuple[tuple[int, ...], float] | None:
    """Solve with some edges forced and some forbidden."""
    n, m = base_cost.shape
    cost = base_cost.copy()
    big = _FORBIDDEN_COST * (n + 1)
    for row, col in excluded:
        cost[row, col] = big
    fixed_cols = {col for _, col in fixed}
    fixed_rows = {row for row, _ in fixed}
    free_rows = [r for r in range(n) if r not in fixed_rows]
    free_cols = [c for c in range(m) if c not in fixed_cols]
    if len(free_rows) > len(free_cols):
        return None
    if free_rows:
        sub = cost[np.ix_(free_rows, free_cols)]
        solved = _solve(sub)
        if solved is None:
            return None
        sub_assignment, _ = solved
    else:
        sub_assignment = ()
    assignment = [0] * n
    total = 0.0
    for row, col in fixed:
        assignment[row] = col
        total += float(base_cost[row, col])
    for local_row, local_col in enumerate(sub_assignment):
        row = free_rows[local_row]
        col = free_cols[local_col]
        if (row, col) in excluded:
            return None
        assignment[row] = col
        total += float(cost[row, col])
    # Reject solutions that were only "feasible" through a forbidden edge.
    if any(cost[r, c] >= big for r, c in enumerate(assignment)):
        return None
    return tuple(assignment), total


def top_assignment_score(scores: np.ndarray) -> float:
    """Geometric-mean score of the single best assignment; 0.0 if none.

    The scores-only fast path of the batch pipeline: solves the same
    assignment problem as :func:`k_best_assignments` with ``k=1`` and
    reproduces :func:`top_k_mappings`'s score arithmetic operation for
    operation, so the result is bit-identical to
    ``top_k_mappings(matrix, k)[0].score`` — without enumerating
    alternatives or materializing mapping objects.
    """
    n, m = scores.shape
    if n == 0 or n > m:
        return 0.0
    cost = -np.log(np.maximum(scores, _EPSILON))
    cost = np.minimum(cost, _FORBIDDEN_COST)
    # Inlined _solve without the assignment-tuple bookkeeping, and a
    # plain sequential product instead of np.prod — numpy's
    # multiply.reduce over a handful of float64s is the same
    # left-to-right chain, so the float result is unchanged while the
    # per-call wrapper overhead (the bulk of scores-only batch cost at
    # small arities) disappears.
    rows, cols = linear_sum_assignment(cost)
    product = 1.0
    for r, c in zip(rows, cols, strict=True):
        product *= float(scores[r, c])
    return float(product ** (1.0 / n))


def top_assignment(scores: np.ndarray) -> tuple[tuple[int, ...], float] | None:
    """Best assignment and its geometric-mean score; ``None`` if infeasible.

    :func:`top_assignment_score` for callers that also need the
    assignment itself — the delivery-gated batch path solves once, gates
    on the score, and (in top-1 mode) reuses the assignment via
    :func:`single_mapping` instead of re-solving through
    :func:`top_k_mappings`. Same cost construction, same solver, same
    score arithmetic, so both outputs are bit-identical to the full
    path's top-1 result.
    """
    n, m = scores.shape
    if n == 0 or n > m:
        return None
    cost = -np.log(np.maximum(scores, _EPSILON))
    cost = np.minimum(cost, _FORBIDDEN_COST)
    rows, cols = linear_sum_assignment(cost)
    assignment = [0] * n
    product = 1.0
    for r, c in zip(rows, cols, strict=True):
        assignment[r] = int(c)
        product *= float(scores[r, c])
    return tuple(assignment), float(product ** (1.0 / n))


def row_max_bound(row_maxima: Sequence[float]) -> float:
    """Upper bound on :func:`top_assignment_score` from row maxima alone.

    ``row_maxima[i]`` is the largest entry of row ``i`` of a matrix with
    non-negative entries. The best assignment picks one entry per row,
    each at most its row's maximum, and :func:`top_assignment` multiplies
    them left to right in row order; this is the same chain over the
    maxima. Float multiplication rounds monotonically, so every partial
    product here is at least the solver's, and both take the same
    ``** (1 / n)``. A caller deciding against a threshold still allows a
    margin for ``pow``, which is not guaranteed monotone to the last ulp.
    """
    n = len(row_maxima)
    if n == 0:
        return 0.0
    product = 1.0
    for best in row_maxima:
        product *= float(best)
    return float(product ** (1.0 / n))


def single_mapping(matrix: SimilarityMatrix, assignment: tuple[int, ...]) -> Mapping:
    """The :class:`Mapping` that ``top_k_mappings(matrix, 1)[0]`` builds
    for this assignment — field-identical, without the enumeration
    machinery (heap, partitioning, re-solving).

    The arithmetic below mirrors :func:`top_k_mappings` expression for
    expression; with a single enumerated mapping its normalized
    probability is exactly ``1.0`` (``weight / weight``) whenever the
    weight is positive, ``0.0`` otherwise.
    """
    row_probs = matrix.row_probabilities()
    correspondences = tuple(
        Correspondence(
            predicate_index=i,
            tuple_index=j,
            score=float(matrix.scores[i, j]),
            probability=float(row_probs[i, j]),
        )
        for i, j in enumerate(assignment)
    )
    # Sequential products instead of np.prod over small lists: numpy's
    # multiply.reduce is the same left-to-right chain at these lengths,
    # so the floats are unchanged while the array-conversion overhead
    # (a large share of per-survivor cost in the batch path) disappears.
    score_product = 1.0
    weight = 1.0
    for c in correspondences:
        score_product *= c.score
        weight *= c.probability
    geo_mean = (
        float(score_product ** (1.0 / len(correspondences)))
        if correspondences
        else 0.0
    )
    return Mapping(
        correspondences=correspondences,
        score=geo_mean,
        weight=weight,
        probability=1.0 if weight > 0 else 0.0,
    )


def top_k_mappings(matrix: SimilarityMatrix, k: int) -> list[Mapping]:
    """The top-k most probable mappings for a similarity matrix.

    Mappings whose product weight is zero (some correspondence scored 0)
    are still returned — the caller decides via score/threshold — but a
    subscription with more predicates than the event has tuples yields
    no mapping at all (the model requires exactly ``n`` correspondences).
    """
    with TRACER.span("matcher.top_k", k=k):
        assignments = k_best_assignments(matrix.scores, k)
    if not assignments:
        return []
    row_probs = matrix.row_probabilities()
    drafts: list[tuple[tuple[Correspondence, ...], float, float]] = []
    for assignment, _cost in assignments:
        correspondences = tuple(
            Correspondence(
                predicate_index=i,
                tuple_index=j,
                score=float(matrix.scores[i, j]),
                probability=float(row_probs[i, j]),
            )
            for i, j in enumerate(assignment)
        )
        scores = [c.score for c in correspondences]
        geo_mean = float(np.prod(scores) ** (1.0 / len(scores))) if scores else 0.0
        weight = float(np.prod([c.probability for c in correspondences]))
        drafts.append((correspondences, geo_mean, weight))

    total_weight = sum(weight for _, _, weight in drafts)
    mappings = [
        Mapping(
            correspondences=correspondences,
            score=geo_mean,
            weight=weight,
            probability=(weight / total_weight) if total_weight > 0 else 0.0,
        )
        for correspondences, geo_mean, weight in drafts
    ]
    return mappings
