"""Unit and property tests for mappings and k-best assignment."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event
from repro.core.mapping import (
    k_best_assignments,
    row_max_bound,
    top_assignment_score,
    top_k_mappings,
)
from repro.core.similarity import build_similarity_matrix
from repro.core.subscriptions import Subscription


class FixedMeasure:
    def __init__(self, value):
        self.value = value

    def score(self, term_s, theme_s, term_e, theme_e):
        return self.value


def brute_force(scores, k):
    """Reference enumeration of all injective assignments."""
    n, m = scores.shape
    results = []
    for columns in itertools.permutations(range(m), n):
        cost = -sum(math.log(max(scores[i, c], 1e-12)) for i, c in enumerate(columns))
        results.append((tuple(columns), cost))
    results.sort(key=lambda item: item[1])
    return results[:k]


score_matrices = st.integers(1, 4).flatmap(
    lambda n: st.integers(n, 5).flatmap(
        lambda m: st.lists(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0,
                          allow_nan=False, allow_infinity=False),
                min_size=m, max_size=m,
            ),
            min_size=n, max_size=n,
        ).map(np.array)
    )
)


class TestKBestAssignments:
    def test_best_is_optimal_small_case(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        (best, _), = k_best_assignments(scores, 1)
        assert best == (0, 1)

    def test_assignment_injective(self):
        scores = np.array([[0.9, 0.9, 0.1], [0.9, 0.9, 0.1]])
        for assignment, _ in k_best_assignments(scores, 4):
            assert len(set(assignment)) == len(assignment)

    def test_more_predicates_than_tuples_is_infeasible(self):
        scores = np.ones((3, 2))
        assert k_best_assignments(scores, 1) == []

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            k_best_assignments(np.ones((1, 1)), 0)

    def test_returns_at_most_all_assignments(self):
        scores = np.random.default_rng(0).random((2, 3))
        results = k_best_assignments(scores, 100)
        assert len(results) == 6  # 3P2

    def test_results_sorted_by_cost(self):
        scores = np.random.default_rng(1).random((3, 4))
        results = k_best_assignments(scores, 10)
        costs = [cost for _, cost in results]
        assert costs == sorted(costs)

    def test_no_duplicate_assignments(self):
        scores = np.random.default_rng(2).random((3, 5))
        results = k_best_assignments(scores, 20)
        assignments = [a for a, _ in results]
        assert len(assignments) == len(set(assignments))

    @settings(max_examples=40, deadline=None)
    @given(score_matrices, st.integers(1, 6))
    def test_matches_brute_force(self, scores, k):
        ours = k_best_assignments(scores, k)
        reference = brute_force(scores, k)
        assert len(ours) == len(reference)
        for (_, our_cost), (_, ref_cost) in zip(ours, reference, strict=True):
            assert math.isclose(our_cost, ref_cost, rel_tol=1e-6, abs_tol=1e-9)


class TestTopKMappings:
    def make_matrix(self):
        sub = Subscription.create(
            approximate={"type": "x event", "device": "laptop"}
        )
        event = Event.create(
            payload={"type": "x event", "device": "computer", "room": "112"}
        )
        return build_similarity_matrix(sub, event, FixedMeasure(0.5))

    def test_top1_mapping_structure(self):
        mappings = top_k_mappings(self.make_matrix(), 1)
        assert len(mappings) == 1
        mapping = mappings[0]
        assert len(mapping.correspondences) == 2
        assert mapping.probability == 1.0  # only mapping enumerated

    def test_topk_probabilities_normalized(self):
        mappings = top_k_mappings(self.make_matrix(), 4)
        total = sum(m.probability for m in mappings)
        assert math.isclose(total, 1.0)
        assert mappings[0].probability == max(m.probability for m in mappings)

    def test_score_is_geometric_mean(self):
        mapping = top_k_mappings(self.make_matrix(), 1)[0]
        product = 1.0
        for corr in mapping.correspondences:
            product *= corr.score
        assert math.isclose(
            mapping.score, product ** (1 / len(mapping.correspondences))
        )

    def test_assignment_accessors(self):
        mapping = top_k_mappings(self.make_matrix(), 1)[0]
        assignment = mapping.assignment()
        for i, j in enumerate(assignment):
            assert mapping.tuple_for(i) == j
        with pytest.raises(KeyError):
            mapping.tuple_for(99)

    def test_describe_mentions_predicates(self):
        matrix = self.make_matrix()
        mapping = top_k_mappings(matrix, 1)[0]
        text = mapping.describe(matrix)
        assert "type" in text and "device" in text

    def test_empty_when_infeasible(self):
        sub = Subscription.create(approximate={"a": "x", "b": "y"})
        event = Event.create(payload={"a": "x"})
        matrix = build_similarity_matrix(sub, event, FixedMeasure(0.5))
        assert top_k_mappings(matrix, 3) == []


# Cells that stress the bound: zeros (the assignment may be forced
# through one), exact repeats, and the broker threshold 0.5 itself,
# mixed with arbitrary floats in [0, 1].
bound_cells = st.one_of(
    st.sampled_from((0.0, 0.5, 0.25, 1.0)),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
bound_matrices = st.integers(1, 8).flatmap(
    lambda n: st.integers(n, 8).flatmap(
        lambda m: st.lists(
            st.lists(bound_cells, min_size=m, max_size=m),
            min_size=n, max_size=n,
        ).map(lambda rows: np.array(rows, dtype=np.float64))
    )
)


class TestRowMaxBound:
    @settings(max_examples=300, deadline=None)
    @given(scores=bound_matrices)
    def test_bounds_the_top_assignment_score(self, scores):
        maxima = [float(best) for best in scores.max(axis=1)]
        assert top_assignment_score(scores) <= row_max_bound(maxima)

    def test_equals_the_score_when_the_maxima_are_assignable(self):
        scores = np.array([[0.5, 0.25, 0.0], [0.25, 0.5, 0.5]])
        assert row_max_bound([0.5, 0.5]) == top_assignment_score(scores) == 0.5

    def test_no_rows_is_zero(self):
        assert row_max_bound([]) == 0.0
