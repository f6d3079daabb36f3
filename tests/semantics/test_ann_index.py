"""ApproxNeighborIndex: loss-freeness at recall 1.0, soundness below it.

The tentpole guarantee of the ANN anchor mode is stated here as
hypothesis properties over the real default-corpus vocabulary:

* ``recall_target=1.0`` is *bit-identical* to the exact full-vocabulary
  scan (``_exact_neighborhood``) — not close, identical — for any term;
* at any lower recall target the index is *sound*: every returned
  neighbor is a true neighbor (candidates are exact-rechecked), so the
  approximation can only miss, never invent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.semantics import tokenize
from repro.semantics.index import (
    DEFAULT_NEIGHBOR_THRESHOLD,
    ApproxNeighborIndex,
)

#: Terms mixing vocabulary tokens, multi-token phrases, and unknowns.
terms = st.sampled_from(
    [
        "laptop",
        "computer",
        "energy",
        "temperature sensor",
        "increased energy consumption",
        "room 112",
        "zebra",
        "air quality",
        "heating",
        "traffic",
    ]
)


@pytest.fixture(scope="module")
def exact(space):
    """The reference: recall 1.0 runs the exact full-vocabulary scan."""
    return ApproxNeighborIndex(space, recall_target=1.0)


@pytest.fixture(scope="module")
def approximate(space):
    return ApproxNeighborIndex(space, recall_target=0.5)


@pytest.fixture(scope="module")
def low_recall(space):
    return ApproxNeighborIndex(space, recall_target=0.25)


@pytest.fixture(scope="module")
def high_recall(space):
    return ApproxNeighborIndex(space, recall_target=0.75)


class TestLossFreeMode:
    @settings(deadline=None)
    @given(term=terms)
    def test_recall_one_is_bit_identical_to_exact_scan(self, exact, term):
        scanned = frozenset().union(
            *(exact._exact_neighborhood(token) for token in tokenize(term))
        )
        assert exact.neighbors(term) == scanned

    def test_recall_one_never_builds_signatures(self, space):
        index = ApproxNeighborIndex(space, recall_target=1.0)
        index.neighbors("laptop")
        assert index._buckets is None

    def test_unknown_term_is_self_only(self, exact):
        assert exact.neighbors("qqqzebra") == frozenset({"qqqzebra"})


class TestThreshold:
    def test_includes_own_tokens(self, exact):
        assert "laptop" in exact.neighbors("laptop")

    def test_includes_synonym_tokens(self, space):
        index = ApproxNeighborIndex(space, threshold=0.45)
        assert "computer" in index.neighbors("laptop")

    def test_higher_threshold_smaller_neighborhood(self, space):
        loose = ApproxNeighborIndex(space, threshold=0.44)
        tight = ApproxNeighborIndex(space, threshold=0.6)
        assert tight.neighbors("laptop") <= loose.neighbors("laptop")


class TestApproximateMode:
    @settings(deadline=None)
    @given(term=terms)
    def test_approximate_neighbors_are_sound(
        self, exact, approximate, term
    ):
        """Never invents: every approximate neighbor is a true neighbor."""
        assert approximate.neighbors(term) <= exact.neighbors(term)

    @settings(deadline=None)
    @given(term=terms)
    def test_more_probed_bands_never_lose_neighbors(
        self, low_recall, high_recall, term
    ):
        """Probed bands are a prefix, so recall is monotone in the knob."""
        assert low_recall.neighbors(term) <= high_recall.neighbors(term)

    def test_same_seed_same_space_agree_bitwise(self, space):
        a = ApproxNeighborIndex(space, recall_target=0.5)
        b = ApproxNeighborIndex(space, recall_target=0.5)
        for term in ("laptop", "energy", "computer"):
            assert a.neighbors(term) == b.neighbors(term)

    def test_counters_track_queries_and_candidates(self, space):
        registry = MetricsRegistry()
        index = ApproxNeighborIndex(
            space, recall_target=0.5, registry=registry
        )
        index.neighbors("laptop")
        counters = registry.snapshot()["counters"]
        assert counters["index.queries"] >= 1
        assert "index.candidates" in counters


class TestValidation:
    def test_recall_target_zero_rejected(self, space):
        with pytest.raises(ValueError, match="recall_target"):
            ApproxNeighborIndex(space, recall_target=0.0)

    def test_recall_target_above_one_rejected(self, space):
        with pytest.raises(ValueError, match="recall_target"):
            ApproxNeighborIndex(space, recall_target=1.5)

    def test_planes_must_divide_into_bands(self, space):
        with pytest.raises(ValueError, match="bands"):
            ApproxNeighborIndex(space, planes=60, bands=16)

    def test_default_threshold_matches_exact_default(self, space):
        assert (
            ApproxNeighborIndex(space).threshold
            == ApproxNeighborIndex(space, recall_target=0.5).threshold
            == DEFAULT_NEIGHBOR_THRESHOLD
        )
