"""Parity contract of the vectorized relatedness kernel.

The kernel (:mod:`repro.semantics.kernel`) reimplements projection and
distance over columnar numpy arrays; the pipeline's bulk scoring stage
trusts two properties pinned here:

* **scalar parity**: for every (term, theme, term, theme) lookup over
  the toy corpus below, in every (metric × normalize × recompute_idf ×
  mode) configuration, the kernel's score is within
  ``PARITY_TOLERANCE`` of the scalar ``SparseVector`` path (projected
  weights are bit-identical by construction; the distance step differs,
  see the kernel module docstring for the larger error near-parallel
  projections reach on the workload corpora);
* **batch determinism**: ``score_batch`` over any list of lookups is
  *exactly* equal, float for float, to scoring each lookup alone — the
  kernel reduces with order-fixed ``einsum`` rows, never batch-shaped
  BLAS calls, so batching can never change a delivery decision.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.semantics.columnar import ColumnarIndex
from repro.semantics.documents import DocumentSet
from repro.semantics.kernel import PARITY_TOLERANCE, KernelMeasure, RelatednessKernel
from repro.semantics.measures import CachedMeasure, ThematicMeasure
from repro.semantics.pvsm import ParametricVectorSpace

TOY = DocumentSet.from_texts(
    [
        "energy power grid consumption meter",
        "parking street car transport spot",
        "weather storm rain wind forecast",
        "energy meter building office monitor",
        "car engine power fuel energy",
        "office building room computer energy",
        "transport bus street city commute",
        "storm damage power outage grid",
        "rain water street flood drain",
        "computer laptop device office desk",
        "fuel price energy market power",
        "city building street office block",
    ]
)

TERMS = (
    "energy", "power", "street", "car", "storm", "office",
    "computer", "grid", "rain", "fuel", "zzzunknown",
)
TAGS = ("energy", "street", "storm", "office", "city", "nosuchtag")

_SPACES: dict[tuple[str, bool, bool], ParametricVectorSpace] = {}


def _space(metric: str, normalize: bool, recompute_idf: bool) -> ParametricVectorSpace:
    key = (metric, normalize, recompute_idf)
    if key not in _SPACES:
        _SPACES[key] = ParametricVectorSpace(
            TOY, metric=metric, normalize=normalize, recompute_idf=recompute_idf
        )
    return _SPACES[key]


lookups = st.tuples(
    st.sampled_from(TERMS),
    st.tuples(*[st.sampled_from(TAGS)] * 2) | st.just(()),
    st.sampled_from(TERMS),
    st.tuples(*[st.sampled_from(TAGS)] * 2) | st.just(()),
)
configs = st.tuples(
    st.sampled_from(("euclidean", "cosine")),
    st.booleans(),
    st.booleans(),
    st.sampled_from(("common", "own")),
)


class TestScalarParity:
    @given(config=configs, lookup=lookups)
    @settings(max_examples=120, deadline=None)
    def test_kernel_matches_scalar_within_documented_tolerance(
        self, config, lookup
    ):
        metric, normalize, recompute_idf, mode = config
        space = _space(metric, normalize, recompute_idf)
        scalar = ThematicMeasure(space, mode=mode).score(*lookup)
        kernel = ThematicMeasure(space, mode=mode, vectorized=True).score(*lookup)
        assert abs(kernel - scalar) <= PARITY_TOLERANCE

    def test_identical_terms_short_circuit_to_one(self):
        space = _space("euclidean", True, True)
        measure = ThematicMeasure(space, vectorized=True)
        assert measure.score("energy", ("office",), "Energy", ("street",)) == 1.0

    def test_unknown_terms_score_zero(self):
        space = _space("euclidean", True, True)
        measure = ThematicMeasure(space, vectorized=True)
        assert measure.score("zzzunknown", (), "qqqmissing", ()) == 0.0


class TestBatchDeterminism:
    @given(config=configs, batch=st.lists(lookups, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_batch_is_bit_identical_to_singles(self, config, batch):
        metric, normalize, recompute_idf, mode = config
        space = _space(metric, normalize, recompute_idf)
        measure = ThematicMeasure(space, mode=mode, vectorized=True)
        batched = measure.score_batch(batch)
        singles = [measure.score(*lookup) for lookup in batch]
        assert batched == singles  # exact equality, not approx

    def test_duplicate_pairs_in_one_batch_agree(self):
        space = _space("euclidean", True, True)
        measure = ThematicMeasure(space, vectorized=True)
        lookup = ("energy", ("office",), "car", ("street",))
        values = measure.score_batch([lookup] * 4)
        assert len(set(values)) == 1

    def test_cached_measure_batch_serves_hits_and_scores_misses(self):
        space = _space("euclidean", True, True)
        cached = CachedMeasure(ThematicMeasure(space, vectorized=True))
        assert cached.vectorized
        first = cached.score("energy", ("office",), "car", ("street",))
        batch = cached.score_batch(
            [
                ("energy", ("office",), "car", ("street",)),
                ("storm", ("city",), "rain", ()),
            ]
        )
        assert batch[0] == first
        assert batch[1] == cached.score("storm", ("city",), "rain", ())


class TestColumnarIndex:
    def test_rows_are_bit_identical_to_scalar_weights(self):
        space = _space("euclidean", True, True)
        columnar = ColumnarIndex.build(space.index)
        for token in ("energy", "street", "storm"):
            row = columnar.row(token)
            assert row is not None
            doc_ids, _, tfidf = row
            scalar = space.token_vector(token)
            assert {
                int(doc): float(w)
                for doc, w in zip(doc_ids, tfidf, strict=True)
                if w != 0.0
            } == dict(scalar.items())

    def test_unknown_token_has_no_row(self):
        columnar = ColumnarIndex.build(_space("euclidean", True, True).index)
        assert columnar.row("zzzunknown") is None
        assert "zzzunknown" not in columnar
        assert "energy" in columnar

    def test_space_builds_columnar_once(self):
        space = ParametricVectorSpace(TOY)
        assert space.columnar() is space.columnar()
        assert space.kernel() is space.kernel()


class TestKernelObservability:
    def test_counters_track_batches_and_pairs(self):
        space = _space("euclidean", True, True)
        registry = MetricsRegistry()
        kernel = RelatednessKernel(space.columnar(), registry=registry)
        measure = KernelMeasure(kernel)
        measure.score_batch(
            [
                ("energy", ("office",), "car", ("street",)),
                ("storm", (), "rain", ()),
            ]
        )
        counters = registry.snapshot()["counters"]
        assert counters["kernel.batches"] >= 1
        assert counters["kernel.pairs"] >= 2


class TestDefaultCorpusSpotParity:
    """One non-toy anchor: the corpus the benches actually run on."""

    def test_default_space_parity_sample(self, space):
        scalar = ThematicMeasure(space)
        kernel = ThematicMeasure(space, vectorized=True)
        for lookup in (
            ("energy", ("energy", "building"), "power", ("energy",)),
            ("parking", ("transport",), "street", ("transport", "city")),
            ("computer", (), "laptop", ()),
        ):
            assert kernel.score(*lookup) == pytest.approx(
                scalar.score(*lookup), abs=PARITY_TOLERANCE
            )


class TestSparseVectorNaNRejection:
    def test_nan_weight_is_rejected_at_construction(self):
        from repro.semantics.vectors import SparseVector

        with pytest.raises(ValueError, match="NaN weight"):
            SparseVector({3: float("nan")})

    def test_zero_weights_still_dropped_silently(self):
        from repro.semantics.vectors import SparseVector

        assert len(SparseVector({1: 0.0, 2: 1.0})) == 1
