"""Staged batch pipeline: exact parity with the per-pair path, plus the
engine-side dispatch behaviour (snapshot caching, prefilter, registry
stats) the pipeline feeds."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact import ExactMatcher
from repro.baselines.nonthematic import NonThematicMatcher
from repro.baselines.rewriting import RewritingMatcher
from repro.core.api import pairwise_match_batch
from repro.core.engine import EngineStats, ThematicEventEngine
from repro.core.events import Event
from repro.core.language import parse_event, parse_subscription
from repro.core.matcher import ThematicMatcher
from repro.core.subscriptions import Predicate, Subscription
from repro.obs import TRACER, MetricsRegistry
from repro.semantics.cache import RelatednessCache
from repro.semantics.measures import CachedMeasure, ThematicMeasure

# Mostly in-corpus terms (semantic structure to exploit) plus out-of-
# vocabulary ones (score 0.0 paths) and multi-word normalization cases.
TERMS = (
    "transport", "traffic", "road transport", "bus", "vehicle",
    "pollution", "air quality", "environment", "ozone", "smog",
    "Traffic ", "zzz unknown term",
)
ATTRS = ("vehicle", "pollutant", "sensor", "unit", "speed", "type")
TAGS = ("transport", "environment", "energy", "road transport")

themes = st.lists(st.sampled_from(TAGS), unique=True, max_size=2).map(frozenset)


@st.composite
def _predicate(draw, attribute: str) -> Predicate:
    kind = draw(st.integers(0, 3))
    if kind == 0:  # exact equality on a term
        return Predicate(attribute, draw(st.sampled_from(TERMS)))
    if kind == 1:  # fully approximated (the paper's 100% degree)
        return Predicate(
            attribute,
            draw(st.sampled_from(TERMS)),
            approx_attribute=True,
            approx_value=True,
        )
    if kind == 2:  # approximate attribute, exact value
        return Predicate(
            attribute, draw(st.sampled_from(TERMS)), approx_attribute=True
        )
    # Extension operator with a numeric comparison value.
    return Predicate(
        attribute,
        draw(st.integers(0, 5)),
        approx_attribute=draw(st.booleans()),
        operator=draw(st.sampled_from((">", ">=", "<", "<=", "!="))),
    )


@st.composite
def subscriptions(draw) -> Subscription:
    attrs = draw(
        st.lists(st.sampled_from(ATTRS), unique=True, min_size=1, max_size=3)
    )
    return Subscription(
        theme=draw(themes),
        predicates=tuple(draw(_predicate(attr)) for attr in attrs),
    )


@st.composite
def events(draw) -> Event:
    attrs = draw(
        st.lists(st.sampled_from(ATTRS), unique=True, min_size=1, max_size=4)
    )
    values = st.one_of(st.sampled_from(TERMS), st.integers(0, 5))
    return Event.create(
        theme=draw(themes),
        payload=[(attr, draw(values)) for attr in attrs],
    )


workloads = st.tuples(
    st.lists(subscriptions(), min_size=1, max_size=4),
    st.lists(events(), min_size=1, max_size=4),
)


def assert_batch_parity(engine, subs, evts):
    """Batch output must equal the per-pair reference bit for bit."""
    reference = pairwise_match_batch(engine, subs, evts)
    batch = engine.match_batch(subs, evts)
    assert batch.scores == reference.scores
    for i in range(len(subs)):
        for j in range(len(evts)):
            ours, ref = batch.result(i, j), reference.result(i, j)
            assert (ours is None) == (ref is None)
            if ours is not None and ref is not None:
                assert ours.score == ref.score
                assert ours.mapping.assignment() == ref.mapping.assignment()
                assert len(ours.alternatives) == len(ref.alternatives)
    scores_only = engine.match_batch(subs, evts, scores_only=True)
    assert scores_only.scores == reference.scores


@settings(max_examples=25, deadline=None)
@given(workload=workloads)
def test_thematic_batch_parity(space, workload):
    subs, evts = workload
    engine = ThematicMatcher(
        CachedMeasure(ThematicMeasure(space), RelatednessCache()), k=2
    )
    assert_batch_parity(engine, subs, evts)


@settings(max_examples=15, deadline=None)
@given(workload=workloads)
def test_uncalibrated_thematic_batch_parity(space, workload):
    subs, evts = workload
    engine = ThematicMatcher(
        ThematicMeasure(space), calibration=None, min_relatedness=0.42
    )
    assert_batch_parity(engine, subs, evts)


@settings(max_examples=15, deadline=None)
@given(workload=workloads)
def test_nonthematic_batch_parity(space, workload):
    subs, evts = workload
    assert_batch_parity(NonThematicMatcher(space), subs, evts)


@settings(max_examples=25, deadline=None)
@given(workload=workloads)
def test_exact_batch_parity(space, workload):
    subs, evts = workload
    assert_batch_parity(ExactMatcher(), subs, evts)


@settings(max_examples=15, deadline=None)
@given(workload=workloads)
def test_rewriting_batch_parity(thesaurus, workload):
    subs, evts = workload
    assert_batch_parity(RewritingMatcher(thesaurus), subs, evts)


def _fresh_matcher(space, k: int = 1, threshold: float = 0.5) -> ThematicMatcher:
    return ThematicMatcher(
        CachedMeasure(ThematicMeasure(space), RelatednessCache()),
        k=k,
        threshold=threshold,
    )


@settings(max_examples=20, deadline=None)
@given(
    workload=workloads,
    k=st.sampled_from((1, 2)),
    threshold=st.sampled_from((0.0, 0.5)),
)
def test_delivery_gated_batch_parity(space, workload, k, threshold):
    """Delivery-gated mode: scores and results only for survivors.

    A survivor's score and result must be bit-identical to the full-mode
    ones — same score, same chosen assignment, same probability mass,
    same alternatives — even though the gated path solves the assignment
    once per pair (and, for k=1, reuses the gate's own solve) and skips
    the solve for pairs its row-max bound rejects.
    """
    subs, evts = workload
    full = _fresh_matcher(space, k, threshold).match_batch(subs, evts)
    gated = _fresh_matcher(space, k, threshold).match_batch(
        subs, evts, deliver_threshold=threshold
    )
    _assert_gated_parity(full, gated, subs, evts, threshold)


def _assert_gated_parity(full, gated, subs, evts, threshold):
    """Bit-exact on every deliverable pair; every other pair of the gated
    batch reads score 0.0 and no result, as a pruned pair does."""
    for i in range(len(subs)):
        for j in range(len(evts)):
            full_result = full.result(i, j)
            gated_result = gated.result(i, j)
            deliverable = full_result is not None and full_result.is_match(
                threshold
            )
            assert (gated_result is not None) == deliverable
            if not deliverable:
                assert gated.scores[i][j] == 0.0
            if gated_result is not None:
                assert gated.scores[i][j] == full.scores[i][j]
                assert gated_result.score == full_result.score
                assert (
                    gated_result.mapping.assignment()
                    == full_result.mapping.assignment()
                )
                assert (
                    gated_result.mapping.probability
                    == full_result.mapping.probability
                )
                assert gated_result.mapping.weight == full_result.mapping.weight
                assert len(gated_result.alternatives) == len(
                    full_result.alternatives
                )


def _vectorized_matcher(space, k: int, threshold: float) -> ThematicMatcher:
    return ThematicMatcher(
        CachedMeasure(
            ThematicMeasure(space, vectorized=True), RelatednessCache()
        ),
        k=k,
        threshold=threshold,
    )


@settings(max_examples=20, deadline=None)
@given(
    workload=workloads,
    k=st.sampled_from((1, 2)),
    threshold=st.sampled_from((0.0, 0.5)),
)
def test_vectorized_delivery_gated_parity(space, workload, k, threshold):
    """Gated mode over the kernel must equal full mode over it bit for bit.

    With a vectorized measure the batch's missing lookups are scored by
    one ``score_batch`` call in either mode and the matrices come from
    the same cell walk; every score, assignment, probability and
    alternatives count must be exactly equal — the gate may only decide
    which results are materialized, so no float may differ.
    """
    subs, evts = workload
    full = _vectorized_matcher(space, k, threshold).match_batch(subs, evts)
    gated = _vectorized_matcher(space, k, threshold).match_batch(
        subs, evts, deliver_threshold=threshold
    )
    _assert_gated_parity(full, gated, subs, evts, threshold)


@settings(max_examples=10, deadline=None)
@given(first=workloads, second=workloads)
def test_vectorized_gated_parity_with_warm_tables(space, first, second):
    """Second batch on the same matcher hits warm score tables (some
    cells filled on the walk, some pending on the batch's bulk call);
    it must still match a cold full-mode run exactly."""
    warm = _vectorized_matcher(space, 1, 0.5)
    for subs, evts in (first, second):
        gated = warm.match_batch(subs, evts, deliver_threshold=0.5)
        full = _vectorized_matcher(space, 1, 0.5).match_batch(subs, evts)
        _assert_gated_parity(full, gated, subs, evts, 0.5)


def test_deliver_threshold_conflicts_with_scores_only(space):
    matcher = _fresh_matcher(space)
    sub = parse_subscription("({transport}, {vehicle~= bus~})")
    event = parse_event("({transport}, {vehicle: traffic})")
    with pytest.raises(ValueError):
        matcher.match_batch(
            [sub], [event], scores_only=True, deliver_threshold=0.5
        )


class TestPipelineStats:
    def test_dedup_and_prune_accounting(self, space):
        sub = parse_subscription("({transport}, {vehicle~= bus~})")
        anchored = parse_subscription("({transport}, {unit= microgram})")
        evts = [
            parse_event("({transport}, {vehicle: traffic})"),
            parse_event("({transport}, {vehicle: traffic, speed: 3})"),
        ]
        engine = ThematicMatcher(ThematicMeasure(space))
        batch = engine.match_batch([sub, anchored], evts, prune_zero=True)
        stats = batch.stats
        assert stats.pairs == 4
        # The anchored subscription's literal tuple is absent from both
        # events, so both of its pairs are settled without scoring.
        assert stats.pruned_anchor == 2
        # The same (vehicle~, traffic) term pairs repeat across events:
        # collected more than once, scored once.
        assert stats.term_pairs > stats.unique_term_pairs
        assert 0.0 < stats.dedup_ratio < 1.0

    def test_stats_mean_the_same_in_every_mode(self, space):
        """One walk, one accounting: a cold gated run and a cold full
        run of the same batch report the same lookups walked, misses
        scored and prunes."""
        subs = [
            parse_subscription("({transport}, {vehicle~= bus~})"),
            parse_subscription("({transport}, {unit= microgram})"),
            parse_subscription("({transport}, {vehicle~= bus~, sensor~= ozone~})"),
        ]
        evts = [
            parse_event("({transport}, {vehicle: traffic})"),
            parse_event("({transport}, {vehicle: traffic, speed: 3})"),
            parse_event("({transport}, {speed: 3})"),
        ]

        def cold(**mode):
            engine = ThematicMatcher(ThematicMeasure(space))
            return engine.match_batch(subs, evts, prune_zero=True, **mode).stats

        full, gated = cold(), cold(deliver_threshold=0.5)
        assert full.term_pairs > full.unique_term_pairs > 0
        assert full.pruned_arity > 0 and full.pruned_anchor > 0
        assert (gated.term_pairs, gated.unique_term_pairs) == (
            full.term_pairs, full.unique_term_pairs
        )
        assert (gated.pruned_arity, gated.pruned_anchor) == (
            full.pruned_arity, full.pruned_anchor
        )
        assert gated.rows == full.rows > 0
        assert cold(scores_only=True) == full

    def test_bound_rejects_only_in_gated_mode(self, space):
        """Every candidate here scores below 0.5: the gated batch settles
        them by their row-max bound, unsolved and outside ``pruned``;
        the full and scores-only batches solve them all."""
        subs = [
            parse_subscription("({transport}, {vehicle~= bus~})"),
            parse_subscription("({transport}, {vehicle~= bus~, sensor~= ozone~})"),
        ]
        evts = [
            parse_event("({transport}, {vehicle: traffic})"),
            parse_event("({transport}, {vehicle: traffic, speed: 3})"),
        ]

        def cold(**mode):
            engine = ThematicMatcher(ThematicMeasure(space))
            return engine.match_batch(subs, evts, prune_zero=True, **mode)

        full = cold()
        assert 0.0 < max(max(row) for row in full.scores) < 0.5
        assert full.stats.bound_rejected == 0
        assert cold(scores_only=True).stats.bound_rejected == 0
        gated = cold(deliver_threshold=0.5).stats
        assert gated.bound_rejected == gated.candidates > 0
        assert gated.pruned == full.stats.pruned

    def test_stage_spans_carry_rows_and_bound_rejects(self, space, tmp_path):
        sink = tmp_path / "trace.jsonl"
        TRACER.enable(registry=MetricsRegistry(), sink=str(sink))
        try:
            batch = ThematicMatcher(ThematicMeasure(space)).match_batch(
                [parse_subscription("({transport}, {vehicle~= bus~})")],
                [parse_event("({transport}, {vehicle: traffic})")],
                deliver_threshold=0.5,
            )
        finally:
            TRACER.disable()
        spans = {
            record["span"]: record.get("attributes", {})
            for record in map(json.loads, sink.read_text().splitlines())
        }
        assert spans["pipeline.fill"]["rows"] == batch.stats.rows == 1
        assert (
            spans["pipeline.assign"]["bound_rejected"]
            == batch.stats.bound_rejected
            == 1
        )

    def test_equal_predicates_share_one_row(self, space):
        """A row is one (distinct predicate, theme pair, event): equal
        predicates of different subscriptions share it, another theme
        pair gets its own."""
        subs = [
            parse_subscription("({transport}, {vehicle~= bus~})"),
            parse_subscription("({transport}, {vehicle~= bus~, sensor~= ozone~})"),
            parse_subscription("({environment}, {vehicle~= bus~})"),
        ]
        evts = [parse_event("({transport}, {vehicle: traffic, sensor: smog})")]
        engine = ThematicMatcher(ThematicMeasure(space))
        batch = engine.match_batch(subs, evts)
        assert batch.stats.candidates == 3
        assert batch.stats.rows == 3  # vehicle x2 themes, sensor once
        assert batch.scores == pairwise_match_batch(engine, subs, evts).scores

    def test_score_table_persists_across_batches(self, space):
        sub = parse_subscription("({transport}, {vehicle~= bus~})")
        event = parse_event("({transport}, {vehicle: traffic})")
        engine = ThematicMatcher(ThematicMeasure(space))
        first = engine.match_batch([sub], [event])
        again = engine.match_batch([sub], [event])
        assert first.stats.unique_term_pairs > 0
        assert again.stats.unique_term_pairs == 0  # all lookups table hits
        assert again.scores == first.scores


class TestCompiledState:
    def test_equal_predicates_compile_once(self, space):
        pipeline = ThematicMatcher(ThematicMeasure(space)).new_pipeline()
        one = pipeline._compile_subscription(
            parse_subscription("({transport}, {vehicle~= bus~, speed> 1})")
        )
        two = pipeline._compile_subscription(
            parse_subscription("({energy}, {vehicle~= bus~})")
        )
        assert one.predicates[0] is two.predicates[0]
        # 1 == 1.0 (and they hash alike), but they stay two predicates.
        integral = Subscription(
            theme=frozenset(), predicates=(Predicate("speed", 1, operator=">"),)
        )
        real = Subscription(
            theme=frozenset(), predicates=(Predicate("speed", 1.0, operator=">"),)
        )
        assert (
            pipeline._compile_subscription(integral).predicates[0]
            is not pipeline._compile_subscription(real).predicates[0]
        )

    def test_compiled_state_stays_bounded_under_churn(self, space):
        """Subscriptions come and go through one pipeline: neither the
        compiled subscriptions nor their predicate pool pins what has
        been unsubscribed beyond twice the live set."""
        pipeline = ThematicMatcher(ThematicMeasure(space)).new_pipeline()
        event = parse_event("({transport}, {vehicle: traffic, speed: 3})")
        shared = Predicate(
            "vehicle", "bus", approx_attribute=True, approx_value=True
        )
        live: list[Subscription] = []
        for n in range(60):
            live.append(Subscription(
                theme=frozenset({"transport"}),
                predicates=(shared, Predicate("speed", n, operator=">")),
            ))
            if len(live) > 4:
                live.pop(0)
            pipeline.run(live, [event], deliver_threshold=0.5)
            distinct = {p for sub in live for p in sub.predicates}
            assert len(pipeline._compiled_subs) <= 2 * len(live)
            assert len(pipeline._predicates) <= 2 * len(distinct)


class _CountingMeasure:
    """Scalar measure double: records every ``score`` call."""

    def __init__(self, inner):
        self.inner = inner
        self.score_calls = []

    def score(self, term_s, theme_s, term_e, theme_e):
        self.score_calls.append((term_s, theme_s, term_e, theme_e))
        return self.inner.score(term_s, theme_s, term_e, theme_e)


class _CountingBatchMeasure(_CountingMeasure):
    """Double that declares itself ``vectorized``: the pipeline must
    route every lookup of a batch through one ``score_batch`` call."""

    vectorized = True

    def __init__(self, inner):
        super().__init__(inner)
        self.batch_calls = []

    def score_batch(self, lookups):
        lookups = list(lookups)
        self.batch_calls.append(lookups)
        return [self.inner.score(*lookup) for lookup in lookups]


@pytest.mark.parametrize("batch_size", (3, 1))
@pytest.mark.parametrize(
    "mode", ({}, {"scores_only": True}, {"deliver_threshold": 0.5}),
    ids=("full", "scores_only", "gated"),
)
class TestScoringSchedule:
    """When the measure is asked, in every mode and for a batch of one:
    misses are queued on the walk and scored together, never on touch."""

    SUBS = [
        parse_subscription("({transport}, {vehicle~= bus~, sensor~= ozone~})"),
        parse_subscription("({environment}, {pollutant~= smog~})"),
    ]
    EVENTS = [
        parse_event("({transport}, {vehicle: traffic, sensor: smog, speed: 3})"),
        parse_event("({transport}, {vehicle: traffic, unit: ozone})"),
        parse_event("({environment}, {pollutant: ozone, type: bus})"),
    ]

    def test_vectorized_measure_gets_one_bulk_call(self, space, mode, batch_size):
        evts = self.EVENTS[:batch_size]
        measure = _CountingBatchMeasure(ThematicMeasure(space))
        engine = ThematicMatcher(measure)
        cold = engine.match_batch(self.SUBS, evts, **mode)
        assert cold.stats.unique_term_pairs > 0
        assert len(measure.batch_calls) == 1
        assert len(measure.batch_calls[0]) == cold.stats.unique_term_pairs
        warm = engine.match_batch(self.SUBS, evts, **mode)
        assert len(measure.batch_calls) == 1  # warm tables: no call
        assert measure.score_calls == []
        assert warm.scores == cold.scores

    def test_scalar_measure_gets_one_call_per_unique_lookup(
        self, space, mode, batch_size
    ):
        evts = self.EVENTS[:batch_size]
        measure = _CountingMeasure(ThematicMeasure(space))
        engine = ThematicMatcher(measure)
        cold = engine.match_batch(self.SUBS, evts, **mode)
        calls = list(measure.score_calls)
        # Walked more than once, asked once per (table, term pair).
        assert cold.stats.term_pairs >= len(calls) > 0
        assert len(calls) == cold.stats.unique_term_pairs
        assert len(set(calls)) == len(calls)
        warm = engine.match_batch(self.SUBS, evts, **mode)
        assert measure.score_calls == calls  # warm tables: no call
        assert warm.scores == cold.scores
        reference = pairwise_match_batch(
            ThematicMatcher(ThematicMeasure(space)), self.SUBS, evts
        ).scores
        threshold = mode.get("deliver_threshold")
        if threshold is not None:
            # Gated: exact at or above the threshold, 0.0 below it.
            reference = [
                [score if score >= threshold else 0.0 for score in row]
                for row in reference
            ]
        assert cold.scores == reference


    def test_chunked_batch_equals_unchunked(
        self, space, mode, batch_size, monkeypatch
    ):
        """A batch larger than the pipeline's chunk runs fill → score →
        assign per chunk; scores, results and the dedup (each lookup
        scored once per batch) must not depend on where chunks fall."""
        from repro.core import pipeline

        evts = self.EVENTS[:batch_size]
        whole = ThematicMatcher(ThematicMeasure(space)).match_batch(
            self.SUBS, evts, **mode
        )
        monkeypatch.setattr(pipeline, "_CHUNK", 2)
        measure = _CountingMeasure(ThematicMeasure(space))
        chunked = ThematicMatcher(measure).match_batch(self.SUBS, evts, **mode)
        assert chunked.scores == whole.scores
        assert chunked.stats.unique_term_pairs == whole.stats.unique_term_pairs
        assert len(measure.score_calls) == whole.stats.unique_term_pairs
        if whole.results is not None:
            for i in range(len(self.SUBS)):
                for j in range(len(evts)):
                    ours, ref = chunked.result(i, j), whole.result(i, j)
                    assert (ours is None) == (ref is None)
                    if ours is not None:
                        assert ours.mapping == ref.mapping


class _HalfMeasure:
    """Every semantic lookup scores exactly 0.5."""

    def score(self, term_s, theme_s, term_e, theme_e):
        return 0.5


def test_pair_scoring_exactly_the_threshold_is_delivered():
    """Two cells of exactly 0.5 give a score of exactly 0.5 (and a
    row-max bound of exactly 0.5): the bound must not reject it."""
    matcher = ThematicMatcher(_HalfMeasure(), calibration=None, threshold=0.5)
    engine = ThematicEventEngine(matcher)
    engine.subscribe(
        parse_subscription("({transport}, {vehicle= bus~, sensor= ozone~})"),
        lambda result: None,
    )
    delivered = engine.process(
        parse_event("({transport}, {vehicle: traffic, sensor: smog})")
    )
    assert [result.score for result in delivered] == [0.5]


class TestEngineDispatch:
    SUB = "({transport}, {vehicle~= bus~})"
    ANCHORED = "({transport}, {unit= microgram})"
    EVENT = "({transport}, {vehicle: bus})"

    def _engine(self, space):
        return ThematicEventEngine(ThematicMatcher(ThematicMeasure(space)))

    def test_snapshot_rebuilt_only_on_registration_change(self, space):
        engine = self._engine(space)
        engine.subscribe(parse_subscription(self.SUB), lambda result: None)
        first = engine._registrations()
        engine.process(parse_event(self.EVENT))
        assert engine._registrations() is first  # reused across events
        handle = engine.subscribe(parse_subscription(self.ANCHORED), lambda r: None)
        second = engine._registrations()
        assert second is not first
        engine.unsubscribe(handle)
        assert engine._registrations() is not second

    def test_prefilter_prunes_and_counts(self, space):
        engine = self._engine(space)
        engine.subscribe(parse_subscription(self.ANCHORED), lambda result: None)
        delivered = engine.process(parse_event(self.EVENT))
        assert delivered == []
        assert engine.stats.pruned == 1
        assert engine.stats.evaluations == 1  # counted despite the prune


class TestEngineStatsRegistry:
    def test_counters_live_in_the_registry(self):
        registry = MetricsRegistry()
        stats = EngineStats(registry)
        stats.inc("events_processed")
        stats.inc("deliveries", 3)
        assert stats.events_processed == 1
        assert stats.deliveries == 3
        snapshot = registry.snapshot()
        assert snapshot["counters"]["engine.events_processed"] == 1
        assert snapshot["counters"]["engine.deliveries"] == 3

    def test_snapshot_is_json_ready(self):
        stats = EngineStats()
        stats.inc("evaluations", 2)
        assert stats.snapshot() == {
            "events_processed": 0,
            "evaluations": 2,
            "deliveries": 0,
            "pruned": 0,
        }

    def test_engine_metrics_snapshot(self, space):
        matcher = ThematicMatcher(ThematicMeasure(space))
        engine = ThematicEventEngine(matcher)
        engine.subscribe(
            parse_subscription("({transport}, {vehicle~= bus~})"),
            lambda result: None,
        )
        engine.process(parse_event("({transport}, {vehicle: bus})"))
        snapshot = engine.metrics_snapshot()
        assert snapshot["events_processed"] == 1
        assert snapshot["evaluations"] == 1
        assert snapshot["deliveries"] == 1
