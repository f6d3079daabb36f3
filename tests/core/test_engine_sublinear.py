"""The sublinear-matching engine surface: anchor modes + score store.

Engine-level guarantees of the ANN prefilter and precomputed tier:

* ``prefilter_mode="ann"`` at ``ann_recall_target=1.0`` is bit-identical
  to ``"semantic"`` — same matches, same scores, same prune counts — on
  :class:`ThematicEventEngine` (hypothesis-driven over
  subscription/event samples), and a micro-batch delivers exactly what
  its events deliver one at a time;
* attaching a warmed score store never changes match results: a
  store-backed engine delivers exactly what the same engine without the
  store delivers when the matcher scores on the kernel float path the
  store was warmed on, and the same deliveries with scores within
  ``PARITY_TOLERANCE`` when it scores on the scalar path — whether the
  matcher's measure is bare or already a ``CachedMeasure``;
* every new config knob validates loudly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ExactMatcher, RewritingMatcher
from repro.core.engine import PREFILTER_MODES, EngineConfig, ThematicEventEngine
from repro.core.language import parse_event, parse_subscription
from repro.core.matcher import ThematicMatcher
from repro.semantics.documents import DocumentSet
from repro.semantics.kernel import PARITY_TOLERANCE
from repro.semantics.measures import (
    CachedMeasure,
    ExactMeasure,
    ThematicMeasure,
)
from repro.semantics.persistence import save_score_store
from repro.semantics.pvsm import ParametricVectorSpace
from repro.semantics.warm import build_score_store

EVENTS = [
    parse_event(
        "({energy, office},"
        " {type: increased energy consumption event, device: computer,"
        "  office: room 112})"
    ),
    parse_event("({energy}, {device: laptop, reading: 42})"),
    parse_event("({office}, {type: door open event, office: room 7})"),
    parse_event("({street}, {type: traffic jam, street: main street})"),
]

SUBSCRIPTIONS = [
    parse_subscription(
        "({energy}, {type= increased energy usage event~, device~= laptop~})"
    ),
    parse_subscription("({office}, {office= room 112})"),
    parse_subscription("({energy}, {device~= computer~})"),
    parse_subscription("({street}, {type~= traffic incident~})"),
]

subscription_samples = st.lists(
    st.sampled_from(SUBSCRIPTIONS), min_size=1, max_size=4, unique_by=id
)
event_samples = st.lists(
    st.sampled_from(EVENTS), min_size=1, max_size=4, unique_by=id
)


def result_signature(results):
    """Order-preserving, comparison-friendly view of match results."""
    return [
        (id(r.subscription), id(r.event), r.score, r.mapping.correspondences)
        for r in results
    ]


def anchored_engine(space, subs, **config):
    """An engine in an anchor mode with ``subs`` registered."""
    engine = ThematicEventEngine(
        ThematicMatcher(CachedMeasure(ThematicMeasure(space))),
        EngineConfig(**config),
    )
    for sub in subs:
        engine.subscribe(sub, lambda result: None)
    return engine


class TestTwoPhaseAnnParity:
    """Candidate stage, then full matching: the ANN-generated anchors
    against the exact-scan ones, one event at a time."""

    @settings(deadline=None, max_examples=15)
    @given(subs=subscription_samples, events=event_samples)
    def test_ann_at_recall_one_is_bit_identical(self, space, subs, events):
        semantic = anchored_engine(space, subs, prefilter_mode="semantic")
        ann = anchored_engine(
            space, subs, prefilter_mode="ann", ann_recall_target=1.0
        )
        for event in events:
            assert result_signature(semantic.process(event)) == (
                result_signature(ann.process(event))
            )
        assert semantic.stats.snapshot() == ann.stats.snapshot()

    def test_low_recall_never_invents_matches(self, space):
        semantic = anchored_engine(
            space, SUBSCRIPTIONS, prefilter_mode="semantic"
        )
        ann = anchored_engine(
            space,
            SUBSCRIPTIONS,
            prefilter_mode="ann",
            ann_recall_target=0.25,
        )
        for event in EVENTS:
            exact = set(result_signature(semantic.process(event)))
            assert set(result_signature(ann.process(event))) <= exact


class TestEngineAnchorModes:
    def deliveries(self, engine, events):
        return [result_signature(engine.process(e)) for e in events]

    def test_ann_at_recall_one_matches_semantic_mode(self, space):
        semantic = anchored_engine(space, SUBSCRIPTIONS, prefilter_mode="semantic")
        ann = anchored_engine(
            space, SUBSCRIPTIONS, prefilter_mode="ann", ann_recall_target=1.0
        )
        assert self.deliveries(semantic, EVENTS) == self.deliveries(ann, EVENTS)

    def test_batch_is_never_lossier_than_serial(self, space):
        """Anchors are decided per pair, so a batch is neither lossier
        nor looser than the same events one at a time: equal streams."""
        serial_engine = anchored_engine(
            space, SUBSCRIPTIONS, prefilter_mode="semantic"
        )
        serial = self.deliveries(serial_engine, EVENTS)
        batch_engine = anchored_engine(
            space, SUBSCRIPTIONS, prefilter_mode="semantic"
        )
        batched = [
            result_signature(block)
            for block in batch_engine.process_batch(EVENTS)
        ]
        assert batched == serial
        assert batch_engine.stats.pruned == serial_engine.stats.pruned

    def test_anchor_modes_prune_counter_moves(self, space):
        engine = anchored_engine(space, SUBSCRIPTIONS, prefilter_mode="semantic")
        self.deliveries(engine, EVENTS)
        assert engine.stats.pruned > 0

    def test_unsubscribe_keeps_anchor_index_consistent(self, space):
        engine = anchored_engine(space, (), prefilter_mode="ann")
        handles = [
            engine.subscribe(sub, lambda result: None)
            for sub in SUBSCRIPTIONS
        ]
        engine.unsubscribe(handles[0])
        results = engine.process(EVENTS[0])
        assert all(
            r.subscription is not SUBSCRIPTIONS[0] for r in results
        )


class TestStoreBackedEngine:
    @pytest.fixture()
    def store_path(self, space, tmp_path):
        subs = SUBSCRIPTIONS
        events = EVENTS
        theme_pairs = sorted(
            {
                (tuple(sorted(s.theme)), tuple(sorted(e.theme)))
                for s in subs
                for e in events
            }
        )
        store = build_score_store(space, subs, events, theme_pairs)
        path = tmp_path / "scores.bin"
        save_score_store(store, path)
        return path

    MEASURES = {
        "kernel": lambda space: ThematicMeasure(space, vectorized=True),
        "bare": ThematicMeasure,
        "cached": lambda space: CachedMeasure(ThematicMeasure(space)),
    }

    def engines(self, space, store_path, warm_on_start=False, measure="kernel"):
        build = self.MEASURES[measure]
        plain = ThematicEventEngine(
            ThematicMatcher(build(space)), EngineConfig()
        )
        stored = ThematicEventEngine(
            ThematicMatcher(build(space)),
            EngineConfig(
                score_store_path=str(store_path),
                warm_on_start=warm_on_start,
            ),
        )
        for engine in (plain, stored):
            for sub in SUBSCRIPTIONS:
                engine.subscribe(sub, lambda result: None)
        return plain, stored

    @pytest.mark.parametrize("warm_on_start", [False, True])
    def test_warmed_store_never_changes_match_results(
        self, space, store_path, warm_on_start
    ):
        plain, stored = self.engines(space, store_path, warm_on_start)
        for event in EVENTS:
            assert result_signature(plain.process(event)) == (
                result_signature(stored.process(event))
            )

    @pytest.mark.parametrize("measure", ["bare", "cached"])
    def test_scalar_measure_store_parity(
        self, space, store_path, measure
    ):
        plain, stored = self.engines(space, store_path, measure=measure)
        delivered = 0
        for event in EVENTS:
            expected, got = plain.process(event), stored.process(event)
            assert [(id(r.subscription), id(r.event)) for r in got] == [
                (id(r.subscription), id(r.event)) for r in expected
            ]
            for mine, theirs in zip(got, expected, strict=True):
                assert abs(mine.score - theirs.score) <= PARITY_TOLERANCE
                assert [
                    (c.predicate_index, c.tuple_index)
                    for c in mine.mapping.correspondences
                ] == [
                    (c.predicate_index, c.tuple_index)
                    for c in theirs.mapping.correspondences
                ]
            delivered += len(got)
        assert delivered > 0
        counters = stored.stats.registry.snapshot()["counters"]
        assert counters["score_store.hits"] > 0
        # The caller's matcher keeps its own measure; only the engine's
        # copy gained the store-backed memo.
        assert isinstance(stored.matcher.measure, CachedMeasure)
        assert stored.matcher.measure.cache.backing is stored.score_store

    def test_store_is_actually_consulted(self, space, store_path):
        _, stored = self.engines(space, store_path)
        for event in EVENTS:
            stored.process(event)
        counters = stored.stats.registry.snapshot()["counters"]
        assert counters["score_store.hits"] > 0

    def test_store_exposed_on_engine(self, space, store_path):
        _, stored = self.engines(space, store_path)
        assert stored.score_store is not None

    def test_store_from_another_corpus_is_rejected(self, space, store_path):
        other = ParametricVectorSpace(
            DocumentSet.from_texts(["energy power grid", "office room desk"])
        )
        with pytest.raises(ValueError, match="digest mismatch"):
            ThematicEventEngine(
                ThematicMatcher(CachedMeasure(ThematicMeasure(other))),
                EngineConfig(score_store_path=str(store_path)),
            )


class TestConfigValidation:
    def test_unknown_prefilter_mode_rejected(self):
        matcher = ThematicMatcher(ExactMeasure())
        with pytest.raises(ValueError, match="unknown prefilter mode"):
            ThematicEventEngine(
                matcher, EngineConfig(prefilter_mode="fuzzy")
            )

    def test_modes_snapshot(self):
        assert PREFILTER_MODES == ("exact", "semantic", "ann")

    def test_warm_on_start_needs_a_store_path(self):
        matcher = ThematicMatcher(ExactMeasure())
        with pytest.raises(ValueError, match="score_store_path"):
            ThematicEventEngine(matcher, EngineConfig(warm_on_start=True))

    def test_semantic_mode_needs_a_space(self):
        matcher = ThematicMatcher(ExactMeasure())
        with pytest.raises(ValueError, match="semantic space"):
            ThematicEventEngine(
                matcher, EngineConfig(prefilter_mode="semantic")
            )

    @pytest.mark.parametrize("mode", ["semantic", "ann"])
    @pytest.mark.parametrize("baseline", ["exact", "rewriting"])
    def test_anchor_modes_need_a_thematic_matcher_family(
        self, thesaurus, baseline, mode
    ):
        matcher = (
            ExactMatcher() if baseline == "exact" else RewritingMatcher(thesaurus)
        )
        with pytest.raises(ValueError, match="ThematicMatcher-family"):
            ThematicEventEngine(matcher, EngineConfig(prefilter_mode=mode))

    def test_store_path_needs_a_thematic_matcher_family(self, tmp_path):
        class Opaque:
            threshold = 0.5

            def match_batch(self, subs, events, scores_only=False):
                return []

        with pytest.raises(ValueError, match="ThematicMatcher-family"):
            ThematicEventEngine(
                Opaque(),
                EngineConfig(score_store_path=str(tmp_path / "s.bin")),
            )
