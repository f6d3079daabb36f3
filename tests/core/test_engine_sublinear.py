"""The sublinear-matching engine surface: anchor modes + score store.

Engine-level checks the delivery oracle (``tests/test_oracle.py``) does
not make:

* the anchor modes actually prune (the prune counter moves);
* a warmed score store is consulted, bound to its corpus, and — when the
  matcher scores on the scalar path rather than the kernel float path
  the store was warmed on — delivers the same pairs with scores within
  ``PARITY_TOLERANCE``, whether the matcher's measure is bare or already
  a ``CachedMeasure``;
* every new config knob validates loudly.
"""

import pytest

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

def anchored_engine(space, subs, **config):
    """An engine in an anchor mode with ``subs`` registered."""
    engine = ThematicEventEngine(
        ThematicMatcher(CachedMeasure(ThematicMeasure(space))),
        EngineConfig(**config),
    )
    for sub in subs:
        engine.subscribe(sub, lambda result: None)
    return engine


class TestEngineAnchorModes:
    def test_anchor_modes_prune_counter_moves(self, space):
        engine = anchored_engine(space, SUBSCRIPTIONS, prefilter_mode="semantic")
        for event in EVENTS:
            engine.process(event)
        assert engine.stats.pruned > 0


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

    def engines(self, space, store_path, measure="kernel"):
        build = self.MEASURES[measure]
        plain = ThematicEventEngine(
            ThematicMatcher(build(space)), EngineConfig()
        )
        stored = ThematicEventEngine(
            ThematicMatcher(build(space)),
            EngineConfig(score_store_path=str(store_path)),
        )
        for engine in (plain, stored):
            for sub in SUBSCRIPTIONS:
                engine.subscribe(sub, lambda result: None)
        return plain, stored

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
