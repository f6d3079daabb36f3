"""Candidate filtering: the pipeline's one candidate stage, via the engine.

Arity and exact anchors are loss-free; the semantic anchors of the
``"semantic"`` / ``"ann"`` engine modes are lossy and opt-in. Engine
tests pin what is delivered and counted; :class:`BatchStats` pins which
check pruned a pair.
"""

import pytest

from repro.core.engine import EngineConfig, ThematicEventEngine
from repro.core.language import parse_event, parse_subscription
from repro.core.matcher import ThematicMatcher
from repro.core.pipeline import BatchStats
from repro.semantics.index import ApproxNeighborIndex
from repro.semantics.measures import CachedMeasure, ThematicMeasure

EVENT = parse_event(
    "({energy, appliances, building},"
    " {type: increased energy consumption event,"
    "  measurement unit: kilowatt hour, device: computer, office: room 112})"
)
MATCHING = parse_subscription(
    "({power, computers},"
    " {type= increased energy usage event~, device~= laptop~, office= room 112})"
)
WRONG_ANCHOR = parse_subscription(
    "({power}, {type= increased energy usage event~, office= room 999})"
)
TOO_BIG = parse_subscription(
    "({x}, {a~= b~, c~= d~, e~= f~, g~= h~, i~= j~, k~= l~})"
)
APPROXIMATE = parse_subscription("({power}, {type~= energy usage event~})")
UNRELATED = parse_event(
    "({social questions}, {type: meeting gathering, room: room 9})"
)


@pytest.fixture()
def matcher(space):
    return ThematicMatcher(CachedMeasure(ThematicMeasure(space)))


def engine_for(matcher, subscriptions, mode="exact"):
    engine = ThematicEventEngine(matcher, EngineConfig(prefilter_mode=mode))
    handles = [engine.subscribe(sub, lambda result: None) for sub in subscriptions]
    return engine, handles


def candidate_stats(matcher, subscriptions, event, neighborhoods=None) -> BatchStats:
    """The stage counts of the batch the engine runs for one event."""
    batch = matcher.new_pipeline(neighborhoods=neighborhoods).run(
        subscriptions, [event], prune_zero=True, deliver_threshold=matcher.threshold
    )
    return batch.stats


class TestTokenNeighborhoods:
    def test_unknown_term_is_self_only(self, matcher, space):
        """A value unknown to the space anchors only on itself: an event
        carrying that token survives the semantic check, any other is pruned."""
        hoods = ApproxNeighborIndex(space)
        assert hoods.neighbors("qqqzebra") == frozenset({"qqqzebra"})
        sub = parse_subscription("({power}, {device~= qqqzebra~})")
        same = parse_event("({energy}, {device: qqqzebra})")
        other = parse_event("({energy}, {device: computer})")
        kept = candidate_stats(matcher, [sub], same, hoods)
        assert kept.pruned_semantic == 0
        assert kept.candidates == 1
        pruned = candidate_stats(matcher, [sub], other, hoods)
        assert pruned.pruned_semantic == 1
        assert pruned.candidates == 0


class TestExactPhases:
    def test_arity_pruning(self, matcher):
        engine, _ = engine_for(matcher, [TOO_BIG])
        assert engine.process(EVENT) == []
        assert engine.stats.pruned == 1
        stats = candidate_stats(matcher, [TOO_BIG], EVENT)
        assert stats.pruned_arity == 1
        assert stats.candidates == 0

    def test_exact_anchor_pruning(self, matcher):
        engine, _ = engine_for(matcher, [WRONG_ANCHOR])
        assert engine.process(EVENT) == []
        assert engine.stats.pruned == 1
        stats = candidate_stats(matcher, [WRONG_ANCHOR], EVENT)
        assert stats.pruned_anchor == 1
        assert stats.candidates == 0

    def test_survivor_matches(self, matcher):
        engine, _ = engine_for(matcher, [MATCHING])
        assert [r.subscription for r in engine.process(EVENT)] == [MATCHING]
        assert engine.stats.deliveries == 1
        assert engine.stats.pruned == 0

    def test_remove(self, matcher):
        engine, [handle] = engine_for(matcher, [MATCHING], mode="semantic")
        assert engine.unsubscribe(handle)
        assert engine.process(EVENT) == []
        assert not engine.unsubscribe(handle)
        assert engine.subscription_count() == 0


class TestSemanticAnchors:
    def test_prunes_unrelated_event(self, matcher, space):
        engine, _ = engine_for(matcher, [APPROXIMATE], mode="semantic")
        assert engine.process(UNRELATED) == []
        assert engine.stats.pruned == 1
        stats = candidate_stats(
            matcher, [APPROXIMATE], UNRELATED, ApproxNeighborIndex(space)
        )
        assert stats.pruned_semantic == 1
        assert stats.pruned == 1

    def test_keeps_synonym_event(self, matcher):
        sub = parse_subscription("({power, computers}, {device~= laptop~})")
        engine, _ = engine_for(matcher, [sub], mode="semantic")
        event = parse_event("({energy}, {device: computer})")
        assert [r.subscription for r in engine.process(event)] == [sub]

    def test_exact_anchors_apply_at_threshold_zero(self, space):
        """At threshold 0.0 exact mode delivers zero-score pairs; the
        anchor modes still prune a missing exact anchor."""
        zero = ThematicMatcher(CachedMeasure(ThematicMeasure(space)), threshold=0.0)
        exact, _ = engine_for(zero, [WRONG_ANCHOR])
        assert [r.score for r in exact.process(EVENT)] == [0.0]
        assert exact.stats.pruned == 0
        anchored, _ = engine_for(zero, [WRONG_ANCHOR], mode="semantic")
        assert anchored.process(EVENT) == []
        assert anchored.stats.pruned == 1

    def test_recall_on_workload(self, matcher, tiny_workload):
        """The lossy phase must keep the vast majority of true matches
        at the default threshold."""
        subs = tiny_workload.subscriptions.approximate[:6]
        full, _ = engine_for(matcher, subs)
        lossy, _ = engine_for(matcher, subs, mode="semantic")
        kept = missed = 0
        for event in tiny_workload.events[:60]:
            exact = {id(r.subscription) for r in full.process(event)}
            filtered = {id(r.subscription) for r in lossy.process(event)}
            assert filtered <= exact
            kept += len(exact & filtered)
            missed += len(exact - filtered)
        assert kept > 0
        assert missed <= 0.1 * (kept + missed), (kept, missed)
