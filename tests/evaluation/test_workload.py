"""Tests for workload construction (Figure 6 pipeline)."""

import hashlib
import json

from repro.baselines.rewriting import rewrite_subscription
from repro.core.codec import event_to_dict, subscription_to_dict
from repro.evaluation.workload import WorkloadConfig, build_workload

#: sha256 of the tiny workload's events, expansion metadata, approximate
#: subscriptions and ground truth (258 events, 56 relevant pairs). Any
#: change to the generator, the expansion or the thesaurus tables shows
#: here, even one that every build in a process would share.
TINY_WORKLOAD_SHA256 = (
    "5e9bd5883b8869bedcc33d3935d6b14a4ef4ae2e08668503fce584d5f92bcee7"
)

#: sha256 of ``rewrite_subscription`` over the tiny workload's approximate
#: subscriptions (5,333 rewrites).
TINY_REWRITES_SHA256 = (
    "edeb5294df15bde443ca4241d6f91d7c3aa2bf3b5e85e7840f324936e00619f3"
)


def _sha256(document) -> str:
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


class TestConfigs:
    def test_tiny_smaller_than_small(self):
        tiny, small = WorkloadConfig.tiny(), WorkloadConfig.small()
        assert tiny.seeds.count < small.seeds.count
        assert tiny.subscriptions.count < small.subscriptions.count

    def test_paper_matches_paper_dimensions(self):
        paper = WorkloadConfig.paper()
        assert paper.seeds.count == 166
        assert paper.subscriptions.count == 94
        assert paper.themes.samples_per_cell == 5
        variants = paper.expansion
        assert variants.variants_per_seed + variants.distractors_per_seed == 89


class TestBuildWorkload:
    def test_tiny_workload_consistent(self, tiny_workload):
        wl = tiny_workload
        assert len(wl.seeds) == wl.config.seeds.count
        assert len(wl.events) == len(wl.expanded)
        assert len(wl.ground_truth.relevant_sets) == len(wl.subscriptions)

    def test_every_subscription_has_relevant_events(self, tiny_workload):
        # Variant 0 of the matching seed is always relevant.
        for relevant in tiny_workload.ground_truth.relevant_sets:
            assert relevant

    def test_events_carry_no_theme_yet(self, tiny_workload):
        for event in tiny_workload.events[:20]:
            assert event.theme == frozenset()

    def test_summary_mentions_sizes(self, tiny_workload):
        summary = tiny_workload.summary()
        assert str(len(tiny_workload.events)) in summary
        assert str(len(tiny_workload.seeds)) in summary

    def test_distractors_present(self, tiny_workload):
        assert any(item.distractor for item in tiny_workload.expanded)

    def test_deterministic(self, tiny_workload):
        rebuilt = build_workload(WorkloadConfig.tiny())
        assert rebuilt.events == tiny_workload.events
        assert rebuilt.subscriptions == tiny_workload.subscriptions
        assert (
            rebuilt.ground_truth.relevant_sets
            == tiny_workload.ground_truth.relevant_sets
        )

    def test_pinned_digest(self, tiny_workload):
        # Build after the fixture has warmed every shared table, so a
        # table that carried state from one build into the next would
        # change the digest.
        for wl in (tiny_workload, build_workload(WorkloadConfig.tiny())):
            document = {
                "events": [event_to_dict(e) for e in wl.events],
                "expanded": [
                    [item.seed_index, item.replacements, item.distractor]
                    for item in wl.expanded
                ],
                "approximate": [
                    subscription_to_dict(s) for s in wl.subscriptions.approximate
                ],
                "relevant": [sorted(r) for r in wl.ground_truth.relevant_sets],
            }
            assert _sha256(document) == TINY_WORKLOAD_SHA256

    def test_pinned_rewrites(self, tiny_workload):
        thesaurus = tiny_workload.thesaurus
        rewrites = [
            [subscription_to_dict(r) for r in rewrite_subscription(s, thesaurus)]
            for s in tiny_workload.subscriptions.approximate
        ]
        assert sum(map(len, rewrites)) == 5333
        assert _sha256(rewrites) == TINY_REWRITES_SHA256
