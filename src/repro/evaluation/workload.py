"""One-stop construction of the full evaluation workload (Figure 6).

Bundles every Figure 6 stage up to (but excluding) theme association:
corpus -> space, seeds -> expansion -> events, seeds -> subscriptions,
thesaurus -> ground truth. The result is immutable and shared by all
benches; two scales are predefined:

* ``small`` — the default: laptop-friendly sizes that preserve every
  qualitative shape of Section 5.3 (used by tests and default benches);
* ``paper`` — the paper's sizes (166 seeds, ~14.7k events,
  94 subscriptions, 30x30x5 theme grid); hours of CPython time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.events import Event
from repro.datasets.seeds import SeedConfig, generate_seed_events
from repro.evaluation.expansion import ExpandedEvent, ExpansionConfig, expand_events
from repro.evaluation.groundtruth import GroundTruth, build_ground_truth
from repro.evaluation.subscriptions import (
    SubscriptionConfig,
    SubscriptionSet,
    generate_subscriptions,
)
from repro.evaluation.themes import ThemeGridConfig
from repro.knowledge.corpus import CorpusConfig, build_corpus
from repro.knowledge.eurovoc import default_thesaurus
from repro.knowledge.rewrite import Canonicalizer
from repro.knowledge.thesaurus import Thesaurus
from repro.semantics.documents import DocumentSet
from repro.semantics.pvsm import ParametricVectorSpace

__all__ = ["WorkloadConfig", "Workload", "build_workload"]


@dataclass(frozen=True)
class WorkloadConfig:
    """All Figure 6 knobs in one place."""

    seeds: SeedConfig = field(default_factory=SeedConfig)
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)
    subscriptions: SubscriptionConfig = field(default_factory=SubscriptionConfig)
    themes: ThemeGridConfig = field(default_factory=ThemeGridConfig.small)

    @classmethod
    def small(cls) -> "WorkloadConfig":
        """Laptop-scale workload preserving the paper's shapes.

        Builds in about 0.5 s on a 2-vCPU x86 host (760 events, 271
        relevant pairs); ``import repro`` adds about 1 s more.
        """
        return cls(
            seeds=SeedConfig(count=48),
            expansion=ExpansionConfig(variants_per_seed=8, distractors_per_seed=8),
            subscriptions=SubscriptionConfig(count=24),
            themes=ThemeGridConfig.small(),
        )

    @classmethod
    def tiny(cls) -> "WorkloadConfig":
        """Test-suite scale: builds in about 0.2 s on a 2-vCPU x86 host."""
        return cls(
            seeds=SeedConfig(count=24),
            expansion=ExpansionConfig(variants_per_seed=5, distractors_per_seed=6),
            subscriptions=SubscriptionConfig(count=8),
            themes=ThemeGridConfig(
                event_sizes=(2, 6), subscription_sizes=(2, 6), samples_per_cell=1
            ),
        )

    @classmethod
    def paper(cls) -> "WorkloadConfig":
        """The paper's full dimensions (slow in CPython)."""
        return cls(
            seeds=SeedConfig(count=166),
            corpus=CorpusConfig.paper_scale(),
            expansion=ExpansionConfig.paper_scale(),
            subscriptions=SubscriptionConfig(count=94),
            themes=ThemeGridConfig.paper_scale(),
        )


@dataclass(frozen=True)
class Workload:
    """Everything a sub-experiment needs, fully materialized."""

    config: WorkloadConfig
    thesaurus: Thesaurus
    corpus: DocumentSet
    space: ParametricVectorSpace
    seeds: tuple[Event, ...]
    expanded: tuple[ExpandedEvent, ...]
    events: tuple[Event, ...]
    subscriptions: SubscriptionSet
    ground_truth: GroundTruth
    canonicalizer: Canonicalizer

    def summary(self) -> str:
        return (
            f"{len(self.seeds)} seeds -> {len(self.events)} expanded events, "
            f"{len(self.subscriptions)} subscriptions "
            f"({self.ground_truth.total_relevant_pairs()} relevant pairs), "
            f"corpus of {len(self.corpus)} documents"
        )


def build_workload(config: WorkloadConfig | None = None) -> Workload:
    """Materialize the Figure 6 pipeline for the given configuration.

    The ground truth is computed against the *approximate* subscription
    set — the sets actually evaluated in Section 5.3.
    """
    config = config if config is not None else WorkloadConfig.small()
    thesaurus = default_thesaurus()
    corpus = build_corpus(thesaurus, config.corpus)
    space = ParametricVectorSpace(corpus)
    seeds = generate_seed_events(config.seeds)
    expanded = expand_events(seeds, thesaurus, config.expansion)
    events = tuple(item.event for item in expanded)
    subscriptions = generate_subscriptions(seeds, config.subscriptions)
    canonicalizer = Canonicalizer(thesaurus, config.expansion.domains)
    ground_truth = build_ground_truth(
        subscriptions.approximate, events, canonicalizer
    )
    return Workload(
        config=config,
        thesaurus=thesaurus,
        corpus=corpus,
        space=space,
        seeds=seeds,
        expanded=expanded,
        events=events,
        subscriptions=subscriptions,
        ground_truth=ground_truth,
        canonicalizer=canonicalizer,
    )
