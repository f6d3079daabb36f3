"""P16 — the prior-work comparison recapped in Section 5.

Paper (experiments inherited from [16], 50% degree of approximation):

* approximate matching delivers 94-97% F1 vs 89-92% for WordNet-style
  query rewriting;
* with *precomputed* esa scores the approximate matcher reaches ~91,000
  events/sec vs ~19,100 for rewriting (runtime-computed relatedness is
  the slow mode at ~202 ev/s).

The bench rebuilds that setting: 50%-approximated subscriptions, the
non-thematic matcher in runtime and precomputed modes, and the
knowledge-base-rewriting matcher in per-pair mode (the deployment style
the paper timed). The rewriting matcher runs against a **WordNet-like
view** of the thesaurus: no related-term links (WordNet has synsets, not
EuroVoc's RT links) and a fraction of domain-specific synonyms missing
(WordNet's coverage of technical IoT vocabulary is partial). Handing
rewriting the full expansion thesaurus would make it an oracle the real
WordNet comparator never was. Asserted shapes: approximate F1 >=
rewriting F1, and precomputed >> runtime throughput.
"""

import random

import pytest

from repro.baselines import NonThematicMatcher, RewritingMatcher
from repro.knowledge.thesaurus import Concept, MicroThesaurus, Thesaurus
from repro.core.matcher import ThematicMatcher
from repro.evaluation import (
    SubscriptionConfig,
    build_ground_truth,
    effectiveness,
    format_comparison,
    generate_subscriptions,
    measure_throughput,
)
from repro.semantics import CachedMeasure, ExactMeasure, precompute_scores
from repro.semantics.measures import NonThematicMeasure


def wordnet_like_view(thesaurus: Thesaurus, *, drop: float = 0.18, seed: int = 5):
    """A degraded copy: every synonym survives with prob ``1 - drop``."""
    rng = random.Random(seed)
    micros = []
    for domain in thesaurus.domains():
        micro = thesaurus.micro(domain)
        concepts = tuple(
            Concept(
                concept.preferred,
                tuple(a for a in concept.alternatives if rng.random() >= drop),
                related=(),
            )
            for concept in micro.concepts
        )
        micros.append(
            MicroThesaurus(micro.name, micro.top_terms, concepts)
        )
    return Thesaurus(micros)


@pytest.fixture(scope="module")
def half_degree(workload):
    """50%-approximation subscription set plus its ground truth."""
    subs = generate_subscriptions(
        workload.seeds,
        SubscriptionConfig(
            count=min(16, workload.config.subscriptions.count),
            degree_of_approximation=0.5,
            seed=77,
        ),
    )
    truth = build_ground_truth(
        subs.approximate, workload.events, workload.canonicalizer
    )
    return subs, truth


def score_all(matcher, subs, events):
    return [[matcher.score(sub, event) for event in events] for sub in subs]


def test_prior_work_comparison(benchmark, workload, half_degree, bench_artifact):
    subs, truth = half_degree
    events = workload.events

    # -- effectiveness: approximate vs rewriting -----------------------------
    approximate = NonThematicMatcher(workload.space)
    approx_scores = score_all(approximate, subs.approximate, events)
    approx_f1 = effectiveness(approx_scores, truth.relevant_sets).max_f1

    rewriting = RewritingMatcher(wordnet_like_view(workload.thesaurus))
    rewrite_scores = score_all(rewriting, subs.approximate, events)
    rewriting_f1 = effectiveness(rewrite_scores, truth.relevant_sets).max_f1

    # -- throughput: runtime vs precomputed vs rewriting ---------------------
    sub_terms = [t for sub in subs.approximate for t in sub.terms()]
    event_terms = [t for event in events for t in event.terms()]
    table = precompute_scores(
        NonThematicMeasure(workload.space), sub_terms, event_terms
    )
    precomputed = ThematicMatcher(CachedMeasure(ExactMeasure(), table))

    runtime_cold = NonThematicMatcher(workload.space, cached=False)
    probe_subs = subs.approximate[:4]
    probe_events = events[: min(len(events), 200)]

    def run_matcher(matcher) -> int:
        for event in probe_events:
            for sub in probe_subs:
                matcher.score(sub, event)
        return len(probe_events)

    runtime_throughput = measure_throughput(lambda: run_matcher(runtime_cold))
    rewriting_throughput = measure_throughput(lambda: run_matcher(rewriting))
    precomputed_throughput = benchmark.pedantic(
        lambda: measure_throughput(lambda: run_matcher(precomputed)),
        rounds=1,
        iterations=1,
    )

    print()
    print(
        format_comparison(
            [
                ("approximate F1 (50% approx)", "94-97%", f"{approx_f1:.1%}"),
                ("rewriting F1 (50% approx)", "89-92%", f"{rewriting_f1:.1%}"),
                ("precomputed approx throughput", "~91,000 ev/s",
                 f"{precomputed_throughput.events_per_second:.0f} ev/s"),
                ("rewriting throughput", "~19,100 ev/s",
                 f"{rewriting_throughput.events_per_second:.0f} ev/s"),
                ("runtime approx throughput", "~202 ev/s",
                 f"{runtime_throughput.events_per_second:.0f} ev/s"),
            ],
            title="P16 prior-work comparison (Section 5)",
        )
    )

    bench_artifact(
        "prior_work16",
        {
            "approximate_f1": approx_f1,
            "rewriting_f1": rewriting_f1,
            "precomputed_events_per_second":
                precomputed_throughput.events_per_second,
            "rewriting_events_per_second":
                rewriting_throughput.events_per_second,
            "runtime_events_per_second": runtime_throughput.events_per_second,
        },
    )

    # Shapes: who wins.
    assert approx_f1 >= rewriting_f1 - 1e-9, (
        "approximate matching must not lose to rewriting on F1"
    )
    assert (
        precomputed_throughput.events_per_second
        > 2 * runtime_throughput.events_per_second
    ), "precomputed scores must be much faster than runtime relatedness"
