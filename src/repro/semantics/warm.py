"""Offline warming of the precomputed-relatedness tier.

The ``repro warm-cache`` pipeline lives here: enumerate the workload's
term vocabulary, plan the deduplicated ``(term, theme)`` cross-product,
score it in process with the scalar
:class:`~repro.semantics.measures.ThematicMeasure`, and freeze the result
into a :class:`~repro.semantics.cache.PersistentScoreStore` snapshot the
engine's ``score_store_path`` knob attaches at boot.

The warmer scores with the same measure and float path the engine uses
online, so a warmed store answers every planned lookup with exactly the
score the unwarmed engine would compute — no tolerance.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.events import Event
from repro.core.subscriptions import Subscription
from repro.semantics.cache import (
    CacheKey,
    PersistentScoreStore,
    RelatednessCache,
    cache_key,
)
from repro.semantics.measures import ThematicMeasure
from repro.semantics.pvsm import ParametricVectorSpace, theme_key
from repro.semantics.tokenize import normalize_term

__all__ = [
    "workload_vocabulary",
    "plan_lookups",
    "warm_score_table",
    "build_score_store",
]


def workload_vocabulary(
    subscriptions: Iterable[Subscription], events: Iterable[Event]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(subscription terms, event terms)`` of a workload, sorted.

    Terms come from :meth:`Subscription.terms` / :meth:`Event.terms`
    (predicate attributes and string values; payload attributes and
    string values). The cross-product of the two sides is exactly the
    lookup population a warmed store can be asked for at match time.
    """
    sub_terms = sorted({t for s in subscriptions for t in s.terms()})
    event_terms = sorted({t for e in events for t in e.terms()})
    return tuple(sub_terms), tuple(event_terms)


def plan_lookups(
    subscription_terms: Sequence[str],
    event_terms: Sequence[str],
    theme_pairs: Iterable[tuple[Iterable[str], Iterable[str]]],
) -> list[tuple[str, tuple[str, ...], str, tuple[str, ...]]]:
    """The deduplicated cross-product of terms and theme pairs.

    One lookup per distinct symmetric cache key: identical normalized
    terms are skipped (every measure short-circuits them to 1.0, so the
    store never needs them) and ``(s, e)`` / ``(e, s)`` collapse to one
    entry, exactly as :func:`~repro.semantics.cache.cache_key` does.
    """
    seen: set[CacheKey] = set()
    lookups: list[tuple[str, tuple[str, ...], str, tuple[str, ...]]] = []
    pairs = [
        (theme_key(theme_s), theme_key(theme_e))
        for theme_s, theme_e in theme_pairs
    ]
    for theme_s, theme_e in pairs:
        for term_s in subscription_terms:
            norm_s = normalize_term(term_s)
            for term_e in event_terms:
                if norm_s == normalize_term(term_e):
                    continue
                key = cache_key(term_s, theme_s, term_e, theme_e)
                if key in seen:
                    continue
                seen.add(key)
                lookups.append((term_s, theme_s, term_e, theme_e))
    return lookups


def warm_score_table(
    space: ParametricVectorSpace,
    lookups: Sequence[tuple[str, tuple[str, ...], str, tuple[str, ...]]],
    *,
    mode: str = "common",
) -> RelatednessCache:
    """Score every lookup with :class:`ThematicMeasure`, into a
    pre-filled :class:`~repro.semantics.cache.RelatednessCache`.

    The measure is the one the engine scores with online, so every
    entry equals the online score exactly.
    """
    measure = ThematicMeasure(space, mode=mode)
    return RelatednessCache(
        {cache_key(*lookup): measure.score(*lookup) for lookup in lookups}
    )


def build_score_store(
    space: ParametricVectorSpace,
    subscriptions: Iterable[Subscription],
    events: Iterable[Event],
    theme_pairs: Iterable[tuple[Iterable[str], Iterable[str]]],
    *,
    mode: str = "common",
) -> PersistentScoreStore:
    """The whole offline pipeline in one call.

    Enumerates the vocabulary, warms the space's projection caches
    (:meth:`~ParametricVectorSpace.warm`), plans and scores the
    deduplicated cross-product, and freezes it into a store stamped with
    the space's corpus digest — ready for
    :meth:`~PersistentScoreStore.save`.
    """
    from repro.semantics.persistence import corpus_digest

    theme_pairs = list(theme_pairs)
    sub_terms, event_terms = workload_vocabulary(subscriptions, events)
    themes = [t for pair in theme_pairs for t in pair]
    space.warm(set(sub_terms) | set(event_terms), themes)
    lookups = plan_lookups(sub_terms, event_terms, theme_pairs)
    table = warm_score_table(space, lookups, mode=mode)
    return PersistentScoreStore.build(
        table.scores, corpus_digest=corpus_digest(space.documents)
    )
