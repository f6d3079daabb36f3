"""Offline warming of the precomputed-relatedness tier.

The ``repro warm-cache`` pipeline lives here: enumerate the workload's
term vocabulary, plan the deduplicated ``(term, theme)`` cross-product,
score it through the vectorized kernel, and freeze the result into a
:class:`~repro.semantics.cache.PersistentScoreStore` snapshot the
engine's ``score_store_path`` knob attaches at boot.

Scoring shards over a spawn pool: the parent writes the space's
columnar arrays once to a binary snapshot
(:func:`~repro.semantics.persistence.save_columnar`), each spawned
worker attaches zero-copy via ``np.memmap`` and scores its slice of
lookups through :class:`~repro.semantics.kernel.KernelMeasure` — the
identical arrays and float path the in-process kernel takes, so a
sharded warm produces bit-identical scores to ``workers=0``. Scores agree with the scalar
``SparseVector`` path within the documented kernel tolerance (see
:mod:`repro.semantics.kernel`), which is the parity the warmed-store
test suite pins down.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable, Sequence

from repro.core.events import Event
from repro.core.subscriptions import Subscription
from repro.semantics.cache import (
    CacheKey,
    PersistentScoreStore,
    RelatednessCache,
    cache_key,
)
from repro.semantics.pvsm import ParametricVectorSpace, theme_key
from repro.semantics.tokenize import normalize_term

__all__ = [
    "workload_vocabulary",
    "plan_lookups",
    "warm_score_table",
    "build_score_store",
]

#: One scoring call per worker covers this many lookups; small enough to
#: keep all workers busy on uneven tails, large enough that the per-call
#: pickle overhead disappears behind kernel time.
_CHUNK = 2048


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


# -- spawn-pool workers -----------------------------------------------------

#: Per-worker kernel measure, built once by the pool initializer so the
#: columnar attach and idf precompute are not repeated per chunk.
_WORKER_MEASURE = None


def _warm_worker_init(
    space_path: str,
    digest: str,
    normalize: bool,
    metric: str,
    recompute_idf: bool,
    mode: str,
) -> None:
    """Pool initializer: attach the columnar snapshot, build the kernel."""
    global _WORKER_MEASURE
    from repro.semantics.kernel import KernelMeasure, RelatednessKernel
    from repro.semantics.persistence import load_columnar

    columnar, _ = load_columnar(space_path, expected_digest=digest)
    kernel = RelatednessKernel(
        columnar,
        normalize=normalize,
        metric=metric,
        recompute_idf=recompute_idf,
    )
    _WORKER_MEASURE = KernelMeasure(kernel, mode=mode)


def _warm_worker_score(chunk: list) -> list[float]:
    """Score one chunk of lookups in the worker's kernel measure."""
    return _WORKER_MEASURE.score_batch(chunk)


def warm_score_table(
    space: ParametricVectorSpace,
    lookups: Sequence[tuple[str, tuple[str, ...], str, tuple[str, ...]]],
    *,
    mode: str = "common",
    workers: int = 0,
) -> RelatednessCache:
    """Score every lookup through the vectorized kernel, into a
    pre-filled :class:`~repro.semantics.cache.RelatednessCache`.

    ``workers=0`` scores in-process (one kernel, chunked batches);
    ``workers>0`` spawns that many processes over the columnar-snapshot
    seam described in the module docstring. Both paths take the same
    kernel float path, so the resulting tables are bit-identical.
    """
    lookups = list(lookups)
    scores: list[float] = []
    chunks = [
        lookups[start : start + _CHUNK]
        for start in range(0, len(lookups), _CHUNK)
    ]
    if workers <= 0 or len(chunks) <= 1:
        from repro.semantics.kernel import KernelMeasure

        measure = KernelMeasure(space.kernel(), mode=mode)
        for chunk in chunks:
            scores.extend(measure.score_batch(chunk))
    else:
        import concurrent.futures
        import multiprocessing

        from repro.semantics.persistence import corpus_digest, save_columnar

        digest = corpus_digest(space.documents)
        handle, space_path = tempfile.mkstemp(suffix=".repro-columnar")
        try:
            # Inside the try: every statement between mkstemp and the
            # finally is a window where an exception would leak the
            # temp file (RL801).
            os.close(handle)
            save_columnar(space.columnar(), space_path, digest=digest)
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, len(chunks)),
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_warm_worker_init,
                initargs=(
                    space_path,
                    digest,
                    space.normalize,
                    space.metric,
                    getattr(space, "recompute_idf", True),
                    mode,
                ),
            ) as pool:
                for part in pool.map(_warm_worker_score, chunks):
                    scores.extend(part)
        finally:
            os.unlink(space_path)
    return RelatednessCache(
        {
            cache_key(*lookup): score
            for lookup, score in zip(lookups, scores, strict=True)
        }
    )


def build_score_store(
    space: ParametricVectorSpace,
    subscriptions: Iterable[Subscription],
    events: Iterable[Event],
    theme_pairs: Iterable[tuple[Iterable[str], Iterable[str]]],
    *,
    mode: str = "common",
    workers: int = 0,
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
    table = warm_score_table(space, lookups, mode=mode, workers=workers)
    return PersistentScoreStore.build(
        table.scores, corpus_digest=corpus_digest(space.documents)
    )
