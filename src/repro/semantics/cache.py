"""Caching layers for relatedness scores.

Three tiers back the efficiency story of the paper:

* :class:`RelatednessCache` — an online memo for ``sm`` calls; the
  matcher repeatedly scores the same (term, theme) pairs across events,
  so hit rates are high on realistic workloads.
* :class:`PrecomputedScoreTable` — an offline table of all pairwise
  scores between a subscription vocabulary and an event vocabulary, the
  mode that lets the prior-work approximate matcher reach ~91,000
  events/sec (Section 5). Built with :func:`precompute_scores`.
* :class:`PersistentScoreStore` — the durable form of the offline
  table: sorted 128-bit key-hash arrays plus a score column, written
  through the versioned snapshot machinery in
  :mod:`repro.semantics.persistence` and mapped back read-only, so a
  warmed broker boots its precomputed tier from disk without
  rebuilding (``repro warm-cache`` produces the file). Lookups are
  hash + binary search; the snapshot carries the corpus digest so a
  store can never be consulted against a space built from a different
  corpus.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import MetricsRegistry
from repro.semantics.pvsm import theme_key
from repro.semantics.tokenize import normalize_term

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.semantics.measures import SemanticMeasure

__all__ = [
    "RelatednessCache",
    "PrecomputedScoreTable",
    "PersistentScoreStore",
    "precompute_scores",
]

#: A fully-normalized cache key: the two (term, theme) halves, sorted so
#: the key is symmetric (the measures are symmetric functions).
CacheKey = tuple[tuple[str, tuple[str, ...]], tuple[str, tuple[str, ...]]]


def _half(term: str, theme: Iterable[str]) -> tuple[str, tuple[str, ...]]:
    return (normalize_term(term), theme_key(theme))


@dataclass
class RelatednessCache:
    """Symmetric memo of relatedness scores with hit counters.

    Unbounded by default (the historical behaviour); pass
    ``max_entries`` to cap memory on long-running brokers — eviction is
    LRU (hits refresh recency), so the working set of a steady workload
    stays resident while one-off pairs age out.

    Lookups and inserts hold an internal lock: a cache is typically the
    one measure-level object *shared* across the sharded broker's worker
    threads, and the bounded mode's delete-and-reinsert recency refresh
    is not atomic without one.
    """

    _scores: dict[CacheKey, float] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    max_entries: int | None = None
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.max_entries is not None and self.max_entries < 1:
            raise ValueError("max_entries must be positive (or None)")

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo; 0.0 before any."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def key(
        self,
        term_s: str,
        theme_s: Iterable[str],
        term_e: str,
        theme_e: Iterable[str],
    ) -> CacheKey:
        left, right = _half(term_s, theme_s), _half(term_e, theme_e)
        return (left, right) if left <= right else (right, left)

    def get(self, key: CacheKey) -> float | None:
        with self._lock:
            value = self._scores.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                if self.max_entries is not None:
                    # Refresh recency: dicts iterate in insertion order, so
                    # re-inserting moves the key to the "young" end.
                    del self._scores[key]
                    self._scores[key] = value
            return value

    def put(self, key: CacheKey, value: float) -> None:
        with self._lock:
            if self.max_entries is not None and key not in self._scores:
                while len(self._scores) >= self.max_entries:
                    self._scores.pop(next(iter(self._scores)))
            self._scores[key] = value

    def __len__(self) -> int:
        with self._lock:
            return len(self._scores)

    def clear(self) -> None:
        with self._lock:
            self._scores.clear()
            self.hits = 0
            self.misses = 0


@dataclass
class PrecomputedScoreTable:
    """Immutable-by-convention table of offline-computed scores.

    Keys are symmetric (term, theme)-pair tuples like the online cache's;
    lookups never mutate the table, making it safe to share across
    matcher instances and threads.
    """

    scores: dict[CacheKey, float] = field(default_factory=dict)

    def get(
        self,
        term_s: str,
        theme_s: Iterable[str],
        term_e: str,
        theme_e: Iterable[str],
    ) -> float | None:
        left, right = _half(term_s, theme_s), _half(term_e, theme_e)
        key = (left, right) if left <= right else (right, left)
        return self.scores.get(key)

    def __len__(self) -> int:
        return len(self.scores)


#: Distinguishes "memoized as a miss" (None) from "never looked up".
_UNRESOLVED = object()

#: Big-endian (hi, lo) split of a 16-byte digest.
_UNPACK_HILO = struct.Struct(">QQ").unpack


@lru_cache(maxsize=65536)
def _encode_half(half: tuple[str, tuple[str, ...]]) -> str:
    """Wire form of one (term, theme) key half; memoized — halves repeat
    across lookups far more than whole keys do (the subscription side of
    a stream is often one vocabulary under one theme set)."""
    term, theme = half
    return term + "\x1f" + "\x1e".join(theme)


def _hash_key(key: CacheKey) -> tuple[int, int]:
    """128-bit content hash of a canonical cache key (hi, lo halves).

    The encoding separates terms, theme tags, and the two halves with
    distinct control characters so no two well-formed keys share an
    encoding; blake2b at 16 bytes makes accidental collisions across
    even billion-entry stores negligible.
    """
    left, right = key
    payload = _encode_half(left) + "\x1d" + _encode_half(right)
    digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=16).digest()
    hi, lo = _UNPACK_HILO(digest)
    return hi, lo


class PersistentScoreStore:
    """Sorted-array score tier, mmap-friendly and corpus-digest-checked.

    The same symmetric (term-pair, theme-set) keys as
    :class:`PrecomputedScoreTable`, but hashed to 128 bits and held in
    three parallel arrays (``key_hi`` sorted, ``key_lo`` tie-break,
    ``scores``) instead of a dict — exactly the layout the binary
    snapshot persists, so :func:`~repro.semantics.persistence.load_score_store`
    can attach the arrays as read-only ``np.memmap`` views and lookups
    page in lazily. :meth:`warm` materializes the arrays into RAM for
    benchmark-steady access times.

    Lookups never mutate the arrays; hit/miss counters live in a
    :class:`~repro.obs.MetricsRegistry` (``score_store.*``), so sharing
    a store across broker threads is safe. Resolved keys are memoized in
    a plain dict (idempotent inserts of immutable values — GIL-safe), so
    the hash + binary search is paid once per distinct key; the memo is
    bounded by the distinct keys actually queried, the same order as the
    store itself.
    """

    def __init__(
        self,
        key_hi: np.ndarray,
        key_lo: np.ndarray,
        scores: np.ndarray,
        *,
        corpus_digest: str,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if not (len(key_hi) == len(key_lo) == len(scores)):
            raise ValueError("key/score arrays must have equal lengths")
        self._key_hi = key_hi
        self._key_lo = key_lo
        self._scores = scores
        self.corpus_digest = corpus_digest
        self.registry = registry if registry is not None else MetricsRegistry()
        self._hits = self.registry.counter("score_store.hits")
        self._misses = self.registry.counter("score_store.misses")
        self._memo: dict[CacheKey, float | None] = {}

    @classmethod
    def build(
        cls,
        scores: Mapping[CacheKey, float],
        *,
        corpus_digest: str,
        registry: MetricsRegistry | None = None,
    ) -> "PersistentScoreStore":
        """Sort a key->score mapping into the persistent array layout."""
        count = len(scores)
        key_hi = np.empty(count, dtype=np.uint64)
        key_lo = np.empty(count, dtype=np.uint64)
        values = np.empty(count, dtype=np.float64)
        for row, (key, value) in enumerate(scores.items()):
            hi, lo = _hash_key(key)
            key_hi[row] = hi
            key_lo[row] = lo
            values[row] = value
        order = np.lexsort((key_lo, key_hi))
        return cls(
            key_hi[order],
            key_lo[order],
            values[order],
            corpus_digest=corpus_digest,
            registry=registry,
        )

    @classmethod
    def from_table(
        cls,
        table: PrecomputedScoreTable,
        *,
        corpus_digest: str,
        registry: MetricsRegistry | None = None,
    ) -> "PersistentScoreStore":
        return cls.build(
            table.scores, corpus_digest=corpus_digest, registry=registry
        )

    def arrays(self) -> dict[str, np.ndarray]:
        """The persisted columns, in snapshot layout order."""
        return {
            "key_hi": self._key_hi,
            "key_lo": self._key_lo,
            "scores": self._scores,
        }

    def get(
        self,
        term_s: str,
        theme_s: Iterable[str],
        term_e: str,
        theme_e: Iterable[str],
    ) -> float | None:
        left, right = _half(term_s, theme_s), _half(term_e, theme_e)
        key = (left, right) if left <= right else (right, left)
        memo = self._memo
        if key in memo:
            value = memo[key]
            (self._misses if value is None else self._hits).inc()
            return value
        hi, lo = _hash_key(key)
        row = int(np.searchsorted(self._key_hi, np.uint64(hi), side="left"))
        count = len(self._key_hi)
        while row < count and self._key_hi[row] == hi:
            if self._key_lo[row] == lo:
                self._hits.inc()
                value = float(self._scores[row])
                memo[key] = value
                return value
            row += 1
        self._misses.inc()
        memo[key] = None
        return None

    def get_batch(
        self,
        lookups: Sequence[tuple[str, Iterable[str], str, Iterable[str]]],
    ) -> list[float | None]:
        """Vectorized :meth:`get`: one array probe for the whole batch.

        Unmemoized keys are hashed in one pass and located with a single
        ``searchsorted`` call instead of one per key; symmetry, hit/miss
        counters, and memoization are per-key identical to :meth:`get`.
        This is the probe the pipeline's bulk scoring stage rides.
        """
        results: list[float | None] = [None] * len(lookups)
        memo = self._memo
        hit_count = 0
        pending: list[int] = []
        keys: list[CacheKey] = []
        for i, (term_s, theme_s, term_e, theme_e) in enumerate(lookups):
            left, right = _half(term_s, theme_s), _half(term_e, theme_e)
            key = (left, right) if left <= right else (right, left)
            value = memo.get(key, _UNRESOLVED)
            if value is _UNRESOLVED:
                pending.append(i)
                keys.append(key)
            else:
                results[i] = value
                hit_count += value is not None
        if pending and len(self._key_hi):
            hashed = [_hash_key(key) for key in keys]
            his = np.fromiter(
                (hi for hi, _ in hashed), dtype=np.uint64, count=len(hashed)
            )
            los = np.fromiter(
                (lo for _, lo in hashed), dtype=np.uint64, count=len(hashed)
            )
            key_hi, key_lo, scores = self._key_hi, self._key_lo, self._scores
            count = len(key_hi)
            rows = np.searchsorted(key_hi, his, side="left")
            guarded = np.minimum(rows, count - 1)
            in_range = rows < count
            hi_match = in_range & (key_hi[guarded] == his)
            lo_ok = key_lo[guarded] == los
            first_hit = (hi_match & lo_ok).tolist()
            run_start = (hi_match & ~lo_ok).tolist()
            values = scores[guarded].tolist()
            for j, (i, key) in enumerate(zip(pending, keys, strict=True)):
                if first_hit[j]:
                    value = float(values[j])
                elif run_start[j]:
                    # Duplicate-hi run whose first row's lo mismatched:
                    # walk the run for the real entry (vanishingly rare
                    # with 128-bit hashes, but correctness-mandatory).
                    value = None
                    row, hi, lo = int(rows[j]), int(his[j]), int(los[j])
                    while row < count and key_hi[row] == hi:
                        if key_lo[row] == lo:
                            value = float(scores[row])
                            break
                        row += 1
                else:
                    value = None
                memo[key] = value
                results[i] = value
                hit_count += value is not None
        if hit_count:
            self._hits.inc(hit_count)
        if len(lookups) - hit_count:
            self._misses.inc(len(lookups) - hit_count)
        return results

    def warm(self) -> "PersistentScoreStore":
        """Copy memmap-backed columns into RAM; returns self."""
        self._key_hi = np.array(self._key_hi)
        self._key_lo = np.array(self._key_lo)
        self._scores = np.array(self._scores)
        return self

    def stats(self) -> dict[str, int]:
        return {"hits": self._hits.value, "misses": self._misses.value}

    def __len__(self) -> int:
        return len(self._scores)

    def save(self, path: str | Path) -> None:
        """Write the store as a versioned binary snapshot."""
        from repro.semantics.persistence import save_score_store

        save_score_store(self, path)

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        expected_digest: str | None = None,
        registry: MetricsRegistry | None = None,
    ) -> "PersistentScoreStore":
        """Attach a snapshot zero-copy (arrays stay on disk until read)."""
        from repro.semantics.persistence import load_score_store

        return load_score_store(
            path, expected_digest=expected_digest, registry=registry
        )


def precompute_scores(
    measure: SemanticMeasure,
    subscription_terms: Iterable[str],
    event_terms: Iterable[str],
    *,
    theme_s: Iterable[str] = (),
    theme_e: Iterable[str] = (),
) -> PrecomputedScoreTable:
    """Score every (subscription term, event term) pair offline.

    ``measure`` is any :class:`~repro.semantics.measures.SemanticMeasure`.
    The result answers exactly the queries the matcher will make for the
    given themes; with empty themes it serves the non-thematic fast mode.
    """
    table = PrecomputedScoreTable()
    ths, the = theme_key(theme_s), theme_key(theme_e)
    sub_terms = sorted({normalize_term(t) for t in subscription_terms})
    ev_terms = sorted({normalize_term(t) for t in event_terms})
    for ts in sub_terms:
        left = (ts, ths)
        for te in ev_terms:
            right = (te, the)
            key = (left, right) if left <= right else (right, left)
            if key not in table.scores:
                table.scores[key] = measure.score(ts, ths, te, the)
    return table
