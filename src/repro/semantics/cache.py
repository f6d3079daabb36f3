"""The relatedness score memo and its on-disk form.

The paper has one semantic measure ``sm`` (Section 4.3); its
"precomputed relatedness scores" fast mode (Section 5, ~91,000
events/sec) is that same function answered from a table. Both are one
memo here:

* :func:`cache_key` — the one symmetric, normalized key every score is
  filed under (the measures are symmetric functions).
* :class:`RelatednessCache` — the one ``key -> score`` memo. Empty, it
  is the online cache the matcher fills as it scores; constructed
  pre-filled (:func:`precompute_scores`,
  :func:`~repro.semantics.warm.warm_score_table`) it *is* the
  precomputed table. ``max_entries`` bounds it either way.
* :class:`PersistentScoreStore` — the one on-disk format: sorted 128-bit
  key-hash arrays plus a score column, written through the versioned
  snapshot machinery in :mod:`repro.semantics.persistence` and mapped
  back read-only (``repro warm-cache`` produces the file). It keeps no
  state of its own beyond the arrays: a cache takes it as its read-only
  ``backing``, probes it for memo misses (hash + binary search, a whole
  batch per probe) and writes hits back into the memo. The snapshot
  carries the corpus digest so a store can never be consulted against a
  space built from a different corpus.

:class:`~repro.semantics.measures.CachedMeasure` is the one wrapper that
puts a cache in front of a measure; the tier order memo -> backing store
-> wrapped measure lives there and here, nowhere else.
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
    "cache_key",
    "RelatednessCache",
    "PersistentScoreStore",
    "precompute_scores",
]

#: A fully-normalized cache key: the two (term, theme) halves, sorted so
#: the key is symmetric (the measures are symmetric functions).
CacheKey = tuple[tuple[str, tuple[str, ...]], tuple[str, tuple[str, ...]]]


@lru_cache(maxsize=65536)
def _key_half(term: str, key: tuple[str, ...]) -> tuple[str, tuple[str, ...]]:
    """One shared ``(term, theme key)`` tuple per distinct half: a memo
    of many keys then stores each repeated half once, not once per key."""
    return (term, key)


def cache_key(
    term_s: str,
    theme_s: Iterable[str],
    term_e: str,
    theme_e: Iterable[str],
) -> CacheKey:
    """The symmetric, normalized key of one ``sm`` lookup."""
    left = _key_half(normalize_term(term_s), theme_key(theme_s))
    right = _key_half(normalize_term(term_e), theme_key(theme_e))
    return (left, right) if left <= right else (right, left)


@dataclass
class RelatednessCache:
    """Symmetric memo of relatedness scores with hit counters.

    ``scores`` is the memo itself; pass a filled dict to construct a
    precomputed table. Unbounded by default (the historical behaviour);
    pass ``max_entries`` to cap memory on long-running brokers —
    eviction is LRU (hits refresh recency), so the working set of a
    steady workload stays resident while one-off pairs age out.

    ``backing`` is an optional read-only :class:`PersistentScoreStore`:
    a memo miss probes it (one probe per :meth:`get_many` batch) and a
    store hit is written back, so each distinct key reaches the arrays
    at most once while it stays memoized. Store misses are *not*
    memoized here — the caller scores them and :meth:`put` s the result,
    which is what keeps every entry under the ``max_entries`` bound.

    Lookups and inserts hold an internal lock: a cache is typically the
    one measure-level object *shared* across the sharded broker's worker
    threads, and the bounded mode's delete-and-reinsert recency refresh
    is not atomic without one. ``hits`` / ``misses`` count memo lookups
    only; the store counts its own probes (``score_store.*``).
    """

    scores: dict[CacheKey, float] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    max_entries: int | None = None
    backing: PersistentScoreStore | None = None
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

    def _memo(self, key: CacheKey) -> float | None:
        """One counted memo probe; the caller holds the lock."""
        value = self.scores.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            if self.max_entries is not None:
                # Refresh recency: dicts iterate in insertion order, so
                # re-inserting moves the key to the "young" end.
                del self.scores[key]
                self.scores[key] = value
        return value

    def get(self, key: CacheKey) -> float | None:
        with self._lock:
            value = self._memo(key)
        if value is None and self.backing is not None:
            value = self._fetch((key,))[0]
        return value

    def get_many(self, keys: Sequence[CacheKey]) -> list[float | None]:
        """:meth:`get` for a batch: one lock hold, one store probe."""
        with self._lock:
            values = [self._memo(key) for key in keys]
        if self.backing is not None:
            missing = [i for i, value in enumerate(values) if value is None]
            if missing:
                found = self._fetch([keys[i] for i in missing])
                for i, value in zip(missing, found, strict=True):
                    values[i] = value
        return values

    def _fetch(self, keys: Sequence[CacheKey]) -> list[float | None]:
        """Probe the backing store for memo misses; hits are written back."""
        found = self.backing.probe(keys)
        for key, value in zip(keys, found, strict=True):
            if value is not None:
                self.put(key, value)
        return found

    def put(self, key: CacheKey, value: float) -> None:
        with self._lock:
            if self.max_entries is not None and key not in self.scores:
                while len(self.scores) >= self.max_entries:
                    self.scores.pop(next(iter(self.scores)))
            self.scores[key] = value

    def __len__(self) -> int:
        with self._lock:
            return len(self.scores)

    def clear(self) -> None:
        with self._lock:
            self.scores.clear()
            self.hits = 0
            self.misses = 0


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
    """Sorted-array score table, mmap-friendly and corpus-digest-checked.

    The same symmetric :func:`cache_key` keys as the in-memory memo, but
    hashed to 128 bits and held in three parallel arrays (``key_hi``
    sorted, ``key_lo`` tie-break, ``scores``) instead of a dict —
    exactly the layout the binary snapshot persists, so
    :func:`~repro.semantics.persistence.load_score_store` can attach the
    arrays as read-only ``np.memmap`` views and lookups page in lazily.
    :meth:`warm` materializes the arrays into RAM for benchmark-steady
    access times.

    Read-only and stateless apart from its counters: :meth:`probe` never
    mutates the arrays and remembers nothing, and hit/miss counters live
    in a :class:`~repro.obs.MetricsRegistry` (``score_store.*``), so
    sharing a store across broker threads is safe. Memoizing what a
    probe found is the job of the :class:`RelatednessCache` the store
    backs.
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

    def arrays(self) -> dict[str, np.ndarray]:
        """The persisted columns, in snapshot layout order."""
        return {
            "key_hi": self._key_hi,
            "key_lo": self._key_lo,
            "scores": self._scores,
        }

    def probe(self, keys: Sequence[CacheKey]) -> list[float | None]:
        """The stored score of each key, ``None`` where absent.

        The one lookup routine: the whole batch is hashed in one pass
        and located with a single ``searchsorted`` over ``key_hi``;
        every key counts once toward ``score_store.hits`` / ``.misses``.
        """
        count = len(self._key_hi)
        results: list[float | None] = [None] * len(keys)
        if keys and count:
            hashed = [_hash_key(key) for key in keys]
            his = np.fromiter(
                (hi for hi, _ in hashed), dtype=np.uint64, count=len(hashed)
            )
            los = np.fromiter(
                (lo for _, lo in hashed), dtype=np.uint64, count=len(hashed)
            )
            key_hi, key_lo, scores = self._key_hi, self._key_lo, self._scores
            rows = np.searchsorted(key_hi, his, side="left")
            guarded = np.minimum(rows, count - 1)
            hi_match = (rows < count) & (key_hi[guarded] == his)
            lo_match = key_lo[guarded] == los
            first_hit = (hi_match & lo_match).tolist()
            run_start = (hi_match & ~lo_match).tolist()
            values = scores[guarded].tolist()
            for j, (hi, lo) in enumerate(hashed):
                if first_hit[j]:
                    results[j] = values[j]
                elif run_start[j]:
                    # Duplicate-hi run whose first row's lo mismatched:
                    # walk the run for the real entry (vanishingly rare
                    # with 128-bit hashes, but correctness-mandatory).
                    row = int(rows[j]) + 1
                    while row < count and key_hi[row] == hi:
                        if key_lo[row] == lo:
                            results[j] = float(scores[row])
                            break
                        row += 1
        hit_count = len(keys) - results.count(None)
        if hit_count:
            self._hits.inc(hit_count)
        if len(keys) - hit_count:
            self._misses.inc(len(keys) - hit_count)
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
) -> RelatednessCache:
    """Score every (subscription term, event term) pair offline.

    ``measure`` is any :class:`~repro.semantics.measures.SemanticMeasure`.
    The returned pre-filled memo answers exactly the queries the matcher
    will make for the given themes; with empty themes it serves the
    non-thematic fast mode. Put it behind
    :class:`~repro.semantics.measures.CachedMeasure` to match from it.
    """
    scores: dict[CacheKey, float] = {}
    ths, the = theme_key(theme_s), theme_key(theme_e)
    sub_terms = sorted({normalize_term(t) for t in subscription_terms})
    ev_terms = sorted({normalize_term(t) for t in event_terms})
    for ts in sub_terms:
        for te in ev_terms:
            key = cache_key(ts, ths, te, the)
            if key not in scores:
                scores[key] = measure.score(ts, ths, te, the)
    return RelatednessCache(scores)
