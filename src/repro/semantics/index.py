"""Term indexes over a :class:`~repro.semantics.documents.DocumentSet`.

Step 1 of Figure 5: the corpus is tokenized and an inverted index built
with one entry per term. Crucially (Section 4.1) the index stores the
*raw* term frequencies and per-document maxima, not only the final tf/idf
weights, because thematic projection (Algorithm 1) recomputes idf over
the thematic basis at use time.

On top of the exact index sits :class:`ApproxNeighborIndex` — the
candidate-generation tier of the sublinear matching story (S-ToPSS-style
layered matching): random-hyperplane LSH signatures over the full-space
token vectors bucket the vocabulary so a token's neighborhood query
scans a handful of candidates instead of the whole vocabulary. Survivors
are always re-checked against the exact relatedness test, so *precision*
is exact by construction; *recall* is tuned through ``recall_target``,
and at ``recall_target=1.0`` the index bypasses the signatures entirely
and runs the exact full-vocabulary scan — the reference every lower
target is tested against, and the engine's ``"semantic"`` anchor mode.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import MetricsRegistry
from repro.semantics.documents import DocumentSet
from repro.semantics.tokenize import tokenize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.semantics.space import DistributionalVectorSpace
    from repro.semantics.vectors import SparseVector

__all__ = [
    "Posting",
    "InvertedIndex",
    "ApproxNeighborIndex",
    "DEFAULT_NEIGHBOR_THRESHOLD",
]

#: Just above the orthogonal floor of the normalized-Euclidean
#: relatedness (1/(1+sqrt(2)) ≈ 0.4142): prunes only pairs with
#: essentially no full-space evidence.
DEFAULT_NEIGHBOR_THRESHOLD = 0.435


@dataclass(frozen=True)
class Posting:
    """One (term, document) entry: the raw in-document frequency."""

    doc_id: int
    frequency: int


@dataclass
class InvertedIndex:
    """Term -> postings map plus the per-document statistics tf/idf needs.

    Attributes
    ----------
    postings:
        ``term -> {doc_id: raw frequency}``.
    max_frequency:
        ``doc_id -> frequency of the most frequent term in the document``
        (the denominator of Equation 2).
    corpus_size:
        ``|D|``.
    """

    postings: dict[str, dict[int, int]] = field(default_factory=dict)
    max_frequency: dict[int, int] = field(default_factory=dict)
    corpus_size: int = 0

    @classmethod
    def build(cls, documents: DocumentSet) -> "InvertedIndex":
        """Index every document; deterministic for a given document set."""
        index = cls(corpus_size=len(documents))
        for doc_id, doc in enumerate(documents):
            counts = Counter(doc.tokens())
            if not counts:
                index.max_frequency[doc_id] = 1
                continue
            index.max_frequency[doc_id] = max(counts.values())
            for token, freq in counts.items():
                index.postings.setdefault(token, {})[doc_id] = freq
        return index

    def document_frequency(self, token: str) -> int:
        """Number of documents containing ``token`` (0 if unseen)."""
        return len(self.postings.get(token, ()))

    def frequency(self, token: str, doc_id: int) -> int:
        """Raw count of ``token`` in document ``doc_id`` (0 if absent)."""
        return self.postings.get(token, {}).get(doc_id, 0)

    def documents_containing(self, token: str) -> frozenset[int]:
        return frozenset(self.postings.get(token, ()))

    def vocabulary(self) -> frozenset[str]:
        return frozenset(self.postings)

    def __contains__(self, token: str) -> bool:
        return token in self.postings

    @staticmethod
    def tokens_of(term: str) -> list[str]:
        """Tokenize a (possibly multi-word) term with index rules."""
        return tokenize(term)


class ApproxNeighborIndex:
    """Approximate token-neighborhood index (LSH candidate generation).

    The exact neighborhood query — "which corpus tokens have full-space
    relatedness ≥ ``threshold`` to this token?" — costs one distance per
    vocabulary entry. This index answers the same query sublinearly:

    1. every vocabulary token's tf/idf vector is signed against
       ``planes`` random hyperplanes (deterministic ``seed``, so two
       indexes over the same space agree bit-for-bit);
    2. the sign bits split into ``bands``; tokens sharing a band bucket
       with the query are *candidates*;
    3. candidates (only) run the exact relatedness test, so every
       returned neighbor is a true neighbor — the approximation can
       only *miss* neighbors, never invent them.

    ``recall_target`` tunes how many of the ``bands`` are probed
    (``ceil(recall_target * bands)``, at least one): probing more bands
    raises the collision chance for genuinely close vectors — the
    classical banding amplification — at the cost of more candidates.
    ``recall_target=1.0`` is the documented loss-free mode: it skips the
    signatures and scans the full vocabulary
    (:meth:`_exact_neighborhood`), the exact reference. Achieved recall
    at lower targets is workload-dependent;
    ``benchmarks/bench_ann_prefilter.py`` measures the recall/throughput
    trade-off curve.

    Neighborhoods are cached per token; the index is read-only after
    construction apart from that cache, and safe to share across matcher
    instances on one thread.
    """

    def __init__(
        self,
        space: "DistributionalVectorSpace",
        *,
        threshold: float = DEFAULT_NEIGHBOR_THRESHOLD,
        recall_target: float = 1.0,
        planes: int = 64,
        bands: int = 16,
        seed: int = 0x7E57,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if not 0.0 < recall_target <= 1.0:
            raise ValueError("recall_target must be in (0, 1]")
        if planes < bands or planes % bands:
            raise ValueError("planes must be a positive multiple of bands")
        self.space = space
        self.threshold = threshold
        self.recall_target = recall_target
        self.planes = planes
        self.bands = bands
        self.seed = seed
        self.registry = registry if registry is not None else MetricsRegistry()
        self._queries = self.registry.counter("index.queries")
        self._candidates = self.registry.counter("index.candidates")
        self._exact_scans = self.registry.counter("index.exact_scans")
        self._by_token: dict[str, frozenset[str]] = {}
        self._vocabulary = sorted(space.vocabulary())
        self._row_of = {token: row for row, token in enumerate(self._vocabulary)}
        self._probe_bands = max(1, min(bands, round(recall_target * bands)))
        # Signatures build lazily: the exact-fallback mode never needs
        # them, and construction cost should land on first approximate
        # query, mirroring the lazy exact scans.
        self._hyperplanes: np.ndarray | None = None
        self._row_keys: list[tuple[bytes, ...]] | None = None
        self._buckets: list[dict[bytes, list[int]]] | None = None

    # -- signature construction --------------------------------------------

    def _signature_keys(self, vector: SparseVector) -> tuple[bytes, ...]:
        """Per-band bucket keys of one vector's bit signature."""
        assert self._hyperplanes is not None
        doc_ids = np.fromiter((d for d, _ in vector.items()), dtype=np.int64)
        weights = np.fromiter((w for _, w in vector.items()), dtype=np.float64)
        signs = (weights @ self._hyperplanes[doc_ids]) > 0.0
        width = self.planes // self.bands
        return tuple(
            np.packbits(signs[band * width : (band + 1) * width]).tobytes()
            for band in range(self.bands)
        )

    def _build_buckets(self) -> list[dict[bytes, list[int]]]:
        if self._buckets is not None:
            return self._buckets
        rng = np.random.default_rng(self.seed)
        # One Gaussian hyperplane per signature bit; sign(v @ plane) is
        # invariant to the positive rescaling normalization applies, so
        # signatures work on the raw tf/idf weights.
        self._hyperplanes = rng.standard_normal(
            (self.space.index.corpus_size, self.planes)
        )
        row_keys: list[tuple[bytes, ...]] = []
        buckets: list[dict[bytes, list[int]]] = [{} for _ in range(self.bands)]
        for row, token in enumerate(self._vocabulary):
            keys = self._signature_keys(self.space.token_vector(token))
            row_keys.append(keys)
            for band, key in enumerate(keys):
                buckets[band].setdefault(key, []).append(row)
        self._row_keys = row_keys
        self._buckets = buckets
        return buckets

    # -- queries ------------------------------------------------------------

    def _exact_neighborhood(self, token: str) -> frozenset[str]:
        """Full vocabulary scan — the ``recall_target=1.0`` reference.

        Every corpus token whose full-space relatedness to ``token``
        reaches the threshold, plus ``token`` itself; the approximate
        path returns a subset of this for any recall target.
        """
        self._exact_scans.inc()
        vector = self.space.token_vector(token)
        if not vector:
            return frozenset({token})
        related = {token}
        for candidate in self._vocabulary:
            other = self.space.token_vector(candidate)
            if other and self.space.vector_relatedness(vector, other) >= self.threshold:
                related.add(candidate)
        return frozenset(related)

    def _approximate_neighborhood(self, token: str) -> frozenset[str]:
        vector = self.space.token_vector(token)
        if not vector:
            return frozenset({token})
        buckets = self._build_buckets()
        row = self._row_of.get(token)
        if row is not None:
            assert self._row_keys is not None
            keys = self._row_keys[row]
        else:
            keys = self._signature_keys(vector)
        candidate_rows: set[int] = set()
        for band in range(self._probe_bands):
            candidate_rows.update(buckets[band].get(keys[band], ()))
        self._candidates.inc(len(candidate_rows))
        related = {token}
        for candidate_row in candidate_rows:
            candidate = self._vocabulary[candidate_row]
            other = self.space.token_vector(candidate)
            if other and self.space.vector_relatedness(vector, other) >= self.threshold:
                related.add(candidate)
        return frozenset(related)

    def _token_neighborhood(self, token: str) -> frozenset[str]:
        cached = self._by_token.get(token)
        if cached is not None:
            return cached
        self._queries.inc()
        if self.recall_target >= 1.0:
            neighborhood = self._exact_neighborhood(token)
        else:
            neighborhood = self._approximate_neighborhood(token)
        self._by_token[token] = neighborhood
        return neighborhood

    def neighbors(self, term: str) -> frozenset[str]:
        """Union of the term's tokens' neighborhoods (always ⊇ tokens)."""
        out: set[str] = set()
        for token in tokenize(term):
            out |= self._token_neighborhood(token)
        return frozenset(out)
