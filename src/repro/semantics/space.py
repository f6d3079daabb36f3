"""The (non-thematic) distributional vector space model of Section 4.1.

This is the Explicit-Semantic-Analysis-style space: every term is a
tf/idf-weighted vector over the corpus documents (Equation 1), and the
semantic relatedness of two terms is derived from the distance between
their vectors (Equations 5 and 6).

Multi-word terms ("energy consumption") are composed additively from
their token vectors, the standard ESA treatment for phrases. Term vectors
are cached — the space is immutable once built.

Implementation note on Equation 5/6: the paper measures plain Euclidean
distance between tf/idf vectors. Raw tf/idf magnitudes make that distance
dominated by vector norms rather than direction, which flattens the
relatedness scale; like most ESA implementations we L2-normalize vectors
before measuring (``normalize=True``, the default). Set
``normalize=False`` for the literal reading; the ablation bench compares
both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.semantics.documents import DocumentSet
from repro.semantics.index import InvertedIndex
from repro.semantics.tokenize import normalize_term, tokenize
from repro.semantics.vectors import ZERO_VECTOR, SparseVector
from repro.semantics.weighting import tf_idf

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.semantics.columnar import ColumnarIndex
    from repro.semantics.kernel import RelatednessKernel

__all__ = ["DistributionalVectorSpace", "relatedness_from_distance"]


def relatedness_from_distance(distance: float) -> float:
    """Equation 6: ``relatedness = 1 / (distance + 1)`` in ``(0, 1]``."""
    if distance < 0:
        raise ValueError("distance must be non-negative")
    return 1.0 / (distance + 1.0)


class DistributionalVectorSpace:
    """ESA-style vector space built from a document corpus.

    Parameters
    ----------
    documents:
        The corpus ``D``. Use :func:`repro.knowledge.corpus.build_corpus`
        for the paper-shaped synthetic Wikipedia substitute.
    normalize:
        L2-normalize term vectors before distance computation (see module
        docstring). Default ``True``.
    metric:
        ``"euclidean"`` (Equation 5, default) or ``"cosine"`` for the
        ablation variant.
    """

    def __init__(
        self,
        documents: DocumentSet,
        *,
        normalize: bool = True,
        metric: str = "euclidean",
    ) -> None:
        if metric not in ("euclidean", "cosine"):
            raise ValueError(f"unknown metric: {metric!r}")
        self.documents = documents
        self.index = InvertedIndex.build(documents)
        self.normalize = normalize
        self.metric = metric
        self._token_vectors: dict[str, SparseVector] = {}
        self._term_vectors: dict[str, SparseVector] = {}
        self._columnar: ColumnarIndex | None = None
        self._kernel: RelatednessKernel | None = None

    # -- columnar backing (vectorized kernel) ------------------------------

    def columnar(self) -> ColumnarIndex:
        """CSR backing of this space's index, built once on first use.

        The arrays carry the same information as the dict-based index
        (raw frequencies, per-document maxima, full-space tf/idf
        weights); see :class:`~repro.semantics.columnar.ColumnarIndex`.
        """
        if self._columnar is None:
            from repro.semantics.columnar import ColumnarIndex

            self._columnar = ColumnarIndex.build(self.index)
        return self._columnar

    def kernel(self) -> RelatednessKernel:
        """The vectorized relatedness kernel over :meth:`columnar`.

        Shared per space, with projection caches of its own; honors
        this space's ``normalize``/``metric`` and — for
        :class:`~repro.semantics.pvsm.ParametricVectorSpace` — its
        ``recompute_idf`` ablation flag.
        """
        if self._kernel is None:
            from repro.semantics.kernel import RelatednessKernel

            self._kernel = RelatednessKernel(
                self.columnar(),
                normalize=self.normalize,
                metric=self.metric,
                recompute_idf=getattr(self, "recompute_idf", True),
            )
        return self._kernel

    # -- vector construction (Equation 1) ---------------------------------

    def token_vector(self, token: str) -> SparseVector:
        """tf/idf vector of a single corpus token; zero if unseen."""
        cached = self._token_vectors.get(token)
        if cached is not None:
            return cached
        postings = self.index.postings.get(token)
        if not postings:
            vector = ZERO_VECTOR
        else:
            size = self.index.corpus_size
            df = len(postings)
            vector = SparseVector(
                {
                    doc_id: tf_idf(freq, self.index.max_frequency[doc_id], size, df)
                    for doc_id, freq in postings.items()
                }
            )
        self._token_vectors[token] = vector
        return vector

    def term_vector(self, term: str) -> SparseVector:
        """Vector of a possibly multi-word term (sum of token vectors)."""
        key = normalize_term(term)
        cached = self._term_vectors.get(key)
        if cached is not None:
            return cached
        vector = ZERO_VECTOR
        for token in tokenize(key):
            vector = vector.add(self.token_vector(token))
        self._term_vectors[key] = vector
        return vector

    # -- distances and relatedness (Equations 5 and 6) --------------------

    def distance(self, left: SparseVector, right: SparseVector) -> float:
        """Distance between two prepared vectors under this space's metric.

        With ``normalize=True`` both vectors are normalized first; a zero
        vector is infinitely far from everything (relatedness 0) because
        an unseen term carries no distributional evidence at all.
        """
        if self.normalize:
            left, right = left.normalized(), right.normalized()
        return self._prepared_distance(left, right)

    def _prepared_distance(self, left: SparseVector, right: SparseVector) -> float:
        """:meth:`distance` of operands already normalized if the space normalizes."""
        if not left or not right:
            return float("inf")
        if self.metric == "cosine":
            return 1.0 - left.cosine_similarity(right)
        return left.euclidean_distance(right)

    def vector_relatedness(self, left: SparseVector, right: SparseVector) -> float:
        # An infinite distance maps to exactly 0.0 under Equation 6.
        return relatedness_from_distance(self.distance(left, right))

    def relatedness(self, term_a: str, term_b: str) -> float:
        """Semantic relatedness of two terms in ``[0, 1]``; symmetric."""
        return self.vector_relatedness(
            self.term_vector(term_a), self.term_vector(term_b)
        )

    def vocabulary(self) -> frozenset[str]:
        return self.index.vocabulary()

    def __len__(self) -> int:
        return len(self.documents)
