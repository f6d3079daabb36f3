"""Columnar (CSR) backing for the distributional space.

The scalar path stores one ``dict[int, float]`` per term vector — ideal
for incremental, cache-friendly single-pair scoring, hopeless for bulk
work: every batch re-walks thousands of tiny dicts through the
interpreter. This module lays the *same* information out once per corpus
as a term-by-document CSR matrix:

* ``indptr`` (int64, ``V + 1``) — row extents, one row per vocabulary
  token in sorted token order;
* ``doc_ids`` (int32, nnz) — column indices, sorted within each row;
* ``freqs`` (int32, nnz) — the *raw* in-document frequencies, kept (like
  :class:`~repro.semantics.index.InvertedIndex` keeps them) because
  thematic projection recomputes idf against the sub-corpus at use time;
* ``tfidf`` (float64, nnz) — the full-space Equation 4 weights,
  element-for-element bit-identical to the scalar
  :meth:`~repro.semantics.space.DistributionalVectorSpace.token_vector`
  weights (same augmented-tf expression, same ``math.log`` idf);
* ``max_frequency`` (int32, ``|D|``) — the Equation 2 denominators.

The arrays are plain numpy buffers; construction from existing buffers
never copies.
"""

from __future__ import annotations

import math

import numpy as np

from repro.semantics.index import InvertedIndex

__all__ = ["ColumnarIndex"]


class ColumnarIndex:
    """Immutable CSR view of an inverted index (see module docstring).

    Rows are vocabulary tokens in sorted order; :meth:`row` resolves a
    token to its ``(doc_ids, freqs, tfidf)`` slices without copying.
    """

    __slots__ = (
        "vocabulary",
        "indptr",
        "doc_ids",
        "freqs",
        "tfidf",
        "max_frequency",
        "corpus_size",
        "_row_of",
    )

    def __init__(
        self,
        vocabulary: tuple[str, ...],
        indptr: np.ndarray,
        doc_ids: np.ndarray,
        freqs: np.ndarray,
        tfidf: np.ndarray,
        max_frequency: np.ndarray,
        corpus_size: int,
    ) -> None:
        if len(indptr) != len(vocabulary) + 1:
            raise ValueError("indptr length must be len(vocabulary) + 1")
        if not (len(doc_ids) == len(freqs) == len(tfidf)):
            raise ValueError("doc_ids, freqs and tfidf must be aligned")
        self.vocabulary = vocabulary
        self.indptr = indptr
        self.doc_ids = doc_ids
        self.freqs = freqs
        self.tfidf = tfidf
        self.max_frequency = max_frequency
        self.corpus_size = corpus_size
        self._row_of = {token: i for i, token in enumerate(vocabulary)}

    @classmethod
    def build(cls, index: InvertedIndex) -> "ColumnarIndex":
        """Lay out ``index`` as CSR arrays; deterministic per corpus."""
        vocabulary = tuple(sorted(index.postings))
        size = index.corpus_size
        max_frequency = np.zeros(size, dtype=np.int32)
        for doc_id, max_freq in index.max_frequency.items():
            max_frequency[doc_id] = max_freq
        indptr = np.zeros(len(vocabulary) + 1, dtype=np.int64)
        chunks_docs: list[np.ndarray] = []
        chunks_freqs: list[np.ndarray] = []
        chunks_tfidf: list[np.ndarray] = []
        total = 0
        for i, token in enumerate(vocabulary):
            postings = index.postings[token]
            docs = np.fromiter(postings, dtype=np.int32, count=len(postings))
            order = np.argsort(docs, kind="stable")
            docs = docs[order]
            freqs = np.fromiter(
                postings.values(), dtype=np.int32, count=len(postings)
            )[order]
            # Same float expression as the scalar tf_idf(): the augmented
            # tf term `0.5 + 0.5 * freq / max_freq` evaluates with the
            # identical IEEE operation order elementwise, and idf uses
            # the same math.log over a Python true division, so every
            # stored weight is bit-identical to the dict path's.
            token_idf = math.log(size / len(postings))
            tf = 0.5 + 0.5 * freqs / max_frequency[docs]
            chunks_docs.append(docs)
            chunks_freqs.append(freqs)
            chunks_tfidf.append(tf * token_idf)
            total += len(postings)
            indptr[i + 1] = total
        if chunks_docs:
            doc_ids = np.concatenate(chunks_docs)
            freqs_all = np.concatenate(chunks_freqs)
            tfidf = np.concatenate(chunks_tfidf)
        else:
            doc_ids = np.zeros(0, dtype=np.int32)
            freqs_all = np.zeros(0, dtype=np.int32)
            tfidf = np.zeros(0, dtype=np.float64)
        return cls(
            vocabulary,
            indptr,
            doc_ids,
            freqs_all,
            tfidf,
            max_frequency,
            size,
        )

    # -- accessors ---------------------------------------------------------

    @property
    def nnz(self) -> int:
        return len(self.doc_ids)

    def __len__(self) -> int:
        return len(self.vocabulary)

    def __contains__(self, token: str) -> bool:
        return token in self._row_of

    def row(self, token: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``(doc_ids, freqs, tfidf)`` slices of one token; None if unseen."""
        i = self._row_of.get(token)
        if i is None:
            return None
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return (
            self.doc_ids[lo:hi],
            self.freqs[lo:hi],
            self.tfidf[lo:hi],
        )
