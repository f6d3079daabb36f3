"""Vectorized relatedness kernel over the columnar space.

The scalar scoring stack — :class:`~repro.semantics.vectors.SparseVector`
dict algebra driven per term pair — is the reference semantics; this
module computes the *same* scores in bulk with numpy over the
:class:`~repro.semantics.columnar.ColumnarIndex` CSR arrays. One kernel
call scores every (term, theme, term, theme) combination of a batch:
projections are gathered as dense rows over the document axis, norms and
dots are row-wise ``einsum`` reductions, and the Equation 5/6 distance →
relatedness arithmetic runs elementwise across all pairs at once.

Parity with the scalar path, by construction:

* projected *weights* are bit-identical — the projection mirrors
  Algorithm 1 with the same augmented-tf expression, the same
  ``math.log`` sub-corpus idf and the same token accumulation order, so
  every nonzero component equals the dict path's component exactly;
* norms and dots use row-wise ``einsum`` reductions (never BLAS matmul),
  so each pair's reduction is independent of batch shape — scoring a
  pair alone or inside any batch yields the identical float, which is
  what makes batch-vs-single exactness testable;
* the divergence from the scalar path is in the distance step: the
  kernel sums in a different *order* (``einsum`` vs ``math.hypot`` /
  dict-ordered sums) and takes the euclidean distance as
  ``sqrt(|a|^2 + |b|^2 - 2 a.b)``, whose cancellation ``sqrt`` amplifies
  for near-parallel projections. Typical pairs differ by ~1e-15, but
  near-parallel ones reach 1.5e-8 to 3.9e-8 over the tiny-to-paper
  workload cross-products (e.g. ``desk`` vs ``desk 112a``: 1.0 here,
  0.99999998 on the scalar path) — above :data:`PARITY_TOLERANCE`,
  which the hypothesis suite in ``tests/semantics/test_kernel.py``
  asserts over its toy corpus. Exact zero/one cases (empty vectors,
  identical terms) agree exactly. Anything that needs the online
  scores exactly (the ``repro warm-cache`` store) scores with the
  scalar measure.

The kernel is **opt-in** (``ThematicMeasure(..., vectorized=True)``):
the scalar path stays the default so existing bit-exact batch-vs-pair
guarantees are untouched, and when the kernel is enabled it serves both
single and batched calls so those guarantees hold *within* the kernel
path too.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.obs import TRACER, MetricsRegistry
from repro.semantics.columnar import ColumnarIndex
from repro.semantics.pvsm import theme_key
from repro.semantics.tokenize import normalize_term, tokenize

__all__ = ["KernelMeasure", "RelatednessKernel"]

#: Absolute tolerance the hypothesis parity suite asserts between kernel
#: and scalar relatedness over its toy corpus. Not a bound on every
#: corpus: near-parallel projections exceed it (see module docstring).
PARITY_TOLERANCE = 1e-9

_EMPTY_IDS = np.zeros(0, dtype=np.int64)
_EMPTY_WEIGHTS = np.zeros(0, dtype=np.float64)


class RelatednessKernel:
    """Batch thematic/non-thematic relatedness over a columnar index.

    Mirrors :class:`~repro.semantics.pvsm.ParametricVectorSpace`
    semantics — ``normalize``/``metric``/``recompute_idf`` and the
    common/own sub-space modes — with per-``(term, theme)`` projection
    caches, like the scalar space's.
    """

    def __init__(
        self,
        columnar: ColumnarIndex,
        *,
        normalize: bool = True,
        metric: str = "euclidean",
        recompute_idf: bool = True,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if metric not in ("euclidean", "cosine"):
            raise ValueError(f"unknown metric: {metric!r}")
        self.columnar = columnar
        self.normalize = normalize
        self.metric = metric
        self.recompute_idf = recompute_idf
        self.registry = registry if registry is not None else MetricsRegistry()
        self._batches = self.registry.counter("kernel.batches")
        self._pairs = self.registry.counter("kernel.pairs")
        self._bases: dict[tuple[str, ...], np.ndarray] = {}
        self._projections: dict[
            tuple[str, tuple[str, ...]], tuple[np.ndarray, np.ndarray]
        ] = {}
        self._common_bases: dict[
            tuple[tuple[str, ...], tuple[str, ...]], np.ndarray
        ] = {}
        self._restricted: dict[
            tuple[str, tuple[str, ...], tuple[str, ...]],
            tuple[np.ndarray, np.ndarray],
        ] = {}
        # (term, own key, other key, restrict) -> fully prepared dense
        # row: (row, nnz size, norm, norm squared). Rows are reused
        # across batches, so steady-state per-pair cost is one einsum
        # reduction — the projection/normalization arithmetic runs once
        # per distinct term/theme combination, producing the identical
        # floats every later batch reads back.
        self._rows: dict[
            tuple[str, tuple[str, ...], tuple[str, ...], bool],
            tuple[np.ndarray, int, float, float],
        ] = {}

    # -- bases (Figure 5, steps 2-3) ---------------------------------------

    def theme_basis(self, key: tuple[str, ...]) -> np.ndarray:
        """Sorted doc ids spanning the theme (union of tag supports)."""
        cached = self._bases.get(key)
        if cached is not None:
            return cached
        if not key:
            basis = np.arange(self.columnar.corpus_size, dtype=np.int64)
        else:
            supports: list[np.ndarray] = []
            for tag in key:
                for token in tokenize(tag):
                    row = self.columnar.row(token)
                    if row is None:
                        continue
                    doc_ids, _, tfidf = row
                    # A token appearing in every document has idf 0 —
                    # its tfidf weights are all zero and the scalar
                    # support() excludes those docs.
                    supports.append(doc_ids[tfidf != 0.0])
            if supports:
                basis = np.unique(np.concatenate(supports)).astype(np.int64)
            else:
                basis = _EMPTY_IDS
        self._bases[key] = basis
        return basis

    def common_basis(
        self, key_a: tuple[str, ...], key_b: tuple[str, ...]
    ) -> np.ndarray:
        """Intersection of two theme bases (cached, symmetric)."""
        cache_key = (key_a, key_b) if key_a <= key_b else (key_b, key_a)
        cached = self._common_bases.get(cache_key)
        if cached is None:
            cached = np.intersect1d(
                self.theme_basis(key_a), self.theme_basis(key_b)
            )
            self._common_bases[cache_key] = cached
        return cached

    # -- projection (Algorithm 1) ------------------------------------------

    def project(
        self, term_norm: str, key: tuple[str, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Projected vector of a normalized term as ``(doc_ids, weights)``.

        ``doc_ids`` are sorted absolute document ids; zero weights are
        dropped, mirroring :class:`~repro.semantics.vectors.SparseVector`
        never storing them (the emptiness tests below depend on it).
        """
        cache_key = (term_norm, key)
        cached = self._projections.get(cache_key)
        if cached is not None:
            return cached
        basis = self.theme_basis(key)
        dense = np.zeros(self.columnar.corpus_size)
        if basis.size:
            for token in tokenize(term_norm):
                row = self.columnar.row(token)
                if row is None:
                    continue
                doc_ids, freqs, tfidf = row
                if key:
                    pos = np.searchsorted(basis, doc_ids)
                    pos[pos == basis.size] = 0
                    in_basis = basis[pos] == doc_ids
                    df = int(np.count_nonzero(in_basis))
                    if df == 0:
                        continue
                    docs = doc_ids[in_basis]
                    if self.recompute_idf:
                        sub_idf = math.log(basis.size / df)
                        tf = (
                            0.5
                            + 0.5
                            * freqs[in_basis]
                            / self.columnar.max_frequency[docs]
                        )
                        dense[docs] += tf * sub_idf
                    else:  # naive-masking ablation
                        dense[docs] += tfidf[in_basis]
                else:
                    # Empty theme: the full-space term vector.
                    dense[doc_ids] += tfidf
        ids = np.nonzero(dense)[0]
        projected = (ids, dense[ids])
        self._projections[cache_key] = projected
        return projected

    def _restrict_common(
        self,
        term_norm: str,
        own_key: tuple[str, ...],
        other_key: tuple[str, ...],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Own-theme projection restricted to the common basis (cached)."""
        cache_key = (term_norm, own_key, other_key)
        cached = self._restricted.get(cache_key)
        if cached is None:
            ids, weights = self.project(term_norm, own_key)
            common = self.common_basis(own_key, other_key)
            if ids.size and common.size:
                pos = np.searchsorted(common, ids)
                pos[pos == common.size] = 0
                keep = common[pos] == ids
                cached = (ids[keep], weights[keep])
            else:
                cached = (_EMPTY_IDS, _EMPTY_WEIGHTS)
            self._restricted[cache_key] = cached
        return cached

    # -- batch scoring (Equations 5-6 over all pairs at once) --------------

    def score_pairs(
        self,
        key_s: tuple[str, ...],
        key_e: tuple[str, ...],
        pairs: Sequence[tuple[str, str]],
        *,
        mode: str = "common",
    ) -> np.ndarray:
        """Relatedness of normalized ``(term_s, term_e)`` pairs sharing
        one theme-key combination. Identity short-circuits are the
        measure's job; every pair given here is scored through vectors.
        """
        if mode not in ("common", "own"):
            raise ValueError(f"unknown thematic mode {mode!r}")
        self._batches.inc()
        self._pairs.inc(len(pairs))
        restrict = mode == "common" and key_s != key_e
        with TRACER.span("kernel.score", pairs=len(pairs)):
            left_terms = list(dict.fromkeys(ts for ts, _ in pairs))
            right_terms = list(dict.fromkeys(te for _, te in pairs))
            left = self._gather(left_terms, key_s, key_e, restrict)
            right = self._gather(right_terms, key_e, key_s, restrict)
            li = np.fromiter(
                (left.index[ts] for ts, _ in pairs),
                dtype=np.int64,
                count=len(pairs),
            )
            ri = np.fromiter(
                (right.index[te] for _, te in pairs),
                dtype=np.int64,
                count=len(pairs),
            )
            dots = np.einsum("ij,ij->i", left.rows[li], right.rows[ri])
            if self.metric == "cosine":
                denom = left.norms[li] * right.norms[ri]
                sims = np.zeros(len(pairs))
                np.divide(dots, denom, out=sims, where=denom != 0.0)
                np.clip(sims, -1.0, 1.0, out=sims)
                distances = 1.0 - sims
            else:
                squared = (
                    left.norms_sq[li] + right.norms_sq[ri] - 2.0 * dots
                )
                distances = np.sqrt(np.maximum(squared, 0.0))
            relatedness = 1.0 / (distances + 1.0)
            # An empty (projected) vector is infinitely far from
            # everything: relatedness 0, exactly like the scalar path.
            empty = (left.sizes[li] == 0) | (right.sizes[ri] == 0)
            relatedness[empty] = 0.0
        return relatedness

    def _gather(
        self,
        terms: list[str],
        own_key: tuple[str, ...],
        other_key: tuple[str, ...],
        restrict: bool,
    ) -> "_Side":
        """Dense rows + per-term reductions for one side of a group."""
        rows = np.empty((len(terms), self.columnar.corpus_size))
        sizes = np.empty(len(terms), dtype=np.int64)
        norms = np.empty(len(terms))
        norms_sq = np.empty(len(terms))
        for i, term in enumerate(terms):
            cache_key = (term, own_key, other_key, restrict)
            prepared = self._rows.get(cache_key)
            if prepared is None:
                prepared = self._prepare_row(term, own_key, other_key, restrict)
                self._rows[cache_key] = prepared
            rows[i] = prepared[0]
            sizes[i] = prepared[1]
            norms[i] = prepared[2]
            norms_sq[i] = prepared[3]
        return _Side(
            index={term: i for i, term in enumerate(terms)},
            rows=rows,
            sizes=sizes,
            norms=norms,
            norms_sq=norms_sq,
        )

    def _prepare_row(
        self,
        term: str,
        own_key: tuple[str, ...],
        other_key: tuple[str, ...],
        restrict: bool,
    ) -> tuple[np.ndarray, int, float, float]:
        """Dense (optionally normalized) row of one term, with reductions.

        Runs the identical 1-row matrix arithmetic the batched gather
        used to run per call, so cached floats equal freshly computed
        ones bit for bit.
        """
        if restrict:
            ids, weights = self._restrict_common(term, own_key, other_key)
        else:
            ids, weights = self.project(term, own_key)
        row = np.zeros((1, self.columnar.corpus_size))
        row[0, ids] = weights
        norms_sq = np.einsum("ij,ij->i", row, row)
        norms = np.sqrt(norms_sq)
        if self.normalize:
            safe = np.where(norms == 0.0, 1.0, norms)
            row = row / safe[:, None]
            norms_sq = np.einsum("ij,ij->i", row, row)
            norms = np.sqrt(norms_sq)
        return row[0], int(ids.size), float(norms[0]), float(norms_sq[0])

    def cache_stats(self) -> dict[str, int]:
        """Sizes of the kernel's internal caches (tests/benchmarks)."""
        return {
            "bases": len(self._bases),
            "common_bases": len(self._common_bases),
            "projections": len(self._projections),
            "restricted": len(self._restricted),
            "rows": len(self._rows),
        }


class _Side:
    """One side of a scoring group: dense rows plus per-term reductions."""

    __slots__ = ("index", "rows", "sizes", "norms", "norms_sq")

    def __init__(
        self,
        index: dict[str, int],
        rows: np.ndarray,
        sizes: np.ndarray,
        norms: np.ndarray,
        norms_sq: np.ndarray,
    ) -> None:
        self.index = index
        self.rows = rows
        self.sizes = sizes
        self.norms = norms
        self.norms_sq = norms_sq


class KernelMeasure:
    """Semantic measure backed by a :class:`RelatednessKernel`.

    The drop-in vectorized counterpart of
    :class:`~repro.semantics.measures.ThematicMeasure`. Identical
    normalized terms short-circuit to 1.0 exactly like the scalar
    measure, before any kernel work.
    """

    #: Marks this measure (and wrappers proxying the flag) as batch-
    #: vectorized; the staged pipeline keys its bulk-scoring mode on it.
    vectorized = True

    def __init__(
        self,
        kernel: RelatednessKernel,
        *,
        mode: str = "common",
    ) -> None:
        if mode not in ("common", "own"):
            raise ValueError(f"unknown thematic mode {mode!r}")
        self.kernel = kernel
        self.mode = mode

    def score(
        self,
        term_s: str,
        theme_s: Iterable[str],
        term_e: str,
        theme_e: Iterable[str],
    ) -> float:
        return self.score_batch([(term_s, theme_s, term_e, theme_e)])[0]

    def score_batch(
        self,
        lookups: Sequence[tuple[str, Iterable[str], str, Iterable[str]]],
    ) -> list[float]:
        """Scores for all lookups, grouped by theme-key combination.

        Group scoring uses per-row reductions only, so results are
        independent of how lookups are batched together — a lookup
        scores the same alone and inside any batch.
        """
        out: list[float] = [0.0] * len(lookups)
        groups: dict[
            tuple[tuple[str, ...], tuple[str, ...]],
            list[tuple[int, str, str]],
        ] = {}
        for i, (term_s, theme_s, term_e, theme_e) in enumerate(lookups):
            ts, te = normalize_term(term_s), normalize_term(term_e)
            if ts == te:
                out[i] = 1.0
                continue
            key = (theme_key(theme_s), theme_key(theme_e))
            groups.setdefault(key, []).append((i, ts, te))
        for (key_s, key_e), entries in groups.items():
            pairs = [(ts, te) for _, ts, te in entries]
            scores = self.kernel.score_pairs(
                key_s, key_e, pairs, mode=self.mode
            )
            for (i, _, _), value in zip(entries, scores, strict=True):
                out[i] = float(value)
        return out
