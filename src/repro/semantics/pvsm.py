"""The Parametric Vector Space Model (PVSM) of Section 4.

The PVSM is built exactly like the non-thematic space — index the corpus
once — but at *use* time every term vector is first **projected** onto
the thematic sub-space spanned by the documents that define the theme
tags (Figure 5, steps 2–3; Algorithm 1). Projection both disambiguates
(only in-theme senses of a term survive) and shrinks vectors (fewer
dimensions → faster distance computation), which is the mechanism behind
both headline results of the paper.

Algorithm 1, restated:

1. ``th_vec`` = distributional vector of the theme (sum over its tags);
2. the thematic basis ``B`` = documents where ``th_vec`` > 0;
3. the projected term vector has 0 outside ``B``; inside ``B`` it keeps
   the original augmented tf but *recomputes idf against the sub-corpus*:
   ``idf = log(|B| / |{d in B : t in d}|)``.

Projection is ``O(|V|)`` in the non-zero components, as the paper notes.
Projected vectors are cached per ``(term, theme)``; themes are canonical
frozensets so tag order and case never split the cache. Cross-theme
scoring also memoizes, per ``(term, own theme, other theme)``, just the
restricted (and normalized) operand its distance step consumes.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from repro.obs import TRACER
from repro.semantics.documents import DocumentSet
from repro.semantics.space import DistributionalVectorSpace, relatedness_from_distance
from repro.semantics.tokenize import normalize_term, tokenize
from repro.semantics.vectors import ZERO_VECTOR, SparseVector
from repro.semantics.weighting import augmented_tf, idf

__all__ = ["Theme", "theme_key", "ParametricVectorSpace"]

#: A theme is a set of free-form tags (single- or multi-word terms).
Theme = frozenset[str]


@lru_cache(maxsize=65536)
def _theme_key_cached(tags: frozenset) -> tuple[str, ...]:
    return tuple(sorted({normalize_term(t) for t in tags} - {""}))


def theme_key(tags: Iterable[str]) -> tuple[str, ...]:
    """Canonical, hashable, order/case-insensitive form of a theme.

    Empty strings normalize away entirely and are dropped. Memoized:
    events and subscriptions carry themes as (often shared) frozensets,
    and a single relatedness lookup calls this several times.
    """
    if not isinstance(tags, frozenset):
        tags = frozenset(tags)
    return _theme_key_cached(tags)


class ParametricVectorSpace(DistributionalVectorSpace):
    """Distributional space whose vectors can be thematically projected.

    Extends :class:`DistributionalVectorSpace`; with an empty theme every
    operation degenerates to the non-thematic behaviour, so a single
    space instance serves both the thematic matcher and the non-thematic
    baseline.
    """

    def __init__(
        self,
        documents: DocumentSet,
        *,
        normalize: bool = True,
        metric: str = "euclidean",
        recompute_idf: bool = True,
    ) -> None:
        """``recompute_idf=False`` replaces Algorithm 1's sub-corpus idf
        recomputation with naive masking (keep the full-space tf/idf
        weight, zero out-of-basis components) — the ablation variant of
        the design choice DESIGN.md calls out."""
        super().__init__(documents, normalize=normalize, metric=metric)
        self.recompute_idf = recompute_idf
        self._bases: dict[tuple[str, ...], frozenset[int]] = {}
        self._projections: dict[tuple[str, tuple[str, ...]], SparseVector] = {}
        self._common_bases: dict[
            tuple[tuple[str, ...], tuple[str, ...]], frozenset[int]
        ] = {}
        # (term, own key, other key) -> prepared cross-theme operand.
        self._restricted: dict[
            tuple[str, tuple[str, ...], tuple[str, ...]], SparseVector
        ] = {}

    # -- thematic basis (Figure 5, steps 2-3) ------------------------------

    def theme_basis(self, theme: Iterable[str]) -> frozenset[int]:
        """Documents spanning the theme: support of the theme's vector.

        The theme vector is the sum of its tags' vectors, so the basis is
        the union of the tags' supports. An empty theme spans the whole
        corpus (no filtering); a theme of entirely unknown tags spans
        nothing and every projection through it is the zero vector.
        """
        key = theme_key(theme)
        cached = self._bases.get(key)
        if cached is not None:
            return cached
        if not key:
            basis = frozenset(range(self.index.corpus_size))
        else:
            support: set[int] = set()
            for tag in key:
                support |= self.term_vector(tag).support()
            basis = frozenset(support)
        self._bases[key] = basis
        return basis

    # -- Algorithm 1 -------------------------------------------------------

    def project(self, term: str, theme: Iterable[str]) -> SparseVector:
        """Thematic projection of ``term`` given ``theme`` (Algorithm 1).

        Multi-word terms are projected token-by-token and summed, matching
        the additive composition of
        :meth:`~repro.semantics.space.DistributionalVectorSpace.term_vector`.
        """
        key = theme_key(theme)
        term_norm = normalize_term(term)
        cache_key = (term_norm, key)
        cached = self._projections.get(cache_key)
        if cached is not None:
            return cached
        if not key:
            vector = self.term_vector(term_norm)
        else:
            # The span covers only the cache-miss work: repeated lookups
            # are dict hits and would drown the projection timings.
            with TRACER.span("semantics.project", tags=len(key)):
                basis = self.theme_basis(key)
                vector = ZERO_VECTOR
                for token in tokenize(term_norm):
                    vector = vector.add(self._project_token(token, basis))
        self._projections[cache_key] = vector
        return vector

    def _project_token(self, token: str, basis: frozenset[int]) -> SparseVector:
        if not basis:
            return ZERO_VECTOR
        postings = self.index.postings.get(token)
        if not postings:
            return ZERO_VECTOR
        in_basis = [doc_id for doc_id in postings if doc_id in basis]
        if not in_basis:
            return ZERO_VECTOR
        if not self.recompute_idf:  # naive-masking ablation
            return self.token_vector(token).restrict(basis)
        sub_idf = idf(len(basis), len(in_basis))
        return SparseVector(
            {
                doc_id: augmented_tf(postings[doc_id], self.index.max_frequency[doc_id])
                * sub_idf
                for doc_id in in_basis
            }
        )

    # -- thematic relatedness (Figure 5, step 4) ---------------------------

    def thematic_relatedness(
        self,
        term_s: str,
        theme_s: Iterable[str],
        term_e: str,
        theme_e: Iterable[str],
        *,
        mode: str = "common",
    ) -> float:
        """``sm(th_s, t_s, th_e, t_e)`` of Section 4.3.

        Projects the subscription term by the subscription theme and the
        event term by the event theme, then measures vector distance and
        maps it to relatedness (Equations 5–6).

        ``mode`` selects how the two thematic sub-spaces combine for the
        distance step:

        * ``"common"`` (default) — the distance is computed over the
          *common dimensions* of the two thematic bases: each projected
          vector is restricted to the intersection before normalization
          (restricting it to the other theme's basis is the same thing,
          since a projection already lies inside its own basis).
          This matches the paper's own account of its cost behaviour
          ("two equal sets of thematic tags ... causes more common
          dimensions for the semantic measure to be calculated") and of
          the diagonal's reduced discriminativeness; with nested themes
          it removes the norm penalty a wider-themed vector would
          otherwise pay for mass the other side cannot see.
        * ``"own"`` — the literal per-side reading of Algorithm 1: each
          vector stays in its own thematic sub-space. Kept for the
          ablation bench.
        """
        if mode not in ("common", "own"):
            raise ValueError(f"unknown thematic mode {mode!r}")
        with TRACER.span("semantics.relatedness"):
            key_s, key_e = theme_key(theme_s), theme_key(theme_e)
            if mode == "common" and key_s != key_e:
                left = self._prepared(term_s, key_s, key_e)
                right = self._prepared(term_e, key_e, key_s)
                return relatedness_from_distance(self._prepared_distance(left, right))
            return self.vector_relatedness(
                self.project(term_s, key_s), self.project(term_e, key_e)
            )

    def common_basis(
        self, theme_a: Iterable[str], theme_b: Iterable[str]
    ) -> frozenset[int]:
        """Common dimensions of two themes' bases (cached, symmetric)."""
        key_a, key_b = theme_key(theme_a), theme_key(theme_b)
        cache_key = (key_a, key_b) if key_a <= key_b else (key_b, key_a)
        cached = self._common_bases.get(cache_key)
        if cached is None:
            cached = self.theme_basis(key_a) & self.theme_basis(key_b)
            self._common_bases[cache_key] = cached
        return cached

    def _prepared(
        self,
        term: str,
        own_key: tuple[str, ...],
        other_key: tuple[str, ...],
    ) -> SparseVector:
        """Own-theme projection restricted to the other theme's basis, then
        normalized if the space normalizes (cached); a restriction that
        drops nothing shares the projection's own unit vector."""
        cache_key = (normalize_term(term), own_key, other_key)
        cached = self._restricted.get(cache_key)
        if cached is None:
            cached = self.project(term, own_key).restrict(
                self.theme_basis(other_key)
            )
            if self.normalize:
                cached = cached.normalized()
            self._restricted[cache_key] = cached
        return cached

    def warm(
        self, terms: Iterable[str], themes: Iterable[Iterable[str]]
    ) -> dict[str, int]:
        """Precompute theme bases and ``(term, theme)`` projections.

        The scalar scoring path pays its projection cost on first use of
        each pair; warming moves that cost offline (the
        ``repro warm-cache`` pipeline calls this before scoring the
        vocabulary cross-product, and cross-theme runs additionally warm
        each term's operand for both orders of every theme pair). Returns
        :meth:`cache_stats` so callers can report what was materialized.
        """
        terms = list(terms)
        keys = sorted({theme_key(theme) for theme in themes})
        for key in keys:
            self.theme_basis(key)
            for term in terms:
                self.project(term, key)
        for i, key_a in enumerate(keys):
            for key_b in keys[i + 1 :]:
                for term in terms:
                    self._prepared(term, key_a, key_b)
                    self._prepared(term, key_b, key_a)
        return self.cache_stats()

    def cache_stats(self) -> dict[str, int]:
        """Sizes of the internal caches (for tests and benchmarks)."""
        return {
            "bases": len(self._bases),
            "common_bases": len(self._common_bases),
            "projections": len(self._projections),
            "restricted": len(self._restricted),
            "term_vectors": len(self._term_vectors),
            "token_vectors": len(self._token_vectors),
        }
