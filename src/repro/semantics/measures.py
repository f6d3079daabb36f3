"""Semantic measures ``sm : T x 2^TH x T x 2^TH -> [0, 1]`` (Section 4.3).

A semantic measure scores how related a subscription term and an event
term are, given the themes of both sides. Three concrete measures cover
the approaches of Table 1:

* :class:`ExactMeasure` — string identity; the content-based approach.
* :class:`NonThematicMeasure` — distributional relatedness ignoring
  themes; the approximate approach of the authors' prior work [16].
* :class:`ThematicMeasure` — thematic projection then distance; the
  contribution of this paper.

:class:`CachedMeasure` is the one wrapper that answers any of them from a
:class:`~repro.semantics.cache.RelatednessCache`: memo first, then the
memo's backing :class:`~repro.semantics.cache.PersistentScoreStore` when
it has one, then the wrapped measure. Over an empty cache that is online
memoization; over a pre-filled one
(:func:`~repro.semantics.cache.precompute_scores`) it is the
"precomputed esa scores" fast mode that reaches ~91k events/sec in the
prior-work comparison (Section 5, P16 bench) — wrap
:class:`ExactMeasure` to score pairs the table never enumerated as 0.0.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Protocol

from repro.semantics.cache import RelatednessCache, cache_key
from repro.semantics.pvsm import ParametricVectorSpace
from repro.semantics.space import DistributionalVectorSpace
from repro.semantics.tokenize import normalize_term

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.semantics.kernel import KernelMeasure

__all__ = [
    "SemanticMeasure",
    "ExactMeasure",
    "NonThematicMeasure",
    "ThematicMeasure",
    "CachedMeasure",
]


class SemanticMeasure(Protocol):
    """Callable scoring relatedness of a subscription/event term pair."""

    def score(
        self,
        term_s: str,
        theme_s: Iterable[str],
        term_e: str,
        theme_e: Iterable[str],
    ) -> float:
        """Relatedness in ``[0, 1]``; 1 means identical meaning."""
        ...


class ExactMeasure:
    """String identity after normalization; no semantics involved."""

    def score(
        self,
        term_s: str,
        theme_s: Iterable[str],
        term_e: str,
        theme_e: Iterable[str],
    ) -> float:
        return 1.0 if normalize_term(term_s) == normalize_term(term_e) else 0.0


class NonThematicMeasure:
    """Distributional relatedness on the full space; themes are ignored.

    Identical strings short-circuit to 1.0 so exact hits always dominate
    merely-related terms regardless of the distance floor.
    """

    def __init__(self, space: DistributionalVectorSpace) -> None:
        self.space = space

    def score(
        self,
        term_s: str,
        theme_s: Iterable[str],
        term_e: str,
        theme_e: Iterable[str],
    ) -> float:
        if normalize_term(term_s) == normalize_term(term_e):
            return 1.0
        return self.space.relatedness(term_s, term_e)


class ThematicMeasure:
    """The paper's measure: project by themes, then distance (Figure 5).

    ``mode`` selects the sub-space composition for the distance step —
    ``"common"`` (default) or ``"own"``; see
    :meth:`repro.semantics.pvsm.ParametricVectorSpace.thematic_relatedness`.
    """

    def __init__(
        self,
        space: ParametricVectorSpace,
        *,
        mode: str = "common",
        vectorized: bool = False,
    ) -> None:
        """``vectorized=True`` routes scoring (single and batched)
        through the space's numpy kernel instead of the scalar
        ``SparseVector`` path — same semantics, documented float
        tolerance (see :mod:`repro.semantics.kernel`). Off by default:
        the scalar path keeps its bit-exact batch-vs-pair guarantee."""
        self.space = space
        self.mode = mode
        self.vectorized = vectorized
        self._kernel_measure: KernelMeasure | None = None

    def _kernel(self) -> KernelMeasure:
        if self._kernel_measure is None:
            from repro.semantics.kernel import KernelMeasure

            self._kernel_measure = KernelMeasure(
                self.space.kernel(), mode=self.mode
            )
        return self._kernel_measure

    def score(
        self,
        term_s: str,
        theme_s: Iterable[str],
        term_e: str,
        theme_e: Iterable[str],
    ) -> float:
        if normalize_term(term_s) == normalize_term(term_e):
            return 1.0
        if self.vectorized:
            return self._kernel().score(term_s, theme_s, term_e, theme_e)
        return self.space.thematic_relatedness(
            term_s, theme_s, term_e, theme_e, mode=self.mode
        )

    def score_batch(
        self,
        lookups: Iterable[tuple[str, Iterable[str], str, Iterable[str]]],
    ) -> list[float]:
        """Batched :meth:`score`; one kernel call when vectorized."""
        lookups = list(lookups)
        if self.vectorized:
            return self._kernel().score_batch(lookups)
        return [self.score(*lookup) for lookup in lookups]


class CachedMeasure:
    """Any measure answered through a :class:`RelatednessCache`.

    The one tier order: the cache's memo, then its backing score store
    (when it has one; store hits are written back into the memo), then
    ``inner`` — whose answer is memoized too. The underlying measures are
    symmetric in their (term, theme) pairs, so the cache key is
    order-insensitive; hit statistics are exposed for the throughput
    benchmarks. Every measure short-circuits identical terms to 1.0, so
    probing the memo first changes no score.
    """

    def __init__(
        self, inner: SemanticMeasure, cache: RelatednessCache | None = None
    ) -> None:
        self.inner = inner
        self.cache = cache if cache is not None else RelatednessCache()

    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate

    @property
    def vectorized(self) -> bool:
        """Whether a batch of lookups is better asked as one
        :meth:`score_batch`: the wrapped measure's flag, or a backing
        store (one array probe per batch instead of one per key)."""
        return self.cache.backing is not None or bool(
            getattr(self.inner, "vectorized", False)
        )

    def score(
        self,
        term_s: str,
        theme_s: Iterable[str],
        term_e: str,
        theme_e: Iterable[str],
    ) -> float:
        key = cache_key(term_s, theme_s, term_e, theme_e)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        value = self.inner.score(term_s, theme_s, term_e, theme_e)
        self.cache.put(key, value)
        return value

    def score_batch(
        self,
        lookups: Iterable[tuple[str, Iterable[str], str, Iterable[str]]],
    ) -> list[float]:
        """Batched :meth:`score`: one cache probe, misses scored once.

        The whole batch rides one :meth:`RelatednessCache.get_many` (so
        one store probe when the cache is backed). What is still missing
        goes to the wrapped measure's ``score_batch`` when it has one
        (one kernel call for a vectorized inner measure), otherwise
        per-lookup ``score`` — value-identical either way.
        """
        lookups = list(lookups)
        keys = [cache_key(*lookup) for lookup in lookups]
        out = self.cache.get_many(keys)
        missing = [i for i, value in enumerate(out) if value is None]
        if missing:
            inner_batch = getattr(self.inner, "score_batch", None)
            if inner_batch is not None:
                values = inner_batch([lookups[i] for i in missing])
            else:
                values = [self.inner.score(*lookups[i]) for i in missing]
            for i, value in zip(missing, values, strict=True):
                self.cache.put(keys[i], value)
                out[i] = value
        return out
