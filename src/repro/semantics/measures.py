"""Semantic measures ``sm : T x 2^TH x T x 2^TH -> [0, 1]`` (Section 4.3).

A semantic measure scores how related a subscription term and an event
term are, given the themes of both sides. Three concrete measures cover
the approaches of Table 1:

* :class:`ExactMeasure` — string identity; the content-based approach.
* :class:`NonThematicMeasure` — distributional relatedness ignoring
  themes; the approximate approach of the authors' prior work [16].
* :class:`ThematicMeasure` — thematic projection then distance; the
  contribution of this paper.

:class:`CachedMeasure` memoizes any measure (symmetric keys), and
:class:`PrecomputedMeasure` serves scores from a pre-built table — the
"precomputed esa scores" fast mode that reaches ~91k events/sec in the
prior-work comparison (Section 5, P16 bench).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Protocol

from repro.semantics.cache import PrecomputedScoreTable, RelatednessCache
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
    "PrecomputedMeasure",
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

    ``vectorized=True`` routes scoring (single and batched) through the
    space's numpy kernel instead of the scalar ``SparseVector`` path —
    same semantics, documented float tolerance (see
    :mod:`repro.semantics.kernel`).
    """

    def __init__(
        self, space: DistributionalVectorSpace, *, vectorized: bool = False
    ) -> None:
        self.space = space
        self.vectorized = vectorized
        self._kernel_measure: KernelMeasure | None = None

    def _kernel(self) -> KernelMeasure:
        if self._kernel_measure is None:
            from repro.semantics.kernel import KernelMeasure

            self._kernel_measure = KernelMeasure(
                self.space.kernel(), thematic=False
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
        return self.space.relatedness(term_s, term_e)

    def score_batch(
        self,
        lookups: Iterable[tuple[str, Iterable[str], str, Iterable[str]]],
    ) -> list[float]:
        """Batched :meth:`score`; one kernel call when vectorized."""
        lookups = list(lookups)
        if self.vectorized:
            return self._kernel().score_batch(lookups)
        return [self.score(*lookup) for lookup in lookups]


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
    """Memoizing wrapper around any measure.

    The underlying measures are symmetric in their (term, theme) pairs,
    so the cache key is order-insensitive; hit statistics are exposed for
    the throughput benchmarks.
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
        """Proxies the wrapped measure's batch-vectorization flag."""
        return bool(getattr(self.inner, "vectorized", False))

    def score(
        self,
        term_s: str,
        theme_s: Iterable[str],
        term_e: str,
        theme_e: Iterable[str],
    ) -> float:
        key = self.cache.key(term_s, theme_s, term_e, theme_e)
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
        """Batched :meth:`score`: cache hits served, misses scored once.

        Misses go to the wrapped measure's ``score_batch`` when it has
        one (one kernel call for a vectorized inner measure), otherwise
        per-lookup ``score`` — value-identical either way.
        """
        lookups = list(lookups)
        out: list[float] = [0.0] * len(lookups)
        missing: list[int] = []
        keys = []
        for i, lookup in enumerate(lookups):
            key = self.cache.key(*lookup)
            keys.append(key)
            hit = self.cache.get(key)
            if hit is not None:
                out[i] = hit
            else:
                missing.append(i)
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


class PrecomputedMeasure:
    """Measure answering from a precomputed score tier.

    Models the prior-work fast mode where all pairwise esa scores are
    computed offline. ``table`` is anything with the symmetric
    ``get(term_s, theme_s, term_e, theme_e)`` signature — the in-memory
    :class:`PrecomputedScoreTable` or the mmap-backed
    :class:`~repro.semantics.cache.PersistentScoreStore`. Pairs missing
    from the table fall back to ``fallback`` (default: score 0.0, i.e.
    unknown pairs are unrelated, matching an offline table that
    enumerated the whole vocabulary); layering the store over a
    :class:`CachedMeasure` gives the full tier order the engine uses —
    store, then online memo, then kernel.
    """

    def __init__(
        self,
        table: PrecomputedScoreTable,
        fallback: SemanticMeasure | None = None,
    ) -> None:
        self.table = table
        self.fallback = fallback

    @property
    def vectorized(self) -> bool:
        """Proxies the fallback's batch-vectorization flag."""
        return bool(getattr(self.fallback, "vectorized", False))

    def score(
        self,
        term_s: str,
        theme_s: Iterable[str],
        term_e: str,
        theme_e: Iterable[str],
    ) -> float:
        if normalize_term(term_s) == normalize_term(term_e):
            return 1.0
        hit = self.table.get(term_s, theme_s, term_e, theme_e)
        if hit is not None:
            return hit
        if self.fallback is not None:
            return self.fallback.score(term_s, theme_s, term_e, theme_e)
        return 0.0

    def score_batch(
        self,
        lookups: Iterable[tuple[str, Iterable[str], str, Iterable[str]]],
    ) -> list[float]:
        """Batched :meth:`score`: table hits served, misses in one batch.

        Misses go to the fallback's ``score_batch`` when it has one (one
        kernel call for a vectorized fallback), otherwise per-lookup
        ``score`` — value-identical either way. This is what routes the
        precomputed tier through the pipeline's bulk scoring stage, not
        just the per-lookup loop.
        """
        lookups = list(lookups)
        out: list[float] = [0.0] * len(lookups)
        probe: list[int] = []
        for i, (term_s, theme_s, term_e, theme_e) in enumerate(lookups):
            if normalize_term(term_s) == normalize_term(term_e):
                out[i] = 1.0
            else:
                probe.append(i)
        missing: list[int] = []
        if probe:
            get_batch = getattr(self.table, "get_batch", None)
            if get_batch is not None:
                hits = get_batch([lookups[i] for i in probe])
            else:
                hits = [self.table.get(*lookups[i]) for i in probe]
            for i, hit in zip(probe, hits, strict=True):
                if hit is not None:
                    out[i] = hit
                elif self.fallback is not None:
                    missing.append(i)
        if missing:
            fallback_batch = getattr(self.fallback, "score_batch", None)
            if fallback_batch is not None:
                values = fallback_batch([lookups[i] for i in missing])
            else:
                values = [self.fallback.score(*lookups[i]) for i in missing]
            for i, value in zip(missing, values, strict=True):
                out[i] = value
        return out
