"""Sparse vector algebra over the document basis.

Term vectors in the distributional space (Equation 1) are extremely
sparse — a term touches a handful of documents out of thousands — so we
represent them as immutable mappings ``doc_id -> weight`` and implement
exactly the operations the matcher needs: addition, scaling, restriction
to a basis (the projection primitive of Algorithm 1), Euclidean distance
(Equation 5) and cosine similarity.

Zero weights are never stored; ``support()`` is therefore the set of
documents with strictly positive or negative weight.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from typing import Any

__all__ = ["SparseVector", "ZERO_VECTOR"]


class SparseVector:
    """Immutable sparse vector keyed by integer document ids."""

    __slots__ = ("_components", "_norm", "_normalized")

    def __init__(
        self, components: Mapping[int, float] | Iterable[tuple[int, float]] = ()
    ) -> None:
        items = components.items() if isinstance(components, Mapping) else components
        self._components: dict[int, float] = {
            dim: float(w) for dim, w in items if w != 0.0
        }
        # `w != 0.0` is True for NaN, so a poisoned weight would be
        # *stored* and silently corrupt every downstream norm/dot —
        # worse, the scalar and vectorized kernels would disagree on how
        # the poison propagates. Reject it at the boundary instead.
        for dim, w in self._components.items():
            if w != w:
                raise ValueError(f"NaN weight at dimension {dim}")
        self._norm: float | None = None
        self._normalized: "SparseVector | None" = None

    # -- basic accessors -------------------------------------------------

    def __getitem__(self, dim: int) -> float:
        return self._components.get(dim, 0.0)

    def __len__(self) -> int:
        return len(self._components)

    def __bool__(self) -> bool:
        return bool(self._components)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._components == other._components

    def __hash__(self) -> int:
        return hash(frozenset(self._components.items()))

    def __repr__(self) -> str:
        head = sorted(self._components.items())[:4]
        more = "" if len(self._components) <= 4 else f", ... {len(self) - 4} more"
        inner = ", ".join(f"{d}: {w:.4g}" for d, w in head)
        return f"SparseVector({{{inner}{more}}})"

    def items(self) -> Iterable[tuple[int, float]]:
        return self._components.items()

    def support(self) -> frozenset[int]:
        """Dimensions (document ids) with non-zero weight."""
        return frozenset(self._components)

    def to_dict(self) -> dict[int, float]:
        return dict(self._components)

    # -- algebra ---------------------------------------------------------

    def add(self, other: "SparseVector") -> "SparseVector":
        if not other:
            return self
        merged = dict(self._components)
        for dim, weight in other._components.items():
            merged[dim] = merged.get(dim, 0.0) + weight
        return SparseVector(merged)

    def scale(self, factor: float) -> "SparseVector":
        if factor == 0.0:
            return ZERO_VECTOR
        return SparseVector({d: w * factor for d, w in self._components.items()})

    def dot(self, other: "SparseVector") -> float:
        small, large = self._components, other._components
        if len(large) < len(small):
            small, large = large, small
        return sum(w * large[d] for d, w in small.items() if d in large)

    def norm(self) -> float:
        """Euclidean (L2) norm; cached because vectors are immutable.

        ``math.hypot`` rather than ``sqrt(sum(w*w))``: it rescales
        internally, so components near the float extremes neither
        underflow to subnormals nor overflow when squared.
        """
        if self._norm is None:
            self._norm = math.hypot(*self._components.values())
        return self._norm

    def normalized(self) -> "SparseVector":
        """Unit-length copy; the zero vector normalizes to itself.

        Memoized, like :meth:`norm` — distance computations normalize
        their operands on every call, and the operands are long-lived
        cached projections, so without memoization the same scaled copy
        is rebuilt for every term pair that touches the vector. (The
        benign-race caveat of CPython attribute stores applies: two
        threads may build the copy concurrently; both results are
        identical and either may win.)
        """
        if self._normalized is None:
            norm = self.norm()
            if norm == 0.0:
                self._normalized = ZERO_VECTOR
            else:
                components = self._components
                if norm < 2.0**-1022:
                    # Subnormal norm: dividing subnormal components by a
                    # subnormal norm quantizes to the 5e-324 grid and the
                    # "unit" result can be off by a whole ulp ratio.
                    # Scaling by an exact power of two first lifts every
                    # component onto the normal grid (no overflow: all
                    # components are < 2**-1022, so scaled < 2**-510).
                    components = {
                        d: w * 2.0**512 for d, w in components.items()
                    }
                    norm = math.hypot(*components.values())
                # Divide rather than scale by 1/norm: the reciprocal of
                # a tiny norm overflows to inf.
                self._normalized = SparseVector(
                    {d: w / norm for d, w in components.items()}
                )
        return self._normalized

    def restrict(self, basis: frozenset[int] | set[int]) -> "SparseVector":
        """Zero every component outside ``basis`` (projection primitive).

        Returns ``self`` when nothing is dropped. Kept components were
        validated when ``self`` was built and are not checked again.
        """
        kept = {d: w for d, w in self._components.items() if d in basis}
        if len(kept) == len(self._components):
            return self
        restricted = SparseVector()
        restricted._components = kept
        return restricted

    # -- distances (Equation 5) -------------------------------------------

    def euclidean_distance(self, other: "SparseVector") -> float:
        """Plain Euclidean distance over the union of supports."""
        # ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b  — cheaper than iterating
        # the union of supports and numerically fine at our magnitudes.
        squared = self.norm() ** 2 + other.norm() ** 2 - 2.0 * self.dot(other)
        return math.sqrt(max(squared, 0.0))

    def cosine_similarity(self, other: "SparseVector") -> float:
        denom = self.norm() * other.norm()
        if denom == 0.0:
            return 0.0
        # Clamp for floating error so callers can rely on [-1, 1].
        return max(-1.0, min(1.0, self.dot(other) / denom))


#: Shared empty vector; also what a projection returns when a term has no
#: overlap with the thematic basis.
ZERO_VECTOR = SparseVector()
