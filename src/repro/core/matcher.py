"""The approximate semantic single-event matcher ``M`` (Section 3.5).

The matcher decides on the semantic relevance of an event to a
subscription by finding the most probable mapping(s) between the
subscription's predicates and the event's tuples. It is parametrized by
a :class:`~repro.semantics.measures.SemanticMeasure`, which is where the
thematic/non-thematic/exact distinction lives:

* ``ThematicMatcher(ThematicMeasure(pvsm))`` — this paper's system;
* ``ThematicMatcher(NonThematicMeasure(space))`` — prior work [16];
* ``ThematicMatcher(ExactMeasure())`` — degenerates to content-based
  matching (every approximation scores 0 unless strings are equal).

Two modes (Figure 4): **top-1** returns the single most probable mapping
σ*; **top-k** returns the k most probable mappings with their
probability space ``P``, for consumption by the CEP layer.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.core.events import Event
from repro.core.mapping import Mapping, top_k_mappings
from repro.core.similarity import Calibration, SimilarityMatrix, build_similarity_matrix
from repro.core.subscriptions import Subscription
from repro.obs import TRACER
from repro.semantics.measures import SemanticMeasure

#: Shared default: Calibration is a frozen value object, so one
#: instance serves every matcher (and keeps the call out of the
#: argument-default position).
_DEFAULT_CALIBRATION = Calibration()

__all__ = ["MatchResult", "ThematicMatcher"]


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one event against one subscription.

    ``mapping`` is the top-1 mapping σ*; ``alternatives`` holds the rest
    of the top-k set (empty in top-1 mode). ``score`` is σ*'s geometric-
    mean correspondence score — the match strength used for ranking and
    thresholding.
    """

    subscription: Subscription
    event: Event
    matrix: SimilarityMatrix
    mapping: Mapping
    alternatives: tuple[Mapping, ...] = ()

    @property
    def score(self) -> float:
        return self.mapping.score

    @property
    def probability(self) -> float:
        return self.mapping.probability

    def mappings(self) -> tuple[Mapping, ...]:
        """All enumerated mappings, best first."""
        return (self.mapping, *self.alternatives)

    def is_match(self, threshold: float) -> bool:
        return self.score >= threshold

    def explain(self) -> str:
        """Human-readable account of the chosen mapping."""
        lines = [f"score={self.score:.3f} probability={self.probability:.3f}"]
        for corr in self.mapping.correspondences:
            lines.append(f"  {corr.describe(self.matrix)} score={corr.score:.3f}")
        return "\n".join(lines)


class ThematicMatcher:
    """Approximate probabilistic matcher, top-1 or top-k (Section 3.5).

    Parameters
    ----------
    measure:
        The semantic measure scoring term pairs (with themes).
    k:
        How many mappings to enumerate; ``k=1`` is top-1 mode.
    threshold:
        Minimum mapping score for :meth:`matches` to say yes (calibrated
        scores behave like probabilities, so 0.5 is a sensible default).
    min_relatedness:
        Noise-floor clamp forwarded to the similarity matrix.
    calibration:
        Logistic calibration of raw relatedness into correspondence
        probabilities (see :class:`~repro.core.similarity.Calibration`).
        On by default; pass ``None`` for raw Equation 6 scores.
    """

    def __init__(
        self,
        measure: SemanticMeasure,
        *,
        k: int = 1,
        threshold: float = 0.5,
        min_relatedness: float = 0.0,
        calibration: Calibration | None = _DEFAULT_CALIBRATION,
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.measure = measure
        self.k = k
        self.threshold = threshold
        self.min_relatedness = min_relatedness
        self.calibration = calibration
        self._pipeline = None  # lazy StagedBatchPipeline (see match_batch)

    def similarity_matrix(
        self, subscription: Subscription, event: Event
    ) -> SimilarityMatrix:
        return build_similarity_matrix(
            subscription,
            event,
            self.measure,
            min_relatedness=self.min_relatedness,
            calibration=self.calibration,
        )

    def match(self, subscription: Subscription, event: Event) -> MatchResult | None:
        """Full match outcome, or ``None`` when no mapping exists.

        No mapping exists only when the event has fewer tuples than the
        subscription has predicates (a mapping needs exactly ``n``
        distinct correspondences).
        """
        with TRACER.span(
            "matcher.match",
            n=len(subscription.predicates),
            m=len(event.payload),
        ):
            matrix = self.similarity_matrix(subscription, event)
            mappings = top_k_mappings(matrix, self.k)
        if not mappings:
            return None
        return MatchResult(
            subscription=subscription,
            event=event,
            matrix=matrix,
            mapping=mappings[0],
            alternatives=tuple(mappings[1:]),
        )

    def score(self, subscription: Subscription, event: Event) -> float:
        """Match strength in ``[0, 1]``; 0 when no mapping exists."""
        result = self.match(subscription, event)
        return result.score if result is not None else 0.0

    def matches(self, subscription: Subscription, event: Event) -> bool:
        """Boolean decision at this matcher's threshold."""
        result = self.match(subscription, event)
        return result is not None and result.is_match(self.threshold)

    def new_pipeline(self, *, span_tags: dict | None = None, neighborhoods=None):
        """A fresh :class:`~repro.core.pipeline.StagedBatchPipeline`.

        The default :meth:`match_batch` pipeline is shared state (its
        compiled-subscription and side-score tables mutate per batch),
        so concurrent callers — one engine per broker shard — each take
        a private pipeline instead. ``span_tags`` label every span the
        pipeline emits (e.g. with a shard id); ``neighborhoods`` turns
        on the candidate stage's semantic anchors.
        """
        # Imported here: pipeline.py imports MatchResult from this
        # module, so a top-level import would be circular.
        from repro.core.pipeline import StagedBatchPipeline

        return StagedBatchPipeline(
            self, span_tags=span_tags, neighborhoods=neighborhoods
        )

    def match_batch(
        self,
        subscriptions,
        events,
        *,
        scores_only: bool = False,
        prune_zero: bool | None = None,
        deliver_threshold: float | None = None,
    ):
        """Match every subscription against every event, staged.

        Runs the :class:`~repro.core.pipeline.StagedBatchPipeline`
        (candidates → shared rows → bulk scoring → bound → assignment),
        which deduplicates semantic lookups across the whole batch. The
        score grid is bit-identical to per-pair :meth:`score` calls; see
        :mod:`repro.core.api` for the contract and the keyword options.
        In the delivery-gated ``deliver_threshold`` mode (see
        :meth:`StagedBatchPipeline.run`) it is bit-identical for every
        pair at or above the threshold, and pairs below it read 0.0.
        """
        if self._pipeline is None:
            # The shared pipeline reads measure / calibration / k /
            # min_relatedness through its ``matcher`` at run time, so it
            # must point back here — weakly: a strong back-reference
            # closes a matcher <-> pipeline cycle, and a dropped stack's
            # score memo and tables then wait for the cycle collector.
            self._pipeline = self.new_pipeline()
            self._pipeline.matcher = weakref.proxy(self)
        return self._pipeline.run(
            subscriptions,
            events,
            scores_only=scores_only,
            prune_zero=prune_zero,
            deliver_threshold=deliver_threshold,
        )
