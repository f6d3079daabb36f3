"""The unified matching contract: one protocol for every Table-1 approach.

Historically the four comparison systems exposed three incompatible
interfaces (``ThematicMatcher.match -> MatchResult | None``,
``ExactMatcher``/``RewritingMatcher`` with boolean ``matches``/binary
``score`` only, and no batch entry point anywhere), so every consumer —
engine, broker, harness, CLI — special-cased them. This module defines
the single contract they all implement now:

* :class:`MatchEngine` — the protocol: per-pair ``match`` / ``matches``
  / ``score``, a ``threshold``, and the staged batch entry point
  ``match_batch(subscriptions, events)``;
* :class:`BatchMatchResult` — the uniform result of a batch: an
  ``S x E`` score grid (bit-identical to what per-pair ``score`` calls
  would produce) plus, outside scores-only mode, the full per-pair
  :class:`~repro.core.matcher.MatchResult` objects;
* :func:`pairwise_match_batch` — the reference batch implementation
  (a per-pair loop) that any engine can fall back on, and that the
  parity tests compare the staged pipeline against.

Semantics that make the four approaches interchangeable:

* ``score`` is a match strength in ``[0, 1]``; boolean approaches
  (exact, rewriting) report 1.0/0.0.
* ``match`` returns ``None`` when the engine has *no result to
  explain* — for the probabilistic matchers that is only the no-mapping
  case (event smaller than the subscription); the boolean engines also
  return ``None`` for plain non-matches, since they have no partial
  scores to report. In every case ``match() is None`` implies
  ``score() == 0.0``.
* ``match_batch`` must agree with the per-pair path: grid entry
  ``(i, j)`` equals ``score(subscriptions[i], events[j])`` exactly.
  Implementations may accept extra keyword arguments (``scores_only``,
  ``prune_zero``) — all in-tree engines do — but must work when called
  with the two positional arguments alone.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.core.events import Event
from repro.core.matcher import MatchResult
from repro.core.subscriptions import Subscription

__all__ = ["MatchEngine", "BatchMatchResult", "pairwise_match_batch"]


@dataclass
class BatchMatchResult:
    """Outcome of matching ``S`` subscriptions against ``E`` events.

    ``scores[i][j]`` is the match strength of ``subscriptions[i]``
    against ``events[j]`` — always populated, and exactly equal to what
    the per-pair ``score`` path returns for that pair (except pairs a
    pipeline's opt-in, lossy semantic anchors pruned, which read 0.0).
    In the staged pipeline's delivery-gated mode (``deliver_threshold``)
    it is exact for every pair at or above the threshold, and every pair
    below it reads 0.0, as a pruned pair does.

    ``results[i][j]`` carries the full :class:`MatchResult` when the
    batch ran in full-result mode, and is ``None`` where the engine has
    no result object for the pair: scores-only batches, pairs with no
    possible mapping, pairs the candidate filter pruned, non-matches
    of boolean engines, and pairs below a delivery-gated batch's
    threshold.
    """

    subscriptions: tuple[Subscription, ...]
    events: tuple[Event, ...]
    scores: list[list[float]]
    results: list[list[MatchResult | None]] | None = None
    #: Optional execution detail (e.g. the staged pipeline's
    #: :class:`~repro.core.pipeline.BatchStats`); engines that have
    #: nothing to report leave it ``None``.
    stats: object | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.subscriptions), len(self.events))

    def score(self, i: int, j: int) -> float:
        return self.scores[i][j]

    def result(self, i: int, j: int) -> MatchResult | None:
        """Full result for one pair; ``None`` in scores-only mode."""
        if self.results is None:
            return None
        return self.results[i][j]

    def matched(self, threshold: float) -> Iterator[tuple[int, int, MatchResult]]:
        """Pairs whose score clears ``threshold``, subscription-major.

        Only available on full-result batches (results attached);
        scores-only batches raise, because there is nothing to deliver.
        """
        if self.results is None:
            raise ValueError("matched() needs a full-result batch")
        for i, row in enumerate(self.results):
            for j, result in enumerate(row):
                if result is not None and result.is_match(threshold):
                    yield (i, j, result)

    def score_grid(self) -> list[list[float]]:
        """Copy of the score grid (rows are subscriptions)."""
        return [list(row) for row in self.scores]


@runtime_checkable
class MatchEngine(Protocol):
    """The one matching contract all Table-1 approaches implement.

    ``threshold`` is the engine's boolean decision point: ``matches``
    says yes when ``score >= threshold``. Probabilistic engines use a
    calibrated 0.5 by default; boolean engines score 1.0/0.0 so any
    threshold in ``(0, 1]`` behaves identically.
    """

    threshold: float

    def match(
        self, subscription: Subscription, event: Event
    ) -> MatchResult | None:
        """Full per-pair outcome, or ``None`` (see module docstring)."""
        ...

    def matches(self, subscription: Subscription, event: Event) -> bool:
        """Boolean decision at this engine's threshold."""
        ...

    def score(self, subscription: Subscription, event: Event) -> float:
        """Match strength in ``[0, 1]``; 0 when there is no match."""
        ...

    def match_batch(
        self,
        subscriptions: Sequence[Subscription],
        events: Sequence[Event],
    ) -> BatchMatchResult:
        """Match every subscription against every event in one call."""
        ...


def pairwise_match_batch(
    engine: MatchEngine,
    subscriptions: Sequence[Subscription],
    events: Sequence[Event],
    *,
    scores_only: bool = False,
) -> BatchMatchResult:
    """Reference ``match_batch``: the naive per-pair loop.

    This is the behaviour every staged implementation must reproduce
    bit-for-bit on the score grid; the parity tests run both and
    compare. Engines with no batch-friendly structure can simply
    delegate to it.
    """
    subscriptions = tuple(subscriptions)
    events = tuple(events)
    if scores_only:
        return BatchMatchResult(
            subscriptions=subscriptions,
            events=events,
            scores=[
                [engine.score(sub, event) for event in events]
                for sub in subscriptions
            ],
        )
    results = [
        [engine.match(sub, event) for event in events] for sub in subscriptions
    ]
    scores = [
        [result.score if result is not None else 0.0 for result in row]
        for row in results
    ]
    return BatchMatchResult(
        subscriptions=subscriptions,
        events=events,
        scores=scores,
        results=results,
    )
