"""Core thematic event processing model (Sections 2–4 of the paper)."""

from repro.core.api import BatchMatchResult, MatchEngine, pairwise_match_batch
from repro.core.codec import (
    dumps,
    event_from_dict,
    event_to_dict,
    loads,
    subscription_from_dict,
    subscription_to_dict,
)
from repro.core.degrade import DegradedMode, DegradedPolicy, DowngradeEvent
from repro.core.engine import (
    EngineConfig,
    EngineStats,
    SubscriptionHandle,
    ThematicEventEngine,
)
from repro.core.events import AttributeValue, Event, Value
from repro.core.language import (
    ParseError,
    format_event,
    format_subscription,
    parse_event,
    parse_subscription,
)
from repro.core.mapping import (
    Correspondence,
    Mapping,
    k_best_assignments,
    top_assignment_score,
    top_k_mappings,
)
from repro.core.matcher import MatchResult, ThematicMatcher
from repro.core.pipeline import BatchStats, StagedBatchPipeline
from repro.core.similarity import (
    Calibration,
    SimilarityMatrix,
    build_similarity_matrix,
    predicate_tuple_score,
)
from repro.core.subscriptions import OPERATORS, Predicate, Subscription

__all__ = [
    "AttributeValue",
    "BatchMatchResult",
    "BatchStats",
    "OPERATORS",
    "Calibration",
    "Correspondence",
    "DegradedMode",
    "DegradedPolicy",
    "DowngradeEvent",
    "EngineConfig",
    "EngineStats",
    "Event",
    "Mapping",
    "MatchEngine",
    "MatchResult",
    "ParseError",
    "Predicate",
    "SimilarityMatrix",
    "StagedBatchPipeline",
    "Subscription",
    "SubscriptionHandle",
    "ThematicEventEngine",
    "ThematicMatcher",
    "Value",
    "build_similarity_matrix",
    "dumps",
    "event_from_dict",
    "event_to_dict",
    "loads",
    "subscription_from_dict",
    "subscription_to_dict",
    "format_event",
    "format_subscription",
    "k_best_assignments",
    "pairwise_match_batch",
    "parse_event",
    "parse_subscription",
    "predicate_tuple_score",
    "top_assignment_score",
    "top_k_mappings",
]
