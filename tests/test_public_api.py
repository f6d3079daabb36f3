"""Pin the supported public API surface.

``repro.api`` is the deprecation-policy boundary: the snapshot below is
the reviewed list of supported names. If this test fails you either
added a name (extend the snapshot — deliberately, in the same PR) or
removed/renamed one (that needs a deprecation shim first).
"""

import dataclasses
import warnings

import repro
import repro.api

#: The reviewed public surface, sorted. Update deliberately.
PUBLIC_API = [
    "ApproxNeighborIndex",
    "AttributeValue",
    "BatchMatchResult",
    "BrokerConfig",
    "BrokerMetrics",
    "BrokerOverlay",
    "CEPEngine",
    "CachedMeasure",
    "Calibration",
    "CallbackFault",
    "CircuitBreaker",
    "Clock",
    "CountingIndex",
    "DeadLetterQueue",
    "DeadLetterRecord",
    "DegradedMode",
    "DegradedPolicy",
    "Delivery",
    "DeliveryPolicy",
    "DistributionalVectorSpace",
    "DowngradeEvent",
    "DurabilityPolicy",
    "EngineConfig",
    "EngineStats",
    "Event",
    "ExactMatcher",
    "ExactMeasure",
    "FakeClock",
    "FaultInjector",
    "FaultPlan",
    "FaultyCallbackError",
    "HashSharding",
    "KillFault",
    "MatchEngine",
    "MatchResult",
    "MetricsRegistry",
    "MonotonicClock",
    "NonThematicMatcher",
    "NonThematicMeasure",
    "OverlayMetrics",
    "ParametricVectorSpace",
    "Pattern",
    "PersistentScoreStore",
    "Predicate",
    "RelatednessCache",
    "ReliableDelivery",
    "RewritingMatcher",
    "ScorerFault",
    "ShardedBroker",
    "SimulatedCrash",
    "SizeBalancedSharding",
    "SparseVector",
    "Subscription",
    "SubscriptionHandle",
    "ThematicBroker",
    "ThematicEventEngine",
    "ThematicMatcher",
    "ThematicMeasure",
    "Thesaurus",
    "ThreadedBroker",
    "Workload",
    "WorkloadConfig",
    "build_corpus",
    "build_workload",
    "compare_broker_throughput",
    "default_corpus",
    "default_thesaurus",
    "format_event",
    "format_subscription",
    "generate_seed_events",
    "parse_event",
    "parse_pattern",
    "parse_subscription",
    "run_fault_injection",
]

#: Frozen-config constructor contracts, field names in declaration
#: order (= positional __init__ order). Checked both at runtime (below)
#: and statically by ``repro lint`` rule RL502, so adding, removing, or
#: reordering a config field is always a reviewed snapshot edit here.
CONFIG_FIELDS = {
    "BrokerConfig": [
        "replay_capacity",
        "max_queue",
        "shards",
        "strategy",
        "max_batch",
        "linger",
        "workers",
        "delivery",
        "degraded",
        "dead_letter_capacity",
        "executor",
        "durability",
        "prefilter_mode",
        "ann_recall_target",
        "score_store_path",
        "warm_on_start",
    ],
    "DurabilityPolicy": [
        "directory",
        "fsync",
        "fsync_batch_records",
        "snapshot_every",
    ],
    "KillFault": [
        "at",
        "mode",
    ],
    "EngineConfig": [
        "private_pipeline",
        "span_tags",
        "degraded",
        "prefilter_mode",
        "ann_recall_target",
        "score_store_path",
        "warm_on_start",
    ],
    "DeliveryPolicy": [
        "deadline",
        "max_retries",
        "backoff_base",
        "backoff_multiplier",
        "backoff_cap",
        "jitter",
        "breaker_threshold",
        "breaker_reset",
        "seed",
    ],
    "DegradedPolicy": [
        "latency_budget",
        "cooldown",
        "trip_after",
    ],
}


class TestApiSnapshot:
    def test_facade_matches_snapshot(self):
        assert repro.api.__all__ == PUBLIC_API

    def test_snapshot_is_sorted_and_unique(self):
        assert PUBLIC_API == sorted(PUBLIC_API)
        assert len(PUBLIC_API) == len(set(PUBLIC_API))

    def test_every_name_is_importable(self):
        for name in PUBLIC_API:
            assert hasattr(repro.api, name), name

    def test_facade_exports_nothing_extra(self):
        public = {
            name
            for name in vars(repro.api)
            if not name.startswith("_") and name != "repro"
        }
        assert public == set(PUBLIC_API)

    def test_top_level_package_is_a_subset(self):
        """``repro``'s convenience exports must stay within the facade."""
        assert set(repro.__all__) - {"__version__"} <= set(PUBLIC_API)

    def test_facade_imports_cleanly_without_warnings(self):
        import importlib

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            importlib.reload(repro.api)


class TestConfigFieldSnapshot:
    def test_config_fields_match_snapshot(self):
        for cls_name, expected in CONFIG_FIELDS.items():
            cls = getattr(repro.api, cls_name)
            actual = [f.name for f in dataclasses.fields(cls)]
            assert actual == expected, (
                f"{cls_name} fields drifted from the CONFIG_FIELDS "
                f"snapshot: {actual} != {expected}"
            )

    def test_pinned_configs_are_frozen(self):
        """A mutable config would make the field contract meaningless."""
        for cls_name in CONFIG_FIELDS:
            cls = getattr(repro.api, cls_name)
            assert cls.__dataclass_params__.frozen, cls_name
