"""Publish/subscribe middleware substrate hosting the thematic matcher."""

from repro.broker.broker import BrokerMetrics, Delivery, ThematicBroker
from repro.broker.config import BrokerConfig
from repro.broker.durability import (
    BrokerDurability,
    DurabilityPolicy,
    RecoveryReport,
    SimulatedCrash,
)
from repro.broker.faults import (
    CallbackFault,
    FaultInjector,
    FaultPlan,
    FaultyCallbackError,
    KillFault,
    ScorerFault,
)
from repro.broker.overlay import BrokerOverlay, OverlayMetrics
from repro.broker.reliability import (
    CircuitBreaker,
    DeadLetterQueue,
    DeadLetterRecord,
    DeliveryPolicy,
    ReliableDelivery,
)
from repro.broker.sharded import HashSharding, ShardedBroker, SizeBalancedSharding
from repro.broker.threaded import ThreadedBroker

__all__ = [
    "BrokerConfig",
    "BrokerDurability",
    "BrokerMetrics",
    "BrokerOverlay",
    "CallbackFault",
    "CircuitBreaker",
    "DeadLetterQueue",
    "DeadLetterRecord",
    "Delivery",
    "DeliveryPolicy",
    "DurabilityPolicy",
    "FaultInjector",
    "FaultPlan",
    "FaultyCallbackError",
    "HashSharding",
    "KillFault",
    "OverlayMetrics",
    "RecoveryReport",
    "ReliableDelivery",
    "ScorerFault",
    "ShardedBroker",
    "SimulatedCrash",
    "SizeBalancedSharding",
    "ThematicBroker",
    "ThreadedBroker",
]
