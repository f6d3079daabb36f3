"""Canonical manifest of every metric the system may register.

A metric that is not declared here does not exist: the metrics-manifest
lint rule (RL400/RL401 in :mod:`repro.analysis`) rejects any
``counter(...)`` / ``gauge(...)`` / ``histogram(...)`` registration in
``src/`` whose name is absent from this table or whose instrument kind
disagrees with the declaration. That makes this file the single
reviewed inventory operators can trust — no undocumented series, no
typo silently forking a second time series next to the real one, and no
hand-maintained mirrors of state that already exists (the PR-4
``breakers_open`` drift bug).

Names ending in ``.*`` declare a *family*: a dynamically named series
whose prefix is fixed (per-stage span histograms, per-space cache
gauges). Dynamic registrations must land inside a declared family.

The same table is rendered as the metrics reference in
``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["METRICS", "MetricSpec", "metric_names", "spec_for"]


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric: name (or ``prefix.*`` family), kind, meaning."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    description: str


METRICS: tuple[MetricSpec, ...] = (
    # -- broker (serial/threaded/sharded dispatch) -------------------------
    MetricSpec(
        "broker.published", "counter", "Events accepted by publish()."
    ),
    MetricSpec(
        "broker.evaluations",
        "counter",
        "Subscription evaluations performed while matching.",
    ),
    MetricSpec(
        "broker.deliveries", "counter", "Deliveries handed to subscriber callbacks."
    ),
    MetricSpec(
        "broker.replayed",
        "counter",
        "Deliveries produced by replay for late subscribers.",
    ),
    MetricSpec(
        "broker.callback_errors",
        "counter",
        "Subscriber callbacks that raised (swallowed after logging).",
    ),
    MetricSpec(
        "broker.batch_errors",
        "counter",
        "Ingress micro-batches whose engine pass raised.",
    ),
    MetricSpec(
        "broker.queue_depth", "gauge", "Current ingress queue depth (sharded broker)."
    ),
    MetricSpec(
        "broker.queue_wait_seconds",
        "histogram",
        "Per-event wait between enqueue and batch pickup.",
    ),
    MetricSpec(
        "broker.batch_size", "histogram", "Events per drained ingress micro-batch."
    ),
    # -- engine (matching core + degraded mode) ----------------------------
    MetricSpec(
        "engine.events_processed", "counter", "Events run through the match pipeline."
    ),
    MetricSpec(
        "engine.evaluations", "counter", "Event/subscription pairs evaluated."
    ),
    MetricSpec(
        "engine.deliveries", "counter", "Match results delivered to subscriptions."
    ),
    MetricSpec(
        "engine.pruned",
        "counter",
        "Event/subscription pairs skipped by the prefilter.",
    ),
    MetricSpec(
        "engine.degraded_trips",
        "counter",
        "Transitions into exact-anchor fallback (incl. failed probes).",
    ),
    MetricSpec(
        "engine.degraded_recoveries",
        "counter",
        "Recoveries from fallback to the full thematic path.",
    ),
    MetricSpec(
        "engine.degraded_batches", "counter", "Batches served by the fallback."
    ),
    MetricSpec(
        "engine.degraded_active",
        "gauge",
        "1 while the engine is in degraded mode, else 0.",
    ),
    # -- reliable delivery --------------------------------------------------
    MetricSpec(
        "reliability.retries", "counter", "Callback attempts after the first."
    ),
    MetricSpec(
        "reliability.dead_letters", "counter", "Deliveries routed to the DLQ."
    ),
    MetricSpec(
        "reliability.deadline_exceeded",
        "counter",
        "Deliveries abandoned at their deadline.",
    ),
    MetricSpec(
        "reliability.breaker_opens", "counter", "Circuit-breaker open transitions."
    ),
    MetricSpec(
        "reliability.breaker_short_circuits",
        "counter",
        "Deliveries skipped because a breaker was open.",
    ),
    MetricSpec(
        "reliability.breakers_open",
        "gauge",
        "Breakers currently open (recomputed from breaker state).",
    ),
    MetricSpec(
        "reliability.backoff_seconds", "histogram", "Backoff slept between attempts."
    ),
    MetricSpec(
        "reliability.callback_seconds", "histogram", "Callback execution time."
    ),
    # -- durability (write-ahead log + snapshots) ---------------------------
    MetricSpec(
        "durability.records", "counter", "Records appended to the write-ahead log."
    ),
    MetricSpec(
        "durability.bytes", "counter", "Framed bytes appended to the write-ahead log."
    ),
    MetricSpec(
        "durability.fsyncs", "counter", "fsync(2) calls issued by the journal."
    ),
    MetricSpec(
        "durability.snapshots", "counter", "Snapshots written (rotation + recovery)."
    ),
    MetricSpec(
        "durability.recoveries",
        "counter",
        "Journal recoveries performed at broker construction.",
    ),
    MetricSpec(
        "durability.replayed_records",
        "counter",
        "WAL records replayed on top of a snapshot during recovery.",
    ),
    MetricSpec(
        "durability.corrupt_records",
        "counter",
        "CRC-failed frames found during recovery (reported, not replayed).",
    ),
    MetricSpec(
        "durability.truncated_tails",
        "counter",
        "Segments whose final frame was torn (recovered to last full record).",
    ),
    MetricSpec(
        "durability.duplicates_suppressed",
        "counter",
        "Re-dispatches skipped because the (subscriber, sequence) key was settled.",
    ),
    MetricSpec(
        "durability.restore_misses",
        "counter",
        "Journaled deliveries that no longer matched on restore (skipped).",
    ),
    MetricSpec(
        "durability.append_seconds",
        "histogram",
        "Wall time of one journal append (framing + write + fsync policy).",
    ),
    # -- flight recorder ----------------------------------------------------
    MetricSpec(
        "flightrec.dumps", "counter", "Flight-recorder dumps written to disk."
    ),
    MetricSpec(
        "flightrec.suppressed",
        "counter",
        "Triggered dumps dropped by the rate limiter.",
    ),
    # -- vectorized kernel --------------------------------------------------
    MetricSpec(
        "kernel.batches",
        "counter",
        "Batched relatedness-kernel invocations (score_pairs calls).",
    ),
    MetricSpec(
        "kernel.pairs",
        "counter",
        "Term pairs scored by the vectorized relatedness kernel.",
    ),
    # -- caches -------------------------------------------------------------
    MetricSpec(
        "cache.relatedness_hit_rate", "gauge", "Relatedness cache hit rate [0, 1]."
    ),
    MetricSpec(
        "cache.relatedness_entries", "gauge", "Relatedness cache resident entries."
    ),
    # -- approximate neighbor index (ann anchor mode) -----------------------
    MetricSpec(
        "index.queries",
        "counter",
        "Token-neighborhood queries answered by the ANN index.",
    ),
    MetricSpec(
        "index.candidates",
        "counter",
        "LSH bucket candidates exact-rechecked by the ANN index.",
    ),
    MetricSpec(
        "index.exact_scans",
        "counter",
        "ANN queries that fell back to the exact vocabulary scan.",
    ),
    # -- persistent precomputed-score store ---------------------------------
    MetricSpec(
        "score_store.hits",
        "counter",
        "Memo misses the precomputed score store's arrays answered.",
    ),
    MetricSpec(
        "score_store.misses",
        "counter",
        "Store probes that fell through to the wrapped measure.",
    ),
    # -- dynamic families ---------------------------------------------------
    MetricSpec(
        "stage.*",
        "histogram",
        "Per-pipeline-stage span durations from the tracer.",
    ),
    MetricSpec(
        "space.cache.*",
        "gauge",
        "Projection-cache statistics per vector space.",
    ),
)


def metric_names() -> tuple[str, ...]:
    return tuple(spec.name for spec in METRICS)


def spec_for(name: str) -> MetricSpec | None:
    """Resolve ``name`` against exact entries, then declared families."""
    for spec in METRICS:
        if spec.name == name:
            return spec
    for spec in METRICS:
        if spec.name.endswith(".*") and name.startswith(spec.name[:-1]):
            return spec
    return None
