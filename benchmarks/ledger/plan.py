"""The ledger's fixed plan: workloads, pass sizes, metrics, frozen constants.

``BENCHMARK.json`` carries only what the driver contract allows (command,
paths, run length, workload names with one-line reasons, metric names with
unit / direction / bound). Everything else the benchmark fixes lives here:
the pass plan per workload, the open-loop rates and p99 limit frozen at the
commit that added the benchmark, the per-layer → end-to-end interaction
table, and the workload assertions. ``test_ledger_selfcheck.py`` checks
that the two files agree.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds one run spends measuring (the driver passes it as --seconds).
RUN_SECONDS = 20

WORKLOADS = {
    "steady_inline": (
        "closed loop, one publisher, inline broker, scalar measure, one theme "
        "pair: score tables are hot, so core + broker dispatch do the work "
        "and a semantics change should show nothing"
    ),
    "theme_mix_inline": (
        "same broker, 6 subscription themes x 400 Zipf event themes: new "
        "(term, theme pair) combinations keep arriving, so semantics does "
        "most of the work and cache growth shows in peak_rss_mb"
    ),
    "steady_sharded_open": (
        "steady traffic through the 2-shard thread broker with the kernel "
        "measure, burst then open loop at a fixed rate: ingress queueing, "
        "micro-batching and shard merge do the work"
    ),
    "durable_churn_inline": (
        "steady traffic through the inline broker with the WAL on, a "
        "subscriber swapped every 20 events and inboxes drained every 100: "
        "registry writes beside reads plus journaling, then recovery"
    ),
}


@dataclass(frozen=True)
class PassPlan:
    """Events per pass and how passes fill the ``--seconds`` budget.

    Every pass builds a fresh space, matcher and broker, publishes
    ``warmup`` events untimed, then ``timed`` events timed. The first
    pass is thrown away (``discard_events`` shortens it); after that
    passes repeat while the budget lasts, never fewer than ``min_kept``
    and never more than ``max_kept``.
    """

    warmup: int
    timed: int
    min_kept: int
    max_kept: int
    discard_events: int | None = None
    #: Share of ``--seconds`` given to the passes (the rest is the
    #: open-loop part of ``steady_sharded_open``).
    budget_share: float = 1.0


PASS_PLANS = {
    "steady_inline": PassPlan(
        warmup=760, timed=1520, min_kept=2, max_kept=6, discard_events=200
    ),
    # A cold pass costs ~9 ms an event, so passes are short: four of
    # them give every event four readings, and 350 timed events
    # leave 17 samples beyond p95. The short discarded pass warms the
    # interpreter, not the caches.
    "theme_mix_inline": PassPlan(
        warmup=150, timed=350, min_kept=4, max_kept=4, discard_events=60,
    ),
    # Latency comes from the open loop, so the burst passes can be shorter.
    "steady_sharded_open": PassPlan(
        warmup=760, timed=1140, min_kept=2, max_kept=4, discard_events=200,
        budget_share=0.55,
    ),
    "durable_churn_inline": PassPlan(
        warmup=760, timed=1140, min_kept=2, max_kept=5, discard_events=200
    ),
}

SMOKE_PLAN = PassPlan(warmup=60, timed=120, min_kept=1, max_kept=1, discard_events=20)

#: A traced run is the discarded pass, one untraced pass (the base of
#: trace.overhead_ratio) and one traced pass.
#: Events per rate in the traced run's open-loop sweep (one stack, one
#: warm-up, rates in rising order, a flush between them).
SWEEP_EVENTS = 600
#: Events per ``match_batch`` call when scoring the ``max_f1`` grid (the
#: kernel measure's memory grows with the batch).
F1_GRID_CHUNK = 32
#: theme_mix_inline scores every 2nd event of the grid: most of its event
#: themes are cold, and the full grid would take as long as the pass.
F1_GRID_STRIDE = {"theme_mix_inline": 2}

# -- steady_sharded_open -----------------------------------------------------
SHARDS = 2
MAX_BATCH = 32
LINGER = 0.001
#: Open-loop rates, calibrated once at the commit that added the benchmark
#: and then frozen: 25/50/75/100% of 600 ev/s, the highest rate the open
#: loop sustained here (the burst of Part A reaches ~900 ev/s, but with a
#: generator thread taking its share of the GIL, 650 ev/s already left a
#: growing backlog). Latency metrics are taken at the lowest rate: there
#: every event is dispatched alone (batch size 1.0, p50 3.3 ms in 3 of 3
#: probes); at 300 ev/s the broker flips between that and batches of 5+
#: (p50 3 ms or 12-16 ms from run to run), which no bound could gate.
OPEN_LOOP_RATES_EPS = (150, 300, 450, 600)
OPEN_LOOP_RATE_EPS = 150
#: Scheduled windows in the untraced run (one stack, one warm-up).
OPEN_LOOP_WINDOWS = 2
#: p99 limit for "sustainable": ~5x the p99 measured at the lowest rate.
OPEN_LOOP_P99_LIMIT_MS = 25.0
#: Backlog (events queued when the schedule ends) above which a rate is
#: not sustainable: two full micro-batches per shard.
OPEN_LOOP_BACKLOG_LIMIT = 2 * SHARDS * MAX_BATCH
FLUSH_TIMEOUT_S = 30.0

# -- durable_churn_inline ----------------------------------------------------
CHURN_EVERY = 20
DRAIN_EVERY = 100

# -- the runner --------------------------------------------------------------
RSS_KILL_MB = 4096
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str
    #: End-to-end: the share of the parent's median it may get worse by.
    bound: float | None = None
    #: Repeats exactly for a seed; aa.py accepts no difference at all.
    exact: bool = False
    workloads: tuple[str, ...] = tuple(WORKLOADS)
    #: Per-layer: the end-to-end metric @ workload this should move.
    moves: str = ""


ALL = tuple(WORKLOADS)

#: The timing bounds are the contract's maximum, not the issue's 10%: on
#: the 2-vCPU hosts this was built on, ten runs of *identical* work
#: (steady_inline, one seed's traffic reordered) spread 10-12% between
#: their quartiles, because the host itself alternates between two speeds
#: ~25% apart for 5-15 s at a time. A bound has to clear that spread.

END_TO_END = {
    "setup_s": Metric("s", "lower", bound=0.25),
    "throughput_eps": Metric("ev/s", "higher", bound=0.25),
    "latency_p50_ms": Metric("ms", "lower", bound=0.25),
    "latency_p95_ms": Metric("ms", "lower", bound=0.25),
    "cpu_ms_per_event": Metric("ms", "lower", bound=0.25),
    "max_f1": Metric("ratio", "higher", bound=0.01, exact=True),
    "peak_rss_mb": Metric("MB", "lower", bound=0.20),
}

#: End-to-end metrics of one workload only. The driver contract wants every
#: end-to-end metric from every workload and never 0, so BENCHMARK.json
#: cannot list these two; run.py prints them and aa.py bounds them as
#: end-to-end for durable_churn_inline.
DURABLE_END_TO_END = {
    "recovery_s": Metric(
        "s", "lower", bound=0.25, workloads=("durable_churn_inline",)
    ),
    "journal_bytes_per_event": Metric(
        "bytes", "lower", bound=0.02, exact=True, workloads=("durable_churn_inline",)
    ),
}
#: Printed beside the bounded metrics, never bounded: a pass has 500 to
#: 1,500 latency samples, so p99 has 5 to 15 samples beyond it (p95 has
#: 25+), and on durable_churn_inline it sits on the edge between "fsync"
#: and "snapshot" events, where a reordering of the traffic moves it 3x.
UNBOUNDED_END_TO_END = {"latency_p99_ms": Metric("ms", "lower")}

#: ``failed_ratio`` is reported through the result's ``failed`` /
#: ``attempted`` (it is 0 at this commit, and the contract forbids
#: end-to-end metrics that are 0); aa.py bounds it at +0.001 absolute.
FAILED_RATIO_ABSOLUTE = 0.001

_DURABLE = ("durable_churn_inline",)
_SHARDED = ("steady_sharded_open",)
_STEADY = ("steady_inline",)
_MIX = ("theme_mix_inline",)

PER_LAYER = {
    # set-up -> setup_s on all
    "evaluation.workload_build_s": Metric("s", "lower", moves="setup_s @ all"),
    "evaluation.expand_events_s": Metric("s", "lower", moves="setup_s @ all"),
    "evaluation.ground_truth_s": Metric("s", "lower", moves="setup_s @ all"),
    "knowledge.corpus_build_s": Metric("s", "lower", moves="setup_s @ all"),
    "semantics.space_build_s": Metric("s", "lower", moves="setup_s @ all"),
    "broker.subscribe_us": Metric("us", "lower", moves="setup_s @ all"),
    # semantics -> theme_mix_inline; predicted no movement on steady_inline
    "semantics.score.lookups": Metric(
        "count", "lower", exact=True,
        moves="throughput_eps, cpu_ms_per_event @ theme_mix_inline",
    ),
    "semantics.score.calls": Metric(
        "count", "lower", moves="throughput_eps @ theme_mix_inline"
    ),
    "semantics.score.busy_s": Metric(
        "s", "lower", moves="throughput_eps, latency_p99_ms @ theme_mix_inline"
    ),
    "semantics.score.share": Metric(
        "ratio", "lower", moves="throughput_eps @ theme_mix_inline"
    ),
    "semantics.score.us_per_lookup": Metric(
        "us", "lower", moves="cpu_ms_per_event @ theme_mix_inline"
    ),
    "semantics.cache.hit_ratio": Metric(
        "ratio", "higher", moves="throughput_eps @ theme_mix_inline"
    ),
    "semantics.projection.entries": Metric(
        "count", "lower", moves="peak_rss_mb @ theme_mix_inline"
    ),
    "semantics.scalar.lookups_per_s": Metric(
        "1/s", "higher", workloads=_MIX, moves="throughput_eps @ theme_mix_inline"
    ),
    "semantics.kernel.lookups_per_s": Metric(
        "1/s", "higher", workloads=_MIX, moves="throughput_eps @ steady_sharded_open"
    ),
    # core -> steady_inline, and the non-semantic half of theme_mix_inline
    "core.match_batch.calls": Metric(
        "count", "lower", moves="throughput_eps @ steady_inline"
    ),
    "core.match_batch.busy_s": Metric(
        "s", "lower", moves="throughput_eps, latency_p50_ms @ steady_inline"
    ),
    "core.match_batch.self_s": Metric(
        "s", "lower", moves="throughput_eps, latency_p50_ms @ steady_inline"
    ),
    "core.match_batch.self_share": Metric(
        "ratio", "lower", moves="throughput_eps @ steady_inline"
    ),
    "core.match_batch.us_per_pair": Metric(
        "us", "lower", moves="cpu_ms_per_event @ steady_inline"
    ),
    "core.pruned_ratio": Metric(
        "ratio", "higher", moves="throughput_eps @ steady_inline"
    ),
    "core.matcher.us_per_event": Metric(
        "us", "lower", workloads=_STEADY, moves="throughput_eps @ steady_inline"
    ),
    "core.engine.us_per_event": Metric(
        "us", "lower", workloads=_STEADY, moves="throughput_eps @ steady_inline"
    ),
    # broker
    "broker.inline.us_per_event": Metric(
        "us", "lower", workloads=_STEADY, moves="throughput_eps @ steady_inline"
    ),
    "broker.threaded.us_per_event": Metric(
        "us", "lower", workloads=_SHARDED, moves="throughput_eps @ steady_sharded_open"
    ),
    "broker.sharded.us_per_event": Metric(
        "us", "lower", workloads=_SHARDED, moves="throughput_eps @ steady_sharded_open"
    ),
    "broker.durable.us_per_event": Metric(
        "us", "lower", workloads=_DURABLE, moves="throughput_eps @ durable_churn_inline"
    ),
    "broker.dispatch.self_s": Metric(
        "s", "lower", moves="throughput_eps, latency_p50_ms @ steady_inline"
    ),
    "broker.dispatch.self_share": Metric(
        "ratio", "lower", moves="throughput_eps @ steady_inline"
    ),
    "broker.callback.busy_s": Metric(
        "s", "lower", moves="latency_p50_ms @ steady_inline"
    ),
    "broker.deliveries_per_event": Metric(
        "count", "higher", exact=True, moves="none (workload shape; must not move)"
    ),
    "broker.sharded.queue_wait_p50_ms": Metric(
        "ms", "lower", workloads=_SHARDED, moves="latency_p50_ms @ steady_sharded_open"
    ),
    "broker.sharded.queue_wait_p99_ms": Metric(
        "ms", "lower", workloads=_SHARDED, moves="latency_p99_ms @ steady_sharded_open"
    ),
    "broker.sharded.batch_size_mean": Metric(
        "count", "higher", workloads=_SHARDED, moves="throughput_eps @ steady_sharded_open"
    ),
    "broker.sharded.sustainable_rate_eps": Metric(
        "ev/s", "higher", workloads=_SHARDED, moves="latency_p99_ms @ steady_sharded_open"
    ),
    "broker.sharded.backlog_end": Metric(
        "count", "lower", workloads=_SHARDED, moves="latency_p99_ms @ steady_sharded_open"
    ),
    "broker.wal.records_per_event": Metric(
        "count", "lower", workloads=_DURABLE,
        moves="journal_bytes_per_event @ durable_churn_inline",
    ),
    "broker.wal.fsyncs_per_event": Metric(
        "count", "lower", workloads=_DURABLE, moves="latency_p99_ms @ durable_churn_inline"
    ),
    "broker.wal.snapshots": Metric(
        "count", "lower", workloads=_DURABLE, moves="latency_p99_ms @ durable_churn_inline"
    ),
    "broker.wal.append_us": Metric(
        "us", "lower", workloads=_DURABLE, moves="throughput_eps @ durable_churn_inline"
    ),
    "broker.wal.bytes_per_event": Metric(
        "bytes", "lower", exact=True, workloads=_DURABLE,
        moves="journal_bytes_per_event @ durable_churn_inline (same number)",
    ),
    "broker.churn.subscribe_us": Metric(
        "us", "lower", workloads=_DURABLE, moves="latency_p99_ms @ durable_churn_inline"
    ),
    "broker.churn.unsubscribe_us": Metric(
        "us", "lower", workloads=_DURABLE, moves="latency_p99_ms @ durable_churn_inline"
    ),
    "broker.recovery.records_replayed": Metric(
        "count", "lower", workloads=_DURABLE, moves="recovery_s @ durable_churn_inline"
    ),
    "broker.recovery.recovery_s": Metric(
        "s", "lower", workloads=_DURABLE,
        moves="recovery_s @ durable_churn_inline (same number)",
    ),
    # harness
    "loadgen.late_p99_ms": Metric(
        "ms", "lower", workloads=_SHARDED, moves="none (generator health)"
    ),
    "trace.overhead_ratio": Metric("ratio", "lower", moves="none (tracing cost)"),
}

#: What BENCHMARK.json lists (and ``--trace 1`` prints as its last line):
#: the per-layer metrics every workload measures. A metric only one
#: workload measures would read 0 on the other three on every run.
DRIVER_PER_LAYER = {
    name: spec for name, spec in PER_LAYER.items() if spec.workloads == ALL
}

# -- workload assertions, checked at this commit -----------------------------
SCORE_SHARE_MAX_STEADY = 0.25
SCORE_SHARE_MIN_MIX = 0.50
PEAK_RSS_MAX_MB = 1500.0
TRACE_COVERAGE_MIN = 0.90
