"""What one workload subprocess measures: the untraced and the traced run."""

from __future__ import annotations

import resource
import statistics
import time
from pathlib import Path

import layers
import plan
import trace as tr
import workloads as wk

clock = time.perf_counter
DURABLE = "durable_churn_inline"
SHARDED = "steady_sharded_open"


#: Public functions ``build_workload`` calls, timed in the traced run.
SETUP_STAGES = {
    "build_corpus": "knowledge.corpus_build_s",
    "expand_events": "evaluation.expand_events_s",
    "build_ground_truth": "evaluation.ground_truth_s",
}


def timed_build_workload(config):
    """``build_workload`` with a timer around each of its big stages."""
    import repro.evaluation.workload as module

    spent = dict.fromkeys(SETUP_STAGES.values(), 0.0)
    originals = {name: getattr(module, name) for name in SETUP_STAGES}

    def timed(name):
        original, key = originals[name], SETUP_STAGES[name]

        def stage(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                spent[key] += clock() - started

        return stage

    for name in SETUP_STAGES:
        setattr(module, name, timed(name))
    try:
        started = clock()
        workload = module.build_workload(config)
        spent["evaluation.workload_build_s"] = clock() - started
        return workload, spent
    finally:
        for name, original in originals.items():
            setattr(module, name, original)


def metric(value: float, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def per_pass(value: float, values: list[float], unit: str, **extra) -> dict:
    """A timing metric with the per-pass readings behind it."""
    return metric(
        value, unit,
        median=statistics.median(values), min=min(values), max=max(values),
        passes=len(values), values=values, **extra,
    )


def one_pass(name: str, inputs, stack: wk.Stack, *, short: int | None = None):
    warmup, timed = inputs.warmup, inputs.timed
    if short:
        warmup, timed = warmup[:short], timed[:short]
    result = wk.drive_closed_loop(stack, warmup, timed)
    if name == DURABLE:
        counters = stack.counters()
        published = len(warmup) + len(timed)
        result.extra.update(
            journal_bytes_per_event=counters["durability.bytes"] / published,
            records_per_event=counters["durability.records"] / published,
            fsyncs_per_event=counters["durability.fsyncs"] / published,
            snapshots=counters["durability.snapshots"],
            **wk.recover(stack, inputs, published),
        )
        if result.extra["problems"]:
            result.failed = result.events
    return result


def closed_loop_passes(
    name, inputs, first, pass_plan, *, budget_s, workdir, recorders=(), gap_jobs=()
):
    """The discarded pass(es), then kept passes while the budget lasts.

    ``recorders`` gives one entry per kept pass (``None`` = untraced) and
    fixes the pass count; without it the ``--seconds`` budget decides.
    ``gap_jobs`` are run in the gaps after the first ``min_kept - 1`` kept
    passes, evenly, and not charged to the budget: the runner's repeated
    set-up measurements go there, which spreads the kept passes over
    twice the wall time — the host's slow spells last 5-15 s, and passes
    that all fall into one spell cannot correct each other.
    Returns the kept results and the last pass's stack (still open, for
    the oracle and ``max_f1``).
    """
    started = clock()
    kept, stack, last, index = [], first, None, 0
    gap_jobs = list(gap_jobs)
    gaps = max(1, pass_plan.min_kept - 1)
    while True:
        pass_started = clock()
        discard = index == 0
        if stack is None:
            recorder = None if discard or not recorders else recorders[len(kept)]
            stack = wk.build_stack(name, inputs, workdir, recorder)
        result = one_pass(
            name, inputs, stack, short=pass_plan.discard_events if discard else None
        )
        pass_s = clock() - pass_started
        index += 1
        if discard:
            stack.close()
            stack = None
            continue
        kept.append(result)
        if last is not None:
            last.close()
        last, stack = stack, None
        if gap_jobs and len(kept) <= gaps:
            paused = clock()
            share = -(-len(gap_jobs) // (gaps - len(kept) + 1))  # ceil
            for job in gap_jobs[:share]:
                job()
            del gap_jobs[:share]
            started += clock() - paused
        if recorders:
            if len(kept) == len(recorders):
                break
        elif len(kept) >= pass_plan.max_kept or (
            len(kept) >= pass_plan.min_kept and clock() - started + pass_s > budget_s
        ):
            break
    return kept, last


def open_loop(name, inputs, workdir, windows: list[tuple[float, int]]):
    """Fresh stack, warm-up burst, then one scheduled window per entry.

    ``windows`` is (rate, events) per window; the broker's queue-wait and
    batch-size histograms are reset before each, and each result carries
    the broker's ``metrics_snapshot`` taken after it.
    """
    total = sum(count for _, count in windows)
    stack = wk.build_stack(
        name, inputs, workdir, capacity=len(inputs.warmup) + total + 8
    )
    results = []
    try:
        wk.warm_up(stack, inputs.warmup)
        published = len(inputs.warmup)
        registry = stack.broker.metrics.registry
        for rate_eps, count in windows:
            events = [inputs.timed[i % len(inputs.timed)] for i in range(count)]
            registry.histogram("broker.queue_wait_seconds").reset()
            registry.histogram("broker.batch_size").reset()
            result = wk.drive_open_loop(stack, events, rate_eps, published)
            result.extra["snapshot"] = stack.broker.metrics_snapshot()
            results.append(result)
            published += count
    finally:
        stack.close()
    return results


def check(stack: wk.Stack, inputs, corrupt: bool) -> tuple[int, float]:
    """Oracle failures on the sampled events, and ``max_f1``."""
    if corrupt:
        # The self-check's deliberate fault: one sampled event gains a
        # delivery nobody should have received.
        sequence = len(inputs.warmup) + inputs.oracle_sample[0]
        stack.log.records.append((sequence, 0, 0.75))
    return wk.oracle_failures(stack, inputs), wk.max_f1(stack, inputs)


def best_of_events(kept, field: str) -> list[float]:
    """Per timed event, the best reading over the kept passes.

    Every kept pass publishes the same events from the same empty
    caches, so event ``i`` does the same work in each; what differs is
    the host, which on the machines this runs on drifts between two
    speed regimes for seconds at a time and only ever slows an event
    down. The per-event minimum keeps the undisturbed reading of each
    event; a median over three to six passes flips between the regimes
    from run to run.
    """
    rows = [getattr(result, field) for result in kept]
    out = []
    for readings in zip(*rows, strict=True):
        readings = [value for value in readings if value is not None]
        if readings:
            out.append(min(readings))
    return out


def closed_loop_metrics(kept) -> dict:
    """Throughput, CPU and latency of the inline workloads.

    ``value`` is computed from the per-event best readings; the per-pass
    readings (``values``, ``median``, ``min``, ``max``) are printed beside
    it as measured.
    """
    events = kept[0].events
    wall = best_of_events(kept, "wall_by_event")
    cpu = best_of_events(kept, "cpu_by_event")
    latency = best_of_events(kept, "latency_by_event")
    return {
        "throughput_eps": per_pass(
            events / sum(wall), [r.throughput_eps for r in kept], "ev/s", samples=events
        ),
        "latency_p50_ms": per_pass(
            wk.percentile(latency, 0.50) * 1e3,
            [wk.percentile(r.latencies_s, 0.50) * 1e3 for r in kept],
            "ms", samples=len(latency),
        ),
        **{
            f"latency_p{q}_ms": per_pass(
                wk.percentile(latency, q / 100) * 1e3,
                [wk.percentile(r.latencies_s, q / 100) * 1e3 for r in kept],
                "ms", samples=len(latency),
            )
            for q in (95, 99)
        },
        "cpu_ms_per_event": per_pass(
            sum(cpu) / events * 1e3, [r.cpu_s / r.events * 1e3 for r in kept],
            "ms", samples=events,
        ),
    }


def sharded_metrics(bursts, windows) -> dict:
    """The sharded workload delivers asynchronously, so single events
    cannot be lined up across passes: the best burst pass gives
    throughput and CPU, the best open-loop window gives latency."""
    eps = [r.throughput_eps for r in bursts]
    cpu = [r.cpu_s / r.events * 1e3 for r in bursts]
    samples = min(len(r.latencies_s) for r in windows)
    latency = {}
    for q in (50, 95, 99):
        values = [wk.percentile(r.latencies_s, q / 100) * 1e3 for r in windows]
        latency[f"latency_p{q}_ms"] = per_pass(min(values), values, "ms", samples=samples)
    return {
        "throughput_eps": per_pass(max(eps), eps, "ev/s", samples=bursts[0].events),
        **latency,
        "cpu_ms_per_event": per_pass(min(cpu), cpu, "ms", samples=bursts[0].events),
    }


def untraced_run(name, inputs, first, pass_plan, *, seconds, workdir, corrupt, gap_jobs):
    started = clock()
    kept, last = closed_loop_passes(
        name, inputs, first, pass_plan,
        budget_s=seconds * pass_plan.budget_share, workdir=workdir, gap_jobs=gap_jobs,
    )
    passes_s = clock() - started
    windows = []
    try:
        if name == SHARDED:
            left = seconds * (1.0 - pass_plan.budget_share) - 1.5
            count = max(50, int(plan.OPEN_LOOP_RATE_EPS * left / plan.OPEN_LOOP_WINDOWS))
            windows = open_loop(
                name, inputs, workdir,
                [(plan.OPEN_LOOP_RATE_EPS, count)] * plan.OPEN_LOOP_WINDOWS,
            )
        # Before the checks: they are the benchmark's memory, not the workload's.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_started = clock()
        oracle_failed, f1 = check(last, inputs, corrupt)
        check_s = clock() - check_started
    finally:
        last.close()
    metrics = sharded_metrics(kept, windows) if name == SHARDED else closed_loop_metrics(kept)
    metrics["max_f1"] = metric(f1, "ratio")
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    if name == DURABLE:
        recovery = [r.extra["recovery_s"] for r in kept]
        metrics["recovery_s"] = per_pass(min(recovery), recovery, "s")
        metrics["journal_bytes_per_event"] = metric(
            kept[-1].extra["journal_bytes_per_event"], "bytes"
        )
    counted = kept + windows
    failed = sum(r.failed for r in counted) + oracle_failed
    return {
        "metrics": metrics,
        "attempted": sum(r.events for r in counted),
        "failed": failed,
        "correct": failed == 0,
        "passes": {
            "kept": len(kept),
            "warmup": len(inputs.warmup),
            "timed": len(inputs.timed),
            "oracle_sample": len(inputs.oracle_sample),
            "problems": [p for r in kept for p in r.extra.get("problems", [])],
            "passes_s": passes_s,
            "check_s": check_s,
            "measure_s": clock() - started,
        },
    }


# -- the traced run ----------------------------------------------------------


def layer_metrics(name, inputs, result, stack: wk.Stack, recorder: tr.SpanRecorder) -> dict:
    """Per-layer numbers of one traced pass, from its spans and counters.

    Spans are taken over the whole pass, warm-up included: once a steady
    workload is warm ``semantics.score`` is never called again, and a
    time that reads 0 on every run says less than the cost of getting
    warm. Shares are of the whole pass's wall time.
    """
    totals = recorder.totals(recorder.window(*result.pass_window))
    score, match = totals[tr.SCORE], totals[tr.MATCH]
    publish, callback = totals[tr.PUBLISH], totals[tr.CALLBACK]
    wall = result.pass_window[1] - result.pass_window[0]
    if name == SHARDED:
        # publish only enqueues; matching runs on SHARDS worker threads
        # whose spans overlap (and share the GIL), so the dispatcher's
        # own time is what the wall leaves after an even split of it.
        dispatch_self = max(0.0, wall - match["busy_s"] / plan.SHARDS - callback["busy_s"])
        covered = wall
    else:
        dispatch_self = publish["self_s"]
        covered = sum(
            totals[n]["busy_s"]
            for n in (tr.PUBLISH, tr.SUBSCRIBE, tr.UNSUBSCRIBE, tr.DRAIN)
        )
    counters = stack.counters()
    cache = getattr(getattr(stack.matcher.measure, "inner", None), "cache", None)
    lookups_cached = (cache.hits + cache.misses) if cache is not None else 0
    warm = len(inputs.warmup)
    delivered = sum(1 for sequence, _, _ in stack.log.records if sequence >= warm)
    return {
        "semantics.score.lookups": score["work"],
        "semantics.score.calls": score["calls"],
        "semantics.score.busy_s": score["busy_s"],
        "semantics.score.share": score["busy_s"] / wall,
        "semantics.score.us_per_lookup": (
            score["busy_s"] / score["work"] * 1e6 if score["work"] else 0.0
        ),
        "semantics.cache.hit_ratio": cache.hits / lookups_cached if lookups_cached else 0.0,
        "semantics.projection.entries": sum(stack.space.cache_stats().values()),
        "core.match_batch.calls": match["calls"],
        "core.match_batch.busy_s": match["busy_s"],
        "core.match_batch.self_s": match["self_s"],
        "core.match_batch.self_share": match["self_s"] / wall,
        "core.match_batch.us_per_pair": (
            match["busy_s"] / match["work"] * 1e6 if match["work"] else 0.0
        ),
        "core.pruned_ratio": counters["engine.pruned"] / counters["engine.evaluations"],
        "broker.dispatch.self_s": dispatch_self,
        "broker.dispatch.self_share": dispatch_self / wall,
        "broker.callback.busy_s": callback["busy_s"],
        "broker.deliveries_per_event": delivered / result.events,
        "_coverage": covered / wall,
    }


def sweep(name, inputs, workdir, events: int) -> dict:
    """Open loop at each frozen rate: latency, backlog, generator health."""
    results = open_loop(
        name, inputs, workdir, [(rate, events) for rate in plan.OPEN_LOOP_RATES_EPS]
    )
    rows = [
        {
            "rate_eps": result.extra["rate_eps"],
            "p50_ms": wk.percentile(result.latencies_s, 0.50) * 1e3,
            "p95_ms": wk.percentile(result.latencies_s, 0.95) * 1e3,
            "p99_ms": wk.percentile(result.latencies_s, 0.99) * 1e3,
            "late_p99_ms": wk.percentile(result.extra["late_s"], 0.99) * 1e3,
            "backlog_end": result.extra["backlog_end"],
            "queue_wait_p50_ms": result.extra["snapshot"]["queue_wait"]["p50"] * 1e3,
            "queue_wait_p99_ms": result.extra["snapshot"]["queue_wait"]["p99"] * 1e3,
            "batch_size_mean": result.extra["snapshot"]["batch_size"]["mean"],
            "failed": result.failed,
            "events": result.events,
        }
        for result in results
    ]
    sustainable = 0
    for row in rows:
        if (
            row["p99_ms"] > plan.OPEN_LOOP_P99_LIMIT_MS
            or row["backlog_end"] > plan.OPEN_LOOP_BACKLOG_LIMIT
        ):
            break
        sustainable = row["rate_eps"]
    at_rate = next(r for r in rows if r["rate_eps"] == plan.OPEN_LOOP_RATE_EPS)
    return {
        "metrics": {
            "broker.sharded.queue_wait_p50_ms": at_rate["queue_wait_p50_ms"],
            "broker.sharded.queue_wait_p99_ms": at_rate["queue_wait_p99_ms"],
            "broker.sharded.batch_size_mean": at_rate["batch_size_mean"],
            "broker.sharded.sustainable_rate_eps": sustainable,
            "broker.sharded.backlog_end": at_rate["backlog_end"],
            "loadgen.late_p99_ms": at_rate["late_p99_ms"],
        },
        "rows": rows,
    }


def traced_run(name, inputs, first, pass_plan, *, workdir, smoke, corrupt, setup, out: Path):
    recorder = tr.SpanRecorder()
    if name == "theme_mix_inline":
        recorder.capture = []
    # Kept pass 0 is untraced: the base of trace.overhead_ratio.
    (untraced, traced), last = closed_loop_passes(
        name, inputs, first, pass_plan,
        budget_s=0, workdir=workdir, recorders=[None, recorder],
    )
    values = layer_metrics(name, inputs, traced, last, recorder)
    try:
        # The checks are not part of any pass: score untraced.
        last.matcher.measure = last.matcher.measure.inner
        oracle_failed, _ = check(last, inputs, corrupt)
    finally:
        last.close()
    coverage = values.pop("_coverage")
    values.update(setup)
    values["trace.overhead_ratio"] = untraced.throughput_eps / traced.throughput_eps
    detail = {"coverage": coverage}

    if name == "steady_inline":
        values["core.matcher.us_per_event"] = layers.matcher_rung(inputs)
        values["core.engine.us_per_event"] = layers.engine_rung(inputs)
        values["broker.inline.us_per_event"] = layers.broker_rung(inputs, "inline", workdir)
    elif name == "theme_mix_inline":
        values.update(layers.replay_lookups(inputs, recorder.capture))
    elif name == SHARDED:
        values["broker.threaded.us_per_event"] = layers.broker_rung(inputs, "threaded", workdir)
        values["broker.sharded.us_per_event"] = 1e6 / untraced.throughput_eps
        swept = sweep(name, inputs, workdir, 60 if smoke else plan.SWEEP_EVENTS)
        values.update(swept["metrics"])
        detail["open_loop"] = swept["rows"]
    elif name == DURABLE:
        values["broker.durable.us_per_event"] = layers.broker_rung(inputs, "durable", workdir)
        values["broker.wal.append_us"] = layers.wal_append_us(inputs, workdir)
        values["broker.wal.records_per_event"] = traced.extra["records_per_event"]
        values["broker.wal.fsyncs_per_event"] = traced.extra["fsyncs_per_event"]
        values["broker.wal.snapshots"] = traced.extra["snapshots"]
        values["broker.wal.bytes_per_event"] = traced.extra["journal_bytes_per_event"]
        values["broker.churn.subscribe_us"] = (
            statistics.median(last.churn_subscribe_s) * 1e6
        )
        values["broker.churn.unsubscribe_us"] = (
            statistics.median(last.churn_unsubscribe_s) * 1e6
        )
        values["broker.recovery.records_replayed"] = traced.extra["records_replayed"]
        values["broker.recovery.recovery_s"] = traced.extra["recovery_s"]

    trace_path = out / f"trace-{name}.json"
    spans = recorder.write_chrome_trace(
        trace_path, metadata={"workload": name, "traced_passes": 1}
    )
    detail.update(trace_file=str(trace_path), spans_written=spans, spans=len(recorder.names))
    failed = untraced.failed + traced.failed + oracle_failed
    return {
        "metrics": {
            key: metric(float(value), plan.PER_LAYER[key].unit)
            for key, value in values.items()
        },
        "attempted": untraced.events + traced.events,
        "failed": failed,
        "correct": failed == 0,
        "passes": {
            "kept": 2,
            "traced": 1,
            "warmup": len(inputs.warmup),
            "timed": len(inputs.timed),
        },
        "detail": detail,
    }
