"""Per-layer probes: the ladder rungs, lookup replay, direct WAL timing.

Each probe calls one layer's public functions directly on the steady
traffic (or on lookups recorded from ``theme_mix_inline``), one pass each,
so a rung's cost is the difference to the rung below it:
matcher -> engine -> inline broker -> threaded -> sharded -> durable.
"""

from __future__ import annotations

import gc
import shutil
import time
from pathlib import Path

from repro.broker import ThematicBroker, ThreadedBroker
from repro.broker.config import BrokerConfig
from repro.broker.durability import DurabilityPolicy, WriteAheadLog, event_to_dict
from repro.core.engine import ThematicEventEngine
from repro.semantics.measures import ThematicMeasure
from repro.semantics.pvsm import ParametricVectorSpace
from workloads import DeliveryLog, make_matcher

clock = time.perf_counter

#: Lookups replayed per measure (bounds the probe's run time).
REPLAY_LOOKUPS = 40_000
KERNEL_REPLAY_CHUNK = 512
WAL_APPENDS = 2_000


def _us_per_event(step, warmup, timed, finish=None) -> float:
    for event in warmup:
        step(event)
    if finish:
        finish()
    gc.collect()
    started = clock()
    for event in timed:
        step(event)
    if finish:
        finish()
    return (clock() - started) / len(timed) * 1e6


def matcher_rung(inputs) -> float:
    """``matcher.match_batch(subs, [event])``: the pipeline alone."""
    matcher = make_matcher(ParametricVectorSpace(inputs.workload.corpus), kernel=False)
    subscriptions = inputs.subscriptions
    return _us_per_event(
        lambda event: matcher.match_batch(subscriptions, [event]),
        inputs.warmup,
        inputs.warmup,
    )


def engine_rung(inputs) -> float:
    """``ThematicEventEngine.process``: + prefilter gate and dispatch loop."""
    matcher = make_matcher(ParametricVectorSpace(inputs.workload.corpus), kernel=False)
    engine = ThematicEventEngine(matcher)
    for subscription in inputs.subscriptions:
        engine.subscribe(subscription, lambda result: None)
    return _us_per_event(engine.process, inputs.warmup, inputs.warmup)


def broker_rung(inputs, kind: str, workdir: Path) -> float:
    """``publish`` through one broker front-end, callbacks attached."""
    matcher = make_matcher(ParametricVectorSpace(inputs.workload.corpus), kernel=False)
    directory = None
    finish = None
    if kind == "inline":
        broker = ThematicBroker(matcher)
    elif kind == "threaded":
        broker = ThreadedBroker(matcher)
        finish = broker.flush
    elif kind == "durable":
        directory = workdir / f"rung-{time.monotonic_ns()}"
        directory.mkdir(parents=True)
        broker = ThematicBroker(
            matcher,
            BrokerConfig(durability=DurabilityPolicy(directory=str(directory))),
        )
    else:
        raise ValueError(kind)
    log = DeliveryLog(2 * len(inputs.warmup) + 8)
    try:
        for slot, subscription in enumerate(inputs.subscriptions):
            broker.subscribe(subscription, log.callback(slot))
        return _us_per_event(broker.publish, inputs.warmup, inputs.warmup, finish)
    finally:
        broker.close()
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)


def replay_lookups(inputs, lookups: list[tuple]) -> dict[str, float]:
    """Scalar and kernel lookups/s over recorded unique lookups.

    Both start from a fresh space, so each pays its own projection
    cost in recording order — what ``theme_mix_inline`` makes them pay.
    """
    lookups = lookups[:REPLAY_LOOKUPS]
    scalar = ThematicMeasure(ParametricVectorSpace(inputs.workload.corpus))
    gc.collect()
    started = clock()
    for lookup in lookups:
        scalar.score(*lookup)
    scalar_s = clock() - started
    kernel = ThematicMeasure(
        ParametricVectorSpace(inputs.workload.corpus), vectorized=True
    )
    gc.collect()
    started = clock()
    for start in range(0, len(lookups), KERNEL_REPLAY_CHUNK):
        kernel.score_batch(lookups[start : start + KERNEL_REPLAY_CHUNK])
    kernel_s = clock() - started
    return {
        "semantics.scalar.lookups_per_s": len(lookups) / scalar_s,
        "semantics.kernel.lookups_per_s": len(lookups) / kernel_s,
    }


def wal_append_us(inputs, workdir: Path) -> float:
    """Direct ``WriteAheadLog.append`` of publish records, batch fsync."""
    directory = workdir / f"walprobe-{time.monotonic_ns()}"
    directory.mkdir(parents=True)
    wal = WriteAheadLog(directory)
    try:
        wal.open_segment(0)
        records = [
            {"t": "pub", "seq": i, "event": event_to_dict(inputs.warmup[i % len(inputs.warmup)])}
            for i in range(WAL_APPENDS)
        ]
        started = clock()
        for record in records:
            wal.append(record)
        return (clock() - started) / len(records) * 1e6
    finally:
        wal.close()
        shutil.rmtree(directory, ignore_errors=True)
