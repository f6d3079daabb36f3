"""Sharded broker vs single-worker threaded broker on the fig9 workload.

Not a paper figure: this bench measures what subscription sharding +
ingress micro-batching buy over the one-event-at-a-time front-end
*without changing a single delivery*. Both brokers are ingress settings
of one core and run the same delivery-gated pipeline, so the ratio is
sharding and batching alone (the shards are matched in turn on the
dispatcher thread), recorded next to the host's ``nproc`` rather than
asserted. Every timed run re-checks full delivery parity (sequence,
event, score, alternatives, per-subscriber order) against
:class:`~repro.broker.threaded.ThreadedBroker`; throughput without
identical deliveries would fail the run, not report a number.
"""

from repro.evaluation import compare_broker_throughput, format_comparison

SHARDS = 4
MAX_BATCH = 32
REPEATS = 3


def test_sharded_throughput(benchmark, workload, bench_artifact):
    comparison = {}

    def run():
        comparison.update(
            compare_broker_throughput(
                workload, shards=SHARDS, max_batch=MAX_BATCH, repeats=REPEATS
            )
        )
        return comparison["events"] * 2 * REPEATS

    benchmark.pedantic(run, rounds=1, iterations=1)

    serial = comparison["serial"]
    sharded = comparison["sharded"]
    print()
    print(
        format_comparison(
            [
                (
                    "serial (ThreadedBroker)",
                    "baseline",
                    f"{serial['mean_eps']:.0f} ev/s",
                ),
                (
                    f"sharded ({SHARDS} shards, batch {MAX_BATCH}, "
                    f"nproc {comparison['host_nproc']})",
                    "recorded",
                    f"{sharded['mean_eps']:.0f} ev/s "
                    f"({comparison['speedup']:.2f}x)",
                ),
                (
                    "delivery parity",
                    "identical",
                    f"identical ({comparison['deliveries']} deliveries)",
                ),
            ],
            title="Sharded broker throughput",
        )
    )

    bench_artifact("sharded_throughput", comparison)

    assert comparison["parity"] is True
