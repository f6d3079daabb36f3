"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``match``
    Match a subscription against an event (both in the paper's surface
    syntax) and print the top-k mappings.
``relatedness``
    Score the semantic relatedness of two terms, optionally under
    themes, with both the thematic and non-thematic measures.
``corpus``
    Inspect, save, or verify the bundled synthetic corpus snapshot.
``evaluate``
    Run the non-thematic baseline plus a thematic sub-experiment at the
    chosen workload scale and print the comparison.
``stats``
    Exercise the full pipeline (sharded broker + thematic matcher) on a
    tiny workload and dump the metrics-registry snapshot as JSON —
    including the ``reliability.*`` and ``engine.degraded_*`` families
    and the merged per-shard engine registries.
``trace``
    Rebuild the causal tree of one trace id from span logs and
    flight-recorder dumps (or list the traces a file set contains).
``bench diff``
    Compare fresh ``BENCH_*.json`` artifacts against the committed
    baselines; exit 1 on any regression or baseline metric gone
    missing (the CI perf gate).

``match`` and ``evaluate`` accept ``--trace``: tracing spans aggregate
per-stage latency histograms and the command finishes with a per-stage
timing table. ``--trace-out`` takes either a ``.jsonl`` file (raw span
log) or a directory — the directory collects ``spans.jsonl``, a
Perfetto-loadable ``trace.json``, and any flight-recorder incident
dumps triggered during the run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from repro.broker.config import BrokerConfig
from repro.broker.faults import FaultPlan
from repro.broker.sharded import ShardedBroker
from repro.core.degrade import DegradedPolicy
from repro.core.language import parse_event, parse_subscription
from repro.core.matcher import ThematicMatcher
from repro.evaluation import (
    ThemeCombination,
    WorkloadConfig,
    build_workload,
    compare_broker_throughput,
    format_table,
    run_baseline,
    run_fault_injection,
    run_sub_experiment,
    theme_pool,
    thematic_matcher_factory,
)
from repro.knowledge.corpus import default_corpus
from repro.obs import FLIGHT_RECORDER, TRACER, MetricsRegistry
from repro.obs.benchdiff import (
    DEFAULT_TOLERANCE,
    diff_directories,
    render_markdown,
)
from repro.obs.traceview import (
    jsonl_to_chrome,
    load_span_records,
    render_trace_tree,
    summarize_traces,
)
from repro.semantics.cache import RelatednessCache, cache_key
from repro.semantics.measures import (
    CachedMeasure,
    NonThematicMeasure,
    ThematicMeasure,
)
from repro.semantics.persistence import corpus_digest, load_corpus, save_corpus
from repro.semantics.pvsm import ParametricVectorSpace

__all__ = ["main", "build_parser"]


def _trace_dir(trace_out: str | None) -> Path | None:
    """Interpret ``--trace-out``: a directory target or a plain file.

    A path that already is a directory, ends with a separator, or has no
    file extension is treated as a directory (created on demand).
    """
    if trace_out is None:
        return None
    path = Path(trace_out)
    if path.is_dir() or trace_out.endswith(("/", "\\")) or path.suffix == "":
        return path
    return None


def _start_trace(args: argparse.Namespace) -> bool:
    """Enable tracing if ``--trace`` and/or ``--trace-out`` was given.

    With a directory ``--trace-out``, span records stream to
    ``<dir>/spans.jsonl`` and the flight recorder arms itself with the
    same directory, so incident dumps (degraded-mode trips, breaker
    opens, no-loss violations) land next to the span log; the JSONL is
    converted to a Perfetto-loadable ``<dir>/trace.json`` at the end of
    the command.
    """
    trace_out = getattr(args, "trace_out", None)
    if not getattr(args, "trace", False) and trace_out is None:
        return False
    directory = _trace_dir(trace_out)
    args.trace_dir = directory
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
        TRACER.enable(
            registry=MetricsRegistry(), sink=str(directory / "spans.jsonl")
        )
        FLIGHT_RECORDER.enable(directory)
        TRACER.attach_flight_recorder(FLIGHT_RECORDER)
    else:
        TRACER.enable(registry=MetricsRegistry(), sink=trace_out)
    return True


def _finish_trace(args: argparse.Namespace | None = None) -> None:
    """Print the per-stage timing table and turn tracing back off."""
    timings = TRACER.stage_timings()
    print()
    if not timings:
        print("trace: no spans recorded")
    else:
        rows = [
            (
                stage,
                summary["count"],
                f"{summary['sum'] * 1000:.2f}",
                f"{summary['p50'] * 1000:.3f}",
                f"{summary['p99'] * 1000:.3f}",
            )
            for stage, summary in sorted(timings.items())
        ]
        print("per-stage timings (traced):")
        print(format_table(("stage", "calls", "total ms", "p50 ms", "p99 ms"), rows))
    TRACER.disable()
    TRACER.detach_flight_recorder()
    FLIGHT_RECORDER.disable()
    directory = getattr(args, "trace_dir", None) if args is not None else None
    if directory is not None:
        spans_path = directory / "spans.jsonl"
        if spans_path.exists():
            records = load_span_records([spans_path])
            chrome_path = directory / "trace.json"
            with open(chrome_path, "w", encoding="utf-8") as handle:
                json.dump(jsonl_to_chrome(records), handle, indent=1)
                handle.write("\n")
            print(
                f"trace: {len(records)} span(s) -> {chrome_path} "
                "(open at ui.perfetto.dev)"
            )


def _tags(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(tag.strip() for tag in text.split(",") if tag.strip())


def _space() -> ParametricVectorSpace:
    return ParametricVectorSpace(default_corpus())


def cmd_match(args: argparse.Namespace) -> int:
    tracing = _start_trace(args)
    space = _space()
    matcher = ThematicMatcher(ThematicMeasure(space), k=args.k)
    subscription = parse_subscription(args.subscription)
    event = parse_event(args.event)
    # Through the staged batch path (a 1x1 batch), same as dispatch; the
    # full-result mode keeps zero-score results explainable.
    batch = matcher.match_batch([subscription], [event])
    result = batch.result(0, 0)
    if result is None:
        if tracing:
            _finish_trace(args)
        print("no mapping exists (event has fewer tuples than the "
              "subscription has predicates)")
        return 1
    print(result.explain())
    for rank, mapping in enumerate(result.alternatives, start=2):
        print(f"top-{rank}: {mapping.describe(result.matrix)} "
              f"P={mapping.probability:.3f}")
    matched = result.is_match(matcher.threshold)
    print(f"match: {matched} (threshold {matcher.threshold})")
    if tracing:
        _finish_trace(args)
    return 0 if matched else 1


def cmd_relatedness(args: argparse.Namespace) -> int:
    space = _space()
    theme_a, theme_b = _tags(args.theme_a), _tags(args.theme_b)
    nonthematic = NonThematicMeasure(space).score(args.term_a, (), args.term_b, ())
    print(f"non-thematic relatedness: {nonthematic:.3f}")
    if theme_a or theme_b:
        thematic = ThematicMeasure(space).score(
            args.term_a, theme_a, args.term_b, theme_b
        )
        print(f"thematic relatedness:     {thematic:.3f} "
              f"(themes {list(theme_a)} / {list(theme_b)})")
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    if args.action == "info":
        corpus = default_corpus()
        print(f"documents: {len(corpus)}")
        print(f"digest:    {corpus_digest(corpus)}")
    elif args.action == "save":
        if not args.path:
            print("corpus save needs --path", file=sys.stderr)
            return 2
        save_corpus(default_corpus(), args.path)
        print(f"saved to {args.path}")
    elif args.action == "verify":
        if not args.path:
            print("corpus verify needs --path", file=sys.stderr)
            return 2
        corpus = load_corpus(args.path)
        print(f"ok: {len(corpus)} documents, digest verified")
    return 0


def cmd_warm_cache(args: argparse.Namespace) -> int:
    """Precompute a relatedness score store for a workload + theme draw.

    Samples the same containment theme combination ``evaluate`` would
    for the given seed, scores the workload vocabulary cross-product
    offline (optionally sharded over spawned workers), writes the store
    snapshot, and always reload-verifies it — the written file is
    re-attached, digest-checked, and sampled entries compared
    bit-for-bit against the in-memory table before the command reports
    success.
    """
    from repro.obs.clock import MONOTONIC_CLOCK
    from repro.semantics.kernel import PARITY_TOLERANCE, KernelMeasure
    from repro.semantics.persistence import load_score_store, save_score_store
    from repro.semantics.warm import (
        build_score_store,
        plan_lookups,
        workload_vocabulary,
    )

    config = {
        "tiny": WorkloadConfig.tiny,
        "small": WorkloadConfig.small,
        "paper": WorkloadConfig.paper,
    }[args.scale]()
    workload = build_workload(config)
    print(f"workload: {workload.summary()}")
    pool = list(theme_pool(workload.thesaurus))
    rng = random.Random(args.seed)
    subscription_tags = tuple(rng.sample(pool, args.subscription_tags))
    event_tags = tuple(rng.sample(subscription_tags, args.event_tags))
    subscriptions = [
        s.with_theme(subscription_tags)
        for s in workload.subscriptions.approximate
    ]
    events = [e.with_theme(event_tags) for e in workload.events]
    theme_pairs = [(subscription_tags, event_tags)]
    sub_terms, event_terms = workload_vocabulary(subscriptions, events)
    lookups = plan_lookups(sub_terms, event_terms, theme_pairs)
    print(
        f"vocabulary: {len(sub_terms)} subscription x {len(event_terms)} "
        f"event terms -> {len(lookups)} distinct pairs "
        f"({args.event_tags}⊂{args.subscription_tags} tags, "
        f"seed {args.seed})"
    )
    started = MONOTONIC_CLOCK.monotonic()
    store = build_score_store(
        workload.space,
        subscriptions,
        events,
        theme_pairs,
        workers=args.workers,
    )
    elapsed = MONOTONIC_CLOCK.monotonic() - started
    save_score_store(store, args.out)
    shards = f"{args.workers} worker(s)" if args.workers else "in-process"
    print(
        f"warmed {len(store)} entries in {elapsed:.2f}s ({shards}); "
        f"wrote {args.out} ({os.path.getsize(args.out)} bytes)"
    )
    # Reload-verify, unconditionally: attach what was just written and
    # prove it answers bit-identically to the in-memory store.
    loaded = load_score_store(
        args.out, expected_digest=corpus_digest(workload.space.documents)
    )
    if len(loaded) != len(store):
        print(
            f"reload-verify FAILED: {len(loaded)} entries on disk, "
            f"{len(store)} in memory",
            file=sys.stderr,
        )
        return 1
    sample = rng.sample(lookups, min(len(lookups), 256))
    keys = [cache_key(*lookup) for lookup in sample]
    for lookup, on_disk, in_memory in zip(
        sample, loaded.probe(keys), store.probe(keys), strict=True
    ):
        if on_disk != in_memory:
            print(
                f"reload-verify FAILED: {lookup!r} reads back differently",
                file=sys.stderr,
            )
            return 1
    print(f"reload-verify ok ({len(sample)} sampled entries bit-identical)")
    if args.check_parity:
        online = KernelMeasure(workload.space.kernel())
        checks = rng.sample(lookups, min(len(lookups), args.check_parity))
        worst = max(
            abs(on_disk - online.score(*lookup))
            for lookup, on_disk in zip(
                checks,
                loaded.probe([cache_key(*lookup) for lookup in checks]),
                strict=True,
            )
        )
        print(
            f"parity vs online kernel over {len(checks)} samples: "
            f"worst |delta| = {worst:.2e}"
        )
        if worst > PARITY_TOLERANCE:
            print(
                f"parity check FAILED: {worst:.2e} exceeds "
                f"{PARITY_TOLERANCE:.0e}",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    tracing = _start_trace(args)
    config = {
        "tiny": WorkloadConfig.tiny,
        "small": WorkloadConfig.small,
        "paper": WorkloadConfig.paper,
    }[args.scale]()
    workload = build_workload(config)
    print(f"workload: {workload.summary()}")
    baseline = run_baseline(workload)
    print(f"non-thematic baseline: F1={baseline.f1:.1%} "
          f"{baseline.events_per_second:.0f} ev/s (paper: 62% @ 202 ev/s)")
    pool = list(theme_pool(workload.thesaurus))
    rng = random.Random(args.seed)
    subscription_tags = tuple(rng.sample(pool, args.subscription_tags))
    event_tags = tuple(rng.sample(subscription_tags, args.event_tags))
    result = run_sub_experiment(
        workload,
        thematic_matcher_factory(workload),
        ThemeCombination(
            event_tags=event_tags, subscription_tags=subscription_tags
        ),
    )
    print(f"thematic ({args.event_tags}⊂{args.subscription_tags} tags): "
          f"F1={result.f1:.1%} {result.events_per_second:.0f} ev/s")
    if result.latency is not None:
        print(f"per-event latency: p50={result.latency.p50 * 1000:.2f} ms "
              f"p99={result.latency.p99 * 1000:.2f} ms")
    if result.cache_hit_rate is not None:
        print(f"relatedness cache hit rate: {result.cache_hit_rate:.1%}")
    delta = result.f1 - baseline.f1
    print(f"F1 delta: {delta:+.1%} (paper: +9 points on average)")
    if args.faults:
        with open(args.faults, encoding="utf-8") as fh:
            plan = FaultPlan.from_json(fh.read())
        print(f"fault plan: {plan.name!r} "
              f"({len(plan.callbacks)} callback fault(s), "
              f"scorer={'yes' if plan.scorer else 'no'}, "
              f"degraded={'yes' if plan.degraded else 'no'}, "
              f"kill={f'@{plan.kill.at}/{plan.kill.mode}' if plan.kill else 'no'})")
        report = run_fault_injection(workload, plan, seed=args.seed)
        for kind, entry in report["brokers"].items():
            delivered = sum(entry["delivered"])
            dead = sum(entry["dead_letters"])
            print(
                f"  {kind:<9} delivered={delivered} dead_letters={dead} "
                f"retries={entry['retries']} "
                f"callback_errors={entry['callback_errors']} "
                f"no_loss={'ok' if entry['no_loss'] else 'VIOLATED'}"
            )
            if "degraded" in entry:
                degraded = entry["degraded"]
                print(f"            degraded: trips={degraded.get('trips', 0)} "
                      f"fallback_batches={degraded.get('batches', 0)} "
                      f"recoveries={degraded.get('recoveries', 0)}")
            if entry.get("restarted"):
                recovery = entry.get("recovery", {})
                print(
                    f"            killed at WAL offset "
                    f"{plan.kill.at} ({plan.kill.mode}); restarted: "
                    f"resumed_at={entry.get('resumed_at')} "
                    f"replayed={recovery.get('records_replayed', 0)} "
                    f"snapshot={recovery.get('snapshot_generation')} "
                    f"recovered_inflight={entry.get('recover_completed', 0)}"
                )
            elif plan.kill is not None:
                print(
                    "            kill offset never reached "
                    "(run completed without restart)"
                )
        baseline_total = sum(report["baseline"])
        print(f"  fault-free matched deliveries: {baseline_total}")
        if not report["no_loss"]:
            print("no-loss invariant VIOLATED", file=sys.stderr)
            if tracing:
                _finish_trace(args)
            return 1
    if args.shards:
        comparison = compare_broker_throughput(
            workload,
            combination=ThemeCombination(
                event_tags=event_tags, subscription_tags=subscription_tags
            ),
            shards=args.shards,
            max_batch=args.max_batch,
            seed=args.seed,
        )
        serial = comparison["serial"]
        sharded = comparison["sharded"]
        print(
            f"broker throughput: serial {serial['mean_eps']:.0f} ev/s vs "
            f"sharded[{sharded['shards']} shards x "
            f"batch {sharded['max_batch']}] {sharded['mean_eps']:.0f} ev/s "
            f"({comparison['speedup']:.2f}x, deliveries identical)"
        )
    if tracing:
        _finish_trace(args)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Exercise the pipeline end to end and dump the registry snapshot.

    Runs the *sharded* broker so the snapshot covers every metric family
    the system registers: ``broker.*`` and ``reliability.*`` on the
    broker registry, ``engine.*`` (including ``engine.degraded_*`` —
    the broker runs under a never-tripping degraded policy so the
    counters exist) on the per-shard registries, reported both raw
    (``shards``) and merged (``engine_totals``, via
    :func:`repro.obs.merge_snapshots`).
    """
    registry = MetricsRegistry()
    TRACER.enable(registry=registry, sink=args.trace_out)
    try:
        workload = build_workload(WorkloadConfig.tiny())
        pool = list(theme_pool(workload.thesaurus))
        rng = random.Random(args.seed)
        subscription_tags = tuple(rng.sample(pool, min(8, len(pool))))
        event_tags = tuple(rng.sample(subscription_tags, 3))

        cache = RelatednessCache()
        matcher = ThematicMatcher(
            CachedMeasure(ThematicMeasure(workload.space), cache)
        )
        config = BrokerConfig(
            shards=args.shards,
            max_batch=8,
            linger=0.0,
            workers=0,
            # A budget no tiny batch can blow: present in the snapshot,
            # silent in the run.
            degraded=DegradedPolicy(latency_budget=60.0),
        )
        broker = ShardedBroker(matcher, config, registry=registry)
        try:
            for subscription in workload.subscriptions.approximate[
                : args.subscriptions
            ]:
                broker.subscribe(subscription.with_theme(subscription_tags))
            for event in workload.events[: args.events]:
                broker.publish(event.with_theme(event_tags))
            broker.flush()
        finally:
            broker.close()

        registry.gauge("cache.relatedness_hit_rate").set(cache.hit_rate)
        registry.gauge("cache.relatedness_entries").set(len(cache))
        for name, size in workload.space.cache_stats().items():
            registry.gauge(f"space.cache.{name}").set(size)
        snapshot = broker.metrics_snapshot()
        document = registry.snapshot()
        document["shards"] = snapshot["shards"]
        document["engine_totals"] = snapshot["engine_totals"]
    finally:
        TRACER.disable()
    print(json.dumps(document, indent=2))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Rebuild one trace's causal tree from span logs / dumps."""
    records = load_span_records(args.input)
    if args.trace_id is None:
        rows = summarize_traces(records)
        if not rows:
            print("no traces found in the given files")
            return 1
        table = [
            (
                row["trace_id"],
                row["spans"],
                row["root"],
                ", ".join(row["names"]),
            )
            for row in rows
        ]
        print(format_table(("trace", "spans", "root", "span names"), table))
        return 0
    rendering = render_trace_tree(records, args.trace_id)
    print(rendering)
    return 1 if rendering.endswith("no spans found") else 0


def cmd_bench_diff(args: argparse.Namespace) -> int:
    """Gate fresh bench artifacts against the committed baselines."""
    report = diff_directories(
        args.baseline_dir, args.current_dir, tolerance=args.tolerance
    )
    markdown = render_markdown(report)
    if args.markdown_out:
        out_path = Path(args.markdown_out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(markdown + "\n", encoding="utf-8")
        print(f"trend table -> {out_path}")
    for comparison in report.comparisons:
        note = f" ({comparison.note})" if comparison.note else ""
        print(f"{comparison.bench}: {comparison.status}{note}")
    for name in report.missing_current:
        print(f"{name}: baseline present, no fresh artifact (not gated)")
    for name in report.missing_baseline:
        print(f"{name}: fresh artifact has no committed baseline yet")
    regressions = report.regressions
    if regressions:
        print(
            f"\n{len(regressions)} metric(s) regressed beyond "
            f"±{report.tolerance:.0%} or missing:",
            file=sys.stderr,
        )
        for delta in regressions:
            if delta.status == "missing":
                print(
                    f"  {delta.metric}: {delta.baseline:.4g} -> missing "
                    "(baseline metric no longer reported)",
                    file=sys.stderr,
                )
                continue
            print(
                f"  {delta.metric}: {delta.baseline:.4g} -> "
                f"{delta.current:.4g} ({delta.delta:+.1%}, "
                f"{delta.direction} is better)",
                file=sys.stderr,
            )
        return 1
    if args.gate and report.compared == 0:
        if report.missing_baseline:
            # Every fresh artifact is brand new — nothing to regress
            # against. New coverage passes the gate (informationally);
            # committing the baselines arms it for next time.
            print(
                "bench diff --gate: only new artifacts "
                f"({', '.join(report.missing_baseline)}); commit baselines "
                "to arm the gate"
            )
            return 0
        print(
            "bench diff --gate: no artifacts were compared "
            "(nothing to gate on)",
            file=sys.stderr,
        )
        return 1
    print(
        f"\nbench diff: {report.compared} bench(es) within "
        f"±{report.tolerance:.0%} of baseline"
    )
    return 0


def _changed_python_files(root: "pathlib.Path") -> list["pathlib.Path"]:
    """Python files under ``src/`` that git reports as modified vs HEAD.

    Covers unstaged, staged, and untracked files (the pre-push loop
    cares about all three). Only ``src/`` files are returned: tests and
    fixtures are lint *input*, not lint targets, and partial-tree runs
    already accept the reduced call-graph context — CI's whole-tree
    walk stays authoritative.
    """
    import subprocess

    def _git(*argv: str) -> list[str]:
        proc = subprocess.run(
            ["git", *argv],
            cwd=root,
            capture_output=True,
            text=True,
            check=False,
        )
        if proc.returncode != 0:
            return []
        return [line for line in proc.stdout.splitlines() if line]

    names = set(_git("diff", "--name-only", "HEAD"))
    names.update(_git("ls-files", "--others", "--exclude-standard"))
    out = []
    for name in sorted(names):
        if not name.endswith(".py") or not name.startswith("src/"):
            continue
        path = root / name
        if path.is_file():  # deleted files still appear in the diff
            out.append(path)
    return out


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the repro static-analysis suite (see docs/static-analysis.md)."""
    from pathlib import Path

    from repro.analysis import AllowlistError, run_lint
    from repro.analysis.runner import render_rules

    if args.list_rules:
        print(render_rules())
        return 0
    root = Path(args.root)
    paths = [Path(p) for p in args.paths] if args.paths else None
    if args.changed:
        if paths is not None:
            print(
                "repro lint: --changed and explicit paths are mutually "
                "exclusive",
                file=sys.stderr,
            )
            return 2
        paths = _changed_python_files(root)
        if not paths:
            print("repro lint --changed: no changed Python files under src/")
            return 0
    allowlist = Path(args.allowlist) if args.allowlist else None
    if args.growth_base is not None:
        from repro.analysis.allowlist import check_growth, load_allowlist

        head_path = allowlist or root / ".repro-lint.toml"
        base_path = Path(args.growth_base)
        try:
            head = load_allowlist(head_path) if head_path.is_file() else []
            # A missing base file means the allowlist did not exist at
            # the base revision: every head entry counts as growth.
            base = load_allowlist(base_path) if base_path.is_file() else []
        except AllowlistError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
        added, problems = check_growth(base, head)
        for entry in added:
            print(f"allowlist +{entry.describe()}")
            print(f"  reason: {entry.reason}")
        for problem in problems:
            print(f"repro lint: {problem}", file=sys.stderr)
        print(
            f"repro lint --growth-base: {len(head)} entr(y/ies), "
            f"{len(added)} added vs base, {len(problems)} problem(s)"
        )
        return 1 if problems else 0
    try:
        result = run_lint(
            root, paths, allowlist=allowlist, changed_scope=args.changed
        )
    except AllowlistError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.stale_only:
        # CI stale-suppression check: only RL000 findings gate the run.
        for finding in result.stale:
            print(finding.render())
        print(
            f"repro lint --stale-only: {len(result.stale)} stale "
            f"suppression(s), {len(result.suppressed)} active"
        )
        return 1 if result.stale else 0
    if args.format == "json":
        print(result.to_json())
    else:
        print(result.render_text())
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Thematic event processing (Hasan & Curry, Middleware 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_match = sub.add_parser("match", help="match a subscription against an event")
    p_match.add_argument("--subscription", required=True)
    p_match.add_argument("--event", required=True)
    p_match.add_argument("-k", type=int, default=3, help="top-k mappings")
    p_match.add_argument("--trace", action="store_true",
                         help="print per-stage pipeline timings")
    p_match.add_argument("--trace-out", default=None,
                         help="append span records as JSONL to this file")
    p_match.set_defaults(func=cmd_match)

    p_rel = sub.add_parser("relatedness", help="score two terms")
    p_rel.add_argument("term_a")
    p_rel.add_argument("term_b")
    p_rel.add_argument("--theme-a", default="", help="comma-separated tags")
    p_rel.add_argument("--theme-b", default="", help="comma-separated tags")
    p_rel.set_defaults(func=cmd_relatedness)

    p_corpus = sub.add_parser("corpus", help="inspect/save/verify the corpus")
    p_corpus.add_argument("action", choices=("info", "save", "verify"))
    p_corpus.add_argument("--path")
    p_corpus.set_defaults(func=cmd_corpus)

    p_eval = sub.add_parser("evaluate", help="baseline vs thematic comparison")
    p_eval.add_argument("--scale", choices=("tiny", "small", "paper"),
                        default="tiny")
    p_eval.add_argument("--event-tags", type=int, default=4)
    p_eval.add_argument("--subscription-tags", type=int, default=12)
    p_eval.add_argument("--seed", type=int, default=99)
    p_eval.add_argument("--shards", type=int, default=0,
                        help="also compare serial vs sharded broker "
                             "throughput with this many subscription shards")
    p_eval.add_argument("--max-batch", type=int, default=32,
                        help="ingress micro-batch size for --shards")
    p_eval.add_argument("--faults", default=None, metavar="PLAN.json",
                        help="run the fault-injection experiment with this "
                             "FaultPlan and verify the no-loss invariant "
                             "(exit 1 on violation)")
    p_eval.add_argument("--trace", action="store_true",
                        help="print per-stage pipeline timings")
    p_eval.add_argument("--trace-out", default=None,
                        help="append span records as JSONL to this file")
    p_eval.set_defaults(func=cmd_evaluate)

    p_warm = sub.add_parser(
        "warm-cache",
        help="precompute a relatedness score store for the engine's "
             "score_store_path knob",
    )
    p_warm.add_argument("--scale", choices=("tiny", "small", "paper"),
                        default="tiny")
    p_warm.add_argument("--out", required=True, metavar="STORE.bin",
                        help="where to write the score-store snapshot")
    p_warm.add_argument("--event-tags", type=int, default=4)
    p_warm.add_argument("--subscription-tags", type=int, default=12)
    p_warm.add_argument("--seed", type=int, default=99)
    p_warm.add_argument("--workers", type=int, default=0,
                        help="shard scoring over this many spawned worker "
                             "processes (0 = in-process; results are "
                             "bit-identical either way)")
    p_warm.add_argument("--check-parity", type=int, default=0, metavar="N",
                        help="after the reload-verify, compare N sampled "
                             "store entries against the online kernel and "
                             "exit 1 beyond the documented tolerance")
    p_warm.set_defaults(func=cmd_warm_cache)

    p_stats = sub.add_parser(
        "stats",
        help="exercise the pipeline on a tiny workload, dump metrics JSON",
    )
    p_stats.add_argument("--events", type=int, default=20,
                         help="events to publish through the broker")
    p_stats.add_argument("--subscriptions", type=int, default=8)
    p_stats.add_argument("--seed", type=int, default=99)
    p_stats.add_argument("--shards", type=int, default=2,
                         help="subscription shards for the stats broker")
    p_stats.add_argument("--trace-out", default=None,
                         help="append span records as JSONL to this file")
    p_stats.set_defaults(func=cmd_stats)

    p_trace = sub.add_parser(
        "trace",
        help="rebuild a trace's causal tree from span logs / dumps",
    )
    p_trace.add_argument("trace_id", nargs="?", default=None,
                         help="trace id to render (omit to list traces)")
    p_trace.add_argument("--input", nargs="+", required=True,
                         metavar="PATH",
                         help="span JSONL files, Chrome-trace dumps, or "
                              "directories of either (e.g. a --trace-out dir)")
    p_trace.set_defaults(func=cmd_trace)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark artifact tooling (see 'bench diff')",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_diff = bench_sub.add_parser(
        "diff",
        help="compare fresh BENCH_*.json artifacts against baselines; "
             "exit 1 on regression",
    )
    p_diff.add_argument("--baseline-dir", default="benchmarks/baselines",
                        help="directory of committed baseline artifacts")
    p_diff.add_argument("--current-dir", default=".",
                        help="directory of freshly produced artifacts")
    p_diff.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="fractional noise tolerance per metric "
                             f"(default {DEFAULT_TOLERANCE})")
    p_diff.add_argument("--markdown-out", default=None, metavar="PATH",
                        help="also write the markdown trend table here")
    p_diff.add_argument("--gate", action="store_true",
                        help="CI mode: additionally fail when nothing "
                             "was compared")
    p_diff.set_defaults(func=cmd_bench_diff)

    p_lint = sub.add_parser(
        "lint",
        help="run the repro static-analysis suite (lock discipline, "
             "clock discipline, metrics manifest, API surface)",
    )
    p_lint.add_argument("paths", nargs="*",
                        help="files/directories to check (default: src/)")
    p_lint.add_argument("--root", default=".",
                        help="repo root (allowlist + API snapshot location)")
    p_lint.add_argument("--allowlist", default=None,
                        help="allowlist file (default: <root>/.repro-lint.toml)")
    p_lint.add_argument("--format", choices=("text", "json"), default="text")
    p_lint.add_argument("--changed", action="store_true",
                        help="check only files git reports as changed "
                             "relative to HEAD (pre-push loop; skips the "
                             "whole-tree walk and stale-entry reporting)")
    p_lint.add_argument("--growth-base", default=None, metavar="FILE",
                        help="audit allowlist growth: compare the current "
                             "allowlist against FILE (the base revision's "
                             "copy; CI extracts it with `git show`) and "
                             "exit 1 if an added entry reuses an existing "
                             "reason verbatim")
    p_lint.add_argument("--stale-only", action="store_true",
                        help="report only stale allowlist entries (RL000); "
                             "exit 1 if any")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    p_lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # `repro trace ... | head` closes stdout early; that is not an
        # error worth a traceback. Detach stdout so interpreter
        # shutdown doesn't re-raise on the final flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            # dup2 duplicated the descriptor onto stdout; the original
            # would otherwise leak one fd per in-process main() call.
            os.close(devnull)
        return 0
    finally:
        # A command that dies mid-run must not leave the global tracer
        # or flight recorder enabled for the next in-process main() call.
        TRACER.disable()
        TRACER.detach_flight_recorder()
        FLIGHT_RECORDER.disable()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
