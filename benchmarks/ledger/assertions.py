"""Workload assertions: what each workload must look like at this commit.

A workload that stops stressing the layer it was built for is no longer
the workload the interaction table describes; the ledger run fails loudly
instead of reporting numbers for something else.
"""

from __future__ import annotations

import plan


def check(documents: list[dict], *, smoke: bool) -> list[str]:
    problems = []

    def value(document, name):
        found = document["metrics"].get(name)
        return found["value"] if found else None

    for document in documents:
        name = document["workload"]
        if document["failed"] or not document["correct"]:
            problems.append(
                f"{name}: {document['failed']} of {document['attempted']} events failed"
            )
        if smoke:
            continue
        if not document["trace"]:
            rss = value(document, "peak_rss_mb")
            if rss is not None and rss > plan.PEAK_RSS_MAX_MB:
                problems.append(f"{name}: peak_rss_mb {rss:.0f} > {plan.PEAK_RSS_MAX_MB:.0f}")
            continue
        share = value(document, "semantics.score.share")
        if name == "steady_inline" and share > plan.SCORE_SHARE_MAX_STEADY:
            problems.append(
                f"{name}: semantics.score.share {share:.2f} > {plan.SCORE_SHARE_MAX_STEADY}"
            )
        if name == "theme_mix_inline" and share < plan.SCORE_SHARE_MIN_MIX:
            problems.append(
                f"{name}: semantics.score.share {share:.2f} < {plan.SCORE_SHARE_MIN_MIX}"
            )
        coverage = document["detail"]["coverage"]
        if name != "steady_sharded_open" and coverage < plan.TRACE_COVERAGE_MIN:
            problems.append(
                f"{name}: spans cover {coverage:.2f} of the timed region "
                f"(< {plan.TRACE_COVERAGE_MIN})"
            )
        late = value(document, "loadgen.late_p99_ms")
        if name == "steady_sharded_open" and late >= plan.OPEN_LOOP_P99_LIMIT_MS:
            problems.append(
                f"{name}: loadgen.late_p99_ms {late:.1f} >= {plan.OPEN_LOOP_P99_LIMIT_MS}"
            )
    return problems
