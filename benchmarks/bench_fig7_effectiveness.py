"""Figure 7 — effectiveness heatmap of the thematic matcher.

Paper: average F1 over 5 samples per (event theme size x subscription
theme size) cell, sizes 1..30. Thematic beats the 62% baseline on >70%
of combinations (62%-85%, average 71%); single-tag themes and the
bottom triangle (event theme much larger than subscription theme, i.e.
too few subscription tags) are the failure regions.

The bench regenerates the heatmap (calibrated sub-grid at small scale)
and asserts the headline shape claims.
"""

import statistics

import pytest

from repro.evaluation import format_comparison, format_heatmap


def test_figure7_heatmap(benchmark, workload, baseline, grid, bench_artifact):
    benchmark.pedantic(lambda: grid.overall_mean("f1"), rounds=1, iterations=1)

    fraction = grid.fraction_above(baseline.f1)
    best = grid.best("f1")
    mean_f1 = grid.overall_mean("f1")

    print()
    print("Figure 7 — thematic F1 x100 per cell (* = above baseline):")
    print(format_heatmap(grid, value="f1", baseline=baseline.f1))
    print()
    print(
        format_comparison(
            [
                ("cells above baseline", "> 70%", f"{fraction:.0%}"),
                ("F1 range above baseline", "62-85%", f"up to {best.mean_f1:.0%}"),
                ("overall mean F1", "~71% vs 62%", f"{mean_f1:.1%} vs {baseline.f1:.1%}"),
            ],
            title="Figure 7 shape",
        )
    )

    bench_artifact(
        "fig7_effectiveness",
        {
            "baseline": baseline.as_metrics(),
            "thematic": grid.as_metrics(),
            "cells_above_baseline": fraction,
            "best_cell_f1": best.mean_f1,
        },
    )

    # Shape assertions.
    assert fraction >= 0.5, "a majority of cells must beat the baseline"
    assert best.mean_f1 > baseline.f1 + 0.02

    # Few-tag cells are a weak region (Figure 7's bottom-left edge): the
    # smallest-size cell (1-1 at small and paper scale) must not be among
    # the top performers.
    smallest = min(key[0] for key in grid.cells)
    corner = grid.cell(smallest, smallest).mean_f1
    top_quartile = statistics.quantiles(
        [c.mean_f1 for c in grid.cells.values()], n=4
    )[2]
    assert corner <= top_quartile + 1e-9
