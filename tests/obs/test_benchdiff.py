"""Bench regression detection: flattening, direction, judging, reports."""

import json

import pytest

from repro.obs.benchdiff import (
    DEFAULT_TOLERANCE,
    DiffReport,
    classify_metric,
    compare_artifacts,
    compare_metrics,
    diff_directories,
    flatten_metrics,
    render_markdown,
)


class TestFlatten:
    def test_nested_paths_and_numbers_only(self):
        flat = flatten_metrics(
            {
                "serial": {"mean_eps": 100.0, "unit": "ev/s"},
                "speedup": 2,
                "cells": [1, 2, 3],
                "converged": True,
            }
        )
        assert flat == {"serial.mean_eps": 100.0, "speedup": 2.0}


class TestClassify:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("serial.mean_eps", "higher"),
            ("thematic.events_per_second", "higher"),  # beats "second"
            ("match.latency_p99", "lower"),
            ("elapsed_seconds", "lower"),
            ("serial.runs", "info"),
            ("config.max_batch", "info"),
            ("mystery.metric", "info"),
        ],
    )
    def test_direction(self, path, expected):
        assert classify_metric(path) == expected


class TestCompareMetrics:
    def test_regression_improvement_and_ok(self):
        deltas = {
            d.metric: d
            for d in compare_metrics(
                {
                    "mean_eps": 100.0,
                    "latency_p99": 1.0,
                    "runs": 3,
                    "zero_eps": 0.0,
                },
                {
                    "mean_eps": 75.0,  # -25% throughput: regression
                    "latency_p99": 0.5,  # -50% latency: improvement
                    "runs": 300,  # info: never judged
                    "zero_eps": 5.0,  # baseline 0: info
                },
            )
        }
        assert deltas["mean_eps"].status == "regression"
        assert deltas["latency_p99"].status == "improved"
        assert deltas["runs"].status == "info"
        assert deltas["zero_eps"].status == "info"

    def test_within_tolerance_is_ok(self):
        (delta,) = compare_metrics({"mean_eps": 100.0}, {"mean_eps": 95.0})
        assert delta.status == "ok"
        assert delta.delta == pytest.approx(-0.05)

    def test_baseline_only_metrics_are_missing_rows(self):
        """A metric the fresh artifact stopped reporting fails the diff."""
        deltas = compare_metrics(
            {"mean_eps": 1.0, "old_only": 2.0}, {"mean_eps": 1.0}
        )
        assert [d.metric for d in deltas] == ["mean_eps", "old_only"]
        missing = deltas[1]
        assert missing.status == "missing"
        assert missing.baseline == 2.0
        comparison = compare_artifacts(
            {"bench": "b", "scale": "tiny", "metrics": {"eps": 1.0, "runs": 3}},
            {"bench": "b", "scale": "tiny", "metrics": {"eps": 1.0}},
        )
        assert comparison.status == "regression"

    def test_current_only_metrics_are_informational_new_rows(self):
        """A bench that grew a measurement must not regress or vanish."""
        deltas = compare_metrics(
            {"mean_eps": 1.0, "old_only": 2.0}, {"mean_eps": 1.0, "new_only": 3.0}
        )
        assert [d.metric for d in deltas] == ["mean_eps", "old_only", "new_only"]
        new_row = deltas[2]
        assert new_row.status == "new"
        assert new_row.current == 3.0
        assert new_row.delta == 0.0

    def test_new_rows_never_fail_the_comparison(self):
        comparison = compare_artifacts(
            {"bench": "b", "scale": "tiny", "metrics": {"eps": 10.0}},
            {"bench": "b", "scale": "tiny",
             "metrics": {"eps": 10.0, "kernel_eps": 50.0}},
        )
        assert comparison.status == "ok"
        assert {d.status for d in comparison.deltas} == {"ok", "new"}


class TestCompareArtifacts:
    def test_scale_mismatch_is_skipped_not_compared(self):
        comparison = compare_artifacts(
            {"bench": "fig9", "scale": "small", "metrics": {"eps": 100.0}},
            {"bench": "fig9", "scale": "paper", "metrics": {"eps": 1.0}},
        )
        assert comparison.status == "skipped"
        assert "scale mismatch" in comparison.note
        assert comparison.deltas == ()


def write_artifact(directory, name, eps, scale="small"):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"BENCH_{name}.json").write_text(
        json.dumps(
            {
                "schema": "repro.bench/v1",
                "bench": name,
                "scale": scale,
                "metrics": {"mean_eps": eps},
            }
        )
    )


class TestDiffDirectories:
    def test_pairing_and_missing_bookkeeping(self, tmp_path):
        write_artifact(tmp_path / "base", "shared", 100.0)
        write_artifact(tmp_path / "base", "base_only", 100.0)
        write_artifact(tmp_path / "cur", "shared", 99.0)
        write_artifact(tmp_path / "cur", "cur_only", 1.0)
        report = diff_directories(tmp_path / "base", tmp_path / "cur")
        assert report.compared == 1
        assert report.ok
        assert report.missing_current == ("base_only",)
        assert report.missing_baseline == ("cur_only",)
        assert report.tolerance == DEFAULT_TOLERANCE

    def test_twenty_percent_drop_trips_default_tolerance(self, tmp_path):
        write_artifact(tmp_path / "base", "fig9", 100.0)
        write_artifact(tmp_path / "cur", "fig9", 80.0)
        report = diff_directories(tmp_path / "base", tmp_path / "cur")
        assert not report.ok
        (regression,) = report.regressions
        assert regression.metric == "mean_eps"
        assert regression.delta == pytest.approx(-0.20)

    def test_custom_tolerance_absorbs_the_same_drop(self, tmp_path):
        write_artifact(tmp_path / "base", "fig9", 100.0)
        write_artifact(tmp_path / "cur", "fig9", 80.0)
        report = diff_directories(
            tmp_path / "base", tmp_path / "cur", tolerance=0.25
        )
        assert report.ok


class TestMissingMetricGate:
    def test_missing_metric_fails_the_gate(self, tmp_path, capsys):
        from repro.cli import main

        write_artifact(tmp_path / "base", "fig9", 100.0)
        (tmp_path / "cur").mkdir()
        (tmp_path / "cur" / "BENCH_fig9.json").write_text(
            json.dumps({"bench": "fig9", "scale": "small", "metrics": {}})
        )
        report = diff_directories(tmp_path / "base", tmp_path / "cur")
        assert not report.ok
        assert [d.metric for d in report.regressions] == ["mean_eps"]
        assert "| mean_eps | 100 | – | – | **MISSING** |" in render_markdown(report)
        code = main(
            [
                "bench", "diff",
                "--baseline-dir", str(tmp_path / "base"),
                "--current-dir", str(tmp_path / "cur"),
                "--gate",
            ]
        )
        assert code == 1
        assert "mean_eps: 100 -> missing" in capsys.readouterr().err


class TestMarkdown:
    def test_trend_table_flags_regressions(self, tmp_path):
        write_artifact(tmp_path / "base", "fig9", 100.0)
        write_artifact(tmp_path / "cur", "fig9", 70.0)
        report = diff_directories(tmp_path / "base", tmp_path / "cur")
        markdown = render_markdown(report)
        assert "## fig9 — regression" in markdown
        assert "**REGRESSION**" in markdown
        assert "| mean_eps | 100 | 70 | -30.0% |" in markdown

    def test_trend_table_renders_new_rows_without_fake_baseline(self):
        report = DiffReport(
            comparisons=(
                compare_artifacts(
                    {"bench": "kern", "scale": "tiny", "metrics": {"eps": 5.0}},
                    {"bench": "kern", "scale": "tiny",
                     "metrics": {"eps": 5.0, "fresh_eps": 9.0}},
                ),
            ),
            missing_current=(),
            missing_baseline=(),
            tolerance=DEFAULT_TOLERANCE,
        )
        markdown = render_markdown(report)
        assert "| fresh_eps | – | 9 | – | new |" in markdown
