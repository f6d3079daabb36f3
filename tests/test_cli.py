"""Tests for the command-line interface."""

from repro.cli import main

EVENT = (
    "({energy, appliances, building},"
    " {type: increased energy consumption event, device: computer,"
    "  office: room 112})"
)
SUBSCRIPTION = (
    "({power, computers},"
    " {type= increased energy usage event~, device~= laptop~, office= room 112})"
)


class TestMatch:
    def test_matching_pair_exits_zero(self, capsys):
        code = main(["match", "--subscription", SUBSCRIPTION, "--event", EVENT])
        out = capsys.readouterr().out
        assert code == 0
        assert "score=" in out
        assert "match: True" in out

    def test_non_matching_pair_exits_one(self, capsys):
        code = main(
            [
                "match",
                "--subscription",
                "({transport}, {type= parking space occupied event~, spot= 4})",
                "--event",
                EVENT,
            ]
        )
        assert code == 1

    def test_infeasible_event(self, capsys):
        code = main(
            [
                "match",
                "--subscription",
                SUBSCRIPTION,
                "--event",
                "({energy}, {type: increased energy consumption event})",
            ]
        )
        assert code == 1
        assert "no mapping" in capsys.readouterr().out


class TestRelatedness:
    def test_plain(self, capsys):
        code = main(["relatedness", "energy consumption", "electricity usage"])
        assert code == 0
        assert "non-thematic relatedness" in capsys.readouterr().out

    def test_with_themes(self, capsys):
        code = main(
            [
                "relatedness",
                "increased",
                "decreased",
                "--theme-a",
                "energy,power generation",
                "--theme-b",
                "energy,power generation",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "thematic relatedness" in out


class TestCorpus:
    def test_info(self, capsys):
        assert main(["corpus", "info"]) == 0
        out = capsys.readouterr().out
        assert "documents:" in out and "digest:" in out

    def test_save_and_verify(self, tmp_path, capsys):
        path = str(tmp_path / "snapshot.json")
        assert main(["corpus", "save", "--path", path]) == 0
        assert main(["corpus", "verify", "--path", path]) == 0
        assert "digest verified" in capsys.readouterr().out

    def test_save_without_path_errors(self):
        assert main(["corpus", "save"]) == 2


def test_evaluate_tiny(capsys):
    code = main(["evaluate", "--scale", "tiny"])
    out = capsys.readouterr().out
    assert code == 0
    assert "baseline" in out
    assert "thematic" in out
    assert "F1 delta" in out


def test_warm_cache_round_trip(capsys, tmp_path):
    """Build in-process, reload-verify, spot-check against the kernel."""
    out_path = tmp_path / "warm" / "scores.bin"
    code = main(
        ["warm-cache", "--scale", "tiny", "--out", str(out_path),
         "--check-parity", "16"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out_path.exists()
    assert "reload-verify ok" in out
    assert "parity vs online kernel over 16 samples" in out


class TestTracing:
    def test_match_trace_prints_stage_timings(self, capsys):
        code = main(
            ["match", "--subscription", SUBSCRIPTION, "--event", EVENT, "--trace"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "per-stage timings" in out
        assert "pipeline.match_batch" in out
        assert "pipeline.score" in out
        assert "matcher.top_k" in out

    def test_match_trace_writes_jsonl(self, capsys, tmp_path):
        import json

        sink = tmp_path / "trace.jsonl"
        code = main(
            [
                "match",
                "--subscription",
                SUBSCRIPTION,
                "--event",
                EVENT,
                "--trace",
                "--trace-out",
                str(sink),
            ]
        )
        assert code == 0
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        assert records
        assert all("span" in r and "duration_ms" in r for r in records)
        assert any(r["span"] == "pipeline.match_batch" for r in records)

    def test_match_without_trace_has_no_timings(self, capsys):
        code = main(["match", "--subscription", SUBSCRIPTION, "--event", EVENT])
        assert code == 0
        assert "per-stage timings" not in capsys.readouterr().out


class TestStats:
    def test_stats_prints_registry_snapshot(self, capsys):
        import json

        code = main(["stats", "--events", "5", "--subscriptions", "3"])
        out = capsys.readouterr().out
        assert code == 0
        start = out.index("{")
        snapshot = json.loads(out[start:])
        assert snapshot["counters"]["broker.published"] == 5
        assert snapshot["counters"]["broker.evaluations"] == 15
        assert "cache.relatedness_hit_rate" in snapshot["gauges"]
        assert "stage.pipeline.match_batch" in snapshot["histograms"]


class TestEvaluateFaults:
    def test_fault_plan_runs_and_accounts(self, capsys, tmp_path):
        import json

        plan = {
            "name": "cli-test",
            "callbacks": [
                {"subscriber": 0, "kind": "raise"},
                {"subscriber": 1, "kind": "flaky", "times": 2},
            ],
            "scorer": {"spike_seconds": 5.0, "every": 1},
            "degraded": {"latency_budget": 0.5, "cooldown": 1000000.0},
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        code = main(
            ["evaluate", "--scale", "tiny", "--faults", str(plan_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fault plan: 'cli-test'" in out
        for kind in ("serial", "threaded", "sharded"):
            assert kind in out
        assert "no_loss=ok" in out
        assert "degraded: trips=" in out
        assert "fault-free matched deliveries:" in out

    def test_missing_plan_file_errors(self, tmp_path):
        import pytest

        with pytest.raises(FileNotFoundError):
            main(
                [
                    "evaluate",
                    "--scale",
                    "tiny",
                    "--faults",
                    str(tmp_path / "nope.json"),
                ]
            )


class TestBenchDiffGate:
    @staticmethod
    def _write(directory, bench, metrics):
        import json

        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"BENCH_{bench}.json").write_text(
            json.dumps(
                {"bench": bench, "scale": "tiny", "metrics": metrics}
            )
        )

    def test_gate_passes_when_all_artifacts_are_new(self, capsys, tmp_path):
        """New benches have nothing to regress against; the gate must not
        fail a PR for adding coverage."""
        (tmp_path / "base").mkdir()
        self._write(tmp_path / "cur", "kernel_scaling", {"eps": 10.0})
        code = main(
            [
                "bench", "diff",
                "--baseline-dir", str(tmp_path / "base"),
                "--current-dir", str(tmp_path / "cur"),
                "--gate",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "only new artifacts" in out
        assert "kernel_scaling" in out

    def test_gate_still_fails_on_nothing_at_all(self, tmp_path):
        (tmp_path / "base").mkdir()
        (tmp_path / "cur").mkdir()
        code = main(
            [
                "bench", "diff",
                "--baseline-dir", str(tmp_path / "base"),
                "--current-dir", str(tmp_path / "cur"),
                "--gate",
            ]
        )
        assert code == 1

    def test_gate_still_fails_on_regression(self, tmp_path):
        self._write(tmp_path / "base", "fig9", {"mean_eps": 100.0})
        self._write(tmp_path / "cur", "fig9", {"mean_eps": 50.0})
        code = main(
            [
                "bench", "diff",
                "--baseline-dir", str(tmp_path / "base"),
                "--current-dir", str(tmp_path / "cur"),
                "--gate",
            ]
        )
        assert code == 1
