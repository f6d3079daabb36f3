"""Unit tests for pipeline tracing."""

import json

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import TRACER, Tracer, traced


@pytest.fixture()
def tracer():
    instance = Tracer()
    yield instance
    instance.disable()


class TestDisabledMode:
    def test_disabled_by_default(self, tracer):
        assert not tracer.enabled

    def test_disabled_span_is_shared_noop(self, tracer):
        first = tracer.span("a")
        second = tracer.span("b")
        assert first is second
        with first:
            pass

    def test_disabled_records_nothing(self, tracer):
        registry = MetricsRegistry()
        tracer.enable(registry=registry)
        tracer.disable()
        with tracer.span("stage"):
            pass
        assert registry.snapshot()["histograms"] == {}


class TestEnabledMode:
    def test_span_aggregates_into_stage_histogram(self, tracer):
        registry = MetricsRegistry()
        tracer.enable(registry=registry)
        with tracer.span("matcher.match"):
            pass
        with tracer.span("matcher.match"):
            pass
        summary = registry.snapshot()["histograms"]["stage.matcher.match"]
        assert summary["count"] == 2
        assert summary["max"] >= 0.0

    def test_stage_timings_strips_prefix(self, tracer):
        tracer.enable(registry=MetricsRegistry())
        with tracer.span("broker.publish"):
            pass
        assert "broker.publish" in tracer.stage_timings()

    def test_nested_spans_record_parent(self, tracer, tmp_path):
        sink = tmp_path / "trace.jsonl"
        tracer.enable(registry=MetricsRegistry(), sink=str(sink))
        with tracer.span("outer"):
            with tracer.span("inner", detail=3):
                pass
        tracer.disable()
        records = [
            json.loads(line) for line in sink.read_text().splitlines()
        ]
        # Spans close innermost-first.
        assert [r["span"] for r in records] == ["inner", "outer"]
        assert records[0]["parent"] == "outer"
        assert records[0]["attributes"] == {"detail": 3}
        assert "parent" not in records[1]
        assert all(r["duration_ms"] >= 0.0 for r in records)

    def test_tag_adds_attributes_known_at_the_end(self, tracer, tmp_path):
        sink = tmp_path / "trace.jsonl"
        tracer.enable(registry=MetricsRegistry(), sink=str(sink))
        with tracer.span("stage", batch=2) as span:
            span.tag(done=5)
        tracer.disable()
        with tracer.span("stage") as span:
            span.tag(done=6)  # the shared no-op span takes tags too
        (record,) = [json.loads(line) for line in sink.read_text().splitlines()]
        assert record["attributes"] == {"batch": 2, "done": 5}

    def test_file_sink_appends(self, tracer, tmp_path):
        sink = tmp_path / "trace.jsonl"
        tracer.enable(registry=MetricsRegistry(), sink=str(sink))
        with tracer.span("one"):
            pass
        tracer.disable()
        tracer.enable(registry=MetricsRegistry(), sink=str(sink))
        with tracer.span("two"):
            pass
        tracer.disable()
        assert len(sink.read_text().splitlines()) == 2

    def test_exception_still_closes_span(self, tracer):
        registry = MetricsRegistry()
        tracer.enable(registry=registry)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert registry.snapshot()["histograms"]["stage.boom"]["count"] == 1


class TestDecorator:
    def test_traced_decorator(self, tracer):
        registry = MetricsRegistry()

        @traced("work", tracer=tracer)
        def work(x):
            return x * 2

        assert work(2) == 4  # disabled: plain call
        tracer.enable(registry=registry)
        assert work(3) == 6
        assert registry.snapshot()["histograms"]["stage.work"]["count"] == 1


class TestGlobalTracer:
    def test_pipeline_spans_reach_registry(self, space):
        from repro.core.language import parse_event, parse_subscription
        from repro.core.matcher import ThematicMatcher
        from repro.semantics.measures import ThematicMeasure

        registry = MetricsRegistry()
        TRACER.enable(registry=registry)
        try:
            matcher = ThematicMatcher(ThematicMeasure(space))
            matcher.match(
                parse_subscription(
                    "({power}, {type= increased energy usage event~})"
                ),
                parse_event(
                    "({energy}, {type: increased energy consumption event})"
                ),
            )
        finally:
            TRACER.disable()
        stages = registry.snapshot()["histograms"]
        assert "stage.matcher.match" in stages
        assert "stage.matcher.similarity_matrix" in stages
        assert "stage.matcher.top_k" in stages
