"""Runtime complement of RL401 for the FIELDS-loop registrations.

``BrokerMetrics`` and ``EngineStats`` register their counters in a loop
over a class-level ``FIELDS`` tuple, so the static checker sees an
f-string with no literal head and those two sites carry ``.repro-lint.toml``
entries. The deal recorded in that file is that *this* test covers the
expansion instead: every ``"<prefix>.<field>"`` the loops produce must
be a declared counter in the manifest.
"""

import ast
from pathlib import Path

from repro.broker.broker import BrokerMetrics
from repro.core.engine import EngineStats
from repro.obs import manifest
from repro.obs.manifest import METRICS, metric_names, spec_for


class TestFieldsLoopsAreDeclared:
    def test_broker_metrics_fields(self):
        for field in BrokerMetrics.FIELDS:
            spec = spec_for(f"broker.{field}")
            assert spec is not None, f"broker.{field} missing from manifest"
            assert spec.kind == "counter", f"broker.{field} is {spec.kind}"

    def test_engine_stats_fields(self):
        for field in EngineStats.FIELDS:
            spec = spec_for(f"engine.{field}")
            assert spec is not None, f"engine.{field} missing from manifest"
            assert spec.kind == "counter", f"engine.{field} is {spec.kind}"

    def test_no_dead_entries(self):
        """The reverse of RL400: every exact name is still registered, as
        a string literal under ``src/`` or through a FIELDS loop."""
        source = Path(manifest.__file__)
        names = {
            node.value
            for path in source.parents[1].rglob("*.py") if path != source
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        names |= {f"broker.{f}" for f in BrokerMetrics.FIELDS}
        names |= {f"engine.{f}" for f in EngineStats.FIELDS}
        exact = [s.name for s in METRICS if not s.name.endswith(".*")]
        assert [name for name in exact if name not in names] == []


class TestManifestWellFormed:
    def test_names_are_unique(self):
        names = metric_names()
        assert len(names) == len(set(names))

    def test_kinds_are_valid(self):
        assert {s.kind for s in METRICS} <= {"counter", "gauge", "histogram"}

    def test_every_entry_is_documented(self):
        assert all(s.description.strip() for s in METRICS)

    def test_wildcards_resolve_through_spec_for(self):
        spec = spec_for("stage.theme_filter.seconds")
        assert spec is not None and spec.kind == "histogram"

    def test_unknown_name_resolves_to_none(self):
        assert spec_for("no.such.metric") is None
