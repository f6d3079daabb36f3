"""Tests for the multi-broker overlay."""

import os
import pathlib
import subprocess
import sys

import networkx as nx
import pytest

from repro.broker.overlay import BrokerOverlay
from repro.core.language import parse_event, parse_subscription
from repro.core.matcher import ThematicMatcher
from repro.semantics.measures import ThematicMeasure

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

EVENT = parse_event(
    "({energy, appliances, building},"
    " {type: increased energy consumption event, device: computer,"
    "  office: room 112})"
)
SUBSCRIPTION = parse_subscription(
    "({power, computers},"
    " {type= increased energy usage event~, device~= laptop~, office= room 112})"
)


def make_overlay(space, graph=None, **kwargs):
    graph = graph if graph is not None else nx.path_graph(4)
    return BrokerOverlay(
        graph,
        lambda: ThematicMatcher(ThematicMeasure(space)),
        **kwargs,
    )


class TestOverlay:
    def test_every_graph_node_becomes_a_broker(self, space):
        overlay = make_overlay(space)
        assert len(overlay.nodes()) == 4

    def test_empty_graph_rejected(self, space):
        with pytest.raises(ValueError):
            make_overlay(space, graph=nx.Graph())

    def test_flood_reaches_remote_subscriber(self, space):
        overlay = make_overlay(space)
        handle = overlay.subscribe(3, SUBSCRIPTION)
        delivered = overlay.publish(0, EVENT)
        assert delivered == 1
        assert len(handle.inbox) == 1

    def test_ttl_scopes_propagation(self, space):
        overlay = make_overlay(space)
        near = overlay.subscribe(1, SUBSCRIPTION)
        far = overlay.subscribe(3, SUBSCRIPTION)
        overlay.publish(0, EVENT, ttl=1)
        assert len(near.inbox) == 1
        assert len(far.inbox) == 0

    def test_cycle_deduplication(self, space):
        overlay = make_overlay(space, graph=nx.cycle_graph(4))
        handle = overlay.subscribe(2, SUBSCRIPTION)
        overlay.publish(0, EVENT)
        assert len(handle.inbox) == 1
        assert overlay.metrics.duplicate_suppressions > 0

    def test_unknown_node_rejected(self, space):
        overlay = make_overlay(space)
        with pytest.raises(KeyError):
            overlay.publish("nope", EVENT)

    def test_metrics_accumulate(self, space):
        overlay = make_overlay(space)
        overlay.subscribe(0, SUBSCRIPTION)
        overlay.publish(0, EVENT)
        assert overlay.metrics.injected == 1
        assert overlay.metrics.hops == 3  # path graph fully flooded
        assert overlay.metrics.deliveries == 1

    def test_total_subscribers(self, space):
        overlay = make_overlay(space)
        overlay.subscribe(0, SUBSCRIPTION)
        overlay.subscribe(2, SUBSCRIPTION)
        assert overlay.total_subscribers() == 2

    def test_broker_accessor(self, space):
        overlay = make_overlay(space)
        assert overlay.broker(0).subscriber_count() == 0


def test_import_repro_leaves_networkx_unloaded():
    # networkx is needed only to build an overlay's graph, not to import
    # the package: every other surface must not pay for loading it.
    completed = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print('networkx' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"
