"""The benchmark tracer's wrap sites still exist.

``derandbench/tracer.py`` wraps pipeline functions at the import sites
the pipeline resolves them through (its ``TARGETS``).  A rename there
would otherwise surface only in the benchmark's own self-tests, so this
loads the tracer by path, unchanged, and checks every target resolves.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.graphs.builders import cycle_graph, with_uniform_input
from repro.graphs.coloring import apply_two_hop_coloring, greedy_two_hop_coloring
from repro.graphs.labeled_graph import LabeledGraph
from repro.views.local_views import view

TRACER_PATH = Path(__file__).resolve().parents[2] / "derandbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("derandbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize(
    "module_name,attr", [(m, a) for m, a, _ in TARGETS], ids=[name for _, _, name in TARGETS]
)
def test_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_quotient_from_view_returns_a_labeled_graph():
    """The tracer counts aliases as ``.num_nodes`` of each rebuild."""
    from repro.core import practical

    graph = with_uniform_input(cycle_graph(5))
    graph = apply_two_hop_coloring(graph, greedy_two_hop_coloring(graph))
    rebuilt = practical.quotient_from_view(view(graph, 0, 12), 6)
    assert isinstance(rebuilt, LabeledGraph)
    assert rebuilt.num_nodes == 5
