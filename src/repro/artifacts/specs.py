"""Spec builders: the JSON descriptions behind artifact keys.

A spec fully describes one canonical question: the kind, the instance
(embedded with :func:`repro.graphs.io.graph_to_dict`, so the address
depends on graph *structure*, never on instance identity) and the
question's parameters.  Producers answer specs; keys digest them.  Keep
these builders in sync with :mod:`repro.artifacts.producers` — every
spec field is key material, so renaming one rotates addresses exactly
like a code change would (harmless, but deliberate-only).
"""

from __future__ import annotations

from typing import Any

from repro.graphs.io import graph_to_dict
from repro.graphs.labeled_graph import LabeledGraph

__all__ = [
    "dynamic_views_spec",
    "quotient_spec",
    "refinement_spec",
    "views_spec",
]


def refinement_spec(graph: LabeledGraph) -> "dict[str, Any]":
    """Stable color refinement of ``graph`` (uncapped runs only: capped
    runs observe transient partitions and are not artifacts)."""
    return {"kind": "refinement", "graph": graph_to_dict(graph)}


def views_spec(graph: LabeledGraph, depth: int) -> "dict[str, Any]":
    """All depth-``depth`` views ``L_depth(v, graph)``."""
    return {"kind": "views", "depth": int(depth), "graph": graph_to_dict(graph)}


def quotient_spec(graph: LabeledGraph, with_views: bool = False) -> "dict[str, Any]":
    """The view quotient ``G_∞`` (``with_views`` adds the canonical
    depth-``n`` node aliases, i.e. ``G_*``)."""
    return {
        "kind": "quotient",
        "with_views": bool(with_views),
        "graph": graph_to_dict(graph),
    }


def dynamic_views_spec(
    base: LabeledGraph, deltas: "Any", depth: int
) -> "dict[str, Any]":
    """The depth-``depth`` views after replaying a delta log over a base
    graph (see :mod:`repro.dynamic`).  The log is key material: every
    applied delta rotates the address, so incremental view state is
    invalidated by churn exactly like a code change would invalidate a
    stale store."""
    return {
        "kind": "dynamic-views",
        "depth": int(depth),
        "base": graph_to_dict(base),
        "deltas": [delta.as_dict() for delta in deltas],
    }
