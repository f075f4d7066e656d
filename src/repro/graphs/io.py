"""Serialization of labeled graphs to/from JSON-compatible dictionaries.

Instances, colorings and experiment artifacts need to be saved and
reloaded (e.g. to pin a regression fixture or ship a workload).  The
format is deliberately plain: node ids and labels must themselves be
JSON-representable (ints, strings, lists/tuples, dicts); tuples are
round-tripped as lists and restored as tuples because labels in this
library are tuple-shaped.
"""

from __future__ import annotations

import json
from typing import Any

from repro.exceptions import GraphError
from repro.graphs.labeled_graph import LabeledGraph

FORMAT_VERSION = 1


def graph_to_dict(graph: LabeledGraph) -> dict[str, Any]:
    """A JSON-compatible description of the graph (nodes, edges, layers,
    ports)."""
    return {
        "format": FORMAT_VERSION,
        "nodes": [_encode(v) for v in graph.nodes],
        "edges": [[_encode(u), _encode(v)] for u, v in graph.edges()],
        # Layers are an ordered *list* of [name, mapping] pairs: layer
        # order is semantic (it defines the composed label) and JSON
        # object key order is not reliable under re-serialization.
        "layers": [
            [
                name,
                {
                    json.dumps(_encode(v)): _encode(graph.label_of(v, name))
                    for v in graph.nodes
                },
            ]
            for name in graph.layer_names
        ],
        "ports": {
            json.dumps(_encode(v)): [_encode(u) for u in graph.ports(v)]
            for v in graph.nodes
        },
    }


def graph_from_dict(data: dict[str, Any]) -> LabeledGraph:
    """Rebuild a graph from :func:`graph_to_dict` output."""
    if data.get("format") != FORMAT_VERSION:
        raise GraphError(
            f"unsupported graph format {data.get('format')!r}; expected {FORMAT_VERSION}"
        )
    nodes = [_decode(v) for v in data["nodes"]]
    edges = [(_decode(u), _decode(v)) for u, v in data["edges"]]
    layers = {
        name: {
            _decode(json.loads(key)): _decode(value)
            for key, value in mapping.items()
        }
        for name, mapping in data["layers"]
    }
    ports = {
        _decode(json.loads(key)): [_decode(u) for u in order]
        for key, order in data["ports"].items()
    }
    return LabeledGraph(edges, nodes=nodes, layers=layers, ports=ports)


def _encode(value: Any) -> Any:
    """Tuples become tagged lists so they survive the JSON round trip."""
    if isinstance(value, tuple):
        return {"__tuple__": [_encode(item) for item in value]}
    if isinstance(value, list):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {"__dict__": [[_encode(k), _encode(v)] for k, v in value.items()]}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise GraphError(f"value {value!r} of type {type(value).__name__} is not serializable")


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if "__tuple__" in value:
            return tuple(_decode(item) for item in value["__tuple__"])
        if "__dict__" in value:
            return {_decode(k): _decode(v) for k, v in value["__dict__"]}
        raise GraphError(f"unrecognized encoded object {value!r}")
    if isinstance(value, list):
        return [_decode(item) for item in value]
    return value
