"""Canonical byte encoders, one per artifact kind.

Every payload is one canonical JSON line (sorted keys, no whitespace,
UTF-8) so equality of artifacts is byte equality of payloads — the same
property the A* total order and the golden differential suite rest on.
Lint rule ``WALL001`` covers this module: integer and string arithmetic
only, no clocks, no floats, no true division.

View trees are hash-consed DAGs whose expanded size is exponential, so
the tree encoders serialize the *DAG*: a pool of ``[mark, [child pool
indices]]`` entries in first-completed postorder (children always
precede parents) plus root indices.  Decoding rebuilds bottom-up through
:meth:`ViewTree.make`, which re-interns — so decode∘encode is the
identity on payload bytes, the property ``verify`` checks.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable

from repro.exceptions import ArtifactError
from repro.factor.factorizing_map import FactorizingMap
from repro.factor.quotient import QuotientResult
from repro.graphs.io import _decode, _encode, graph_from_dict, graph_to_dict
from repro.graphs.labeled_graph import Node, sorted_nodes
from repro.views.refinement import RefinementResult
from repro.views.view_tree import ViewTree

__all__ = [
    "ArtifactEncoder",
    "PAYLOAD_FORMAT",
    "canonical_bytes",
    "encoder_for",
]

PAYLOAD_FORMAT = 1


def canonical_bytes(record: "dict[str, Any]") -> bytes:
    """One canonical JSON line, encoded — the only byte producer here."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _record_of(payload: bytes, kind: str) -> "dict[str, Any]":
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ArtifactError(f"undecodable {kind} payload: {exc}") from None
    if not isinstance(record, dict) or record.get("kind") != kind:
        raise ArtifactError(
            f"payload is not a {kind!r} record: kind={record.get('kind')!r}"
            if isinstance(record, dict)
            else "payload is not a record object"
        )
    if record.get("format") != PAYLOAD_FORMAT:
        raise ArtifactError(
            f"unsupported {kind} payload format {record.get('format')!r}; "
            f"expected {PAYLOAD_FORMAT}"
        )
    return record


# -- view tree DAG pools -------------------------------------------------


def _pool_of(roots: "Sequence[ViewTree]") -> "tuple[list[list[Any]], list[int]]":
    """Serialize interned trees as a shared pool.

    Entries are ``[encoded mark, [child indices]]`` with every child
    index smaller than its parent's (postorder).  Interning makes the
    pool duplicate-free, and the traversal order is a pure function of
    the root sequence and the canonical child order — so re-encoding a
    decoded payload reproduces the pool exactly.
    """
    index: "dict[int, int]" = {}
    pool: "list[list[Any]]" = []
    for root in roots:
        stack: "list[tuple[ViewTree, bool]]" = [(root, False)]
        while stack:
            tree, ready = stack.pop()
            if id(tree) in index:
                continue
            if ready:
                entry = [_encode(tree.mark), [index[id(child)] for child in tree.children]]
                index[id(tree)] = len(pool)
                pool.append(entry)
            else:
                stack.append((tree, True))
                for child in reversed(tree.children):
                    if id(child) not in index:
                        stack.append((child, False))
    return pool, [index[id(root)] for root in roots]


def _trees_of(pool: "Sequence[Sequence[Any]]") -> "list[ViewTree]":
    """Rebuild (and re-intern) the pool bottom-up."""
    trees: "list[ViewTree]" = []
    for position, entry in enumerate(pool):
        try:
            mark_encoded, child_indices = entry
            children = [trees[child] for child in child_indices]
        except (ValueError, TypeError, IndexError) as exc:
            raise ArtifactError(f"malformed view pool entry {position}: {exc}") from None
        trees.append(ViewTree.make(_decode(mark_encoded), children))
    return trees


# -- kind encoders ------------------------------------------------------


def _encode_node_views(views: "Mapping[Node, ViewTree]", kind: str) -> bytes:
    nodes = sorted_nodes(views)
    pool, roots = _pool_of([views[v] for v in nodes])
    return canonical_bytes(
        {
            "format": PAYLOAD_FORMAT,
            "kind": kind,
            "nodes": [_encode(v) for v in nodes],
            "pool": pool,
            "roots": roots,
        }
    )


def _decode_node_views(payload: bytes, kind: str) -> "dict[Node, ViewTree]":
    record = _record_of(payload, kind)
    trees = _trees_of(record["pool"])
    return {
        _decode(node): trees[root]
        for node, root in zip(record["nodes"], record["roots"])
    }


def encode_views(views: "Mapping[Node, ViewTree]") -> bytes:
    return _encode_node_views(views, "views")


def decode_views(payload: bytes) -> "dict[Node, ViewTree]":
    return _decode_node_views(payload, "views")


def encode_dynamic_views(views: "Mapping[Node, ViewTree]") -> bytes:
    """Churn-replayed view maps share the per-node DAG-pool layout of
    plain ``views`` payloads; only the kind tag differs (their specs —
    and so their addresses — embed the delta log, see
    :func:`repro.artifacts.specs.dynamic_views_spec`)."""
    return _encode_node_views(views, "dynamic-views")


def decode_dynamic_views(payload: bytes) -> "dict[Node, ViewTree]":
    return _decode_node_views(payload, "dynamic-views")


def encode_refinement(result: RefinementResult) -> bytes:
    nodes = sorted_nodes(result.classes)
    return canonical_bytes(
        {
            "format": PAYLOAD_FORMAT,
            "kind": "refinement",
            "nodes": [_encode(v) for v in nodes],
            "colors": [result.classes[v] for v in nodes],
            "rounds": result.rounds_to_stable,
            "history": list(result.history),
            "stable": result.stable,
        }
    )


def decode_refinement(payload: bytes) -> RefinementResult:
    record = _record_of(payload, "refinement")
    classes = dict(
        zip((_decode(v) for v in record["nodes"]), record["colors"])
    )
    return RefinementResult(
        classes=MappingProxyType(classes),
        rounds_to_stable=record["rounds"],
        history=tuple(record["history"]),
        stable=record["stable"],
    )


def encode_quotient(result: QuotientResult) -> bytes:
    source = result.map.product
    mapping = result.map.as_dict()
    record: "dict[str, Any]" = {
        "format": PAYLOAD_FORMAT,
        "kind": "quotient",
        "source": graph_to_dict(source),
        "graph": graph_to_dict(result.graph),
        "map": [[_encode(v), mapping[v]] for v in source.nodes],
        "views": None,
    }
    if result.views is not None:
        # Quotient nodes are 0..k-1, so the roots list is positional.
        pool, roots = _pool_of([result.views[c] for c in range(len(result.views))])
        record["views"] = {"pool": pool, "roots": roots}
    return canonical_bytes(record)


def decode_quotient(payload: bytes) -> QuotientResult:
    record = _record_of(payload, "quotient")
    source = graph_from_dict(record["source"])
    quotient = graph_from_dict(record["graph"])
    mapping = {_decode(v): c for v, c in record["map"]}
    # FactorizingMap re-verifies the three factor properties on decode,
    # so a tampered payload cannot produce an invalid quotient object.
    factorizing = FactorizingMap(source, quotient, mapping)
    views: "dict[int, ViewTree] | None" = None
    if record["views"] is not None:
        trees = _trees_of(record["views"]["pool"])
        views = {c: trees[root] for c, root in enumerate(record["views"]["roots"])}
    return QuotientResult(graph=quotient, map=factorizing, views=views)


# -- registry -----------------------------------------------------------


@dataclass(frozen=True)
class ArtifactEncoder:
    """One kind's codec: ``encode(live) -> bytes``, ``decode(bytes) ->
    live`` with decode∘encode byte-identity."""

    kind: str
    encode: "Callable[[Any], bytes]"
    decode: "Callable[[bytes], Any]"


_ENCODERS: "dict[str, ArtifactEncoder]" = {}


def register_encoder(encoder: ArtifactEncoder) -> None:
    if encoder.kind in _ENCODERS:
        raise ArtifactError(f"artifact kind {encoder.kind!r} already registered")
    _ENCODERS[encoder.kind] = encoder


def encoder_for(kind: str) -> ArtifactEncoder:
    try:
        return _ENCODERS[kind]
    except KeyError:
        raise ArtifactError(
            f"unknown artifact kind {kind!r}; known: {', '.join(sorted(_ENCODERS))}"
        ) from None


register_encoder(ArtifactEncoder("views", encode_views, decode_views))
register_encoder(
    ArtifactEncoder("dynamic-views", encode_dynamic_views, decode_dynamic_views)
)
register_encoder(ArtifactEncoder("refinement", encode_refinement, decode_refinement))
register_encoder(ArtifactEncoder("quotient", encode_quotient, decode_quotient))
