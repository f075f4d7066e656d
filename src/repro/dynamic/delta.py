"""Deltas and churn plans: declarative, seeded, byte-replayable topology
changes.

A :class:`Delta` is a *pure value* describing one atomic change to a
labeled graph: an edge insert or delete, a node relabel in one layer, or
a port renumbering.  Deltas round-trip through canonical JSON (tuples
and dicts survive via the tagged encoding of :mod:`repro.graphs.io`), so
a delta log is as replayable and diffable as a fault plan.

A :class:`ChurnPlan` is the dynamic-network twin of
:class:`repro.faults.plan.FaultPlan`: a frozen value holding per-round
insert/delete/relabel rates plus a seed, with every concrete decision
derived on demand by :class:`ChurnSchedule` from a SHA-256 hash of
``(plan_seed, kind, round, coordinate)``.  Decisions are order-free —
whether attempt ``t`` of round ``r`` touches edge ``e`` depends only on
the plan and the graph state entering the round, never on evaluation
order — so the same plan replayed against the same initial graph yields
the same delta log, bit for bit, in any process.

See ``docs/DYNAMIC.md`` for the full model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.exceptions import DynamicError
from repro.graphs.io import _decode, _encode
from repro.graphs.labeled_graph import LabeledGraph
from repro.runtime.engine import KeyedSchedule, check_plan

OPS = ("add-edge", "remove-edge", "relabel", "reorder-ports")

_RATE_FIELDS = ("insert_rate", "delete_rate", "relabel_rate")


@dataclass(frozen=True)
class Delta:
    """One atomic topology/labeling change; hashable, picklable, comparable.

    Exactly the fields the op needs are set:

    * ``add-edge`` / ``remove-edge`` — ``u`` and ``v`` (unordered pair);
    * ``relabel`` — ``node``, ``layer`` and the new ``value``;
    * ``reorder-ports`` — ``node`` and ``order``, the node's neighbors
      in the new port order.
    """

    op: str
    u: Any = None
    v: Any = None
    node: Any = None
    layer: str | None = None
    value: Any = None
    order: tuple[Any, ...] | None = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise DynamicError(f"unknown delta op {self.op!r}; expected one of {OPS}")
        if self.op in ("add-edge", "remove-edge"):
            if self.u is None or self.v is None:
                raise DynamicError(f"{self.op} delta needs both endpoints u and v")
            if self.u == self.v:
                raise DynamicError(f"{self.op} delta has a loop endpoint {self.u!r}")
        elif self.op == "relabel":
            if self.node is None or self.layer is None:
                raise DynamicError("relabel delta needs a node and a layer")
        elif self.op == "reorder-ports":
            if self.node is None or self.order is None:
                raise DynamicError("reorder-ports delta needs a node and an order")
            object.__setattr__(self, "order", tuple(self.order))

    def as_dict(self) -> dict[str, Any]:
        """A canonical JSON-safe projection (op first; only the fields the
        op uses, so equal deltas serialize identically)."""
        payload: dict[str, Any] = {"op": self.op}
        if self.op in ("add-edge", "remove-edge"):
            payload["u"] = _encode(self.u)
            payload["v"] = _encode(self.v)
        elif self.op == "relabel":
            payload["node"] = _encode(self.node)
            payload["layer"] = self.layer
            payload["value"] = _encode(self.value)
        else:
            payload["node"] = _encode(self.node)
            payload["order"] = [_encode(u) for u in self.order or ()]
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Delta":
        """Inverse of :meth:`as_dict`."""
        op = payload.get("op")
        if op in ("add-edge", "remove-edge"):
            return cls(op=op, u=_decode(payload["u"]), v=_decode(payload["v"]))
        if op == "relabel":
            return cls(
                op=op,
                node=_decode(payload["node"]),
                layer=payload["layer"],
                value=_decode(payload["value"]),
            )
        if op == "reorder-ports":
            return cls(
                op=op,
                node=_decode(payload["node"]),
                order=tuple(_decode(u) for u in payload["order"]),
            )
        raise DynamicError(f"unknown delta op {op!r} in payload {payload!r}")


def add_edge(u: Any, v: Any) -> Delta:
    return Delta(op="add-edge", u=u, v=v)


def remove_edge(u: Any, v: Any) -> Delta:
    return Delta(op="remove-edge", u=u, v=v)


def relabel(node: Any, layer: str, value: Any) -> Delta:
    return Delta(op="relabel", node=node, layer=layer, value=value)


def reorder_ports(node: Any, order: Any) -> Delta:
    return Delta(op="reorder-ports", node=node, order=tuple(order))


@dataclass(frozen=True)
class ChurnPlan:
    """A declarative churn specification; hashable, picklable, comparable.

    Attributes
    ----------
    plan_seed:
        Seed mixed into every churn decision.  Plans differing only in
        the seed churn statistically independent edges.
    insert_rate / delete_rate:
        Per-round attempt budgets as a fraction of the *current* edge
        count: a round makes ``round(rate * m)`` hash-indexed attempts
        (an attempt that lands on an existing edge / a loop / a bridge
        whose removal would disconnect the graph is skipped, so realized
        churn can fall below the budget).
    relabel_rate:
        Per-round relabel budget as a fraction of the node count; each
        attempt assigns a hash-picked node a hash-picked value from
        ``relabel_values`` in layer ``relabel_layer`` (no-op picks are
        skipped).
    relabel_layer / relabel_values:
        The layer relabel attempts touch and the closed value palette
        they draw from (required whenever ``relabel_rate > 0``).
    first_round / last_round:
        The round window (1-based, inclusive) in which churn applies;
        ``last_round=None`` means unbounded.
    """

    plan_seed: int = 0
    insert_rate: float = 0.0
    delete_rate: float = 0.0
    relabel_rate: float = 0.0
    relabel_layer: str = "input"
    relabel_values: tuple[Any, ...] = ()
    first_round: int = 1
    last_round: int | None = None

    def __post_init__(self) -> None:
        check_plan(self, _RATE_FIELDS, DynamicError)
        object.__setattr__(self, "relabel_values", tuple(self.relabel_values))
        if self.relabel_rate > 0.0 and not self.relabel_values:
            raise DynamicError(
                "relabel_rate > 0 requires a nonempty relabel_values palette"
            )

    @property
    def is_empty(self) -> bool:
        """Whether this plan churns nothing at all."""
        return all(getattr(self, name) == 0.0 for name in _RATE_FIELDS)


class ChurnSchedule(KeyedSchedule):
    """Derives every concrete churn decision of a :class:`ChurnPlan`.

    Each decision uses a keyed-hash fraction
    (:class:`~repro.runtime.engine.KeyedSchedule`) to pick an edge, a
    node pair or a palette value.  Attempts are indexed, not
    scanned, so a round's batch costs ``O(attempts)`` hash calls — never
    ``O(n^2)`` candidate enumeration — and depends only on the plan and
    the graph state entering the round.
    """

    def batch(self, round_number: int, graph: LabeledGraph) -> tuple[Delta, ...]:
        """The delta batch churned between ``round_number`` and the next
        round, given the graph entering it.  Deletions come first, then
        insertions, then relabels; every delta is valid against the batch
        applied so far (no double-deletes, no disconnecting deletes, no
        duplicate inserts)."""
        if self.plan.is_empty or not self.in_window(round_number):
            return ()
        deltas: list[Delta] = []
        edges = {frozenset(edge) for edge in graph.edges()}
        nodes = graph.nodes
        num_edges = len(edges)

        deletes = round(self.plan.delete_rate * num_edges)
        if deletes:
            # graph.edges() yields sorted pairs in sorted order, so the
            # pool indexing is deterministic and instance-independent.
            pool = list(graph.edges())
            for attempt in range(deletes):
                pick = int(
                    self._fraction("delete", round_number, attempt) * len(pool)
                )
                u, v = pool[pick]
                key = frozenset((u, v))
                if key not in edges:
                    continue  # already deleted by an earlier attempt
                if not _connected_without(graph, edges, key):
                    continue  # a bridge: deleting it would disconnect
                edges.discard(key)
                deltas.append(Delta(op="remove-edge", u=u, v=v))

        inserts = round(self.plan.insert_rate * num_edges)
        for attempt in range(inserts):
            i = int(self._fraction("insert-u", round_number, attempt) * len(nodes))
            j = int(self._fraction("insert-v", round_number, attempt) * len(nodes))
            u, v = nodes[i], nodes[j]
            if u == v:
                continue
            key = frozenset((u, v))
            if key in edges:
                continue
            edges.add(key)
            deltas.append(Delta(op="add-edge", u=u, v=v))

        relabels = round(self.plan.relabel_rate * len(nodes))
        if relabels:
            palette = self.plan.relabel_values
            layer = self.plan.relabel_layer
            effective: dict[Any, Any] = {}  # batch-local label overlay
            for attempt in range(relabels):
                i = int(
                    self._fraction("relabel-node", round_number, attempt) * len(nodes)
                )
                p = int(
                    self._fraction("relabel-value", round_number, attempt)
                    * len(palette)
                )
                node, value = nodes[i], palette[p]
                current = (
                    effective[node]
                    if node in effective
                    else graph.label_of(node, layer)
                )
                if current == value:
                    continue  # a no-op relabel carries no information
                effective[node] = value
                deltas.append(
                    Delta(op="relabel", node=node, layer=layer, value=value)
                )
        return tuple(deltas)


def _connected_without(
    graph: LabeledGraph, edges: set, removed: frozenset
) -> bool:
    """Whether the graph stays connected once ``removed`` leaves the
    (batch-local) edge set — BFS over the surviving edges only."""
    survivors = edges - {removed}
    adjacency: dict[Any, list[Any]] = {v: [] for v in graph.nodes}
    for edge in survivors:
        u, v = tuple(edge)
        adjacency[u].append(v)
        adjacency[v].append(u)
    start = graph.nodes[0]
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for neighbor in adjacency[current]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == graph.num_nodes
