"""The distributed-problem abstraction and the Π^c transform.

A problem Π is a set of input instances (labeled graphs ``(V, E, i)``)
plus, per instance, a set of valid output labelings.  We represent the
instance set by a membership predicate (:meth:`is_instance`) and the
valid-output sets by a checker (:meth:`is_valid_output`) — which is all
the reproduction needs: solvers produce outputs and we verify them.

The paper's standing assumption that every input label includes the
node's degree is enforced by :meth:`inputs_well_formed`, which concrete
problems call from :meth:`is_instance`.

:class:`TwoHopColoredVariant` implements Π -> Π^c exactly as defined in
Section 1.1: instances gain a 2-hop coloring layer; valid outputs are
unchanged (they are judged against the underlying instance).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping
from typing import Any

from repro.exceptions import ProblemError
from repro.graphs.coloring import is_two_hop_coloring
from repro.graphs.labeled_graph import LabeledGraph, Node

OutputLabeling = Mapping[Node, Any]


class DistributedProblem(ABC):
    """A distributed problem Π."""

    name: str = "problem"
    input_layer: str = "input"

    @abstractmethod
    def is_instance(self, graph: LabeledGraph) -> bool:
        """Whether ``graph`` is a legal input instance of Π."""

    @abstractmethod
    def is_valid_output(self, graph: LabeledGraph, outputs: OutputLabeling) -> bool:
        """Whether ``outputs`` is a valid output labeling for instance
        ``graph``.  Callers must pass a total labeling (every node)."""

    # ------------------------------------------------------------------

    def inputs_well_formed(self, graph: LabeledGraph) -> bool:
        """The paper's standing requirement: the graph carries the input
        layer and every input label is a tuple whose first component is
        the node's degree."""
        if not graph.has_layer(self.input_layer):
            return False
        for v in graph.nodes:
            label = graph.label_of(v, self.input_layer)
            if not isinstance(label, tuple) or not label:
                return False
            if label[0] != graph.degree(v):
                return False
        return True

    def require_total(self, graph: LabeledGraph, outputs: OutputLabeling) -> None:
        missing = [v for v in graph.nodes if v not in outputs]
        if missing:
            raise ProblemError(
                f"output labeling for {self.name} misses nodes {missing!r}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class TwoHopColoredVariant(DistributedProblem):
    """The 2-hop colored variant Π^c of an underlying problem Π.

    An instance is ``(V, E, i, c)`` where ``(V, E, i)`` ∈ Π and ``c`` is a
    2-hop coloring; the valid outputs for ``(V, E, i, c)`` are exactly
    Π's valid outputs for ``(V, E, i)``.
    """

    def __init__(self, base: DistributedProblem) -> None:
        self.base = base
        self.name = f"{base.name}^c"
        self.input_layer = base.input_layer

    def is_instance(self, graph: LabeledGraph) -> bool:
        if not graph.has_layer("color"):
            return False
        if not is_two_hop_coloring(graph, graph.layer("color")):
            return False
        return self.base.is_instance(self.strip(graph))

    def is_valid_output(self, graph: LabeledGraph, outputs: OutputLabeling) -> bool:
        return self.base.is_valid_output(self.strip(graph), outputs)

    def strip(self, graph: LabeledGraph) -> LabeledGraph:
        """The underlying Π instance ``(V, E, i)`` (drop the coloring)."""
        if graph.has_layer("color"):
            return graph.without_layer("color")
        return graph
