"""The lifting lemma (Angluin; Boldi-Vigna) made executable.

If ``G' ⪯_f G`` and an anonymous algorithm runs on the factor ``G'`` with
bit assignment ``b'``, then running it on the product ``G`` with the
*lifted* assignment ``b(v) = b'(f(v))`` produces, at every ``v``, exactly
the state/message/output that ``f(v)`` produces on ``G'`` — the two
executions are indistinguishable through ``f``.  This holds because our
algorithms are port-oblivious broadcast machines (see
:mod:`repro.runtime`): the received multiset at ``v`` maps bijectively
onto the received multiset at ``f(v)`` via the local isomorphism.

This is the engine of the paper's correctness arguments: A_∞/A_* select
a simulation on the quotient and the lifting lemma turns it into a legal
execution on the real input (Sections 2.3.2, 3.2), and the same lemma
yields the classic leader-election impossibility (every deterministic
execution on a product is forced to be ``f``-symmetric).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping
from typing import Any

from repro.exceptions import SimulationError
from repro.factor.factorizing_map import FactorizingMap
from repro.graphs.labeled_graph import Node
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.runtime.engine import ExecutionResult, execute


def lift_assignment(
    factor_assignment: Mapping[Node, str], factorizing_map: FactorizingMap
) -> dict[Node, str]:
    """Lift a bit assignment on the factor to the product: ``b(v) = b'(f(v))``."""
    missing = [
        t for t in factorizing_map.factor.nodes if t not in factor_assignment
    ]
    if missing:
        raise SimulationError(
            f"assignment does not cover factor nodes {missing!r}"
        )
    return {
        v: factor_assignment[factorizing_map(v)]
        for v in factorizing_map.product.nodes
    }


def project_outputs(
    product_outputs: Mapping[Node, Any], factorizing_map: FactorizingMap
) -> dict[Node, Any]:
    """Project product outputs onto the factor, requiring fiber-consistency.

    Raises :class:`SimulationError` if two nodes of one fiber disagree —
    which the lifting lemma says cannot happen for a lifted execution.
    """
    projected: dict[Node, Any] = {}
    for v, value in product_outputs.items():
        target = factorizing_map(v)
        if target in projected and projected[target] != value:
            raise SimulationError(
                f"fiber of {target!r} disagrees: {projected[target]!r} vs {value!r}"
            )
        projected[target] = value
    return projected


@dataclass
class LiftingComparison:
    """Round-by-round comparison of a factor execution and its lift."""

    factor_result: ExecutionResult
    product_result: ExecutionResult
    outputs_match: bool
    messages_match: bool

    @property
    def lemma_holds(self) -> bool:
        return self.outputs_match and self.messages_match


def verify_execution_lifting(
    algorithm: AnonymousAlgorithm,
    factorizing_map: FactorizingMap,
    factor_assignment: Mapping[Node, str],
) -> LiftingComparison:
    """Run the algorithm on factor and product and check the lifting lemma.

    The factor runs with ``factor_assignment``; the product with its
    lift.  Returns a comparison recording whether every product node's
    per-round messages and final output equal those of its image.
    """
    factor_result = execute(
        algorithm, factorizing_map.factor, assignment=factor_assignment, record_trace=True
    )
    product_assignment = lift_assignment(factor_assignment, factorizing_map)
    product_result = execute(
        algorithm, factorizing_map.product, assignment=product_assignment, record_trace=True
    )

    outputs_match = True
    for v in factorizing_map.product.nodes:
        image = factorizing_map(v)
        if product_result.outputs.get(v) != factor_result.outputs.get(image):
            outputs_match = False
            break

    messages_match = True
    assert factor_result.trace is not None and product_result.trace is not None
    for v in factorizing_map.product.nodes:
        image = factorizing_map(v)
        if product_result.trace.messages_of(v) != factor_result.trace.messages_of(image):
            messages_match = False
            break

    return LiftingComparison(
        factor_result=factor_result,
        product_result=product_result,
        outputs_match=outputs_match,
        messages_match=messages_match,
    )
