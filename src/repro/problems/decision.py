"""Distributed decision problems Δ_Y (paper Section 1.1).

Given a set ``Y`` of yes-instances, the decision problem Δ_Y takes *any*
labeled graph as input; valid outputs have every node say ``"YES"`` on a
yes-instance and at least one node say ``"NO"`` otherwise.  The GRAN
definition requires a randomized anonymous algorithm for Δ_Π — deciding
instance membership of Π itself.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.graphs.labeled_graph import Node

YES = "YES"
NO = "NO"


def decision_outputs_valid(
    is_yes_instance: bool, outputs: Mapping[Node, Any]
) -> bool:
    """The Δ_Y acceptance rule applied to a total output labeling."""
    values = list(outputs.values())
    if any(value not in (YES, NO) for value in values):
        return False
    if is_yes_instance:
        return all(value == YES for value in values)
    return any(value == NO for value in values)
