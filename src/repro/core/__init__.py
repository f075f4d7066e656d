"""★ The paper's contribution: derandomization via 2-hop coloring.

* :mod:`repro.core.orders` — the predetermined total orders (on views,
  bit assignments, and finite view graphs) that let all nodes agree on
  one simulation without communication (Lemma 1).
* :mod:`repro.core.assignment_search` — smallest-successful-assignment
  search in the assignment order (Section 2.2 / Update-Bits).
* :mod:`repro.core.infinity` — A_∞ (Theorem 2), exact on finite graphs
  via the finite view graph.
* :mod:`repro.core.candidates` + :mod:`repro.core.a_star` — the faithful
  A_* of Figure 3 (Update-Graph / Update-Output / Update-Bits phases).
* :mod:`repro.core.practical` — the Lemma-7 shortcut derandomizer that
  skips candidate enumeration but keeps per-node view-only quotient
  reconstruction, and the solve-on-quotient core it shares with A_∞.
* :mod:`repro.core.derandomize` — the end-to-end pipeline of the paper's
  headline: a generic randomized 2-hop coloring stage followed by a
  problem-specific deterministic stage.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.orders import (
        assignment_sort_key,
        finite_view_graph_sort_key,
        canonical_node_order,
    )
    from repro.core.assignment_search import (
        SearchBudgetExceeded,
        enumerate_extensions,
        smallest_successful_assignment,
        smallest_successful_extension,
    )
    from repro.core.infinity import AInfinitySolver, DerandomizationResult
    from repro.core.candidates import Candidate, enumerate_candidates
    from repro.core.a_star import AStarSolver, AStarDiagnostics
    from repro.core.practical import PracticalDerandomizer, quotient_from_view
    from repro.core.derandomize import PipelineResult, derandomize_pipeline
    from repro.core.verification import (
        CheckOutcome,
        ConformanceReport,
        check_gran_bundle,
    )

_EXPORTS = {
    "assignment_sort_key": "repro.core.orders",
    "finite_view_graph_sort_key": "repro.core.orders",
    "canonical_node_order": "repro.core.orders",
    "SearchBudgetExceeded": "repro.core.assignment_search",
    "enumerate_extensions": "repro.core.assignment_search",
    "smallest_successful_assignment": "repro.core.assignment_search",
    "smallest_successful_extension": "repro.core.assignment_search",
    "AInfinitySolver": "repro.core.infinity",
    "DerandomizationResult": "repro.core.infinity",
    "Candidate": "repro.core.candidates",
    "enumerate_candidates": "repro.core.candidates",
    "AStarSolver": "repro.core.a_star",
    "AStarDiagnostics": "repro.core.a_star",
    "PracticalDerandomizer": "repro.core.practical",
    "quotient_from_view": "repro.core.practical",
    "PipelineResult": "repro.core.derandomize",
    "derandomize_pipeline": "repro.core.derandomize",
    "CheckOutcome": "repro.core.verification",
    "ConformanceReport": "repro.core.verification",
    "check_gran_bundle": "repro.core.verification",
}

__all__ = [
    "assignment_sort_key",
    "finite_view_graph_sort_key",
    "canonical_node_order",
    "SearchBudgetExceeded",
    "enumerate_extensions",
    "smallest_successful_assignment",
    "smallest_successful_extension",
    "AInfinitySolver",
    "DerandomizationResult",
    "Candidate",
    "enumerate_candidates",
    "AStarSolver",
    "AStarDiagnostics",
    "PracticalDerandomizer",
    "quotient_from_view",
    "PipelineResult",
    "derandomize_pipeline",
    "CheckOutcome",
    "ConformanceReport",
    "check_gran_bundle",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
