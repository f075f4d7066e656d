"""Factor/product graphs and the lifting machinery (paper §2.3.1, §4).

``G' ⪯_f G`` — *G' is a factor of G*, *G is a product of G'* — when
``f : V -> V'`` is surjective, label-preserving and a local isomorphism.
This package provides the map objects and their verification
(:mod:`repro.factor.factorizing_map`), the view quotient ``G_∞`` / finite
view graph ``G_*`` (:mod:`repro.factor.quotient`), primality and factor
enumeration (:mod:`repro.factor.prime`), the lifting lemma for
executions (:mod:`repro.factor.lifting`), and the Section-4 bridge to
Boldi-Vigna fibrations (:mod:`repro.factor.fibrations`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.factor.factorizing_map import FactorizingMap
    from repro.factor.quotient import QuotientResult, finite_view_graph, infinite_view_graph
    from repro.factor.prime import (
        all_factors,
        is_prime,
        prime_factors,
    )
    from repro.factor.lifting import (
        lift_assignment,
        project_outputs,
        verify_execution_lifting,
    )
    from repro.factor.fibrations import (
        DirectedRepresentation,
        coloring_respects_symmetry,
        directed_representation,
        fibration_to_factorizing_map,
        is_deterministic_coloring,
        is_fibration,
        is_symmetric_representation,
    )

_EXPORTS = {
    "FactorizingMap": "repro.factor.factorizing_map",
    "QuotientResult": "repro.factor.quotient",
    "finite_view_graph": "repro.factor.quotient",
    "infinite_view_graph": "repro.factor.quotient",
    "all_factors": "repro.factor.prime",
    "is_prime": "repro.factor.prime",
    "prime_factors": "repro.factor.prime",
    "lift_assignment": "repro.factor.lifting",
    "project_outputs": "repro.factor.lifting",
    "verify_execution_lifting": "repro.factor.lifting",
    "DirectedRepresentation": "repro.factor.fibrations",
    "coloring_respects_symmetry": "repro.factor.fibrations",
    "directed_representation": "repro.factor.fibrations",
    "fibration_to_factorizing_map": "repro.factor.fibrations",
    "is_deterministic_coloring": "repro.factor.fibrations",
    "is_fibration": "repro.factor.fibrations",
    "is_symmetric_representation": "repro.factor.fibrations",
}

__all__ = [
    "FactorizingMap",
    "QuotientResult",
    "finite_view_graph",
    "infinite_view_graph",
    "all_factors",
    "is_prime",
    "prime_factors",
    "lift_assignment",
    "project_outputs",
    "verify_execution_lifting",
    "DirectedRepresentation",
    "coloring_respects_symmetry",
    "directed_representation",
    "fibration_to_factorizing_map",
    "is_deterministic_coloring",
    "is_fibration",
    "is_symmetric_representation",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
