"""Analysis & experiment harness: run statistics, symmetry diagnostics,
and the graph-family sweep helpers that drive the benchmark suite."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.stats import RunStats, aggregate
    from repro.analysis.symmetry import (
        election_is_deterministically_impossible,
        view_class_profile,
    )
    from repro.analysis.sweeps import (
        SweepRow,
        format_table,
        standard_families,
    )
    from repro.analysis.khop_boundary import (
        KHopViolation,
        lifted_khop_violation,
        uniform_cycle_cover,
    )
    from repro.analysis.probability import SuccessCurve, measure_success_curve

_EXPORTS = {
    "RunStats": "repro.analysis.stats",
    "aggregate": "repro.analysis.stats",
    "election_is_deterministically_impossible": "repro.analysis.symmetry",
    "view_class_profile": "repro.analysis.symmetry",
    "SweepRow": "repro.analysis.sweeps",
    "format_table": "repro.analysis.sweeps",
    "standard_families": "repro.analysis.sweeps",
    "KHopViolation": "repro.analysis.khop_boundary",
    "lifted_khop_violation": "repro.analysis.khop_boundary",
    "uniform_cycle_cover": "repro.analysis.khop_boundary",
    "SuccessCurve": "repro.analysis.probability",
    "measure_success_curve": "repro.analysis.probability",
}

__all__ = [
    "KHopViolation",
    "lifted_khop_violation",
    "uniform_cycle_cover",
    "SuccessCurve",
    "measure_success_curve",
    "RunStats",
    "aggregate",
    "election_is_deterministically_impossible",
    "view_class_profile",
    "SweepRow",
    "format_table",
    "standard_families",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
