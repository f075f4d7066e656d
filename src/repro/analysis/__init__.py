"""Analysis & experiment harness: run statistics, symmetry diagnostics,
and the graph-family sweep helpers that drive the benchmark suite."""

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
