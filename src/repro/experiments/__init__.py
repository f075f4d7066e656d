"""Executable experiments — every paper artifact as a library call.

Each experiment regenerates one artifact of the paper (a figure, a
theorem, a lemma, or an in-text claim) and returns an
:class:`~repro.experiments.base.ExperimentResult`: a table plus
pass/fail checks.  The CLI runs them standalone (optionally fanned out
over a process pool by :mod:`repro.experiments.runner` — output is
bit-identical for every job count):

    python -m repro.experiments --list
    python -m repro.experiments figure2 norris
    python -m repro.experiments --all --jobs 4 --json RESULTS_experiments.json

Every experiment function is deterministic (seeds are fixed inside).
"""

from repro.experiments.base import (
    ExperimentResult,
    ExperimentSpec,
    all_experiment_ids,
    all_families,
    all_specs,
    get_experiment,
    get_spec,
)
from repro.experiments import (  # noqa: F401  (registration)
    boundaries,
    costs,
    dynamic,
    figures,
    lemmas,
    resilience,
    theorems,
)
from repro.experiments.fingerprint import code_fingerprint
from repro.experiments.runner import (
    RunReport,
    derive_seed,
    run_experiments,
    write_results_json,
)

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "RunReport",
    "all_experiment_ids",
    "all_families",
    "all_specs",
    "code_fingerprint",
    "derive_seed",
    "get_experiment",
    "get_spec",
    "run_experiments",
    "write_results_json",
]
