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
Experiments register on the first registry query
(:func:`~repro.experiments.base.load_experiments`), so importing this
package loads none of them.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.experiments.base import (
        ExperimentResult,
        ExperimentSpec,
        all_experiment_ids,
        all_families,
        all_specs,
        get_experiment,
        get_spec,
    )
    from repro.experiments.fingerprint import code_fingerprint
    from repro.experiments.runner import (
        RunReport,
        derive_seed,
        run_experiments,
        write_results_json,
    )

_EXPORTS = {
    "ExperimentResult": "repro.experiments.base",
    "ExperimentSpec": "repro.experiments.base",
    "all_experiment_ids": "repro.experiments.base",
    "all_families": "repro.experiments.base",
    "all_specs": "repro.experiments.base",
    "get_experiment": "repro.experiments.base",
    "get_spec": "repro.experiments.base",
    "code_fingerprint": "repro.experiments.fingerprint",
    "RunReport": "repro.experiments.runner",
    "derive_seed": "repro.experiments.runner",
    "run_experiments": "repro.experiments.runner",
    "write_results_json": "repro.experiments.runner",
}

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

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
