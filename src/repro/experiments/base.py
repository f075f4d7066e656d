"""Experiment infrastructure: results, registry, rendering."""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from repro.analysis.sweeps import SweepRow, format_table
from repro.exceptions import ReproError


class ExperimentCheckFailed(ReproError):
    """An experiment's assertion about the paper's claim failed."""


@dataclass
class ExperimentResult:
    """The outcome of one experiment run.

    Attributes
    ----------
    experiment_id:
        Short id (matches DESIGN.md's index, e.g. ``"F2"``/``"figure2"``).
    title:
        Table title including the paper artifact being reproduced.
    columns / rows:
        The regenerated table.
    checks:
        Named boolean checks — executable forms of the paper's claims.
        All must be ``True`` for the experiment to pass.
    preamble:
        Optional free-form text shown above the table (e.g. Figure 1's
        rendered tree).
    """

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: list[SweepRow]
    checks: dict[str, bool] = field(default_factory=dict)
    preamble: str = ""

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def require_passed(self) -> "ExperimentResult":
        failed = [name for name, ok in self.checks.items() if not ok]
        if failed:
            raise ExperimentCheckFailed(
                f"experiment {self.experiment_id} failed checks: {failed!r}"
            )
        return self

    def render(self) -> str:
        parts = []
        if self.preamble:
            parts.append(self.preamble)
        parts.append(format_table(self.title, list(self.columns), self.rows))
        checks = ", ".join(
            f"{name}={'ok' if ok else 'FAILED'}" for name, ok in self.checks.items()
        )
        if checks:
            parts.append(f"checks: {checks}")
        return "\n".join(parts)


@dataclass(frozen=True)
class ExperimentSpec:
    """A registry entry: the experiment callable plus scheduling metadata.

    ``cost`` is a relative wall-time weight (1.0 = a typical fast
    experiment); the parallel runner dispatches expensive experiments
    first so a straggler never lands last on an otherwise-drained pool.
    ``family`` groups related experiments (``"figures"``,
    ``"theorems"``, ``"resilience"``, ...); it defaults to the defining
    module's basename and is what ``--list`` and family filters key on.
    ``accepts_seed`` records whether the callable takes a ``seed``
    keyword; experiments that fix their seeds internally are simply
    called with no arguments.
    """

    experiment_id: str
    fn: Callable[..., ExperimentResult]
    cost: float = 1.0
    family: str = ""
    accepts_seed: bool = False

    def run(self, seed: int | None = None) -> ExperimentResult:
        if seed is not None and self.accepts_seed:
            return self.fn(seed=seed)
        return self.fn()


_REGISTRY: dict[str, ExperimentSpec] = {}

# The modules whose ``@experiment`` functions make up the registry, in
# registration order.  They are imported by :func:`load_experiments` on
# the first registry query, not by ``import repro.experiments``.
EXPERIMENT_MODULES = (
    "boundaries",
    "costs",
    "dynamic",
    "figures",
    "lemmas",
    "resilience",
    "theorems",
)
_LOADED = False


def load_experiments() -> None:
    """Register every experiment of :data:`EXPERIMENT_MODULES`, once.

    Every registry query calls this first, so a process that never asks
    for an experiment never imports one.  The flag is set before the
    imports so the decorators they run do not re-enter the loop; it is
    cleared again if an import fails, so the failure repeats instead of
    leaving a silently partial registry.
    """
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    try:
        for name in EXPERIMENT_MODULES:
            importlib.import_module(f"repro.experiments.{name}")
    except BaseException:
        _LOADED = False
        raise


def experiment(experiment_id: str, *, cost: float = 1.0, family: str = ""):
    """Decorator registering an experiment function under an id.

    ``cost`` is the relative wall-time weight used by the parallel
    runner's longest-first scheduler (see ``repro.experiments.runner``);
    ``family`` defaults to the defining module's basename.
    """

    def register(fn: Callable[..., ExperimentResult]):
        load_experiments()
        if experiment_id in _REGISTRY:
            raise ReproError(f"duplicate experiment id {experiment_id!r}")
        try:
            accepts_seed = "seed" in inspect.signature(fn).parameters
        except (TypeError, ValueError):
            accepts_seed = False
        _REGISTRY[experiment_id] = ExperimentSpec(
            experiment_id=experiment_id,
            fn=fn,
            cost=cost,
            family=family or fn.__module__.rsplit(".", 1)[-1],
            accepts_seed=accepts_seed,
        )
        fn.experiment_id = experiment_id  # type: ignore[attr-defined]
        return fn

    return register


def all_experiment_ids() -> list[str]:
    load_experiments()
    return sorted(_REGISTRY)


def get_spec(experiment_id: str) -> ExperimentSpec:
    load_experiments()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise ReproError(
            f"unknown experiment {experiment_id!r}; available: {all_experiment_ids()!r}"
        ) from None


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    return get_spec(experiment_id).fn


def all_specs() -> list[ExperimentSpec]:
    """Every registered experiment spec, in id order."""
    return [_REGISTRY[eid] for eid in all_experiment_ids()]


def all_families() -> list[str]:
    """Every registered experiment family, sorted."""
    load_experiments()
    return sorted({spec.family for spec in _REGISTRY.values()})
