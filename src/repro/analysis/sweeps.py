"""Sweep helpers shared by the benchmark/experiment scripts.

The benchmark suite reports its results as plain-text tables (this
reproduction's analogue of the paper's figures); :func:`format_table`
renders aligned columns and :func:`standard_families` yields the graph
families every sweep covers.

For the parallel experiment engine the same sweep is available as
*specs*: :class:`FamilySpec` is a small picklable recipe (builder name
plus arguments) that a worker process can realize locally with
:meth:`FamilySpec.build`, so fan-out ships a few bytes per task instead
of a pickled graph.  :func:`standard_families` is defined in terms of
:func:`standard_family_specs`, keeping the two views of the sweep
bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

from repro.graphs.builders import (
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    star_graph,
    torus_graph,
    with_uniform_input,
)
from repro.graphs.labeled_graph import LabeledGraph


@dataclass
class SweepRow:
    """One row of an experiment table: a label plus named values."""

    label: str
    values: dict[str, Any]


_FAMILY_BUILDERS: dict[str, Callable[..., LabeledGraph]] = {
    "cycle": cycle_graph,
    "path": path_graph,
    "complete": complete_graph,
    "star": star_graph,
    "hypercube": hypercube_graph,
    "torus": torus_graph,
    "petersen": petersen_graph,
    "random_connected": random_connected_graph,
}


@dataclass(frozen=True)
class FamilySpec:
    """A picklable recipe for one sweep instance.

    ``builder`` names an entry of the builder table (not a function
    object, so the spec pickles by value and realizes identically in
    any worker process); ``args`` are its positional arguments —
    including the seed for randomized families, so realization is
    deterministic everywhere.  ``size`` is the node count.
    """

    name: str
    builder: str
    args: tuple[Any, ...] = field(default=())
    size: int = 0

    def build(self) -> LabeledGraph:
        """Realize the graph, with the uniform well-formed input layer."""
        if self.builder not in _FAMILY_BUILDERS:
            raise KeyError(
                f"unknown family builder {self.builder!r}; "
                f"known: {sorted(_FAMILY_BUILDERS)!r}"
            )
        return with_uniform_input(_FAMILY_BUILDERS[self.builder](*self.args))


def standard_family_specs(
    sizes: Sequence[int] = (4, 6, 8, 12),
    include_random: bool = True,
    seed: int = 7,
) -> list[FamilySpec]:
    """The standard sweep as picklable specs, in sweep order."""
    specs: list[FamilySpec] = []
    for n in sizes:
        if n >= 3:
            specs.append(FamilySpec(f"cycle-{n}", "cycle", (n,), n))
        specs.append(FamilySpec(f"path-{n}", "path", (n,), n))
        specs.append(FamilySpec(f"complete-{n}", "complete", (n,), n))
        specs.append(FamilySpec(f"star-{n}", "star", (n - 1,), n))
    specs.append(FamilySpec("hypercube-3", "hypercube", (3,), 8))
    specs.append(FamilySpec("torus-3x3", "torus", (3, 3), 9))
    specs.append(FamilySpec("petersen", "petersen", (), 10))
    if include_random:
        for n in sizes:
            specs.append(
                FamilySpec(f"random-{n}", "random_connected", (n, 0.3, seed + n), n)
            )
    return specs


def standard_families(
    sizes: Sequence[int] = (4, 6, 8, 12),
    include_random: bool = True,
    seed: int = 7,
) -> Iterator[tuple[str, LabeledGraph]]:
    """Yield ``(name, graph)`` pairs covering the standard sweep families,
    each with a uniform well-formed input layer attached."""
    for spec in standard_family_specs(sizes, include_random, seed):
        yield spec.name, spec.build()


def format_table(
    title: str, columns: Sequence[str], rows: Iterable[SweepRow]
) -> str:
    """Render a titled, aligned plain-text table."""
    materialized = list(rows)
    header = ["case"] + list(columns)
    cells = [header]
    for row in materialized:
        cells.append(
            [row.label] + [_fmt(row.values.get(col, "")) for col in columns]
        )
    widths = [max(len(line[i]) for line in cells) for i in range(len(header))]
    lines = [title, "=" * len(title)]
    for index, line in enumerate(cells):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
        if index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def table_to_csv(columns: Sequence[str], rows: Iterable[SweepRow]) -> str:
    """The same table as CSV text (``case`` first), for plotting tools."""
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["case"] + list(columns))
    for row in rows:
        writer.writerow([row.label] + [_fmt(row.values.get(col, "")) for col in columns])
    return buffer.getvalue()
