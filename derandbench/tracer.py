"""Spans around the pipeline's layer calls, recorded from outside ``src/``.

:class:`Tracer` replaces public functions at the import sites the
pipeline resolves them through with wrappers that record a span (name,
start, end, parent) whenever an op's root span is open.  Spans stay in
memory until :meth:`Tracer.write`.  Untraced runs never install the
wrappers.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

# (module, attribute, span name).  An attribute of the form
# ``Class.method`` patches the method on the class.
TARGETS = (
    ("repro.core.derandomize", "execute", "engine.stage1"),
    ("repro.core.practical", "PracticalDerandomizer.solve", "practical.solve"),
    ("repro.core.practical", "all_views", "local_views.all_views"),
    ("repro.core.practical", "quotient_from_view", "practical.quotient_from_view"),
    ("repro.core.practical", "canonical_node_order", "orders.canonical_node_order"),
    ("repro.core.practical", "encode_ordered_graph", "encoding.encode_ordered_graph"),
    ("repro.core.practical", "smallest_successful_assignment", "assignment_search"),
    ("repro.core.practical", "execute", "engine.final_sim"),
    ("repro.factor.quotient", "finite_view_graph", "quotient.finite_view_graph"),
    ("repro.core.assignment_search", "execute", "engine.trial"),
)

# Problems whose ``is_valid_output`` is traced as ``problems.is_valid_output``.
PROBLEM_CLASSES = (
    ("repro.problems.mis", "MISProblem"),
    ("repro.problems.coloring", "ColoringProblem"),
    ("repro.problems.coloring", "KHopColoringProblem"),
    ("repro.problems.matching", "MaximalMatchingProblem"),
)

ROOT = "op"


class Tracer:
    """Span recorder.  ``spans[i] = [name, parent, start, end, op]``;
    ``parent`` is a span index or ``None`` for an op's root span."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._open: list[int] = []
        self._ops = 0
        self._patches: list[tuple[Any, str, Any, bool]] = []
        self.aliases = 0
        self.trial_successes = 0

    # -- recording ------------------------------------------------------

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, parent, time.perf_counter(), None, self._ops])
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def root(self, label: str) -> Iterator[None]:
        """The root span of one unit; layer spans are recorded only inside."""
        self._ops += 1
        index = self._begin(f"{ROOT}:{label}")
        try:
            yield
        finally:
            self._end(index)

    def _wrap(self, name: str, fn: Callable, on_result: Callable[[Any], None] | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer._open:
                return fn(*args, **kwargs)
            index = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(index)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_aliases(self, graph: Any) -> None:
        self.aliases += graph.num_nodes

    def _count_trial(self, result: Any) -> None:
        self.trial_successes += bool(result.successful)

    # -- installation ---------------------------------------------------

    def _patch(self, owner: Any, attr: str, name: str, on_result: Callable | None = None) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, self._wrap(name, original, on_result))

    @contextmanager
    def installed(self) -> Iterator[Tracer]:
        """Wrap every target for the duration of the block."""
        hooks = {
            "practical.quotient_from_view": self._count_aliases,
            "engine.trial": self._count_trial,
        }
        try:
            for module_name, attr, name in TARGETS:
                owner: Any = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                self._patch(owner, leaf, name, hooks.get(name))
            patched: set[type] = set()
            for module_name, class_name in PROBLEM_CLASSES:
                cls = getattr(importlib.import_module(module_name), class_name)
                # Patch the class that defines the method, once, so an
                # inherited method is not wrapped twice.
                owner = next(k for k in cls.__mro__ if "is_valid_output" in vars(k))
                if owner not in patched:
                    patched.add(owner)
                    self._patch(owner, "is_valid_output", "problems.is_valid_output")
            yield self
        finally:
            while self._patches:
                owner, attr, original, had_own = self._patches.pop()
                if had_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # -- analysis -------------------------------------------------------

    def summary(self, slowness: list[float]) -> dict[str, Any]:
        """Per-name self time and call count, root totals and trial times,
        with the durations of root span ``i`` (and of its descendants)
        divided by ``slowness[i]``.

        A span's self time is its duration minus its direct children's
        durations (spans nest strictly: one thread, no pool)."""
        duration = [(end - start) / slowness[op - 1] for _n, _p, start, end, op in self.spans]
        child_time = [0.0] * len(self.spans)
        for index, (_name, parent, *_rest) in enumerate(self.spans):
            if parent is not None:
                child_time[parent] += duration[index]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        root_s = root_self_s = 0.0
        trials = []
        for index, (name, parent, *_rest) in enumerate(self.spans):
            own = duration[index] - child_time[index]
            if parent is None:
                root_s += duration[index]
                root_self_s += own
                continue
            self_s[name] += own
            calls[name] += 1
            if name == "engine.trial":
                trials.append(duration[index])
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "root_s": root_s,
            "unattributed_s": root_self_s,
            "trial_s_p50": statistics.median(trials) if trials else 0.0,
        }

    def write(self, path: Path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][2] if self.spans else 0.0
        with path.open("w") as out:
            for index, (name, parent, start, end, op) in enumerate(self.spans):
                record = {
                    "id": index,
                    "parent": parent,
                    "op": op,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                }
                out.write(json.dumps(record) + "\n")
