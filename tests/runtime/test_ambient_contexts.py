"""Tests for the engine's one ambient stack (``repro.runtime.engine``).

``inject_faults`` and ``apply_churn`` both push a context onto it; every
``execute()`` call is wrapped by the innermost active context of each
kind, kinds in nesting order.  :class:`AmbientContextContract` checks the
wiring by behaviour (which block's fault trace or delta count moves) and
runs once per kind from the faults and dynamic test packages.
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.dynamic import ChurnPlan, apply_churn
from repro.faults import FaultPlan, inject_faults
from repro.graphs.builders import cycle_graph, with_uniform_input
from repro.runtime.algorithm import FunctionAlgorithm
from repro.runtime.engine import ambient_context, ambient_context_active, execute


def tally(stop_at: int):
    """Decides after ``stop_at`` rounds with the per-round inbox sizes."""
    return FunctionAlgorithm(
        init=lambda label, deg: ((), 0),
        msg=lambda s: s[1],
        step=lambda s, received, b: (s[0] + (len(received),), s[1] + 1),
        out=lambda s: s[0] if s[1] >= stop_at else None,
        bits_per_round=0,
        name="tally",
    )


GRAPH = with_uniform_input(cycle_graph(8))


def run():
    return execute(tally(5), GRAPH, max_rounds=5)


class AmbientContextContract:
    """The ambient-stack tests every kind must pass, written once.

    ``TestAmbientContext`` in ``tests/faults/test_context.py`` and in
    ``tests/dynamic/test_context.py`` run them for ``inject_faults`` and
    ``apply_churn``: a subclass names the ``block``, a noisy ``plan``
    for a seed, and how much a context has ``moved`` (its fault-trace
    length or its delta count).
    """

    block: Any
    plan: Any
    moved: Any

    def test_no_context_by_default(self):
        assert not ambient_context_active()
        with self.block(self.plan(1)) as context:
            pass
        run()  # outside the block: nothing wraps it
        assert self.moved(context) == 0

    def test_context_is_active_inside_the_block(self):
        with self.block(self.plan(1)) as context:
            assert ambient_context_active()
            run()
        assert self.moved(context) > 0
        assert not ambient_context_active()

    def test_contexts_nest_innermost_wins(self):
        with self.block(self.plan(1)) as outer:
            with self.block(self.plan(2)) as inner:
                run()
            assert self.moved(outer) == 0 < self.moved(inner)
            inner_count = self.moved(inner)
            run()
        assert self.moved(inner) == inner_count
        assert self.moved(outer) > 0

    def test_context_is_released_on_error(self):
        with pytest.raises(RuntimeError):
            with self.block(self.plan(1)):
                raise RuntimeError("boom")
        assert not ambient_context_active()


class TestComposition:
    FAULTS = FaultPlan(plan_seed=1, drop_rate=0.5)
    CHURN = ChurnPlan(plan_seed=5, insert_rate=0.3, delete_rate=0.3)

    def test_faults_and_churn_nest_in_either_order(self):
        with inject_faults(self.FAULTS) as injection:
            with apply_churn(self.CHURN) as churn:
                faults_outside = run()
        with apply_churn(self.CHURN) as churn_outside:
            with inject_faults(self.FAULTS):
                churn_outside_run = run()
        assert churn.deltas_applied > 0
        assert faults_outside.metrics.faults_injected == len(injection.trace) > 0
        assert churn_outside_run.outputs == faults_outside.outputs
        assert churn_outside.deltas_applied == churn.deltas_applied
        assert (
            churn_outside_run.metrics.faults_injected
            == faults_outside.metrics.faults_injected
        )
        assert not ambient_context_active()

    def test_wrap_order_is_nesting_order_innermost_of_each_kind(self):
        wrapped = []

        class Recorder:
            def __init__(self, name):
                self.name = name

            def wrap(self, delivery, tapes, graph, hooks):
                wrapped.append(self.name)
                return delivery, tapes, hooks

        class Other(Recorder):
            pass

        with ambient_context(Recorder("outer")):
            with ambient_context(Other("other")):
                with ambient_context(Recorder("inner")):
                    run()
                run()
        assert wrapped == ["other", "inner", "outer", "other"]
