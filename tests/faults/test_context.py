"""Tests for ambient injection (``repro.faults.context``).

The wiring under test: while an ``inject_faults`` block is active,
every ``execute()`` call gets wrapped decorators, a child trace, and a
``faults_injected`` metric — and outside the block (or under an empty
plan) the engine behaves exactly as if the fault package did not exist.
"""

from __future__ import annotations

from repro.faults import ActiveInjection, FaultPlan, inject_faults
from repro.graphs.builders import cycle_graph, with_uniform_input
from repro.runtime.algorithm import FunctionAlgorithm
from repro.runtime.engine import ambient_context_active, execute
from tests.runtime.test_ambient_contexts import AmbientContextContract


def counter(stop_at: int):
    return FunctionAlgorithm(
        init=lambda label, deg: 0,
        msg=lambda s: s,
        step=lambda s, received, b: s + 1,
        out=lambda s: s if s >= stop_at else None,
        bits_per_round=0,
        name="counter",
    )


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


GRAPH = with_uniform_input(cycle_graph(6))


class TestAmbientContext(AmbientContextContract):
    block = staticmethod(inject_faults)
    plan = staticmethod(lambda seed: FaultPlan(plan_seed=seed, drop_rate=0.5))
    moved = staticmethod(lambda injection: len(injection.trace))

    def test_execute_inside_block_is_wrapped(self):
        with inject_faults(FaultPlan(plan_seed=3, drop_rate=1.0)) as injection:
            result = execute(tally(2), GRAPH, max_rounds=2)
        assert all(log == (0, 0) for log in result.outputs.values())
        assert len(injection.trace) > 0
        assert result.metrics.faults_injected == len(injection.trace)

    def test_empty_plan_is_transparent_but_still_wraps(self, monkeypatch):
        wraps = []
        real_wrap = ActiveInjection.wrap

        def counting_wrap(self, *args):
            wraps.append(self)
            return real_wrap(self, *args)

        monkeypatch.setattr(ActiveInjection, "wrap", counting_wrap)
        bare = execute(tally(3), GRAPH, max_rounds=3)
        with inject_faults(FaultPlan()) as injection:
            wrapped = execute(tally(3), GRAPH, max_rounds=3)
        assert bare.outputs == wrapped.outputs
        assert wraps == [injection]  # it did wrap
        assert len(injection.trace) == 0
        assert wrapped.metrics.faults_injected == 0

    def test_block_accumulates_across_executions(self):
        plan = FaultPlan(plan_seed=3, drop_rate=0.5)
        with inject_faults(plan) as injection:
            first = execute(tally(3), GRAPH, max_rounds=3)
            second = execute(tally(3), GRAPH, max_rounds=3)
        assert first.metrics.faults_injected == second.metrics.faults_injected > 0
        assert (
            len(injection.trace)
            == first.metrics.faults_injected + second.metrics.faults_injected
        )
        # Same plan, same graph, same round numbers -> identical faults.
        assert first.outputs == second.outputs

    def test_last_execution_trace(self):
        """The last execution's own trace is what its result reports."""
        with inject_faults(FaultPlan(plan_seed=3, drop_rate=1.0)) as injection:
            execute(tally(1), GRAPH, max_rounds=1)
            last = execute(tally(1), GRAPH, max_rounds=1)
        assert last.metrics.faults_injected == GRAPH.num_nodes * 2
        assert len(injection.trace) == 2 * GRAPH.num_nodes * 2


class TestActiveInjectionWrap:
    """One faulty run: an ``inject_faults`` block around one ``execute``."""

    def test_injection_trace_bundles_with_the_result(self):
        plan = FaultPlan(plan_seed=9, drop_rate=1.0)
        with inject_faults(plan) as injection:
            result = execute(tally(2), GRAPH, max_rounds=2)
        assert injection.plan == plan
        assert result.all_decided
        assert result.metrics.faults_injected == len(injection.trace)
        assert injection.trace.counts()["drop"] == GRAPH.num_nodes * 2 * 2

    def test_block_restores_the_outer_context(self):
        assert not ambient_context_active()
        with inject_faults(FaultPlan()):
            execute(counter(1), GRAPH, max_rounds=1)
        assert not ambient_context_active()

    def test_metrics_without_context_report_zero_faults(self):
        result = execute(counter(2), GRAPH, max_rounds=2)
        assert result.metrics.faults_injected == 0
