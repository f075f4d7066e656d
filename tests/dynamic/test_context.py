"""Tests for ambient churn (``repro.dynamic.context``): the ambient
context wiring, zero-churn transparency, replay determinism, and
composition with the fault layer."""

from __future__ import annotations

from repro.dynamic import ChurnPlan, TopologyHook, apply_churn
from repro.dynamic.delta import ChurnSchedule
from repro.faults import FaultPlan, inject_faults
from repro.graphs.builders import cycle_graph, with_uniform_input
from repro.runtime.algorithm import FunctionAlgorithm
from repro.runtime.engine import (
    BroadcastDelivery,
    ExecutionEngine,
    ambient_context_active,
    execute,
)
from repro.runtime.tape import FixedTape
from tests.runtime.test_ambient_contexts import AmbientContextContract


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


def hooked_run(stop_at: int, hook: TopologyHook):
    """``execute(tally(stop_at), GRAPH, max_rounds=stop_at)`` with ``hook``
    attached to the engine."""
    tapes = {v: FixedTape("") for v in GRAPH.nodes}
    engine = ExecutionEngine(tally(stop_at), GRAPH, tapes, BroadcastDelivery(), hooks=[hook])
    return engine.run(max_rounds=stop_at)
CHURNY = ChurnPlan(plan_seed=5, insert_rate=0.3, delete_rate=0.3)


class TestAmbientContext(AmbientContextContract):
    block = staticmethod(apply_churn)
    plan = staticmethod(lambda seed: ChurnPlan(plan_seed=seed, insert_rate=0.3, delete_rate=0.3))
    moved = staticmethod(lambda churn: churn.deltas_applied)

    def test_empty_plan_is_transparent_but_still_hooks(self):
        bare = execute(tally(4), GRAPH, max_rounds=4)
        with apply_churn(ChurnPlan()) as churn:
            assert churn.last_execution_log is None
            hooked = execute(tally(4), GRAPH, max_rounds=4)
        assert bare.outputs == hooked.outputs
        assert churn.last_execution_log == ()  # the hook did ride along
        assert churn.deltas_applied == 0

    def test_churn_changes_delivery_and_replays_identically(self):
        bare = execute(tally(5), GRAPH, max_rounds=5)
        with apply_churn(CHURNY) as churn:
            first = execute(tally(5), GRAPH, max_rounds=5)
            first_log = churn.last_execution_log
            second = execute(tally(5), GRAPH, max_rounds=5)
        assert churn.deltas_applied == 2 * len(first_log) > 0
        assert churn.last_execution_log == first_log
        assert first.outputs == second.outputs
        assert first.outputs != bare.outputs

    def test_composes_with_fault_injection(self):
        with inject_faults(FaultPlan(plan_seed=1, drop_rate=0.5)) as injection:
            with apply_churn(CHURNY) as churn:
                result = execute(tally(5), GRAPH, max_rounds=5)
        assert churn.deltas_applied > 0
        assert result.metrics.faults_injected > 0
        assert result.metrics.faults_injected == len(injection.trace)
        assert not ambient_context_active()


class TestTopologyHook:
    def test_hook_swaps_the_engine_graph_between_rounds(self):
        hook = TopologyHook(ChurnSchedule(CHURNY))
        hooked_run(5, hook)
        assert hook.dynamic is not None
        assert len(hook.log) > 0
        assert hook.dynamic.base is GRAPH
        assert hook.dynamic.graph.nodes == GRAPH.nodes

    def test_states_and_outputs_survive_the_swap(self):
        hook = TopologyHook(ChurnSchedule(CHURNY))
        result = hooked_run(5, hook)
        assert result.all_decided
        # Round 1 predates any churn: every ledger starts with degree 2.
        assert all(log[0] == 2 for log in result.outputs.values())

    def test_empty_schedule_hook_is_inert(self):
        hook = TopologyHook(ChurnSchedule(ChurnPlan()))
        bare = execute(tally(3), GRAPH, max_rounds=3)
        hooked = hooked_run(3, hook)
        assert hooked.outputs == bare.outputs
        assert hook.log == ()
