"""Tests for the delta value model and churn plans/schedules
(``repro.dynamic.delta``): canonical JSON round-trips, validation, and
the order-free SHA-256 decision discipline."""

from __future__ import annotations

import pytest

from repro.dynamic import (
    ChurnPlan,
    ChurnSchedule,
    Delta,
    add_edge,
    relabel,
    remove_edge,
    reorder_ports,
)
from repro.exceptions import DynamicError
from repro.graphs.builders import cycle_graph, path_graph, with_uniform_input


class TestDelta:
    def test_constructors_set_exactly_the_op_fields(self):
        assert add_edge(1, 2) == Delta(op="add-edge", u=1, v=2)
        assert remove_edge(1, 2) == Delta(op="remove-edge", u=1, v=2)
        assert relabel(3, "input", (9,)) == Delta(
            op="relabel", node=3, layer="input", value=(9,)
        )
        assert reorder_ports(0, [2, 1]) == Delta(
            op="reorder-ports", node=0, order=(2, 1)
        )

    def test_unknown_op_rejected(self):
        with pytest.raises(DynamicError, match="unknown delta op"):
            Delta(op="swap-node")

    def test_loop_edge_rejected(self):
        with pytest.raises(DynamicError, match="loop"):
            add_edge(4, 4)

    def test_missing_fields_rejected(self):
        with pytest.raises(DynamicError, match="both endpoints"):
            Delta(op="add-edge", u=1)
        with pytest.raises(DynamicError, match="node and a layer"):
            Delta(op="relabel", node=1)
        with pytest.raises(DynamicError, match="node and an order"):
            Delta(op="reorder-ports", node=1)

    @pytest.mark.parametrize(
        "delta",
        [
            add_edge(0, 5),
            remove_edge("a", "b"),
            relabel(2, "input", (3, "X")),
            reorder_ports(1, (0, 2, 3)),
        ],
    )
    def test_json_round_trip(self, delta):
        payload = delta.as_dict()
        assert Delta.from_dict(payload) == delta
        # Canonical: re-serializing the round-trip reproduces the payload.
        assert Delta.from_dict(payload).as_dict() == payload

    def test_as_dict_carries_only_the_op_fields(self):
        assert set(add_edge(0, 1).as_dict()) == {"op", "u", "v"}
        assert set(relabel(0, "input", 1).as_dict()) == {
            "op", "node", "layer", "value"
        }
        assert set(reorder_ports(0, (1,)).as_dict()) == {"op", "node", "order"}

    def test_from_dict_rejects_unknown_op(self):
        with pytest.raises(DynamicError, match="unknown delta op"):
            Delta.from_dict({"op": "merge"})

    def test_deltas_are_hashable_values(self):
        assert len({add_edge(0, 1), add_edge(0, 1), remove_edge(0, 1)}) == 2


class TestChurnPlan:
    def test_defaults_are_empty(self):
        plan = ChurnPlan()
        assert plan.is_empty
        assert ChurnSchedule(plan).batch(1, with_uniform_input(cycle_graph(4))) == ()

    @pytest.mark.parametrize("field", ["insert_rate", "delete_rate", "relabel_rate"])
    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rates_must_lie_in_unit_interval(self, field, rate):
        kwargs = {field: rate}
        if field == "relabel_rate":
            kwargs["relabel_values"] = (1,)
        with pytest.raises(DynamicError, match="must lie in"):
            ChurnPlan(**kwargs)

    def test_relabel_rate_requires_a_palette(self):
        with pytest.raises(DynamicError, match="palette"):
            ChurnPlan(relabel_rate=0.5)

    def test_round_window_validated(self):
        with pytest.raises(DynamicError, match="first_round"):
            ChurnPlan(first_round=0)
        with pytest.raises(DynamicError, match="precedes"):
            ChurnPlan(first_round=5, last_round=2)


class TestChurnSchedule:
    GRAPH = with_uniform_input(cycle_graph(10))

    def test_batches_are_deterministic_and_order_free(self):
        plan = ChurnPlan(
            plan_seed=7,
            insert_rate=0.3,
            delete_rate=0.3,
            relabel_rate=0.2,
            relabel_values=(("A",), ("B",)),
        )
        # Two schedules, rounds queried in opposite orders: identical.
        first = [ChurnSchedule(plan).batch(r, self.GRAPH) for r in (1, 2, 3)]
        second = [ChurnSchedule(plan).batch(r, self.GRAPH) for r in (3, 2, 1)]
        assert first == list(reversed(second))
        assert any(first)

    def test_different_seeds_differ(self):
        a = ChurnSchedule(ChurnPlan(plan_seed=1, delete_rate=0.4))
        b = ChurnSchedule(ChurnPlan(plan_seed=2, delete_rate=0.4))
        batches_a = [a.batch(r, self.GRAPH) for r in range(1, 6)]
        batches_b = [b.batch(r, self.GRAPH) for r in range(1, 6)]
        assert batches_a != batches_b

    def test_round_window_is_respected(self):
        plan = ChurnPlan(plan_seed=3, insert_rate=0.5, first_round=2, last_round=3)
        schedule = ChurnSchedule(plan)
        assert schedule.batch(1, self.GRAPH) == ()
        assert schedule.batch(4, self.GRAPH) == ()
        assert schedule.batch(2, self.GRAPH) != ()

    def test_deletions_skip_bridges(self):
        # Every edge of a path is a bridge: a pure-delete plan must
        # produce empty batches rather than disconnect the graph.
        path = with_uniform_input(path_graph(6))
        schedule = ChurnSchedule(ChurnPlan(plan_seed=11, delete_rate=1.0))
        for round_number in range(1, 5):
            assert schedule.batch(round_number, path) == ()

    def test_batch_valid_against_itself(self):
        # Within one batch: no duplicate inserts, no double deletes, no
        # relabels repeating the effective value.
        plan = ChurnPlan(
            plan_seed=13,
            insert_rate=1.0,
            delete_rate=1.0,
            relabel_rate=1.0,
            relabel_values=(("A",), ("B,"),),
        )
        batch = ChurnSchedule(plan).batch(1, self.GRAPH)
        edges = {frozenset(e) for e in self.GRAPH.edges()}
        labels = {v: self.GRAPH.label_of(v, "input") for v in self.GRAPH.nodes}
        for delta in batch:
            if delta.op == "remove-edge":
                assert frozenset((delta.u, delta.v)) in edges
                edges.discard(frozenset((delta.u, delta.v)))
            elif delta.op == "add-edge":
                assert frozenset((delta.u, delta.v)) not in edges
                edges.add(frozenset((delta.u, delta.v)))
            elif delta.op == "relabel":
                assert labels[delta.node] != delta.value
                labels[delta.node] = delta.value
