"""Tests for the experiments package and its CLI."""

from __future__ import annotations

import pytest

from repro.exceptions import ReproError
from repro.experiments import all_experiment_ids, get_experiment
from repro.experiments.base import (
    ExperimentCheckFailed,
    ExperimentResult,
)
from repro.analysis.sweeps import SweepRow


EXPECTED_IDS = {
    "figure1",
    "figure2",
    "figure3",
    "theorem1",
    "theorem2",
    "norris",
    "lemma2",
    "lemma3",
    "lemma4",
    "lifting",
    "khop",
    "impossibility",
    "election",
    "fibrations",
    "ports",
    "two-hop-cost",
    "mis-cost",
    "search-ablation",
    "success-curve",
    "decoupling",
    "candidate-growth",
    "resilience-drop",
    "resilience-crash",
    "resilience-corrupt",
    "resilience-reorder",
    "churn-views",
    "churn-validity",
    "churn-engine",
}

FAST_IDS = sorted(
    EXPECTED_IDS
    - {
        "theorem1",
        "theorem2",
        "election",
        "two-hop-cost",
        "mis-cost",
        "figure3",
        "success-curve",
        "decoupling",
        "candidate-growth",
        # The resilience family is covered by test_resilience.py.
        "resilience-drop",
        "resilience-crash",
        "resilience-corrupt",
        "resilience-reorder",
        # The dynamic family is covered by tests/dynamic/.
        "churn-views",
        "churn-validity",
        "churn-engine",
    }
)


class TestRegistry:
    def test_all_expected_ids_registered(self):
        assert set(all_experiment_ids()) == EXPECTED_IDS

    def test_unknown_id_raises(self):
        with pytest.raises(ReproError, match="unknown experiment"):
            get_experiment("nope")

    def test_specs_carry_cost_metadata(self):
        from repro.experiments import all_specs, get_spec

        specs = all_specs()
        assert {spec.experiment_id for spec in specs} == EXPECTED_IDS
        assert all(spec.cost > 0 for spec in specs)
        # The full-pipeline sweep is the heaviest experiment; its cost
        # weight is what makes the runner dispatch it first.
        assert get_spec("theorem1").cost == max(spec.cost for spec in specs)

    def test_get_experiment_returns_the_spec_function(self):
        from repro.experiments import get_spec

        assert get_experiment("figure1") is get_spec("figure1").fn


class TestResults:
    @pytest.mark.parametrize("experiment_id", FAST_IDS)
    def test_fast_experiments_pass(self, experiment_id):
        result = get_experiment(experiment_id)()
        assert result.passed, result.checks
        assert result.rows
        assert result.experiment_id == experiment_id
        rendered = result.render()
        assert result.title in rendered
        assert "checks:" in rendered

    def test_figure3_passes(self):
        result = get_experiment("figure3")()
        assert result.passed

    @pytest.mark.parametrize(
        "experiment_id",
        sorted(
            e
            for e in EXPECTED_IDS - set(FAST_IDS) - {"figure3", "theorem1"}
            if not e.startswith(("resilience-", "churn-"))
        ),
    )
    def test_slow_experiments_pass(self, experiment_id):
        result = get_experiment(experiment_id)()
        assert result.passed, result.checks

    def test_theorem1_passes(self):
        """The heaviest experiment: the full pipeline sweep."""
        result = get_experiment("theorem1")()
        assert result.passed
        assert len(result.rows) >= 40  # 4 problems x >= 10 families

    def test_require_passed_raises_on_failure(self):
        result = ExperimentResult(
            experiment_id="x",
            title="t",
            columns=["a"],
            rows=[SweepRow("r", {"a": 1})],
            checks={"broken": False},
        )
        assert not result.passed
        with pytest.raises(ExperimentCheckFailed, match="broken"):
            result.require_passed()

    def test_duplicate_registration_rejected(self):
        from repro.experiments.base import experiment

        with pytest.raises(ReproError, match="duplicate"):
            experiment("figure1")(lambda: None)


class TestChecksCanFail:
    """Registry checks are computed from the run, so a broken map or a
    broken output turns them false."""

    def test_lemma2_rejects_a_bad_factorizing_map(self):
        from repro.experiments._shared import lifted_colored_c3
        from repro.experiments.lemmas import _is_factorizing
        from repro.factor.quotient import infinite_view_graph

        _base, lift, _projection = lifted_colored_c3(2)
        quotient = infinite_view_graph(lift)
        mapping = quotient.map.as_dict()
        assert _is_factorizing(lift, quotient.graph, mapping)
        a = lift.nodes[0]
        b = next(v for v in lift.nodes if mapping[v] != mapping[a])
        swapped = {**mapping, a: mapping[b], b: mapping[a]}
        assert not _is_factorizing(lift, quotient.graph, swapped)
        not_onto = {v: mapping[a] for v in lift.nodes}
        assert not _is_factorizing(lift, quotient.graph, not_onto)
        relabeled = lift.with_layer("color", {v: "x" for v in lift.nodes})
        assert not _is_factorizing(relabeled, quotient.graph, mapping)

    def test_theorem1_rejects_a_bad_output(self, monkeypatch):
        from types import SimpleNamespace

        import repro.experiments.theorems as theorems

        def broken_pipeline(bundle, graph, **_options):
            return SimpleNamespace(
                outputs={v: None for v in graph.nodes},
                stage1_rounds=0,
                quotient_size=0,
                stage2=SimpleNamespace(simulation_rounds=0),
            )

        monkeypatch.setattr(theorems, "derandomize_pipeline", broken_pipeline)
        assert theorems.theorem1().checks == {"all outputs valid": False}


class TestCli:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "figure2" in out

    def test_run_selected(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["figure2", "lemma4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "Lemma 4" in out
        assert "2 experiments passed" in out

    def test_no_args_prints_help(self, capsys):
        from repro.experiments.__main__ import main

        assert main([]) == 2

    def test_csv_export(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        assert main(["figure2", "--csv", str(tmp_path / "tables")]) == 0
        csv_file = tmp_path / "tables" / "figure2.csv"
        assert csv_file.exists()
        content = csv_file.read_text()
        assert content.startswith("case,")
        assert "C12 -> C6 (f)" in content
