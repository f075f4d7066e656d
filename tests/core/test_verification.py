"""Tests for the GRAN conformance suite."""

from __future__ import annotations

import pytest

from repro.algorithms.deciders import WellFormedInputDecider
from repro.algorithms.luby_mis import AnonymousMISAlgorithm
from repro.algorithms.matching import AnonymousMatchingAlgorithm
from repro.algorithms.two_hop_coloring import TwoHopColoringAlgorithm
from repro.algorithms.vertex_coloring import VertexColoringAlgorithm
from repro.core.verification import check_gran_bundle
from repro.graphs.builders import cycle_graph, path_graph, star_graph, with_uniform_input
from repro.problems.coloring import ColoringProblem, KHopColoringProblem
from repro.problems.gran import GranBundle
from repro.problems.matching import MaximalMatchingProblem
from repro.problems.mis import MISProblem

INSTANCES = [
    ("cycle-5", with_uniform_input(cycle_graph(5))),
    ("path-4", with_uniform_input(path_graph(4))),
    ("star-4", with_uniform_input(star_graph(4))),
]
NON_INSTANCES = [
    ("bad-degrees", cycle_graph(4).with_layer("input", {v: (9, 0) for v in range(4)})),
]


class TestConformingBundles:
    @pytest.mark.parametrize(
        "bundle",
        [
            GranBundle(MISProblem(), AnonymousMISAlgorithm(), WellFormedInputDecider()),
            GranBundle(
                ColoringProblem(), VertexColoringAlgorithm(), WellFormedInputDecider()
            ),
            GranBundle(
                KHopColoringProblem(2), TwoHopColoringAlgorithm(), WellFormedInputDecider()
            ),
            GranBundle(
                MaximalMatchingProblem(),
                AnonymousMatchingAlgorithm(),
                WellFormedInputDecider(),
            ),
        ],
        ids=["mis", "coloring", "two-hop-coloring", "matching"],
    )
    def test_library_bundles_pass(self, bundle):
        report = check_gran_bundle(
            bundle, INSTANCES, NON_INSTANCES, seeds=(0, 1)
        )
        assert report.passed, report.failures()
        checks = {outcome.check for outcome in report.outcomes}
        assert checks >= {
            "instances-legal",
            "solver-valid",
            "replayable",
            "decider-accepts",
            "decider-rejects",
            "liftable",
            "factor-closed",
            "derandomizable",
        }

    def test_summary_readable(self):
        bundle = GranBundle(
            MISProblem(), AnonymousMISAlgorithm(), WellFormedInputDecider()
        )
        report = check_gran_bundle(bundle, INSTANCES[:1], seeds=(0,))
        text = report.summary()
        assert "conformance of 'mis'" in text
        assert "[ok ]" in text


class TestNonConformingBundles:
    def test_wrong_solver_detected(self):
        """A 2-hop coloring algorithm is not an MIS solver: the battery
        must flag solver validity (not raise)."""
        bundle = GranBundle(
            MISProblem(), TwoHopColoringAlgorithm(), WellFormedInputDecider()
        )
        report = check_gran_bundle(
            bundle, INSTANCES[:1], seeds=(0,), derandomize=False
        )
        assert not report.passed
        failing_checks = {outcome.check for outcome in report.failures()}
        assert "solver-valid" in failing_checks

    def test_non_instance_in_instances_detected(self):
        bundle = GranBundle(
            MISProblem(), AnonymousMISAlgorithm(), WellFormedInputDecider()
        )
        report = check_gran_bundle(
            bundle,
            [("unlabeled", cycle_graph(4))],
            seeds=(0,),
            derandomize=False,
        )
        assert not report.passed
        assert report.failures()[0].check == "instances-legal"

    def test_broken_decider_detected(self):
        """A decider that says YES to everything fails the NO side."""
        from repro.runtime.algorithm import FunctionAlgorithm

        yes_man = FunctionAlgorithm(
            init=lambda label, deg: "YES",
            msg=lambda s: None,
            step=lambda s, received, bits: s,
            out=lambda s: s,
            bits_per_round=0,
            name="yes-man",
        )
        bundle = GranBundle(MISProblem(), AnonymousMISAlgorithm(), yes_man)
        report = check_gran_bundle(
            bundle, INSTANCES[:1], NON_INSTANCES, seeds=(0,), derandomize=False
        )
        assert not report.passed
        assert any(o.check == "decider-rejects" for o in report.failures())
