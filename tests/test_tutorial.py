"""Executable form of docs/TUTORIAL.md — the walkthrough cannot rot.

Each test mirrors one tutorial section; the code is kept intentionally
identical to the document's snippets.
"""

from __future__ import annotations

from repro.algorithms.deciders import WellFormedInputDecider
from repro.core.derandomize import derandomize_pipeline
from repro.core.verification import check_gran_bundle
from repro.graphs.builders import cycle_graph, path_graph, with_uniform_input
from repro.problems.gran import GranBundle
from repro.problems.problem import DistributedProblem
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.runtime.engine import execute


class NeighborhoodCensusProblem(DistributedProblem):
    """Each node outputs the sorted tuple of its neighbors' degrees."""

    name = "neighborhood-census"

    def is_instance(self, graph):
        return self.inputs_well_formed(graph)

    def is_valid_output(self, graph, outputs):
        self.require_total(graph, outputs)
        for v in graph.nodes:
            expected = tuple(sorted(graph.degree(u) for u in graph.neighbors(v)))
            if outputs[v] != expected:
                return False
        return True


class CensusAlgorithm(AnonymousAlgorithm):
    bits_per_round = 0  # deterministic
    name = "census"

    def init_state(self, input_label, degree):
        return ("fresh", degree)

    def message(self, state):
        return state[1]  # my degree

    def transition(self, state, received, bits):
        return ("done", tuple(sorted(received)))

    def output(self, state):
        return state[1] if state[0] == "done" else None


class RandomizedCensus(CensusAlgorithm):
    bits_per_round = 1  # draw (and ignore) one bit per round
    name = "census-randomized"


def test_section_2_algorithm_solves_problem():
    problem = NeighborhoodCensusProblem()
    graph = with_uniform_input(cycle_graph(5))
    result = execute(CensusAlgorithm(), graph, require_decided=True)
    assert problem.is_valid_output(graph, result.outputs)
    assert result.rounds == 1


def test_section_3_conformance():
    bundle = GranBundle(
        NeighborhoodCensusProblem(), CensusAlgorithm(), WellFormedInputDecider()
    )
    report = check_gran_bundle(
        bundle,
        instances=[
            ("cycle-5", with_uniform_input(cycle_graph(5))),
            ("path-4", with_uniform_input(path_graph(4))),
        ],
        non_instances=[("unlabeled", cycle_graph(4))],
        seeds=(0, 1),
    )
    assert report.passed, report.failures()


def test_section_4_pipeline():
    bundle = GranBundle(
        NeighborhoodCensusProblem(), RandomizedCensus(), WellFormedInputDecider()
    )
    graph = with_uniform_input(cycle_graph(6))
    result = derandomize_pipeline(bundle, graph, seed=7, strategy="prg")
    assert bundle.problem.is_valid_output(graph, result.outputs)
