"""Package-level contracts: exports, exceptions, version."""

from __future__ import annotations

import pytest

import repro
from repro import exceptions


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackage_all_names_resolve(self):
        import repro.algorithms
        import repro.analysis
        import repro.artifacts
        import repro.core
        import repro.dynamic
        import repro.experiments
        import repro.factor
        import repro.faults
        import repro.graphs
        import repro.problems
        import repro.runtime
        import repro.views

        for module in (
            repro.algorithms,
            repro.analysis,
            repro.artifacts,
            repro.core,
            repro.dynamic,
            repro.experiments,
            repro.factor,
            repro.faults,
            repro.graphs,
            repro.problems,
            repro.runtime,
            repro.views,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, exceptions.ReproError) or obj is Exception

    def test_catching_base_catches_specific(self):
        from repro.exceptions import GraphError, ReproError
        from repro.graphs.builders import cycle_graph

        with pytest.raises(ReproError):
            cycle_graph(1)
        with pytest.raises(GraphError):
            cycle_graph(1)

    def test_candidate_error_is_derandomization_error(self):
        from repro.exceptions import CandidateError, DerandomizationError

        assert issubclass(CandidateError, DerandomizationError)

    def test_output_error_is_runtime_model_error(self):
        from repro.exceptions import OutputAlreadySetError, RuntimeModelError

        assert issubclass(OutputAlreadySetError, RuntimeModelError)


class TestDocstrings:
    def test_every_public_module_documented(self):
        import importlib
        import pkgutil

        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if "__main__" in info.name:
                continue
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} lacks a module docstring"

    def test_public_classes_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"repro.{name} lacks a docstring"
