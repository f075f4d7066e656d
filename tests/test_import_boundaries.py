"""What a process imports: package exports load on first access, and the
experiment registry loads on its first query.

Each boundary runs in a fresh interpreter, so the modules an earlier
test imported cannot hide an import this one would make.  The export
tables are checked against the ``if TYPE_CHECKING:`` import blocks that
mirror them for type checkers and the flow lint.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

LAZY_PACKAGES = [
    "repro",
    "repro.algorithms",
    "repro.analysis",
    "repro.core",
    "repro.dynamic",
    "repro.experiments",
    "repro.factor",
    "repro.faults",
    "repro.graphs",
    "repro.problems",
    "repro.runtime",
    "repro.views",
]

PREAMBLE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
"""


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(ROOT / "derandbench")])}
    done = subprocess.run(
        [sys.executable, "-c", PREAMBLE + code],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_pipeline_import_loads_no_harness_module():
    out = _run(
        """
import repro
from repro import derandomize_pipeline
print(json.dumps(loaded()))
"""
    )
    harness = ("experiments", "analysis", "dynamic", "faults", "artifacts", "lint")
    assert "repro.core.derandomize" in out
    assert [m for m in out if m.split(".")[1:2] and m.split(".")[1] in harness] == []


@pytest.mark.parametrize("workload", ["search", "reconstruct"])
def test_pipeline_ops_load_nothing_after_setup(workload):
    """Setup loads every module an op runs: one op of each bundle the
    workload uses imports no further ``repro`` module."""
    out = _run(
        f"""
import run
from workloads import CountLedger
bench = run.build_workload({workload!r}, 7, CountLedger())
before = loaded()
failures, seen = [], set()
for unit in bench.units:
    if unit.bundle not in seen:
        seen.add(unit.bundle)
        failures += [op.failure for op in bench.run_unit(unit).ops if op.failure]
print(json.dumps({{"new": sorted(set(loaded()) - set(before)), "failures": failures,
                  "bundles": len(seen)}}))
"""
    )
    assert out["failures"] == []
    assert out["bundles"] >= 1
    assert out["new"] == []


def test_registry_pass_loads_nothing_after_the_first_query():
    """The first registry query loads every module a pass runs: a whole
    pass imports no further ``repro`` module."""
    out = _run(
        """
from repro.experiments import all_experiment_ids, run_experiments
ids = all_experiment_ids()
before = loaded()
report = run_experiments(ids, jobs=1)
print(json.dumps({"new": sorted(set(loaded()) - set(before)), "ids": len(ids),
                  "passed": report.all_passed}))
"""
    )
    assert out["ids"] == 28 and out["passed"]
    assert out["new"] == []


def test_import_does_not_register_experiments():
    out = _run(
        """
import repro.experiments
from repro.experiments import base
before = len(base._REGISTRY)
ids = repro.experiments.all_experiment_ids()
print(json.dumps({"before": before, "after": len(ids)}))
"""
    )
    assert out == {"before": 0, "after": 28}


def _type_checking_imports(path: Path) -> dict[str, str]:
    """``name -> module`` of the ``from ... import`` lines under the
    module's ``if TYPE_CHECKING:``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (block,) = [
        node
        for node in tree.body
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
    ]
    table = {}
    for node in block.body:
        assert isinstance(node, ast.ImportFrom), ast.dump(node)
        for alias in node.names:
            table[alias.asname or alias.name] = node.module
    return table


def _init_path(package: str) -> Path:
    return SRC.joinpath(*package.split("."), "__init__.py")


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_export_table_mirrors_type_checking_block(name):
    package = importlib.import_module(name)
    assert package._EXPORTS == _type_checking_imports(_init_path(name))
    assert set(package.__all__) - {"__version__"} == set(package._EXPORTS)


def test_exports_resolve_to_their_defining_objects():
    """In a fresh interpreter, every ``__all__`` name of every lazy
    package is the object its ``TYPE_CHECKING`` import names, ``dir()``
    lists it, and ``import *`` binds all of them."""
    origins = {name: _type_checking_imports(_init_path(name)) for name in LAZY_PACKAGES}
    out = _run(
        f"""
import importlib
bad = []
for name, origin in {origins!r}.items():
    package = importlib.import_module(name)
    listed = dir(package)
    for attr, module in origin.items():
        defining = getattr(importlib.import_module(module), attr)
        if getattr(package, attr) is not defining or attr not in listed:
            bad.append(name + "." + attr)
    star = {{}}
    exec("from " + name + " import *", star)
    bad += [name + ".* " + attr for attr in package.__all__ if attr not in star]
print(json.dumps(bad))
"""
    )
    assert out == []


def test_every_reexporting_package_is_lazy():
    """A package ``__init__`` imports eagerly only the export helper;
    the import-light ``repro.artifacts`` and the lint packages keep
    eager imports."""
    eager = []
    for path in sorted(PACKAGE.rglob("__init__.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {
            node.module
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
        }
        if modules - {"repro._lazy"}:
            eager.append(path.parent.relative_to(SRC).as_posix().replace("/", "."))
    assert eager == ["repro.artifacts", "repro.lint", "repro.lint.flow", "repro.lint.rules"]
