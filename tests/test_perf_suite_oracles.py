"""The perf suite keeps no oracle of its own.

``benchmarks/run_perf_suite.py`` times each optimized layer against its
reference in ``tests/oracles.py``, the one the tests compare the layer
with, so that a test and a perf floor cannot check against two copies
that drifted apart.  This parses the suite and fails if it defines a
reference at its top level again.
"""

from __future__ import annotations

import ast
from pathlib import Path

SUITE = Path(__file__).resolve().parent.parent / "benchmarks" / "run_perf_suite.py"
ORACLE_MARKERS = ("reference", "Reference", "per_trial")


def test_perf_suite_defines_no_reference():
    tree = ast.parse(SUITE.read_text(encoding="utf-8"), filename=str(SUITE))
    defined = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert "run_search_benches" in defined
    assert [name for name in defined if any(m in name for m in ORACLE_MARKERS)] == []
