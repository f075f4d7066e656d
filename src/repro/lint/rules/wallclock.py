"""WALL001 — canonical encoders are exact, integer/string-pure functions.

The total order behind A* (paper Section 3.1) compares canonical view
encodings byte for byte; Norris/Theorem 3 equivalences compare ranked
trees structurally.  Any float that sneaks into those code paths makes
"equal" platform-dependent (x87 vs SSE, -ffast-math, accumulated
rounding), and any clock makes it time-dependent.  The encoder layer
therefore admits only integer and string arithmetic: no float
literals, no ``float(...)``, no true division, no ``time``/``datetime``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.astutil import call_name
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

_CLOCK_PREFIXES = ("time.", "datetime.")


@register
class NoWallClockOrFloatsInEncoders(Rule):
    """WALL001: canonical encoders use exact arithmetic only."""

    rule_id = "WALL001"
    severity = Severity.ERROR
    description = (
        "wall-clock read or float arithmetic inside a canonical encoder "
        "(view trees, graph encodings, factor graphs)"
    )
    include = (
        "src/repro/views/",
        "src/repro/graphs/csr.py",
        "src/repro/graphs/encoding.py",
        "src/repro/graphs/isomorphism.py",
        "src/repro/factor/",
        # The artifact layer's canonical byte encoders and key
        # derivation: payload equality is byte equality, so they get the
        # same exactness contract.  (The store module is caching
        # machinery, not an encoder — it may count and evict.)
        "src/repro/artifacts/encoders.py",
        "src/repro/artifacts/keys.py",
        "src/repro/artifacts/specs.py",
        # The dynamic overlay rebuilds canonical snapshots (ports,
        # layers) that downstream encoders byte-compare.  The plan /
        # schedule / maintainer modules stay out for the same reason
        # faults/plan.py does: churn rates are floats by design and
        # schedule decisions use true division on hash fractions.
        "src/repro/dynamic/graph.py",
    )

    def check(self, module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = call_name(module.imports, node)
                if name is None:
                    continue
                if name.startswith(_CLOCK_PREFIXES):
                    yield self.finding(
                        module,
                        node,
                        f"{name}() reads a clock inside a canonical encoder",
                    )
                elif name == "float":
                    yield self.finding(
                        module,
                        node,
                        "float(...) in a canonical encoder: encodings must "
                        "compare exactly on every platform; keep integers",
                    )
            elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                yield self.finding(
                    module,
                    node,
                    f"float literal {node.value!r} in a canonical encoder; "
                    "use integer or string arithmetic",
                )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                yield self.finding(
                    module,
                    node,
                    "true division yields a float in a canonical encoder; "
                    "use // (exact) instead",
                )
