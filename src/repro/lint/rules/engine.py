"""ENG001 — the unified-kernel boundary.

PR 3 collapsed every execution path onto one round kernel
(:mod:`repro.runtime.engine`); the ruff TID251 banned-api keeps the
legacy scheduler *names* from coming back.  ENG001 is its semantic
successor: it also rejects reimplementing the kernel — constructing
delivery disciplines or engines directly, reaching into engine
internals, or calling the per-round protocol methods
(``transition`` / ``emit`` / ``inbox`` / ``step``) from library code.
Everything outside the runtime (and the fault layer, which wraps
delivery by design) must go through
:func:`repro.runtime.engine.execute`, so that policies, metrics,
tracing and fault injection apply uniformly.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.astutil import call_name
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

#: Kernel classes whose construction is reserved to the runtime.
_RESERVED_CLASSES = {
    "repro.runtime.engine.ExecutionEngine": "ExecutionEngine",
    "repro.runtime.engine.BroadcastDelivery": "BroadcastDelivery",
    "repro.runtime.engine.PortDelivery": "PortDelivery",
    "repro.runtime.ExecutionEngine": "ExecutionEngine",
    "repro.runtime.BroadcastDelivery": "BroadcastDelivery",
    "repro.runtime.PortDelivery": "PortDelivery",
}

#: Per-round protocol methods: calling these outside the kernel means
#: rounds are being driven (or emulated) somewhere the metrics and the
#: ambient contexts (faults, churn) cannot see.
_ROUND_METHODS = ("transition", "emit", "inbox")

#: Engine internals; touching them from outside is state mutation the
#: kernel cannot account for.
_PRIVATE_ATTRS = ("_states", "_outputs", "_tapes", "_rounds", "_delivery")


def _is_super_call(node: ast.AST) -> bool:
    """``super().transition(...)`` is an algorithm override delegating
    upward — algorithm code, not external round-driving."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
    )


@register
class EngineBoundary(Rule):
    """ENG001: rounds run inside repro.runtime.engine, nowhere else."""

    rule_id = "ENG001"
    severity = Severity.ERROR
    description = (
        "per-round state mutation or delivery construction outside "
        "repro.runtime.engine — use repro.runtime.engine.execute()"
    )
    include = ("src/", "benchmarks/", "examples/")
    # The runtime owns the kernel; the fault layer wraps delivery and
    # tapes by design (docs/FAULTS.md).  The dynamic layer deliberately
    # stays IN scope: its hook swaps graphs through the public
    # engine.swap_graph() and never touches rounds or delivery itself.
    exclude = (
        "src/repro/runtime/",
        "src/repro/faults/",
    )

    def check(self, module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = call_name(module.imports, node)
                if name in _RESERVED_CLASSES:
                    yield self.finding(
                        module,
                        node,
                        f"direct construction of {_RESERVED_CLASSES[name]}; "
                        "executions are built by repro.runtime.engine.execute() "
                        "so metrics and ambient contexts apply uniformly",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ROUND_METHODS
                    and not _is_super_call(node.func.value)
                ):
                    yield self.finding(
                        module,
                        node,
                        f".{node.func.attr}() drives a round outside the "
                        "kernel; only repro.runtime.engine may call the "
                        "per-round protocol",
                    )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in _PRIVATE_ATTRS
                and not (
                    isinstance(node.value, ast.Name) and node.value.id == "self"
                )
            ):
                yield self.finding(
                    module,
                    node,
                    f"access to engine internal {node.attr!r} outside the "
                    "runtime; use the public ExecutionResult/metrics API",
                )
