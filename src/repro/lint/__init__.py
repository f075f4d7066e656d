"""Invariant analyzer — static enforcement of the repo's contracts.

Every guarantee this reproduction makes is ultimately a *determinism*
or *anonymity* contract: seeded runs replay byte-identically, canonical
view encodings are pure functions of the labeled graph, and algorithms
see only labels, degrees and port numbers — never node identity.  The
test suite enforces those contracts dynamically (golden files, replay
gates, fault differentials); this package enforces them *statically*,
at review time, by walking the AST of every source file and rejecting
the constructs that break them:

========  ==========================================================
rule      invariant protected
========  ==========================================================
DET001    no nondeterminism sources (module-level ``random``,
          ``secrets``, ``uuid1/4``, wall clocks, ``os.urandom``)
          outside the tape layer and the benchmark timing code
DET002    no iteration over unordered collections (``set``,
          ``dict.values()``) feeding order-sensitive canonical
          artifacts in the view/factor/graph/analysis layers
DET003    no ``id()`` / ``object.__hash__`` in algorithm-visible code
          (anonymity: labels and ports only, per paper Section 1.1)
ENG001    no per-round state mutation or delivery construction
          outside :mod:`repro.runtime.engine` (the unified kernel)
WALL001   no wall-clock or float arithmetic inside canonical encoders
FLOW001   (interprocedural) no entropy/clock value *flows* into a
          canonical encoder or algorithm state, across any number of
          calls and assignments
FLOW002   (interprocedural) no unordered-iteration order flows into a
          canonical encoder without passing through ``sorted()``
ANON001   (interprocedural) no ``id()``-derived value flows into
          algorithm-visible state or a view tree mark
PURE001   canonical codecs are transitively free of I/O, non-local
          mutation and clock reads
LINT000   (framework) file failed to parse
LINT001   (framework) suppression comment that suppresses nothing
========  ==========================================================

The ``FLOW``/``ANON``/``PURE`` families run on a whole-program call
graph with per-function taint summaries (:mod:`repro.lint.flow`);
their findings carry a *witness chain* — the concrete source-to-sink
call path — in the JSON report and the rendered output.

Findings can be silenced line-by-line with a justified comment::

    foo = list(groups.values())  # repro-lint: disable=DET002 -- insertion order is node order

or acknowledged wholesale in a baseline file (``--baseline``), which
records known findings so only *new* violations fail the gate.  See
``docs/LINT.md`` for the rule catalogue and the suppression policy.

Command line::

    python -m repro.lint                  # src/ benchmarks/ examples/
    python -m repro.lint tests --warn-only
    python -m repro.lint --json report.json --baseline LINT_BASELINE.json
"""

from repro.lint.analyzer import LintReport, run_lint
from repro.lint.baseline import Baseline
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, all_rules, register

__all__ = [
    "Baseline",
    "Finding",
    "LintReport",
    "Rule",
    "Severity",
    "all_rules",
    "register",
    "run_lint",
]
