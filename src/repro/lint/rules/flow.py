"""Whole-program flow rules: FLOW001/FLOW002, ANON001, PURE001.

These are the interprocedural escalation of the syntactic DET/WALL
rules.  DET001 flags a literal ``time.time()`` in the wrong file;
FLOW001 proves no clock value reaches a canonical encoder *through any
call chain*.  Each finding anchors at the call site (or ``return``)
where the tainted value crosses into the sink, and carries the full
source→sink witness chain so the report is a proof sketch, not a
pattern match.

Everything runs off one shared :class:`repro.lint.flow.FlowProgram`
built by the analyzer: the rules here only translate its event log
into findings, so selecting all four costs one fixpoint, not four.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.flow import lattice
from repro.lint.registry import ProgramRule, register

__all__ = [
    "AlgorithmStateIdentity",
    "EncoderPurity",
    "EntropyReachesCanonical",
    "UnorderedReachesCanonical",
]


def _event_finding(rule: ProgramRule, event, message: str) -> Finding:
    return Finding(
        rule=rule.rule_id,
        severity=rule.severity,
        path=event.function.relpath,
        line=event.lineno,
        col=event.col,
        message=message,
        witness=event.chain,
    )


@register
class EntropyReachesCanonical(ProgramRule):
    """An entropy or clock value flows (through any number of calls)
    into a canonical sink or into algorithm-visible state.  Randomness
    must cross into the algorithm only through the tape layer, and must
    never reach bytes that are compared or content-addressed."""

    rule_id = "FLOW001"
    severity = Severity.ERROR
    description = (
        "entropy/clock value flows into a canonical encoding, key "
        "derivation, or algorithm state (bypassing the tape layer)"
    )
    _kinds = (lattice.ENTROPY, lattice.CLOCK)

    def check_program(self, program) -> Iterator[Finding]:
        for event in program.sink_events:
            if event.kind in self._kinds:
                yield _event_finding(
                    self,
                    event,
                    f"{event.kind} value reaches {event.sink_label}; "
                    "draw through the tape layer instead",
                )
        for event in program.return_events:
            if event.kind in self._kinds:
                yield _event_finding(
                    self,
                    event,
                    f"{event.kind} value returned as algorithm state by "
                    f"{event.function.qualname}(); only tape draws may "
                    "feed algorithm state",
                )


@register
class UnorderedReachesCanonical(ProgramRule):
    """A value derived from unordered set/dict iteration reaches a
    canonical sink without passing through ``sorted()`` (or another
    order-erasing fold).  The emitted bytes would then depend on hash
    seeding — the exact nondeterminism the hashseed gate (``make
    smoke``) probes dynamically."""

    rule_id = "FLOW002"
    severity = Severity.ERROR
    description = (
        "unordered-iteration value reaches a canonical encoding "
        "uncleansed (no sorted()/order-erasing fold on the path)"
    )

    def check_program(self, program) -> Iterator[Finding]:
        for event in program.sink_events:
            if event.kind == lattice.UNORDERED:
                yield _event_finding(
                    self,
                    event,
                    f"unordered-iteration value reaches {event.sink_label} "
                    "without sorted()",
                )


@register
class AlgorithmStateIdentity(ProgramRule):
    """A Python object identity (``id()``/``object.__hash__``) flows
    into algorithm-visible state or canonical bytes.  In an anonymous
    network there are no identifiers to leak: the paper's algorithms
    distinguish nodes only by their views, and ``id()`` values are both
    an anonymity violation and unstable across runs."""

    rule_id = "ANON001"
    severity = Severity.ERROR
    description = (
        "node/object identity (id(), object.__hash__) flows into "
        "algorithm state or a canonical encoding"
    )

    def check_program(self, program) -> Iterator[Finding]:
        for event in program.sink_events:
            if event.kind == lattice.IDENTITY:
                yield _event_finding(
                    self,
                    event,
                    f"object identity reaches {event.sink_label}; "
                    "anonymous algorithms may not observe identities",
                )
        for event in program.return_events:
            if event.kind == lattice.IDENTITY:
                yield _event_finding(
                    self,
                    event,
                    "object identity returned as algorithm state by "
                    f"{event.function.qualname}(); nodes are "
                    "distinguishable only by their views",
                )


@register
class EncoderPurity(ProgramRule):
    """The canonical codec functions (artifact encoders, delta codec)
    must be pure: transitively free of I/O, non-local mutation and
    wall-clock reads, so the same value encodes to the same bytes in
    every process that ever runs."""

    rule_id = "PURE001"
    severity = Severity.ERROR
    description = (
        "canonical encoder/decoder transitively performs I/O, mutates "
        "non-local state, or reads the clock"
    )

    def check_program(self, program) -> Iterator[Finding]:
        for qualname in sorted(program.call_graph.functions):
            if not lattice.is_pure_root(qualname):
                continue
            fi = program.call_graph.functions[qualname]
            summary = program.summaries.get(qualname)
            if summary is None:
                continue
            for effect in sorted(summary.effects):
                yield Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    path=fi.relpath,
                    line=fi.lineno,
                    col=fi.node.col_offset + 1,
                    message=(
                        f"canonical codec {qualname}() transitively "
                        f"performs {effect}"
                    ),
                    witness=summary.effects[effect],
                )
