"""The taint lattice: kinds, sources, sanitizers, sinks.

A value's abstract state is the *set* of taint kinds it may carry plus,
inside a function body, the set of formal parameters it may derive
from.  Union is the lattice join; the kind set is finite, so the
interprocedural fixpoint in :mod:`repro.lint.flow.summaries`
terminates.  Each concrete kind carries the witness chain that
introduced it (``time.time() at src/...:42``, ``returned by
repro.x.helper``), which is how findings prove their source→sink path.

Sources mirror the per-module rules they generalize: the DET001 call
table for entropy and clocks, ``id()``/``object.__hash__`` for node
identity (DET003), the DET002 unordered expressions, and float
arithmetic (WALL001).  Sanitizers clear exactly the taint they
canonicalize away: ``sorted()`` makes iteration order a function of the
elements (clears UNORDERED), integer coercion rounds away platform
float drift (clears FLOAT), and the tape layer is the sanctioned
entropy boundary (functions defined in ``repro.runtime.tape`` never
export ENTROPY/CLOCK — a seeded, replayable draw is the *point* of the
tape).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# -- kinds --------------------------------------------------------------

ENTROPY = "entropy"
CLOCK = "clock"
UNORDERED = "unordered"
FLOAT = "float"
IDENTITY = "identity"

KINDS = (ENTROPY, CLOCK, UNORDERED, FLOAT, IDENTITY)

# -- effects (PURE001) --------------------------------------------------

EFFECT_IO = "io"
EFFECT_MUTATION = "mutation"
EFFECT_CLOCK = "clock-read"

EFFECTS = (EFFECT_IO, EFFECT_MUTATION, EFFECT_CLOCK)

#: Longest witness chain kept; deeper flows are elided in the middle.
MAX_CHAIN = 12

Chain = "tuple[str, ...]"


def extend_chain(chain: "tuple[str, ...]", frame: str) -> "tuple[str, ...]":
    """Append ``frame``, eliding the middle of over-long chains."""
    if len(chain) >= MAX_CHAIN:
        return chain[: MAX_CHAIN // 2] + ("...",) + chain[-(MAX_CHAIN // 2 - 1) :] + (frame,)
    return chain + (frame,)


# -- the abstract value -------------------------------------------------


@dataclass(frozen=True)
class ParamFlow:
    """A formal parameter flowing somewhere, minus sanitized kinds."""

    cleared: frozenset = frozenset()
    chain: "tuple[str, ...]" = ()

    def merge(self, other: "ParamFlow") -> "ParamFlow":
        # Less clearing is the conservative join; keep the first chain.
        return ParamFlow(
            cleared=self.cleared & other.cleared,
            chain=self.chain or other.chain,
        )


@dataclass
class Taints:
    """Join-semilattice element: concrete kinds + parameter markers."""

    kinds: "dict[str, tuple[str, ...]]" = field(default_factory=dict)
    params: "dict[int, ParamFlow]" = field(default_factory=dict)

    @classmethod
    def of_param(cls, index: int) -> "Taints":
        return cls(params={index: ParamFlow()})

    @classmethod
    def of_kind(cls, kind: str, witness: str) -> "Taints":
        return cls(kinds={kind: (witness,)})

    def is_empty(self) -> bool:
        return not self.kinds and not self.params

    def union(self, *others: "Taints") -> "Taints":
        kinds = dict(self.kinds)
        params = dict(self.params)
        for other in others:
            for kind, chain in other.kinds.items():
                kinds.setdefault(kind, chain)
            for index, flow in other.params.items():
                params[index] = params[index].merge(flow) if index in params else flow
        return Taints(kinds=kinds, params=params)

    def without(self, cleared: "frozenset | set") -> "Taints":
        """Sanitize: drop the cleared kinds, and record the clearing on
        parameter markers so substituted arguments are sanitized too."""
        if not cleared:
            return self
        cleared = frozenset(cleared)
        return Taints(
            kinds={k: c for k, c in self.kinds.items() if k not in cleared},
            params={
                i: ParamFlow(cleared=flow.cleared | cleared, chain=flow.chain)
                for i, flow in self.params.items()
            },
        )

    def shape(self) -> "tuple":
        """Hashable convergence key: kinds + param masks, chains excluded
        (chains are set once and never grow, so they cannot oscillate)."""
        return (
            tuple(sorted(self.kinds)),
            tuple(sorted((i, tuple(sorted(f.cleared))) for i, f in self.params.items())),
        )


EMPTY = Taints()


# -- sources ------------------------------------------------------------

IDENTITY_CALLS = {"id", "builtins.id", "object.__hash__"}

#: Derived lazily from DET001's tables so the syntactic and flow rules
#: can never disagree on what counts as a source — and lazily because
#: ``repro.lint.rules`` (the package housing those tables) itself
#: imports the flow rules, so a module-level import here would cycle.
_SOURCE_TABLES: "tuple | None" = None


def _source_tables() -> "tuple":
    global _SOURCE_TABLES
    if _SOURCE_TABLES is None:
        from repro.lint.rules.determinism import (
            _BANNED_CALLS,
            _BANNED_PREFIXES,
            _RANDOM_MODULE_OK,
        )

        # "clock" in the DET001 reason means CLOCK; everything else in
        # that table draws entropy (uuid1 mixes both; entropy is the
        # stricter classification and it is banned anyway).
        source_calls = {
            name: (CLOCK if "clock" in reason else ENTROPY)
            for name, reason in _BANNED_CALLS.items()
        }
        source_prefixes = {prefix: ENTROPY for prefix in _BANNED_PREFIXES}
        # Seeded random.Random(seed) is a pure function of its seed.
        _SOURCE_TABLES = (source_calls, source_prefixes, set(_RANDOM_MODULE_OK))
    return _SOURCE_TABLES


def source_kind_of_call(name: str) -> "str | None":
    """Taint kind introduced by a call to dotted ``name``, if any."""
    source_calls, source_prefixes, seeded_ok = _source_tables()
    if name in IDENTITY_CALLS:
        return IDENTITY
    if name in source_calls:
        return source_calls[name]
    for prefix, kind in source_prefixes.items():
        if name.startswith(prefix):
            return kind
    if name.startswith("random.") and name not in seeded_ok:
        return ENTROPY
    return None


# -- sanitizers ---------------------------------------------------------

#: Call name -> taint kinds its result is guaranteed free of.
#: ``sorted`` makes order a function of the elements; the counting /
#: folding builtins are symmetric in argument order; integer coercion
#: produces exact values.
SANITIZER_CALLS: "dict[str, frozenset]" = {
    "sorted": frozenset({UNORDERED}),
    "len": frozenset({UNORDERED, FLOAT}),
    "sum": frozenset({UNORDERED}),
    "min": frozenset({UNORDERED}),
    "max": frozenset({UNORDERED}),
    "any": frozenset({UNORDERED, FLOAT}),
    "all": frozenset({UNORDERED, FLOAT}),
    "int": frozenset({FLOAT}),
    "round": frozenset({FLOAT}),
    "math.floor": frozenset({FLOAT}),
    "math.ceil": frozenset({FLOAT}),
    "math.isqrt": frozenset({FLOAT}),
    "bool": frozenset({FLOAT}),
}

#: Module whose defs never export entropy/clock taint: drawing from a
#: recorded/seeded tape is the sanctioned, replayable randomness.
TAPE_MODULE = "repro.runtime.tape"
TAPE_CLEARS = frozenset({ENTROPY, CLOCK})

#: Modules whose global-state mutation is sanctioned: the view tree
#: intern tables are content-keyed memoization — every observable
#: output (marks, ranks, canonical child order) is a pure function of
#: the values interned, not of interning order — so functions here do
#: not export the ``mutation`` effect (I/O and clock reads still do).
INTERNING_MODULES = ("repro.views.view_tree",)

#: Attribute calls that read a container *by key*: the result is a
#: function of the container's contents and which key was asked for —
#: the key argument itself is control dependence, exactly like a
#: subscript read, so its taint does not reach the result.  This is
#: what keeps ``cache.get((id(x), depth))`` memo lookups from smearing
#: IDENTITY over the cached values.
KEYED_ACCESS_ATTRS = frozenset({"get", "pop"})


# -- canonical sinks ----------------------------------------------------

#: Method names forming the anonymous-algorithm protocol; their return
#: values are algorithm-visible state (ANON001's sink, and FLOW001's
#: for entropy/clock that bypassed the tape).
ALGORITHM_PROTOCOL = ("init_state", "message", "messages", "transition", "output")

#: Base classes marking a class as an algorithm implementation.
ALGORITHM_BASES = {
    "repro.runtime.algorithm.AnonymousAlgorithm",
    "repro.runtime.port_model.PortAwareAlgorithm",
}


def _stripped(name: str) -> str:
    return name.lstrip("_")


def canonical_sink_label(qualname: str) -> "str | None":
    """Human label if calling ``qualname`` feeds a canonical artifact.

    The sink set is the byte-compared surface of the system: the
    artifact payload encoders, artifact/task key derivation, the
    canonical delta codec, and ViewTree mark construction (marks are
    *the* canonical encoding the total order compares).
    """
    module, _, name = qualname.rpartition(".")
    # Methods: repro.views.view_tree.ViewTree.make -> class-qualified.
    if qualname in (
        "repro.views.view_tree.ViewTree.make",
        "repro.views.view_tree.ViewTree.leaf",
        "repro.views.view_tree._make_ranked",
    ):
        return "a ViewTree mark"
    if module == "repro.artifacts.encoders" and (
        _stripped(name).startswith("encode") or name == "canonical_bytes"
    ):
        return f"canonical encoder {name}()"
    if module == "repro.artifacts.keys" and name in (
        "artifact_key",
        "canonical_spec",
        "payload_digest",
    ):
        return f"artifact key derivation {name}()"
    if module.startswith("repro.dynamic.delta") and (
        _stripped(name).startswith("encode") or name == "as_dict"
    ):
        return f"canonical delta encoding {name}()"
    return None


_CODEC_MODULES = ("repro.artifacts.encoders", "repro.dynamic.delta")


def is_pure_root(qualname: str) -> bool:
    """PURE001 scope: the canonical codec functions themselves —
    module-level ``encode*``/``decode*``/``canonical*`` defs in the
    codec modules plus codec methods (``Delta.as_dict``/``from_dict``)."""
    module, _, name = qualname.rpartition(".")
    if module not in _CODEC_MODULES:
        # Methods of codec-module classes: strip the class segment.
        parent = module.rsplit(".", 1)[0] if "." in module else ""
        if parent not in _CODEC_MODULES:
            return False
    stripped = _stripped(name)
    return (
        stripped.startswith(("encode", "decode", "canonical"))
        or name in ("as_dict", "from_dict")
    )


# -- effect classification ---------------------------------------------

#: Dotted-name prefixes that perform I/O (filesystem, process, network).
IO_PREFIXES = (
    "os.",
    "sys.stdout",
    "sys.stderr",
    "sys.stdin",
    "subprocess.",
    "shutil.",
    "socket.",
    "tempfile.",
    "pathlib.Path.write",
    "pathlib.Path.read",
)

IO_CALLS = {"open", "print", "input", "builtins.open", "builtins.print"}

#: ``os.path`` is pure string manipulation; carve it back out.
IO_EXEMPT_PREFIXES = ("os.path.",)

#: Attribute-call names that write or read external state when we could
#: not resolve the receiver (conservative, scoped to PURE001 roots).
IO_ATTR_CALLS = {
    "write",
    "writelines",
    "write_text",
    "write_bytes",
    "read_text",
    "read_bytes",
    "flush",
    "fsync",
    "mkdir",
    "unlink",
    "touch",
}

#: In-place mutators; an effect only when the receiver is non-local
#: (module-level) state.
MUTATING_ATTR_CALLS = {
    "append",
    "add",
    "update",
    "extend",
    "insert",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "sort",
    "reverse",
}


def io_effect_of_call(name: "str | None", attr: "str | None") -> bool:
    """True if a call to dotted ``name`` (or unresolved ``.attr()``)
    performs I/O."""
    if name is not None:
        if name in IO_CALLS:
            return True
        if any(name.startswith(p) for p in IO_EXEMPT_PREFIXES):
            return False
        if any(name.startswith(p) for p in IO_PREFIXES):
            return True
    if attr is not None and attr in IO_ATTR_CALLS:
        return True
    return False
