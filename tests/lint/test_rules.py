"""Fixture-driven rule tests: every rule is exercised against minimal
positive (violating) and negative (conforming) code samples placed at
paths where the rule is in scope."""

from __future__ import annotations

import pytest

from tests.lint.conftest import rules_of

# ---------------------------------------------------------------------------
# DET001 — nondeterminism sources
# ---------------------------------------------------------------------------

DET001_POSITIVE = [
    ("module-random", "import random\nx = random.random()\n"),
    ("module-randint", "import random\nx = random.randint(1, 6)\n"),
    ("from-import", "from random import choice\nx = choice([1, 2])\n"),
    ("aliased", "import random as rnd\nx = rnd.getrandbits(8)\n"),
    ("unseeded-Random", "import random\nrng = random.Random()\n"),
    ("system-random", "import random\nrng = random.SystemRandom()\n"),
    ("secrets", "import secrets\nx = secrets.token_bytes(8)\n"),
    ("uuid4", "import uuid\nx = uuid.uuid4()\n"),
    ("urandom", "import os\nx = os.urandom(4)\n"),
    ("wall-clock", "import time\nx = time.time()\n"),
    ("perf-counter", "from time import perf_counter\nx = perf_counter()\n"),
    (
        "datetime-now",
        "import datetime\nx = datetime.datetime.now()\n",
    ),
]

DET001_NEGATIVE = [
    ("seeded-Random", "import random\nrng = random.Random(42)\n"),
    ("seeded-kw", "import random\nrng = random.Random(x=1)\n"),
    ("instance-method", "rng = get_rng()\nx = rng.random()\n"),
    ("uuid5", "import uuid\nx = uuid.uuid5(uuid.NAMESPACE_DNS, 'a')\n"),
    ("hashlib", "import hashlib\nx = hashlib.sha256(b'x').hexdigest()\n"),
]


@pytest.mark.parametrize("name,source", DET001_POSITIVE, ids=[n for n, _ in DET001_POSITIVE])
def test_det001_detects(lint_tree, name, source):
    report = lint_tree({"src/repro/core/sample.py": source}, select=["DET001"])
    assert rules_of(report.findings) == ["DET001"], report.render()


@pytest.mark.parametrize("name,source", DET001_NEGATIVE, ids=[n for n, _ in DET001_NEGATIVE])
def test_det001_allows(lint_tree, name, source):
    report = lint_tree({"src/repro/core/sample.py": source}, select=["DET001"])
    assert report.findings == [], report.render()


def test_det001_exempts_tape_layer_and_benchmarks(lint_tree):
    source = "import random\nx = random.getrandbits(1)\n"
    report = lint_tree(
        {
            "src/repro/runtime/tape.py": source,
            "benchmarks/run_sample.py": "import time\nt = time.perf_counter()\n",
        },
        select=["DET001"],
    )
    assert report.findings == [], report.render()


def test_det001_examples_clock_exempt_but_entropy_banned(lint_tree):
    report = lint_tree(
        {
            "examples/demo.py": (
                "import time\nimport random\n"
                "t = time.perf_counter()\n"  # display timing: exempt
                "x = random.random()\n"  # entropy: still banned
            )
        },
        select=["DET001"],
    )
    assert [(f.rule, f.line) for f in report.findings] == [("DET001", 4)]


# ---------------------------------------------------------------------------
# DET002 — unordered iteration into canonical artifacts
# ---------------------------------------------------------------------------

DET002_POSITIVE = [
    ("tuple-of-set-call", "def f(xs):\n    return tuple(set(xs))\n"),
    ("list-of-values", "def f(d):\n    return list(d.values())\n"),
    ("tuple-of-items", "def f(d):\n    return tuple(d.items())\n"),
    ("enumerate-keys", "def f(d):\n    return dict(enumerate(d.keys()))\n"),
    ("join-set-display", "def f(a, b):\n    return ','.join({a, b})\n"),
    (
        "genexp-over-values",
        "def f(d):\n    return tuple(str(v) for v in d.values())\n",
    ),
    (
        "listcomp-over-set",
        "def f(xs):\n    return [x + 1 for x in set(xs)]\n",
    ),
    (
        "for-over-set-call",
        "def f(xs):\n    out = []\n    for x in set(xs):\n        out.append(x)\n    return out\n",
    ),
]

DET002_NEGATIVE = [
    ("sorted-set", "def f(xs):\n    return tuple(sorted(set(xs)))\n"),
    (
        "sorted-values",
        "def f(d):\n    return tuple(sorted(d.values()))\n",
    ),
    (
        "sorted-genexp-over-set",
        "def f(xs):\n    return sorted(x + 1 for x in set(xs))\n",
    ),
    ("len-of-set", "def f(xs):\n    return len(set(xs))\n"),
    ("empty-set", "def f():\n    return list(set())\n"),
    ("list-of-list", "def f(xs):\n    return list(list(xs))\n"),
    (
        "plain-loop-over-items",
        # Building a dict from .items() is order-insensitive; plain
        # loops over dict views are deliberately not flagged.
        "def f(d):\n    out = {}\n    for k, v in d.items():\n        out[k] = v\n    return out\n",
    ),
    (
        "min-over-values",
        "def f(d):\n    return min(d.values())\n",
    ),
]


@pytest.mark.parametrize("name,source", DET002_POSITIVE, ids=[n for n, _ in DET002_POSITIVE])
def test_det002_detects(lint_tree, name, source):
    report = lint_tree({"src/repro/views/sample.py": source}, select=["DET002"])
    assert rules_of(report.findings) == ["DET002"], report.render()


@pytest.mark.parametrize("name,source", DET002_NEGATIVE, ids=[n for n, _ in DET002_NEGATIVE])
def test_det002_allows(lint_tree, name, source):
    report = lint_tree({"src/repro/views/sample.py": source}, select=["DET002"])
    assert report.findings == [], report.render()


def test_det002_only_in_canonical_layers(lint_tree):
    source = "def f(d):\n    return list(d.values())\n"
    report = lint_tree(
        {"src/repro/experiments/sample.py": source}, select=["DET002"]
    )
    assert report.findings == [], report.render()


def test_det002_one_finding_per_construct(lint_tree):
    # The sink call and its comprehension argument must not double-report.
    source = "def f(d):\n    return tuple(v for v in {1, 2})\n"
    report = lint_tree({"src/repro/factor/sample.py": source}, select=["DET002"])
    assert len(report.findings) == 1, report.render()


# ---------------------------------------------------------------------------
# DET003 — object identity in algorithm-visible code
# ---------------------------------------------------------------------------


def test_det003_detects_id(lint_tree):
    source = "def transition(state, received, bits):\n    return id(state)\n"
    report = lint_tree(
        {"src/repro/algorithms/sample.py": source}, select=["DET003"]
    )
    assert rules_of(report.findings) == ["DET003"]


def test_det003_detects_object_hash(lint_tree):
    source = "def key(node):\n    return object.__hash__(node)\n"
    report = lint_tree(
        {"src/repro/algorithms/sample.py": source}, select=["DET003"]
    )
    assert rules_of(report.findings) == ["DET003"]


def test_det003_out_of_scope_elsewhere(lint_tree):
    # id() is legitimate interning machinery in the view layer.
    source = "def intern_key(children):\n    return tuple(map(id, children))\n"
    report = lint_tree({"src/repro/views/sample.py": source}, select=["DET003"])
    assert report.findings == [], report.render()


def test_det003_allows_shadowed_id(lint_tree):
    source = "def f(records):\n    return [r.id() for r in records]\n"
    report = lint_tree(
        {"src/repro/algorithms/sample.py": source}, select=["DET003"]
    )
    assert report.findings == [], report.render()


# ---------------------------------------------------------------------------
# ENG001 — engine boundary
# ---------------------------------------------------------------------------

ENG001_POSITIVE = [
    (
        "construct-delivery",
        "from repro.runtime.engine import BroadcastDelivery\n"
        "d = BroadcastDelivery()\n",
    ),
    (
        "construct-engine",
        "from repro.runtime import ExecutionEngine\n"
        "e = ExecutionEngine(a, g, t, d)\n",
    ),
    (
        "construct-engine-by-path",
        "import repro.runtime.engine\n"
        "e = repro.runtime.engine.ExecutionEngine(a, g, t, d)\n",
    ),
    (
        "drive-transition",
        "def emulate(algorithm, state):\n"
        "    return algorithm.transition(state, (), '')\n",
    ),
    (
        "poke-internals",
        "def peek(engine):\n    return engine._states\n",
    ),
]

ENG001_NEGATIVE = [
    (
        "execute-entry-point",
        "from repro.runtime.engine import execute\n"
        "result = execute(algorithm, graph, seed=7)\n",
    ),
    (
        "super-delegation",
        "class Counting(Base):\n"
        "    def transition(self, state, received, bits):\n"
        "        return super().transition(state, received, bits)\n",
    ),
    (
        "own-private-state",
        "class Tracker:\n"
        "    def __init__(self):\n"
        "        self._states = {}\n"
        "    def note(self, k, v):\n"
        "        self._states[k] = v\n",
    ),
]


@pytest.mark.parametrize("name,source", ENG001_POSITIVE, ids=[n for n, _ in ENG001_POSITIVE])
def test_eng001_detects(lint_tree, name, source):
    report = lint_tree({"src/repro/analysis/sample.py": source}, select=["ENG001"])
    assert "ENG001" in rules_of(report.findings), report.render()


@pytest.mark.parametrize("name,source", ENG001_NEGATIVE, ids=[n for n, _ in ENG001_NEGATIVE])
def test_eng001_allows(lint_tree, name, source):
    report = lint_tree({"src/repro/analysis/sample.py": source}, select=["ENG001"])
    assert report.findings == [], report.render()


def test_eng001_exempts_runtime_and_faults(lint_tree):
    source = (
        "from repro.runtime.engine import BroadcastDelivery\n"
        "d = BroadcastDelivery()\n"
    )
    report = lint_tree(
        {
            "src/repro/runtime/sample.py": source,
            "src/repro/faults/sample.py": source,
        },
        select=["ENG001"],
    )
    assert report.findings == [], report.render()


# ---------------------------------------------------------------------------
# WALL001 — exact arithmetic in canonical encoders
# ---------------------------------------------------------------------------

WALL001_POSITIVE = [
    ("float-literal", "SCALE = 0.5\n"),
    ("float-call", "def f(x):\n    return float(x)\n"),
    ("true-division", "def f(a, b):\n    return a / b\n"),
    ("clock", "import time\ndef f():\n    return time.time()\n"),
]

WALL001_NEGATIVE = [
    ("floor-division", "def f(a, b):\n    return a // b\n"),
    ("int-arith", "def f(a, b):\n    return a * b + 1\n"),
    ("string-encoding", "def f(xs):\n    return ','.join(sorted(xs))\n"),
]


@pytest.mark.parametrize("name,source", WALL001_POSITIVE, ids=[n for n, _ in WALL001_POSITIVE])
def test_wall001_detects(lint_tree, name, source):
    report = lint_tree(
        {"src/repro/graphs/encoding.py": source}, select=["WALL001"]
    )
    assert rules_of(report.findings) == ["WALL001"], report.render()


@pytest.mark.parametrize("name,source", WALL001_NEGATIVE, ids=[n for n, _ in WALL001_NEGATIVE])
def test_wall001_allows(lint_tree, name, source):
    report = lint_tree(
        {"src/repro/graphs/encoding.py": source}, select=["WALL001"]
    )
    assert report.findings == [], report.render()


def test_wall001_out_of_scope_for_analysis_layer(lint_tree):
    # Probabilities and timing summaries legitimately use floats.
    source = "def mean(xs):\n    return sum(xs) / len(xs)\n"
    report = lint_tree(
        {"src/repro/analysis/sample.py": source}, select=["WALL001"]
    )
    assert report.findings == [], report.render()


# ---------------------------------------------------------------------------
# Framework: parse errors
# ---------------------------------------------------------------------------


def test_unparseable_file_is_a_finding(lint_tree):
    report = lint_tree({"src/repro/core/broken.py": "def f(:\n"})
    assert rules_of(report.findings) == ["LINT000"]
    assert report.exit_code == 1
