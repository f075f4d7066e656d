"""Regression fixtures for the interprocedural FLOW/ANON/PURE rules.

Each fixture is a minimal synthetic tree reproducing one class of
violation the flow analysis must catch — including the historical
``id()``-keyed BFS bug class the syntactic rules could not see (the
identity never appears on the same line as the sink).  Sanitized twins
pin the other direction: the rules must NOT fire once the flow passes
through ``sorted()``, the tape layer, or stays out of canonical sinks.
"""

from __future__ import annotations

import json

from tests.lint.conftest import rules_of

#: A minimal canonical-encoder module; its qualnames land exactly on
#: the sink table (module path decides, not file contents).
ENCODERS = """\
def canonical_bytes(obj):
    return repr(obj).encode()


def encode_state(value):
    return canonical_bytes(value)
"""

ALGORITHM_BASE = """\
class AnonymousAlgorithm:
    pass
"""


def test_flow001_entropy_laundered_through_helper(lint_tree):
    report = lint_tree(
        {
            "src/repro/artifacts/encoders.py": ENCODERS,
            "src/repro/core/pipeline.py": (
                "import time\n"
                "\n"
                "from repro.artifacts.encoders import encode_state\n"
                "\n"
                "\n"
                "def stamp():\n"
                "    return time.time()\n"
                "\n"
                "\n"
                "def run():\n"
                "    return encode_state(stamp())\n"
            ),
        },
        select=["FLOW"],
    )
    assert rules_of(report.findings) == ["FLOW001"]
    (finding,) = report.findings
    assert finding.path == "src/repro/core/pipeline.py"
    assert "clock" in finding.message
    # The witness chain proves the path: source, helper hop, sink.
    assert any("time.time()" in hop for hop in finding.witness)
    assert any("stamp" in hop for hop in finding.witness)
    assert "encode_state" in finding.witness[-1]


def test_flow001_clock_into_algorithm_state(lint_tree):
    report = lint_tree(
        {
            "src/repro/runtime/algorithm.py": ALGORITHM_BASE,
            "src/repro/core/alg.py": (
                "import time\n"
                "\n"
                "from repro.runtime.algorithm import AnonymousAlgorithm\n"
                "\n"
                "\n"
                "class TimedAlgorithm(AnonymousAlgorithm):\n"
                "    def transition(self, state, received, bits):\n"
                "        return (state, time.monotonic())\n"
            ),
        },
        select=["FLOW001"],
    )
    assert rules_of(report.findings) == ["FLOW001"]
    assert "algorithm state" in report.findings[0].message


def test_flow002_unordered_iteration_reaches_encoder(lint_tree):
    report = lint_tree(
        {
            "src/repro/artifacts/encoders.py": ENCODERS,
            "src/repro/core/collect.py": (
                "from repro.artifacts.encoders import encode_state\n"
                "\n"
                "\n"
                "def run(xs):\n"
                "    order = [x for x in set(xs)]\n"
                "    return encode_state(order)\n"
            ),
        },
        select=["FLOW"],
    )
    assert rules_of(report.findings) == ["FLOW002"]
    assert any("set(...)" in hop for hop in report.findings[0].witness)


def test_flow002_sorted_sanitizes(lint_tree):
    report = lint_tree(
        {
            "src/repro/artifacts/encoders.py": ENCODERS,
            "src/repro/core/collect.py": (
                "from repro.artifacts.encoders import encode_state\n"
                "\n"
                "\n"
                "def run(xs):\n"
                "    order = sorted(set(xs))\n"
                "    return encode_state(order)\n"
            ),
        },
        select=["FLOW"],
    )
    assert report.findings == []


def test_anon001_identity_returned_as_algorithm_state(lint_tree):
    report = lint_tree(
        {
            "src/repro/runtime/algorithm.py": ALGORITHM_BASE,
            "src/repro/core/alg.py": (
                "from repro.runtime.algorithm import AnonymousAlgorithm\n"
                "\n"
                "\n"
                "class LeakyAlgorithm(AnonymousAlgorithm):\n"
                "    def transition(self, state, received, bits):\n"
                "        return (state, id(self))\n"
            ),
        },
        select=["ANON"],
    )
    assert rules_of(report.findings) == ["ANON001"]
    assert "LeakyAlgorithm.transition" in report.findings[0].message


def test_anon001_id_keyed_bfs_regression(lint_tree):
    """The historical bug class: BFS dedup keyed on ``id(node)`` whose
    key list then becomes view tree content.  Pre-flow lint could not
    see it — ``id()`` and the sink are three statements apart."""
    report = lint_tree(
        {
            "src/repro/views/view_tree.py": (
                "class ViewTree:\n"
                "    @staticmethod\n"
                "    def make(mark, children=()):\n"
                "        return (mark, tuple(children))\n"
            ),
            "src/repro/views/local_views.py": (
                "from repro.views.view_tree import ViewTree\n"
                "\n"
                "\n"
                "def bfs_view(root, neighbors):\n"
                "    seen = set()\n"
                "    order = []\n"
                "    stack = [root]\n"
                "    while stack:\n"
                "        node = stack.pop()\n"
                "        key = id(node)\n"
                "        if key in seen:\n"
                "            continue\n"
                "        seen.add(key)\n"
                "        order.append(key)\n"
                "        stack.extend(neighbors[node])\n"
                "    return ViewTree.make(order[0], [])\n"
            ),
        },
        select=["ANON"],
    )
    assert rules_of(report.findings) == ["ANON001"]
    (finding,) = report.findings
    assert finding.path == "src/repro/views/local_views.py"
    assert any("id()" in hop for hop in finding.witness)
    assert "ViewTree mark" in finding.witness[-1]


def test_anon001_dedup_by_key_is_clean(lint_tree):
    """Using ``id()`` purely as a dict/set key (the sanctioned interning
    pattern) carries no identity into values — no finding."""
    report = lint_tree(
        {
            "src/repro/views/view_tree.py": (
                "class ViewTree:\n"
                "    @staticmethod\n"
                "    def make(mark, children=()):\n"
                "        return (mark, tuple(children))\n"
            ),
            "src/repro/views/local_views.py": (
                "from repro.views.view_tree import ViewTree\n"
                "\n"
                "\n"
                "def bfs_view(root, neighbors, marks):\n"
                "    seen = set()\n"
                "    order = []\n"
                "    stack = [root]\n"
                "    while stack:\n"
                "        node = stack.pop()\n"
                "        if id(node) in seen:\n"
                "            continue\n"
                "        seen.add(id(node))\n"
                "        order.append(marks[node])\n"
                "        stack.extend(neighbors[node])\n"
                "    return ViewTree.make(order[0], [])\n"
            ),
        },
        select=["ANON"],
    )
    assert report.findings == []


def test_pure001_encoder_with_io_and_mutation(lint_tree):
    report = lint_tree(
        {
            "src/repro/artifacts/encoders.py": (
                "_CACHE = {}\n"
                "\n"
                "\n"
                "def canonical_bytes(obj):\n"
                "    return repr(obj).encode()\n"
                "\n"
                "\n"
                "def encode_logged(value):\n"
                '    with open("debug.log", "a") as fh:\n'
                "        fh.write(repr(value))\n"
                "    return canonical_bytes(value)\n"
                "\n"
                "\n"
                "def encode_memo(value):\n"
                "    _CACHE[value] = value\n"
                "    return canonical_bytes(value)\n"
            ),
        },
        select=["PURE"],
    )
    by_message = sorted(f.message for f in report.findings)
    assert rules_of(report.findings) == ["PURE001", "PURE001"]
    assert "encode_logged() transitively performs io" in by_message[0]
    assert "encode_memo() transitively performs mutation" in by_message[1]


def test_pure001_clean_encoder_passes(lint_tree):
    report = lint_tree(
        {"src/repro/artifacts/encoders.py": ENCODERS},
        select=["PURE"],
    )
    assert report.findings == []


def test_pure001_effect_is_transitive(lint_tree):
    """The effect is found through a helper in another module."""
    report = lint_tree(
        {
            "src/repro/core/log.py": (
                "def note(msg):\n"
                "    print(msg)\n"
            ),
            "src/repro/artifacts/encoders.py": (
                "from repro.core.log import note\n"
                "\n"
                "\n"
                "def encode_chatty(value):\n"
                '    note("encoding")\n'
                "    return repr(value).encode()\n"
            ),
        },
        select=["PURE"],
    )
    assert rules_of(report.findings) == ["PURE001"]
    assert any("print" in hop for hop in report.findings[0].witness)


def test_flow_findings_respect_suppressions(lint_tree):
    report = lint_tree(
        {
            "src/repro/artifacts/encoders.py": ENCODERS,
            "src/repro/core/pipeline.py": (
                "import time\n"
                "\n"
                "from repro.artifacts.encoders import encode_state\n"
                "\n"
                "\n"
                "def run():\n"
                "    # repro-lint: disable=FLOW001 -- fixture: sanctioned clock\n"
                "    return encode_state(time.time())\n"
            ),
        },
        select=["FLOW"],
    )
    assert report.findings == []
    assert report.suppressed_count == 1


def test_witness_serializes_in_schema_v2(lint_tree):
    report = lint_tree(
        {
            "src/repro/artifacts/encoders.py": ENCODERS,
            "src/repro/core/pipeline.py": (
                "import time\n"
                "\n"
                "from repro.artifacts.encoders import encode_state\n"
                "\n"
                "\n"
                "def run():\n"
                "    return encode_state(time.time())\n"
            ),
        },
        select=["FLOW"],
    )
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["schema_version"] == 2
    (finding,) = payload["findings"]
    assert isinstance(finding["witness"], list)
    assert len(finding["witness"]) >= 2
    assert all(isinstance(hop, str) for hop in finding["witness"])
    # The rendered form shows the chain as numbered hops.
    assert "    1. " in report.findings[0].render()


def test_witness_excluded_from_fingerprint(lint_tree):
    """Two runs whose chains differ in line detail but agree on
    rule/path/message must fingerprint identically (baselines and
    suppressions key on what is wrong, not on the proof route)."""
    files = {
        "src/repro/artifacts/encoders.py": ENCODERS,
        "src/repro/core/pipeline.py": (
            "import time\n"
            "\n"
            "from repro.artifacts.encoders import encode_state\n"
            "\n"
            "\n"
            "def run():\n"
            "    return encode_state(time.time())\n"
        ),
    }
    first = lint_tree(files, select=["FLOW"])
    drifted = dict(files)
    drifted["src/repro/core/pipeline.py"] = (
        "import time\n"
        "\n"
        "from repro.artifacts.encoders import encode_state\n"
        "\n"
        "EXTRA = 1\n"
        "\n"
        "\n"
        "def run():\n"
        "    return encode_state(time.time())\n"
    )
    second = lint_tree(drifted, select=["FLOW"])
    assert first.findings[0].fingerprint == second.findings[0].fingerprint
