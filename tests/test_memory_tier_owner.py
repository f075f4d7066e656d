"""One module decides what the library caches.

``repro.artifacts.store`` holds the memory tier: one bucket of encoded
payloads.  Views and refinement recompute from the interned view trees
and the per-instance CSR mirror instead of memoizing results keyed by
live graphs.  This parses every module under ``src/repro`` and fails if
one other than the store constructs a ``MemoryBucket``.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
OWNER = PACKAGE / "artifacts" / "store.py"


def _constructs_bucket(path: Path) -> bool:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "MemoryBucket":
                return True
    return False


def test_only_the_store_constructs_memory_buckets():
    assert _constructs_bucket(OWNER)
    owners = [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if _constructs_bucket(path)
    ]
    assert owners == [str(OWNER.relative_to(PACKAGE))]
