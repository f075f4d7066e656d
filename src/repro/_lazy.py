"""Lazy package exports (PEP 562): a re-exported name loads its module
on first access.

Every package ``__init__`` that re-exports names from its submodules
keeps one ``name -> defining module`` table and installs the two module
hooks this helper returns::

    _EXPORTS = {"ViewTree": "repro.views.view_tree", ...}
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

and mirrors the table as ``from ... import`` lines under
``if TYPE_CHECKING:``, so type checkers and the flow lint's import
resolution still see every re-export.  ``import repro`` then loads only
the package modules themselves; a name's module (and what it imports)
loads when the name is first read, and the value is cached in the
package namespace so later reads never reach ``__getattr__``.

A name missing from the table falls back to the submodule of that name
(``repro.views.view_tree`` after ``import repro.views``), as attribute
access on an eagerly imported package would have found it.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping
from typing import Any


def lazy_exports(
    package: str, table: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package``, resolving each
    name of ``table`` from its module on first access."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = table.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            submodule = f"{package}.{name}"
            try:
                value = importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
                raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    return __getattr__, __dir__
