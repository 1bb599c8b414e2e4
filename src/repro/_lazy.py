"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package lists where each public name lives; the defining module is
imported the first time the name is read (``from repro import Engine``
or ``repro.Engine``), and the value is then cached in the package
namespace.  Importing one submodule (``import repro.obs.config``)
therefore no longer loads every sibling the package re-exports — which
is what keeps a daemon's cold start down to the modules it serves with.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: "dict[str, tuple[str, ...]]"
) -> "tuple[Callable[[str], Any], Callable[[], list[str]]]":
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each defining module to the names re-exported
    from it.
    """
    origin = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> "list[str]":
        return sorted({*namespace, *origin})

    return __getattr__, __dir__
