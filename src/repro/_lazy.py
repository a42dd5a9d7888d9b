"""PEP 562 lazy re-exports for the package ``__init__`` modules.

Every package re-exports its public names (``from repro import
MemGaze``), but importing them eagerly made ``import repro.cli`` load —
and, without cached bytecode, compile — every module in the tree,
including the ISA, instrumentation and simulated-memory layers a report
never touches. :func:`attach` resolves a re-exported name on first
access instead, then caches it on the package, so the public surface is
unchanged while a process pays only for the modules it uses.
"""

from __future__ import annotations

import importlib
import sys

__all__ = ["attach"]


def attach(package: str, exports: dict[str, list[str]]):
    """``(__getattr__, __dir__, __all__)`` for a package re-exporting ``exports``.

    ``exports`` maps a submodule's dotted name to the names the package
    re-exports from it; ``__all__`` lists them in that order.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, list(origin)
