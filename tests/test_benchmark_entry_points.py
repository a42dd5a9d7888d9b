"""The benchmark's traced run wraps named program entry points.

``perfbench/layers.py`` lists them as ``(module, attr, span)`` in
``FUNCTIONS`` and ``(module, class, attr, span)`` in ``METHODS``; a
refactor that deletes or renames one of them breaks the benchmark's
``--trace 1`` run. This guard resolves every listed name, so such a
refactor fails here first. The benchmark module is only imported —
nothing under ``perfbench/`` is written (no bytecode cache either).
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    fresh = {"spans"} - set(sys.modules)
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_layers", BENCH / "layers.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for name in fresh:
            sys.modules.pop(name, None)


def test_lists_are_not_empty(layers):
    assert layers.FUNCTIONS and layers.METHODS


def test_every_patched_function_resolves(layers):
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in layers.FUNCTIONS
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert not missing, f"benchmark entry points gone: {missing}"


def test_every_patched_method_resolves(layers):
    missing = [
        f"{mod}.{cls}.{attr}"
        for mod, cls, attr, _ in layers.METHODS
        if not callable(
            getattr(getattr(importlib.import_module(mod), cls, None), attr, None)
        )
    ]
    assert not missing, f"benchmark entry points gone: {missing}"


def test_streamed_chunk_reader_resolves():
    # instrument() also wraps the archive chunk generator by name
    from repro.trace import tracefile

    assert callable(tracefile.iter_trace_chunks)
