"""What the command line pays for at startup.

Package ``__init__`` modules re-export lazily (PEP 562) and ``repro.cli``
imports each subcommand's modules inside its handler, so ``import
repro.cli`` loads almost nothing and a cache-served ``report --json``
never loads the layers a report does not use. Each check runs in a fresh
interpreter, where ``sys.modules`` shows exactly what was imported.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro
from repro.trace.event import make_events
from repro.trace.tracefile import TraceMeta, write_trace

SRC = str(Path(repro.__file__).resolve().parents[1])

#: never needed to start the CLI or to serve a cached report
UNUSED_BY_REPORTS = (
    "repro.isa",
    "repro.instrument",
    "repro.simmem",
    "repro.workloads",
    "repro.viz",
    "repro.core.diff",
    "repro.core.zoom",
    "repro.core.interval_tree",
)


def _modules_after(code: str) -> list[str]:
    """The ``repro`` modules loaded by running ``code`` in a new interpreter."""
    probe = (
        code
        + "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.splitlines()[-1])


def _unused(modules: list[str]) -> list[str]:
    return [m for m in modules if m.startswith(UNUSED_BY_REPORTS)]


def test_import_cli_loads_only_the_cli():
    assert _modules_after("import repro.cli") == ["repro", "repro._lazy", "repro.cli"]


def test_cache_served_report_skips_unused_layers(tmp_path):
    n = 5_000
    events = make_events(ip=0x400000 + np.arange(n) % 3, addr=np.arange(n) * 64, cls=2)
    trace = tmp_path / "t.npz"
    write_trace(trace, events, TraceMeta(module="guard"), np.arange(n, dtype=np.int32) // 100)
    run = (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['report', {str(trace)!r}, '--json', '--cache-dir', "
        f"{str(tmp_path / 'cache')!r}]) == 0\n"
    )
    cold = _modules_after(run)  # decodes, analyzes, populates the cache
    warm = _modules_after(run)  # served from the verified record
    assert "repro.core.report" in warm and "repro.trace.loader" in warm
    assert _unused(cold) == [] and _unused(warm) == []


def test_every_exported_name_resolves():
    packages = ["repro"] + [
        m.name
        for m in pkgutil.walk_packages(repro.__path__, "repro.")
        if m.ispkg
    ]
    for name in packages:
        package = importlib.import_module(name)
        for attr in package.__all__:
            assert getattr(package, attr) is not None, f"{name}.{attr}"
        assert set(package.__all__) <= set(dir(package)), name
