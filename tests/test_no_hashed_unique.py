"""No hashed ``np.unique`` on the analysis path.

A plain ``np.unique(a)`` (no ``return_index``/``return_inverse``/
``return_counts`` keyword) takes numpy's hashing path, which on the
block-id arrays the passes dedup is about 20x slower than sorting
(``docs/performance.md``, "Sorted-set kernels"). The analysis code uses
:func:`repro._util.sortedset.unique_sorted` instead. This guard parses
every module under ``src/repro/core/`` and ``src/repro/_util/`` and
fails on any such call that is not listed in ``EXEMPT``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SCANNED = ("core", "_util")
SORT_PATH_KEYWORDS = {"return_index", "return_inverse", "return_counts"}

#: ``(path relative to src/repro, function name)`` of calls shown to run
#: on small inputs only. Empty: every call site was moved to the sorted
#: kernels.
EXEMPT: set[tuple[str, str]] = set()


def _is_np_unique(call: ast.Call) -> bool:
    f = call.func
    return (
        isinstance(f, ast.Attribute)
        and f.attr == "unique"
        and isinstance(f.value, ast.Name)
        and f.value.id in ("np", "numpy")
    )


def hashed_unique_calls(tree: ast.AST) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of each keyword-less ``np.unique``."""
    found: list[tuple[str, int]] = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and _is_np_unique(node):
            names = {k.arg for k in node.keywords}
            if not names & SORT_PATH_KEYWORDS:
                found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_guard_sees_hashed_calls():
    tree = ast.parse(
        "import numpy as np\n"
        "def f(a):\n"
        "    x = np.unique(a)\n"
        "    y = np.unique(a, return_counts=True)\n"
        "    return numpy.unique(a, axis=0)\n"
    )
    assert hashed_unique_calls(tree) == [("f", 3), ("f", 5)]


def test_no_hashed_unique_in_analysis_code():
    offenders = []
    for sub in SCANNED:
        for path in sorted((SRC / sub).rglob("*.py")):
            rel = str(path.relative_to(SRC))
            for scope, line in hashed_unique_calls(ast.parse(path.read_text())):
                if (rel, scope) not in EXEMPT:
                    offenders.append(f"{rel}:{line} in {scope}()")
    assert not offenders, (
        "hashed np.unique on the analysis path (use "
        "repro._util.sortedset.unique_sorted): " + ", ".join(offenders)
    )
