"""Compare two result ledgers written by ``run.py --ledger``.

Usage::

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric's ratio NEW/BASE and flags the ones that got worse by
more than the bound ``BENCHMARK.json`` gives them. Refuses (exit 2) to
compare results from different core counts or different workloads:
such numbers do not measure the code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bounds() -> dict[str, tuple[str, float | None]]:
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return {}
    raw = json.loads(spec.read_text())
    out = {m["name"]: (m["better"], m.get("bound")) for m in raw.get("end_to_end", [])}
    out.update({m["name"]: (m["better"], None) for m in raw.get("per_layer", [])})
    return out


def compare(base: dict, new: dict, bounds: dict) -> tuple[list[str], int]:
    """Report lines and the number of metrics worse than their bound."""
    for key in ("cpu_count", "workload", "scale"):
        if base["env"].get(key) != new["env"].get(key):
            raise ValueError(
                f"refusing to compare: {key} differs "
                f"({base['env'].get(key)!r} vs {new['env'].get(key)!r})"
            )
    lines, worse = [], 0
    for name, m in new["result"]["metrics"].items():
        if name not in base["result"]["metrics"]:
            continue
        b, v = base["result"]["metrics"][name]["value"], m["value"]
        ratio = v / b if b else float("nan")
        better, bound = bounds.get(name, ("lower", None))
        loss = (ratio - 1) if better == "lower" else (1 - ratio)
        flag = ""
        if bound is not None and loss > bound:
            flag = f"  WORSE than bound {bound:.0%}"
            worse += 1
        lines.append(f"{name:<24} {b:14.6f} -> {v:14.6f} {m['unit']:<6} x{ratio:.3f}{flag}")
    return lines, worse


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in args)
    try:
        lines, worse = compare(base, new, load_bounds())
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
