"""Hotspot analysis: picking the region of interest (paper SS:II).

"To help focus results, one may optionally perform standard hotspot
analysis based on time or memory loads. This result defines a region of
interest (set of functions) that are used to limit tracing."

:func:`find_hotspots` ranks functions by sampled load counts (a cheap
coarse pre-pass — in practice a PEBS/perf profile); the top functions
whose cumulative share crosses a threshold become the ROI.
:func:`roi_from_hotspots` converts them into hardware guard ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.sortedset import group_runs
from repro.trace.event import EVENT_DTYPE
from repro.trace.guards import RegionOfInterest

__all__ = [
    "Hotspot",
    "access_counts",
    "rank_hotspots",
    "find_hotspots",
    "roi_from_hotspots",
    "roi_from_ranges",
    "function_ranges",
]


@dataclass(frozen=True)
class Hotspot:
    """One function's share of the profiled loads."""

    function: str
    fn_id: int
    n_accesses: int
    share: float  # fraction of total profiled accesses


def access_counts(events: np.ndarray) -> np.ndarray:
    """Per-function load weights (suppressed constants included).

    Index ``fid`` holds that function's weight; the array length is the
    highest observed function id + 1 (empty for an empty trace). Counts
    from two shards merge by zero-padded addition, which is what lets the
    hotspot analysis pass fold chunk partials exactly.
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
    if len(events) == 0:
        return np.zeros(0, dtype=np.int64)
    counts = np.bincount(events["fn"])
    # include suppressed constants in per-function load weight
    np.add.at(
        counts, events["fn"], events["n_const"].astype(np.int64)
    )
    return counts


def rank_hotspots(
    counts: np.ndarray,
    fn_names: dict[int, str] | None = None,
    *,
    coverage: float = 0.90,
    max_functions: int = 8,
) -> list[Hotspot]:
    """Rank :func:`access_counts` output; keep the head covering ``coverage``."""
    if not 0 < coverage <= 1:
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    fn_names = fn_names or {}
    if len(counts) == 0:
        return []
    total = counts.sum()
    order = np.argsort(counts)[::-1]
    out: list[Hotspot] = []
    covered = 0
    for fid in order:
        if counts[fid] == 0 or len(out) >= max_functions:
            break
        out.append(
            Hotspot(
                function=fn_names.get(int(fid), f"fn{int(fid)}"),
                fn_id=int(fid),
                n_accesses=int(counts[fid]),
                share=counts[fid] / total,
            )
        )
        covered += counts[fid]
        if covered / total >= coverage:
            break
    return out


def find_hotspots(
    events: np.ndarray,
    fn_names: dict[int, str] | None = None,
    *,
    coverage: float = 0.90,
    max_functions: int = 8,
) -> list[Hotspot]:
    """Rank functions by access count; keep the head covering ``coverage``.

    ``events`` may be any (even crudely) sampled record stream — the
    pre-pass does not need load-level fidelity, only relative hotness.
    """
    return rank_hotspots(
        access_counts(events),
        fn_names,
        coverage=coverage,
        max_functions=max_functions,
    )


def function_ranges(events: np.ndarray) -> dict[int, tuple[int, int]]:
    """Observed [lo, hi) ip range per function id (from the trace itself)."""
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
    if len(events) == 0:
        return {}
    order, fids, bounds = group_runs(events["fn"])
    ips = events["ip"].take(order)
    lo = np.minimum.reduceat(ips, bounds[:-1])
    hi = np.maximum.reduceat(ips, bounds[:-1])
    return {int(f): (int(a), int(b) + 4) for f, a, b in zip(fids, lo, hi)}


def roi_from_ranges(
    hotspots: list[Hotspot],
    ranges: dict[int, tuple[int, int]],
    *,
    top: int | None = None,
) -> RegionOfInterest:
    """Guard ranges for the chosen hotspots from precomputed code ranges.

    ``ranges`` is :func:`function_ranges` output (or an exact merge of
    per-chunk min/max folds, as the ``roi`` analysis pass accumulates).
    """
    from repro.trace.guards import MAX_GUARD_RANGES

    chosen = hotspots[: top if top is not None else MAX_GUARD_RANGES]
    fn_ranges = {h.function: ranges[h.fn_id] for h in chosen if h.fn_id in ranges}
    return RegionOfInterest.from_functions(
        [h.function for h in chosen if h.fn_id in ranges], fn_ranges
    )


def roi_from_hotspots(
    hotspots: list[Hotspot],
    events: np.ndarray,
    *,
    top: int | None = None,
) -> RegionOfInterest:
    """Guard ranges covering the chosen hotspots' observed code ranges.

    ``top`` defaults to the hardware's guard-range budget.
    """
    return roi_from_ranges(hotspots, function_ranges(events), top=top)
