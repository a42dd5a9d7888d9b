"""Working-set analysis: inter-sample reuse at OS-page granularity.

Paper SS:V-B: "For cache-friendly data structures, we focus on
intra-sample reuse where blocks are cache lines. For working-set
analysis, we use inter-sample reuse and blocks of OS page size."

:func:`working_set_curve` slices a sampled trace into time intervals and
estimates, per interval, the resident working set: the rho-scaled count
of unique pages touched (Eq. 3's inter-window estimator at page blocks),
alongside the capture/survival split that says how much of it is reused
vs streamed through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.validate import check_positive, check_power_of_two
from repro.core.passes import fused_scan
from repro.trace.collector import CollectionResult
from repro.trace.compress import sample_ratio_from

__all__ = ["WorkingSetPoint", "working_set_curve"]


@dataclass(frozen=True)
class WorkingSetPoint:
    """Working-set estimate for one time interval."""

    interval: int
    t_start: int
    t_end: int
    pages_observed: int
    pages_est: float  # rho-scaled unique pages
    bytes_est: float
    captured_fraction: float  # share of pages with reuse inside the interval

    @property
    def mb_est(self) -> float:
        """Estimated working set in MiB."""
        return self.bytes_est / (1 << 20)


def working_set_curve(
    collection: CollectionResult,
    *,
    n_intervals: int = 8,
    page_size: int = 4096,
) -> list[WorkingSetPoint]:
    """Estimated working set per equal-record time interval."""
    check_positive("n_intervals", n_intervals)
    check_power_of_two("page_size", page_size)
    events = collection.events
    rho = sample_ratio_from(collection)
    out: list[WorkingSetPoint] = []
    n = len(events)
    if n == 0:
        return out
    edges = np.linspace(0, n, n_intervals + 1).astype(np.int64)
    # F and (C, S) of an interval share one scan of its page ids
    requests = [("diagnostics", {"block": page_size}), ("captures", {"block": page_size})]
    for k in range(n_intervals):
        lo, hi = int(edges[k]), int(edges[k + 1])
        part = events[lo:hi]
        if len(part) == 0:
            continue
        results = fused_scan([(part, None)], requests)
        pages = results["diagnostics"].F
        c, s = results["captures"]
        out.append(
            WorkingSetPoint(
                interval=k,
                t_start=int(part["t"][0]),
                t_end=int(part["t"][-1]) + 1,
                pages_observed=pages,
                pages_est=rho * pages,
                bytes_est=rho * pages * page_size,
                captured_fraction=c / (c + s) if (c + s) else 0.0,
            )
        )
    return out
