"""Execution interval tree: multi-resolution time analysis (paper Fig. 4).

The tree is built bottom-up from samples. Leaves are individual samples
(exact, intra-window metrics); each level above merges pairs of adjacent
nodes into larger time intervals whose metrics are population *estimates*
scaled by rho (inter-window, Eq. 3). Below samples, intra-sample splits
give finer resolution, and leaf *function nodes* group a sample's
accesses by procedure.

Zooming descends from the root choosing the child that maximises a
criterion (accesses, footprint growth, ...) — the red path in Fig. 4.

:func:`access_interval_metrics` flattens one tree level into the paper's
"hot access interval" rows (Table VIII, Fig. 9): equal-count access
intervals over time with F / Delta-F / D / A-hat per interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import numpy as np

from repro.core.diagnostics import FootprintDiagnostics, compute_diagnostics
from repro.core.parallel import ParallelEngine
from repro.core.passes import ChunkContext, DiagnosticsPartial, function_partials
from repro.trace.collector import CollectionResult
from repro.trace.event import EVENT_DTYPE

__all__ = ["IntervalNode", "ExecutionIntervalTree", "access_interval_metrics"]


@dataclass
class IntervalNode:
    """One time interval: its event slice, metrics, and children."""

    level: int  # 0 = sample leaves; positive above, negative below
    t_start: int
    t_end: int
    diagnostics: FootprintDiagnostics
    exact: bool  # intra-sample metrics are exact; merged ones are estimates
    children: list["IntervalNode"] = field(default_factory=list)
    function: str | None = None  # set on leaf function nodes

    @property
    def span(self) -> int:
        """Interval length in retired loads."""
        return self.t_end - self.t_start


class ExecutionIntervalTree:
    """Bottom-up interval tree over a sampled collection."""

    def __init__(self, root: IntervalNode, samples: list[IntervalNode]) -> None:
        self.root = root
        self.samples = samples

    @classmethod
    def build(
        cls,
        collection: CollectionResult,
        *,
        rho: float,
        block: int = 1,
        intra_splits: int = 0,
        fn_names: dict[int, str] | None = None,
    ) -> "ExecutionIntervalTree":
        """Build the tree from a sampled trace.

        ``intra_splits`` levels are added *below* each sample by halving
        its access sequence; function leaf nodes hang off every sample.
        """
        fn_names = fn_names or {}
        leaves: list[IntervalNode] = []
        # each node carries its mergeable diagnostics partial: a merged
        # node's diagnostics are its children's partials merged, then
        # finalized with rho — exactly the diagnostics of their events
        level_nodes: list[tuple[IntervalNode, DiagnosticsPartial]] = []
        for sample in collection.samples():
            if len(sample) == 0:
                continue
            partial = DiagnosticsPartial.from_events(sample, block)
            node = IntervalNode(
                level=0,
                t_start=int(sample["t"][0]),
                t_end=int(sample["t"][-1]) + 1,
                diagnostics=partial.finalize(),
                exact=True,
            )
            node.children = cls._build_below(sample, intra_splits, block, fn_names)
            leaves.append(node)
            level_nodes.append((node, partial))
        if not leaves:
            raise ValueError("collection has no non-empty samples")

        # merge pairwise upward; merged metrics are rho-scaled estimates
        level = 0
        while len(level_nodes) > 1:
            level += 1
            merged: list[tuple[IntervalNode, DiagnosticsPartial]] = []
            for i in range(0, len(level_nodes), 2):
                group = level_nodes[i : i + 2]
                partial = reduce(DiagnosticsPartial.merge, [p for _, p in group])
                node = IntervalNode(
                    level=level,
                    t_start=group[0][0].t_start,
                    t_end=group[-1][0].t_end,
                    diagnostics=partial.finalize(rho),
                    exact=False,
                    children=[n for n, _ in group],
                )
                merged.append((node, partial))
            level_nodes = merged
        return cls(level_nodes[0][0], leaves)

    @staticmethod
    def _build_below(
        sample: np.ndarray,
        splits: int,
        block: int,
        fn_names: dict[int, str],
    ) -> list[IntervalNode]:
        children: list[IntervalNode] = []
        if splits > 0 and len(sample) >= 2:
            half = len(sample) // 2
            for part in (sample[:half], sample[half:]):
                node = IntervalNode(
                    level=-1,
                    t_start=int(part["t"][0]),
                    t_end=int(part["t"][-1]) + 1,
                    diagnostics=compute_diagnostics(part, rho=1.0, block=block),
                    exact=True,
                )
                node.children = ExecutionIntervalTree._build_below(
                    part, splits - 1, block, fn_names
                )
                children.append(node)
            return children
        # function leaf nodes: the sample grouped by function id once
        t = sample["t"]
        for fid, rows, partial in function_partials(ChunkContext(sample, None), block):
            children.append(
                IntervalNode(
                    level=-1,
                    t_start=int(t[rows[0]]),
                    t_end=int(t[rows[-1]]) + 1,
                    diagnostics=partial.finalize(),
                    exact=True,
                    function=fn_names.get(fid, f"fn{fid}"),
                )
            )
        return children

    def zoom(
        self,
        criterion: Callable[[IntervalNode], float] | None = None,
        max_depth: int | None = None,
    ) -> list[IntervalNode]:
        """Descend from the root along the max-criterion child path.

        The default criterion is footprint growth weighted by accesses —
        "a hot interval (many accesses) with poor reuse (large footprint
        growth)" per the paper's walkthrough of Fig. 4.
        """
        if criterion is None:
            criterion = lambda n: n.diagnostics.dF * n.diagnostics.A_implied
        path = [self.root]
        node = self.root
        depth = 0
        while node.children and (max_depth is None or depth < max_depth):
            node = max(node.children, key=criterion)
            path.append(node)
            depth += 1
        return path


def access_interval_metrics(
    events: np.ndarray,
    n_intervals: int,
    *,
    rho: float = 1.0,
    block: int = 1,
    reuse_block: int = 64,
    sample_id: np.ndarray | None = None,
    engine=None,
    cache_token=None,
) -> list[dict]:
    """Equal-count access intervals over time (Table VIII / Fig. 9 rows).

    Splits the record stream into ``n_intervals`` consecutive intervals of
    equal record count and reports per interval: estimated footprint ``F``,
    growth ``dF``, intra-sample mean reuse distance ``D``, and estimated
    accesses ``A``.

    Each interval is one :meth:`~repro.core.parallel.ParallelEngine.run_passes`
    call for the diagnostics and reuse passes, through ``engine`` (an
    inline one-worker engine when ``None``). With a ``cache_token`` the
    interval partials are memoized under ``(token, lo, hi)`` so repeated
    zoom queries at the same interval geometry are free (pass the owning
    result's token).
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
    if n_intervals <= 0:
        raise ValueError(f"n_intervals must be > 0, got {n_intervals}")
    if engine is None:
        engine = ParallelEngine(workers=1)
    requests = [("diagnostics", {"block": block}), ("reuse", {"block": reuse_block})]
    n = len(events)
    rows: list[dict] = []
    edges = np.linspace(0, n, n_intervals + 1).astype(np.int64)
    for k in range(n_intervals):
        lo, hi = int(edges[k]), int(edges[k + 1])
        if lo == hi:
            rows.append(
                {"interval": k, "F": 0.0, "dF": 0.0, "D": 0.0, "A": 0.0, "A_obs": 0}
            )
            continue
        results = engine.run_passes(
            events[lo:hi],
            requests,
            sample_id=sample_id[lo:hi] if sample_id is not None else None,
            rho=rho,
            window_id=(cache_token, lo, hi) if cache_token is not None else None,
        )
        diag = results["diagnostics"]
        rows.append(
            {
                "interval": k,
                "F": diag.F_est,
                "dF": diag.dF,
                "D": results["reuse"].mean,
                "A": diag.A_est,
                "A_obs": diag.A_obs,
            }
        )
    return rows
