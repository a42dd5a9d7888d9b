"""Independent reference implementations of the footprint metric family.

``src/`` computes every footprint metric through one mergeable pass
partial (:mod:`repro.core.passes`); the serial functions are one-chunk
runs of it. These oracles are the direct ``np.unique`` formulations of
the paper's definitions (Eqs. 1-4, SS:V), written once, here, so the
equivalence tests compare the partial algebra against something that
does not share its code.
"""

from __future__ import annotations

import numpy as np

from repro.core.confidence import WindowConfidence
from repro.core.diagnostics import FootprintDiagnostics
from repro.core.heatmap import HeatmapResult
from repro.core.reuse import reuse_distances
from repro.trace.compress import sample_ratio_from
from repro.trace.event import LoadClass

CONST, STR, IRR = (int(c) for c in LoadClass)


def _ids(events: np.ndarray, block: int) -> np.ndarray:
    return events["addr"] // np.uint64(block)


def _has_constant(events: np.ndarray) -> bool:
    return bool(np.any(events["cls"] == CONST) or np.any(events["n_const"] > 0))


def footprint(events: np.ndarray, block: int = 1) -> int:
    """Unique non-Constant blocks plus one unit for any Constant access."""
    if len(events) == 0:
        return 0
    nc = events[events["cls"] != CONST]
    return len(np.unique(_ids(nc, block))) + int(_has_constant(events))


def footprint_by_class(events: np.ndarray, block: int = 1) -> dict[LoadClass, int]:
    """``{CONSTANT: unit, STRIDED: |unique|, IRREGULAR: |unique|}``."""
    ids = _ids(events, block)
    return {
        LoadClass.CONSTANT: int(_has_constant(events)),
        LoadClass.STRIDED: len(np.unique(ids[events["cls"] == STR])),
        LoadClass.IRREGULAR: len(np.unique(ids[events["cls"] == IRR])),
    }


def captures_survivals(events: np.ndarray, block: int = 1) -> tuple[int, int]:
    """(blocks seen 2+ times, blocks seen once) among non-Constant records."""
    nc = events[events["cls"] != CONST]
    _, counts = np.unique(_ids(nc, block), return_counts=True)
    return int((counts >= 2).sum()), int((counts == 1).sum())


def diagnostics(
    events: np.ndarray, rho: float = 1.0, block: int = 1
) -> FootprintDiagnostics:
    """The diagnostic bundle straight from its defining expressions."""
    by_class = footprint_by_class(events, block)
    f = footprint(events, block)
    f_str, f_irr = by_class[LoadClass.STRIDED], by_class[LoadClass.IRREGULAR]
    suppressed = int(events["n_const"].sum())
    a_obs = len(events)
    a_implied = a_obs + suppressed
    n_const = suppressed + int((events["cls"] == CONST).sum())
    window = a_implied if a_implied else 1
    return FootprintDiagnostics(
        A_obs=a_obs,
        A_implied=a_implied,
        A_est=rho * a_implied,
        F=f,
        F_est=rho * f,
        F_str=f_str,
        F_irr=f_irr,
        dF=f / window if a_implied else 0.0,
        dF_str=f_str / window if a_implied else 0.0,
        dF_irr=f_irr / window if a_implied else 0.0,
        A_const_pct=100.0 * n_const / window if a_implied else 0.0,
    )


def code_windows(
    events: np.ndarray,
    rho: float = 1.0,
    block: int = 1,
    fn_names: dict[int, str] | None = None,
) -> dict[str, FootprintDiagnostics]:
    """Diagnostics of each function's records, in ascending function id."""
    fn_names = fn_names or {}
    return {
        fn_names.get(int(fid), f"fn{int(fid)}"): diagnostics(
            events[events["fn"] == fid], rho=rho, block=block
        )
        for fid in np.unique(events["fn"])
    }


def heatmap(
    events: np.ndarray,
    base: int,
    size: int,
    *,
    n_pages: int = 64,
    n_bins: int = 64,
    access_block: int = 64,
    sample_id: np.ndarray | None = None,
) -> HeatmapResult:
    """(page x time-bin) access counts and mean reuse distance of a region."""
    mask = events["cls"] != CONST
    nc = events[mask]
    d = reuse_distances(
        nc, access_block, sample_id[mask] if sample_id is not None else None
    )
    page_size = max(1, size // n_pages)
    t_lo = int(nc["t"][0]) if len(nc) else 0
    t_hi = int(nc["t"][-1]) + 1 if len(nc) else 1
    t_edges = np.linspace(t_lo, t_hi, n_bins + 1)
    addr = nc["addr"].astype(np.int64)
    keep = (addr >= base) & (addr < base + size)
    rows = np.minimum((addr[keep] - base) // page_size, n_pages - 1)
    cols = np.clip(
        np.searchsorted(t_edges, nc["t"][keep].astype(np.int64), side="right") - 1,
        0,
        n_bins - 1,
    )
    d = d[keep]
    counts = np.zeros((n_pages, n_bins), dtype=np.int64)
    dsum = np.zeros((n_pages, n_bins), dtype=np.float64)
    dcnt = np.zeros((n_pages, n_bins), dtype=np.int64)
    np.add.at(counts, (rows, cols), 1)
    np.add.at(dsum, (rows[d >= 0], cols[d >= 0]), d[d >= 0])
    np.add.at(dcnt, (rows[d >= 0], cols[d >= 0]), 1)
    with np.errstate(invalid="ignore"):
        reuse = np.where(dcnt > 0, dsum / np.maximum(dcnt, 1), np.nan)
    return HeatmapResult(
        counts=counts, reuse=reuse, base=base, page_size=page_size, t_edges=t_edges
    )


def function_ranges(events: np.ndarray) -> dict[int, tuple[int, int]]:
    """Observed [lo, hi) ip range per function, one full-trace mask each."""
    out: dict[int, tuple[int, int]] = {}
    for fid in np.unique(events["fn"]):
        ips = events["ip"][events["fn"] == fid]
        out[int(fid)] = (int(ips.min()), int(ips.max()) + 4)
    return out


def code_window_confidence(
    collection, fn_names=None, *, min_samples: int = 5, max_relative_error: float = 0.25
) -> dict[str, WindowConfidence]:
    """Per-function sampling confidence, one full-trace mask per function."""
    import math

    fn_names = fn_names or {}
    events, sample_id, n_samples = (
        collection.events, collection.sample_id, collection.n_samples
    )
    if len(events) == 0 or n_samples <= 0:
        return {}
    rho = sample_ratio_from(collection)
    weights = 1.0 + events["n_const"].astype(np.float64)
    out = {}
    for fid in np.unique(events["fn"]):
        mask = events["fn"] == fid
        per_sample = np.zeros(n_samples, dtype=np.float64)
        np.add.at(per_sample, sample_id[mask], weights[mask])
        present = int((per_sample > 0).sum())
        var = per_sample.var(ddof=1) if n_samples > 1 else 0.0
        stderr = rho * math.sqrt(var * n_samples)
        a_est = float(rho * per_sample.sum())
        name = fn_names.get(int(fid), f"fn{int(fid)}")
        out[name] = WindowConfidence(
            function=name,
            n_samples_present=present,
            n_samples_total=n_samples,
            A_est=a_est,
            stderr=float(stderr),
            undersampled=(
                present < min_samples
                or (a_est > 0 and stderr / a_est > max_relative_error)
            ),
        )
    return out
