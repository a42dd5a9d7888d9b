"""Seeded input generators: every archive a workload analyzes is made here.

The program under test only ever sees the archives (and, for serve, the
event chunks) these functions produce; the same ``seed`` always gives the
same bytes of events and sample ids.
"""

from __future__ import annotations

import numpy as np

from repro.trace.event import make_events
from repro.trace import tracefile
from repro.trace.tracefile import TraceMeta

#: events per sample: every generated trace is cut into samples this long
SAMPLE_LEN = 1024
N_FUNCTIONS = 8


def _meta(module: str, n: int, n_samples: int) -> TraceMeta:
    return TraceMeta(
        module=module,
        kind="sampled",
        period=12_000,
        buffer_capacity=SAMPLE_LEN,
        n_loads_total=2 * n,
        n_samples=n_samples,
        extra={"fn_names": {str(i): f"fn{i}" for i in range(N_FUNCTIONS)}},
    )


def _sample_ids(n: int) -> np.ndarray:
    return (np.arange(n, dtype=np.int64) // SAMPLE_LEN).astype(np.int32)


def mixed_trace(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Strided sweeps mixed with irregular accesses over 8 functions.

    The shape of the ROADMAP baseline trace: a bounded footprint, so the
    run is dominated by per-event work, not by huge block-set merges.
    """
    rng = np.random.default_rng(seed)
    idx = np.arange(n, dtype=np.uint64)
    strided = 0x10_0000 + (idx * 8) % (1 << 21)
    irregular = 0x200_0000 + rng.integers(0, 1 << 15, n).astype(np.uint64) * 8
    cls = rng.choice([0, 1, 2], n, p=[0.1, 0.5, 0.4]).astype(np.uint8)
    ev = make_events(
        ip=(idx % 64) + 1,
        addr=np.where(cls == 1, strided, irregular),
        cls=cls,
        fn=(idx % N_FUNCTIONS).astype(np.uint32),
    )
    return ev, _sample_ids(n)


def phased_trace(n: int, seed: int, n_phases: int = 6) -> tuple[np.ndarray, np.ndarray]:
    """Alternating strided-heavy and irregular-heavy phases.

    Each phase moves its strided sweep to a new region, widens or narrows
    the irregular footprint and shifts which functions are active, so
    phase detection, the interval tree and the zoom all have structure.
    """
    rng = np.random.default_rng(seed)
    idx = np.arange(n, dtype=np.uint64)
    phase = (np.arange(n, dtype=np.int64) * n_phases // max(n, 1)).astype(np.uint64)
    p_strided = np.where(phase % 2 == 0, 0.8, 0.15)
    u = rng.random(n)
    cls = np.where(u < 0.08, 0, np.where(u < 0.08 + 0.92 * p_strided, 1, 2)).astype(np.uint8)
    strided = 0x10_0000 + (idx * 8) % (1 << 21) + phase * (1 << 22)
    irregular = 0x200_0000 + rng.integers(0, 1 << 15, n).astype(np.uint64) * 8 * (
        1 + phase % 3
    )
    ev = make_events(
        ip=(idx % 64) + 1,
        addr=np.where(cls == 1, strided, irregular),
        cls=cls,
        fn=(((idx % 4) + 2 * phase) % N_FUNCTIONS).astype(np.uint32),
    )
    return ev, _sample_ids(n)


def cell_trace(n: int, seed: int, irregular_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """One corpus cell: the mixed trace with its own irregular footprint."""
    rng = np.random.default_rng(seed)
    idx = np.arange(n, dtype=np.uint64)
    strided = 0x10_0000 + (idx * 8) % (1 << 22)
    irregular = 0x200_0000 + rng.integers(0, 1 << irregular_bits, n).astype(np.uint64) * 8
    cls = rng.choice([0, 1, 2], n, p=[0.1, 0.5, 0.4]).astype(np.uint8)
    ev = make_events(
        ip=(idx % 64) + 1,
        addr=np.where(cls == 1, strided, irregular),
        cls=cls,
        n_const=np.where(rng.random(n) < 0.05, 3, 0).astype(np.uint16),
        fn=(idx % N_FUNCTIONS).astype(np.uint32),
    )
    return ev, _sample_ids(n)


def write_archive(path, module: str, events: np.ndarray, sample_id: np.ndarray) -> int:
    """Write one archive through the program's writer; returns its size.

    Called through the module so the traced run's wrapper sees the call.
    """
    meta = _meta(module, len(events), int(sample_id[-1]) + 1 if len(sample_id) else 0)
    return tracefile.write_trace(path, events, meta, sample_id)


def session_meta(module: str, n: int) -> TraceMeta:
    """The metadata a serve client opens its session with."""
    return _meta(module, n, -(-n // SAMPLE_LEN))
