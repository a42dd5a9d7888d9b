"""Batched CRC32 over array chunk views, without intermediate copies.

The trace-health layer checksums archives in :data:`HEALTH_CHUNK_EVENTS`
sized chunks. The original sweep materialised every chunk with
``chunk.tobytes()`` before hashing — one full copy of the member per
audit. ``zlib.crc32`` accepts any C-contiguous buffer, so hashing a
zero-copy byte view of each chunk produces identical checksums while
touching the array bytes exactly once. :func:`crc32_chunks` is the one
shared sweep used by the archive writer, the health auditor, and the
streaming prefix-skip path, so all three stay bit-for-bit in agreement
about chunk geometry.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["byte_view", "crc32_chunks", "crc32_of"]


def byte_view(arr: np.ndarray) -> memoryview:
    """Flat ``uint8`` view of a contiguous array's raw bytes (no copy)."""
    if not arr.flags.c_contiguous:
        # slices of archive members are always contiguous; anything else
        # (a strided caller view) must pay for one packed copy
        arr = np.ascontiguousarray(arr)
    return memoryview(arr).cast("B")


def crc32_of(arr: np.ndarray) -> int:
    """CRC32 of one array's raw bytes, equal to ``crc32(arr.tobytes())``."""
    return zlib.crc32(byte_view(arr))


def crc32_chunks(arr: np.ndarray, step: int, *, at_least_one: bool = False) -> list[int]:
    """Per-chunk CRC32s of ``arr`` in chunks of ``step`` records.

    Equivalent to ``[crc32(arr[i:i+step].tobytes()) for i in
    range(0, len(arr), step)]`` without the per-chunk copies. With
    ``at_least_one`` an empty array still yields one checksum (of zero
    bytes) — the archive health record's layout for empty traces, which
    content digests and cache keys depend on.
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    n = len(arr)
    if n == 0:
        return [zlib.crc32(b"")] if at_least_one else []
    buf = byte_view(arr)
    item = arr.dtype.itemsize
    return [
        zlib.crc32(buf[lo * item : min(lo + step, n) * item])
        for lo in range(0, n, step)
    ]
