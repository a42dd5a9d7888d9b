"""Sorted-set kernels: dedup, grouping and set algebra over sorted runs.

The engine's mergeable partials (`DiagnosticsPartial`, `CapturesPartial`
— see ``repro.core.passes``) keep their block-id state as **sorted
unique** arrays; that invariant is established once per chunk and every
merge preserves it. ``np.union1d`` and friends cannot exploit it — they
re-sort the concatenation from scratch on every fold, which made the
merge stage O(chunks x footprint log footprint) and, on large traces,
as expensive as the scans themselves.

These kernels assume the invariant instead: concatenating two sorted
runs and sorting with ``kind="stable"`` (timsort) is a galloping merge,
linear in practice, and membership against a sorted array is one
``searchsorted``. Outputs are bit-identical to the ``np.*1d``
equivalents — same values, same dtype, same (sorted unique) order —
pinned by ``tests/_util/test_sortedset.py``.

The same invariant is where the state starts. A plain ``np.unique(a)``
(no ``return_*`` keyword) takes numpy's hashing path, which on 128K
``uint64`` block ids measures about 20x slower than ``np.sort`` plus a
neighbour dedup; :func:`unique_sorted` is that sort-based form, and
:func:`run_lengths` turns an already sorted array into its distinct
values and their counts without sorting again. :func:`group_runs`
groups records by a key with one stable argsort, so per-group work runs
over contiguous slices instead of one full-length mask per group.

Preconditions are the caller's contract: the ``*_sorted`` set operators
need inputs that are sorted and duplicate-free, :func:`dedup_sorted`
and :func:`run_lengths` need sorted input. Nothing here checks (a check
would cost the O(n) the kernels save). All kernels compare with ``!=``,
so they are exact for integer arrays (NaN never equals itself, so a
float array with NaNs would keep every NaN where ``np.unique`` keeps one).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dedup_sorted",
    "unique_sorted",
    "run_lengths",
    "group_runs",
    "union_sorted",
    "intersect_sorted",
    "setxor_sorted",
    "setdiff_sorted",
]


def _run_starts(s: np.ndarray) -> np.ndarray:
    """Mask of positions that start a run of equal values in ``s``."""
    keep = np.empty(len(s), dtype=bool)
    if len(s):
        keep[0] = True
        np.not_equal(s[1:], s[:-1], out=keep[1:])
    return keep


def dedup_sorted(s: np.ndarray) -> np.ndarray:
    """Distinct values of a sorted 1-D array, in order (neighbour dedup)."""
    return s[_run_starts(s)]


def unique_sorted(a: np.ndarray) -> np.ndarray:
    """``np.sort`` plus a neighbour dedup; equals ``np.unique(a)``.

    Same values, dtype and (ascending) order as ``np.unique``, which
    flattens its input the same way, without the hashing path.
    """
    return dedup_sorted(np.sort(a, axis=None))


def run_lengths(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values, counts)`` of a sorted 1-D array's runs.

    Equals ``np.unique(s, return_counts=True)`` for sorted ``s``; counts
    are ``int64``.
    """
    starts = np.flatnonzero(_run_starts(s))
    counts = np.diff(starts, append=len(s))
    return s[starts], counts


def group_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group positions by key with one stable argsort.

    Returns ``(order, values, bounds)``: ``keys[order]`` is sorted, with
    each key's positions kept in their original order; ``values`` are
    the distinct keys ascending (``np.unique(keys)``); group ``k`` is
    ``order[bounds[k]:bounds[k + 1]]``, so ``bounds`` has
    ``len(values) + 1`` entries.
    """
    order = np.argsort(keys, kind="stable")
    ranked = keys.take(order)  # take(): fast on strided record columns too
    starts = np.flatnonzero(_run_starts(ranked))
    return order, ranked[starts], np.append(starts, len(keys))


def _merged(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted concatenation of two sorted arrays (stable = galloping merge)."""
    c = np.concatenate([a, b])
    c.sort(kind="stable")
    return c


def union_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a | b`` for sorted-unique inputs; equals ``np.union1d(a, b)``."""
    return dedup_sorted(_merged(a, b))


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a & b`` for sorted-unique inputs; equals ``np.intersect1d``.

    Each value appears at most once per side, so a cross-side duplicate
    in the merged run marks exactly one intersection element.
    """
    c = _merged(a, b)
    if len(c) == 0:
        return c
    return c[:-1][c[1:] == c[:-1]]


def setxor_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a ^ b`` for sorted-unique inputs; equals ``np.setxor1d``."""
    c = _merged(a, b)
    if len(c) == 0:
        return c
    dup = c[1:] == c[:-1]
    solo = np.ones(len(c), dtype=bool)
    solo[1:] &= ~dup
    solo[:-1] &= ~dup
    return c[solo]


def setdiff_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a - b`` for sorted-unique inputs; equals ``np.setdiff1d(...,
    assume_unique=True)`` on such inputs."""
    if len(a) == 0 or len(b) == 0:
        return a
    idx = np.searchsorted(b, a)
    idx[idx == len(b)] = len(b) - 1
    return a[b[idx] != a]
