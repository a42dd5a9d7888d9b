"""Vectorised left-rank counting (the engine room of the stack-distance kernel).

:func:`count_le_left` answers, for every position ``i`` of an integer
array ``a`` — optionally segmented into contiguous groups — the query

    ``rank(i) = #{ j < i : group[j] == group[i] and a[j] <= a[i] }``

without a Python-level loop. It is the exact-integer primitive behind
the vectorised reuse-distance kernel (:mod:`repro.core.reuse`): with
``prev[i]`` the index of the previous same-block access inside the
window, the spatio-temporal reuse distance collapses to
``D[i] = rank(i) - prev[i] - 1`` (see ``docs/performance.md`` for the
derivation), so one rank sweep replaces the per-event Fenwick walk.

The algorithm is a bottom-up mergesort run on all groups at once, in
which each level is a handful of numpy array operations:

* runs of width ``w`` are kept sorted in place; encoding each element
  as ``value + pair_id * K`` (``K`` larger than the value range,
  ``pair_id`` a cumulative counter that restarts runs at group
  boundaries) makes one stable ``argsort`` per level *be* the merge of
  every (left, right) run pair simultaneously, with no comparisons in
  Python. numpy radix-sorts only integers of 16 bits or fewer, so these
  int64 keys go through timsort, whose run detection finds the sorted
  runs of width ``w`` and merges them pairwise;
* stability puts tied left-run elements before right-run elements, so
  a right-run element's merged position minus its within-run index is
  exactly "how many left-sibling elements are <= me" — the count the
  rank needs — for free.

Levels stop at the longest group, so the cost is
O(log(max group length)) stable sorts of n int64 keys. All arithmetic is int64
and exact: results are bit-identical to the reference Fenwick loop for
any input.
"""

from __future__ import annotations

import numpy as np

__all__ = ["count_le_left"]


def count_le_left(values: np.ndarray, groups: np.ndarray | None = None) -> np.ndarray:
    """Per-position count of earlier same-group elements ``<=`` this one.

    ``groups``, when given, must hold contiguous group ids (equal values
    adjacent, e.g. a non-decreasing window index); counting never
    crosses a group boundary. Returns an int64 array of ``len(values)``.
    Values may be any integer dtype (they are densified internally, so
    magnitude never overflows the merge encoding).
    """
    a = np.asarray(values)
    n = a.size
    out = np.zeros(n, dtype=np.int64)
    if n <= 1:
        return out
    pos = np.arange(n, dtype=np.int64)
    if groups is None:
        lpos = pos
        group_break = np.zeros(n, dtype=bool)
        maxlen = n
    else:
        g = np.asarray(groups)
        if g.size != n:
            raise ValueError("groups length must match values")
        group_break = np.empty(n, dtype=bool)
        group_break[0] = False
        group_break[1:] = g[1:] != g[:-1]
        starts = np.concatenate([[0], np.flatnonzero(group_break)])
        # local position within the group, a property of the slot alone
        lpos = pos - starts[np.cumsum(group_break)]
        maxlen = int(np.diff(np.append(starts, n)).max())

    # densify: replace values by their sorted-unique rank so the pair
    # encoding below stays well inside int64 for any input magnitudes
    # (k * pair_id <= n * n < 2**63 for any array that fits in memory)
    val = np.unique(a, return_inverse=True)[1].astype(np.int64)
    k = int(val.max()) + 1
    orig = pos.copy()

    shift = 0  # current run width is 2**shift (bit ops beat int64 div/mod)
    while (1 << shift) < maxlen:
        pair_mask = (2 << shift) - 1
        # pair ids: contiguous, monotone, restarting at group boundaries
        brk = group_break | ((lpos & pair_mask) == 0)
        brk[0] = False
        pair_id = np.cumsum(brk)
        # one stable sort merges every (left, right) run pair at once;
        # element at sorted rank r lands in slot r (pairs are contiguous
        # slot ranges in slot order)
        order = np.argsort(val + pair_id * k, kind="stable")
        val = val[order]
        orig = orig[order]
        # a right-run element's merged-pair index minus its within-run
        # index is the number of left-sibling elements <= it (stability
        # keeps tied left elements first)
        old_lpos = lpos[order]
        right = np.flatnonzero(old_lpos & (1 << shift))
        cnt_le = (lpos[right] & pair_mask) - (old_lpos[right] & (pair_mask >> 1))
        out[orig[right]] += cnt_le
        shift += 1
    return out
