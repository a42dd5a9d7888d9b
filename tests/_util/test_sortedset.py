"""The sorted-set kernels must be bit-identical to numpy's own ops.

The merge path of the engine's partials (``DiagnosticsPartial``,
``CapturesPartial``) replaced ``np.union1d``-family calls with these
kernels, relying on the sorted-unique invariant of partial state, and
the chunk scans replaced ``np.unique`` with ``unique_sorted`` /
``run_lengths`` / ``group_runs``; this suite pins the substitution: same
values, same dtype, same order, for every operator, including empty,
single-element, all-duplicate and extreme-value inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.sortedset import (
    group_runs,
    intersect_sorted,
    run_lengths,
    setdiff_sorted,
    setxor_sorted,
    union_sorted,
    unique_sorted,
)

PAIRS = [
    (union_sorted, np.union1d),
    (intersect_sorted, np.intersect1d),
    (setxor_sorted, np.setxor1d),
    (setdiff_sorted, lambda a, b: np.setdiff1d(a, b, assume_unique=True)),
]


def _sets(rng, na, nb, lo=0, hi=1000):
    a = np.unique(rng.integers(lo, hi, na).astype(np.uint64))
    b = np.unique(rng.integers(lo, hi, nb).astype(np.uint64))
    return a, b


@pytest.mark.parametrize("ours,ref", PAIRS, ids=["union", "intersect", "xor", "diff"])
class TestAgainstNumpy:
    def test_overlapping(self, ours, ref, rng):
        a, b = _sets(rng, 400, 300)
        got, want = ours(a, b), ref(a, b)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_disjoint(self, ours, ref):
        a = np.arange(0, 100, 2, dtype=np.uint64)
        b = np.arange(1, 101, 2, dtype=np.uint64)
        assert np.array_equal(ours(a, b), ref(a, b))

    def test_identical(self, ours, ref):
        a = np.arange(50, dtype=np.uint64)
        assert np.array_equal(ours(a, a), ref(a, a))

    @pytest.mark.parametrize("na,nb", [(0, 0), (0, 5), (5, 0)])
    def test_empty_sides(self, ours, ref, na, nb):
        a = np.arange(na, dtype=np.uint64)
        b = np.arange(nb, dtype=np.uint64)
        got, want = ours(a, b), ref(a, b)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_extreme_values(self, ours, ref):
        m = np.iinfo(np.uint64).max
        a = np.array([0, 1, m - 1, m], dtype=np.uint64)
        b = np.array([1, 2, m], dtype=np.uint64)
        assert np.array_equal(ours(a, b), ref(a, b))


@settings(max_examples=150, deadline=None)
@given(
    a=st.lists(st.integers(0, 200), max_size=80),
    b=st.lists(st.integers(0, 200), max_size=80),
)
def test_property_equivalence(a, b):
    sa = np.unique(np.asarray(a, dtype=np.uint64))
    sb = np.unique(np.asarray(b, dtype=np.uint64))
    for ours, ref in PAIRS:
        assert np.array_equal(ours(sa, sb), ref(sa, sb))


_TOP = np.iinfo(np.uint64).max
UNIQUE_CASES = {
    "empty": np.empty(0, dtype=np.uint64),
    "single": np.array([7], dtype=np.uint64),
    "all-duplicate": np.full(50, 3, dtype=np.uint64),
    "near-max": np.array(
        [_TOP, 0, _TOP - 1, _TOP, 2**63, _TOP - 1, 2**63 - 1], dtype=np.uint64
    ),
    "int32-2d": np.array([[5, -1], [5, 2]], dtype=np.int32),
    "uint32-ids": np.array([907, 3, 2**32 - 2, 3, 0], dtype=np.uint32),
}


@pytest.mark.parametrize("a", list(UNIQUE_CASES.values()), ids=list(UNIQUE_CASES))
class TestUniqueAgainstNumpy:
    def test_unique_sorted(self, a):
        got, want = unique_sorted(a), np.unique(a)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_run_lengths(self, a):
        flat = np.sort(a, axis=None)
        values, counts = run_lengths(flat)
        want_values, want_counts = np.unique(a, return_counts=True)
        assert values.dtype == want_values.dtype
        assert counts.dtype == want_counts.dtype
        assert np.array_equal(values, want_values)
        assert np.array_equal(counts, want_counts)

    def test_group_runs(self, a):
        keys = a.ravel()
        order, values, bounds = group_runs(keys)
        assert np.array_equal(values, np.unique(keys))
        assert values.dtype == keys.dtype
        assert len(bounds) == len(values) + 1 and bounds[-1] == len(keys)
        for k, v in enumerate(values):
            # each group: that key's positions, in their original order
            assert np.array_equal(
                order[bounds[k] : bounds[k + 1]], np.flatnonzero(keys == v)
            )


def test_unique_sorted_leaves_input_untouched(rng):
    a = rng.integers(0, 100, 500).astype(np.uint64)
    before = a.copy()
    unique_sorted(a)
    assert np.array_equal(a, before)


@settings(max_examples=150, deadline=None)
@given(a=st.lists(st.integers(0, 2**64 - 1), max_size=120))
def test_unique_property(a):
    arr = np.asarray(a, dtype=np.uint64)
    assert np.array_equal(unique_sorted(arr), np.unique(arr))
    values, counts = run_lengths(np.sort(arr))
    want_values, want_counts = np.unique(arr, return_counts=True)
    assert np.array_equal(values, want_values)
    assert np.array_equal(counts, want_counts)
