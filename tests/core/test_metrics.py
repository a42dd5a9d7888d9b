"""Unit and property tests for footprint metrics (Eq. 3 quantities)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from repro.core.metrics import (
    block_ids,
    captures_survivals,
    estimated_footprint,
    footprint,
    footprint_by_class,
    nonconstant,
)
from repro.trace.event import LoadClass, make_events


def _ev(addrs, cls=LoadClass.IRREGULAR, n_const=0):
    return make_events(ip=1, addr=np.asarray(addrs, dtype=np.uint64), cls=cls, n_const=n_const)


class TestBlockIds:
    def test_byte_granularity(self):
        ev = _ev([0, 1, 64])
        assert list(block_ids(ev, 1)) == [0, 1, 64]

    def test_cache_line_granularity(self):
        ev = _ev([0, 63, 64, 127, 128])
        assert list(block_ids(ev, 64)) == [0, 0, 1, 1, 2]

    def test_non_power_rejected(self):
        with pytest.raises(ValueError):
            block_ids(_ev([0]), 48)


class TestFootprint:
    def test_unique_addresses(self):
        assert footprint(_ev([1, 2, 2, 3])) == 3

    def test_blocks_collapse(self):
        assert footprint(_ev([0, 8, 16]), block=64) == 1

    def test_empty(self):
        assert footprint(_ev([])) == 0

    def test_constant_counts_one_unit(self):
        ev = make_events(
            ip=1, addr=[10, 20, 999, 998], cls=[2, 2, 0, 0]
        )
        # two irregular addresses + one unit for all constants
        assert footprint(ev) == 3

    def test_suppressed_constants_count_one_unit(self):
        ev = _ev([10], n_const=4)
        assert footprint(ev) == 2

    def test_by_class_decomposition(self):
        ev = make_events(ip=1, addr=[1, 2, 2, 3], cls=[1, 1, 2, 0])
        by = footprint_by_class(ev)
        assert by[LoadClass.STRIDED] == 2
        assert by[LoadClass.IRREGULAR] == 1
        assert by[LoadClass.CONSTANT] == 1

    def test_shared_block_counts_in_both_classes(self):
        ev = make_events(ip=1, addr=[5, 5], cls=[1, 2])
        by = footprint_by_class(ev)
        assert by[LoadClass.STRIDED] == 1
        assert by[LoadClass.IRREGULAR] == 1


class TestCapturesSurvivals:
    def test_split(self):
        c, s = captures_survivals(_ev([1, 1, 2, 3, 3, 3, 4]))
        assert (c, s) == (2, 2)

    def test_constants_excluded(self):
        ev = make_events(ip=1, addr=[7, 7, 9], cls=[2, 2, 0])
        assert captures_survivals(ev) == (1, 0)

    def test_sum_is_nonconstant_footprint(self):
        ev = _ev([1, 2, 2, 9, 9, 9])
        c, s = captures_survivals(ev)
        assert c + s == footprint(ev)


class TestEstimatedFootprint:
    def test_intra_exact(self):
        assert estimated_footprint(_ev([1, 2]), rho=10.0, intra=True) == 2.0

    def test_inter_scaled(self):
        assert estimated_footprint(_ev([1, 2]), rho=10.0, intra=False) == 20.0

    def test_rho_validated(self):
        with pytest.raises(ValueError):
            estimated_footprint(_ev([1]), rho=0.5)


class TestNonconstant:
    def test_filters(self):
        ev = make_events(ip=1, addr=[1, 2, 3], cls=[0, 1, 2])
        assert len(nonconstant(ev)) == 2


@given(addrs=st.lists(st.integers(0, 1000), max_size=200))
def test_footprint_invariants(addrs):
    """Properties: F <= accesses; F monotone under concatenation; block
    coarsening never increases F."""
    ev = _ev(addrs)
    f1 = footprint(ev, 1)
    assert f1 <= len(addrs)
    assert footprint(ev, 64) <= f1
    if addrs:
        prefix = _ev(addrs[: len(addrs) // 2])
        assert footprint(prefix) <= f1
    c, s = captures_survivals(ev)
    assert c + s == f1


@given(
    records=st.lists(
        st.tuples(st.integers(0, 1 << 14), st.sampled_from([0, 1, 2]), st.integers(0, 3)),
        max_size=200,
    ),
    block=st.sampled_from([1, 8, 64, 4096]),
)
def test_serial_metrics_match_oracle(records, block):
    """The pass-backed serial metrics equal the np.unique reference."""
    addr, cls, n_const = (list(col) for col in zip(*records)) if records else ([], [], [])
    ev = make_events(ip=1, addr=np.asarray(addr, dtype=np.uint64), cls=cls, n_const=n_const)
    assert footprint(ev, block) == oracles.footprint(ev, block)
    assert footprint_by_class(ev, block) == oracles.footprint_by_class(ev, block)
    assert captures_survivals(ev, block) == oracles.captures_survivals(ev, block)
