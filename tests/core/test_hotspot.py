"""Tests for hotspot analysis and ROI construction."""

import numpy as np
import pytest

from repro.core.hotspot import (
    find_hotspots,
    function_ranges,
    roi_from_hotspots,
)
from repro.trace.event import make_events


def _skewed_events():
    """fn0: 70%, fn1: 25%, fn2: 5% of accesses."""
    fn = np.concatenate([np.zeros(700), np.ones(250), np.full(50, 2)]).astype(np.uint32)
    ip = 0x400000 + fn * 0x10000 + 4
    return make_events(ip=ip, addr=np.arange(1000), cls=2, fn=fn)


class TestFindHotspots:
    def test_ranking(self):
        hs = find_hotspots(_skewed_events(), {0: "hot", 1: "warm", 2: "cold"})
        assert hs[0].function == "hot"
        assert hs[0].share == pytest.approx(0.70)

    def test_coverage_cutoff(self):
        hs = find_hotspots(_skewed_events(), coverage=0.65)
        assert len(hs) == 1
        hs = find_hotspots(_skewed_events(), coverage=0.90)
        assert len(hs) == 2

    def test_max_functions(self):
        hs = find_hotspots(_skewed_events(), coverage=1.0, max_functions=2)
        assert len(hs) == 2

    def test_suppressed_constants_weighted(self):
        ev = make_events(ip=[1, 2], addr=[1, 2], cls=2, fn=[0, 1], n_const=[100, 0])
        hs = find_hotspots(ev)
        assert hs[0].fn_id == 0

    def test_empty(self):
        assert find_hotspots(make_events(ip=1, addr=np.arange(0))) == []

    def test_bad_coverage(self):
        with pytest.raises(ValueError):
            find_hotspots(_skewed_events(), coverage=0.0)


class TestRoi:
    def test_function_ranges(self):
        ranges = function_ranges(_skewed_events())
        assert set(ranges) == {0, 1, 2}
        lo, hi = ranges[0]
        assert lo <= 0x400004 < hi

    def test_roi_covers_top_functions(self):
        ev = _skewed_events()
        hs = find_hotspots(ev, coverage=0.9)
        roi = roi_from_hotspots(hs, ev)
        # every access of the top-2 functions is admitted
        hot_ips = ev["ip"][(ev["fn"] == 0) | (ev["fn"] == 1)]
        assert roi.contains(hot_ips).all()
        # cold function excluded
        cold_ips = ev["ip"][ev["fn"] == 2]
        assert not roi.contains(cold_ips).any()

    def test_roi_top_limit(self):
        ev = _skewed_events()
        hs = find_hotspots(ev, coverage=1.0)
        roi = roi_from_hotspots(hs, ev, top=1)
        assert len(roi.ranges) == 1


class TestFunctionRangesOracle:
    def test_sparse_unsorted_ids_match_the_masked_loop(self, rng):
        import oracles

        n = 20_000
        fn = rng.choice(np.array([90_001, 3, 517, 12, 0], dtype=np.uint32), size=n)
        ip = rng.integers(0x400000, 0x500000, size=n).astype(np.uint64)
        ev = make_events(ip=ip, addr=np.arange(n), cls=2, fn=fn)
        assert function_ranges(ev) == oracles.function_ranges(ev)

    def test_empty_trace(self):
        assert function_ranges(make_events(ip=[], addr=[], cls=2, fn=[])) == {}
