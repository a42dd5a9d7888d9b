"""Tests for trace windows and code windows."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from repro._util.rng import derive_rng
from repro.core.parallel import ParallelEngine
from repro.core.windows import code_windows, trace_window_metrics, unique_per_group
from repro.obs.metrics import MetricsRegistry
from repro.trace.event import make_events

#: sparse, unsorted function ids: 0 and a near-2**32 id included
FN_IDS = np.array([907, 3, 2**32 - 2, 41, 0, 12], dtype=np.uint32)


class TestUniquePerGroup:
    def test_basic(self):
        groups = np.array([0, 0, 0, 1, 1])
        values = np.array([5, 5, 6, 7, 7])
        assert list(unique_per_group(groups, values, 2)) == [2, 1]

    def test_empty(self):
        assert list(unique_per_group(np.array([], int), np.array([], int), 3)) == [0, 0, 0]

    def test_mismatch(self):
        with pytest.raises(ValueError):
            unique_per_group(np.array([0]), np.array([], int), 1)


class TestTraceWindows:
    def test_footprint_per_window(self):
        # 2 windows of 4: [0,1,2,3] and [0,0,0,0]
        ev = make_events(ip=1, addr=[0, 1, 2, 3, 0, 0, 0, 0], cls=2)
        vals = trace_window_metrics(ev, 4)
        assert list(vals) == [4.0, 1.0]

    def test_df_metric(self):
        ev = make_events(ip=1, addr=[0, 0, 0, 0], cls=2)
        vals = trace_window_metrics(ev, 4, metric="dF")
        assert vals[0] == pytest.approx(0.25)

    def test_class_metrics(self):
        ev = make_events(ip=1, addr=[0, 8, 16, 24], cls=[1, 1, 2, 2])
        assert trace_window_metrics(ev, 4, metric="F_str")[0] == 2.0
        assert trace_window_metrics(ev, 4, metric="F_irr")[0] == 2.0

    def test_short_tail_dropped(self):
        ev = make_events(ip=1, addr=np.arange(10), cls=2)
        vals = trace_window_metrics(ev, 8, min_fill=0.5)
        assert len(vals) == 1  # the 2-record tail is below 4

    def test_windows_respect_sample_boundaries(self):
        ev = make_events(ip=1, addr=np.arange(8), cls=2)
        sid = np.array([0] * 4 + [1] * 4)
        vals = trace_window_metrics(ev, 4, sample_id=sid)
        assert len(vals) == 2

    def test_constant_unit_in_f(self):
        ev = make_events(ip=1, addr=[1, 2, 99, 98], cls=[2, 2, 0, 0])
        assert trace_window_metrics(ev, 4)[0] == 3.0

    def test_bad_args(self):
        ev = make_events(ip=1, addr=[1], cls=2)
        with pytest.raises(ValueError):
            trace_window_metrics(ev, 0)
        with pytest.raises(ValueError):
            trace_window_metrics(ev, 4, metric="bogus")

    def test_empty(self):
        ev = make_events(ip=1, addr=np.arange(0))
        assert len(trace_window_metrics(ev, 4)) == 0


class TestCodeWindows:
    def test_per_function_split(self):
        ev = make_events(ip=1, addr=[1, 2, 3, 4], cls=2, fn=[0, 0, 1, 1])
        out = code_windows(ev, fn_names={0: "alpha", 1: "beta"})
        assert set(out) == {"alpha", "beta"}
        assert out["alpha"].A_obs == 2

    def test_fallback_names(self):
        ev = make_events(ip=1, addr=[1], cls=2, fn=7)
        assert "fn7" in code_windows(ev)

    def test_rho_applied(self):
        ev = make_events(ip=1, addr=[1, 2], cls=2, fn=0)
        out = code_windows(ev, rho=5.0)
        assert out["fn0"].A_est == 10.0


@given(
    fns=st.lists(st.integers(0, 5), min_size=0, max_size=150),
    block=st.sampled_from([1, 64]),
    rho=st.floats(1.0, 100.0),
)
def test_code_windows_match_oracle(fns, block, rho):
    """Per-function windows equal the reference loop, bit for bit."""
    n = len(fns)
    ev = make_events(
        ip=1,
        addr=(np.arange(n, dtype=np.uint64) * 24) % 512,
        cls=np.arange(n) % 3,
        n_const=np.arange(n) % 2,
        fn=fns,
    )
    names = {0: "main", 3: "main"}  # a name collision: the highest id wins
    assert code_windows(ev, rho=rho, block=block, fn_names=names) == (
        oracles.code_windows(ev, rho=rho, block=block, fn_names=names)
    )


def _interleaved_trace(n=20_000, seed=0):
    """Function ids that interleave, recur out of order and skip chunks.

    Most records cycle through ``FN_IDS`` in a shuffled order, one id at
    a time; a late burst belongs to one id that appears nowhere else, so
    some chunks hold functions others lack.
    """
    rng = derive_rng(seed, "interleaved-windows")
    fn = FN_IDS[rng.permutation(np.arange(n) % (len(FN_IDS) - 1))]
    fn[3 * n // 4 : 3 * n // 4 + 50] = FN_IDS[-1]
    ev = make_events(
        ip=rng.integers(0x400000, 0x400100, n),
        addr=rng.integers(0, 1 << 14, n),
        cls=rng.choice([0, 1, 2], n, p=[0.2, 0.4, 0.4]).astype(np.uint8),
        n_const=rng.choice([0, 0, 3], n).astype(np.uint16),
        fn=fn,
    )
    sid = (np.arange(n) // 97).astype(np.int32)
    return ev, sid


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("chunk", [17, 257, 5000])
@pytest.mark.parametrize("block", [1, 64])
def test_windows_pass_on_interleaved_functions(workers, chunk, block):
    """The grouped windows pass equals the per-function oracle for any
    worker count and chunk size, on unsorted, non-contiguous fn ids.
    20K events: above the engine's inline threshold, so workers=4 runs
    the pool."""
    ev, sid = _interleaved_trace(seed=workers * 31 + chunk)
    names = {int(FN_IDS[0]): "main", int(FN_IDS[1]): "main", 41: "solve"}
    reg = MetricsRegistry()
    with ParallelEngine(workers=workers, chunk_size=chunk, metrics=reg) as eng:
        got = eng.run_passes(
            ev, [("windows", {"block": block})], sample_id=sid, rho=3.5,
            fn_names=names,
        )["windows"]
    pooled = reg.as_dict()["counters"].get("parallel.runs_pooled", {}).get("value", 0)
    assert pooled == (1 if workers > 1 and chunk < len(ev) else 0)
    want = oracles.code_windows(ev, rho=3.5, block=block, fn_names=names)
    assert list(got) == list(want)
    assert got == want
