"""Tests for undersampling detection."""

import numpy as np

from repro.core.confidence import code_window_confidence, flag_undersampled
from repro.trace.collector import collect_sampled_trace
from repro.trace.event import make_events
from repro.trace.sampler import SamplingConfig


def _collection(rare_in_one_sample=True):
    """fn0 everywhere; fn1 only inside one short burst."""
    n = 50_000
    fn = np.zeros(n, dtype=np.uint32)
    if rare_in_one_sample:
        fn[30_900:31_100] = 1  # a 200-load burst caught by one window
    ev = make_events(ip=1 + fn, addr=np.arange(n) % 999, cls=2, fn=fn)
    cfg = SamplingConfig(period=1000, buffer_capacity=200, fill_jitter=0.0, fill_mean=0.5)
    return collect_sampled_trace(ev, config=cfg)


class TestConfidence:
    def test_steady_function_confident(self):
        conf = code_window_confidence(_collection(), {0: "steady", 1: "burst"})
        assert not conf["steady"].undersampled
        assert conf["steady"].relative_error < 0.1

    def test_bursty_function_flagged(self):
        conf = code_window_confidence(_collection(), {0: "steady", 1: "burst"})
        assert conf["burst"].undersampled
        assert conf["burst"].n_samples_present < 5

    def test_ci_contains_truth_for_steady(self):
        col = _collection()
        conf = code_window_confidence(col, {0: "steady", 1: "burst"})
        lo, hi = conf["steady"].ci95
        true_a = 49_800  # fn0's true load count
        assert lo <= true_a * 1.1 and hi >= true_a * 0.9

    def test_flag_list(self):
        flagged = flag_undersampled(_collection(), {0: "steady", 1: "burst"})
        assert flagged == ["burst"]

    def test_thresholds_adjustable(self):
        col = _collection()
        conf = code_window_confidence(
            col, {0: "steady", 1: "burst"}, min_samples=1, max_relative_error=100.0
        )
        assert not conf["burst"].undersampled

    def test_empty_collection(self):
        ev = make_events(ip=1, addr=np.arange(0))
        cfg = SamplingConfig(period=10, buffer_capacity=4)
        col = collect_sampled_trace(ev, config=cfg)
        assert code_window_confidence(col) == {}

    def test_samples_present_counts(self):
        conf = code_window_confidence(_collection(), {0: "steady", 1: "burst"})
        c = conf["steady"]
        # present in every sample except the one the burst fully occupies
        assert c.n_samples_present >= c.n_samples_total - 1


class TestConfidenceOracle:
    def test_sparse_unsorted_ids_are_bit_identical_to_the_masked_loop(self, rng):
        import oracles

        n = 60_000
        fn = rng.choice(np.array([4_000_000, 9, 77, 1, 250], dtype=np.uint32), size=n)
        ev = make_events(
            ip=1 + fn,
            addr=rng.integers(0, 5_000, size=n),
            cls=rng.integers(0, 3, size=n),
            fn=fn,
            n_const=rng.integers(0, 4, size=n),
        )
        cfg = SamplingConfig(period=1000, buffer_capacity=150, fill_jitter=0.2, seed=3)
        col = collect_sampled_trace(ev, config=cfg)
        names = {9: "nine", 250: "two-fifty"}
        got = code_window_confidence(col, names)
        want = oracles.code_window_confidence(col, names)
        assert list(got) == list(want)
        for name in want:  # dataclass equality compares floats exactly
            assert got[name] == want[name]
