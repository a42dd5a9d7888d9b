"""Tests for the execution interval tree and access-interval metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from repro._util.rng import derive_rng
from repro.core.interval_tree import ExecutionIntervalTree, access_interval_metrics
from repro.trace.collector import collect_sampled_trace
from repro.trace.event import make_events
from repro.trace.sampler import SamplingConfig


def _collection(n=4000, period=500, cap=50):
    ev = make_events(ip=1, addr=np.arange(n) % 256, cls=2, fn=(np.arange(n) // (n // 2)))
    cfg = SamplingConfig(period=period, buffer_capacity=cap, fill_mean=1.0, fill_jitter=0.0)
    return collect_sampled_trace(ev, config=cfg)


class TestBuild:
    def test_leaves_are_samples(self):
        col = _collection()
        tree = ExecutionIntervalTree.build(col, rho=10.0)
        assert len(tree.samples) == col.n_samples
        assert all(n.exact for n in tree.samples)

    def test_root_spans_everything(self):
        col = _collection()
        tree = ExecutionIntervalTree.build(col, rho=10.0)
        assert tree.root.t_start == tree.samples[0].t_start
        assert tree.root.t_end == tree.samples[-1].t_end
        assert not tree.root.exact

    def test_merged_metrics_are_estimates(self):
        col = _collection()
        tree = ExecutionIntervalTree.build(col, rho=10.0)
        # root sees all samples; estimated accesses scale with rho
        assert tree.root.diagnostics.A_est == pytest.approx(
            10.0 * len(col.events)
        )

    def test_function_leaf_nodes(self):
        col = _collection()
        tree = ExecutionIntervalTree.build(col, rho=10.0, fn_names={0: "a", 1: "b"})
        fns = {c.function for s in tree.samples for c in s.children}
        assert fns <= {"a", "b"}
        assert len(fns) >= 1

    def test_intra_splits(self):
        col = _collection()
        tree = ExecutionIntervalTree.build(col, rho=10.0, intra_splits=1)
        sample = tree.samples[0]
        assert len(sample.children) == 2
        assert all(c.level == -1 for c in sample.children)

    def test_empty_collection_rejected(self):
        ev = make_events(ip=1, addr=np.arange(0))
        cfg = SamplingConfig(period=10, buffer_capacity=4)
        col = collect_sampled_trace(ev, config=cfg)
        with pytest.raises(ValueError):
            ExecutionIntervalTree.build(col, rho=1.0)


def _leaves(node):
    if node.level == 0:
        return [node]
    return [leaf for child in node.children for leaf in _leaves(child)]


def _check_below(children, part, splits, block):
    """Nodes under a sample against the oracle, mirroring the halving."""
    if splits > 0 and len(part) >= 2:
        half = len(part) // 2
        assert len(children) == 2
        for child, sub in zip(children, (part[:half], part[half:])):
            assert child.diagnostics == oracles.diagnostics(sub, block=block)
            _check_below(child.children, sub, splits - 1, block)
        return
    fids = np.unique(part["fn"])
    assert [c.function for c in children] == [f"fn{int(f)}" for f in fids]
    for child, fid in zip(children, fids):
        sub = part[part["fn"] == fid]
        assert child.diagnostics == oracles.diagnostics(sub, block=block)


class TestBuildMatchesOracle:
    @given(
        n=st.integers(1, 3000),
        period=st.integers(20, 400),
        cap=st.integers(1, 64),
        intra_splits=st.sampled_from([0, 1, 2]),
        block=st.sampled_from([1, 64]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_merged_nodes_equal_concatenated_leaves(
        self, n, period, cap, intra_splits, block, seed
    ):
        rng = derive_rng(seed, "interval-tree-oracle")
        ev = make_events(
            ip=1,
            addr=rng.integers(0, 1 << 12, n),
            cls=rng.integers(0, 3, n).astype(np.uint8),
            n_const=rng.choice([0, 0, 2], n).astype(np.uint16),
            fn=rng.integers(0, 4, n),
        )
        cfg = SamplingConfig(
            period=period, buffer_capacity=cap, fill_jitter=0.3, seed=seed
        )
        col = collect_sampled_trace(ev, config=cfg)
        samples = [s for s in col.samples() if len(s)]
        if not samples:
            return
        rho = 1.0 + seed / 7
        tree = ExecutionIntervalTree.build(
            col, rho=rho, block=block, intra_splits=intra_splits
        )
        events_of = {id(leaf): s for leaf, s in zip(tree.samples, samples)}
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.level > 0:
                ev_node = np.concatenate([events_of[id(x)] for x in _leaves(node)])
                assert node.diagnostics == oracles.diagnostics(
                    ev_node, rho=rho, block=block
                )
                stack.extend(node.children)
        for leaf, sample in zip(tree.samples, samples):
            assert leaf.diagnostics == oracles.diagnostics(sample, block=block)
            _check_below(leaf.children, sample, intra_splits, block)


@pytest.mark.parametrize("cap", [17, 257, 5000])
@pytest.mark.parametrize("block", [1, 64])
def test_function_leaves_on_interleaved_functions(cap, block):
    """Function leaves group each sample by fn once; on sparse, unsorted,
    interleaved ids every leaf equals the oracle over that function's
    records, in ascending id, spanning its first to its last record."""
    rng = derive_rng(cap, "interval-tree-interleaved")
    n = 30_000  # several samples even at cap 5000
    fn_ids = np.array([907, 3, 2**32 - 2, 41, 0], dtype=np.uint32)
    ev = make_events(
        ip=1,
        addr=rng.integers(0, 1 << 12, n),
        cls=rng.integers(0, 3, n).astype(np.uint8),
        n_const=rng.choice([0, 0, 2], n).astype(np.uint16),
        fn=fn_ids[rng.permutation(np.arange(n) % len(fn_ids))],
    )
    cfg = SamplingConfig(period=2 * cap + 7, buffer_capacity=cap, fill_jitter=0.3)
    col = collect_sampled_trace(ev, config=cfg)
    tree = ExecutionIntervalTree.build(col, rho=2.0, block=block)
    samples = [s for s in col.samples() if len(s)]
    assert len(samples) == len(tree.samples) > 1
    for leaf, sample in zip(tree.samples, samples):
        _check_below(leaf.children, sample, 0, block)
        for child, fid in zip(leaf.children, np.unique(sample["fn"])):
            t = sample["t"][sample["fn"] == fid]
            assert (child.t_start, child.t_end) == (int(t[0]), int(t[-1]) + 1)


class TestZoom:
    def test_zoom_path_descends(self):
        col = _collection()
        tree = ExecutionIntervalTree.build(col, rho=10.0)
        path = tree.zoom()
        assert path[0] is tree.root
        assert len(path) >= 2
        for parent, child in zip(path, path[1:]):
            assert child in parent.children

    def test_max_depth(self):
        col = _collection()
        tree = ExecutionIntervalTree.build(col, rho=10.0)
        assert len(tree.zoom(max_depth=1)) == 2

    def test_custom_criterion(self):
        col = _collection()
        tree = ExecutionIntervalTree.build(col, rho=10.0)
        path = tree.zoom(criterion=lambda n: -n.t_start)  # always leftmost
        assert path[1] is tree.root.children[0]


class TestAccessIntervals:
    def test_row_count_and_fields(self):
        ev = make_events(ip=1, addr=np.arange(800), cls=2)
        rows = access_interval_metrics(ev, 8)
        assert len(rows) == 8
        assert {"interval", "F", "dF", "D", "A"} <= set(rows[0])

    def test_equal_record_counts(self):
        ev = make_events(ip=1, addr=np.arange(100), cls=2)
        rows = access_interval_metrics(ev, 4)
        assert all(r["A_obs"] == 25 for r in rows)

    def test_locality_shift_detected(self):
        # first half streams, second half hammers one block
        addr = np.concatenate([np.arange(500) * 64, np.zeros(500)])
        ev = make_events(ip=1, addr=addr, cls=2)
        rows = access_interval_metrics(ev, 2)
        assert rows[0]["dF"] > rows[1]["dF"]

    def test_bad_args(self):
        ev = make_events(ip=1, addr=np.arange(4))
        with pytest.raises(ValueError):
            access_interval_metrics(ev, 0)
