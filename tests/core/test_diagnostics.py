"""Tests for footprint access diagnostics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from repro.core.diagnostics import compute_diagnostics
from repro.trace.event import make_events


def _mixed():
    return make_events(
        ip=1,
        addr=[0, 8, 16, 100, 100, 999],
        cls=[1, 1, 1, 2, 2, 0],
        n_const=[0, 0, 0, 0, 0, 1],
    )


class TestFields:
    def test_access_counts(self):
        d = compute_diagnostics(_mixed())
        assert d.A_obs == 6
        assert d.A_implied == 7  # one suppressed constant
        assert d.A_est == 7.0

    def test_rho_scaling(self):
        d = compute_diagnostics(_mixed(), rho=10.0)
        assert d.A_est == 70.0
        assert d.F_est == 10.0 * d.F

    def test_footprints(self):
        d = compute_diagnostics(_mixed())
        assert d.F_str == 3
        assert d.F_irr == 1
        assert d.F == 5  # 4 data blocks + 1 constant unit

    def test_percentages(self):
        d = compute_diagnostics(_mixed())
        assert d.F_str_pct == pytest.approx(75.0)
        assert d.F_irr_pct == pytest.approx(25.0)
        assert d.F_str_pct + d.F_irr_pct == pytest.approx(100.0)
        assert d.dF_str_pct == pytest.approx(75.0)

    def test_const_fraction(self):
        d = compute_diagnostics(_mixed())
        # 1 recorded + 1 suppressed constant over 7 implied accesses
        assert d.A_const_pct == pytest.approx(100 * 2 / 7)

    def test_growth(self):
        d = compute_diagnostics(_mixed())
        assert d.dF == pytest.approx(5 / 7)

    def test_empty(self):
        d = compute_diagnostics(make_events(ip=1, addr=np.arange(0)))
        assert d.F == 0 and d.dF == 0.0 and d.F_str_pct == 0.0

    def test_rho_validated(self):
        with pytest.raises(ValueError):
            compute_diagnostics(_mixed(), rho=0.1)

    def test_block_size(self):
        d = compute_diagnostics(_mixed(), block=64)
        assert d.F_str == 1  # 0, 8, 16 collapse


@given(
    cls=st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=100),
)
def test_class_footprints_bound_total(cls):
    """Property: F_str + F_irr + const-unit bounds F from above and below."""
    n = len(cls)
    ev = make_events(ip=1, addr=np.arange(n) * 8, cls=cls)
    d = compute_diagnostics(ev)
    has_const = int(any(c == 0 for c in cls))
    # addresses are distinct, so class footprints partition exactly here
    assert d.F == d.F_str + d.F_irr + has_const
    assert 0 <= d.A_const_pct <= 100
    assert 0 <= d.F_str_pct <= 100


@given(
    records=st.lists(
        st.tuples(st.integers(0, 1 << 14), st.sampled_from([0, 1, 2]), st.integers(0, 3)),
        max_size=200,
    ),
    block=st.sampled_from([1, 64, 4096]),
    rho=st.floats(1.0, 1e4),
)
def test_matches_oracle(records, block, rho):
    """compute_diagnostics equals the reference bundle, bit for bit."""
    addr, cls, n_const = (list(col) for col in zip(*records)) if records else ([], [], [])
    ev = make_events(ip=1, addr=np.asarray(addr, dtype=np.uint64), cls=cls, n_const=n_const)
    assert compute_diagnostics(ev, rho=rho, block=block) == oracles.diagnostics(
        ev, rho=rho, block=block
    )
