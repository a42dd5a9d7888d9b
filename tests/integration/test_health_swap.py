"""A health record that belongs to other events must never be trusted.

Archive B carries archive A's ``meta`` and ``health`` members but
different events from the second health chunk on. ``validate-trace``
calls that a bit-flip, so every analysis path must agree: ``report``
analyzes B's verified prefix, the cache never serves A's results for B,
and scanning B never writes B's numbers under A's content digest. Warm
must equal cold on B, and A's cache entries must stay A's.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro._util.rng import derive_rng
from repro.cli import main
from repro.core.artifacts import ArtifactStore
from repro.core.parallel import ParallelEngine
from repro.core.report import FULL_REPORT_PASSES, full_report_payload, payload_json
from repro.serve.session import SessionManager
from repro.trace.event import make_events
from repro.trace.health import KIND_BIT_FLIP, validate
from repro.trace.loader import load_trace_collection
from repro.trace.tracefile import HEALTH_CHUNK_EVENTS, TraceMeta, write_trace

N_EVENTS = 2 * HEALTH_CHUNK_EVENTS + 5_000


@pytest.fixture(scope="module")
def archives(tmp_path_factory, test_seed):
    """``(A, B)``: B = A's meta + health members over other events."""
    root = tmp_path_factory.mktemp("swap")
    gen = derive_rng(test_seed, "health-swap")
    fn = gen.integers(0, 4, N_EVENTS).astype(np.uint32)
    ev_a = make_events(
        ip=0x400000 + fn * 0x100,
        addr=gen.integers(0, 1 << 20, N_EVENTS) * 8,
        cls=gen.integers(0, 3, N_EVENTS),
        fn=fn,
    )
    sid = (np.arange(N_EVENTS) // 997).astype(np.int32)
    meta = TraceMeta(
        module="swap",
        period=5_000,
        buffer_capacity=997,
        n_loads_total=5 * N_EVENTS,
        n_samples=int(sid[-1]) + 1,
        extra={"fn_names": {"0": "f0", "1": "f1", "2": "f2", "3": "f3"}},
    )
    a = root / "a.npz"
    write_trace(a, ev_a, meta, sid)
    ev_b = ev_a.copy()
    tail = slice(HEALTH_CHUNK_EVENTS, None)
    ev_b["addr"][tail] = ev_b["addr"][tail][::-1] + np.uint64(1 << 24)
    with np.load(a) as za:
        members = {"meta": za["meta"], "health": za["health"]}
    b = root / "b.npz"
    np.savez_compressed(b, **members, events=ev_b, sample_id=sid)
    return a, b


def _report(capsys, path, *flags) -> tuple[int, str]:
    capsys.readouterr()
    rc = main(["report", str(path), "--json", *flags])
    return rc, capsys.readouterr().out


def test_validate_and_load_agree_that_b_is_damaged(archives):
    _, b = archives
    report = validate(b)
    assert not report.ok
    assert [f.kind for f in report.findings] == [KIND_BIT_FLIP]
    loaded = load_trace_collection(b)
    assert not loaded.clean and loaded.health is None and loaded.sha256 is None
    assert len(loaded.collection.events) == HEALTH_CHUNK_EVENTS


def test_report_warm_equals_cold_and_a_stays_intact(archives, tmp_path, capsys):
    a, b = archives
    cache = str(tmp_path / "cache")
    _, cold_a = _report(capsys, a, "--no-cache")
    _, cold_b = _report(capsys, b, "--no-cache")
    assert cold_a != cold_b
    assert json.loads(cold_b)["n_events"] == HEALTH_CHUNK_EVENTS
    assert _report(capsys, a, "--cache-dir", cache)[1] == cold_a  # warm the cache
    for _ in range(2):  # first B run with A's entries present, then again
        assert _report(capsys, b, "--cache-dir", cache)[1] == cold_b
    assert _report(capsys, a, "--cache-dir", cache)[1] == cold_a


def test_matrix_cell_scan_of_b_never_writes_under_a(archives, tmp_path):
    a, b = archives
    store = ArtifactStore(tmp_path / "cache")
    digest_a = ArtifactStore.archive_digest(a)
    assert ArtifactStore.archive_digest(b) == digest_a  # the swapped record

    def cell(path, store):
        engine = ParallelEngine(workers=1, store=store)
        res = engine.analyze_file(path, passes=["hotspot", "windows"])
        return res.mode, res.digest, res.diagnostics, res.pass_results["windows"]

    cold_a, cold_b = cell(a, None), cell(b, None)
    assert cell(a, store)[0] == "full"
    assert cell(a, store)[0] == "cached"
    for _ in range(2):
        mode, digest, *rest = cell(b, store)
        assert (mode, digest) == ("full", None)  # never cached, never addressed
        assert rest == list(cold_b[2:])
    mode, digest, *rest = cell(a, store)
    assert (mode, digest) == ("cached", digest_a)
    assert rest == list(cold_a[2:])


def test_serve_session_over_b_matches_offline(archives, tmp_path, capsys):
    a, b = archives
    _, cold_b = _report(capsys, b, "--no-cache")
    _, cold_a = _report(capsys, a, "--no-cache")
    root = tmp_path / "sessions"
    root.mkdir()
    (root / "swapped.npz").write_bytes(b.read_bytes())
    store = ArtifactStore(tmp_path / "cache")
    engine = ParallelEngine(workers=1, store=store)
    # warm the store with A first, so B's claimed digest has entries
    loaded_a = load_trace_collection(a)
    results = engine.run_passes(
        loaded_a.collection.events,
        FULL_REPORT_PASSES,
        sample_id=loaded_a.collection.sample_id,
        rho=loaded_a.summary().rho,
        fn_names=loaded_a.fn_names,
        store_key=store.admit(loaded_a, a),
    )
    assert payload_json(full_report_payload(loaded_a.summary(), results)) + "\n" == cold_a
    session = SessionManager(root).open("swapped", TraceMeta())
    for _ in range(2):
        _, payload = session.query(None, engine)
        assert payload_json(payload) + "\n" == cold_b
    assert _report(capsys, a, "--cache-dir", str(tmp_path / "cache"))[1] == cold_a
