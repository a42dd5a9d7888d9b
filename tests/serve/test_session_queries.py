"""Session queries take the digest-first path and retain nothing.

Each ingest's incremental scan checks every byte of the archive it
publishes against the health CRCs, so the archive is recorded as
verified: a query for passes the ingest already analyzed is built from
the store without decoding the archive, and equals the offline
``report --json`` over the same bytes. Queries keep no partials in the
engine's in-memory LRU, so a long-lived daemon does not grow with them.
"""

from __future__ import annotations

import numpy as np

import repro.serve.session as session_mod
from repro.cli import main
from repro.core.artifacts import ArtifactStore
from repro.core.parallel import ParallelEngine
from repro.core.report import payload_json
from repro.serve.session import SessionManager


def test_fresh_queries_skip_decode_and_match_offline(
    build_archive, tmp_path, rng, capsys, monkeypatch
):
    events, sample_id, meta = build_archive(tmp_path / "src.npz", rng, n_samples=12)
    engine = ParallelEngine(workers=1, store=ArtifactStore(tmp_path / "cache"))
    session = SessionManager(tmp_path / "sessions").open("live", meta)
    bounds = np.searchsorted(sample_id, [0, 4, 8, 12])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        session.ingest(events[lo:hi], sample_id[lo:hi], engine)
        with monkeypatch.context() as m:
            m.setattr(session_mod, "load_trace_collection", None)  # any decode fails
            _, payload = session.query(["diagnostics", "captures", "reuse"], engine)
        main(["report", str(session.archive), "--json", "--no-cache",
              "--passes", "diagnostics,captures,reuse"])
        assert payload_json(payload) + "\n" == capsys.readouterr().out
        _, full = session.query(None, engine)  # decodes once, then cached
        main(["report", str(session.archive), "--json", "--no-cache"])
        assert payload_json(full) + "\n" == capsys.readouterr().out
    assert len(engine.cache) == 0
