"""Per-stream session state for the streaming analysis service.

A :class:`ServeSession` owns one client stream's growing trace: the
in-memory event arrays, the on-disk archive they are flushed to, and the
analysis freshness loop. Every accepted chunk

1. appends to the in-memory arrays,
2. **atomically rewrites** the session archive
   (:func:`repro.trace.tracefile.write_trace` with ``atomic=True``), so
   concurrent readers — live queries, an offline ``memgaze report``, a
   crashing daemon's survivors — only ever see complete archives, and
3. drives :meth:`ParallelEngine.analyze_file` over the archive, which
   warms the content-addressed :class:`~repro.core.artifacts.ArtifactStore`
   under the archive's *new* digest via the prefix-incremental path:
   only the appended tail is scanned, the cached prefix partials merge
   in, and — every byte having been checked against the health CRCs on
   the way — the published archive is recorded as verified.

A query then goes through the same digest-first
:func:`repro.core.report.archive_results` path the offline CLI uses: the
archive hashes to its verified record, the partials are in the store,
so nothing is decoded or scanned, and the resulting JSON payload is
byte-identical to ``memgaze report --json`` over the same archive.

The :class:`SessionManager` maps stream names to sessions; it does no
locking because it never needs any. Each shard worker process of the
daemon (:mod:`repro.serve.shard`) owns one manager over the shared
``sessions/`` directory, every session is routed to exactly one worker
(``crc32(name) % serve_workers``), and that worker executes the
session's ingests and queries strictly in arrival order — which is what
makes "the archive never changes mid-query" true. Re-opening a session
rehydrates its on-disk archive *in whichever worker owns the name*, so
the ownership survives daemon restarts, worker crashes, and
``--serve-workers`` changes (the route moves, the archive follows).
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from repro.core.report import (
    FULL_REPORT_PASSES,
    archive_results,
    full_report_payload,
    passes_payload,
    viz_report_payload,
)
from repro.trace.loader import load_trace_collection
from repro.trace.tracefile import TraceMeta, write_trace

__all__ = ["ServeSession", "SessionManager"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$")


def _check_name(name: str) -> str:
    """Session names become file names; reject anything path-like."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(
            f"invalid session name {name!r}: use letters, digits, '.', '_', "
            "'-' (max 100 chars, no leading '.')"
        )
    return name


class ServeSession:
    """One client stream: a growing archive plus its analysis freshness."""

    def __init__(self, name: str, root: Path, meta: TraceMeta, journal=None) -> None:
        self.name = _check_name(name)
        self.archive = root / f"{self.name}.npz"
        self.meta = meta
        self.journal = journal
        self._events: list[np.ndarray] = []
        self._sids: list[np.ndarray] | None = []
        self.n_chunks = 0
        self.n_events = 0
        #: how the last freshness analysis ran ("incremental" after the
        #: first chunk, when appends start new samples)
        self.last_mode: str | None = None
        self.last_skipped = 0
        self.closed = False

    def rehydrate(self) -> bool:
        """Adopt an existing session archive (re-attach after a close).

        Returns True when an archive was found and loaded: its events,
        sample ids, and metadata replace the open request's, so appends
        extend the stored trace and queries work immediately. The
        adopted events count as one prior chunk.
        """
        if not self.archive.exists():
            return False
        from repro.trace.tracefile import read_trace

        events, meta, sample_id = read_trace(self.archive)
        self.meta = meta
        self._events = [events]
        self._sids = None if sample_id is None else [sample_id]
        self.n_chunks = 1
        self.n_events = int(len(events))
        return True

    # -- ingest (called inside the session's owning shard worker) --------------

    def ingest(self, events: np.ndarray, sample_id: np.ndarray | None, engine) -> dict:
        """Append one chunk, publish the archive, refresh the analysis.

        Returns a small summary dict for the journal/ack. A chunk with
        no sample ids degrades the whole session to sid-less (reuse
        becomes chunk-scoped, incremental re-analysis stops matching) —
        journaled once, on the degrading chunk.
        """
        events = np.asarray(events)
        # write_trace validates the chunk (dtype, load-class codes) before
        # publishing; nothing is committed until it succeeds, so a
        # rejected chunk leaves the session as it was
        new_events = self._events + [events]
        new_sids = None
        degrades = self._sids is not None and sample_id is None
        if self._sids is not None and sample_id is not None:
            new_sids = self._sids + [np.asarray(sample_id, dtype=np.int32)]
        write_trace(
            self.archive,
            np.concatenate(new_events),
            self.meta,
            None if new_sids is None else np.concatenate(new_sids),
            atomic=True,
        )
        if degrades and self.n_chunks and self.journal is not None:
            self.journal.warning(
                "chunk carries no sample ids: session archive "
                "degrades to sid-less (chunk-scoped reuse, no "
                "incremental re-analysis)",
                chunk=self.n_chunks,
            )
        self._events, self._sids = new_events, new_sids
        self.n_chunks += 1
        self.n_events += int(len(events))

        analysis = engine.analyze_file(self.archive)
        self.last_mode = analysis.mode
        self.last_skipped = analysis.skipped_events
        return {
            "chunk": self.n_chunks,
            "n_events": self.n_events,
            "mode": analysis.mode,
            "skipped_events": analysis.skipped_events,
        }

    # -- query (same shard worker, so the archive is stable) -------------------

    def query(self, passes: list[str] | None, engine, viz: bool = False) -> tuple[dict, dict]:
        """Analyze the archive as it stands; returns ``(info, payload)``.

        ``passes=None`` builds the full-report payload; a list of names
        builds the ``--passes`` payload; ``viz=True`` builds the
        visual-report payload (:func:`repro.core.report.
        viz_report_payload`) the daemon's dashboard renders. Either way
        the archive goes through the same path the offline CLI uses,
        keyed by the archive's content digest — so partials warmed by
        ingest are reused (for a non-viz query, without decoding the
        archive) and the payload is byte-identical to the offline report.
        """
        if self.n_chunks == 0:
            raise ValueError("session has no ingested chunks yet")

        def load(path):
            return load_trace_collection(path, journal=self.journal)

        if viz:
            loaded = load(self.archive)
            store = engine.store
            payload = viz_report_payload(
                loaded,
                engine,
                store_key=None if store is None else store.admit(loaded, self.archive),
            )
        else:
            trace, results = archive_results(
                self.archive,
                FULL_REPORT_PASSES if passes is None else list(passes),
                engine,
                load=load,
            )
            payload = (
                full_report_payload(trace, results)
                if passes is None
                else passes_payload(trace, passes, results)
            )
        info = {
            "session": self.name,
            "n_chunks": self.n_chunks,
            "n_events": self.n_events,
            "mode": self.last_mode,
            "skipped_events": self.last_skipped,
        }
        return info, payload

    def summary(self) -> dict:
        """Closing summary for the ``close`` ack and the journal."""
        return {
            "session": self.name,
            "archive": str(self.archive),
            "n_chunks": self.n_chunks,
            "n_events": self.n_events,
            "mode": self.last_mode,
        }


class SessionManager:
    """Name → session map plus the shared archive directory."""

    def __init__(self, root, journal=None, metrics=None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal = journal
        self.metrics = metrics
        self.sessions: dict[str, ServeSession] = {}

    def open(self, name: str, meta: TraceMeta) -> ServeSession:
        """Create (or re-attach to) the named session.

        A name whose archive already exists on disk — a previous daemon
        run, or a session closed earlier in this one — is *re-attached*:
        the archive's own events and metadata are rehydrated so new
        appends extend the existing trace instead of shadowing it.
        """
        existing = self.sessions.get(name)
        if existing is not None:
            return existing
        bound = self.journal.bind(session=name) if self.journal is not None else None
        session = ServeSession(name, self.root, meta, journal=bound)
        rehydrated = session.rehydrate()
        self.sessions[name] = session
        if self.metrics is not None:
            self.metrics.gauge("serve.sessions_active").set(len(self.sessions))
        if bound is not None:
            bound.emit(
                "session-open",
                archive=str(session.archive),
                rehydrated=rehydrated,
                n_events=session.n_events,
            )
        return session

    def get(self, name: str) -> ServeSession:
        session = self.sessions.get(name)
        if session is None:
            raise KeyError(f"no open session named {name!r}")
        return session

    def close(self, name: str) -> dict:
        """Detach a session; its archive stays on disk, valid."""
        session = self.get(name)
        session.closed = True
        info = session.summary()
        del self.sessions[name]
        if self.metrics is not None:
            self.metrics.gauge("serve.sessions_active").set(len(self.sessions))
        if session.journal is not None:
            session.journal.emit("session-close", **info)
        return info

    def close_all(self) -> list[dict]:
        """Drain every remaining session (graceful-shutdown path)."""
        return [self.close(name) for name in list(self.sessions)]
