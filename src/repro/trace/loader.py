"""Shared archive loader: eager read with graceful degraded modes.

Both the CLI (``memgaze report`` / ``info`` / ``diff``) and the
streaming service's query path load archives into a
:class:`~repro.trace.collector.CollectionResult` the same way — this
module is that single way, so live query results can be bit-identical
to an offline report over the same bytes.

Three outcomes, in decreasing health:

* **clean** — the eager read succeeded and the decoded events and
  sample ids match the archive's health checksums
  (:func:`~repro.trace.tracefile.read_verified_trace`); the events in
  memory are the whole archive.
* **still-growing** — the archive failed the eager read, but every
  recovery finding is tail truncation: exactly what a reader racing a
  writer that has not finished appending sees. The verified prefix is
  analyzed and a single ``still-growing`` warning is journaled — this
  is a *liveness* situation, not corruption.
* **damaged** — recovery found bit-flips or schema problems (a health
  record that disagrees with the events is a bit-flip, exactly as
  ``memgaze validate-trace`` reports it); the verified prefix is
  analyzed and every finding is journaled
  (:func:`repro.trace.health.recover_read`).

Only an archive with no readable metadata at all raises
:class:`~repro.trace.tracefile.TraceFormatError`.
"""

from __future__ import annotations

import hashlib
import io
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING
from zipfile import BadZipFile

import numpy as np

from repro.trace.tracefile import TraceFormatError, TraceMeta, read_verified_trace

if TYPE_CHECKING:  # the decode and recovery paths import these when they run
    from repro.trace.collector import CollectionResult
    from repro.trace.health import Finding

__all__ = ["TraceSummary", "LoadedTrace", "archive_path", "load_trace_collection"]


def archive_path(path) -> Path:
    """The file a trace path names (``numpy`` appends ``.npz`` when missing)."""
    p = Path(path)
    return p if p.exists() or p.suffix == ".npz" else p.with_name(p.name + ".npz")


@dataclass(frozen=True)
class TraceSummary:
    """Everything a report payload reads from a trace besides pass results.

    A few integers and names, so a verified archive's summary can be
    stored next to its pass partials and a cache-served report never
    decodes the events (:meth:`repro.core.artifacts.ArtifactStore.
    put_verified`).
    """

    module: str
    fn_names: dict[int, str]
    n_events: int
    n_samples: int
    n_loads_total: int
    #: records plus the Constant loads they imply — rho's denominator
    n_implied: int

    @property
    def rho(self) -> float:
        """The sample ratio; equals :func:`~repro.trace.compress.sample_ratio_from`."""
        return 1.0 if self.n_implied == 0 else self.n_loads_total / self.n_implied

    @classmethod
    def of(
        cls, meta: TraceMeta, n_events: int, max_sample_id: int, n_implied: int
    ) -> "TraceSummary":
        """The summary of an archive's ``n_events`` records.

        ``max_sample_id`` is their largest sample id (0 without sample
        ids): the sample count when the metadata does not record one.
        """
        return cls(
            module=meta.module,
            fn_names={int(k): v for k, v in meta.extra.get("fn_names", {}).items()},
            n_events=int(n_events),
            n_samples=int(meta.n_samples or (max_sample_id + 1 if n_events else 0)),
            n_loads_total=int(meta.n_loads_total or n_events),
            n_implied=int(n_implied),
        )


@dataclass
class LoadedTrace:
    """An archive loaded for analysis, plus how healthy the load was."""

    collection: CollectionResult
    meta: TraceMeta
    fn_names: dict[int, str]
    #: True when the eager read succeeded and matched the health
    #: checksums — the events are the whole archive, so its content
    #: digest addresses them (cache-safe).
    clean: bool = True
    #: True when recovery ran but every finding was tail truncation —
    #: the archive looks like a writer is still appending to it. The
    #: events are the verified prefix.
    growing: bool = False
    #: recovery findings (empty on a clean load)
    findings: list[Finding] = field(default_factory=list)
    #: the health record the events were checked against (clean loads
    #: of archives that carry one; None otherwise)
    health: dict | None = None
    #: SHA-256 of the archive bytes that were decoded and checked — set
    #: only with ``health``, so it names verified bytes
    sha256: str | None = None

    def summary(self) -> TraceSummary:
        """The payload-facing summary of the loaded trace."""
        col = self.collection
        return TraceSummary(
            module=self.meta.module,
            fn_names=dict(self.fn_names),
            n_events=int(len(col.events)),
            n_samples=int(col.n_samples),
            n_loads_total=int(col.n_loads_total),
            n_implied=int(len(col.events)) + int(col.events["n_const"].sum()),
        )


def load_trace_collection(path, journal=None) -> LoadedTrace:
    """Load a trace archive, recovering the verified prefix on damage.

    A healthy archive goes through the fast eager read, whose events and
    sample ids must match the archive's health checksums. A damaged one
    — including one whose health record belongs to other events — falls
    back to :func:`repro.trace.health.recover_read`: the
    checksum-verified event prefix is returned, and the findings
    classify what was wrong. When *every* finding is truncation, the
    damage is consistent with an archive still being written (a live
    trace collector, a copy in flight): ``growing`` is set and the
    journal carries one ``still-growing`` warning instead of treating
    the partial tail as corruption.

    Raises :class:`~repro.trace.tracefile.TraceFormatError` only when
    nothing usable survives.
    """
    clean = True
    growing = False
    findings: list[Finding] = []
    sha256 = None
    actual = archive_path(path)
    try:
        # hash exactly the bytes that are decoded and checked
        blob = actual.read_bytes()
        events, meta, sample_id, health = read_verified_trace(io.BytesIO(blob), actual)
        if health is not None:
            sha256 = hashlib.sha256(blob).hexdigest()
        del blob
    except (TraceFormatError, BadZipFile, OSError, ValueError, EOFError, zlib.error):
        from repro.trace.health import KIND_TRUNCATION, recover_read

        clean = False
        health = None
        events, meta, sample_id, findings = recover_read(path, journal=journal)
        growing = bool(findings) and all(
            f.kind == KIND_TRUNCATION for f in findings
        )
        if growing and journal is not None:
            journal.warning(
                "archive tail is incomplete but undamaged — it appears to "
                "be still growing; analyzing the verified prefix",
                path=str(path),
                reason="still-growing",
                n_events=len(events),
            )
    from repro.trace.collector import CollectionResult
    from repro.trace.sampler import SamplingConfig

    if sample_id is None:
        sample_id = np.zeros(len(events), dtype=np.int32)
    counts = TraceSummary.of(
        meta, len(events), int(sample_id.max()) if len(sample_id) else 0, 0
    )
    collection = CollectionResult(
        events=events,
        sample_id=sample_id,
        n_samples=counts.n_samples,
        n_loads_total=counts.n_loads_total,
        config=SamplingConfig(
            period=max(1, meta.period), buffer_capacity=max(1, meta.buffer_capacity)
        ),
    )
    return LoadedTrace(
        collection=collection,
        meta=meta,
        fn_names=counts.fn_names,
        clean=clean,
        growing=growing,
        findings=findings,
        health=health,
        sha256=sha256,
    )
