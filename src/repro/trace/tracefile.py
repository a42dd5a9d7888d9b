"""Packed on-disk trace format.

Traces persist as compressed ``.npz`` archives: the event array, the
optional per-event sample ids, and a JSON metadata blob
(:class:`TraceMeta`) recording how the trace was collected — enough to
re-derive rho/kappa and to attribute ips to source lines offline. Table
III's size accounting uses both the in-memory packet model
(:func:`packet_bytes`) and real on-disk sizes.

Two read paths exist:

* :func:`read_trace` — eager, materializes the whole event array;
* :func:`iter_trace_chunks` — streaming: decompresses the archive
  members incrementally and yields sample-aligned chunks, so analysis
  (and the parallel engine's workers) never hold more than one chunk of
  a multi-GB trace in memory at a time. :func:`read_trace_meta` reads
  only the metadata member.

Malformed archives raise :class:`TraceFormatError` (which carries the
archive path and the offending member/key) instead of the raw
``KeyError``/``zipfile`` internals. Archives also carry a ``health``
member — per-chunk CRC32 checksums over the raw event bytes, written by
:func:`write_trace` — that :mod:`repro.trace.health` uses to localize
truncation and bit-flip damage and to recover the intact prefix.
Archives without it (written before the health layer) stay readable.

Member order is deliberate: the small ``meta`` and ``health`` members
come *before* the bulk ``events``/``sample_id`` arrays, so a
tail-truncated file (the common on-disk failure) still holds everything
needed to identify the trace and salvage its event prefix.
"""

from __future__ import annotations

import json
import os
import time
import zipfile
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro._util.crc import byte_view, crc32_chunks, crc32_of
from repro.trace.event import EVENT_DTYPE, check_load_classes

__all__ = [
    "TraceFormatError",
    "TraceMeta",
    "PrefixSkip",
    "HealthVerifier",
    "write_trace",
    "read_trace",
    "read_trace_meta",
    "read_trace_health",
    "read_verified_trace",
    "iter_trace_chunks",
    "packet_bytes",
]

_FORMAT_VERSION = 1
#: health schema version (independent of the trace format version so old
#: readers ignore it and old archives stay valid without it).
_HEALTH_VERSION = 1
#: events per checksum chunk in the health record.
HEALTH_CHUNK_EVENTS = 1 << 16


class TraceFormatError(Exception):
    """A trace archive is malformed: missing members, bad schema/version.

    Carries the archive ``path`` and the offending ``key`` (member or
    metadata field) so callers and the run journal can report what broke
    without parsing the message.
    """

    def __init__(self, path, key: str, detail: str) -> None:
        self.path = str(path)
        self.key = key
        super().__init__(f"{self.path}: {detail} (key: {key})")


@dataclass
class TraceMeta:
    """Collection metadata stored alongside the events."""

    module: str = "?"
    kind: str = "sampled"  # "sampled" | "full" | "oracle"
    period: int = 0
    buffer_capacity: int = 0
    n_loads_total: int = 0
    n_samples: int = 0
    n_dropped: int = 0
    source_map: dict[int, tuple[str, str, int]] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialise to JSON."""
        d = asdict(self)
        d["source_map"] = {str(k): list(v) for k, v in self.source_map.items()}
        d["version"] = _FORMAT_VERSION
        return json.dumps(d)

    @classmethod
    def from_json(cls, text: str) -> "TraceMeta":
        """Parse metadata serialised by :meth:`to_json`."""
        raw = json.loads(text)
        version = raw.pop("version", _FORMAT_VERSION)
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported trace format version {version}")
        raw["source_map"] = {
            int(k): (v[0], v[1], int(v[2]))
            for k, v in raw.get("source_map", {}).items()
        }
        return cls(**raw)


def _health_record(events: np.ndarray, sample_id: np.ndarray | None) -> dict:
    """Per-chunk CRC32 checksums over the raw array bytes.

    An empty trace still records one checksum per member (of zero
    bytes); content digests key off this record, so the empty-case
    layout must never change.
    """
    step = HEALTH_CHUNK_EVENTS
    return {
        "version": _HEALTH_VERSION,
        "chunk_events": step,
        "n_events": len(events),
        "events_crc": crc32_chunks(events, step, at_least_one=True),
        "sample_id_crc": None
        if sample_id is None
        else crc32_chunks(sample_id, step, at_least_one=True),
    }


def write_trace(
    path,
    events: np.ndarray,
    meta: TraceMeta,
    sample_id: np.ndarray | None = None,
    *,
    atomic: bool = False,
) -> int:
    """Write a trace archive; returns the on-disk size in bytes.

    With ``atomic=True`` the archive is written to a temporary sibling
    and published with ``os.replace``, so a concurrent reader only ever
    sees a complete archive — never a half-written zip. The streaming
    service rewrites per-session archives on every ingest through this
    path; live ``memgaze report`` / ``validate-trace`` runs against a
    growing session archive therefore always find a valid file.

    Raises ``ValueError`` — before touching the file — when a record's
    load-class code is outside :class:`~repro.trace.event.LoadClass`.
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
    check_load_classes(events)
    path = Path(path)
    # small identifying members first: a tail-truncated file keeps them
    if sample_id is not None:
        if len(sample_id) != len(events):
            raise ValueError("sample_id length must match events")
        sample_id = np.asarray(sample_id, dtype=np.int32)
    health = _health_record(events, sample_id)
    arrays = {
        "meta": np.frombuffer(meta.to_json().encode("utf-8"), dtype=np.uint8),
        "health": np.frombuffer(json.dumps(health).encode("utf-8"), dtype=np.uint8),
        "events": events,
    }
    if sample_id is not None:
        arrays["sample_id"] = sample_id
    # numpy appends .npz when missing
    actual = path if path.suffix == ".npz" else path.with_name(path.name + ".npz")
    if atomic:
        tmp = actual.with_name(f".{actual.stem}.tmp.npz")
        np.savez_compressed(tmp, **arrays)
        os.replace(tmp, actual)
    else:
        np.savez_compressed(path, **arrays)
    return actual.stat().st_size


def _parse_meta(path, blob: bytes) -> TraceMeta:
    """Decode a ``meta`` member, mapping failures to TraceFormatError."""
    try:
        return TraceMeta.from_json(blob.decode("utf-8"))
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as e:
        raise TraceFormatError(path, "meta", f"unreadable trace metadata: {e}") from e


def _read_archive(source, path):
    """``(events, meta, sample_id, health)`` from an archive file or file object.

    ``path`` names the archive in errors; ``health`` is the parsed health
    record, or None when the archive carries no usable one.
    """
    with np.load(source) as archive:
        for member in ("events", "meta"):
            if member not in archive:
                raise TraceFormatError(
                    path, member, f"archive is missing required member {member!r}"
                )
        events = archive["events"]
        meta = _parse_meta(path, bytes(archive["meta"]))
        sample_id = archive["sample_id"] if "sample_id" in archive else None
        health = _parse_health(archive["health"]) if "health" in archive else None
    if events.dtype != EVENT_DTYPE:
        raise TraceFormatError(
            path, "events", f"archive events have dtype {events.dtype}"
        )
    _check_classes(path, events)
    return events, meta, sample_id, health


def read_trace(path) -> tuple[np.ndarray, TraceMeta, np.ndarray | None]:
    """Read a trace archive written by :func:`write_trace`.

    Raises :class:`TraceFormatError` when a required member is missing,
    the metadata does not parse, or a record carries a load-class code
    outside :class:`~repro.trace.event.LoadClass`.
    """
    return _read_archive(path, path)[:3]


def read_verified_trace(source, path=None):
    """Read an archive and prove its events against its health record.

    Returns ``(events, meta, sample_id, health)``. Unlike
    :func:`read_trace`, decoded events and sample ids must match the
    health record's per-chunk CRCs: an archive whose ``health`` member
    disagrees with its events (a swapped or stale record) raises
    :class:`TraceFormatError` with key ``health`` — the same verdict
    :func:`repro.trace.health.validate` reaches. Archives without a
    health record read as before, with ``health=None``.
    """
    path = source if path is None else path
    events, meta, sample_id, health = _read_archive(source, path)
    if health is not None:
        check = HealthVerifier(health)
        check.feed(events, sample_id)
        if not check.ok:
            raise TraceFormatError(
                path, "health", "events or sample ids fail their health checksums"
            )
    return events, meta, sample_id, health


def _check_classes(path, events: np.ndarray) -> None:
    """Map an out-of-range load-class code to TraceFormatError."""
    try:
        check_load_classes(events)
    except ValueError as e:
        raise TraceFormatError(path, "events", str(e)) from None


def read_trace_meta(path) -> TraceMeta:
    """Read only the metadata member of a trace archive (cheap)."""
    with np.load(path) as archive:
        if "meta" not in archive:
            raise TraceFormatError(
                path, "meta", "archive is missing required member 'meta'"
            )
        return _parse_meta(path, bytes(archive["meta"]))


def _parse_health(member: np.ndarray) -> dict | None:
    """A ``health`` member's record, or None when unusable."""
    try:
        record = json.loads(bytes(member).decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or "version" not in record:
        return None
    try:
        sid_crc = record.get("sample_id_crc")
        if int(record["chunk_events"]) <= 0 or int(record["n_events"]) < 0:
            return None
        [int(c) for c in record["events_crc"] + (sid_crc or [])]
    except (KeyError, TypeError, ValueError):
        return None
    return record


def read_trace_health(path) -> dict | None:
    """Read an archive's ``health`` record (per-chunk CRCs), or None.

    Returns ``None`` — never raises — for archives written before the
    health layer, or whose health member is missing, unparsable, or
    incomplete. Callers (the analysis cache in
    :mod:`repro.core.artifacts`) treat ``None`` as "this trace cannot
    be content-addressed".
    """
    try:
        with np.load(path) as archive:
            if "health" not in archive:
                return None
            return _parse_health(archive["health"])
    except (OSError, ValueError, KeyError, zipfile.BadZipFile, zlib.error):
        return None


class HealthVerifier:
    """Running check of decoded archive bytes against a health record.

    :meth:`feed` takes events (and sample ids) in archive order, in
    pieces of any size; CRC32s run across piece boundaries in the
    record's ``chunk_events`` steps, so a streamed scan, a skipped
    prefix plus its tail, and one eager read all reach the same verdict.
    :attr:`ok` holds once everything was fed and every checksum, the
    event count and the presence of sample ids match the record.
    ``health`` must be a well-formed record (``read_trace_health``).
    """

    def __init__(self, health: dict) -> None:
        self.step = int(health["chunk_events"])
        self._n_expected = int(health["n_events"])
        sid_crc = health.get("sample_id_crc")
        self._want = {
            "events": [int(c) for c in health["events_crc"]],
            "sample_id": None if sid_crc is None else [int(c) for c in sid_crc],
        }
        self._got: dict[str, list[int]] = {"events": [], "sample_id": []}
        self._crc = {"events": 0, "sample_id": 0}
        self._fill = {"events": 0, "sample_id": 0}
        self._n_events = 0
        self._n_sids = 0
        #: the largest sample id fed (0 when none was)
        self.max_sample_id = 0

    def feed(self, events: np.ndarray, sample_id: np.ndarray | None) -> None:
        """Checksum the next ``events`` (and their ``sample_id``)."""
        self._n_events += len(events)
        self._run("events", events)
        if sample_id is not None and len(sample_id):
            top = int(sample_id.max())
            self.max_sample_id = top if not self._n_sids else max(self.max_sample_id, top)
            self._n_sids += len(sample_id)
            self._run("sample_id", sample_id)

    def _run(self, member: str, arr: np.ndarray) -> None:
        buf, item = byte_view(arr), arr.dtype.itemsize
        crc, fill, done = self._crc[member], self._fill[member], 0
        while done < len(arr):
            take = min(self.step - fill, len(arr) - done)
            crc = zlib.crc32(buf[done * item : (done + take) * item], crc)
            fill += take
            done += take
            if fill == self.step:
                self._got[member].append(crc)
                crc, fill = 0, 0
        self._crc[member], self._fill[member] = crc, fill

    def _final(self, member: str) -> list[int]:
        # a trailing partial chunk, or the empty trace's one checksum
        got = self._got[member]
        if self._fill[member] or not got:
            return got + [self._crc[member]]
        return got

    @property
    def ok(self) -> bool:
        """Whether everything fed so far is exactly the recorded trace."""
        if self._n_events != self._n_expected:
            return False
        if self._final("events") != self._want["events"]:
            return False
        if self._want["sample_id"] is None:
            return self._n_sids == 0
        return (
            self._n_sids == self._n_events
            and self._final("sample_id") == self._want["sample_id"]
        )


@dataclass
class PrefixSkip:
    """A request to skip — and checksum — the first ``n_events`` of a trace.

    Passed to :func:`iter_trace_chunks` for incremental re-analysis of
    an appended archive: the prefix that a previous run already analyzed
    is decompressed and *discarded*, but its bytes are CRC'd in the same
    :data:`HEALTH_CHUNK_EVENTS` steps :func:`write_trace` uses, filling
    ``events_crc`` / ``sample_id_crc`` / ``last_sample_id`` in place.
    The caller compares those against the stored trace state to prove
    the skipped bytes are exactly the trace it cached — a mismatch means
    the "extended" file was actually rewritten, and the caller falls
    back to a full scan.

    Skipping emits one ``chunk-skip`` journal line (not ``chunk-read``
    lines), so a run journal distinguishes rescanned chunks from
    verified-and-skipped ones; its ``seconds`` is the inflate + CRC time
    of the whole skipped prefix.
    """

    n_events: int
    chunk_events: int = HEALTH_CHUNK_EVENTS
    events_crc: list = field(default_factory=list)
    sample_id_crc: list | None = None
    last_sample_id: int | None = None


class _MemberStream:
    """Incremental reader over one ``.npy`` member of an ``.npz`` archive.

    ``zipfile`` decompresses DEFLATE streams lazily, so reading N bytes
    touches only the compressed prefix that produces them — the array is
    never materialized whole.
    """

    def __init__(self, zf: zipfile.ZipFile, name: str, expect_dtype=None) -> None:
        self._fp = zf.open(name)
        version = np.lib.format.read_magic(self._fp)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(self._fp)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(self._fp)
        else:  # pragma: no cover - numpy always writes 1.0/2.0 here
            raise ValueError(f"unsupported npy version {version} in {name}")
        if len(shape) != 1 or fortran:
            raise ValueError(f"member {name} is not a 1-D C-order array")
        if expect_dtype is not None and dtype != expect_dtype:
            raise TypeError(f"member {name} has dtype {dtype}")
        self.dtype = dtype
        self.length = shape[0]
        self._remaining = shape[0]

    def read(self, n_items: int) -> np.ndarray:
        """Read up to ``n_items`` items; shorter only at end of member."""
        n_items = min(n_items, self._remaining)
        if n_items <= 0:
            return np.empty(0, dtype=self.dtype)
        want = n_items * self.dtype.itemsize
        buf = self._fp.read(want)
        if len(buf) != want:
            raise OSError(
                f"truncated archive member: wanted {want} bytes, got {len(buf)}"
            )
        self._remaining -= n_items
        return np.frombuffer(buf, dtype=self.dtype)

    def close(self) -> None:
        self._fp.close()


def _skip_prefix(
    ev_stream: "_MemberStream",
    sid_stream: "_MemberStream | None",
    skip: PrefixSkip,
    metrics,
    journal,
    verify: "HealthVerifier | None",
) -> None:
    """Discard ``skip.n_events`` from the streams, checksumming as it goes."""
    if skip.n_events <= 0:
        return
    step = skip.chunk_events
    if step <= 0:
        raise ValueError(f"chunk_events must be > 0, got {step}")
    t0 = time.perf_counter()
    skip.events_crc = []
    skip.sample_id_crc = [] if sid_stream is not None else None
    remaining = skip.n_events
    while remaining > 0:
        take = min(step, remaining)
        ev = ev_stream.read(take)
        if len(ev) < take:
            raise ValueError(
                f"cannot skip {skip.n_events} events: archive holds fewer"
            )
        skip.events_crc.append(crc32_of(ev))
        sid = None
        if sid_stream is not None:
            sid = sid_stream.read(take)
            if len(sid) < take:
                raise ValueError("sample_id member shorter than events member")
            skip.sample_id_crc.append(crc32_of(sid))
            skip.last_sample_id = int(sid[-1])
        if verify is not None:
            verify.feed(ev, sid)
        remaining -= take
    if metrics is not None:
        metrics.counter("trace.events_skipped").inc(skip.n_events)
    if journal is not None:
        journal.emit(
            "chunk-skip",
            n_events=skip.n_events,
            seconds=time.perf_counter() - t0,
        )


def iter_trace_chunks(
    path,
    chunk_size: int = 1 << 20,
    *,
    align_samples: bool = True,
    metrics=None,
    journal=None,
    skip: PrefixSkip | None = None,
    verify: HealthVerifier | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Yield ``(events, sample_id)`` chunks of a trace archive, streaming.

    Chunks hold about ``chunk_size`` events. With ``align_samples`` (and
    a stored ``sample_id``), a sample is never split across two chunks:
    the trailing run of the last sample id is carried into the next
    chunk, so per-chunk intra-sample analyses (reuse distances,
    boundaries) see exactly what a whole-trace pass would.

    A missing ``events`` member raises :class:`TraceFormatError` naming
    the archive and the member, instead of ``zipfile``'s bare
    ``KeyError``; so does a chunk with an out-of-range load-class code. Passing a
    :class:`~repro.obs.metrics.MetricsRegistry` as ``metrics`` counts
    chunks, events, and decompressed bytes read under
    ``trace.chunks_read`` / ``trace.events_read`` /
    ``trace.bytes_read``; a :class:`~repro.obs.journal.RunJournal` as
    ``journal`` appends one ``chunk-read`` line per chunk (with
    ``n_events``, ``nbytes`` and ``seconds``, the inflate + CRC time
    of that chunk's reads), so the journal proves how many times
    the trace was actually read — a fused multi-pass analysis shows one
    line per chunk, not chunks x passes — and how many bytes each
    zero-copy publish will move (see ``docs/performance.md``).

    With a :class:`PrefixSkip`, the first ``skip.n_events`` events are
    decompressed, checksummed into ``skip``, and discarded before the
    first chunk is yielded (one ``chunk-skip`` journal line, counted
    under ``trace.events_skipped`` — not as chunks read). Yielding then
    continues from the skip point, so an appended archive's new tail
    streams without re-analyzing its cached prefix.

    With a :class:`HealthVerifier`, every decoded byte — skipped prefix
    included — is fed to it in archive order; once the generator is
    exhausted, ``verify.ok`` says whether the archive's events are the
    ones its health record checksums.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be > 0, got {chunk_size}")
    path = Path(path)
    actual = path if path.suffix == ".npz" else path.with_name(path.name + ".npz")
    with zipfile.ZipFile(actual) as zf:
        names = set(zf.namelist())
        if "events.npy" not in names:
            raise TraceFormatError(
                actual, "events", "archive is missing required member 'events'"
            )
        ev_stream = _MemberStream(zf, "events.npy", EVENT_DTYPE)
        sid_stream = (
            _MemberStream(zf, "sample_id.npy") if "sample_id.npy" in names else None
        )
        try:
            if skip is not None:
                _skip_prefix(ev_stream, sid_stream, skip, metrics, journal, verify)
            carry_ev = np.empty(0, dtype=ev_stream.dtype)
            carry_sid = (
                np.empty(0, dtype=sid_stream.dtype) if sid_stream is not None else None
            )
            t0 = None  # start of the reads behind the next yielded chunk
            while True:
                if t0 is None:
                    t0 = time.perf_counter()
                ev = ev_stream.read(chunk_size)
                sid = sid_stream.read(chunk_size) if sid_stream is not None else None
                if verify is not None:
                    verify.feed(ev, sid)
                done = len(ev) < chunk_size
                if len(carry_ev):
                    ev = np.concatenate([carry_ev, ev])
                    if sid is not None:
                        sid = np.concatenate([carry_sid, sid])
                    carry_ev = carry_ev[:0]
                if len(ev) == 0:
                    break
                if align_samples and sid is not None and not done:
                    # hold back the trailing run of the last sample id —
                    # the next chunk may continue that sample
                    cut = int(np.searchsorted(sid, sid[-1], side="left"))
                    if cut == 0:
                        # one giant sample fills the chunk: keep growing it
                        carry_ev, carry_sid = ev, sid
                        continue
                    carry_ev, carry_sid = ev[cut:], sid[cut:]
                    ev, sid = ev[:cut], sid[:cut]
                _check_classes(actual, ev)
                nbytes = ev.nbytes + (sid.nbytes if sid is not None else 0)
                if metrics is not None:
                    metrics.counter("trace.chunks_read").inc()
                    metrics.counter("trace.events_read").inc(len(ev))
                    metrics.counter("trace.bytes_read").inc(nbytes)
                if journal is not None:
                    journal.emit(
                        "chunk-read",
                        n_events=len(ev),
                        nbytes=nbytes,
                        seconds=time.perf_counter() - t0,
                    )
                t0 = None
                yield ev, sid
                if done:
                    break
        finally:
            ev_stream.close()
            if sid_stream is not None:
                sid_stream.close()


def packet_bytes(events: np.ndarray, *, two_reg_fraction: float = 0.0) -> int:
    """Raw PT payload bytes a trace's records occupy (8 B per ptwrite).

    Loads with two source registers emit two packets (paper SS:VI-C);
    ``two_reg_fraction`` is the fraction of records that do.
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
    if not 0.0 <= two_reg_fraction <= 1.0:
        raise ValueError(f"two_reg_fraction must be in [0,1], got {two_reg_fraction}")
    n = len(events)
    return int(round(8 * n * (1.0 + two_reg_fraction)))
