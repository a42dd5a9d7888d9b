"""Parallel sharded analysis engine over the analysis-pass framework.

The paper's analysis stage (SS:IV-V) is embarrassingly parallel across
trace windows: footprint is a set cardinality, captures/survivals a
saturating per-block count, the reuse histogram an integer tally that
resets at sample boundaries, and heatmaps are matrix sums. This module
exploits that by

1. **sharding** a trace into sample-aligned chunks (:func:`plan_shards` —
   a shard never splits a sample, so intra-sample computations are
   unaffected by the cut);
2. **fanning out** per-shard evaluation across a ``concurrent.futures``
   process pool — the event arrays are published once into named
   shared-memory segments (:mod:`repro.core.shm`) and workers attach
   zero-copy, so only a tiny :class:`~repro.core.shm.ShardRef` crosses
   the pipe (``shm=False`` or ``MEMGAZE_SHM=0`` falls back to pickling
   the slices); one :func:`~repro.core.passes.scan_chunk` call per
   shard evaluates *every* scheduled pass, so shared intermediates
   (block ids, class masks, reuse distances) are computed once per
   shard regardless of how many passes read them; and
3. **merging** partials with each pass's associative ``merge`` operator
   (:class:`~repro.core.passes.DiagnosticsPartial.merge`,
   :class:`~repro.core.passes.CapturesPartial.merge`,
   :meth:`~repro.core.reuse.ReuseHistogram.merge`, matrix addition for
   heatmaps) whose results are **bit-identical** to the serial path.

Every metric is a registered :class:`~repro.core.passes.AnalysisPass`;
the engine is "merely" the scheduler-aware shard-map-merge executor for
them. :meth:`ParallelEngine.run_passes` is the entry point for any set
of registered passes over in-memory events (one fused scan),
:meth:`~ParallelEngine.analyze_file` streams an archive through the same
passes, and :meth:`~ParallelEngine.heatmap` fixes a heatmap's bin
geometry before running its pass.

Exactness argument, per pass:

* *footprint / per-class footprint* — unique block ids are kept as
  sorted ``uint64`` arrays; ``union`` of sorted sets is associative and
  order-independent, so ``|union|`` equals the serial ``np.unique``
  count for any shard split (sample alignment not even required).
* *captures/survivals* — a block's observed count saturates at 2; the
  (once, multi) set pair forms a commutative monoid.
* *reuse histogram* — distances reset at sample boundaries, so a
  sample-aligned shard computes exactly the distances the serial pass
  assigns to its events; all tallies are integers and integer addition
  is exact.
* *heatmaps* — bin geometry is fixed globally before sharding; count
  matrices are integers, and the ``dsum`` float matrix accumulates
  integer-valued distances far below 2**53, so float addition is exact.
* *hotspots / roi* — per-function counts merge by zero-padded integer
  addition; code ranges by per-function (min, max) folds.
* *derived floats* (``dF``, ``A_est``, mean D, cell means) are computed
  once, from merged integer totals, by each pass's ``finalize`` — the
  serial functions are one-chunk runs of the same passes, so identical
  operands give identical results.

The engine also memoizes merged partials in an LRU cache keyed by
``(window_id, params, pass)`` so repeated zoom/interval queries over
the same window are free, and records per-stage wall-clock and
throughput in a :class:`~repro._util.timers.StageTimers` (surfaced by
``memgaze report --stats``), including a ``pass:<name>`` stage per
scheduled pass.

Observability is opt-in and zero-cost when off: pass a
:class:`~repro.obs.journal.RunJournal` and the engine journals its
shard plans, merges, and streaming progress — pool workers journal
their own ``shard-analyzed`` lines directly (the journal's ``O_APPEND``
writer is process-safe and pickles down to a path). Pass a
:class:`~repro.obs.metrics.MetricsRegistry` and the engine counts
shards, events, merges, and artifact-cache hits/misses
(``passes.artifact_hits`` / ``passes.artifact_misses``) and fills the
``parallel.shard_events`` histogram; the zero-copy handoff adds
``shm.*`` counters and journal lines (segment publish/release, so a
leaked segment is visible as a counter imbalance); ``memgaze report
--journal/--metrics`` exports both.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro._util.lru import LRUCache
from repro._util.timers import StageTimers
from repro.core.artifacts import MISS, ArtifactStore, freeze_params
from repro.core.diagnostics import FootprintDiagnostics
from repro.core.heatmap import HeatmapResult, heatmap_request
from repro.core.passes import (
    ResolvedRequest,
    RunContext,
    account_scan_stats,
    finalize_schedule,
    get_pass,
    merge_partial_lists,
    scan_chunk,
    schedule_passes,
)
from repro.core.reuse import _HIST_MAX_EXP, ReuseHistogram
from repro.core.shm import ShardRef, SharedSlab, attach_shard, publish_shard

if TYPE_CHECKING:
    from concurrent.futures import Executor, Future

__all__ = [
    "plan_shards",
    "LRUCache",
    "ParallelEngine",
    "FileAnalysis",
]

#: below this many events a single shard is used — pool overhead would
#: dominate any gain.
_MIN_PARALLEL_EVENTS = 16_384
#: shards per worker when no explicit chunk size is given (load balance).
_CHUNKS_PER_WORKER = 4


# -- shard planning -----------------------------------------------------------


def plan_shards(
    n: int,
    sample_id: np.ndarray | None = None,
    *,
    n_shards: int | None = None,
    chunk_size: int | None = None,
) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into contiguous shards that never cut a sample.

    Exactly one of ``n_shards`` / ``chunk_size`` picks the target shard
    size; with ``sample_id`` given, each cut is moved forward to the next
    sample boundary so every sample lands whole in one shard.
    """
    if n_shards is None and chunk_size is None:
        raise ValueError("pass n_shards or chunk_size")
    if n_shards is not None and chunk_size is not None:
        raise ValueError("pass only one of n_shards / chunk_size")
    if n <= 0:
        return []
    if chunk_size is None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be > 0, got {n_shards}")
        chunk_size = -(-n // n_shards)  # ceil
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be > 0, got {chunk_size}")

    if sample_id is None:
        cuts = list(range(0, n, chunk_size)) + [n]
        return list(zip(cuts[:-1], cuts[1:]))

    if len(sample_id) != n:
        raise ValueError("sample_id length must match events")
    # sample start indices (always includes 0)
    starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(np.asarray(sample_id))) + 1, [n]]
    ).astype(np.int64)
    shards: list[tuple[int, int]] = []
    lo = 0
    while lo < n:
        target = lo + chunk_size
        if target >= n:
            hi = n
        else:
            # first sample boundary at or after the target; a sample
            # longer than chunk_size lands whole in one oversized shard
            hi = int(starts[np.searchsorted(starts, target, side="left")])
        shards.append((lo, hi))
        lo = hi
    return shards


#: environment kill-switch for the shared-memory handoff
_SHM_ENV = "MEMGAZE_SHM"


def _shm_default() -> bool:
    """Whether engines use the zero-copy handoff when not told explicitly."""
    return os.environ.get(_SHM_ENV, "1").lower() not in ("0", "off", "false", "no")


def scan_chunk_shm(ref: ShardRef, specs, journal):
    """Worker entry for the zero-copy path: attach, then scan as usual.

    The attached views alias the parent's pages; ``scan_chunk`` and the
    passes it runs never mutate their input, and partials own their
    buffers (a requirement the pickle handoff imposed all along), so the
    mapping can rotate out of the attachment cache once the scan
    returns.
    """
    events, sid = attach_shard(ref)
    return scan_chunk(events, sid, specs, journal)


# the canonical param-freezing now lives next to the persistent store so
# in-memory LRU keys and on-disk cache keys can never drift apart
_freeze = freeze_params


def _needs_whole(scheduled: list[ResolvedRequest], sample_id) -> bool:
    """Whether the schedule forbids sharding (cross-event state, no samples)."""
    return sample_id is None and any(
        get_pass(r.name).whole_without_samples for r in scheduled
    )


# -- the engine ---------------------------------------------------------------


class ParallelEngine:
    """Scheduler-aware shard-map-merge executor for the analysis passes.

    Three entry points: :meth:`run_passes` (any registered passes over
    in-memory events), :meth:`analyze_file` (an archive, streamed) and
    :meth:`heatmap`. ``workers <= 1`` runs the identical shard+merge
    path inline, with no pool; ``workers > 1`` fans shards out over a
    process pool. Either way the output is bit-identical to the serial
    functions in :mod:`repro.core.metrics` / :mod:`repro.core.reuse` /
    :mod:`repro.core.heatmap` / :mod:`repro.core.hotspot`, which run the
    same pass partials over one chunk.
    """

    def __init__(
        self,
        workers: int | None = None,
        chunk_size: int | None = None,
        *,
        cache_size: int = 256,
        store: "ArtifactStore | None" = None,
        timers: StageTimers | None = None,
        journal=None,
        metrics=None,
        shm: bool | None = None,
    ) -> None:
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        self.chunk_size = chunk_size
        #: zero-copy shard handoff (:mod:`repro.core.shm`). ``None``
        #: resolves to on unless ``MEMGAZE_SHM=0``; ``False`` pickles
        #: event slices into the workers as the engine originally did
        self.shm = _shm_default() if shm is None else bool(shm)
        self.cache = LRUCache(cache_size)
        #: optional persistent ArtifactStore — merged pass partials are
        #: read from and written to it whenever a content digest is
        #: available (run_passes' ``store_key`` / analyze_file's health
        #: digest); None keeps the engine purely in-memory
        self.store = store
        self.timers = timers if timers is not None else StageTimers()
        #: optional RunJournal — shard plans, merges and per-shard worker
        #: lines are journaled when set (None = no journaling at all)
        self.journal = journal
        #: optional MetricsRegistry — pipeline counters/histograms land
        #: here when set (None = no metric accounting at all)
        self.metrics = metrics
        self._pool: Executor | None = None
        self._tokens = itertools.count()

    def window_token(self) -> int:
        """A fresh namespace for window ids, unique within this engine.

        Callers analyzing several traces through one engine prefix their
        ``window_id`` keys with a token so cached partials of different
        traces can never collide.
        """
        return next(self._tokens)

    # -- lifecycle --

    def _executor(self) -> Executor:
        if self._pool is None:
            # parent-side only; a cache-served run never builds a pool
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=max(1, self.workers))
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- shard-map-merge core --

    def _plan(self, n: int, sample_id: np.ndarray | None) -> list[tuple[int, int]]:
        with self.timers.stage("plan"):
            if self.workers <= 1 and self.chunk_size is None:
                shards = [(0, n)] if n else []
            elif self.chunk_size is not None:
                shards = plan_shards(n, sample_id, chunk_size=self.chunk_size)
            else:
                size = max(
                    -(-n // (max(1, self.workers) * _CHUNKS_PER_WORKER)),
                    _MIN_PARALLEL_EVENTS,
                )
                shards = plan_shards(n, sample_id, chunk_size=size)
        self._observe_plan(n, shards)
        return shards

    def _observe_plan(self, n: int, shards: list[tuple[int, int]]) -> None:
        if self.metrics is not None:
            self.metrics.counter("parallel.plans").inc()
            self.metrics.counter("parallel.shards").inc(len(shards))
            h = self.metrics.histogram("parallel.shard_events")
            for lo, hi in shards:
                h.observe(hi - lo)
        if self.journal is not None:
            self.journal.emit(
                "stage",
                stage="shard-plan",
                n_events=n,
                n_shards=len(shards),
                workers=self.workers,
                chunk_size=self.chunk_size,
            )

    def _publish(
        self, events: np.ndarray, sample_id: np.ndarray | None
    ) -> "SharedSlab | None":
        """Publish arrays for zero-copy workers; None = use the pickle path.

        Shared memory being unavailable (exhausted ``/dev/shm``, an
        exotic platform) downgrades the scan with a journaled warning
        rather than failing it.
        """
        if not self.shm:
            return None
        try:
            with self.timers.stage("publish", items=len(events)):
                return publish_shard(
                    events, sample_id, journal=self.journal, metrics=self.metrics
                )
        except OSError as exc:
            if self.metrics is not None:
                self.metrics.counter("shm.publish_failures").inc()
            if self.journal is not None:
                self.journal.warning(
                    f"shared-memory publish failed ({exc}); falling back to "
                    "pickled shard handoff for this scan",
                    n_events=len(events),
                )
            return None

    def _scan(
        self,
        events: np.ndarray,
        sample_id: np.ndarray | None,
        scheduled: list[ResolvedRequest],
        *,
        whole: bool = False,
    ) -> list:
        """One fused scan: every scheduled pass over sharded ``events``.

        ``whole`` forces a single shard (needed when a computation has
        cross-event state and no sample boundaries to cut at). Returns
        merged partials aligned with ``scheduled``.
        """
        specs = [r.spec for r in scheduled]
        n = len(events)
        shards = [(0, n)] if (whole and n) else self._plan(n, sample_id)
        if not shards:
            return [get_pass(r.name).init(r.params) for r in scheduled]
        use_pool = (
            self.workers > 1 and len(shards) > 1 and n >= _MIN_PARALLEL_EVENTS
        )
        if self.metrics is not None:
            self.metrics.counter("parallel.events").inc(n)
            self.metrics.counter(
                "parallel.runs_pooled" if use_pool else "parallel.runs_inline"
            ).inc()
        partials: list[list] = []
        if use_pool:
            pool = self._executor()
            slab = self._publish(events, sample_id)
            try:
                with self.timers.stage("scatter", items=n):
                    if slab is not None:
                        futures: list[Future] = [
                            pool.submit(
                                scan_chunk_shm, slab.ref(lo, hi), specs, self.journal
                            )
                            for lo, hi in shards
                        ]
                    else:
                        futures = [
                            pool.submit(
                                scan_chunk,
                                events[lo:hi],
                                sample_id[lo:hi] if sample_id is not None else None,
                                specs,
                                self.journal,
                            )
                            for lo, hi in shards
                        ]
                with self.timers.stage("compute", items=n):
                    for f in futures:
                        shard_partials, stats = f.result()
                        account_scan_stats(
                            stats, metrics=self.metrics, timers=self.timers
                        )
                        partials.append(shard_partials)
            finally:
                if slab is not None:
                    slab.release()
        else:
            with self.timers.stage("compute", items=n):
                for lo, hi in shards:
                    shard_partials, stats = scan_chunk(
                        events[lo:hi],
                        sample_id[lo:hi] if sample_id is not None else None,
                        specs,
                        self.journal,
                    )
                    account_scan_stats(stats, metrics=self.metrics, timers=self.timers)
                    partials.append(shard_partials)
        t_merge = time.perf_counter()
        with self.timers.stage("merge", items=len(shards)):
            merged = partials[0]
            for p in partials[1:]:
                merged = merge_partial_lists(merged, p, specs)
        if self.metrics is not None:
            self.metrics.counter("parallel.merges").inc(len(shards) - 1)
        if self.journal is not None:
            self.journal.emit(
                "stage",
                stage="merge",
                n_partials=len(shards),
                passes=[r.name for r in scheduled],
                seconds=time.perf_counter() - t_merge,
            )
        return merged

    def _merged_partials(
        self,
        events: np.ndarray,
        sample_id: np.ndarray | None,
        scheduled: list[ResolvedRequest],
        window_id,
        store_key: str | None = None,
    ) -> list | None:
        """Merged partials for a schedule, memoized per (window, params, pass).

        Lookup order per pass: the in-memory LRU, then (with a
        ``store_key`` content digest and a configured store) the
        persistent :class:`~repro.core.artifacts.ArtifactStore`, then
        one fused :meth:`_scan` for whatever is still missing. Scanned
        partials are written back to both layers. With ``events=None``
        nothing is scanned: the first missing partial returns None.
        """
        use_store = self.store is not None and store_key is not None
        out: list = [None] * len(scheduled)
        missing: list[int] = []
        keys: list[tuple | None] = []
        for i, req in enumerate(scheduled):
            key = (
                (window_id, _freeze(req.params), req.name)
                if window_id is not None
                else None
            )
            keys.append(key)
            if key is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    out[i] = hit
                    continue
            if use_store:
                stored = self.store.get_partial(store_key, req.name, req.params)
                if stored is not MISS:
                    out[i] = stored
                    if key is not None:
                        self.cache.put(key, stored)
                    continue
            if events is None:
                return None
            missing.append(i)
        if missing:
            subset = [scheduled[i] for i in missing]
            merged = self._scan(
                events, sample_id, subset, whole=_needs_whole(subset, sample_id)
            )
            for i, partial in zip(missing, merged):
                out[i] = partial
                if keys[i] is not None:
                    self.cache.put(keys[i], partial)
                if use_store:
                    self.store.put_partial(
                        store_key, scheduled[i].name, scheduled[i].params, partial
                    )
        return out

    # -- the general fused entry point --

    def run_passes(
        self,
        events: np.ndarray,
        requests,
        *,
        sample_id: np.ndarray | None = None,
        rho: float = 1.0,
        fn_names: dict[int, str] | None = None,
        window_id=None,
        store_key: str | None = None,
    ) -> dict:
        """Run any set of registered passes in one fused scan.

        ``requests`` is what :func:`repro.core.passes.schedule_passes`
        accepts: pass names or ``(name, params)`` pairs. Dependencies are
        pulled in and ordered automatically; the trace is scanned
        **once** for every pass not already memoized under ``window_id``.
        Returns ``{pass name: finalized result}`` including dependencies.

        ``store_key`` enables the persistent cache for this call when
        the engine carries an :class:`~repro.core.artifacts.ArtifactStore`:
        it must be the content digest of exactly ``(events, sample_id)``
        (:meth:`ArtifactStore.digest_events`, or
        :meth:`ArtifactStore.admit` for a verified archive load) —
        partials are then served from and persisted to disk,
        bit-identical to recomputation.
        """
        scheduled = schedule_passes(requests)
        merged = self._merged_partials(
            events, sample_id, scheduled, window_id, store_key=store_key
        )
        return finalize_schedule(
            scheduled, merged, RunContext(rho=rho, fn_names=fn_names or {})
        )

    def stored_results(
        self,
        requests,
        *,
        store_key: str,
        rho: float,
        fn_names: dict[int, str],
        window_id=None,
    ) -> dict | None:
        """:meth:`run_passes` served wholly from the caches, or None.

        For a trace known only by its content digest (a verified archive
        that was never decoded): when every scheduled partial is in the
        LRU or the store, the finalized results are exactly what
        :meth:`run_passes` returns over the events; otherwise None.
        """
        scheduled = schedule_passes(requests)
        merged = self._merged_partials(
            None, None, scheduled, window_id, store_key=store_key
        )
        if merged is None:
            return None
        return finalize_schedule(
            scheduled, merged, RunContext(rho=rho, fn_names=fn_names)
        )

    def heatmap(
        self,
        events: np.ndarray,
        base: int,
        size: int,
        *,
        n_pages: int = 64,
        n_bins: int = 64,
        access_block: int = 64,
        sample_id: np.ndarray | None = None,
    ) -> HeatmapResult:
        """Region heatmap; equals :func:`repro.core.heatmap.access_heatmap`."""
        request = heatmap_request(
            events,
            base,
            size,
            n_pages=n_pages,
            n_bins=n_bins,
            access_block=access_block,
        )
        return self.run_passes(events, [request], sample_id=sample_id)["heatmap"]

    # -- streamed file analysis --

    def _fold_stream(self, chunks, specs) -> tuple[list | None, int, int | None, bool]:
        """Fold ``scan_chunk`` over an iterable of ``(events, sample_id)``.

        Feeds chunks to the pool as they arrive (at most ``2 * workers``
        in flight) and merges partials in arrival order. Returns
        ``(merged or None, n_events, last sample id or None, saw sample
        ids)``.
        """
        merged: list | None = None
        n_events = 0
        last_sid: int | None = None
        sid_seen = False
        pool = self._executor() if self.workers > 1 else None
        in_flight: list[tuple[Future, SharedSlab | None]] = []

        def fold(result: tuple[list, dict]) -> None:
            nonlocal merged
            partials, stats = result
            account_scan_stats(stats, metrics=self.metrics, timers=self.timers)
            with self.timers.stage("merge", items=1):
                merged = (
                    partials
                    if merged is None
                    else merge_partial_lists(merged, partials, specs)
                )

        def fold_future(entry: tuple[Future, "SharedSlab | None"]) -> None:
            fut, slab = entry
            try:
                result = fut.result()
            finally:
                if slab is not None:
                    slab.release()
            fold(result)

        try:
            with self.timers.stage("stream"):
                for ev, sid in chunks:
                    n_events += len(ev)
                    if sid is not None and len(sid):
                        sid_seen = True
                        last_sid = int(sid[-1])
                    if pool is None:
                        fold(scan_chunk(ev, sid, specs, self.journal))
                        continue
                    # each streamed chunk rides its own short-lived slab,
                    # released as soon as its partials fold — peak shm
                    # usage stays bounded by chunks in flight
                    slab = self._publish(ev, sid)
                    if slab is not None:
                        fut = pool.submit(
                            scan_chunk_shm, slab.ref(0, len(ev)), specs, self.journal
                        )
                    else:
                        fut = pool.submit(scan_chunk, ev, sid, specs, self.journal)
                    in_flight.append((fut, slab))
                    if self.metrics is not None:
                        self.metrics.gauge("parallel.peak_in_flight").set(
                            len(in_flight)
                        )
                    while len(in_flight) >= 2 * self.workers:
                        fold_future(in_flight.pop(0))
                while in_flight:
                    fold_future(in_flight.pop(0))
        finally:
            for _, slab in in_flight:
                if slab is not None:
                    slab.release()
        return merged, n_events, last_sid, sid_seen

    def _tail_scan(self, path, specs, size: int, state: dict, verify):
        """Scan only the events appended after a cached trace state.

        Skips ``state['n_events']`` events while checksumming them
        (:class:`~repro.trace.tracefile.PrefixSkip`) and verifies the
        CRCs against the stored state before trusting any cached prefix
        partial: the entry proves the skipped bytes *are* the trace that
        was cached. Returns ``None`` — with a journaled warning — when
        the prefix does not verify or the appended tail continues the
        prefix's last sample (reuse windows would straddle the cut);
        the caller then falls back to a full rescan.
        """
        from repro.trace.tracefile import PrefixSkip, iter_trace_chunks

        skip = PrefixSkip(
            n_events=int(state["n_events"]),
            chunk_events=int(state["chunk_events"]),
        )
        chunks = iter_trace_chunks(
            path,
            chunk_size=size,
            metrics=self.metrics,
            journal=self.journal,
            skip=skip,
            verify=verify,
        )
        try:
            first = next(chunks, None)
        except (OSError, ValueError):
            return None
        reason = None
        if first is None:
            reason = "no events after the cached prefix"
        elif (
            skip.events_crc != [int(c) for c in state["events_crc"]]
            or skip.sample_id_crc != [int(c) for c in state["sample_id_crc"]]
        ):
            reason = "prefix checksums do not match the cached state"
        elif first[1] is None or len(first[1]) == 0:
            reason = "appended tail has no sample ids"
        elif int(first[1][0]) == state["last_sample_id"]:
            reason = "appended tail continues the prefix's last sample"
        if reason is not None:
            chunks.close()
            if self.journal is not None:
                self.journal.warning(
                    f"incremental re-analysis abandoned: {reason}; "
                    "falling back to a full rescan",
                    path=str(path),
                    state_n_events=int(state["n_events"]),
                )
            return None
        return self._fold_stream(itertools.chain([first], chunks), specs)

    def analyze_file(
        self,
        path,
        *,
        block: int = 1,
        reuse_block: int = 64,
        chunk_size: int | None = None,
        passes=(),
    ) -> "FileAnalysis":
        """Stream a trace archive through the pool without materializing it.

        The parent reads sample-aligned chunks sequentially
        (:func:`repro.trace.tracefile.iter_trace_chunks`) and feeds them
        to workers as they arrive, merging partials in arrival order; at
        most ``2 * workers`` chunks are in flight, so peak memory is
        bounded by the chunk size, not the trace size. Each chunk is
        read and scanned exactly **once** for the whole schedule —
        diagnostics, captures, reuse, and any extra ``passes`` requests
        (names or ``(name, params)`` pairs, e.g. ``["hotspot"]``) —
        whose finalized results land in
        :attr:`FileAnalysis.pass_results`.

        With a persistent store configured, the archive is content-
        addressed by its health-record digest, but a digest is trusted
        only for proven bytes. A file whose SHA-256 has a verified-archive
        record (:meth:`ArtifactStore.get_verified`) is served its stored
        whole-trace partials without decoding anything; an archive that
        *extends* a previously analyzed trace (same CRC prefix, new
        chunks appended) scans only the new tail and merges against the
        cached prefix partials. Every scan checks the decoded bytes
        against the health CRCs in
        :data:`~repro.trace.tracefile.HEALTH_CHUNK_EVENTS` steps
        (:class:`~repro.trace.tracefile.HealthVerifier`): only a scan that
        matches persists partials and state and records the file as
        verified; one that does not is journaled and left uncached.
        Either way the results are bit-identical to a cold scan.

        Footprint, diagnostics and captures/survivals are exactly the
        whole-trace values for any chunking. The reuse histogram resets
        at sample boundaries, so it matches the in-memory result when
        the archive stores sample ids; without them each chunk is its
        own reuse window — the histogram is then marked
        ``scope="chunk"`` and a journal warning records the degradation
        (chunk-scoped results are also never persisted to the store,
        since they vary with ``chunk_size``).
        """
        from repro.trace.loader import TraceSummary
        from repro.trace.tracefile import (
            HealthVerifier,
            iter_trace_chunks,
            read_trace_health,
            read_trace_meta,
        )

        meta = read_trace_meta(path)
        requests = [
            ("diagnostics", {"block": block}),
            ("captures", {"block": block}),
            ("reuse", {"block": reuse_block, "max_exp": _HIST_MAX_EXP}),
        ]
        base_names = {name for name, _ in requests}
        requests += [r for r in passes if (r if isinstance(r, str) else r[0]) not in base_names]
        scheduled = schedule_passes(requests)
        index = {r.name: i for i, r in enumerate(scheduled)}
        size = chunk_size or self.chunk_size or (1 << 20)
        t_stream = time.perf_counter()

        # only bytes proven against their health record are addressable:
        # a verified-archive record, or this run's own checked scan
        sha256 = record = None
        if self.store is not None:
            sha256 = ArtifactStore.file_digest(path)
            record = None if sha256 is None else self.store.get_verified(sha256)
        digest = None if record is None else record["digest"]
        sid_present = record is not None and record["sample_ids"]

        def cacheable(name: str) -> bool:
            # chunk-scoped partials (whole_without_samples passes on an
            # archive without sample ids) vary with chunk_size — they are
            # never persisted and never read back
            return digest is not None and (
                sid_present or not get_pass(name).whole_without_samples
            )

        # 1. whole-trace cache hits: served without touching the events
        merged: list = [None] * len(scheduled)
        cached_names: list[str] = []
        for i, r in enumerate(scheduled):
            if cacheable(r.name):
                hit = self.store.get_partial(digest, r.name, r.params)
                if hit is not MISS:
                    merged[i] = hit
                    cached_names.append(r.name)
        missing = [i for i, v in enumerate(merged) if v is None]

        mode = "cached"
        n_events = record["summary"].n_events if record is not None else 0
        skipped = 0
        last_sid: int | None = None
        sid_seen = sid_present  # cache hits require stored sample ids
        if missing:
            sub = [scheduled[i] for i in missing]
            specs_sub = [r.spec for r in sub]
            scanned = None
            health = None
            if self.store is not None:
                health = read_trace_health(path)
                digest = None if health is None else ArtifactStore.digest_health(health)
                sid_present = health is not None and health.get("sample_id_crc") is not None
                if digest is None and self.journal is not None:
                    self.journal.warning(
                        "archive has no usable health record; analysis cache disabled",
                        path=str(path),
                    )

            def verifier():
                return None if digest is None else HealthVerifier(health)

            # 2. incremental: a stored state whose CRCs prefix this trace
            if digest is not None and sid_present:
                state = self.store.find_prefix_state(health)
                if state is not None:
                    prior: list | None = []
                    for r in sub:
                        p = self.store.get_partial(state["digest"], r.name, r.params)
                        if p is MISS:
                            prior = None
                            break
                        prior.append(p)
                    if prior is not None:
                        verify = verifier()
                        got = self._tail_scan(path, specs_sub, size, state, verify)
                        if got is not None:
                            tail, n_tail, last_sid, _ = got
                            scanned = (
                                prior
                                if tail is None
                                else merge_partial_lists(prior, tail, specs_sub)
                            )
                            skipped = int(state["n_events"])
                            n_events = skipped + n_tail
                            sid_seen = True
                            mode = "incremental"
                            if self.metrics is not None:
                                self.metrics.counter("cache.incremental_scans").inc()

            # 3. full scan for whatever the caches could not provide
            if scanned is None:
                verify = verifier()
                scanned, n_events, last_sid, sid_seen = self._fold_stream(
                    iter_trace_chunks(
                        path,
                        chunk_size=size,
                        metrics=self.metrics,
                        journal=self.journal,
                        verify=verify,
                    ),
                    specs_sub,
                )
                mode = "full"
                if scanned is None:
                    scanned = [get_pass(r.name).init(r.params) for r in sub]
            for i, partial in zip(missing, scanned):
                merged[i] = partial

            if digest is not None and not verify.ok:
                if self.journal is not None:
                    self.journal.warning(
                        "archive events disagree with its health record; "
                        "results are not cached",
                        path=str(path),
                    )
                digest = None
            # persist what was just computed (and the trace's state, so a
            # future appended archive can match this one as its prefix)
            if digest is not None:
                for i in missing:
                    r = scheduled[i]
                    if cacheable(r.name):
                        self.store.put_partial(digest, r.name, r.params, merged[i])
                if sid_present and last_sid is not None:
                    self.store.put_state(digest, health, last_sid)
                # the scanned bytes are now proven; vouch for them unless
                # the file changed under the scan
                if sha256 is not None and ArtifactStore.file_digest(path) == sha256:
                    diag = merged[index["diagnostics"]]
                    self.store.put_verified(
                        sha256,
                        digest,
                        TraceSummary.of(
                            meta,
                            n_events,
                            verify.max_sample_id,
                            diag.a_obs + diag.n_suppressed,
                        ),
                        health,
                    )
        self.timers.add("stream-events", 0.0, items=n_events - skipped)

        degraded = n_events > 0 and not sid_seen
        if degraded and self.journal is not None:
            self.journal.warning(
                "archive stores no sample ids: reuse windows are "
                "chunk-delimited and results depend on chunk_size",
                path=str(path),
                chunk_size=size,
                reuse_scope="chunk",
            )

        diag_p = merged[index["diagnostics"]]
        implied = diag_p.a_obs + diag_p.n_suppressed
        rho = (meta.n_loads_total / implied) if implied else 1.0
        rho = max(rho, 1.0)
        fn_names = {
            int(k): v
            for k, v in (getattr(meta, "extra", None) or {}).get("fn_names", {}).items()
        }
        results = finalize_schedule(
            scheduled, merged, RunContext(rho=rho, fn_names=fn_names)
        )
        captures, survivals = results["captures"]
        results["reuse"].scope = "chunk" if degraded else "sample"
        if self.journal is not None:
            self.journal.emit(
                "stage",
                stage="analyze-file",
                path=str(path),
                n_events=n_events,
                rho=rho,
                passes=[r.name for r in scheduled],
                chunk_size=size,
                workers=self.workers,
                mode=mode,
                cached_passes=cached_names,
                skipped_events=skipped,
                seconds=time.perf_counter() - t_stream,
            )
        return FileAnalysis(
            meta=meta,
            n_events=n_events,
            rho=rho,
            diagnostics=results["diagnostics"],
            captures=captures,
            survivals=survivals,
            reuse=results["reuse"],
            pass_results=results,
            digest=digest,
            mode=mode,
            skipped_events=skipped,
        )


@dataclass
class FileAnalysis:
    """Merged whole-trace results of :meth:`ParallelEngine.analyze_file`."""

    meta: object
    n_events: int
    rho: float
    diagnostics: FootprintDiagnostics
    captures: int
    survivals: int
    reuse: ReuseHistogram
    #: every scheduled pass's finalized result, keyed by pass name
    pass_results: dict = field(default_factory=dict)
    #: content digest the analysis was addressed under (None when the
    #: archive has no usable health record or no store was configured)
    digest: str | None = None
    #: how the results were obtained: ``"cached"`` (served whole from
    #: the store), ``"incremental"`` (cached prefix + tail scan), or
    #: ``"full"`` (cold scan). The streaming service surfaces this in
    #: query responses so clients can see the incremental path working.
    mode: str = "full"
    #: events skipped by the verified-prefix scan in incremental mode
    skipped_events: int = 0

    @property
    def reuse_scope(self) -> str:
        """``"sample"`` or ``"chunk"`` — see :attr:`ReuseHistogram.scope`.

        ``"chunk"`` flags that the archive stored no sample ids, so the
        reuse histogram's windows are chunk-delimited and its numbers
        depend on the chunk size the analysis ran with.
        """
        return self.reuse.scope
