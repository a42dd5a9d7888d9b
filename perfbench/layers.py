"""Which program entry points the traced run wraps, and what they mean.

Each entry point becomes a span named ``<layer>.<what>``; a layer's
``*_s`` metric is the summed *self* time of its spans (its duration
minus what nested layer spans cover), so the layer times of one
operation add up to its wall time, with ``unaccounted_s`` the rest.

:data:`MOVES` records, for every per-layer metric the traced run
prints, which end-to-end metric on which workload it is expected to
move; the other workloads are predicted not to move.
"""

from __future__ import annotations

import concurrent.futures
import importlib

from spans import Patcher, Recorder

#: (module, attribute, span name) for plain functions
FUNCTIONS = [
    ("repro.trace.loader", "load_trace_collection", "trace.read"),
    ("repro.trace.tracefile", "write_trace", "trace.write"),
    ("repro.trace.tracefile", "read_trace_meta", "trace.read"),
    ("repro.trace.tracefile", "read_trace_health", "trace.read"),
    ("repro.core.shm", "publish_shard", "shm.publish"),
    ("repro.core.parallel", "plan_shards", "parallel.plan"),
    ("repro.core.passes", "scan_chunk", "passes.scan"),
    ("repro.core.passes", "merge_partial_lists", "parallel.merge"),
    ("repro.core.interval_tree", "access_interval_metrics", "interval_tree.intervals"),
    ("repro.core.phases", "detect_phases", "phases.detect"),
    ("repro.core.zoom", "location_zoom", "zoom.location"),
    ("repro.viz.viewmodel", "build_viewmodel", "viz.viewmodel"),
    ("repro.viz.template", "render_viewmodel", "viz.render"),
    ("repro.core.report", "full_report_payload", "report.payload"),
    ("repro.core.report", "viz_report_payload", "report.payload"),
    ("repro.core.report", "passes_payload", "report.payload"),
    ("repro.core.report", "payload_json", "report.payload"),
    ("repro.core.matrix", "run_matrix", "matrix.cell"),
    ("repro.core.diff", "corpus_diff", "diff.verdict"),
]

#: (module, class, method, span name)
METHODS = [
    ("repro.core.artifacts", "ArtifactStore", "archive_digest", "artifacts.digest"),
    ("repro.core.artifacts", "ArtifactStore", "digest_health", "artifacts.digest"),
    ("repro.core.artifacts", "ArtifactStore", "get_partial", "artifacts.get"),
    ("repro.core.artifacts", "ArtifactStore", "put_partial", "artifacts.put"),
    ("repro.core.artifacts", "ArtifactStore", "get_state", "artifacts.get"),
    ("repro.core.artifacts", "ArtifactStore", "put_state", "artifacts.put"),
    ("repro.core.artifacts", "ArtifactStore", "find_prefix_state", "artifacts.get"),
    ("repro.core.parallel", "ParallelEngine", "run_passes", "parallel.engine"),
    ("repro.core.parallel", "ParallelEngine", "analyze_file", "parallel.engine"),
    ("repro.core.parallel", "ParallelEngine", "close", "parallel.engine"),
    ("repro.core.parallel", "ParallelEngine", "heatmap", "heatmap.build"),
    ("repro.core.interval_tree", "ExecutionIntervalTree", "build", "interval_tree.build"),
    ("repro.serve.session", "ServeSession", "ingest", "session.ingest"),
    ("repro.serve.session", "ServeSession", "query", "session.query"),
]

#: per-layer metric -> (unit, the end-to-end metric and workload it should move)
MOVES = {
    "trace.read_s": ("s", "warm_s on report-json (most of the warm run); cold_s on matrix-sweep"),
    "trace.read_mb_per_s": ("MB/s", "warm_s on report-json"),
    "trace.chunk_read_s": ("s", "cold_s on matrix-sweep"),
    "trace.chunks": ("count", "cold_s on matrix-sweep"),
    "trace.write_s": ("s", "cold_s and events_per_s on serve-stream; setup_s everywhere"),
    "trace.archive_mb": ("MB", "setup_s everywhere; cold_s on serve-stream"),
    "shm.publish_s": ("s", "cold_s on report-json"),
    "shm.mb_published": ("MB", "cold_s on report-json"),
    "parallel.plan_s": ("s", "cold_s on report-json"),
    "parallel.wait_s": ("s", "cold_s on report-json and matrix-sweep"),
    "parallel.merge_s": ("s", "cold_s on report-json and matrix-sweep"),
    "parallel.engine_s": ("s", "cold_s on report-json and matrix-sweep"),
    "parallel.shards": ("count", "cold_s on report-json and matrix-sweep"),
    "parallel.incremental_ratio": ("ratio", "cold_s (fresh latency) on serve-stream"),
    "passes.scan_s": ("s", "cold_s on serve-stream (inline scans)"),
    "passes.reuse_s": ("s", "cold_s and events_per_s on report-json and matrix-sweep"),
    "passes.diagnostics_s": ("s", "cold_s and events_per_s on report-json and matrix-sweep"),
    "passes.windows_s": ("s", "cold_s and events_per_s on report-json and matrix-sweep"),
    "passes.captures_s": ("s", "cold_s and events_per_s on report-json and matrix-sweep"),
    "passes.hotspot_s": ("s", "cold_s and events_per_s on report-json and matrix-sweep"),
    "passes.cache_sweep_s": ("s", "cold_s on matrix-sweep only"),
    "passes.events": ("count", "events_per_s everywhere"),
    "artifacts.digest_s": ("s", "warm_s on matrix-sweep and report-json"),
    "artifacts.get_s": ("s", "warm_s on matrix-sweep and report-json"),
    "artifacts.put_s": ("s", "warm_s on matrix-sweep and report-json"),
    "artifacts.hit_ratio": ("ratio", "warm_s on matrix-sweep and report-json"),
    "interval_tree.build_s": ("s", "cold_s and warm_s on report-html only"),
    "interval_tree.intervals_s": ("s", "cold_s and warm_s on report-html only"),
    "phases.detect_s": ("s", "cold_s and warm_s on report-html only"),
    "zoom.location_s": ("s", "cold_s and warm_s on report-html only"),
    "heatmap.build_s": ("s", "cold_s and warm_s on report-html only"),
    "viz.viewmodel_s": ("s", "cold_s on report-html"),
    "viz.render_s": ("s", "cold_s on report-html"),
    "viz.html_mb": ("MB", "cold_s on report-html"),
    "report.payload_s": ("s", "cold_s on report-html and report-json"),
    "serve.append_ack_ms": ("ms", "cold_s (fresh latency) on serve-stream"),
    "serve.query_ms": ("ms", "cold_s (fresh latency) on serve-stream"),
    "serve.overhead_ms": ("ms", "cold_s (fresh latency) on serve-stream"),
    "session.ingest_s": ("s", "cold_s and events_per_s on serve-stream"),
    "session.write_s": ("s", "cold_s and events_per_s on serve-stream"),
    "session.analyze_s": ("s", "cold_s and events_per_s on serve-stream"),
    "session.query_s": ("s", "cold_s on serve-stream"),
    "matrix.cell_s": ("s", "cold_s on matrix-sweep"),
    "diff.verdict_s": ("s", "cold_s on matrix-sweep"),
    "unaccounted_s": ("s", "none: the part of the traced wall no layer span covers"),
    "trace_overhead_s": ("s", "none: traced minus untraced wall of the same replay"),
}

#: share of the traced wall that ``unaccounted_s`` must stay under
UNACCOUNTED_BOUND = 0.10


def _count_items(rec: Recorder, name: str):
    def on_item(item):
        events, sid = item
        rec.count(name)
        rec.count("trace.decoded_bytes", events.nbytes + (0 if sid is None else sid.nbytes))

    return on_item


def instrument(rec: Recorder) -> Patcher:
    """Wrap every entry point in :data:`FUNCTIONS` / :data:`METHODS`."""
    for mod in {m for m, _, _ in FUNCTIONS} | {m for m, _, _, _ in METHODS}:
        importlib.import_module(mod)
    importlib.import_module("repro.cli")
    patcher = Patcher()

    def counting_read(result):
        rec.count("trace.decoded_bytes", _loaded_bytes(result))

    for mod, attr, span in FUNCTIONS:
        on_result = None
        if attr == "load_trace_collection":
            on_result = counting_read
        elif attr == "plan_shards":
            on_result = lambda shards: rec.count("parallel.shards", len(shards))  # noqa: E731
        elif attr == "publish_shard":
            on_result = lambda slab: rec.count("shm.bytes", slab.nbytes)  # noqa: E731
        elif attr == "render_viewmodel":
            on_result = lambda text: rec.count("viz.html_bytes", len(text.encode()))  # noqa: E731
        patcher.function(
            importlib.import_module(mod),
            attr,
            lambda fn, span=span, on_result=on_result: rec.wrap(span, fn, on_result),
        )
    tracefile = importlib.import_module("repro.trace.tracefile")
    patcher.function(
        tracefile,
        "iter_trace_chunks",
        lambda fn: rec.wrap_generator("trace.chunk_read", fn, _count_items(rec, "trace.chunks")),
    )
    for mod, cls_name, attr, span in METHODS:
        cls = getattr(importlib.import_module(mod), cls_name)
        on_result = None
        if attr == "get_partial":
            miss = importlib.import_module("repro.core.artifacts").MISS

            def on_result(result, miss=miss):
                rec.count("artifacts.gets")
                if result is not miss:
                    rec.count("artifacts.hits")

        elif attr == "analyze_file":

            def on_result(result):
                rec.count("parallel.analyze_calls")
                if result.mode in ("incremental", "cached"):
                    rec.count("parallel.analyze_reused")

        patcher.method(
            cls, attr, lambda fn, span=span, on_result=on_result: rec.wrap(span, fn, on_result)
        )
    patcher.method(
        concurrent.futures.Future, "result", lambda fn: rec.wrap("parallel.wait", fn)
    )
    return patcher


def _loaded_bytes(loaded) -> int:
    col = loaded.collection
    return col.events.nbytes + (0 if col.sample_id is None else col.sample_id.nbytes)
