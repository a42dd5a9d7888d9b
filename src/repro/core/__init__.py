"""MemGaze's analysis layer: sampled-trace memory analysis (paper SS:IV-V).

The modules here implement the paper's multi-resolution analyses over
sampled, compressed traces:

* :mod:`repro.core.metrics` — footprint F, captures C, survivals S, and
  the estimated footprint F-hat (Eq. 3);
* :mod:`repro.core.growth` — footprint growth Delta-F (Eq. 4);
* :mod:`repro.core.reuse` — reuse intervals and spatio-temporal reuse
  distance D w.r.t. a configurable access-block size;
* :mod:`repro.core.diagnostics` — footprint access diagnostics
  decomposing footprint by Strided/Irregular pattern (SS:V-E);
* :mod:`repro.core.windows` — trace windows vs code windows (SS:IV-B);
* :mod:`repro.core.histograms` — power-of-2 window histograms and MAPE;
* :mod:`repro.core.interval_tree` — the execution interval tree / time
  zooming (Fig. 4) and fixed-count access intervals (Table VIII);
* :mod:`repro.core.zoom` — the location zoom tree over hot contiguous
  page regions (Fig. 5);
* :mod:`repro.core.heatmap` — (region page x time) access and reuse
  heatmaps (Fig. 8);
* :mod:`repro.core.report` — paper-style table rendering;
* :mod:`repro.core.passes` — the unified analysis-pass framework:
  dependency-scheduled passes sharing per-chunk intermediates, one
  fused scan for any set of metrics;
* :mod:`repro.core.parallel` — the sharded parallel analysis engine
  (registered passes as mergeable partials, bit-identical to the
  serial path);
* :mod:`repro.core.pipeline` — the end-to-end MemGaze driver.
"""

from repro._lazy import attach

# name -> defining module, imported on first access (PEP 562)
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.core.metrics": [
            "block_ids", "captures_survivals", "estimated_footprint", "footprint",
            "footprint_by_class", "nonconstant",
        ],
        "repro.core.growth": ["footprint_growth"],
        "repro.core.reuse": [
            "ReuseHistogram", "inter_sample_distance", "max_reuse_distance", "mean_reuse_distance",
            "region_reuse", "reuse_distances", "reuse_histogram", "reuse_intervals",
        ],
        "repro.core.parallel": ["LRUCache", "ParallelEngine", "plan_shards"],
        "repro.core.passes": [
            "AnalysisPass", "CapturesPartial", "ChunkContext", "DiagnosticsPartial", "RunContext",
            "UnknownPassError", "fused_scan", "get_pass", "list_passes", "register_pass",
            "schedule_passes",
        ],
        "repro.core.diagnostics": ["FootprintDiagnostics", "compute_diagnostics"],
        "repro.core.windows": ["code_windows", "trace_window_metrics"],
        "repro.core.histograms": ["mape", "window_histogram"],
        "repro.core.interval_tree": [
            "ExecutionIntervalTree", "IntervalNode", "access_interval_metrics",
        ],
        "repro.core.zoom": ["ZoomConfig", "ZoomRegion", "location_zoom"],
        "repro.core.heatmap": ["HeatmapResult", "access_heatmap"],
        "repro.core.report": [
            "format_quantity", "render_function_table", "render_interval_table",
            "render_region_table",
        ],
        "repro.core.pipeline": ["AnalysisConfig", "MemGaze", "MemGazeResult"],
        "repro.core.hotspot": ["Hotspot", "find_hotspots", "roi_from_hotspots"],
        "repro.core.confidence": [
            "WindowConfidence", "code_window_confidence", "flag_undersampled",
        ],
        "repro.core.workingset": ["WorkingSetPoint", "working_set_curve"],
        "repro.core.phases": ["Phase", "detect_phases"],
        "repro.core.cachesim": [
            "CacheConfig", "CacheStats", "HierarchyConfig", "HierarchyStats", "simulate_cache",
            "simulate_hierarchy",
        ],
        "repro.core.diff": ["FunctionDelta", "TraceDiff", "diff_traces"],
    },
)
