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

from repro.core.metrics import (
    block_ids,
    captures_survivals,
    estimated_footprint,
    footprint,
    footprint_by_class,
    nonconstant,
)
from repro.core.growth import footprint_growth
from repro.core.reuse import (
    ReuseHistogram,
    inter_sample_distance,
    max_reuse_distance,
    mean_reuse_distance,
    region_reuse,
    reuse_distances,
    reuse_histogram,
    reuse_intervals,
)
from repro.core.parallel import (
    LRUCache,
    ParallelEngine,
    plan_shards,
)
from repro.core.passes import (
    AnalysisPass,
    CapturesPartial,
    ChunkContext,
    DiagnosticsPartial,
    RunContext,
    UnknownPassError,
    fused_scan,
    get_pass,
    list_passes,
    register_pass,
    schedule_passes,
)
from repro.core.diagnostics import FootprintDiagnostics, compute_diagnostics
from repro.core.windows import code_windows, trace_window_metrics
from repro.core.histograms import mape, window_histogram
from repro.core.interval_tree import (
    ExecutionIntervalTree,
    IntervalNode,
    access_interval_metrics,
)
from repro.core.zoom import ZoomConfig, ZoomRegion, location_zoom
from repro.core.heatmap import HeatmapResult, access_heatmap
from repro.core.report import (
    format_quantity,
    render_function_table,
    render_interval_table,
    render_region_table,
)
from repro.core.pipeline import AnalysisConfig, MemGaze, MemGazeResult
from repro.core.hotspot import Hotspot, find_hotspots, roi_from_hotspots
from repro.core.confidence import (
    WindowConfidence,
    code_window_confidence,
    flag_undersampled,
)
from repro.core.workingset import WorkingSetPoint, working_set_curve
from repro.core.phases import Phase, detect_phases
from repro.core.cachesim import (
    CacheConfig,
    CacheStats,
    HierarchyConfig,
    HierarchyStats,
    simulate_cache,
    simulate_hierarchy,
)
from repro.core.diff import FunctionDelta, TraceDiff, diff_traces

__all__ = [
    "block_ids",
    "captures_survivals",
    "estimated_footprint",
    "footprint",
    "footprint_by_class",
    "nonconstant",
    "footprint_growth",
    "inter_sample_distance",
    "max_reuse_distance",
    "mean_reuse_distance",
    "region_reuse",
    "reuse_distances",
    "reuse_histogram",
    "reuse_intervals",
    "ReuseHistogram",
    "CapturesPartial",
    "DiagnosticsPartial",
    "LRUCache",
    "ParallelEngine",
    "plan_shards",
    "AnalysisPass",
    "ChunkContext",
    "RunContext",
    "UnknownPassError",
    "fused_scan",
    "get_pass",
    "list_passes",
    "register_pass",
    "schedule_passes",
    "FootprintDiagnostics",
    "compute_diagnostics",
    "code_windows",
    "trace_window_metrics",
    "mape",
    "window_histogram",
    "ExecutionIntervalTree",
    "IntervalNode",
    "access_interval_metrics",
    "ZoomConfig",
    "ZoomRegion",
    "location_zoom",
    "HeatmapResult",
    "access_heatmap",
    "format_quantity",
    "render_function_table",
    "render_interval_table",
    "render_region_table",
    "AnalysisConfig",
    "MemGaze",
    "MemGazeResult",
    "Hotspot",
    "find_hotspots",
    "roi_from_hotspots",
    "WindowConfidence",
    "code_window_confidence",
    "flag_undersampled",
    "WorkingSetPoint",
    "working_set_curve",
    "Phase",
    "detect_phases",
    "CacheConfig",
    "CacheStats",
    "HierarchyConfig",
    "HierarchyStats",
    "simulate_cache",
    "simulate_hierarchy",
    "FunctionDelta",
    "TraceDiff",
    "diff_traces",
]
