"""MemGaze reproduction: load-level sampled memory trace analysis.

A Python reproduction of *MemGaze: Rapid and Effective Load-Level Memory
Trace Analysis* (Kilic et al., IEEE CLUSTER 2022). The package provides:

* the paper's analysis layer — footprint, footprint growth,
  spatio-temporal reuse distance, footprint access diagnostics, trace /
  code windows, execution interval trees, location zooming, heatmaps
  (:mod:`repro.core`);
* the measurement model — ptwrite packets, PT circular buffer, sampling
  trigger, perf drop model, class-based trace compression with its
  rho/kappa decompression math, trace files, and the analytic overhead
  model (:mod:`repro.trace`);
* the instrumentation toolchain over a synthetic binary substrate —
  load classification, ptwrite insertion with per-block Constant-load
  proxies, annotation files, source attribution
  (:mod:`repro.instrument`, :mod:`repro.isa`);
* a simulated address space with instrumented data structures for
  library-path workloads (:mod:`repro.simmem`);
* the paper's workloads — microbenchmarks, miniVite-style Louvain with
  three hash-map variants, GAP-style PageRank and Connected Components,
  and Darknet-style im2col+gemm inference (:mod:`repro.workloads`).

Quickstart::

    from repro import MemGaze, AnalysisConfig, SamplingConfig
    from repro.workloads.microbench import run_microbench

    events, info = run_microbench("str4|irr", n=100_000, seed=0)
    mg = MemGaze(AnalysisConfig(SamplingConfig(period=10_000,
                                               buffer_capacity=2048)))
    result = mg.analyze_events(events, n_loads_total=info.n_loads)
    print(result.diagnostics)
"""

from repro._lazy import attach

# name -> defining module, imported on first access (PEP 562)
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.core": [
            "AnalysisConfig", "FootprintDiagnostics", "MemGaze", "MemGazeResult", "ZoomConfig",
            "access_heatmap", "access_interval_metrics", "code_windows", "compute_diagnostics",
            "footprint", "footprint_growth", "location_zoom", "mape", "mean_reuse_distance",
            "reuse_distances", "reuse_intervals", "window_histogram",
        ],
        "repro.trace": [
            "LoadClass", "OverheadModel", "PTMode", "SamplingConfig", "collect_full_trace",
            "collect_sampled_trace", "compression_ratio", "read_trace", "sample_ratio",
            "write_trace",
        ],
        "repro.simmem": ["AccessRecorder", "AddressSpace"],
    },
)

__version__ = "0.1.0"

__all__ += ["__version__"]
