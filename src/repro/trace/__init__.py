"""Measurement substrate: the Processor-Trace/perf model (paper SS:II-III).

This package models the paper's measurement stack — `ptwrite` packets, the
pinned circular buffer, the sampling trigger, perf's drop behaviour for
full traces, the class-based trace compression with its decompression math
(rho and kappa, Eqs. 1-2), a packed on-disk trace format, and the analytic
time-overhead model behind Fig. 7.
"""

from repro._lazy import attach

# name -> defining module, imported on first access (PEP 562)
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.trace.event": [
            "EVENT_DTYPE", "LoadClass", "concat_events", "empty_events", "make_events",
        ],
        "repro.trace.buffer": ["CircularBuffer"],
        "repro.trace.sampler": ["SamplingConfig", "sample_bounds"],
        "repro.trace.collector": [
            "CollectionResult", "FullTraceResult", "collect_full_trace", "collect_sampled_trace",
        ],
        "repro.trace.compress": ["compression_ratio", "decompress_counts", "sample_ratio"],
        "repro.trace.tracefile": ["TraceMeta", "read_trace", "write_trace"],
        "repro.trace.overhead": ["OverheadModel", "OverheadReport", "PTMode"],
        "repro.trace.guards": ["RegionOfInterest", "apply_guards"],
        "repro.trace.packing": [
            "PackedTrace", "pack_strided_runs", "packed_bytes", "unpack_strided_runs",
        ],
    },
)
