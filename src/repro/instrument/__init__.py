"""Static analysis and binary instrumentation (paper SS:III).

Mirrors MemGaze's DynInst-based instrumentor:

* :mod:`repro.instrument.classify` — classify every load as Constant,
  Strided, or Irregular from addressing modes and loop dataflow (SS:III-B);
* :mod:`repro.instrument.instrumenter` — rewrite a module, inserting one
  ``ptwrite`` per dynamic address register of each selected load and
  electing a per-block *proxy* that carries the count of suppressed
  Constant loads (Fig. 2);
* :mod:`repro.instrument.annotations` — the auxiliary annotation file
  (literals, classes, proxy counts, source map) with JSON round-trip;
* :mod:`repro.instrument.attribution` — instrumented-code to source-line
  mapping (SS:III-D);
* :mod:`repro.instrument.rebuild` — 'Analysis/1': join raw ptwrite packets
  with annotations to reconstruct the load-level event trace.
"""

from repro._lazy import attach

# name -> defining module, imported on first access (PEP 562)
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.instrument.classify": ["LoadInfo", "classify_loads", "classify_module"],
        "repro.instrument.annotations": ["AnnotationFile", "LoadAnnotation", "PtwAnnotation"],
        "repro.instrument.instrumenter": ["InstrumentResult", "instrument_module"],
        "repro.instrument.attribution": ["SourceMap"],
        "repro.instrument.rebuild": ["rebuild_trace"],
    },
)
