"""Observability layer: structured run journal + pipeline metrics.

MemGaze's pitch is *rapid* analysis at production trace volumes, which
makes the pipeline itself something to measure. This package provides
the two instruments every stage reports through:

* :mod:`repro.obs.journal` — an append-only JSONL **run journal**. Every
  pipeline stage (trace collection, shard planning, per-shard analysis,
  merge, report) emits one self-describing line with timings, item
  counts, and its rho/kappa/window parameters. The writer is
  process-safe (``O_APPEND`` + single-``write`` lines), so the parallel
  engine's pool workers journal directly from their own processes.
* :mod:`repro.obs.metrics` — a **metrics registry** of counters, gauges,
  and power-of-two histograms whose merge operators follow the same
  exactness contracts as the analysis partials in
  :mod:`repro.core.parallel`: integer addition, associative and
  commutative, so per-worker registries fold into one without loss.

Both are optional everywhere they are wired (``journal=None`` /
``metrics=None`` skips all work), so the instrumented hot paths cost
nothing when observability is off. ``memgaze report --journal PATH
--metrics PATH`` turns both on from the command line; see
``docs/observability.md`` for the schema and catalog.
"""

from repro._lazy import attach

# name -> defining module, imported on first access (PEP 562)
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.obs.journal": ["RunJournal", "read_journal"],
        "repro.obs.metrics": ["Counter", "Gauge", "Histogram", "MetricsRegistry"],
    },
)
