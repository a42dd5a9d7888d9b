"""Instrumented containers over the simulated address space.

Each container stores its payload in numpy arrays and emits one trace
event per logical element load through an
:class:`~repro.simmem.AccessRecorder`, with the load class the paper's
static classifier would assign to the corresponding compiled code:

* :class:`~repro.simmem.datastructs.array.FlatArray` — dense array;
  sequential sweeps are Strided, data-dependent gathers Irregular;
* :class:`~repro.simmem.datastructs.open_hash.OpenHashMap` — a chained
  ('open') hash table like ``std::unordered_map``: bucket-head loads and
  node chases are Irregular (miniVite v1);
* :class:`~repro.simmem.datastructs.hopscotch.HopscotchMap` — a closed
  hopscotch table: the home-slot probe is Irregular but the neighborhood
  scan is a contiguous Strided run (miniVite v2/v3);
* :class:`~repro.simmem.datastructs.csr.CSRGraph` — compressed sparse
  row graph storage: offset lookups strided under a vertex sweep,
  adjacency runs strided, gathers through adjacency Irregular.
"""

from repro._lazy import attach

# name -> defining module, imported on first access (PEP 562)
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.simmem.datastructs.array": ["FlatArray"],
        "repro.simmem.datastructs.open_hash": ["OpenHashMap"],
        "repro.simmem.datastructs.hopscotch": ["HopscotchMap"],
        "repro.simmem.datastructs.csr": ["CSRGraph"],
    },
)
