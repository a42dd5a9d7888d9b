"""The paper's workloads (SS:VI-VII).

* :mod:`repro.workloads.microbench` — composable strided/irregular
  microbenchmarks written in the synthetic ISA ('str<k>', 'irr', joined
  with '/' for conditional and '|' for series composition);
* :mod:`repro.workloads.minivite` — Louvain community detection with the
  three hash-map variants of the paper's miniVite case study;
* :mod:`repro.workloads.gap` — GAP-style PageRank (pr, pr-spmv) and
  Connected Components (cc Afforest, cc-sv Shiloach-Vishkin);
* :mod:`repro.workloads.darknet` — Darknet-style conv-net inference
  (im2col + gemm) with AlexNet-like and ResNet152-like layer stacks;
* :mod:`repro.workloads.kvreuse` — KV-cache style serving streams
  (stable prefixes, unstable tails, interleaved sessions) feeding the
  ``cache_sweep`` what-if pass.
"""

from repro._lazy import attach

# name -> defining module, imported on first access (PEP 562)
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.workloads.microbench": [
            "MICROBENCH_SPECS", "MicrobenchResult", "build_microbench", "run_microbench",
        ],
        "repro.workloads.kernels": ["KERNELS", "KernelResult", "build_kernel", "run_kernel"],
        "repro.workloads.cost": ["MemoryCostModel"],
        "repro.workloads.parallel": ["interleave_streams", "split_vertices"],
    },
)
