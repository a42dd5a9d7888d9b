"""GAP-style graph workloads (paper SS:VII-C).

* :mod:`repro.workloads.gap.graphs` — Kronecker (RMAT) and uniform graph
  generators plus instrumented CSR construction (the 'graph build' phase
  the paper's time analysis separates out);
* :mod:`repro.workloads.gap.pagerank` — PageRank: ``pr`` (Gauss-Seidel,
  in-place score updates) and ``pr-spmv`` (Jacobi, next-iteration score
  vector);
* :mod:`repro.workloads.gap.cc` — Connected Components: ``cc`` (Afforest
  with subgraph sampling) and ``cc-sv`` (Shiloach-Vishkin).
"""

from repro._lazy import attach

# name -> defining module, imported on first access (PEP 562)
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.workloads.gap.graphs": ["build_csr", "kronecker_edges", "uniform_edges"],
        "repro.workloads.gap.pagerank": ["PageRankResult", "run_pagerank"],
        "repro.workloads.gap.cc": ["CCResult", "run_cc"],
    },
)
