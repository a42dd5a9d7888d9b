"""Synthetic binary substrate (stands in for x64 binaries + DynInst).

The paper's instrumenter consumes facts a binary analyser extracts from
x64 object code: addressing modes, frame/global relativity, control flow,
and data dependences on loop induction variables. This package provides a
small ISA with exactly those properties:

* :mod:`repro.isa.program` — modules, procedures, basic blocks, and
  instructions with x64-like ``base + index*scale + offset`` addressing;
* :mod:`repro.isa.builder` — a structured-programming DSL that lowers
  loops and conditionals to labelled blocks;
* :mod:`repro.isa.cfg` — control-flow graphs, dominators, natural loops;
* :mod:`repro.isa.dataflow` — loop-invariance and induction-variable
  detection (basic and derived IVs);
* :mod:`repro.isa.interp` — an interpreter that executes a module against
  a simulated address space and emits the load stream (oracle mode) or
  the raw ``ptwrite`` packet stream (instrumented mode).
"""

from repro._lazy import attach

# name -> defining module, imported on first access (PEP 562)
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.isa.program": [
            "BasicBlock", "Instruction", "MemRef", "Module", "Opcode", "Procedure",
        ],
        "repro.isa.builder": ["ProgramBuilder"],
        "repro.isa.cfg": ["CFG", "Loop", "build_cfg", "natural_loops"],
        "repro.isa.dataflow": ["InductionInfo", "analyze_induction"],
        "repro.isa.interp": ["ExecResult", "Interpreter", "PTW_DTYPE"],
    },
)
