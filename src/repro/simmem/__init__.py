"""Simulated address space and instrumented data structures.

The paper traces native binaries whose data lives in a real virtual
address space. Library-path workloads here (miniVite, GAP, Darknet) run
against this package instead: an :class:`AddressSpace` hands out labelled
regions from a bump allocator, and the containers in
``repro.simmem.datastructs`` emit one :mod:`repro.trace.event` record per
logical element access through an :class:`AccessRecorder`.

The resulting streams carry exactly the (ip, addr, t, class) tuples the
analysis layer consumes, so every downstream code path is exercised as it
would be on a hardware-collected trace.
"""

from repro._lazy import attach

# name -> defining module, imported on first access (PEP 562)
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.simmem.address_space": ["AddressSpace", "Region"],
        "repro.simmem.recorder": ["AccessRecorder", "AccessSite"],
    },
)
