"""Internal utilities shared across the MemGaze reproduction.

Nothing in this package is part of the public API; modules here provide
small, well-tested primitives (order-statistic trees, deterministic RNG
plumbing, wall-clock timers, and plain-text table rendering) that the
substrate and analysis layers build on.
"""

from repro._lazy import attach

# name -> defining module, imported on first access (PEP 562)
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro._util.fenwick": ["FenwickTree"],
        "repro._util.lru": ["LRUCache"],
        "repro._util.rng": ["derive_rng", "spawn_rngs"],
        "repro._util.tables": ["format_table"],
        "repro._util.timers": ["Timer"],
        "repro._util.validate": ["check_fraction", "check_positive", "check_power_of_two"],
    },
)
