"""Memory access events: the unit record of every trace.

A trace — full or sampled, ISA-path or library-path — is a numpy
structured array of :data:`EVENT_DTYPE` records, one per *observed* load,
in retirement order. Each record carries:

``ip``
    Synthetic instruction pointer of the load (used for code windows and
    source attribution).
``addr``
    Effective data address in the simulated address space.
``t``
    Timestamp measured in retired loads since process start (the sampling
    trigger counts loads, so this is the natural time base; paper SS:III-C).
``cls``
    The load's static class (:class:`LoadClass`), from the instrumenter's
    annotations (paper SS:III-B).
``n_const``
    Number of *suppressed* Constant loads this record is a proxy for
    (paper Fig. 2). 0 for non-proxy records.
``fn``
    Function id of the enclosing procedure (for code-window aggregation).
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "LoadClass",
    "EVENT_DTYPE",
    "empty_events",
    "make_events",
    "concat_events",
    "first_invalid_class",
    "check_load_classes",
]


class LoadClass(enum.IntEnum):
    """Static access-pattern class of a load (paper SS:III-B).

    * ``CONSTANT`` — scalar load relative to a frame pointer or a global
      section with offset-only addressing; all such loads are viewed as
      touching one unit of space.
    * ``STRIDED`` — load whose address is an affine function of a loop
      induction variable with constant stride (prefetchable).
    * ``IRREGULAR`` — everything else, typically indirect loads through
      pointers (non-prefetchable).
    """

    CONSTANT = 0
    STRIDED = 1
    IRREGULAR = 2


EVENT_DTYPE = np.dtype(
    [
        ("ip", np.uint64),
        ("addr", np.uint64),
        ("t", np.uint64),
        ("cls", np.uint8),
        ("n_const", np.uint16),
        ("fn", np.uint32),
    ]
)


def empty_events(n: int = 0) -> np.ndarray:
    """Return an empty (or zeroed length-``n``) event array."""
    return np.zeros(n, dtype=EVENT_DTYPE)


def make_events(
    ip,
    addr,
    t=None,
    cls=LoadClass.IRREGULAR,
    n_const=0,
    fn=0,
) -> np.ndarray:
    """Build an event array from per-field values (scalars broadcast).

    ``t`` defaults to ``arange(n)`` — consecutive retired loads.
    """
    ip = np.asarray(ip, dtype=np.uint64)
    addr = np.asarray(addr, dtype=np.uint64)
    if ip.ndim == 0:
        ip = np.broadcast_to(ip, addr.shape).copy()
    if addr.ndim == 0:
        addr = np.broadcast_to(addr, ip.shape).copy()
    if ip.shape != addr.shape:
        raise ValueError(f"ip shape {ip.shape} != addr shape {addr.shape}")
    n = ip.shape[0] if ip.ndim else 1
    ev = empty_events(n)
    ev["ip"] = ip
    ev["addr"] = addr
    ev["t"] = np.arange(n, dtype=np.uint64) if t is None else np.asarray(t, dtype=np.uint64)
    ev["cls"] = np.asarray(cls, dtype=np.uint8)
    ev["n_const"] = np.asarray(n_const, dtype=np.uint16)
    ev["fn"] = np.asarray(fn, dtype=np.uint32)
    return ev


def concat_events(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate event arrays, validating the dtype."""
    for p in parts:
        if p.dtype != EVENT_DTYPE:
            raise TypeError(f"expected EVENT_DTYPE, got {p.dtype}")
    if not parts:
        return empty_events()
    return np.concatenate(parts)


def first_invalid_class(events: np.ndarray) -> int | None:
    """Index of the first record whose ``cls`` is no :class:`LoadClass` code.

    ``None`` when every record is valid. ``cls`` is unsigned, so only
    codes above the largest class can be out of range.
    """
    bad = events["cls"] > max(LoadClass)
    return int(np.argmax(bad)) if bad.any() else None


def check_load_classes(events: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first out-of-range ``cls`` code."""
    i = first_invalid_class(events)
    if i is not None:
        valid = ", ".join(f"{int(c)}={c.name}" for c in LoadClass)
        raise ValueError(
            f"record {i} has load-class code {int(events['cls'][i])}; "
            f"valid codes are {valid}"
        )
