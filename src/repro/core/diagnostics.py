"""Footprint access diagnostics (paper SS:V-E, Table I's metric family).

Decomposes a window's footprint into its *strided* (prefetchable) and
*irregular* (non-prefetchable) components using the static load classes —
constant time per record, no sequence analysis needed. The diagnostics
bundle the metrics the paper's tables report:

====================  =====================================================
``F``                 observed footprint (blocks)
``F_est``             estimated population footprint ``rho * F`` (Eq. 3)
``F_str``/``F_irr``   footprint touched via strided / irregular accesses
``F_str_pct``         strided share of the non-constant footprint (%)
``dF``                footprint growth ``F / (kappa A)`` (Eq. 4)
``dF_str``/``dF_irr`` per-class growth (class footprint per access)
``dF_str_pct``        strided share of footprint growth (%)
``A_const_pct``       share of accesses hitting constant-sized data (%)
``A_obs``             observed (compressed) records
``A_implied``         uncompressed accesses implied, ``kappa * A_obs``
``A_est``             estimated population accesses, ``rho * A_implied``
====================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FootprintDiagnostics", "compute_diagnostics", "finalize_diagnostics"]


@dataclass(frozen=True)
class FootprintDiagnostics:
    """The footprint-access diagnostic bundle for one window."""

    A_obs: int
    A_implied: int
    A_est: float
    F: int
    F_est: float
    F_str: int
    F_irr: int
    dF: float
    dF_str: float
    dF_irr: float
    A_const_pct: float

    @property
    def F_str_pct(self) -> float:
        """Strided share of the non-constant footprint, in percent."""
        denom = self.F_str + self.F_irr
        return 100.0 * self.F_str / denom if denom else 0.0

    @property
    def F_irr_pct(self) -> float:
        """Irregular share of the non-constant footprint, in percent."""
        denom = self.F_str + self.F_irr
        return 100.0 * self.F_irr / denom if denom else 0.0

    @property
    def dF_str_pct(self) -> float:
        """Strided share of footprint growth, in percent."""
        denom = self.dF_str + self.dF_irr
        return 100.0 * self.dF_str / denom if denom else 0.0

    @property
    def dF_irr_pct(self) -> float:
        """Irregular share of footprint growth, in percent."""
        denom = self.dF_str + self.dF_irr
        return 100.0 * self.dF_irr / denom if denom else 0.0


def finalize_diagnostics(
    *,
    a_obs: int,
    a_implied: int,
    f: int,
    f_str: int,
    f_irr: int,
    n_const_accesses: int,
    rho: float = 1.0,
) -> FootprintDiagnostics:
    """The diagnostic bundle from exact integer totals.

    This is the single site where the derived floats (F-hat, dF, the
    percentages) are evaluated, from the merged integer totals of a
    :class:`~repro.core.passes.DiagnosticsPartial` — so any sharding of
    a window finalizes to bit-identical results.
    """
    if rho < 1.0:
        raise ValueError(f"rho must be >= 1, got {rho}")
    window = a_implied if a_implied else 1
    return FootprintDiagnostics(
        A_obs=a_obs,
        A_implied=a_implied,
        A_est=rho * a_implied,
        F=f,
        F_est=rho * f,
        F_str=f_str,
        F_irr=f_irr,
        dF=f / window if a_implied else 0.0,
        dF_str=f_str / window if a_implied else 0.0,
        dF_irr=f_irr / window if a_implied else 0.0,
        A_const_pct=100.0 * n_const_accesses / window if a_implied else 0.0,
    )


def compute_diagnostics(
    events: np.ndarray, rho: float = 1.0, block: int = 1
) -> FootprintDiagnostics:
    """Compute the diagnostic bundle for ``events`` (one window).

    ``rho`` is the sample ratio used to scale observed quantities to the
    population (pass 1.0 for exact intra-window analysis). A one-chunk
    run of :class:`~repro.core.passes.DiagnosticsPartial`.
    """
    from repro.core.passes import DiagnosticsPartial

    return DiagnosticsPartial.from_events(events, block).finalize(rho)
