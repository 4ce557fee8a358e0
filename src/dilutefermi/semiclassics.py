"""Phase-space counting functions and filling-level solving.

The momentum integrals are eliminated analytically, so the particle
count at level L reduces to (1/(6 pi^2)) int (L - V)_+^{3/2} and the
energy to (1/(2 pi^2)) int [(1/5)(L - V)_+^{5/2} + (V/3)(L - V)_+^{3/2}].
Both are level integrals over {V <= L}, evaluated together by the level
rule of ``thomas_fermi`` (one support root on the trap's ray, a Gauss
rule up to it).  Also houses the shifted variational energy and a
finite-difference differentiability probe for the count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .thomas_fermi import NormalizationError, _fix_level, _level_integrals, _rays

__all__ = [
    "PhaseSpaceBudget",
    "H2Report",
    "DivergenceError",
    "phase_space_counts",
    "lambda_for_filling",
    "h2_probe",
]


class DivergenceError(RuntimeError):
    """The phase-space integral does not converge (trap not confining)."""


@dataclass(frozen=True)
class PhaseSpaceBudget:
    """Counting data at one energy level."""

    Lambda: float
    n_cl: float
    e_cl: float

    @property
    def e_tilde(self):
        return self.e_cl - self.Lambda * self.n_cl


def _counts(rays, Lambda, fields):
    """Level integrals of ``fields`` over {V <= Lambda}; a trap that does not confine diverges."""
    try:
        return _level_integrals(rays, Lambda, fields)[0]
    except NormalizationError as exc:
        raise DivergenceError(str(exc)) from exc


def phase_space_counts(v, Lambda) -> PhaseSpaceBudget:
    """Particle and energy counts of the filled phase-space region below Lambda."""
    if not math.isfinite(Lambda):
        raise ValueError("Lambda must be finite")

    def fields(gap, vr):
        g15 = gap**1.5
        return g15, 0.2 * gap**2.5 + vr / 3.0 * g15

    n_cl, e_cl = _counts(_rays(v), Lambda, fields)
    return PhaseSpaceBudget(
        float(Lambda), float(n_cl) / (6.0 * math.pi**2), float(e_cl) / (2.0 * math.pi**2)
    )


def lambda_for_filling(v, target):
    """Level Lambda with n_cl(Lambda) = target, by Newton steps from above.

    The slope d n_cl / d Lambda = (1/(6 pi^2)) int (3/2) (Lambda - V)_+^{1/2}
    comes from the same call of the level rule as the count.
    """
    if not target > 0:
        raise NormalizationError("filling target must be positive (bracket degenerates)")

    rays = _rays(v)

    def level(lam):
        n, slope = _counts(rays, lam, lambda gap, vr: (gap**1.5, 1.5 * gap**0.5))
        return float(n) / (6.0 * math.pi**2) - target, float(slope) / (6.0 * math.pi**2)

    return _fix_level(level, rays.vmin, "filling level")[0]


@dataclass
class H2Report:
    """Finite-difference evidence for differentiability of the count.

    ``derivatives`` are central estimates of d n_cl / d Lambda at the
    interior grid points; ``score`` is the largest second difference of
    those estimates relative to the local derivative size, which stays
    O(spacing^2) for a smooth count and spikes at cusps.  The grid-based
    probe certifies smoothness only at the probed levels.
    """

    lambdas: np.ndarray
    derivatives: np.ndarray
    score: float
    flagged: bool
    counts: np.ndarray = field(repr=False, default=None)


# score above which the probe flags the count as not smooth
H2_THRESHOLD = 0.1


def h2_probe(v, lambda_grid) -> H2Report:
    """Probe smoothness of Lambda -> n_cl on an increasing grid of levels."""
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.size < 8 or np.any(np.diff(grid) <= 0):
        raise ValueError("need an increasing grid of at least 8 levels")
    counts = np.array([phase_space_counts(v, lam).n_cl for lam in grid])
    mids = grid[1:-1]
    derivs = (counts[2:] - counts[:-2]) / (grid[2:] - grid[:-2])
    second = np.abs(derivs[2:] - 2.0 * derivs[1:-1] + derivs[:-2])
    scale = np.maximum(np.abs(derivs[1:-1]), 1e-300)
    score = float(np.max(second / scale))
    return H2Report(
        lambdas=mids,
        derivatives=derivs,
        score=score,
        flagged=bool(score > H2_THRESHOLD),
        counts=counts,
    )
