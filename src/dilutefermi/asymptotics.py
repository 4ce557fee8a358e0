"""Headline assembly: the two-term energy prediction, admissible box
scales, the box-decomposition upper-bound estimator, and the lower-bound
error budget.

Scaling conventions: hbar = N^(-1/3); the pair interaction is
w_N = N^(2 beta - 2/3) w(N^beta .) with range r = N^(-beta) R_w; the
dilute regime is beta > 1/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .scattering import InteractionSpec, zero_energy_solve
from .thomas_fermi import C_TF, TFSolution, tf_solve

__all__ = [
    "ScalingContext",
    "EnergyPrediction",
    "WindowReport",
    "BoxEstimate",
    "ErrorBudget",
    "RegimeError",
    "DegenerateTilingError",
    "make_context",
    "predict_energy",
    "beta_l_window",
    "box_estimate",
    "error_budget",
]


class RegimeError(ValueError):
    """Exponent beta outside the regime the construction needs."""


class DegenerateTilingError(ValueError):
    """Box side exceeds the support diameter, or the lattice has more than
    ``MAX_BOX_CELLS`` cells; the tiling is degenerate."""


@dataclass(frozen=True)
class ScalingContext:
    """Particle number, dilute exponent and the solved interaction data."""

    N: int
    beta: float
    a_w: float
    R_w: float

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if not self.beta > 1.0 / 3.0:
            raise RegimeError("dilute regime needs beta > 1/3")

    @property
    def hbar(self):
        return float(self.N) ** (-1.0 / 3.0)

    @property
    def gap(self):
        """Inter-box gap r = N^(-beta) R_w."""
        return float(self.N) ** (-self.beta) * self.R_w

    @property
    def coupling(self):
        """Contact coupling g = 8 pi a_w N^(1/3 - beta) of the perturbed functional."""
        return 8.0 * math.pi * self.a_w * float(self.N) ** (1.0 / 3.0 - self.beta)


def make_context(N, beta, interaction: InteractionSpec) -> ScalingContext:
    """Solve the interaction's scattering problem once and freeze the context."""
    sol = zero_energy_solve(interaction)
    return ScalingContext(
        N=int(N), beta=float(beta), a_w=sol.a, R_w=interaction.range_
    )


@dataclass
class EnergyPrediction:
    """Two-term expansion N E_TF + 2 pi a_w N^(4/3 - beta) int rho_TF^2."""

    N: int
    beta: float
    main: float
    correction: float

    @property
    def total(self):
        return self.main + self.correction

    @property
    def relative_correction(self):
        return self.correction / self.main


def predict_energy(v, ctx: ScalingContext, tf: TFSolution = None) -> EnergyPrediction:
    """Assemble the two-term prediction from the trap's minimizer data."""
    if tf is None:
        tf = tf_solve(v)
    main = ctx.N * tf.E_TF
    correction = (
        2.0
        * math.pi
        * ctx.a_w
        * float(ctx.N) ** (4.0 / 3.0 - ctx.beta)
        * tf.interaction_integral
    )
    return EnergyPrediction(N=ctx.N, beta=ctx.beta, main=main, correction=correction)


@dataclass
class WindowReport:
    """Admissible exponent window for the box side l = N^e.

    The box construction needs N^(1/3 - beta) >> l >> N^(-27/21 (1 - 3 beta) - beta)
    and l >> N^(beta/3 - 4/9); feasibility is the strict ordering of the
    exponents, decided in exact rational arithmetic when beta is given as
    a Fraction.
    """

    beta: object
    N: int
    e_hi: object
    e_lo1: object
    e_lo2: object
    feasible: bool
    lower_bound_regime: bool  # beta < 1/2, the lower-bound proof window
    chosen_l: float = None


def beta_l_window(beta, N) -> WindowReport:
    """Exponent window and midpoint box side for the given (beta, N)."""
    exact = isinstance(beta, Fraction)
    b = beta if exact else float(beta)
    one = Fraction(1) if exact else 1.0
    e_hi = one / 3 - b
    e_lo1 = -Fraction(27, 21) * (1 - 3 * b) - b if exact else -27.0 / 21.0 * (1.0 - 3.0 * b) - b
    e_lo2 = b / 3 - one * 4 / 9
    e_lo = max(e_lo1, e_lo2)
    feasible = e_hi > e_lo
    lower_flag = b < one / 2
    chosen_l = None
    if feasible:
        chosen_exponent = float(e_hi + e_lo) / 2.0
        chosen_l = float(N) ** chosen_exponent
    return WindowReport(
        beta=beta,
        N=int(N),
        e_hi=e_hi,
        e_lo1=e_lo1,
        e_lo2=e_lo2,
        feasible=bool(feasible),
        lower_bound_regime=bool(lower_flag),
        chosen_l=chosen_l,
    )


@dataclass
class BoxEstimate:
    """Box-decomposition sums against the continuum prediction.

    Cells of pitch l + r tile the bounding cube of the minimizer's
    support; each cell's occupied box has side l.  Cell masses M_i
    follow the ceiling rule M_i = ceil((N/2) int_cell rho_TF).  The
    kinetic+interaction sum applies the homogeneous energy-density
    formula per box at side L = N^beta l; the potential sum charges
    2 M_i sup_box V.  The Riemann-sum diagnostics use the exact cell
    masses (no ceiling), since the ceiling is an integrality device of
    the trial state, not part of the Riemann sums.
    """

    l: float
    gap: float
    L: float
    n_cells: int
    masses: np.ndarray = field(repr=False)
    centers: np.ndarray = field(repr=False)
    kin_per_box: np.ndarray = field(repr=False, default=None)
    pot_per_box: np.ndarray = field(repr=False, default=None)
    kinetic_interaction_sum: float = 0.0
    potential_sum: float = 0.0
    prediction_total: float = 0.0
    riemann_rho53: float = 0.0
    riemann_rho2: float = 0.0
    continuum_rho53: float = 0.0
    continuum_rho2: float = 0.0

    @property
    def total(self):
        return self.kinetic_interaction_sum + self.potential_sum

    @property
    def ratio(self):
        return self.total / self.prediction_total

    @property
    def mass_sum_doubled(self):
        return int(2 * np.sum(self.masses))

    @property
    def rho53_defect(self):
        return abs(self.riemann_rho53 - self.continuum_rho53)

    @property
    def rho2_defect(self):
        return abs(self.riemann_rho2 - self.continuum_rho2)


def _box_terms(masses, L, a_w):
    """Per-box 2 c_tf L^-2 M_i^(5/3) + 8 pi a_w L^-3 M_i^2, before the factor
    N^(2 beta - 2/3), on one float copy of the masses beside the result."""
    Mf = np.array(masses, dtype=float)
    terms = Mf ** (5.0 / 3.0)
    terms *= 2.0 * C_TF
    terms /= L**2
    Mf **= 2
    Mf *= 8.0 * math.pi * a_w
    Mf /= L**3
    terms += Mf
    return terms


_GL5_X, _GL5_W = np.polynomial.legendre.leggauss(5)


# rows of _cell_masses' (rows, 125) Gauss operand, 8 MB of nodes: the
# gemv of each block of this many cells rounds as one matrix
_MASS_OPERAND_ROWS = 8192
# cells whose nodes rho_fn sees in one call, 128 kB per temporary
_RHO_CALL_ROWS = 128


def _cell_masses(rho_fn, centers, pitch):
    """Per-cell integrals of the density by tensor 5-point Gauss.

    A node's squared radius sums its per-axis squares in x, y, z order,
    and ``rho_fn`` sees only the radii, so a cell's mass is a function of
    its orbit under the cube's 48 symmetries; ``box_estimate`` passes one
    representative center per orbit.  The densities of up to
    ``_MASS_OPERAND_ROWS`` cells fill one reused operand, ``_RHO_CALL_ROWS``
    cells per ``rho_fn`` call, and one gemv integrates them.
    """
    half = 0.5 * pitch
    offs = half * _GL5_X
    wts = half * _GL5_W
    ww = (wts[:, None, None] * wts[None, :, None] * wts[None, None, :]).ravel()
    out = np.empty(centers.shape[0])
    vals = np.empty((min(_MASS_OPERAND_ROWS, centers.shape[0]), ww.size))
    for i in range(0, centers.shape[0], _MASS_OPERAND_ROWS):
        block = centers[i : i + _MASS_OPERAND_ROWS]
        for j in range(0, len(block), _RHO_CALL_ROWS):
            sq = (block[j : j + _RHO_CALL_ROWS, :, None] + offs) ** 2
            r2 = (sq[:, 0, :, None, None] + sq[:, 1, None, :, None]) + sq[:, 2, None, None, :]
            vals[j : j + len(sq)] = rho_fn(np.sqrt(r2.ravel())).reshape(len(sq), -1)
        out[i : i + len(block)] = vals[: len(block)] @ ww
    return out


def _far_corner_square(c, half_l):
    """max((c - l/2)^2, (c + l/2)^2) along one axis, the farthest corner's square."""
    far = (c - half_l) ** 2
    return np.maximum(far, (c + half_l) ** 2, out=far)


# cells of the largest lattice box_estimate builds; l0/16 at N = 10^6 is 182^3.
# The estimator peaks at its 48 bytes of outputs per near cell plus one
# 8-byte working array, and near cells are ~54% of the lattice: l0/16 (3.25e6
# near cells) traces 174 MiB and adds 175 MiB to the process's peak RSS,
# ~30 bytes per lattice cell, so 2^24 cells is ~0.5 GB
MAX_BOX_CELLS = 2**24


def box_estimate(v, ctx: ScalingContext, l, tf: TFSolution = None) -> BoxEstimate:
    """Evaluate the box-decomposition sums for box side l.

    Radii are summed from per-axis squares in x, y, z order, with no
    dense lattice of coordinates.  Cell masses are integrated once per
    orbit of the cube's 48 symmetries (about 1/48 of the cells) on a
    fixed representative and copied to the other cells of the orbit, so
    mirror cells always get the same mass and the same ceiling M_i.
    For a nondecreasing radial trap v, sup_box V is V at the farthest
    corner: per axis the larger of (c - l/2)^2 and (c + l/2)^2.
    """
    if tf is None:
        tf = tf_solve(v)
    if l <= 0:
        raise ValueError("box side must be positive")
    R = tf.support_radius
    if l >= 2.0 * R:
        raise DegenerateTilingError(
            f"box side {l} does not tile the support diameter {2 * R:.3g}"
        )
    r = ctx.gap
    pitch = l + r
    n_side = int(math.ceil(2.0 * R / pitch))
    if n_side**3 > MAX_BOX_CELLS:
        raise DegenerateTilingError(
            f"box side {l} makes a {n_side}^3 lattice, more than {MAX_BOX_CELLS} cells"
        )
    start = -0.5 * n_side * pitch + 0.5 * pitch
    ax = start + pitch * np.arange(n_side)
    a2 = ax * ax
    # only cells that can intersect the support ball contribute
    dist = (a2[:, None, None] + a2[None, :, None]) + a2[None, None, :]
    cells = np.flatnonzero(np.sqrt(dist, out=dist) <= R + pitch)
    del dist
    idx = np.empty((cells.size, 3), dtype=np.min_scalar_type(n_side))
    for axis in (2, 1, 0):
        cells, idx[:, axis] = np.divmod(cells, n_side)
    del cells
    centers = ax[idx]

    # The lattice and rho_TF are invariant under the cube's 48 symmetries,
    # so fold each cell's indices to the wedge 0 <= i <= j <= k < h and
    # integrate once per orbit: mirror cells share one mass exactly.  The
    # orbits present are marked in a dense table of the h^3 folded triples
    # and taken in ascending order; each cell gathers its mass back from it.
    folded = np.minimum(idx, n_side - 1 - idx)
    del idx
    folded.sort(axis=1)
    wedge = ((n_side + 1) // 2,) * 3
    key = np.ravel_multi_index(folded.T, wedge)
    del folded
    present = np.zeros(math.prod(wedge), dtype=bool)
    present[key] = True
    orbits = np.flatnonzero(present)
    del present
    table = np.empty(math.prod(wedge))
    table[orbits] = _cell_masses(tf.rho_fn, ax[np.stack(np.unravel_index(orbits, wedge), axis=1)], pitch)
    masses = table[key]
    del key, table

    # Every later per-cell array is an output or one working array at a time
    cell_vol = pitch**3
    riemann53 = float(np.sum((masses / cell_vol) ** (5.0 / 3.0))) * cell_vol
    riemann2 = float(np.sum((masses / cell_vol) ** 2)) * cell_vol
    masses *= ctx.N / 2.0
    M = np.ceil(masses, out=masses).astype(np.int64)
    del masses

    # IEEE sums and sqrt are monotone, so this is the largest corner radius;
    # its per-axis squares are summed in x, y, z order
    half_l = 0.5 * l
    r2 = _far_corner_square(centers[:, 0], half_l)
    r2 += _far_corner_square(centers[:, 1], half_l)
    r2 += _far_corner_square(centers[:, 2], half_l)
    sup_v = v.radial_fn(np.sqrt(r2, out=r2))
    del r2
    pot_per_box = 2.0 * M * sup_v
    del sup_v
    pot = float(np.sum(pot_per_box))

    L = float(ctx.N) ** ctx.beta * l
    n_power = float(ctx.N) ** (2.0 * ctx.beta - 2.0 / 3.0)
    terms = _box_terms(M, L, ctx.a_w)
    kin_int = n_power * float(np.sum(terms))
    kin_per_box = np.multiply(terms, n_power, out=terms)

    pred = predict_energy(v, ctx, tf)

    return BoxEstimate(
        l=float(l),
        gap=r,
        L=L,
        n_cells=int(centers.shape[0]),
        masses=M,
        centers=centers,
        kin_per_box=kin_per_box,
        pot_per_box=pot_per_box,
        kinetic_interaction_sum=kin_int,
        potential_sum=pot,
        prediction_total=pred.total,
        riemann_rho53=riemann53,
        riemann_rho2=riemann2,
        continuum_rho53=tf.kinetic_integral,
        continuum_rho2=tf.interaction_integral,
    )


@dataclass
class ErrorBudget:
    """Lower-bound error budget f(N) under the coupled parameter rules.

    With delta = eps, p_F^-2 = eps N^(1/3 - beta), s^2 = eps^2 N^(1/3 - beta)
    and R = eps hbar, the budget reads
    f(N) = N^(5/6) + p_F^-2 N
         + delta^-1 N^(1/3 - beta) (N^(-1/18) + N^(1/6 - beta/2)) (R^-3 + 1/(eps s^2 R))
         + N^(1/3 - beta) / (eps s^2 R).
    The coupling eps = (N^(-1/18) + N^(1/6 - beta/2))^(1/8) sits strictly
    inside the corridor 1 >> eps >> (...)^(1/4).
    """

    N: int
    beta: float
    epsilon: float
    delta: float
    p_F: float
    s: float
    R: float
    bulk_term: float  # N^(5/6)
    cutoff_term: float  # p_F^-2 N
    softening_term: float  # the delta^-1 (...) combination
    remainder_term: float  # N^(1/3-beta) / (eps s^2 R)

    @property
    def total(self):
        return self.bulk_term + self.cutoff_term + self.softening_term + self.remainder_term

    @property
    def ratio(self):
        """f(N) / N^(4/3 - beta); vanishing ratio is the budget's whole point."""
        return self.total / float(self.N) ** (4.0 / 3.0 - self.beta)


def error_budget(N, beta) -> ErrorBudget:
    """Evaluate the error budget at (N, beta) with the coupling eps of ``ErrorBudget``."""
    N = int(N)
    beta = float(beta)
    if not (1.0 / 3.0 < beta < 0.5):
        raise RegimeError("error budget needs 1/3 < beta < 1/2")
    A = float(N) ** (-1.0 / 18.0) + float(N) ** (1.0 / 6.0 - beta / 2.0)
    eps = A ** (1.0 / 8.0)
    hbar = float(N) ** (-1.0 / 3.0)
    delta = eps
    p_F = (eps * float(N) ** (1.0 / 3.0 - beta)) ** (-0.5)
    s = eps * float(N) ** ((1.0 / 3.0 - beta) / 2.0)
    R = eps * hbar
    bulk = float(N) ** (5.0 / 6.0)
    cutoff = N / p_F**2
    softening = (
        (1.0 / delta)
        * float(N) ** (1.0 / 3.0 - beta)
        * A
        * (R**-3 + 1.0 / (eps * s**2 * R))
    )
    remainder = float(N) ** (1.0 / 3.0 - beta) / (eps * s**2 * R)
    return ErrorBudget(
        N=N,
        beta=beta,
        epsilon=eps,
        delta=delta,
        p_F=p_F,
        s=s,
        R=R,
        bulk_term=bulk,
        cutoff_term=cutoff,
        softening_term=softening,
        remainder_term=remainder,
    )
