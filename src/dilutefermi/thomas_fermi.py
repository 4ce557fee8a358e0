"""Thomas-Fermi density functionals for a trapped two-spin gas.

Every minimizer here is a pointwise inversion rho = F((lam - V)_+) of
its Euler-Lagrange equation, with the multiplier lam fixed by unit mass
through one monotone root.  The single-spin (total density) functional
inverts in closed form, rho = ((lam - V)_+ / kappa)^{3/2}; the coupled
two-spin functional inverts through the one positive root of the cubic
kappa_s t^2 + g t^3 = (lam - V)_+ in t = rho_s^{1/3}; the momentum-cutoff
variant caps the kinetic energy density at the Fermi level and is solved
exactly through its saturation structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    RadialProfile,
    Tolerance,
    find_root_monotone,
    find_sign_changes,
    integrate_radial,
)
from .tables import write_table

__all__ = [
    "C_TF",
    "KAPPA",
    "KAPPA_SPIN",
    "TFConstants",
    "TFSolution",
    "TwoSpinState",
    "CutoffTFSolution",
    "GridField",
    "DomainError",
    "NormalizationError",
    "tf_solve",
    "tf_functional",
    "two_spin_minimize",
    "cutoff_tf_solve",
    "cutoff_gap_scan",
    "write_density_csv",
]

#: kinetic coefficient of the per-spin functional, (3/5)(6 pi^2)^(2/3)
C_TF = 0.6 * (6.0 * math.pi**2) ** (2.0 / 3.0)
#: multiplier constant of the total-density Euler-Lagrange equation, (3 pi^2)^(2/3)
KAPPA = (3.0 * math.pi**2) ** (2.0 / 3.0)
#: per-spin Euler-Lagrange constant, (5/3) c_TF = (6 pi^2)^(2/3)
KAPPA_SPIN = (6.0 * math.pi**2) ** (2.0 / 3.0)


@dataclass(frozen=True)
class TFConstants:
    c_tf: float = C_TF
    kappa: float = KAPPA


class DomainError(ValueError):
    """Density input leaves the admissible domain (negative samples)."""


class NormalizationError(RuntimeError):
    """No chemical potential bracket normalizes the density to unit mass."""


@dataclass(frozen=True)
class GridField:
    """Scalar field sampled on a tensor grid (non-radial fallback)."""

    axes: tuple
    values: np.ndarray

    def integrate(self, integrand=None):
        w = 1.0
        vals = self.values if integrand is None else integrand
        for ax in reversed(self.axes):
            vals = np.tensordot(vals, _simpson_weights(ax), axes=([-1], [0]))
        return float(vals * w)


def _simpson_weights(x):
    n = len(x)
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson weights need an odd number of nodes >= 3")
    h = x[1] - x[0]
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


@dataclass
class TFSolution:
    """Minimizer of the total-density functional at unit mass."""

    lambda_TF: float
    rho: object  # RadialProfile, or GridField for non-radial traps
    support_radius: float
    E_TF: float
    kinetic_integral: float  # integral of rho^{5/3}
    potential_integral: float  # integral of V rho
    interaction_integral: float  # integral of rho^2
    mass: float
    lagrange_residual: float
    rho_fn: object = field(repr=False, default=None)
    potential: object = field(repr=False, default=None)


@dataclass
class TwoSpinState:
    """Symmetric minimizer of the coupled two-spin functional."""

    rho_up: RadialProfile
    rho_down: RadialProfile
    coupling: float
    energy: float
    lambda_two_spin: float
    iterations: int  # root-finder iterations fixing the multiplier; 0 at g = 0
    rho_up_values: np.ndarray = field(repr=False, default=None)
    rho_down_values: np.ndarray = field(repr=False, default=None)


@dataclass
class CutoffTFSolution:
    """Minimizer data of the Fermi-momentum-capped functional."""

    p_F: float
    E_TF_pF: float
    overflow_mass: float
    lambda_used: float
    regular_mass: float
    active: bool
    E_TF: float


_QUAD_TOL = Tolerance(abs=1e-12, rel=1e-12)


def _support_radius(vr, lam, r_seed=1.0):
    """Largest radius with V <= lam, found by doubling plus a sign scan."""
    hi = r_seed
    for _ in range(200):
        if float(vr(np.array([hi]))[0]) > lam:
            break
        hi *= 2.0
    else:
        raise NormalizationError("potential does not exceed the multiplier; not confining?")
    roots = find_sign_changes(lambda r: lam - vr(np.asarray(r)), 0.0, hi, scan_points=1024)
    if not roots:
        return 0.0, []
    return roots[-1], roots


def _level_density(vr, lam, invert):
    """Pointwise inversion rho(r) = invert((lam - V(r))_+), zero off the support.

    Returns the density with the support radius and the sign changes of
    lam - V, which are the quadrature breakpoints of every integral of it.
    """
    r_last, roots = _support_radius(vr, lam)

    def rho(r):
        gap = lam - vr(np.asarray(r, dtype=float))
        return np.where(gap > 0.0, invert(np.maximum(gap, 0.0)), 0.0)

    return rho, r_last, roots


def _tf_inversion(kappa):
    """gap -> (gap / kappa)^(3/2), the inverted Euler-Lagrange equation."""
    return lambda gap: (gap / kappa) ** 1.5


def _radial_mass(vr, lam, invert):
    """Integral of invert((lam - V)_+); zero when lam lies below the trap."""
    rho, r_last, roots = _level_density(vr, lam, invert)
    if r_last <= 0.0:
        return 0.0
    return integrate_radial(rho, r_last, _QUAD_TOL, breakpoints=roots)


def _fix_level(defect, vmin, tol, what):
    """Root of an increasing level defect, bracketed upwards from just above vmin.

    The upper end starts at vmin + 1 and its distance from vmin doubles
    until the defect turns positive.  The root finder's monotonicity scan
    is off: no caller reads its warning, and each scan point is a full
    mass quadrature.
    """
    lo = vmin + 1e-9
    hi = vmin + 1.0
    for _ in range(200):
        if defect(hi) > 0:
            break
        hi = vmin + 2.0 * (hi - vmin)
    else:
        raise NormalizationError(f"could not bracket the {what}")
    return find_root_monotone(defect, lo, hi, tol, scan_points=0)


def _tensor_grid(v, level, points=161):
    """Trap values on a tensor grid reaching 1.5 times past V > level on each axis.

    The reach along each coordinate axis is the first power of two where
    V exceeds ``level``.  Returns the axes and V on their product grid.
    """
    extents = []
    for axis in range(3):
        t = 1.0
        for _ in range(60):
            x = np.zeros((1, 3))
            x[0, axis] = t
            if float(v(x)[0]) > level:
                break
            t *= 2.0
        else:
            raise NormalizationError("trap not confining along a coordinate axis")
        extents.append(t)
    axes = tuple(np.linspace(-1.5 * e, 1.5 * e, points) for e in extents)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return axes, v(grid.reshape(-1, 3)).reshape(grid.shape[:-1])


def tf_solve(v, tol=Tolerance(abs=1e-10, rel=1e-10)) -> TFSolution:
    """Solve the unit-mass Thomas-Fermi problem for a confining trap.

    The density is the closed-form inversion of the Euler-Lagrange
    equation, so the only unknown is the scalar multiplier, found by
    bracketed root finding on the mass defect.  All four reported
    integrals are evaluated by adaptive quadrature with breakpoints at
    the support boundary.
    """
    if not getattr(v, "radial", True):
        return _tf_solve_grid(v, tol)
    vr = v.radial_fn
    invert = _tf_inversion(KAPPA)
    res = _fix_level(
        lambda lam: _radial_mass(vr, lam, invert) - 1.0,
        v.min_value(),
        Tolerance(abs=max(tol.abs, 1e-12), rel=1e-14),
        "chemical potential",
    )
    lam = res.root

    rho_fn, r_support, roots = _level_density(vr, lam, invert)
    quad = _QUAD_TOL
    mass = integrate_radial(rho_fn, r_support, quad, breakpoints=roots)
    kin = integrate_radial(lambda r: rho_fn(r) ** (5.0 / 3.0), r_support, quad, breakpoints=roots)
    pot = integrate_radial(lambda r: vr(r) * rho_fn(r), r_support, quad, breakpoints=roots)
    inter = integrate_radial(lambda r: rho_fn(r) ** 2, r_support, quad, breakpoints=roots)
    e_tf = 2.0 ** (-2.0 / 3.0) * C_TF * kin + pot

    nodes = np.linspace(0.0, r_support * 1.02, 1537)
    profile = RadialProfile(nodes, rho_fn(nodes))

    inner = np.linspace(0.0, r_support * (1.0 - 1e-9), 2048)
    dens = rho_fn(inner)
    on = dens > 0
    residual = float(np.max(np.abs(KAPPA * dens[on] ** (2.0 / 3.0) + vr(inner[on]) - lam)))

    return TFSolution(
        lambda_TF=lam,
        rho=profile,
        support_radius=r_support,
        E_TF=e_tf,
        kinetic_integral=kin,
        potential_integral=pot,
        interaction_integral=inter,
        mass=mass,
        lagrange_residual=residual,
        rho_fn=rho_fn,
        potential=v,
    )


def _tf_solve_grid(v, tol, points=161):
    """Tensor-grid fallback for non-radial traps (same pointwise inversion)."""
    invert = _tf_inversion(KAPPA)
    lam_probe = 1.0
    for _ in range(60):
        axes, vals = _tensor_grid(v, lam_probe, points)

        def mass(lam):
            return GridField(axes, invert(np.maximum(lam - vals, 0.0))).integrate()

        if mass(lam_probe) >= 1.0:
            break
        lam_probe *= 2.0
    else:
        raise NormalizationError("could not bracket the chemical potential on the grid")

    res = find_root_monotone(
        lambda lam: mass(lam) - 1.0,
        float(np.min(vals)) + 1e-9,
        lam_probe,
        Tolerance(abs=max(tol.abs, 1e-12), rel=1e-14),
        scan_points=0,
    )
    lam = res.root
    rho = np.where(lam - vals > 0.0, invert(np.maximum(lam - vals, 0.0)), 0.0)
    fld = GridField(axes, rho)
    kin = GridField(axes, rho ** (5.0 / 3.0)).integrate()
    pot = GridField(axes, vals * rho).integrate()
    inter = GridField(axes, rho**2).integrate()
    on = rho > 0
    residual = float(np.max(np.abs(KAPPA * rho[on] ** (2.0 / 3.0) + vals[on] - lam)))
    radius = 0.0
    if np.any(on):
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)[on]
        radius = float(np.max(np.linalg.norm(pts, axis=-1)))
    return TFSolution(
        lambda_TF=lam,
        rho=fld,
        support_radius=radius,
        E_TF=2.0 ** (-2.0 / 3.0) * C_TF * kin + pot,
        kinetic_integral=kin,
        potential_integral=pot,
        interaction_integral=inter,
        mass=mass(lam),
        lagrange_residual=residual,
        rho_fn=None,
        potential=v,
    )


def tf_functional(v, rho, tol=_QUAD_TOL):
    """Energy of a trial total density (no normalization enforced).

    ``rho`` is a RadialProfile or a GridField; negative samples are a
    domain error.
    """
    if isinstance(rho, GridField):
        if np.min(rho.values) < -1e-13:
            raise DomainError("trial density has negative samples")
        vals = np.maximum(rho.values, 0.0)
        grid = np.stack(np.meshgrid(*rho.axes, indexing="ij"), axis=-1)
        vv = v(grid.reshape(-1, 3)).reshape(vals.shape)
        kin = GridField(rho.axes, vals ** (5.0 / 3.0)).integrate()
        pot = GridField(rho.axes, vv * vals).integrate()
        return 2.0 ** (-2.0 / 3.0) * C_TF * kin + pot
    if not isinstance(rho, RadialProfile):
        raise TypeError("rho must be a RadialProfile or GridField")
    if np.min(rho.values) < -1e-13:
        raise DomainError("trial density has negative samples")
    vr = v.radial_fn
    bps = rho.nodes if rho.nodes.size <= 128 else ()
    kin = integrate_radial(lambda r: np.maximum(rho(r), 0.0) ** (5.0 / 3.0), rho.r_max, tol, bps)
    pot = integrate_radial(lambda r: vr(r) * np.maximum(rho(r), 0.0), rho.r_max, tol, bps)
    return 2.0 ** (-2.0 / 3.0) * C_TF * kin + pot


def _cubic_root(c):
    """Positive root u of u^2 (1 + u) = c for c >= 0, elementwise; u = 0 where c = 0.

    Newton from min(sqrt(c), cbrt(c)), where the cubic is already >= c,
    so on this convex branch the iterates descend monotonically onto the
    root; the loop ends once no entry moves.
    """
    u = np.minimum(np.sqrt(c), np.cbrt(c))
    moving = u > 0.0
    while True:
        step = np.divide(u * u * (1.0 + u) - c, u * (3.0 * u + 2.0), out=np.zeros_like(u), where=moving)
        nxt = u - np.maximum(step, 0.0)
        if not (nxt < u).any():
            return u
        u = nxt


def two_spin_minimize(v, g, tol=Tolerance(abs=1e-10, rel=1e-9)) -> TwoSpinState:
    """Minimize the coupled two-spin functional at unit total mass.

    On the symmetric branch, the minimizing one for repulsive coupling,
    each spin density solves kappa_s rho_s^{2/3} + g rho_s = (mu - V)_+.
    In u = g rho_s^{1/3} / kappa_s that is u^2 (1 + u) = c with
    c = (mu - V)_+ g^2 / kappa_s^3, whose one positive root is taken
    pointwise; the shared multiplier mu fixes the total mass to one.
    At g = 0 the equal split of the single-spin minimizer is exact;
    ``tol`` is the tolerance of that solve.
    """
    if g < 0:
        raise ValueError("coupling must be nonnegative")
    if g == 0.0:
        base = tf_solve(v, tol)
        r = np.linspace(0.0, base.support_radius * 1.02, 1537)
        half = base.rho_fn(r) / 2.0
        prof = RadialProfile(r, half)
        return TwoSpinState(
            rho_up=prof,
            rho_down=prof,
            coupling=0.0,
            energy=base.E_TF,
            lambda_two_spin=base.lambda_TF,
            iterations=0,
            rho_up_values=half,
            rho_down_values=half,
        )

    vr = v.radial_fn
    scale = g * g / KAPPA_SPIN**3

    def invert(gap):
        return (KAPPA_SPIN / g * _cubic_root(gap * scale)) ** 3

    res = _fix_level(
        lambda mu: 2.0 * _radial_mass(vr, mu, invert) - 1.0,
        v.min_value(),
        Tolerance(abs=1e-13, rel=1e-14),
        "chemical potential",
    )
    mu = res.root
    rho, r_support, roots = _level_density(vr, mu, invert)

    def energy_density(r):
        rho_s = rho(r)
        return 2.0 * C_TF * rho_s ** (5.0 / 3.0) + 2.0 * vr(r) * rho_s + g * rho_s**2

    energy = integrate_radial(energy_density, r_support, _QUAD_TOL, breakpoints=roots)
    r = np.linspace(0.0, r_support * 1.02, 1537)
    rho_s = rho(r)
    prof = RadialProfile(r, rho_s)
    return TwoSpinState(
        rho_up=prof,
        rho_down=prof,
        coupling=g,
        energy=energy,
        lambda_two_spin=mu,
        iterations=res.iterations,
        rho_up_values=rho_s,
        rho_down_values=rho_s,
    )


def cutoff_tf_solve(v, p_F, tol=Tolerance(abs=1e-10, rel=1e-10)) -> CutoffTFSolution:
    """Minimize the Fermi-momentum-capped functional (radial traps).

    The per-spin kinetic energy density follows the usual 5/3 power up
    to the local Fermi momentum and continues linearly with slope p_F^2
    beyond it (the continuous completion of the capped phase-space
    filling).  The capped density is pointwise below the uncapped one,
    so E_TF_pF <= E_TF always.  Whenever the uncapped multiplier exceeds
    min V + p_F^2 the minimizing sequence concentrates: the multiplier
    saturates there and the excess mass sits in a vanishing-volume spike
    at the trap bottom with energy (min V + p_F^2) per unit mass, which
    is also exactly the reported overflow mass.
    """
    return cutoff_gap_scan(v, [p_F], tol).solutions[0]


def _capped_minimizer(v, p_F, base: TFSolution) -> CutoffTFSolution:
    lam_sat = v.min_value() + p_F * p_F
    if base.lambda_TF <= lam_sat:
        return CutoffTFSolution(
            p_F=float(p_F),
            E_TF_pF=base.E_TF,
            overflow_mass=0.0,
            lambda_used=base.lambda_TF,
            regular_mass=base.mass,
            active=False,
            E_TF=base.E_TF,
        )
    vr = v.radial_fn
    spin_density, r_last, roots = _level_density(vr, lam_sat, _tf_inversion(KAPPA_SPIN))
    quad = _QUAD_TOL
    regular_mass = 2.0 * integrate_radial(spin_density, r_last, quad, breakpoints=roots)
    spike = max(0.0, 1.0 - regular_mass)
    kin = integrate_radial(lambda r: spin_density(r) ** (5.0 / 3.0), r_last, quad, breakpoints=roots)
    pot = integrate_radial(lambda r: vr(r) * spin_density(r), r_last, quad, breakpoints=roots)
    energy = 2.0 * C_TF * kin + 2.0 * pot + spike * lam_sat
    return CutoffTFSolution(
        p_F=float(p_F),
        E_TF_pF=energy,
        overflow_mass=spike,
        lambda_used=lam_sat,
        regular_mass=regular_mass,
        active=True,
        E_TF=base.E_TF,
    )


@dataclass
class CutoffScan:
    p_F: list
    gaps: list
    fitted_exponent: float
    resolution_floor: float
    solutions: list  # one CutoffTFSolution per cap


def cutoff_gap_scan(v, p_F_list, tol=Tolerance(abs=1e-10, rel=1e-10)) -> CutoffScan:
    """Gap E_TF - E_TF_pF over a p_F grid with a fitted decay exponent.

    The uncapped problem is solved once and every cap's minimizer is
    built from it.  Once every cap in the grid is inactive the gaps are
    exactly zero; the exponent is then reported as +inf ("decays faster
    than any fitted power"), since a log-log fit on values below the
    quadrature resolution floor would only fit noise.
    """
    if any(p <= 0 for p in p_F_list):
        raise ValueError("p_F must be positive")
    if not getattr(v, "radial", True):
        raise NotImplementedError("cutoff functional is implemented for radial traps")
    base = tf_solve(v, tol)
    solutions = [_capped_minimizer(v, p, base) for p in p_F_list]
    gaps = [base.E_TF - sol.E_TF_pF for sol in solutions]
    floor = 1e-12 * max(1.0, abs(base.E_TF))
    usable = [(p, gap) for p, gap in zip(p_F_list, gaps) if gap > floor]
    if len(usable) >= 2:
        xs = np.log([p for p, _ in usable])
        ys = np.log([gap for _, gap in usable])
        slope = float(np.polyfit(xs, ys, 1)[0])
        exponent = -slope
    else:
        exponent = math.inf
    return CutoffScan(list(p_F_list), gaps, exponent, floor, solutions)


def write_density_csv(path, solution: TFSolution, header_lines=()):
    """Emit columns r, rho, V, lagrange_residual for a radial solution."""
    if not isinstance(solution.rho, RadialProfile):
        raise TypeError("CSV emission needs a radial solution")
    r = solution.rho.nodes
    rho = solution.rho.values
    vv = solution.potential.radial_fn(r)
    resid = np.where(
        rho > 0.0,
        np.abs(KAPPA * rho ** (2.0 / 3.0) + vv - solution.lambda_TF),
        0.0,
    )
    write_table(path, header_lines, ("r", "rho", "V", "lagrange_residual"), zip(r, rho, vv, resid))
