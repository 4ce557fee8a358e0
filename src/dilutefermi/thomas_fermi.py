"""Thomas-Fermi density functionals for a trapped two-spin gas.

Every minimizer here is a pointwise inversion rho = F((lam - V)_+) of
its Euler-Lagrange equation, with the multiplier lam fixed by unit mass
through Newton steps from above: F is convex and increasing, so the mass
is too as a function of lam, and its slope is one more level integral.
The single-spin (total density) functional inverts in closed form,
rho = ((lam - V)_+ / kappa)^{3/2}; the coupled two-spin functional
inverts through the one positive root of the cubic
kappa_s t^2 + g t^3 = (lam - V)_+ in t = rho_s^{1/3}; the momentum-cutoff
variant caps the kinetic energy density at the Fermi level and is solved
exactly through its saturation structure.

Every integral of a minimizer is a level integral of F((lam - V)_+, V)
over {V <= lam}.  Every trap is radial and must be nondecreasing in r, so
the set is a ball, and the level rule of ``numerics`` integrates over it:
each solver here hands it the density and its slope in lam, and one call
of ``numerics._fix_level`` returns the multiplier, its support radius and
the reported integrals at it.  ``numerics._profile`` samples the density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    DomainError,
    NormalizationError,
    RadialProfile,
    Tolerance,
    _fix_level,
    _level_integrals,
    _loglog_slope,
    _profile,
    _rays,
    integrate_radial,
)

__all__ = [
    "C_TF",
    "KAPPA",
    "KAPPA_SPIN",
    "TFSolution",
    "TwoSpinState",
    "CutoffTFSolution",
    "DomainError",
    "NormalizationError",
    "tf_solve",
    "euler_lagrange_residual",
    "tf_functional",
    "two_spin_minimize",
    "cutoff_tf_solve",
    "cutoff_gap_scan",
]

#: kinetic coefficient of the per-spin functional, (3/5)(6 pi^2)^(2/3)
C_TF = 0.6 * (6.0 * math.pi**2) ** (2.0 / 3.0)
#: multiplier constant of the total-density Euler-Lagrange equation, (3 pi^2)^(2/3)
KAPPA = (3.0 * math.pi**2) ** (2.0 / 3.0)
#: per-spin Euler-Lagrange constant, (5/3) c_TF = (6 pi^2)^(2/3)
KAPPA_SPIN = (6.0 * math.pi**2) ** (2.0 / 3.0)


@dataclass
class TFSolution:
    """Minimizer of the total-density functional at unit mass."""

    lambda_TF: float
    rho: RadialProfile
    support_radius: float
    E_TF: float
    kinetic_integral: float  # integral of rho^{5/3}
    potential_integral: float  # integral of V rho
    interaction_integral: float  # integral of rho^2
    mass: float
    lagrange_residual: float
    rho_fn: object = field(repr=False, default=None)


@dataclass
class TwoSpinState:
    """Symmetric minimizer of the coupled two-spin functional."""

    rho_up: RadialProfile
    rho_down: RadialProfile
    coupling: float
    energy: float
    lambda_two_spin: float
    iterations: int  # Newton steps from above fixing the multiplier; 0 at g = 0
    rho_up_values: np.ndarray = field(repr=False, default=None)
    rho_down_values: np.ndarray = field(repr=False, default=None)


@dataclass
class CutoffTFSolution:
    """Minimizer data of the Fermi-momentum-capped functional."""

    p_F: float
    E_TF_pF: float
    overflow_mass: float
    regular_mass: float
    active: bool
    E_TF: float


def _tf_density(gap, kappa=KAPPA):
    """(gap / kappa)^(3/2), the inverted Euler-Lagrange equation."""
    return (gap / kappa) ** 1.5


def euler_lagrange_residual(rho, vr, lam, kappa=KAPPA):
    """|kappa rho^(2/3) + V - lam| at each node where rho > 0, and 0 off the support.

    ``vr`` holds the potential the density sees at the nodes, the trap's
    values, plus g times the other spin's density for one spin of a pair.
    """
    return np.where(rho > 0.0, np.abs(kappa * rho ** (2.0 / 3.0) + vr - lam), 0.0)


def tf_solve(v) -> TFSolution:
    """Solve the unit-mass Thomas-Fermi problem for a confining radial trap.

    The density is the closed-form inversion of the Euler-Lagrange
    equation, so the only unknown is the scalar multiplier, found by
    Newton steps from above on the convex mass defect.  Mass and the three
    reported integrals come from one call of the level rule.
    """

    def fields(gap, vr):
        return _tf_density(gap), 1.5 * gap**0.5 * KAPPA**-1.5

    def integrands(gap, vr):
        rho = _tf_density(gap)
        return rho, rho ** (5.0 / 3.0), vr * rho, rho * rho

    lam, _, edges, integrals = _fix_level(_rays(v), fields, 1.0, 1.0, "chemical potential", integrands)
    mass, kin, pot, inter = map(float, integrals)
    r_support = float(edges[0])
    e_tf = 2.0 ** (-2.0 / 3.0) * C_TF * kin + pot

    nodes, rho, rho_fn = _profile(v, lam, _tf_density, r_support)
    residual = float(np.max(euler_lagrange_residual(rho, v.radial_fn(nodes), lam)))

    return TFSolution(
        lambda_TF=lam,
        rho=RadialProfile(nodes, rho),
        support_radius=r_support,
        E_TF=e_tf,
        kinetic_integral=kin,
        potential_integral=pot,
        interaction_integral=inter,
        mass=mass,
        lagrange_residual=residual,
        rho_fn=rho_fn,
    )


# quadrature tolerance of the trial-density energy
FUNCTIONAL_TOL = Tolerance(abs=1e-12, rel=1e-12)


def tf_functional(v, rho):
    """Energy of a trial total density (no normalization enforced).

    ``rho`` is a RadialProfile; negative samples are a domain error.
    """
    if not isinstance(rho, RadialProfile):
        raise TypeError("rho must be a RadialProfile")
    if np.min(rho.values) < -1e-13:
        raise DomainError("trial density has negative samples")
    vr = v.radial_fn
    # a panel per segment of the interpolant: no Gauss panel spans a kink
    kin = integrate_radial(
        lambda r: np.maximum(rho(r), 0.0) ** (5.0 / 3.0), rho.r_max, FUNCTIONAL_TOL, rho.nodes
    )
    pot = integrate_radial(
        lambda r: vr(r) * np.maximum(rho(r), 0.0), rho.r_max, FUNCTIONAL_TOL, rho.nodes
    )
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


def two_spin_minimize(v, g) -> TwoSpinState:
    """Minimize the coupled two-spin functional at unit total mass.

    On the symmetric branch, the minimizing one for repulsive coupling,
    each spin density solves kappa_s rho_s^{2/3} + g rho_s = (mu - V)_+.
    In u = g rho_s^{1/3} / kappa_s that is u^2 (1 + u) = c with
    c = (mu - V)_+ g^2 / kappa_s^3, whose one positive root is taken
    pointwise; the shared multiplier mu fixes the total mass to one.
    At g = 0 the equal split of the single-spin minimizer is exact.
    """
    if g < 0:
        raise ValueError("coupling must be nonnegative")
    if g == 0.0:
        base = tf_solve(v)
        # the single-spin profile's nodes, each value halved
        r, rho_s = base.rho.nodes, base.rho.values / 2.0
        energy, mu, steps = base.E_TF, base.lambda_TF, 0
    else:
        scale = g * g / KAPPA_SPIN**3

        def invert(gap):
            return (KAPPA_SPIN / g * _cubic_root(gap * scale)) ** 3

        def fields(gap, vr):
            u = _cubic_root(gap * scale)
            return (KAPPA_SPIN / g * u) ** 3, 3.0 * u / (g * (3.0 * u + 2.0))

        def energy_density(gap, vr):
            rho_s = invert(gap)
            return (2.0 * C_TF * rho_s ** (5.0 / 3.0) + 2.0 * vr * rho_s + g * rho_s**2,)

        # each spin holds half the mass
        mu, steps, edges, (energy,) = _fix_level(
            _rays(v), fields, 0.5, 1.0, "chemical potential", energy_density
        )
        r, rho_s, _ = _profile(v, mu, invert, float(edges[0]))
    prof = RadialProfile(r, rho_s)
    return TwoSpinState(
        rho_up=prof,
        rho_down=prof,
        coupling=g or 0.0,
        energy=float(energy),
        lambda_two_spin=mu,
        iterations=steps,
        rho_up_values=rho_s,
        rho_down_values=rho_s,
    )


def cutoff_tf_solve(v, p_F) -> CutoffTFSolution:
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
    return cutoff_gap_scan(v, [p_F]).solutions[0]


def _capped_minimizer(rays, p_F, base: TFSolution) -> CutoffTFSolution:
    lam_sat = rays.vmin + p_F * p_F
    active = not base.lambda_TF <= lam_sat
    if active:
        def fields(gap, vr):
            rho_s = _tf_density(gap, KAPPA_SPIN)
            return rho_s, rho_s ** (5.0 / 3.0), vr * rho_s

        integrals, _ = _level_integrals(rays, lam_sat, fields)
        mass, kin, pot = map(float, integrals)
        regular_mass = 2.0 * mass
        spike = max(0.0, 1.0 - regular_mass)
        energy = 2.0 * C_TF * kin + 2.0 * pot + spike * lam_sat
    else:
        energy, spike, regular_mass = base.E_TF, 0.0, base.mass
    return CutoffTFSolution(
        p_F=float(p_F),
        E_TF_pF=energy,
        overflow_mass=spike,
        regular_mass=regular_mass,
        active=active,
        E_TF=base.E_TF,
    )


@dataclass
class CutoffScan:
    p_F: list
    gaps: list
    fitted_exponent: float
    solutions: list  # one CutoffTFSolution per cap


def cutoff_gap_scan(v, p_F_list) -> CutoffScan:
    """Gap E_TF - E_TF_pF over a p_F grid with a fitted decay exponent.

    The uncapped problem is solved once and every cap's minimizer is
    built from it.  Once every cap in the grid is inactive the gaps are
    exactly zero; the exponent is then reported as +inf ("decays faster
    than any fitted power"), since a log-log fit on values below the
    quadrature resolution floor would only fit noise.
    """
    if any(p <= 0 for p in p_F_list):
        raise ValueError("p_F must be positive")
    base = tf_solve(v)
    rays = _rays(v)
    solutions = [_capped_minimizer(rays, p, base) for p in p_F_list]
    gaps = [base.E_TF - sol.E_TF_pF for sol in solutions]
    floor = 1e-12 * max(1.0, abs(base.E_TF))
    usable = [(p, gap) for p, gap in zip(p_F_list, gaps) if gap > floor]
    exponent = -_loglog_slope(*zip(*usable)) if len(usable) >= 2 else math.inf
    return CutoffScan(list(p_F_list), gaps, exponent, solutions)
