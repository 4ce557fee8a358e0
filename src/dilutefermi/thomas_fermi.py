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

Every integral of a minimizer, and every count in ``semiclassics``, is a
level integral of F((lam - V)_+, V) over {V <= lam}, and one private rule
computes them all.  Every trap is radial and must be nondecreasing in r,
so the set is a ball: the rule finds its radius R by a bracketing search on
V <= lam that tests points around the secant estimate of the crossing,
then integrates 4 pi r^2 dr with one Gauss-Legendre panel on [0, R],
substituting r = R - s^2 to resolve the edge.  The panel runs the Gauss
rule of ``numerics`` that every radial integral shares: order n is
checked against order 2n, and n doubles up to a fixed cap.  The 1-d
classical counts of ``spectra`` run the same rule on the two half-lines
from the trap's minimum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import RadialProfile, Tolerance, _gauss_rule, _loglog_slope, integrate_radial
from .tables import write_table

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


class DomainError(ValueError):
    """Input leaves the admissible domain: negative density samples, or a
    trap that is not nondecreasing along a ray from the origin."""


class NormalizationError(RuntimeError):
    """No chemical potential bracket normalizes the density to unit mass."""


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
    potential: object = field(repr=False, default=None)


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


# relative tolerance of the level rule (see the module docstring)
_RULE_REL = 1e-13
# the support search: even sections per step, shared among the rays, and
# ladder points on each side of the secant estimate
_SECTIONS = 64
_LADDER = 24


class _Rays:
    """The rays from a trap's minimum along which the level rule integrates.

    ``trace(r)`` gives V at radii of shape (rays, m); ``weights`` are the
    rays' solid angles, 4 pi for the one ray of a radial trap, or ones for
    the two half-lines of a 1-d trap
    (``dim`` 1, measure dr in place of r^2 dr).  Built once per solve,
    outside its Newton loop.
    """

    __slots__ = ("weights", "trace", "vmin", "dim")

    def __init__(self, weights, trace, vmin, dim=3):
        self.weights, self.trace, self.vmin, self.dim = weights, trace, vmin, dim


def _rays(v):
    """The one ray, of weight 4 pi, of a radial trap."""
    return _Rays(np.array([4.0 * np.pi]), v.radial_fn, v.min_value())


@functools.cache
def _search_points(sections):
    """The points u = t * scale + shift of one support-search step, as (scale, shift).

    With t in [0, 1] each u is in [0, 1] exactly: t itself, the ladder
    t - t 2^-j and t + (1 - t) 2^-j for j = 1.._LADDER, and k / sections.
    """
    ladder = np.ldexp(1.0, -np.arange(_LADDER + 1))
    evens = np.arange(sections + 1) / sections
    scale = np.concatenate([1.0 - ladder, 1.0 - ladder[1:], np.zeros(evens.size)])
    shift = np.concatenate([np.zeros(ladder.size), ladder[1:], evens])
    return scale, shift


def _support(trace, count, lam):
    """Largest r on each of ``count`` rays with V <= lam, by a bracketing search on that predicate.

    The first call tests r = 0 and the powers 1, 2, ..., 128 of two, which
    brackets the edge on every ray unless V stays <= lam at 128; those
    rays go on from there.  Then each step tests, on every ray at once,
    points u of the bracket [lo, hi] mapped onto [0, 1]: the secant
    estimate t of the crossing, the ladder t - t 2^-j and t + (1 - t) 2^-j
    (j = 1.._LADDER) around it, and the even sections k / s, s = _SECTIONS
    shared among the rays (at least 2), which shrink the bracket s-fold
    whatever the estimate.  The last point inside and the first beyond
    become the bracket, until no float lies strictly inside it on any ray.
    For a trap nondecreasing along the ray, plateaus included, that leaves
    the largest r with V <= lam, whichever points the steps tested.
    """
    lo, hi = np.zeros(count), np.ones(count)
    powers = np.ldexp(1.0, np.arange(8))
    for _ in range(25):  # up to 2^199, as far as 200 doublings of 1 reach
        pts = np.concatenate([lo[:, None], hi[:, None] * powers], axis=1)
        f = trace(pts) - lam
        inside = f[:, -1] <= 0.0
        if not inside.any():
            break
        lo, hi = np.where(inside, pts[:, -1], lo), np.where(inside, 2.0 * pts[:, -1], hi)
    else:
        raise NormalizationError("potential does not exceed the multiplier; not confining?")
    scale, shift = _search_points(max(2, _SECTIONS // count))
    while True:
        # points inside (V - lam <= 0) come first on a nondecreasing ray, and pts[:, 0]
        # is lo, so the last point inside is at the flat index j, the first beyond at j + 1
        j = np.arange(count) * pts.shape[1] + (f[:, 1:] <= 0.0).argmin(axis=1)
        lo, f_lo = pts.ravel().take(j), f.ravel().take(j)
        hi, f_hi = pts.ravel().take(j + 1), f.ravel().take(j + 1)
        if not np.count_nonzero(np.nextafter(lo, hi) < hi):
            return lo
        u = (f_lo / (f_lo - f_hi))[:, None] * scale + shift
        u.sort(axis=1)
        pts = lo[:, None] + (hi - lo)[:, None] * u
        pts[:, -1] = hi
        f = trace(pts) - lam


def _level_integrals(rays, lam, fields, R=None):
    """Integrals over {V <= lam} of the arrays ``fields(gap, V)`` returns, gap = lam - V.

    ``rays`` is a ``_Rays``.  Every field must vanish where gap = 0.
    Returns the integrals and the support edge R of each ray; an R passed
    in, from an earlier call at the same lam, skips the support search.
    Each ray is one Gauss-Legendre panel in s, with r = R - s^2; every sum
    over the stacked fields is one reduction.  A rule node inside a ray's
    support where V exceeds lam is a DomainError: the trap is not
    nondecreasing along that ray, so the support is not the set the rule
    integrates.
    """
    weights, trace, vmin = rays.weights, rays.trace, rays.vmin
    if not lam > vmin:
        return np.zeros(len(fields(np.zeros(1), np.zeros(1)))), np.zeros(weights.size)
    if R is None:
        R = _support(trace, weights.size, lam)
    edge = R[:, None]
    slack = 1e-12 * max(1.0, abs(lam))
    # gap = lam - V carries a rounding error of order eps max(|lam|, |V|), so
    # relative to the depth lam - min V no rule resolves the integrals better
    rel = _RULE_REL + 64.0 * np.finfo(float).eps * max(abs(lam), abs(vmin)) / (lam - vmin)

    def panel(x, w):
        u, w = 0.5 * (1.0 + x), 0.5 * w
        # s = sqrt(R) u, so r = R - s^2 and dr = 2 s ds
        r = edge - edge * u * u
        dr = 2.0 * edge * u * w
        wr = (dr * r * r if rays.dim == 3 else dr) * weights[:, None]
        vr = trace(r)
        gap = lam - vr
        if np.count_nonzero(gap < -slack):
            raise DomainError(
                f"V exceeds {lam!r} inside the support of a ray: the trap is not "
                "nondecreasing along every ray from the origin"
            )
        F = np.array(fields(np.maximum(gap, 0.0), vr))
        return (F * wr).sum(axis=(1, 2)), rel * (np.abs(F) * wr).sum(axis=(1, 2))

    return _gauss_rule(panel, "level rule", "ray"), R


def _fix_level(level, vmin, what):
    """Level lam with zero defect, by Newton steps from above.

    ``level(lam)`` returns the defect and its slope, both from one call of
    the level rule; the defect must be convex and increasing in lam, as
    every mass and count here is.  The start is vmin + 1, and its distance
    from vmin doubles until the defect turns positive.  From above the root,
    each Newton step on a convex increasing function stays above it, so the
    iterates descend onto the root; the loop ends once a step no longer
    lowers lam, as in ``_cubic_root``.  Returns lam and the number of steps;
    the last call of ``level`` is at the returned lam.
    """
    lam = vmin + 1.0
    for _ in range(200):
        defect, slope = level(lam)
        if defect > 0:
            break
        lam = vmin + 2.0 * (lam - vmin)
    else:
        raise NormalizationError(f"could not bracket the {what}")
    steps = 0
    while True:
        nxt = lam - defect / slope
        if not nxt < lam:
            return float(lam), steps
        lam, steps = nxt, steps + 1
        defect, slope = level(lam)


def _tf_density(gap, kappa=KAPPA):
    """(gap / kappa)^(3/2), the inverted Euler-Lagrange equation."""
    return (gap / kappa) ** 1.5


def _radial_density(v, lam, invert):
    """rho(r) = invert((lam - V(r))_+) on a radial trap, zero off the support."""

    def rho(r):
        gap = lam - v.radial_fn(np.asarray(r, dtype=float))
        return np.where(gap > 0.0, invert(np.maximum(gap, 0.0)), 0.0)

    return rho


def tf_solve(v) -> TFSolution:
    """Solve the unit-mass Thomas-Fermi problem for a confining radial trap.

    The density is the closed-form inversion of the Euler-Lagrange
    equation, so the only unknown is the scalar multiplier, found by
    Newton steps from above on the convex mass defect.  Mass and the three
    reported integrals come from one call of the level rule.
    """
    rays = _rays(v)
    edges = None

    def level(lam):
        nonlocal edges
        (mass, slope), edges = _level_integrals(
            rays, lam, lambda gap, vr: (_tf_density(gap), 1.5 * gap**0.5 * KAPPA**-1.5)
        )
        return mass - 1.0, slope

    lam, _ = _fix_level(level, rays.vmin, "chemical potential")

    def fields(gap, vr):
        rho = _tf_density(gap)
        return rho, rho ** (5.0 / 3.0), vr * rho, rho * rho

    # the last Newton evaluation was at lam, so its support edges are lam's
    integrals, edges = _level_integrals(rays, lam, fields, edges)
    mass, kin, pot, inter = map(float, integrals)
    r_support = float(edges[0])
    e_tf = 2.0 ** (-2.0 / 3.0) * C_TF * kin + pot

    # Euler-Lagrange residual on 2048 sample radii
    vv = v.radial_fn(r_support * np.linspace(0.0, 1.0 - 1e-9, 2048))
    dens = _tf_density(np.maximum(lam - vv, 0.0))
    on = dens > 0
    residual = float(np.max(np.abs(KAPPA * dens[on] ** (2.0 / 3.0) + vv[on] - lam), initial=0.0))

    rho_fn = _radial_density(v, lam, _tf_density)
    nodes = np.linspace(0.0, r_support * 1.02, 1537)

    return TFSolution(
        lambda_TF=lam,
        rho=RadialProfile(nodes, rho_fn(nodes)),
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

    scale = g * g / KAPPA_SPIN**3

    def invert(gap):
        return (KAPPA_SPIN / g * _cubic_root(gap * scale)) ** 3

    rays = _rays(v)
    edges = None

    def fields(gap, vr):
        u = _cubic_root(gap * scale)
        return (KAPPA_SPIN / g * u) ** 3, 3.0 * u / (g * (3.0 * u + 2.0))

    def level(mu):
        nonlocal edges
        (mass, slope), edges = _level_integrals(rays, mu, fields)
        return 2.0 * mass - 1.0, 2.0 * slope

    mu, steps = _fix_level(level, rays.vmin, "chemical potential")

    def energy_density(gap, vr):
        rho_s = invert(gap)
        return (2.0 * C_TF * rho_s ** (5.0 / 3.0) + 2.0 * vr * rho_s + g * rho_s**2,)

    # the last Newton evaluation was at mu, so its support edges are mu's
    (energy,), edges = _level_integrals(rays, mu, energy_density, edges)
    rho = _radial_density(v, mu, invert)
    r = np.linspace(0.0, float(edges[0]) * 1.02, 1537)
    rho_s = rho(r)
    prof = RadialProfile(r, rho_s)
    return TwoSpinState(
        rho_up=prof,
        rho_down=prof,
        coupling=g,
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
    if base.lambda_TF <= lam_sat:
        return CutoffTFSolution(
            p_F=float(p_F),
            E_TF_pF=base.E_TF,
            overflow_mass=0.0,
            regular_mass=base.mass,
            active=False,
            E_TF=base.E_TF,
        )

    def fields(gap, vr):
        rho_s = _tf_density(gap, KAPPA_SPIN)
        return rho_s, rho_s ** (5.0 / 3.0), vr * rho_s

    integrals, _ = _level_integrals(rays, lam_sat, fields)
    mass, kin, pot = map(float, integrals)
    regular_mass = 2.0 * mass
    spike = max(0.0, 1.0 - regular_mass)
    energy = 2.0 * C_TF * kin + 2.0 * pot + spike * lam_sat
    return CutoffTFSolution(
        p_F=float(p_F),
        E_TF_pF=energy,
        overflow_mass=spike,
        regular_mass=regular_mass,
        active=True,
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


def write_density_csv(path, solution: TFSolution, header_lines=()):
    """Emit columns r, rho, V, lagrange_residual for a solution."""
    r = solution.rho.nodes
    rho = solution.rho.values
    vv = solution.potential.radial_fn(r)
    resid = np.where(
        rho > 0.0,
        np.abs(KAPPA * rho ** (2.0 / 3.0) + vv - solution.lambda_TF),
        0.0,
    )
    write_table(path, header_lines, ("r", "rho", "V", "lagrange_residual"), zip(r, rho, vv, resid))
