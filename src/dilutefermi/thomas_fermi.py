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
computes them all.  Along each ray from the origin it finds the support
edge R with one bisection on V <= lam, then integrates with Gauss-Legendre
panels ending at 0, the trap's kinks and R, substituting r = R - s^2 on the
edge panel; an n-against-2n estimate doubles n up to a fixed cap.  A radial
trap is one ray; a non-radial trap uses a product rule over directions and
must be nondecreasing along every ray.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    RadialProfile,
    RefinementError,
    Tolerance,
    integrate_radial,
)
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
    rho: object  # RadialProfile; None for non-radial traps
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
    lambda_used: float
    regular_mass: float
    active: bool
    E_TF: float


# the level rule (see the module docstring): Gauss-Legendre of order n is
# checked against order 2n; n starts at _RULE_START and doubles up to _RULE_CAP
_RULE_START = 16
_RULE_CAP = 256
_RULE_REL = 1e-13
# sections per step of the support search, shared among the rays
_SECTIONS = 64
# non-radial traps: Gauss-Legendre in cos(theta) times a trapezoid in phi
_RAY_THETA = 24
_RAY_PHI = 48


@functools.cache
def _gauss(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], n even, correctly rounded.

    Newton's method on P_n in 40-digit decimal arithmetic from NumPy's
    nodes, then w = 2 / ((1 - x^2) P_n'(x)^2).  NumPy's own weights err
    by up to 1e-11 relative at n = 128, which moved level integrals by
    several ulp.  ``decimal`` loads on the first call.
    """
    from decimal import Decimal, localcontext

    def legendre(t):
        p_prev, p = Decimal(1), t
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * t * p - (k - 1) * p_prev) / k
        return p, n * (t * p - p_prev) / (t * t - 1)

    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = 40
        for guess in np.polynomial.legendre.leggauss(n)[0][: n // 2]:
            t = Decimal(float(guess))
            for _ in range(3):  # the third step moves t by less than 1e-40
                p, dp = legendre(t)
                t -= p / dp
            nodes.append(float(t))
            weights.append(float(2 / ((1 - t * t) * dp * dp)))
    # the rule is symmetric, and every order used is even
    return np.array(nodes + [-x for x in reversed(nodes)]), np.array(weights + weights[::-1])


def _rays(v):
    """Solid-angle weights of the rays and V along them.

    ``trace(r)`` takes radii of shape (rays, m).  A radial trap is the
    one-ray case with weight 4 pi.
    """
    if v.radial:
        return np.array([4.0 * np.pi]), v.radial_fn
    ct, wt = _gauss(_RAY_THETA)
    phi = 2.0 * np.pi * np.arange(_RAY_PHI) / _RAY_PHI
    st = np.sqrt(1.0 - ct * ct)[:, None]
    dirs = np.stack(
        [st * np.cos(phi), st * np.sin(phi), np.repeat(ct[:, None], _RAY_PHI, axis=1)], axis=-1
    ).reshape(-1, 3)
    weights = np.repeat(wt, _RAY_PHI) * (2.0 * np.pi / _RAY_PHI)
    return weights, lambda r: v(r[..., None] * dirs[:, None, :])


def _support(trace, rays, lam):
    """Largest r on each ray with V <= lam, by bisection on that predicate.

    The bracket's upper end doubles from 1 until V exceeds lam on every
    ray.  Each step then tests the predicate at evenly spaced interior
    points of every bracket at once (63 on a single ray, the midpoint
    alone on many) and keeps the section between the last point inside
    and the first beyond, until no float lies strictly inside any
    bracket.  For a trap nondecreasing along the ray, plateaus included,
    that leaves the largest r with V <= lam.
    """
    lo = np.zeros(rays)
    hi = np.ones(rays)
    for _ in range(200):
        inside = trace(hi[:, None])[:, 0] <= lam
        if not inside.any():
            break
        lo = np.where(inside, hi, lo)
        hi = np.where(inside, 2.0 * hi, hi)
    else:
        raise NormalizationError("potential does not exceed the multiplier; not confining?")
    sections = max(2, _SECTIONS // rays)
    steps = np.arange(1, sections) / sections
    rows = np.arange(rays)
    while (np.nextafter(lo, hi) < hi).any():
        pts = np.minimum(lo[:, None] + (hi - lo)[:, None] * steps, hi[:, None])
        inside = trace(pts) <= lam
        last = np.sum(inside, axis=1)  # points inside come first on a nondecreasing ray
        lo = np.where(last > 0, pts[rows, np.maximum(last - 1, 0)], lo)
        hi = np.where(last < sections - 1, pts[rows, np.minimum(last, sections - 2)], hi)
    return lo


def _level_integrals(v, lam, fields):
    """Integrals over {V <= lam} of the arrays ``fields(gap, V)`` returns, gap = lam - V.

    Every field must vanish where gap = 0.  Returns the integrals and the
    support edge R of each ray.  A rule node inside a ray's support where
    V exceeds lam is a DomainError: the trap is not nondecreasing along
    that ray, so the support is not the set the rule integrates.
    """
    weights, trace = _rays(v)
    vmin = v.min_value()
    if not lam > vmin:
        return np.zeros(len(fields(np.zeros(1), np.zeros(1)))), np.zeros(weights.size)
    R = _support(trace, weights.size, lam)
    kinks = np.asarray(v.kinks, dtype=float)
    kinks = kinks[(kinks > 0.0) & (kinks < R.max())]
    a = np.minimum(np.concatenate([[0.0], kinks])[None, :], R[:, None])
    b = np.minimum(np.concatenate([kinks, [np.inf]])[None, :], R[:, None])
    width = (b - a)[..., None]
    edge = (b == R[:, None])[..., None]
    slack = 1e-12 * max(1.0, abs(lam))
    # gap = lam - V carries a rounding error of order eps max(|lam|, |V|), so
    # relative to the depth lam - min V no rule resolves the integrals better
    rel = _RULE_REL + 64.0 * np.finfo(float).eps * max(abs(lam), abs(vmin)) / (lam - vmin)

    def rule(n):
        x, w = _gauss(n)
        u, w = 0.5 * (1.0 + x), 0.5 * w
        # on the edge panel s = sqrt(b - a) u, so r = b - s^2 and dr = 2 s ds
        r = np.where(edge, b[..., None] - width * u * u, a[..., None] + width * u)
        dr = np.where(edge, 2.0 * width * u * w, width * w)
        r = r.reshape(weights.size, -1)
        wr = (dr.reshape(weights.size, -1) * r * r) * weights[:, None]
        vr = trace(r)
        gap = lam - vr
        if np.any(gap < -slack):
            raise DomainError(
                f"V exceeds {lam!r} inside the support of a ray: the trap is not "
                "nondecreasing along every ray from the origin"
            )
        vals = fields(np.maximum(gap, 0.0), vr)
        return (
            np.array([np.sum(f * wr) for f in vals]),
            np.array([np.sum(np.abs(f) * wr) for f in vals]),
        )

    n = _RULE_START
    coarse, _ = rule(n)
    while True:
        fine, scale = rule(2 * n)
        if np.all(np.abs(fine - coarse) <= rel * scale):
            return fine, R
        if n >= _RULE_CAP:
            raise RefinementError(
                f"level rule did not converge with {2 * n} points per panel",
                previous_estimate=coarse,
                last_estimate=fine,
            )
        n, coarse = 2 * n, fine


def _fix_level(level, vmin, what):
    """Level lam with zero defect, by Newton steps from above.

    ``level(lam)`` returns the defect and its slope, both from one call of
    the level rule; the defect must be convex and increasing in lam, as
    every mass and count here is.  The start is vmin + 1, and its distance
    from vmin doubles until the defect turns positive.  From above the root,
    each Newton step on a convex increasing function stays above it, so the
    iterates descend onto the root; the loop ends once a step no longer
    lowers lam, as in ``_cubic_root``.  Returns lam and the number of steps.
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
    """Solve the unit-mass Thomas-Fermi problem for a confining trap.

    The density is the closed-form inversion of the Euler-Lagrange
    equation, so the only unknown is the scalar multiplier, found by
    Newton steps from above on the convex mass defect.  Mass and the three
    reported integrals come from one call of the level rule.  Non-radial
    traps report no density profile (``rho`` and ``rho_fn`` are None).
    """
    def level(lam):
        (mass, slope), _ = _level_integrals(
            v, lam, lambda gap, vr: (_tf_density(gap), 1.5 * gap**0.5 * KAPPA**-1.5)
        )
        return mass - 1.0, slope

    lam, _ = _fix_level(level, v.min_value(), "chemical potential")

    def fields(gap, vr):
        rho = _tf_density(gap)
        return rho, rho ** (5.0 / 3.0), vr * rho, rho * rho

    integrals, edges = _level_integrals(v, lam, fields)
    mass, kin, pot, inter = map(float, integrals)
    r_support = float(np.max(edges))
    e_tf = 2.0 ** (-2.0 / 3.0) * C_TF * kin + pot

    # Euler-Lagrange residual on 2048 sample radii shared among the rays, 16 per ray at least
    _, trace = _rays(v)
    inner = edges[:, None] * np.linspace(0.0, 1.0 - 1e-9, max(2048 // edges.size, 16))
    vv = trace(inner)
    dens = _tf_density(np.maximum(lam - vv, 0.0))
    on = dens > 0
    residual = float(np.max(np.abs(KAPPA * dens[on] ** (2.0 / 3.0) + vv[on] - lam), initial=0.0))

    rho_fn = profile = None
    if v.radial:
        rho_fn = _radial_density(v, lam, _tf_density)
        nodes = np.linspace(0.0, r_support * 1.02, 1537)
        profile = RadialProfile(nodes, rho_fn(nodes))

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
    bps = rho.nodes if rho.nodes.size <= 128 else ()
    kin = integrate_radial(
        lambda r: np.maximum(rho(r), 0.0) ** (5.0 / 3.0), rho.r_max, FUNCTIONAL_TOL, bps
    )
    pot = integrate_radial(
        lambda r: vr(r) * np.maximum(rho(r), 0.0), rho.r_max, FUNCTIONAL_TOL, bps
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
    if not v.radial:
        raise NotImplementedError("two-spin functional is implemented for radial traps")
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

    def level(mu):
        def fields(gap, vr):
            u = _cubic_root(gap * scale)
            return (KAPPA_SPIN / g * u) ** 3, 3.0 * u / (g * (3.0 * u + 2.0))

        (mass, slope), _ = _level_integrals(v, mu, fields)
        return 2.0 * mass - 1.0, 2.0 * slope

    mu, steps = _fix_level(level, v.min_value(), "chemical potential")

    def energy_density(gap, vr):
        rho_s = invert(gap)
        return (2.0 * C_TF * rho_s ** (5.0 / 3.0) + 2.0 * vr * rho_s + g * rho_s**2,)

    (energy,), edges = _level_integrals(v, mu, energy_density)
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

    def fields(gap, vr):
        rho_s = _tf_density(gap, KAPPA_SPIN)
        return rho_s, rho_s ** (5.0 / 3.0), vr * rho_s

    integrals, _ = _level_integrals(v, lam_sat, fields)
    mass, kin, pot = map(float, integrals)
    regular_mass = 2.0 * mass
    spike = max(0.0, 1.0 - regular_mass)
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
    if not v.radial:
        raise NotImplementedError("cutoff functional is implemented for radial traps")
    base = tf_solve(v)
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
