"""Zero-energy scattering for radial, compactly supported interactions.

The s-wave reduced equation u'' = (1/2) v u is solved outward across the
support [0, R] on a fixed grid whose coefficient samples all lie inside
it: in closed form (cosh/sinh) where the sampled v is one constant, as on
every square barrier, and with fixed-step fourth-order RK4 where it
varies.  The scattering length is read off the exact exterior form
u(r) = const * (r - a) at the edge of the support.
Also houses the hard-core sweep, the dilation identity of the scaled
interaction, and the explicit softened-potential kit (U_R, chi_s,
Gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import RadialProfile, Tolerance, integrate_radial

__all__ = [
    "InteractionSpec",
    "ScatteringSolution",
    "DysonKit",
    "GeometryError",
    "StiffnessError",
    "NonPhysicalSolutionError",
    "square_barrier",
    "scaled_interaction",
    "dilated_interaction",
    "zero_energy_solve",
    "hardcore_limit",
    "scaled_identity_check",
    "scattering_energy",
    "dyson_parts",
]


class GeometryError(ValueError):
    """Inconsistent radii in the softened-potential construction."""


class StiffnessError(RuntimeError):
    """Interaction is unbounded on its support; reduce the step or amplitude."""


class NonPhysicalSolutionError(RuntimeError):
    """The outward solution lost positivity of u' at the support edge."""


@dataclass(frozen=True)
class InteractionSpec:
    """Radial nonnegative interaction of finite range.

    ``fn`` maps radii to values and must vanish beyond ``range_``;
    ``amplitude`` is an overall scale A multiplying ``fn``; ``hardcore``
    selects the infinite-wall representation u(range_) = 0 instead of a
    finite profile.
    """

    fn: object
    range_: float
    amplitude: float = 1.0
    hardcore: bool = False

    def __post_init__(self):
        if self.range_ < 0:
            raise ValueError("range must be nonnegative")
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        vals = self.amplitude * np.asarray(self.fn(r), dtype=float)
        return np.where(r <= self.range_, vals, 0.0)


def square_barrier(height, radius=1.0):
    """v = height * 1{r <= radius}."""
    return InteractionSpec(
        fn=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        range_=float(radius),
        amplitude=float(height),
    )


def hardcore(radius):
    """Infinite wall of the given radius; scattering length equals the radius."""
    return InteractionSpec(
        fn=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        range_=float(radius),
        amplitude=0.0,
        hardcore=True,
    )


def scaled_interaction(spec: InteractionSpec, scale):
    """Same interaction with the amplitude multiplied by ``scale``."""
    return InteractionSpec(
        fn=spec.fn,
        range_=spec.range_,
        amplitude=spec.amplitude * float(scale),
        hardcore=spec.hardcore,
    )


def dilated_interaction(spec: InteractionSpec, amplitude_factor, length_factor):
    """v'(r) = amplitude_factor * v(length_factor * r) with shrunk range."""
    b = float(length_factor)

    def fn(r):
        return spec.fn(np.asarray(r, dtype=float) * b)

    return InteractionSpec(
        fn=fn,
        range_=spec.range_ / b,
        amplitude=spec.amplitude * float(amplitude_factor),
        hardcore=spec.hardcore,
    )


@dataclass
class ScatteringSolution:
    """Scattering length with the normalized reduced profile u(r) = r f(r)."""

    a: float
    u: RadialProfile
    f: RadialProfile
    fit_residual: float
    range_: float
    step_error_estimate: float
    r_nodes: np.ndarray = field(repr=False, default=None)
    u_values: np.ndarray = field(repr=False, default=None)
    du_values: np.ndarray = field(repr=False, default=None)
    spec: InteractionSpec = field(repr=False, default=None)


# on a segment with k L above this the closed form divides out e^(kL)
_EXP_SPLIT_KL = 64.0


def _exact_segment(c, s, u0, du0):
    """Closed-form solution of u'' = c u for one constant c >= 0.

    ``s`` holds the offsets of the nodes from the segment start, its last
    entry the segment length L.  Returns u, u' and, per node, the log2 of
    the factor divided out of both.  Nothing is divided out when
    k L <= 64; above that e^(kL) is, through e^(-kL) cosh(ks) and
    e^(-kL) sinh(ks) up to ks = 64, where splitting them into e^(+ks) and
    e^(-ks) would cancel, and through e^(k(s-L)) and e^(-k(s+L)) beyond,
    where e^(-2ks) < 1e-55 cancels nothing.
    """
    if c == 0.0:
        return u0 + du0 * s, np.full_like(s, du0), np.zeros_like(s)
    k = math.sqrt(c)
    L = s[-1]
    ks = k * s
    if k * L <= _EXP_SPLIT_KL:
        cosh, sinh, shift = np.cosh(ks), np.sinh(ks), 0.0
    else:
        near = ks <= _EXP_SPLIT_KL
        ks_near = np.where(near, ks, 0.0)
        scale = math.exp(-k * L)
        grow = np.exp(k * (s - L))
        decay = np.exp(-k * (s + L))
        cosh = np.where(near, np.cosh(ks_near) * scale, 0.5 * (grow + decay))
        sinh = np.where(near, np.sinh(ks_near) * scale, 0.5 * (grow - decay))
        shift = k * L / math.log(2.0)
    return u0 * cosh + du0 * sinh / k, u0 * k * sinh + du0 * cosh, np.full_like(s, shift)


def _rk4_steps(c0, ch, c1, h, u, du):
    """Fixed-step RK4 on u'' = c u from the coefficient samples of each step.

    ``c0``, ``ch`` and ``c1`` hold c at every step's start, midpoint and
    end.  Returns u, u' after every step, per step the log2 of the factor
    divided out so far (whenever a component passes 2.5e120 both are
    divided by 2^400), and w = r u' - u after the last step, at the last
    step's scale.  w is carried as its own component, w' = r c u = r u'',
    from w = 0 at r = 0, so each stage's w slope is r times its u' slope.

    The loop runs on Python floats: the coefficients are read, and the
    samples written, through memoryviews of float64 arrays, which round
    exactly like NumPy scalars at a fraction of the per-operation cost.
    """
    n = len(c0)
    hh = 0.5 * h
    h6 = h / 6.0
    shift = 0.0
    w = 0.0
    us = np.empty(n)
    dus = np.empty(n)
    shifts = np.empty(n)
    us_out, dus_out, shifts_out = memoryview(us), memoryview(dus), memoryview(shifts)
    for i, (a0, am, a1) in enumerate(zip(memoryview(c0), memoryview(ch), memoryview(c1))):
        r0 = h * i
        k1u = du
        k1d = a0 * u
        k2u = du + hh * k1d
        k2d = am * (u + hh * k1u)
        k3u = du + hh * k2d
        k3d = am * (u + hh * k2u)
        k4u = du + h * k3d
        k4d = a1 * (u + h * k3u)
        u = u + h6 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        du = du + h6 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        w = w + h6 * (r0 * k1d + 2.0 * (r0 + hh) * (k2d + k3d) + (r0 + h) * k4d)
        if abs(u) > 2.5e120 or abs(du) > 2.5e120:
            u *= 2.0**-400
            du *= 2.0**-400
            w *= 2.0**-400
            shift += 400.0
        us_out[i] = u
        dus_out[i] = du
        shifts_out[i] = shift
    return us, dus, shifts, w


def _x_cosh_minus_sinh_over_x(y):
    """(x cosh x - sinh x) / x at x = sqrt(y), 0 <= y <= 1, by its series
    sum_{n >= 1} 2n y^n / (2n + 1)!.  Its terms are all positive, where
    the two terms of the difference cancel to x^3 / 3 at small x; the
    first term past the twelfth is below 1e-26 of the sum at y = 1."""
    term = y / 6.0  # y^n / (2n + 1)! at n = 1
    parts = []
    for n in range(1, 13):
        parts.append(2.0 * n * term)
        term *= y / ((2.0 * n + 2.0) * (2.0 * n + 3.0))
    return math.fsum(parts)


def _rk4_outward(vfun, R, steps_per_unit):
    """Outward solution of u'' = (1/2) v u on [0, R] from u(0) = 0, u'(0) = 1.

    Returns node positions, (u, u') samples at every node, rescaled to
    the final magnitude, and a = R - u(R)/u'(R), the scattering length of
    the exterior form u = const (r - a).  [0, R] is cut into n equal
    steps, and the coefficient c = v/2 is sampled in vectorized form at
    every step's start, midpoint and end.  All samples lie inside the
    open interval (the end samples one ulp inward), so none reads a jump
    at either end.  The steps then take one of two rules on the same nodes:

    - if every sample equals one constant c >= 0, the closed form
      u = sinh(ks)/k, u' = cosh(ks) with k = sqrt(c), or the linear
      solution when c = 0 (`_exact_segment`), exact and vectorized over
      the nodes;
    - otherwise the fixed-step fourth-order RK4 loop (`_rk4_steps`).

    R - u/u' loses log2(R/a) bits to cancellation, so where a < R/4 it
    is taken as w/u' with w = R u' - u formed without the difference: RK4
    carries w as a third component (whose own rounding grows with the
    step count, where that of u/u' does not), and the closed form takes
    w = (x cosh x - sinh x)/k at x = kR <= 1, where a/R <= 1 - tanh 1,
    from its positive series (`_x_cosh_minus_sinh_over_x`).

    Because the equation is linear, the solution may grow like
    exp(k r).  Both rules carry it divided by a factor whose log2 is
    recorded per node: RK4 divides by 2^400 whenever a component passes
    2.5e120, the closed form by e^(kR) when kR is large, and its result
    is brought back under 2.5e120 by an exact power of two.  The
    extraction of a is scale-free, so barrier heights up to the
    hard-core regime never overflow; early samples may underflow to zero
    at the final scale.
    """
    n = max(1, int(math.ceil(R * steps_per_unit)))
    h = float(R / n)
    base = h * np.arange(n)
    lo, hi = np.nextafter(0.0, R), np.nextafter(R, 0.0)
    c0 = 0.5 * np.asarray(vfun(np.maximum(base, lo)), dtype=float)
    ch = 0.5 * np.asarray(vfun(np.minimum(base + 0.5 * h, hi)), dtype=float)
    c1 = 0.5 * np.asarray(vfun(np.minimum(base + h, hi)), dtype=float)
    nodes = base + h
    c = float(c0[0])
    if c >= 0.0 and np.all(c0 == c) and np.all(ch == c) and np.all(c1 == c):
        s = nodes.copy()
        s[-1] = R
        us, dus, shifts = _exact_segment(c, s, 0.0, 1.0)
        big = max(abs(us[-1]), abs(dus[-1]))
        if big > 2.5e120:
            e = math.frexp(big)[1]
            us, dus, shifts = np.ldexp(us, -e), np.ldexp(dus, -e), shifts + e
        y = c * R * R  # x^2
        a = R * _x_cosh_minus_sinh_over_x(y) / dus[-1] if y <= 1.0 else R - us[-1] / dus[-1]
    else:
        us, dus, shifts, w = _rk4_steps(c0, ch, c1, h, 0.0, 1.0)
        a = R - us[-1] / dus[-1]
        if a < 0.25 * R:
            a = w / dus[-1]
    rs = np.concatenate([[0.0], nodes])
    us = np.concatenate([[0.0], us])
    dus = np.concatenate([[1.0], dus])
    if shifts[-1]:
        # express every sample at the final scale; the whole powers of two
        # go through ldexp, so a sample underflows to zero only where its
        # value at the final scale does
        last = shifts[-1]
        exponent = np.concatenate([[-last], shifts - last])
        whole = np.floor(exponent)
        fraction = np.exp2(exponent - whole)
        whole = np.maximum(whole, -2200.0).astype(np.int64)  # 2^-2200 of any float is 0
        us = np.ldexp(us * fraction, whole)
        dus = np.ldexp(dus * fraction, whole)
    return rs, us, dus, float(a)


# nodes of the force-free exterior (R, r_max], where u is exactly linear
EXTERIOR_NODES = 2000


def zero_energy_solve(spec: InteractionSpec) -> ScatteringSolution:
    """Scattering length and zero-energy profile of a finite-range interaction.

    Integrates outward from u(0) = 0, u'(0) = 1 (or from the hard-core
    wall), extracts a = R - u(R)/u'(R) exactly at the support edge, as
    w(R)/u'(R) with w = r u' - u where the difference would cancel
    (``_rk4_outward``), then
    renormalizes so u(r) = r - a outside.  A half-step rerun provides a
    Richardson error estimate; the fine run is the one reported.  The
    profile reaches r_max = max(2R, R + 1, 1), through ``EXTERIOR_NODES``
    evenly spaced exterior nodes.
    """
    R = spec.range_
    r_max = max(2.0 * R, R + 1.0, 1.0)

    if R == 0.0 or (spec.amplitude == 0.0 and not spec.hardcore):
        nodes = np.linspace(0.0, r_max, 512)
        u = nodes.copy()
        return ScatteringSolution(
            a=0.0,
            u=RadialProfile(nodes, u),
            f=RadialProfile(nodes, np.ones_like(nodes)),
            fit_residual=0.0,
            range_=R,
            step_error_estimate=0.0,
            r_nodes=nodes,
            u_values=u,
            du_values=np.ones_like(nodes),
            spec=spec,
        )

    probe = np.linspace(0.0, R, 4097)
    vals = spec(probe)
    if not np.all(np.isfinite(vals)):
        raise StiffnessError(
            "interaction is unbounded on its support; use the hardcore "
            "representation or a smaller step"
        )
    if np.any(vals < 0):
        raise ValueError("interaction must be nonnegative")

    if spec.hardcore:
        # wall at R: u(R) = 0, u'(R+) = 1, exactly linear outside
        nodes = np.linspace(0.0, r_max, 2049)
        u = np.where(nodes >= R, nodes - R, 0.0)
        du = np.where(nodes > R, 1.0, 0.0)
        return ScatteringSolution(
            a=R,
            u=RadialProfile(nodes, u),
            f=RadialProfile(nodes[1:], u[1:] / nodes[1:]),
            fit_residual=0.0,
            range_=R,
            step_error_estimate=0.0,
            r_nodes=nodes,
            u_values=u,
            du_values=du,
            spec=spec,
        )

    steps_per_unit = 2000.0 / R  # step <= R / 2000

    def run(mult):
        rs, us, dus, a = _rk4_outward(spec, R, steps_per_unit * mult)
        uR, duR = us[-1], dus[-1]
        if not (math.isfinite(uR) and math.isfinite(duR)):
            raise StiffnessError(
                "the outward solution overflowed at the support edge; "
                "reduce the amplitude or use the hardcore representation"
            )
        if duR <= 0.0:
            raise NonPhysicalSolutionError(
                "u'(R) <= 0 at the support edge; attractive-like data is out of scope"
            )
        return rs, us, dus, a

    _, _, _, a_coarse = run(1.0)
    rs, us, dus, a = run(2.0)
    err_est = abs(a - a_coarse) / 15.0

    # continue through the force-free exterior: u stays exactly linear
    r_out = np.linspace(R, r_max, EXTERIOR_NODES + 1)[1:]
    uR, duR = us[-1], dus[-1]
    u_out = uR + duR * (r_out - R)
    du_out = np.full_like(r_out, duR)

    rs_all = np.concatenate([rs, r_out])
    us_all = np.concatenate([us, u_out]) / duR
    dus_all = np.concatenate([dus, du_out]) / duR

    outside = rs_all >= R
    fit_residual = float(np.max(np.abs(us_all[outside] - (rs_all[outside] - a))))

    stride = max(1, len(rs_all) // 4000)
    nodes = rs_all[::stride]
    if nodes[-1] != rs_all[-1]:
        nodes = np.append(nodes, rs_all[-1])
    u_nodes = np.interp(nodes, rs_all, us_all)
    with np.errstate(divide="ignore", invalid="ignore"):
        f_nodes = np.where(nodes > 0, u_nodes / nodes, dus_all[0])

    return ScatteringSolution(
        a=float(a),
        u=RadialProfile(nodes, u_nodes),
        f=RadialProfile(nodes, f_nodes),
        fit_residual=fit_residual,
        range_=R,
        step_error_estimate=float(err_est),
        r_nodes=rs_all,
        u_values=us_all,
        du_values=dus_all,
        spec=spec,
    )


def scattering_energy(sol: ScatteringSolution) -> float:
    """Variational energy of the computed profile; equals 4 pi a for the minimizer.

    The interior is integrated on the stored fine nodes; outside the
    support u(r) = r - a exactly, so the whole exterior contributes
    4 pi a^2 / R in closed form.
    """
    R = sol.range_
    if R == 0.0:
        return 0.0
    r = sol.r_nodes
    inside = r <= R * (1.0 + 1e-15)
    ri = r[inside]
    ui = sol.u_values[inside]
    dui = sol.du_values[inside]
    vi = sol.spec(ri)
    with np.errstate(divide="ignore", invalid="ignore"):
        fprime_r = np.where(ri > 0, dui - ui / ri, 0.0)  # f' * r
    integrand = fprime_r**2 + 0.5 * vi * ui**2
    core = float(np.trapezoid(integrand, ri))
    return 4.0 * np.pi * (core + sol.a**2 / R)


def hardcore_limit(spec: InteractionSpec, amplitudes):
    """Scattering length along an increasing amplitude sweep of A * v."""
    amps = [float(a) for a in amplitudes]
    if any(a <= 0 for a in amps) or any(b <= a for a, b in zip(amps, amps[1:])):
        raise ValueError("amplitudes must be positive and increasing")
    out = []
    for a_mult in amps:
        sol = zero_energy_solve(scaled_interaction(spec, a_mult))
        out.append((a_mult, sol.a))
    return out


@dataclass
class ScaledIdentityReport:
    lhs: float
    rhs: float
    rel_err: float
    a_w: float


def scaled_identity_check(w: InteractionSpec, N, beta) -> ScaledIdentityReport:
    """Dilation identity of the scattering length under the dilute scaling.

    With hbar = N^(-1/3), the interaction hbar^-2 N^(2 beta - 2/3) w(N^beta .)
    equals N^(2 beta) w(N^beta .), whose scattering length is exactly
    N^(-beta) times that of w.  Both sides are computed by independent
    outward solves.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    base = zero_energy_solve(w)
    b = float(N) ** beta
    scaled = dilated_interaction(w, amplitude_factor=b * b, length_factor=b)
    lhs = zero_energy_solve(scaled).a
    rhs = base.a / b
    rel = abs(lhs - rhs) / rhs if rhs != 0 else 0.0
    return ScaledIdentityReport(lhs=lhs, rhs=rhs, rel_err=rel, a_w=base.a)


@dataclass
class DysonKit:
    """Softened-potential ingredients: shell bump U_R, high-pass chi_s, low-pass Gamma."""

    R: float
    s: float
    p_F: float
    U_R: object
    chi_s: object
    Gamma: object
    U_integral_check: float

    def high_frequency_margin(self, p):
        """Gamma(p) - (1 - s^2 pF^2) chi_s(p)^2; nonnegative whenever s <= 1/p_F."""
        p = np.asarray(p, dtype=float)
        return self.Gamma(p) - (1.0 - self.s**2 * self.p_F**2) * self.chi_s(p) ** 2


# quadrature tolerance of the bump's unit-mass check
DYSON_TOL = Tolerance(abs=1e-13, rel=1e-13)


def dyson_parts(R0, R, s, p_F) -> DysonKit:
    """Assemble the softened-potential kit with the unit-mass shell bump."""
    if not (R > R0 >= 0.0):
        raise GeometryError("need R > R0 >= 0")
    if s <= 0 or p_F <= 0:
        raise ValueError("s and p_F must be positive")
    norm = 3.0 / (4.0 * np.pi * (R**3 - R0**3))

    def U_R(x):
        r = np.asarray(x, dtype=float)
        return np.where((r >= R0) & (r <= R), norm, 0.0)

    def chi_s(p):
        sp = s * np.asarray(p, dtype=float)
        return np.where(sp >= 2.0, 1.0, np.where(sp >= 1.0, sp - 1.0, 0.0))

    def Gamma(p):
        p = np.asarray(p, dtype=float)
        with np.errstate(divide="ignore"):
            out = 1.0 - (p_F / p) ** 2
        return np.maximum(out, 0.0)

    check = integrate_radial(U_R, R * 1.5, DYSON_TOL, (R0, R))
    return DysonKit(
        R=float(R), s=float(s), p_F=float(p_F),
        U_R=U_R, chi_s=chi_s, Gamma=Gamma, U_integral_check=check,
    )
