import math

import numpy as np
import pytest

from dilutefermi import scattering
from dilutefermi.scattering import (
    EXTERIOR_NODES,
    GeometryError,
    InteractionSpec,
    StiffnessError,
    dilated_interaction,
    dyson_parts,
    hardcore,
    hardcore_limit,
    scaled_identity_check,
    scaled_interaction,
    scattering_energy,
    square_barrier,
    zero_energy_solve,
)


def barrier_length(A, R=1.0):
    kappa = math.sqrt(A / 2.0)
    return R - math.tanh(kappa * R) / kappa


def test_free_equation():
    sol = zero_energy_solve(square_barrier(0.0))
    assert sol.a == 0.0
    assert np.max(np.abs(sol.f.values - 1.0)) == 0.0


def test_square_barrier_closed_forms():
    """Constant segments are solved exactly: a meets R - tanh(kR)/k to rounding."""
    import mpmath

    for A in (1e-300, 0.5, 2.0, 200.0, 2e3, 1e6, 2e12):
        sol = zero_energy_solve(square_barrier(A))
        with mpmath.workdps(40):
            k = mpmath.sqrt(mpmath.mpf(A) / 2)
            ref = float(1 - mpmath.tanh(k) / k)
        assert abs(sol.a - ref) <= 4.4e-16, A
        assert sol.step_error_estimate == 0.0


@pytest.mark.parametrize("A", [1e-12, 1e-8, 1e-4])
def test_weak_barrier_meets_its_closed_form_relatively(A):
    # a << R: R - u/u' cancelled to 8e-4 relative at A = 1e-12
    # (1.6653345369377348e-13); the series for x cosh x - sinh x does not
    import mpmath

    sol = zero_energy_solve(square_barrier(A))
    with mpmath.workdps(40):
        k = mpmath.sqrt(mpmath.mpf(A) / 2)
        ref = 1 - mpmath.tanh(k) / k
        assert abs(sol.a - ref) <= 1e-14 * ref


def test_series_meets_x_cosh_minus_sinh():
    import mpmath

    for y in (0.0, 1e-300, 1e-12, 1e-4, 0.3, 0.999, 1.0):
        got = scattering._x_cosh_minus_sinh_over_x(y)
        # 40 digits past those the difference cancels
        with mpmath.workdps(40 - (math.floor(math.log10(y)) if y else 0)):
            x = mpmath.sqrt(mpmath.mpf(y))
            ref = (x * mpmath.cosh(x) - mpmath.sinh(x)) / x if y else mpmath.mpf(0)
            assert abs(got - ref) <= 2.3e-16 * ref, y


@pytest.mark.parametrize("A", [1e-12, 1e-8, 1e-4])
def test_weak_smooth_interaction_meets_an_ode_reference(A):
    # RK4 carries w = r u' - u, so a = w(R)/u'(R) keeps its relative
    # accuracy; R - u/u' read 8.24e-14 at A = 1e-12, against 3.81e-14
    import mpmath

    sol = zero_energy_solve(_bump(A))
    with mpmath.workdps(30):
        c = lambda r: mpmath.mpf(A) / 2 * (1 - r * r) ** 2
        rhs = lambda r, y: [y[1], c(r) * y[0], r * c(r) * y[0]]  # (u, u', w = r u' - u)
        u, du, w = mpmath.odefun(rhs, 0, [0, 1, 0])(1)
        assert abs(sol.a - w / du) <= 1e-13 * w / du
    assert abs(sol.a - 4.0 * A / 105.0) <= 0.1 * A * sol.a  # first Born term, 4A/105


def test_length_stays_in_physical_window():
    for A in (0.5, 2.0, 50.0, 5000.0):
        sol = zero_energy_solve(square_barrier(A))
        assert 0.0 <= sol.a <= 1.0
        assert np.all(sol.f.values <= 1.0 + 1e-12)
        r = sol.f.nodes
        outer = r >= 1.0
        lower = 1.0 - sol.a / r[outer]
        assert np.all(sol.f.values[outer] >= lower - 1e-8)


def test_exterior_exactness():
    # r_max = max(2R, R + 1, 1), reached through a fixed number of exterior nodes
    for radius, r_max in ((1.0, 2.0), (0.1, 1.1), (3.0, 6.0)):
        sol = zero_energy_solve(square_barrier(2.0, radius))
        assert sol.r_nodes[-1] == r_max
        assert np.sum(sol.r_nodes > radius) == EXTERIOR_NODES
        assert sol.fit_residual <= 1e-8 * r_max


def test_variational_energy_matches_length():
    for spec in (square_barrier(2.0), square_barrier(200.0), hardcore(0.7)):
        sol = zero_energy_solve(spec)
        energy = scattering_energy(sol)
        assert abs(energy / (4.0 * math.pi) - sol.a) <= 1e-6 * max(sol.a, 1e-3)


def test_hardcore_object_is_exact():
    sol = zero_energy_solve(hardcore(0.35))
    assert sol.a == 0.35


def test_hardcore_limit_sweep():
    rows = hardcore_limit(square_barrier(1.0), [2.0, 20.0, 200.0])
    expected = [barrier_length(a) for a in (2.0, 20.0, 200.0)]
    for (_, got), ref in zip(rows, expected):
        assert abs(got - ref) < 1e-6
    lengths = [a for _, a in rows]
    assert lengths == sorted(lengths)
    assert all(a <= 1.0 for a in lengths)


def test_hardcore_limit_extreme_amplitude():
    (_, a), = hardcore_limit(square_barrier(1.0), [1e6])
    assert abs(a - 1.0) < 0.002


def test_monotone_in_amplitude():
    lo = zero_energy_solve(square_barrier(3.0)).a
    hi = zero_energy_solve(scaled_interaction(square_barrier(3.0), 2.0)).a
    assert hi > lo


def test_sweep_validation():
    with pytest.raises(ValueError):
        hardcore_limit(square_barrier(1.0), [2.0, 1.0])
    with pytest.raises(ValueError):
        hardcore_limit(square_barrier(1.0), [-1.0, 2.0])


def test_unbounded_interaction_rejected():
    def diverging(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            return 1.0 / np.maximum(r, 0.0)

    spec = InteractionSpec(fn=diverging, range_=1.0)
    with pytest.raises(StiffnessError):
        zero_energy_solve(spec)


def test_dilation_identity_exact():
    rep = scaled_identity_check(square_barrier(2.0), 1000, 0.4)
    assert rep.rel_err <= 1e-8


@pytest.mark.parametrize("N", [100, 10000])
@pytest.mark.parametrize("beta", [0.35, 0.45])
def test_dilation_identity_grid(N, beta):
    rep = scaled_identity_check(square_barrier(2.0), N, beta)
    assert rep.rel_err <= 1e-8


def test_dilation_identity_trivial_cases():
    rep0 = scaled_identity_check(square_barrier(0.0), 1000, 0.4)
    assert rep0.lhs == 0.0 and rep0.rhs == 0.0
    rep1 = scaled_identity_check(square_barrier(2.0), 1, 0.4)
    assert abs(rep1.lhs - rep1.a_w) < 1e-12
    assert rep1.rhs == rep1.a_w


def test_intense_scaling_recovers_the_range():
    # amplitude exponent above the reference scaling: the rescaled length
    # approaches the range from below as N grows
    beta = 0.4
    alpha = 2.0 * beta - 2.0 / 3.0 + 0.6
    w = square_barrier(2.0)
    vals = []
    for N in (100, 1000, 10000):
        b = float(N) ** beta
        spec = dilated_interaction(w, float(N) ** (alpha + 2.0 / 3.0), b)
        vals.append(zero_energy_solve(spec).a * b)
    assert all(v < 1.0 for v in vals)
    assert all(y > x for x, y in zip(vals, vals[1:]))
    assert vals[-1] > 0.9


def test_dyson_bump_normalization():
    kit = dyson_parts(0.0, 1.0, 0.2, 2.0)
    assert abs(kit.U_integral_check - 1.0) <= 1e-10
    assert kit.U_R(np.array([0.5]))[0] == pytest.approx(3.0 / (4.0 * math.pi))
    assert kit.U_R(np.array([1.5]))[0] == 0.0
    shell = dyson_parts(0.5, 1.0, 0.2, 2.0)
    assert abs(shell.U_integral_check - 1.0) <= 1e-10


def test_dyson_chi_piecewise():
    kit = dyson_parts(0.0, 1.0, 1.0, 0.5)
    vals = kit.chi_s(np.array([0.5, 1.5, 3.0]))
    assert np.allclose(vals, [0.0, 0.5, 1.0])
    assert np.all(kit.chi_s(np.linspace(0, 10, 100)) <= 1.0)
    assert np.all(kit.chi_s(np.linspace(0, 10, 100)) >= 0.0)


def test_dyson_kinetic_split_inequality():
    p_F = 3.0
    kit = dyson_parts(0.0, 0.05, 1.0 / (2.0 * p_F), p_F)
    p = np.linspace(1e-6, 8.0 * p_F, 10**4)
    margin = kit.high_frequency_margin(p)
    assert int(np.sum(margin < 0)) == 0


def test_dyson_geometry_error():
    with pytest.raises(GeometryError):
        dyson_parts(1.0, 1.0, 0.1, 1.0)
    with pytest.raises(GeometryError):
        dyson_parts(2.0, 1.0, 0.1, 1.0)


def test_square_barrier_has_no_step_error():
    # a barrier takes the closed-form segment rule, so no RK4 step error
    # enters; the smooth-interaction tests cover the RK4 estimate
    for A in (2.0, 20.0, 200.0, 2000.0):
        sol = zero_energy_solve(square_barrier(A))
        assert sol.step_error_estimate == 0.0
        assert abs(sol.a - barrier_length(A)) <= 1e-15


def _rk4_outward_scalar(vfun, R, steps_per_unit):
    """Reference: the RK4 step loop on NumPy scalars, indexing each coefficient.

    Samples the coefficient inside the open interval (0, R), carries
    w = r u' - u with w' = r c u, brings the samples to the final scale with
    ldexp and returns a = R - u(R)/u'(R), as w(R)/u'(R) below R/4, as the
    solver does.
    """
    u, du, w = 0.0, 1.0, 0.0
    shift = 0.0
    n = max(1, int(math.ceil(R * steps_per_unit)))
    h = R / n
    base = h * np.arange(n)
    lo, hi = np.nextafter(0.0, R), np.nextafter(R, 0.0)
    c0 = 0.5 * np.asarray(vfun(np.maximum(base, lo)), dtype=float)
    ch = 0.5 * np.asarray(vfun(np.minimum(base + 0.5 * h, hi)), dtype=float)
    c1 = 0.5 * np.asarray(vfun(np.minimum(base + h, hi)), dtype=float)
    us = np.empty(n + 1)
    dus = np.empty(n + 1)
    shifts = np.empty(n + 1)
    us[0], dus[0], shifts[0] = u, du, 0.0
    for i in range(n):
        a0, am, a1 = c0[i], ch[i], c1[i]
        k1u = du
        k1d = a0 * u
        k2u = du + 0.5 * h * k1d
        k2d = am * (u + 0.5 * h * k1u)
        k3u = du + 0.5 * h * k2d
        k3d = am * (u + 0.5 * h * k2u)
        k4u = du + h * k3d
        k4d = a1 * (u + h * k3u)
        r = h * i
        k1w = r * k1d
        k2w = (r + 0.5 * h) * k2d
        k3w = (r + 0.5 * h) * k3d
        k4w = (r + h) * k4d
        u = u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        du = du + h / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        w = w + h / 6.0 * (k1w + 2.0 * (k2w + k3w) + k4w)
        if abs(u) > 2.5e120 or abs(du) > 2.5e120:
            u *= 2.0**-400
            du *= 2.0**-400
            w *= 2.0**-400
            shift += 400.0
        us[i + 1] = u
        dus[i + 1] = du
        shifts[i + 1] = shift
    rs = np.concatenate([[0.0], base + h])
    if shift > 0.0:
        whole = np.maximum(shifts - shift, -2200.0).astype(np.int64)
        us = np.ldexp(us, whole)
        dus = np.ldexp(dus, whole)
    a = R - us[-1] / dus[-1]
    return rs, us, dus, float(w / dus[-1] if a < 0.25 * R else a)


def _ramp(amplitude):
    """amplitude * (1 + r) on r <= 1: no segment is constant, so RK4 runs."""
    return InteractionSpec(fn=lambda r: 1.0 + np.asarray(r, dtype=float), range_=1.0, amplitude=amplitude)


def test_rk4_outward_matches_scalar_reference(monkeypatch):
    specs = [_ramp(A) for A in (2.0, 2e3, 2e12)]
    for spec in specs:
        for steps_per_unit in (2000.0, 4000.0):
            *got, a = scattering._rk4_outward(spec, 1.0, steps_per_unit)
            *want, a_want = _rk4_outward_scalar(spec, 1.0, steps_per_unit)
            for g, w in zip(got, want, strict=True):
                assert g.dtype == np.float64 and g.flags.writeable
                assert np.array_equal(g, w)
            assert a == a_want
    # 2e12 crosses 2^400: the rescale runs and early samples underflow to zero
    _, us, _, _ = scattering._rk4_outward(specs[2], 1.0, 2000.0)
    assert us[1] == 0.0 and us[-1] > 0.0
    fast = [zero_energy_solve(spec) for spec in specs]
    monkeypatch.setattr(scattering, "_rk4_outward", _rk4_outward_scalar)
    for spec, sol in zip(specs, fast):
        ref = zero_energy_solve(spec)
        assert (sol.a, sol.step_error_estimate, sol.fit_residual) == (
            ref.a,
            ref.step_error_estimate,
            ref.fit_residual,
        )


def test_rk4_overflow_is_a_stiffness_error():
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(StiffnessError, match="overflowed"):
        zero_energy_solve(_ramp(1e300))


def _barrier_profile(r, A, R=1.0):
    """Closed form normalized to u = r - a outside, as the benchmark checks it."""
    k = math.sqrt(A / 2.0)
    if r >= R:
        return r - barrier_length(A, R)
    return math.sinh(k * r) / (k * math.cosh(k * R))


@pytest.mark.parametrize("A", [0.5, 2.0])
def test_exact_rule_barrier_profile(A):
    sol = zero_energy_solve(square_barrier(A))
    r = sol.u.nodes
    u_ref = np.array([_barrier_profile(x, A) for x in r])
    assert np.all(np.abs(sol.u.values - u_ref) <= 5e-16 * np.abs(u_ref))
    inner = r > 0
    f_ref = u_ref[inner] / r[inner]
    assert np.all(np.abs(sol.f.values[inner] - f_ref) <= 5e-16 * f_ref)
    f0 = 1.0 / math.cosh(math.sqrt(A / 2.0))
    assert abs(sol.f.values[0] - f0) <= 5e-16 * f0


def test_constant_segments_take_no_rk4_steps(monkeypatch):
    steps = []
    rk4_steps = scattering._rk4_steps

    def counting(c0, *args):
        steps.append(len(c0))
        return rk4_steps(c0, *args)

    monkeypatch.setattr(scattering, "_rk4_steps", counting)
    barrier = square_barrier(2.0)
    for spec in (
        barrier,
        square_barrier(2e12),
        scaled_interaction(barrier, 200.0),
        dilated_interaction(barrier, 1000.0 ** 0.8, 1000.0 ** 0.4),
    ):
        zero_energy_solve(spec)
        assert sum(steps) == 0, (spec.range_, spec.amplitude)
    # the counter sees the step loop: a varying coefficient runs it twice
    zero_energy_solve(_ramp(2.0))
    assert sum(steps) == 2000 + 4000


def _bump(amplitude):
    """amplitude * (1 - r^2)^2 on r <= 1: smooth, so RK4 keeps fourth order."""
    return InteractionSpec(fn=lambda r: (1.0 - np.asarray(r, dtype=float) ** 2) ** 2, range_=1.0, amplitude=amplitude)


@pytest.mark.parametrize("A", [2e3, 2e5])
def test_rk4_error_and_its_estimate_on_a_smooth_interaction(A):
    spec = _bump(A)

    def length(steps_per_unit):
        return scattering._rk4_outward(spec, 1.0, steps_per_unit)[3]

    sol = zero_energy_solve(spec)  # runs at 2000 and 4000 steps per unit
    a_ref = length(16000.0)
    errors = [abs(length(n) - a_ref) for n in (1000.0, 2000.0, 4000.0)]
    assert errors[2] == abs(sol.a - a_ref)
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0
    assert abs(sol.a - a_ref) <= 2.0 * sol.step_error_estimate
