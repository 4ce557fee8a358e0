import math

import numpy as np
import pytest

from dilutefermi import scattering
from dilutefermi.scattering import (
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
    write_scattering_csv,
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
    for A in (2.0, 200.0):
        sol = zero_energy_solve(square_barrier(A))
        assert abs(sol.a - barrier_length(A)) < 1e-6


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
    sol = zero_energy_solve(square_barrier(2.0), r_max=3.0)
    assert sol.fit_residual <= 1e-8 * 3.0


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


def test_scattering_csv_columns(tmp_path):
    sol = zero_energy_solve(square_barrier(2.0))
    path = tmp_path / "scatter.csv"
    write_scattering_csv(path, sol, header_lines=["probe"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# probe"
    assert lines[1] == "r,u,f,v"
    cells = np.array([[float(c) for c in ln.split(",")] for ln in lines[2:]])
    assert np.all(np.isfinite(cells))


def test_richardson_estimate_is_tight():
    sol = zero_energy_solve(square_barrier(200.0))
    truth = barrier_length(200.0)
    assert abs(sol.a - truth) <= max(10.0 * sol.step_error_estimate, 1e-9)


def _rk4_outward_scalar(vfun, r0, u0, du0, segments, steps_per_unit):
    """Reference: the RK4 step loop on NumPy scalars, indexing each coefficient."""
    rs_parts = [np.array([r0])]
    us_parts = [np.array([u0])]
    dus_parts = [np.array([du0])]
    shift_parts = [np.array([0.0])]
    r, u, du = float(r0), float(u0), float(du0)
    shift = 0.0
    for seg_end in segments:
        if seg_end <= r:
            continue
        n = max(1, int(math.ceil((seg_end - r) * steps_per_unit)))
        h = (seg_end - r) / n
        base = r + h * np.arange(n)
        c0 = 0.5 * np.asarray(vfun(base), dtype=float)
        ch = 0.5 * np.asarray(vfun(np.minimum(base + 0.5 * h, seg_end)), dtype=float)
        c1 = 0.5 * np.asarray(vfun(np.minimum(base + h, seg_end)), dtype=float)
        us = np.empty(n)
        dus = np.empty(n)
        shifts = np.empty(n)
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
            u = u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            du = du + h / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
            if abs(u) > 2.5e120 or abs(du) > 2.5e120:
                u *= 2.0**-400
                du *= 2.0**-400
                shift += 400.0
            us[i] = u
            dus[i] = du
            shifts[i] = shift
        r = seg_end
        rs_parts.append(base + h)
        us_parts.append(us)
        dus_parts.append(dus)
        shift_parts.append(shifts)
    rs = np.concatenate(rs_parts)
    us = np.concatenate(us_parts)
    dus = np.concatenate(dus_parts)
    shifts = np.concatenate(shift_parts)
    if shift > 0.0:
        factor = np.exp2(shifts - shift)
        us = us * factor
        dus = dus * factor
    return rs, us, dus


def test_rk4_outward_matches_scalar_reference(monkeypatch):
    two_step = InteractionSpec(
        fn=lambda r: np.where(np.asarray(r, dtype=float) <= 0.5, 3.0, 1.0),
        range_=1.0,
        amplitude=40.0,
        breakpoints=(0.5,),
    )
    specs = [square_barrier(A) for A in (2.0, 2e3, 2e12)] + [two_step]
    for spec in specs:
        segments = sorted(set(b for b in spec.breakpoints if 0.0 < b < spec.range_)) + [spec.range_]
        for steps_per_unit in (2000.0, 4000.0):
            got = scattering._rk4_outward(spec, 0.0, 0.0, 1.0, segments, steps_per_unit)
            want = _rk4_outward_scalar(spec, 0.0, 0.0, 1.0, segments, steps_per_unit)
            for g, w in zip(got, want):
                assert g.dtype == np.float64 and g.flags.writeable
                assert np.array_equal(g, w)
    # 2e12 crosses 2^400: the rescale runs and early samples underflow to zero
    _, us, _ = scattering._rk4_outward(specs[2], 0.0, 0.0, 1.0, [1.0], 2000.0)
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
