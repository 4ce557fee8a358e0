import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dilutefermi import numerics, thomas_fermi
from dilutefermi.numerics import (
    RadialProfile,
    RefinementError,
    Tolerance,
    integrate_radial,
    lp_distance,
)
from dilutefermi.potentials import harmonic_trap, power_trap

LAMBDA = 24.0 ** (1.0 / 3.0)


def test_tolerance_validation():
    Tolerance(abs=0.0, rel=1e-9)
    with pytest.raises(ValueError):
        Tolerance(abs=0.0, rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(abs=-1e-3)
    with pytest.raises(ValueError):
        Tolerance(max_refinements=0)


def test_profile_validation():
    nodes = np.linspace(0, 1, 16)
    RadialProfile(nodes, np.ones(16))
    with pytest.raises(ValueError):
        RadialProfile(nodes[:8], np.ones(8))  # too few nodes
    with pytest.raises(ValueError):
        RadialProfile(nodes[::-1], np.ones(16))  # not increasing
    with pytest.raises(ValueError):
        RadialProfile(nodes, np.full(16, np.nan))


def test_unit_ball_volume():
    val = integrate_radial(lambda r: np.ones_like(r), 1.0)
    assert abs(val - 4.0 * math.pi / 3.0) < 1e-12


def test_monomial_integral():
    val = integrate_radial(lambda r: r**2, 1.0)
    assert abs(val - 4.0 * math.pi / 5.0) < 1e-12


def test_minimizer_normalization_integral():
    # int (lam - r^2)_+^{3/2} 4 pi r^2 dr = pi^2 lam^3 / 8, so dividing by
    # 3 pi^2 gives lam^3 / 24 = 1 at lam = 24^(1/3)
    def f(r):
        return np.maximum(LAMBDA - r * r, 0.0) ** 1.5 / (3.0 * math.pi**2)

    val = integrate_radial(f, math.sqrt(LAMBDA), breakpoints=[math.sqrt(LAMBDA)])
    assert abs(val - 1.0) < 1e-8


def test_quadrature_linearity_and_monotonicity():
    tol = Tolerance(abs=1e-11, rel=1e-11)
    f = lambda r: np.exp(-r)
    g = lambda r: np.exp(-r) + 0.3 * r
    i_f = integrate_radial(f, 2.0, tol)
    i_g = integrate_radial(g, 2.0, tol)
    i_sum = integrate_radial(lambda r: 2.0 * f(r) + g(r), 2.0, tol)
    assert abs(i_sum - (2.0 * i_f + i_g)) < 1e-9
    assert i_f <= i_g + 2.0 * tol.abs  # f <= g pointwise on [0, 2]


def test_refinement_failure_carries_estimates():
    tol = Tolerance(abs=1e-300, rel=1e-300, max_refinements=3)
    with pytest.raises(RefinementError) as exc:
        integrate_radial(lambda r: np.sqrt(np.abs(np.sin(40.0 * r))), 3.0, tol)
    assert math.isfinite(exc.value.last_estimate)
    assert math.isfinite(exc.value.previous_estimate)


def test_lp_identity_is_zero():
    nodes = np.linspace(0.0, 2.0, 33)
    prof = RadialProfile(nodes, np.sin(nodes) + 1.5)
    assert lp_distance(prof, prof, 5.0 / 3.0) == 0.0


def test_lp_indicator_against_zero():
    nodes = np.linspace(0.0, 1.0, 17)
    ones = RadialProfile(nodes, np.ones(17))
    zero = RadialProfile(nodes, np.zeros(17))
    d1 = lp_distance(ones, zero, 1.0)
    assert abs(d1 - 4.0 * math.pi / 3.0) < 1e-12
    d53 = lp_distance(ones, zero, 5.0 / 3.0)
    assert abs(d53 - (4.0 * math.pi / 3.0) ** 0.6) < 1e-12


def test_lp_union_domain_with_zero_tails():
    short = RadialProfile(np.linspace(0.0, 1.0, 17), np.ones(17))
    longer = RadialProfile(np.linspace(0.0, 2.0, 33), np.zeros(33))
    # difference is 1 on [0, 1] and 0 beyond
    assert abs(lp_distance(short, longer, 1.0) - 4.0 * math.pi / 3.0) < 1e-12


def _lp_distance_per_segment(f, g, p):
    """Scalar reference: both profiles evaluated at the ends of each segment separately."""
    r_hi = max(f.r_max, g.r_max)
    nodes = np.union1d(np.concatenate([[0.0], f.nodes, g.nodes]), [r_hi])
    nodes = nodes[(nodes >= 0.0) & (nodes <= r_hi)]

    def ends(prof, a, b):
        return (0.0, 0.0) if a >= prof.r_max else (float(prof(a)), float(prof(b)))

    total = 0.0
    for a, b in zip(nodes[:-1], nodes[1:]):
        fa, fb = ends(f, a, b)
        ga, gb = ends(g, a, b)
        total += numerics._segment_lp_mass(fa - ga, fb - gb, a, b, p)
    return max(total, 0.0) ** (1.0 / p)


@pytest.mark.parametrize("p", [1.0, 5.0 / 3.0, 2.0])
def test_lp_distance_equals_per_segment_reference(p):
    rng = np.random.default_rng(7)
    # different node sets, a first node above 0, different r_max, zero tails
    a = np.sort(rng.uniform(0.05, 2.0, 40))
    b = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, 60)), [3.0]])
    f = RadialProfile(a, np.exp(-a) * np.cos(3.0 * a))
    g = RadialProfile(b, np.exp(-b) + 1e-3 * rng.standard_normal(b.size))
    assert lp_distance(f, g, p) == _lp_distance_per_segment(f, g, p)
    assert lp_distance(g, f, p) == _lp_distance_per_segment(g, f, p)


_values = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=20, max_size=20
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_values, _values, _values, st.sampled_from([1.0, 5.0 / 3.0, 2.0, 5.0 / 2.0]))
def test_lp_triangle_inequality(fv, gv, hv, p):
    nodes = np.linspace(0.0, 1.5, 20)
    f = RadialProfile(nodes, np.array(fv))
    g = RadialProfile(nodes, np.array(gv))
    h = RadialProfile(nodes, np.array(hv))
    assert lp_distance(f, h, p) <= lp_distance(f, g, p) + lp_distance(g, h, p) + 1e-10


def _integrate_radial_per_half(f, r_max, tol, breakpoints=()):
    """Reference: the refinement loop that samples each half panel with its own call."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(10)

    def weighted(r):
        return 4.0 * np.pi * r * r * np.asarray(f(r), dtype=float)

    def panels(a, b):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        pts = mid[:, None] + half[:, None] * gl_x[None, :]
        return half * (weighted(pts.ravel()).reshape(pts.shape) @ gl_w)

    edges = [0.0] + [x for x in sorted(set(map(float, breakpoints))) if 0.0 < x < r_max] + [float(r_max)]
    a = np.array(edges[:-1])
    b = np.array(edges[1:])
    coarse = panels(a, b)
    total = 0.0
    depth = 0
    while a.size:
        mids = 0.5 * (a + b)
        if depth > tol.max_refinements:
            fine = panels(np.concatenate([a, mids]), np.concatenate([mids, b]))
            raise RefinementError("cap", total + float(np.sum(coarse)), total + float(np.sum(fine)))
        left = panels(a, mids)
        right = panels(mids, b)
        fine = left + right
        err = np.abs(fine - coarse)
        budget = np.maximum(tol.abs * (b - a) / r_max, tol.rel * np.abs(fine))
        ok = (err <= budget) | ((b - a) <= 1e-15 * r_max)
        total += float(np.sum(fine[ok]))
        keep = ~ok
        a = np.concatenate([a[keep], mids[keep]])
        b = np.concatenate([mids[keep], b[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
        depth += 1
    return total


def test_integrate_radial_equals_per_half_reference(monkeypatch):
    pairs = []

    def recorder(f, r_max, tol=Tolerance(), breakpoints=()):
        got = integrate_radial(f, r_max, tol, breakpoints)
        pairs.append((got, _integrate_radial_per_half(f, r_max, tol, breakpoints)))
        return got

    monkeypatch.setattr(thomas_fermi, "integrate_radial", recorder)
    # the five traps of the solver sweep: the mass, kinetic, potential and
    # interaction integrands of each TF minimizer with a breakpoint at its
    # support edge, then the trial-energy integrals of two of the profiles
    for v in (harmonic_trap(0.0), harmonic_trap(1.0), power_trap(3.0), power_trap(4.0), power_trap(6.0)):
        sol = thomas_fermi.tf_solve(v)
        rho, edge = sol.rho_fn, (sol.support_radius,)
        for f in (rho, lambda r: rho(r) ** (5.0 / 3.0), lambda r: v.radial_fn(r) * rho(r), lambda r: rho(r) ** 2):
            recorder(f, sol.support_radius, Tolerance(abs=1e-12, rel=1e-12), edge)
    n_tf = len(pairs)
    for v in (harmonic_trap(0.0), power_trap(4.0)):
        thomas_fermi.tf_functional(v, thomas_fermi.tf_solve(v).rho)
    assert n_tf >= 20 and len(pairs) > n_tf
    for got, want in pairs:
        assert got == want

    tol = Tolerance(abs=1e-300, rel=1e-300, max_refinements=3)
    f = lambda r: np.sqrt(np.abs(np.sin(40.0 * r)))
    with pytest.raises(RefinementError) as got:
        integrate_radial(f, 3.0, tol)
    with pytest.raises(RefinementError) as want:
        _integrate_radial_per_half(f, 3.0, tol)
    assert got.value.previous_estimate == want.value.previous_estimate
    assert got.value.last_estimate == want.value.last_estimate
