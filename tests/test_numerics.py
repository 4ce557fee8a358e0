import collections
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dilutefermi import numerics, scattering, spectra, thomas_fermi
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


def test_refinement_failure_carries_estimates(monkeypatch):
    # a cusp at every zero of sin(40 r) defeats every order up to the cap
    orders = []
    gauss = numerics._gauss

    def recording(n):
        orders.append(n)
        return gauss(n)

    monkeypatch.setattr(numerics, "_gauss", recording)
    tol = Tolerance(abs=1e-300, rel=1e-300)
    with pytest.raises(RefinementError, match="512 points per panel") as exc:
        integrate_radial(lambda r: np.sqrt(np.abs(np.sin(40.0 * r))), 3.0, tol)
    assert max(orders) == 2 * numerics._RULE_CAP
    assert exc.value.last_estimate.shape == exc.value.previous_estimate.shape == (1,)
    assert np.all(np.isfinite(exc.value.last_estimate))
    assert np.all(np.isfinite(exc.value.previous_estimate))


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


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_lp_rejects_non_finite_p(p):
    nodes = np.linspace(0.0, 1.0, 17)
    ones = RadialProfile(nodes, np.ones(17))
    twos = RadialProfile(nodes, np.full(17, 2.0))
    zero = RadialProfile(nodes, np.zeros(17))
    for f in (ones, twos):
        with pytest.raises(ValueError, match="finite"):
            lp_distance(f, zero, p)


def test_lp_union_domain_with_zero_tails():
    short = RadialProfile(np.linspace(0.0, 1.0, 17), np.ones(17))
    longer = RadialProfile(np.linspace(0.0, 2.0, 33), np.zeros(33))
    # difference is 1 on [0, 1] and 0 beyond
    assert abs(lp_distance(short, longer, 1.0) - 4.0 * math.pi / 3.0) < 1e-12


# Scalar reference for lp_distance: the four segment rules one segment at
# a time, a zero crossing split by a recursive call.  Its arithmetic is the
# kernel's: the same fixed-order Gauss sum, |u|^(p+k+1) as |u|^p times
# factors |u|, and every p-th power through NumPy's array pow (a Python
# float pow may round differently from NumPy's SIMD one).
_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)


def _pow(x, p):
    return float((np.array([x]) ** p)[0])


def _abs_power_moment(u, p, k):
    """Antiderivative of |t|^p t^k evaluated from 0 to u."""
    power = _pow(abs(u), p)
    for _ in range(k + 1):
        power = power * abs(u)
    m = power / (p + k + 1.0)
    return -m if u < 0 and k % 2 == 0 else m


def _segment_lp_mass(d0, d1, r0, r1, p, branches):
    """Integral of |delta(r)|^p 4 pi r^2 on [r0, r1]; tallies its rule in ``branches``."""
    length = r1 - r0
    scale = max(abs(d0), abs(d1))
    if length <= 0 or scale == 0.0:
        branches["zero"] += 1
        return 0.0
    if scale < 1e-100:
        branches["tiny"] += 1
        dm = 0.5 * (abs(d0) + abs(d1))
        return _pow(dm, p) * (4.0 * math.pi / 3.0) * (r1 * r1 * r1 - r0 * r0 * r0)
    s = (d1 - d0) / length
    if d0 * d1 < 0:
        branches["crossing"] += 1
        rc = r0 - d0 / s
        return _segment_lp_mass(d0, 0.0, r0, rc, p, branches) + _segment_lp_mass(
            0.0, d1, rc, r1, p, branches
        )
    if abs(d1 - d0) <= 0.5 * scale:
        branches["gauss"] += 1
        mid = 0.5 * (r0 + r1)
        half = 0.5 * length
        pts = mid + half * _GL_X
        vals = np.abs(d0 + s * (pts - r0)) ** p * 4.0 * np.pi * pts * pts
        acc = vals[0] * _GL_W[0]
        for j in range(1, 10):
            acc = acc + vals[j] * _GL_W[j]
        return float(half * acc)
    branches["closed_form"] += 1
    alpha = r0 - d0 / s
    f0, f1, f2 = (_abs_power_moment(d1, p, k) - _abs_power_moment(d0, p, k) for k in range(3))
    return 4.0 * np.pi / s * (alpha * alpha * f0 + 2.0 * alpha / s * f1 + f2 / (s * s))


def _lp_distance_per_segment(f, g, p, branches=None):
    """Scalar reference: both profiles evaluated at the ends of each segment separately."""
    branches = collections.Counter() if branches is None else branches
    r_hi = max(f.r_max, g.r_max)
    nodes = np.union1d(np.concatenate([[0.0], f.nodes, g.nodes]), [r_hi])
    nodes = nodes[(nodes >= 0.0) & (nodes <= r_hi)]

    def ends(prof, a, b):
        return (0.0, 0.0) if a >= prof.r_max else (float(prof(a)), float(prof(b)))

    total = 0.0
    for a, b in zip(nodes[:-1].tolist(), nodes[1:].tolist()):
        fa, fb = ends(f, a, b)
        ga, gb = ends(g, a, b)
        total += _segment_lp_mass(fa - ga, fb - gb, a, b, p, branches)
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


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("p", [1.0, 5.0 / 3.0, 2.0, 5.0 / 2.0])
def test_lp_distance_hits_every_rule_like_the_reference(seed, p):
    rng = np.random.default_rng(seed)
    # f: first node above 0, r_max 2; g: r_max 3, so beyond 2 the
    # difference is g alone, and it vanishes in g's zero stretch past 2.5
    a = np.sort(rng.uniform(0.05, 2.0, 120))
    shared = rng.choice(a, 30, replace=False)
    b = np.union1d(np.concatenate([[0.0], rng.uniform(0.0, 3.0, 150), [3.0]]), shared)
    fv = np.cos(5.0 * a) * np.exp(-a)
    fv[a < 0.4] = rng.standard_normal(np.sum(a < 0.4))  # steep segments and crossings
    gv = np.exp(-b) * np.cos(4.0 * b)
    gv[b > 2.5] = 0.0  # a zero stretch in g's tail
    near = (a > 1.0) & (a < 1.3)  # |d| < 1e-100: f and g tiny there
    fv[near] = 1e-110 * rng.uniform(0.5, 1.5, np.sum(near))
    gv[(b > 1.0) & (b < 1.3)] = 0.0
    f, g = RadialProfile(a, fv), RadialProfile(b, gv)
    assert a[0] > 0.0 and f.r_max < g.r_max and np.intersect1d(a, b).size >= 30
    for x, y in ((f, g), (g, f)):
        branches = collections.Counter()
        assert lp_distance(x, y, p) == _lp_distance_per_segment(x, y, p, branches)
        assert set(branches) == {"zero", "tiny", "crossing", "gauss", "closed_form"}
        assert min(branches.values()) >= 3, branches


# Child processes differ only in one variable: NumPy's SIMD dispatch or
# OpenBLAS's kernel.  The profiles are polynomials built from products
# alone (``a**3`` would go through the dispatched pow), on so few nodes
# that one Gauss panel's last bit shows in the total; a BLAS dot product
# in the panels moves each of these pairs by an ulp between kernels.
_DISPATCH_SCRIPT = """
import numpy as np
from dilutefermi.numerics import RadialProfile, lp_distance
out = []
for n, m in ((17, 17), (24, 23), (39, 17)):
    a = np.linspace(0.0, 2.0, n)
    b = np.linspace(0.01, 2.5, m)
    f = RadialProfile(a, 1.0 - a * a + 0.2 * a * a * a)
    g = RadialProfile(b, (1.0 - 0.5 * b) * (0.9 - 0.3 * b * b))
    out += [lp_distance(f, g, p).hex() for p in (1.0, 2.0)]
print(" ".join(out))
"""


def test_lp_distance_is_independent_of_simd_and_blas_dispatch():
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    found = [name for name in __cpu_dispatch__ if __cpu_features__[name]]
    src = str(Path(numerics.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    base["PYTHONPATH"] = src
    variants = [{}, {"NPY_DISABLE_CPU_FEATURES": " ".join(found)}] if found else [{}]
    variants += [{"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Nehalem"}]
    outs = []
    for extra in variants:
        run = subprocess.run(
            [sys.executable, "-c", _DISPATCH_SCRIPT],
            env={**base, **extra}, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout.strip())
    assert len(set(outs)) == 1, dict(zip(map(str, variants), outs))
    assert all(float.fromhex(x) > 0.0 for x in outs[0].split())


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


def _three_step_gauss(n):
    """The n-point Gauss-Legendre rule by three Newton steps at 40 digits."""
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
            for _ in range(3):
                p, dp = legendre(t)
                t -= p / dp
            nodes.append(float(t))
            weights.append(float(2 / ((1 - t * t) * dp * dp)))
    return nodes + [-x for x in reversed(nodes)], weights + weights[::-1]


def test_gauss_rule_matches_three_newton_steps():
    # every order the shared rule reaches, 16 against 32 up to the cap
    # against twice the cap: two steps at 34 digits give the same doubles
    n = numerics._RULE_START
    while n <= 2 * numerics._RULE_CAP:
        nodes, weights = _three_step_gauss(n)
        x, w = numerics._gauss(n)
        assert x.tolist() == nodes and w.tolist() == weights, n
        n *= 2


def _integrate_radial_reference(f, r_max, tol, breakpoints=()):
    """Reference: the shared Gauss rule in plain Python floats.

    The same ``_gauss`` nodes and the same n-against-2n loop, with every
    node, weight product, panel sum and panel total formed one float at a
    time in Python, so no BLAS or SIMD kernel rounds any of them.  ``f``
    alone sees NumPy: one call per order on every node of every panel,
    node by node as the kernel samples them, so it rounds as there.
    """
    edges = [0.0] + [x for x in sorted(set(map(float, breakpoints))) if 0.0 < x < r_max] + [float(r_max)]
    panels = list(zip(edges[:-1], edges[1:]))

    def estimates(n):
        xs, ws = (t.tolist() for t in numerics._gauss(n))
        rs = [0.5 * (a + b) + 0.5 * (b - a) * x for x in xs for a, b in panels]
        vals = np.asarray(f(np.array(rs)), dtype=float).tolist()
        out = []
        for k, (a, b) in enumerate(panels):
            acc = None
            for j, w in enumerate(ws):
                r = rs[j * len(panels) + k]
                term = 4.0 * math.pi * r * r * vals[j * len(panels) + k] * w
                acc = term if acc is None else acc + term
            out.append(0.5 * (b - a) * acc)
        return out

    n = numerics._RULE_START
    coarse = estimates(n)
    while True:
        fine = estimates(2 * n)
        budgets = [max(tol.abs * (b - a) / r_max, tol.rel * abs(e)) for (a, b), e in zip(panels, fine)]
        if all(abs(e - c) <= t for e, c, t in zip(fine, coarse, budgets)):
            total = 0.0
            for e in fine:
                total += e
            return total
        if n >= numerics._RULE_CAP:
            raise RefinementError("cap", coarse, fine)
        n, coarse = 2 * n, fine


def test_integrate_radial_equals_plain_python_reference(monkeypatch):
    pairs = []

    def recorder(f, r_max, tol=Tolerance(), breakpoints=()):
        got = integrate_radial(f, r_max, tol, breakpoints)
        pairs.append((got, _integrate_radial_reference(f, r_max, tol, breakpoints)))
        return got

    monkeypatch.setattr(thomas_fermi, "integrate_radial", recorder)
    monkeypatch.setattr(scattering, "integrate_radial", recorder)
    # the harmonic minimizer's mass with a breakpoint at its support edge;
    # the trial-energy integrals of tf_functional on two sampled minimizers,
    # a panel per profile segment; the unit-mass check of the Dyson shell;
    # the free-state traces of criterion 16, with and without its breakpoints
    edge = math.sqrt(LAMBDA)
    recorder(lambda r: np.maximum(LAMBDA - r * r, 0.0) ** 1.5 / (3.0 * math.pi**2), edge, Tolerance(), (edge,))
    for v in (harmonic_trap(0.0), power_trap(4.0)):
        sol = thomas_fermi.tf_solve(v)
        nodes = np.linspace(0.0, sol.support_radius * 1.02, 257)
        thomas_fermi.tf_functional(v, RadialProfile(nodes, sol.rho_fn(nodes)))
    scattering.dyson_parts(0.5, 2.0, 1.0, 1.0)
    for N in (100, 1000):
        fn = spectra.free_ground_state_density_fn(N ** (-1.0 / 3.0), math.ceil(N / 2))
        for bps in ((1.0, 2.0, 3.0), ()):
            recorder(fn, 6.0, Tolerance(abs=1e-10, rel=1e-10), bps)
    assert len(pairs) == 1 + 4 + 1 + 4
    for got, want in pairs:
        assert got == want

    tol = Tolerance(abs=1e-300, rel=1e-300)
    f = lambda r: np.sqrt(np.abs(np.sin(40.0 * r)))
    with pytest.raises(RefinementError) as got:
        integrate_radial(f, 3.0, tol, (1.0,))
    with pytest.raises(RefinementError) as want:
        _integrate_radial_reference(f, 3.0, tol, (1.0,))
    assert got.value.previous_estimate.tolist() == want.value.previous_estimate
    assert got.value.last_estimate.tolist() == want.value.last_estimate
