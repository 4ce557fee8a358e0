import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dilutefermi import semiclassics as scl
from dilutefermi import numerics, thomas_fermi
from dilutefermi.numerics import RadialProfile, RefinementError, lp_distance
from dilutefermi.potentials import Potential, harmonic_trap, power_trap
from dilutefermi.thomas_fermi import (
    C_TF,
    KAPPA,
    KAPPA_SPIN,
    DomainError,
    cutoff_gap_scan,
    cutoff_tf_solve,
    tf_functional,
    tf_solve,
    two_spin_minimize,
    write_density_csv,
    _cubic_root,
)
from vlasov import vlasov_energy

LAMBDA = 24.0 ** (1.0 / 3.0)
E_EXACT = 0.75 * LAMBDA
INTER_EXACT = (64.0 / 2835.0) * 24.0**1.5 / math.pi**3


@pytest.fixture(scope="module")
def bare_solution():
    return tf_solve(harmonic_trap(0.0))


def test_constants_reproducible():
    assert abs(C_TF - 0.6 * (6.0 * math.pi**2) ** (2.0 / 3.0)) < 1e-10
    assert abs(KAPPA - (3.0 * math.pi**2) ** (2.0 / 3.0)) < 1e-10
    # four-digit landmarks (the closed forms above are the authority)
    assert abs(C_TF - 9.1156) < 5e-4
    assert abs(KAPPA - 9.5708) < 5e-4
    # kappa = (5/3) 2^(-2/3) c_tf
    assert abs(KAPPA - (5.0 / 3.0) * 2.0 ** (-2.0 / 3.0) * C_TF) < 1e-12


def test_bare_harmonic_multiplier_and_energy(bare_solution):
    assert abs(bare_solution.lambda_TF - LAMBDA) < 1e-6
    assert abs(bare_solution.E_TF - E_EXACT) < 1e-5
    assert abs(bare_solution.potential_integral - LAMBDA**4 / 64.0) < 1e-8
    assert abs(bare_solution.interaction_integral - INTER_EXACT) < 1e-4
    assert abs(bare_solution.mass - 1.0) < 1e-9


def test_offset_shifts_multiplier_only(bare_solution):
    shifted = tf_solve(harmonic_trap(1.0))
    assert abs(shifted.lambda_TF - (1.0 + LAMBDA)) < 1e-8
    # same density: compare the profiles on shared nodes
    r = np.linspace(0.0, 1.6, 64)
    assert np.max(np.abs(shifted.rho_fn(r) - bare_solution.rho_fn(r))) < 1e-9


def test_density_vanishes_outside_support_exactly(bare_solution):
    r = np.linspace(bare_solution.support_radius, 5.0, 64)
    assert np.all(bare_solution.rho_fn(r[1:]) == 0.0)
    v = harmonic_trap(0.0)
    outside = np.linspace(bare_solution.support_radius * 1.0001, 6.0, 97)
    assert np.all(v.radial_fn(outside) >= bare_solution.lambda_TF)


def test_multiplier_equality_on_support(bare_solution):
    assert bare_solution.lagrange_residual <= 1e-8 * bare_solution.lambda_TF
    quartic = tf_solve(power_trap(4.0))
    assert quartic.lagrange_residual <= 1e-8 * quartic.lambda_TF


def test_functional_at_minimizer(bare_solution):
    val = tf_functional(harmonic_trap(0.0), bare_solution.rho)
    assert abs(val - E_EXACT) < 5e-5


def test_functional_zero_density():
    nodes = np.linspace(0.0, 1.0, 16)
    assert tf_functional(harmonic_trap(0.0), RadialProfile(nodes, np.zeros(16))) == 0.0


def test_functional_rejects_negative_samples():
    nodes = np.linspace(0.0, 1.0, 16)
    with pytest.raises(DomainError):
        tf_functional(harmonic_trap(0.0), RadialProfile(nodes, np.linspace(-0.1, 1.0, 16)))


def test_dilated_minimizer_costs_more(bare_solution):
    # mass-preserving dilation rho(x/2)/8 strictly raises the energy
    r = np.linspace(0.0, 2.0 * bare_solution.support_radius * 1.02, 2049)
    dil = RadialProfile(r, bare_solution.rho_fn(r / 2.0) / 8.0)
    assert tf_functional(harmonic_trap(0.0), dil) > bare_solution.E_TF + 1e-3


def test_variational_property_random_trials(bare_solution):
    # any nonnegative unit-mass trial stays above the minimum
    rng_nodes = np.linspace(0.0, 3.0, 257)
    w = np.gradient(rng_nodes) * 4.0 * math.pi * rng_nodes**2
    for shape in (
        np.exp(-rng_nodes**2),
        np.exp(-2.0 * rng_nodes),
        np.maximum(1.5 - rng_nodes, 0.0) ** 2,
    ):
        mass = float(w @ shape)
        prof = RadialProfile(rng_nodes, shape / mass)
        assert tf_functional(harmonic_trap(0.0), prof) >= bare_solution.E_TF - 1e-6


def test_bathtub_occupations_stay_above_minimum(bare_solution):
    # phase-space trials at unit mass never undercut the minimum energy;
    # grid normalization followed by capping keeps 0 <= m <= 2 exactly
    v = harmonic_trap(0.0)
    r = np.linspace(0.0, 2.6, 513)
    p = np.linspace(0.0, 2.6, 513)

    def normalized(mfun):
        raw = np.asarray(mfun(r[:, None], p[None, :]), dtype=float)
        _, mass = vlasov_energy(v, raw, r, p)
        return np.minimum(raw / mass, 2.0)

    lam = bare_solution.lambda_TF
    trials = [
        normalized(lambda rr, pp: 2.0 * ((rr**2 + pp**2) <= lam)),
        normalized(lambda rr, pp: 1.6 * ((rr**2 + 1.4 * pp**2) <= 1.5 * lam)),
        normalized(lambda rr, pp: 1.5 * np.exp(-(rr**2 + pp**2) / 2.5)),
    ]
    for m in trials:
        energy, mass = vlasov_energy(v, m, r, p)
        assert abs(mass - 1.0) < 1e-3
        assert energy >= bare_solution.E_TF - 2e-3


def test_minimizing_sequence_diagnostic(bare_solution):
    # mass-preserving bumps of shrinking amplitude: energies and distances
    # decrease monotonically toward the minimizer
    r = np.linspace(0.0, bare_solution.support_radius * 1.02, 2049)
    w = np.gradient(r) * 4.0 * math.pi * r**2
    base_vals = bare_solution.rho_fn(r)
    bump = np.exp(-((r - 0.8) ** 2) / 0.02) - np.exp(-((r - 0.3) ** 2) / 0.02)
    # project along the base density: exact zero net mass on the grid and
    # positivity without clipping (the bump lives deep inside the support)
    bump -= base_vals * (w @ bump) / (w @ base_vals)
    base_prof = RadialProfile(r, base_vals)
    energies = []
    dists = []
    for eps in (0.02, 0.01, 0.005, 0.0025):
        trial_vals = base_vals + eps * bump
        assert np.min(trial_vals) >= 0.0
        assert abs(w @ trial_vals - w @ base_vals) < 1e-12
        prof = RadialProfile(r, trial_vals)
        energies.append(tf_functional(harmonic_trap(0.0), prof))
        dists.append(lp_distance(prof, base_prof, 5.0 / 3.0))
    assert all(b < a for a, b in zip(energies, energies[1:]))
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert energies[-1] - bare_solution.E_TF < 1e-4
    assert energies[0] > bare_solution.E_TF


def test_two_spin_zero_coupling_splits_the_minimizer(bare_solution):
    st = two_spin_minimize(harmonic_trap(0.0), 0.0)
    assert st.energy == bare_solution.E_TF
    r = st.rho_up.nodes
    assert np.max(np.abs(st.rho_up.values - bare_solution.rho_fn(r) / 2.0)) < 1e-12


def test_two_spin_upper_bound_by_equal_split(bare_solution):
    g = 0.1
    st = two_spin_minimize(harmonic_trap(0.0), g)
    bound = bare_solution.E_TF + g / 4.0 * bare_solution.interaction_integral
    assert st.energy <= bound + 1e-10
    assert st.energy >= bare_solution.E_TF


def test_two_spin_small_coupling_slope(bare_solution):
    quarter = bare_solution.interaction_integral / 4.0
    devs = []
    for g in (0.2, 0.1, 0.05):
        st = two_spin_minimize(harmonic_trap(0.0), g)
        devs.append(abs((st.energy - bare_solution.E_TF) / g - quarter) / quarter)
        assert np.array_equal(st.rho_up.values, st.rho_down.values)
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] <= 0.05


def _two_spin_reference(g):
    """Symmetric two-spin minimizer on V = r^2 by SciPy alone.

    rho_s = t^3 with kappa_s t^2 + g t^3 = (mu - V)_+ by brentq in t at
    each point, every integral by quad, the multiplier by brentq in mu.
    """
    from scipy.integrate import IntegrationWarning, quad
    from scipy.optimize import brentq

    def rho_s(r, mu):
        gap = mu - r * r
        if gap <= 0.0:
            return 0.0
        t_hi = math.sqrt(gap / KAPPA_SPIN)
        return brentq(lambda t: KAPPA_SPIN * t * t + g * t**3 - gap, 0.0, t_hi, xtol=1e-300, rtol=1e-15) ** 3

    def integral(fn, mu):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            return quad(
                lambda r: fn(r, rho_s(r, mu)) * 4.0 * math.pi * r * r,
                0.0, math.sqrt(mu), epsabs=1e-15, epsrel=1e-14, limit=400,
            )[0]

    lam = 24.0 ** (1.0 / 3.0)  # g = 0 multiplier; repulsion raises it
    mu = brentq(lambda m: 2.0 * integral(lambda r, p: p, m) - 1.0, lam, lam + 1.0, xtol=1e-300, rtol=1e-15)
    energy = integral(lambda r, p: 2.0 * C_TF * p ** (5.0 / 3.0) + 2.0 * r * r * p + g * p * p, mu)
    return mu, energy


@pytest.mark.parametrize("g", [0.025, 0.2, 1.0, 4.4])
def test_two_spin_matches_scipy_reference(g):
    mu, energy = _two_spin_reference(g)
    st = two_spin_minimize(harmonic_trap(0.0), g)
    assert st.lambda_two_spin == pytest.approx(mu, rel=1e-12, abs=0.0)
    assert st.energy == pytest.approx(energy, rel=1e-12, abs=0.0)
    # the density vanishes exactly off the support and is positive on it
    r = st.rho_up.nodes
    assert np.all(st.rho_up.values[r * r >= mu] == 0.0)
    assert np.all(st.rho_up.values[r * r < mu * (1.0 - 1e-9)] > 0.0)


def test_cubic_root_residual_and_zero():
    c = np.concatenate([[0.0], np.logspace(-30.0, 3.0, 661)])
    u = _cubic_root(c)
    assert u[0] == 0.0
    assert np.all(u[1:] > 0.0)
    # residual of u^2 (1 + u) = c in exact rational arithmetic: one ulp of u
    # moves the cubic by at most (3u + 2) / (1 + u) <= 3 times 2^-52 c, so a
    # root within one ulp leaves at most 6 ulp of c
    for ci, ui in zip(c[1:], u[1:]):
        fu = Fraction(float(ui))
        resid = abs(fu * fu * (1 + fu) - Fraction(float(ci)))
        assert resid <= 6 * Fraction(float(np.spacing(ci))), (ci, ui)


def test_cutoff_inactive_at_large_momentum(bare_solution):
    sol = cutoff_tf_solve(harmonic_trap(0.0), 1e3)
    assert sol.E_TF_pF == bare_solution.E_TF
    assert sol.overflow_mass == 0.0


def test_cutoff_never_exceeds_unrestricted(bare_solution):
    for p_F in (0.5, 0.9, 1.3, 2.0, 4.0):
        sol = cutoff_tf_solve(harmonic_trap(0.0), p_F)
        assert sol.E_TF_pF <= bare_solution.E_TF + 1e-12
        assert 0.0 <= sol.overflow_mass <= 1.0


def test_cutoff_gap_scan_inactive_grid(bare_solution):
    scan = cutoff_gap_scan(harmonic_trap(0.0), [4.0, 8.0, 16.0, 32.0])
    assert all(g >= 0.0 for g in scan.gaps)
    assert all(b <= a for a, b in zip(scan.gaps, scan.gaps[1:]))
    assert scan.fitted_exponent >= 1.8  # +inf once every gap underflows


def test_cutoff_gap_active_regime_decreasing(bare_solution):
    # below sqrt(lambda) the cap binds: positive, strictly shrinking gaps
    scan = cutoff_gap_scan(harmonic_trap(0.0), [0.6, 0.9, 1.2, 1.5])
    assert all(g > 0.0 for g in scan.gaps)
    assert all(b < a for a, b in zip(scan.gaps, scan.gaps[1:]))
    sol = cutoff_tf_solve(harmonic_trap(0.0), 0.9)
    assert sol.active
    assert abs(sol.regular_mass + sol.overflow_mass - 1.0) < 1e-9


def test_cutoff_gap_exponent_is_the_exact_slope():
    # caps below sqrt(lambda) = 1.698 bind: the exponent is minus the
    # least-squares slope of the (log10 p_F, log10 gap) points, and it meets
    # that slope taken in exact rational arithmetic to rounding
    caps = [0.5, 1.0, 1.5]
    scan = cutoff_gap_scan(harmonic_trap(0.0), caps)
    assert all(sol.active for sol in scan.solutions)
    pts = [(Fraction(math.log10(p)), Fraction(math.log10(g))) for p, g in zip(caps, scan.gaps)]
    x_bar = sum(x for x, _ in pts) / len(pts)
    y_bar = sum(y for _, y in pts) / len(pts)
    sxy = sum((x - x_bar) * (y - y_bar) for x, y in pts)
    exact = -float(sxy / sum((x - x_bar) ** 2 for x, _ in pts))
    assert abs(scan.fitted_exponent - exact) <= 2 * math.ulp(exact)
    assert scan.fitted_exponent == pytest.approx(1.994, abs=5e-4)


def test_cutoff_gap_scan_solutions_equal_single_solves():
    # caps up to 1.6 saturate on harmonic+1 (24^(1/6) = 1.698); 2 and 4 do not
    v = harmonic_trap(1.0)
    caps = [1.2, 1.4, 1.6, 2.0, 4.0]
    scan = cutoff_gap_scan(v, caps)
    assert [s.active for s in scan.solutions] == [True, True, True, False, False]
    for p, sol, gap in zip(caps, scan.solutions, scan.gaps):
        assert sol == cutoff_tf_solve(v, p)
        assert gap == sol.E_TF - sol.E_TF_pF


@pytest.mark.parametrize("offset", [0.0, 1.0])
def test_harmonic_closed_forms_at_rounding_level(offset):
    sol = tf_solve(harmonic_trap(offset))
    assert abs(sol.lambda_TF - offset - LAMBDA) / LAMBDA < 1e-14
    assert abs(sol.E_TF - offset - E_EXACT) / E_EXACT < 1e-14
    assert abs(sol.interaction_integral - INTER_EXACT) / INTER_EXACT < 1e-14
    assert abs(sol.mass - 1.0) < 1e-14


def _power_closed_forms(s):
    """lambda, E_TF and int rho^2 of V = 1 + r^s at unit mass, in 30-digit mpmath.

    The mass condition kappa^(-3/2) 4 pi mu^(3/2 + 3/s) B(3/s, 5/2) / s = 1
    fixes mu = lambda - 1; the virial identity gives E_TF - 1 = mu (6 + 3s) / (6 + 5s).
    """
    import mpmath

    with mpmath.workdps(30):
        s = mpmath.mpf(s)
        kappa = (3 * mpmath.pi**2) ** (mpmath.mpf(2) / 3)
        mu = (3 * mpmath.pi * s / (4 * mpmath.beta(3 / s, 2.5))) ** (1 / (1.5 + 3 / s))
        rho2 = 4 * mpmath.pi * mu ** (3 + 3 / s) * mpmath.beta(3 / s, 4) / (s * kappa**3)
        return 1 + mu, 1 + mu * (6 + 3 * s) / (6 + 5 * s), rho2


@pytest.mark.parametrize("s", [3, 4, 6])
def test_power_closed_forms_at_rounding_level(s):
    sol = tf_solve(power_trap(float(s)))
    got = (sol.lambda_TF, sol.E_TF, sol.interaction_integral)
    for value, exact in zip(got, _power_closed_forms(s)):
        assert abs(value - float(exact)) / float(exact) < 1e-14
    assert abs(sol.mass - 1.0) < 1e-14


def _recorded_rule_orders(monkeypatch):
    orders = []
    gauss = numerics._gauss

    def recording(n):
        orders.append(n)
        return gauss(n)

    monkeypatch.setattr(numerics, "_gauss", recording)
    return orders


def test_level_rule_doubles_its_order_at_a_rough_origin(monkeypatch):
    # V = 1 + r^1.5 is not smooth at the origin, so 16 points do not suffice:
    # n_cl(3) = 2^(3/s + 3/2) B(3/s, 5/2) (4 pi / s) / (6 pi^2) with s = 1.5
    import mpmath

    mpmath.mp.dps = 30
    s = mpmath.mpf(1.5)
    want = float(4 * mpmath.pi * 2 ** (3 / s + 1.5) / s * mpmath.beta(3 / s, 2.5) / (6 * mpmath.pi**2))
    orders = _recorded_rule_orders(monkeypatch)
    got = scl.phase_space_counts(power_trap(1.5), 3.0).n_cl
    assert abs(got - want) / want < 1e-13
    assert max(orders) >= 64
    orders.clear()
    scl.phase_space_counts(harmonic_trap(1.0), 3.0)
    assert orders == [16, 32]  # a smooth trap stops at the first check


def test_level_rule_past_its_cap_raises_refinement_error(monkeypatch):
    # an undeclared jump of V at r = 0.5 defeats every order up to the cap
    def fn(r):
        r = np.asarray(r, dtype=float)
        return 1.0 + r * r + np.where(r > 0.5, 1.0, 0.0)

    step = Potential(growth=2.0, radial_fn=fn)
    orders = _recorded_rule_orders(monkeypatch)
    with pytest.raises(RefinementError) as exc:
        scl.phase_space_counts(step, 4.0)
    assert max(orders) == 2 * numerics._RULE_CAP
    assert np.all(np.isfinite(exc.value.last_estimate))


def test_non_star_shaped_trap_is_refused():
    # a bump on the shell r = 0.5 cuts a hole out of {V <= 3}, seen from the origin
    def fn(r):
        r = np.asarray(r, dtype=float)
        return r * r + 10.0 * np.exp(-50.0 * (r - 0.5) ** 2)

    v = Potential(growth=2.0, radial_fn=fn)
    with pytest.raises(DomainError, match="nondecreasing along every ray"):
        scl.phase_space_counts(v, 3.0)
    with pytest.raises(DomainError):
        tf_solve(v)


def test_density_csv_columns(tmp_path, bare_solution):
    path = tmp_path / "tf.csv"
    write_density_csv(path, bare_solution, header_lines=["check"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# check"
    assert lines[1] == "r,rho,V,lagrange_residual"
    cells = np.array([[float(c) for c in ln.split(",")] for ln in lines[2:]])
    assert np.all(np.isfinite(cells))
    assert cells[0, 1] == pytest.approx((bare_solution.lambda_TF / KAPPA) ** 1.5)


# level integrals one level solve may take, the last one included
_LEVEL_SOLVE_BUDGET = 12


def _count_level_integrals(monkeypatch):
    calls = []
    level_integrals = thomas_fermi._level_integrals

    def counting(*args):
        calls.append(args)
        return level_integrals(*args)

    monkeypatch.setattr(thomas_fermi, "_level_integrals", counting)
    monkeypatch.setattr(scl, "_level_integrals", counting)
    return calls


def test_level_solves_take_few_level_integrals(monkeypatch):
    # upward doubling, then Newton steps from above: a slope field that is too
    # large creeps onto the root and overruns the budget (one that is too small
    # overshoots below the root, which the closed-form tests catch)
    calls = _count_level_integrals(monkeypatch)
    traps = [harmonic_trap(0.0), harmonic_trap(1.0), power_trap(3.0), power_trap(4.0), power_trap(6.0)]
    solves = [functools.partial(tf_solve, v) for v in traps]
    solves += [functools.partial(two_spin_minimize, harmonic_trap(0.0), g) for g in (0.2, 0.1, 0.05, 0.025)]
    solves += [functools.partial(scl.lambda_for_filling, harmonic_trap(1.0), t) for t in (0.5, 1.0, 2.0)]
    counts = []
    for solve in solves:
        calls.clear()
        solve()
        counts.append(len(calls))
    assert max(counts) <= _LEVEL_SOLVE_BUDGET, counts
