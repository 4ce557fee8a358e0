import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from dilutefermi import asymptotics
from dilutefermi.asymptotics import (
    DegenerateTilingError,
    RegimeError,
    ScalingContext,
    beta_l_window,
    box_estimate,
    error_budget,
    make_context,
    predict_energy,
)
from dilutefermi.potentials import harmonic_trap, power_trap
from dilutefermi.scattering import square_barrier
from dilutefermi.thomas_fermi import C_TF, tf_solve, two_spin_minimize

LAMBDA = 24.0 ** (1.0 / 3.0)
INTER_EXACT = (64.0 / 2835.0) * 24.0**1.5 / math.pi**3
A_W_EXACT = 1.0 - math.tanh(1.0)


@pytest.fixture(scope="module")
def bare():
    return tf_solve(harmonic_trap(0.0))


def test_context_validation():
    w = square_barrier(2.0)
    with pytest.raises(ValueError):
        ScalingContext(N=1, beta=0.4, a_w=0.2, R_w=1.0)
    with pytest.raises(RegimeError):
        ScalingContext(N=10, beta=0.3, a_w=0.2, R_w=1.0)
    ctx = make_context(1000, 0.4, w)
    assert ctx.hbar == pytest.approx(0.1)
    assert ctx.gap == pytest.approx(1000.0 ** (-0.4))
    assert ctx.coupling == pytest.approx(8.0 * math.pi * ctx.a_w * 1000.0 ** (1.0 / 3.0 - 0.4))


def test_prediction_against_independent_factors(bare):
    # every factor recomputed from its own closed form
    ctx = make_context(10**6, 0.40, square_barrier(2.0))
    pred = predict_energy(harmonic_trap(0.0), ctx, bare)
    main_oracle = 10**6 * 0.75 * LAMBDA
    corr_oracle = 2.0 * math.pi * A_W_EXACT * (10**6) ** (4.0 / 3.0 - 0.40) * INTER_EXACT
    assert abs(pred.main - main_oracle) / main_oracle < 1e-8
    assert abs(pred.correction - corr_oracle) / corr_oracle < 1e-5
    assert pred.total == pred.main + pred.correction
    assert abs(pred.correction - 5.105e4) / 5.105e4 < 1e-3


def test_prediction_zero_length_interaction(bare):
    ctx = make_context(10**4, 0.40, square_barrier(0.0))
    pred = predict_energy(harmonic_trap(0.0), ctx, bare)
    assert pred.correction == 0.0
    assert pred.total == pred.main


def test_prediction_monotone_in_beta(bare):
    w = square_barrier(2.0)
    c1 = predict_energy(harmonic_trap(0.0), make_context(10**5, 0.40, w), bare).correction
    c2 = predict_energy(harmonic_trap(0.0), make_context(10**5, 0.45, w), bare).correction
    assert c2 < c1


def test_perturbed_functional_consistency(bare):
    # the coupled minimizer agrees with the first-order expansion at the
    # physical coupling, improving as N grows
    w = square_barrier(2.0)
    ratios = []
    for N in (10**2, 10**3, 10**4):
        ctx = make_context(N, 0.40, w)
        st = two_spin_minimize(harmonic_trap(0.0), ctx.coupling)
        first_order = bare.E_TF + ctx.coupling / 4.0 * bare.interaction_integral
        scale = float(N) ** (1.0 / 3.0 - 0.40)
        ratios.append(abs(st.energy - first_order) / scale)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_window_exponents_and_feasibility():
    win = beta_l_window(0.40, 10**6)
    assert win.e_hi == pytest.approx(1.0 / 3.0 - 0.40)
    assert win.e_lo1 == pytest.approx(-27.0 / 21.0 * (1.0 - 1.2) - 0.40)
    assert win.e_lo2 == pytest.approx(0.40 / 3.0 - 4.0 / 9.0)
    assert win.feasible
    assert win.chosen_l == pytest.approx((10.0**6) ** ((win.e_hi + max(win.e_lo1, win.e_lo2)) / 2.0))


def test_window_boundary_exact_rational():
    at = beta_l_window(Fraction(34, 81), 10**4)
    assert not at.feasible
    assert at.e_hi == at.e_lo1  # exact tie at the threshold
    below = beta_l_window(Fraction(34, 81) - Fraction(1, 10**9), 10**4)
    assert below.feasible


def test_window_above_threshold_keeps_lower_regime():
    win = beta_l_window(0.45, 10**6)
    assert not win.feasible
    assert win.lower_bound_regime
    assert win.chosen_l is None


def test_lower_regime_flips_at_half():
    assert not beta_l_window(Fraction(1, 2), 100).lower_bound_regime
    assert beta_l_window(Fraction(1, 2) - Fraction(1, 10**9), 100).lower_bound_regime


def test_second_exponent_crossing_at_seven_twelfths():
    at = beta_l_window(Fraction(7, 12), 100)
    assert at.e_hi == at.e_lo2


def test_single_box_degenerate_formula(bare):
    # one box over the whole support with M = N/2: box_estimate's per-box
    # terms times N^(2 beta - 2/3) equal the direct homogeneous-formula evaluation
    N, beta = 10**6, 0.40
    l = 2.0 * bare.support_radius
    L = float(N) ** beta * l
    M = N / 2.0
    a_w = A_W_EXACT
    n_power = float(N) ** (2.0 * beta - 2.0 / 3.0)
    direct = n_power * (2.0 * C_TF * M ** (5.0 / 3.0) / L**2 + 8.0 * math.pi * a_w * M**2 / L**3)
    summed = n_power * float(np.sum(asymptotics._box_terms([M], L, a_w)))
    assert summed == pytest.approx(direct, rel=1e-14)
    # at average density rho = 1/l^3 the kinetic part is the bulk term
    # N * 2^(-2/3) c_tf rho^(2/3) of the trapped functional
    bulk = float(N) * 2.0 ** (-2.0 / 3.0) * C_TF * (1.0 / l**3) ** (2.0 / 3.0)
    kinetic_only = n_power * float(np.sum(asymptotics._box_terms([M], L, 0.0)))
    assert kinetic_only == pytest.approx(bulk, rel=1e-12)


def test_box_estimate_headline(bare):
    ctx = make_context(10**6, 0.40, square_barrier(2.0))
    l = beta_l_window(0.40, 10**6).chosen_l
    est = box_estimate(harmonic_trap(0.0), ctx, l, bare)
    assert 0.9 <= est.ratio <= 1.3
    assert est.mass_sum_doubled >= 10**6
    assert np.all(est.masses >= 0)
    finer = box_estimate(harmonic_trap(0.0), ctx, l / 2.0, bare)
    assert finer.rho53_defect < est.rho53_defect
    assert finer.rho2_defect < est.rho2_defect


def _box_cells_brute_force(v, ctx, l, tf):
    """Every near cell of the dense lattice integrated on its own, and the trap
    evaluated at all eight corners and the center of every box."""
    R = tf.support_radius
    pitch = l + ctx.gap
    n_side = int(math.ceil(2.0 * R / pitch))
    ax = -0.5 * n_side * pitch + 0.5 * pitch + pitch * np.arange(n_side)
    cx, cy, cz = np.meshgrid(ax, ax, ax, indexing="ij")
    centers = np.stack([cx, cy, cz], axis=-1).reshape(-1, 3)
    centers = centers[np.sqrt(np.sum(centers**2, axis=-1)) <= R + pitch]
    # tensor 5-point Gauss on the (cells, 125, 3) node coordinates, in the
    # 8192-row blocks of _cell_masses (_MASS_OPERAND_ROWS), whose gemv rounds by row count
    offs = 0.5 * pitch * asymptotics._GL5_X
    wts = 0.5 * pitch * asymptotics._GL5_W
    nodes = np.stack(np.meshgrid(offs, offs, offs, indexing="ij"), axis=-1).reshape(-1, 3)
    ww = (wts[:, None, None] * wts[None, :, None] * wts[None, None, :]).ravel()
    masses = np.empty(len(centers))
    for i in range(0, len(centers), 8192):
        radii = np.sqrt(np.sum((centers[i : i + 8192, None, :] + nodes) ** 2, axis=-1))
        masses[i : i + 8192] = tf.rho_fn(radii.ravel()).reshape(radii.shape) @ ww
    M = np.ceil(ctx.N / 2.0 * masses).astype(np.int64)
    Mf = M.astype(float)
    L = float(ctx.N) ** ctx.beta * l
    kin = float(ctx.N) ** (2.0 * ctx.beta - 2.0 / 3.0) * (
        2.0 * C_TF * Mf ** (5.0 / 3.0) / L**2 + 8.0 * math.pi * ctx.a_w * Mf**2 / L**3
    )
    half_l = 0.5 * l
    corners = np.array(
        [[sx * half_l, sy * half_l, sz * half_l] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        + [[0.0, 0.0, 0.0]]
    )
    radii = np.sqrt(np.sum((centers[:, None, :] + corners[None, :, :]) ** 2, axis=-1))
    pot = 2.0 * Mf * np.max(v.radial_fn(radii.ravel()).reshape(radii.shape), axis=1)
    return n_side, pitch, centers, masses, M, kin, pot


def _orbit_keys(centers, pitch):
    # a center sits at (i + 1/2 - n/2) pitch, so 2|c|/pitch is an integer;
    # sorting the three makes the key invariant under the cube's 48 symmetries
    return [tuple(k) for k in np.rint(np.sort(np.abs(centers), axis=1) * 2.0 / pitch).astype(int)]


def test_box_orbit_fold_matches_brute_force(monkeypatch):
    ctx = make_context(10**6, 0.40, square_barrier(2.0))
    l0 = beta_l_window(0.40, 10**6).chosen_l
    folded_calls = []
    cell_masses = asymptotics._cell_masses

    def recording(rho_fn, centers, pitch, **kwargs):
        out = cell_masses(rho_fn, centers, pitch, **kwargs)
        folded_calls.append((centers, out))
        return out

    monkeypatch.setattr(asymptotics, "_cell_masses", recording)
    # box_estimate evaluates V once, at each box's farthest corner, where the
    # oracle takes the largest of nine evaluations; the two agree only while V
    # is nondecreasing in the radius as computed, r**s of the power traps too
    for v in (harmonic_trap(0.0), harmonic_trap(1.0), power_trap(3), power_trap(4)):
        tf = tf_solve(v)
        parities = set()
        for f in (1, 2, 3):
            n_side, pitch, centers, masses, M, kin, pot = _box_cells_brute_force(v, ctx, l0 / f, tf)
            assert np.array_equal(cell_masses(tf.rho_fn, centers, pitch), masses)
            folded_calls.clear()
            est = box_estimate(v, ctx, l0 / f, tf)
            parities.add(n_side % 2)
            assert np.array_equal(est.centers, centers)
            assert np.array_equal(est.masses, M)
            assert np.array_equal(est.kin_per_box, kin)
            assert np.array_equal(est.pot_per_box, pot)
            assert est.prediction_total == predict_energy(v, ctx, tf).total
            # one integration per orbit, within 1e-14 of every cell it stands for,
            # relative to the largest mass: the brute-force masses of mirror cells
            # differ among themselves by up to 1e-12 relative in thin edge cells
            (rep_centers, rep_masses), = folded_calls
            keys = _orbit_keys(centers, pitch)
            rep_mass = dict(zip(_orbit_keys(rep_centers, pitch), rep_masses))
            assert len(rep_mass) == len(rep_masses) == len(set(keys))
            folded = np.array([rep_mass[k] for k in keys])
            assert np.max(np.abs(folded - masses) / masses.max()) <= 1e-14
            # M_i is constant on every orbit
            by_orbit = {}
            for k, m in zip(keys, est.masses):
                by_orbit.setdefault(k, set()).add(int(m))
            assert all(len(ms) == 1 for ms in by_orbit.values())
        assert parities == {0, 1}


def test_box_estimate_memory_budget(bare):
    # NumPy reports its data buffers to tracemalloc, so the peak repeats to a
    # few kB.  The estimator holds its 48 bytes of outputs per near cell and
    # one 8-byte working array: l0/4 (92,295 near cells) peaks at 6.05 MiB,
    # l0/8 (584,472) at 31.3 MiB.  np.unique's orbit sort, int64 index
    # arrays and whole-array corner temporaries peaked at 18.8 and 80.5 MiB
    ctx = make_context(10**6, 0.40, square_barrier(2.0))
    l0 = beta_l_window(0.40, 10**6).chosen_l
    for divisor, budget_mib in ((4, 6.9), (8, 36)):
        tracemalloc.start()
        try:
            box_estimate(harmonic_trap(0.0), ctx, l0 / divisor, bare)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget_mib * 2**20, (divisor, peak)


def test_box_gap_ratio_small_at_large_N(bare):
    ctx = make_context(10**8, 0.40, square_barrier(2.0))
    win = beta_l_window(0.40, 10**8)
    assert ctx.gap / win.chosen_l <= 1e-2


def test_box_degenerate_tiling_error(bare):
    ctx = make_context(10**6, 0.40, square_barrier(2.0))
    with pytest.raises(DegenerateTilingError):
        box_estimate(harmonic_trap(0.0), ctx, 10.0, bare)


def test_box_lattice_past_the_cell_cap_is_refused(bare, monkeypatch):
    # 257^3 cells is just past 2^24 = 256^3; the lattice axis, the first
    # array built after the cap check, fails at once, so a missing cap costs
    # no memory
    ctx = make_context(10**6, 0.40, square_barrier(2.0))
    no_axis = {**vars(np), "arange": lambda *args, **kwargs: pytest.fail("lattice built")}
    monkeypatch.setattr(asymptotics, "np", SimpleNamespace(**no_axis))
    l = 2.0 * bare.support_radius / 256.5 - ctx.gap
    with pytest.raises(DegenerateTilingError, match=r"257\^3 lattice"):
        box_estimate(harmonic_trap(0.0), ctx, l, bare)


def test_budget_ratio_strictly_decreasing():
    for beta in (0.40, 0.45, 0.49):
        ratios = [error_budget(N, beta).ratio for N in (10**4, 10**6, 10**8)]
        assert all(b < a for a, b in zip(ratios, ratios[1:])), (beta, ratios)


def test_budget_bulk_term_subcritical_at_large_beta():
    # N^(5/6) stays below the target order whenever beta < 1/2
    vals = [
        error_budget(N, 0.49).bulk_term / float(N) ** (4.0 / 3.0 - 0.49)
        for N in (10**4, 10**6, 10**8)
    ]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_budget_epsilon_bookkeeping():
    b = error_budget(10**4, 0.45)
    parts = (b.bulk_term, b.cutoff_term, b.softening_term, b.remainder_term)
    assert all(x >= 0.0 for x in parts)
    assert b.total == pytest.approx(sum(parts))
    assert b.delta == b.epsilon
    assert b.s**2 == pytest.approx(b.epsilon**2 * (10.0**4) ** (1.0 / 3.0 - 0.45))
    assert b.p_F**-2 == pytest.approx(b.epsilon * (10.0**4) ** (1.0 / 3.0 - 0.45))
    assert b.R == pytest.approx(b.epsilon * (10.0**4) ** (-1.0 / 3.0))


def test_budget_default_epsilon_in_corridor():
    for N in (10**4, 10**8):
        for beta in (0.40, 0.49):
            b = error_budget(N, beta)
            A = float(N) ** (-1.0 / 18.0) + float(N) ** (1.0 / 6.0 - beta / 2.0)
            assert b.epsilon == pytest.approx(A ** (1.0 / 8.0))
            assert b.epsilon > A ** 0.25 or A >= 1.0


def test_budget_regime_errors():
    with pytest.raises(RegimeError):
        error_budget(10**4, 0.30)
    with pytest.raises(RegimeError):
        error_budget(10**4, 0.55)
