import math

import numpy as np
import pytest

from dilutefermi.potentials import Potential, harmonic_trap
from dilutefermi.semiclassics import (
    h2_probe,
    lambda_for_filling,
    phase_space_counts,
)
from dilutefermi.thomas_fermi import NormalizationError, tf_solve
from vlasov import vlasov_energy


def test_harmonic_counts_closed_form():
    v = harmonic_trap(0.0)
    b = phase_space_counts(v, 2.0)
    assert abs(b.n_cl - 1.0 / 6.0) < 1e-10
    assert abs(b.e_cl - 0.25) < 1e-10
    assert b.e_tilde == pytest.approx(b.e_cl - 2.0 * b.n_cl)


def test_counts_vanish_below_the_trap_bottom():
    v = harmonic_trap(1.0)
    b = phase_space_counts(v, 0.5)
    assert b.n_cl == 0.0 and b.e_cl == 0.0


def test_counts_monotone_and_shifted_energy_nonpositive():
    v = harmonic_trap(0.0)
    budgets = [phase_space_counts(v, lam) for lam in (1.0, 2.0, 3.0, 4.0)]
    ns = [b.n_cl for b in budgets]
    es = [b.e_cl for b in budgets]
    assert ns == sorted(ns) and es == sorted(es)
    assert all(b.e_tilde <= 0.0 for b in budgets)


def test_shifted_energy_variational_cross_check():
    # e_tilde(L) minimizes e - L n, so it lies below e(L') - L n(L') for any L'
    v = harmonic_trap(0.0)
    lam = 2.5
    ref = phase_space_counts(v, lam)
    for lam_p in (1.0, 2.0, 3.0, 4.0):
        other = phase_space_counts(v, lam_p)
        assert ref.e_tilde <= other.e_cl - lam * other.n_cl + 1e-12


def test_filling_levels():
    v = harmonic_trap(0.0)
    assert abs(lambda_for_filling(v, 1.0) - 48.0 ** (1.0 / 3.0)) < 1e-8
    assert abs(lambda_for_filling(v, 1.0 / 6.0) - 2.0) < 1e-8


def test_filling_target_must_be_positive():
    with pytest.raises(NormalizationError):
        lambda_for_filling(harmonic_trap(0.0), 0.0)


def test_count_at_minimizer_level_is_half():
    # the minimizer integrates to one, i.e. (1/(3 pi^2)) int (lam - V)^{3/2} = 1
    v = harmonic_trap(0.0)
    sol = tf_solve(v)
    assert abs(phase_space_counts(v, sol.lambda_TF).n_cl - 0.5) < 1e-6


def test_legendre_relation_module_level():
    v = harmonic_trap(0.0)
    grid = np.linspace(2.0, 5.0, 50)
    n = np.array([phase_space_counts(v, lam).n_cl for lam in grid])
    e = np.array([phase_space_counts(v, lam).e_cl for lam in grid])
    dn = (n[2:] - n[:-2]) / (grid[2:] - grid[:-2])
    de = (e[2:] - e[:-2]) / (grid[2:] - grid[:-2])
    mids = grid[1:-1]
    assert np.all(np.abs(de - mids * dn) <= 1e-3 * mids * np.abs(dn))


def test_h2_probe_smooth_trap():
    rep = h2_probe(harmonic_trap(0.0), np.arange(1.0, 5.01, 0.1))
    assert rep.score <= 0.02
    assert not rep.flagged
    # derivative of Lambda^3/48 is Lambda^2/16
    assert np.max(np.abs(rep.derivatives - rep.lambdas**2 / 16.0) / (rep.lambdas**2 / 16.0)) < 5e-3


def test_h2_probe_flags_plateau():
    # V = 2.728 + (r - 1.2)^3 has V(0) = 1 and a flat point V' = 0 at r = 1.2,
    # so n_cl(Lambda) bends sharply where Lambda crosses V(1.2) = 2.728
    flat = Potential(growth=3.0, radial_fn=lambda r: 2.728 + (r - 1.2) ** 3)
    grid = np.linspace(2.228, 3.228, 11)
    assert h2_probe(flat, grid).flagged
    # the same grid on a smooth trap is not flagged
    assert not h2_probe(harmonic_trap(1.0), grid).flagged


def test_h2_probe_below_bottom_is_flat():
    rep = h2_probe(harmonic_trap(1.0), np.linspace(0.05, 0.9, 9))
    assert np.all(rep.derivatives == 0.0)
    assert not rep.flagged


def test_h2_probe_needs_enough_points():
    with pytest.raises(ValueError):
        h2_probe(harmonic_trap(0.0), np.linspace(1.0, 2.0, 7))


def test_vlasov_bathtub_reaches_the_minimum():
    v = harmonic_trap(0.0)
    sol = tf_solve(v)
    r = np.linspace(0.0, 2.4, 513)
    p = np.linspace(0.0, 2.4, 513)
    m = 2.0 * ((r[:, None] ** 2 + p[None, :] ** 2) <= sol.lambda_TF)
    energy, mass = vlasov_energy(v, m, r, p)
    assert abs(mass - 1.0) < 2e-3
    assert energy >= sol.E_TF - 5e-3
    assert abs(energy / mass - sol.E_TF) < 5e-3


def test_vlasov_rejects_overfilled_occupations():
    v = harmonic_trap(0.0)
    r = np.linspace(0.0, 1.0, 17)
    p = np.linspace(0.0, 1.0, 17)
    with pytest.raises(ValueError):
        vlasov_energy(v, np.full((17, 17), 2.5), r, p)
