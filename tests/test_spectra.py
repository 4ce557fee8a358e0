import dataclasses
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dilutefermi import cli, numerics, spectra
from dilutefermi.cli import DEFAULT_CONFIG, cmd_husimi
from dilutefermi.numerics import RadialProfile, Tolerance, integrate_radial, lp_distance
from dilutefermi.potentials import harmonic_trap
from dilutefermi.semiclassics import phase_space_counts
from dilutefermi.spectra import (
    DepthError,
    DomainTooSmallError,
    ResolutionError,
    TruncationError,
    coherent_identity_check_1d,
    dvr_catalog_1d,
    free_ground_state_density,
    free_ground_state_density_fn,
    harmonic_catalog,
    hermite_functions,
    spectral_counts,
    weyl_error_scan,
)
from dilutefermi.thomas_fermi import DomainError, tf_solve


def test_harmonic_catalog_shells():
    cat = harmonic_catalog(1.0, 7.5)
    assert list(cat.energies) == [3.0, 5.0, 7.0]
    assert list(cat.degeneracies) == [1, 3, 6]


def test_harmonic_catalog_offset_shift():
    cat = harmonic_catalog(1.0, 8.5, offset=1.0)
    assert list(cat.energies) == [4.0, 6.0, 8.0]


def test_harmonic_shell_cap():
    cap = spectra.MAX_SHELLS
    assert spectra.harmonic_shell_count(1.0, 7.5) == 3
    assert spectra.harmonic_shell_count(1.0, 2.5) == 0
    assert spectra.harmonic_shell_count(1.0, 2.0 * cap + 1.0) == cap
    with pytest.raises(ValueError, match="shells"):
        spectra.harmonic_shell_count(1.0, 2.0 * cap + 3.0)
    # checked on the float count, before any array is allocated
    for hbar in (1e-9, 1e-320, math.nan):
        with pytest.raises(ValueError, match="shells"):
            harmonic_catalog(hbar, 12.0)


def test_spectral_counts_shell_sums():
    cat = harmonic_catalog(1.0, 7.5)
    assert spectral_counts(cat, 5.0) == (4, 18.0)
    assert spectral_counts(cat, 7.0) == (10, 60.0)  # boundary level included
    assert spectral_counts(cat, 2.0) == (0, 0.0)
    with pytest.raises(TruncationError):
        spectral_counts(cat, 8.0)


def test_counts_match_closed_shell_sum():
    hbar = 0.1
    lam = 3.0
    cat = harmonic_catalog(hbar, lam + 1e-12)
    n_direct = sum(
        (n + 1) * (n + 2) // 2
        for n in range(0, 1000)
        if hbar * (2 * n + 3) <= lam
    )
    assert spectral_counts(cat, lam)[0] == n_direct


def test_fd_eigenvalues_monotone_in_potential():
    base = dvr_catalog_1d(lambda x: x * x, 1.0, 8.0, 500, 10.0).energies
    raised = dvr_catalog_1d(lambda x: x * x + 0.3 * np.exp(-(x**2)), 1.0, 8.0, 500, 10.0).energies
    k = min(base.size, raised.size)
    assert np.all(raised[:k] >= base[:k] - 1e-12)


def test_fd_domain_margin_guard():
    # the allowed region |x + 1.2| <= sqrt(2) reaches x = -2.61, past 3 / 1.2,
    # on the left for one trap and on the right for its mirror image
    for shift in (1.2, -1.2):
        with pytest.raises(DomainTooSmallError, match=r"\|x\| <= 2\.61"):
            dvr_catalog_1d(lambda x: (x + shift) ** 2, 1.0, 3.0, 500, 2.0)


@pytest.mark.parametrize("hbar", [0.05, 0.025, 0.0125, 0.00625])
def test_dvr_oscillator_levels_meet_the_closed_form(hbar):
    # a 1001-point finite-difference grid misses these levels by 8.8e-4 at hbar = 0.05
    cat = dvr_catalog_1d(lambda x: x * x, hbar, 4.0, 1001, 21.0 * hbar + 0.01)
    exact = hbar * (2.0 * np.arange(11) + 1.0)
    assert cat.energies.size == 11
    assert np.max(np.abs(cat.energies - exact) / exact) <= 1e-13
    assert cat.sturm_certified and cat.convergence_estimate <= 1e-12
    assert cat.momentum_margin >= spectra._DVR_MARGIN
    assert cat.boundary_mass <= spectra.MAX_BOUNDARY_MASS
    # the solve grid follows the momentum certificate, not the sampling
    # points, and it agrees with the coarser grid before it, so it is kept
    nodes = {0.05: 131, 0.025: 186, 0.0125: 265, 0.00625: 382}[hbar]
    assert cat.solve_nodes == nodes < cat.grid.size == 1001


def test_dvr_vectors_are_orthonormal_oscillator_states():
    cat = dvr_catalog_1d(lambda x: x * x, 0.025, 4.0, 1001, 21.0 * 0.025 + 0.01)
    x, psi = cat.grid, cat.vectors
    h = x[1] - x[0]
    # 2.1e-15; unrenormalized on the sampling grid they read 3.1e-14
    assert np.max(np.abs(h * psi.T @ psi - np.eye(11))) <= 1e-14
    # sinc interpolation is exact for the band-limited DVR states, so each
    # matches its Hermite function on the sampling grid up to its sign
    exact = hermite_functions(10, x / math.sqrt(0.025)).T / 0.025**0.25
    signs = np.sign(np.sum(psi * exact, axis=0))
    assert np.max(np.abs(psi * signs - exact)) <= 1e-10


def test_dvr_husimi_identities_meet_their_closed_forms():
    for hbar in (0.05, 0.025):
        cat = dvr_catalog_1d(lambda x: x * x, hbar, 4.0, 1001, 21.0 * hbar + 0.01)
        rep = coherent_identity_check_1d(cat, 10)
        assert rep.resolution_residual <= 1e-13
        assert rep.kinetic_identity_residual <= 1e-13 * rep.kinetic_reference
        closed = rep.fill * rep.hbar_x / 2.0
        assert abs(rep.potential_identity_residual - closed) <= 1e-12 * closed
        assert 0.0 <= rep.m_min and rep.m_max <= 1.0


def test_dvr_domain_guards():
    # the allowed region |x| <= 3.46 misses the 20% margin
    with pytest.raises(DomainTooSmallError, match="20% margin"):
        dvr_catalog_1d(lambda x: x * x, 1.0, 3.5, 500, 12.0)
    # the margin holds (turning point 1.87), but the levels leak past |x| = 2.3
    with pytest.raises(DomainTooSmallError, match="boundary mass"):
        dvr_catalog_1d(lambda x: x * x, 1.0, 2.3, 500, 3.5)
    with pytest.raises(TruncationError):
        dvr_catalog_1d(lambda x: x * x + 1.0, 0.05, 4.0, 1001, 1.0)


@pytest.mark.parametrize("halfwidth, fill, nodes", [(4.1, 3, 24), (4.0, 2, 25)])
def test_dvr_settles_a_marginal_domain(halfwidth, fill, nodes):
    # the domain only just passes the end-mass check, so the levels move with
    # the end nodes by far more than 1e-12 (lambda_max - min v); the settle
    # tolerance follows the end mass, else the refinement chases the ends,
    # to 568 and 194 nodes
    hbar = 0.5
    cat = dvr_catalog_1d(lambda x: x * x, hbar, halfwidth, 1001, hbar * (2 * fill + 1) + 0.01)
    exact = hbar * (2.0 * np.arange(fill + 1) + 1.0)
    assert cat.solve_nodes == nodes <= 40
    assert cat.boundary_mass > spectra._DVR_SETTLED
    assert np.max(np.abs(cat.energies - exact)) <= cat.boundary_mass * cat.lambda_max


@pytest.mark.parametrize(
    "hbar, halfwidth", [(1e-9, 4.0), (0.05, 792.0), (0.05, 1e300), (0.05, 1e308)]
)
def test_dvr_grid_past_the_cap_is_refused_before_it_is_built(monkeypatch, hbar, halfwidth):
    monkeypatch.setattr(spectra, "_parity_block", lambda *a: pytest.fail("grid built"))
    with pytest.raises(ResolutionError, match="sinc-DVR grid"):
        dvr_catalog_1d(lambda x: x * x, hbar, halfwidth, 1001, 1.06)


def test_dvr_count_certificate_catches_a_coarse_grid(monkeypatch):
    quartic = lambda x: x**4
    settled = dvr_catalog_1d(quartic, 0.05, 3.0, 1001, 2.0)
    # the probes of 56, 70 and 87 nodes (momentum margins 1.06, 1.31, 1.63)
    # find all 19 levels, but each moves them by 3.3e-3 and 1.4e-7 of the
    # range from the grid before it; 108 (margin 2.02) agrees with 87, so the
    # count certificate keeps 108
    assert settled.solve_nodes == 108
    # with the vector walk at a momentum margin of 1 no probe lies below
    # n_0, and the grids of 44, 54, 68 and 85 nodes disagree pairwise; the
    # ladder refines until two agree
    monkeypatch.setattr(spectra, "_DVR_MARGIN", 1.0)
    refined = dvr_catalog_1d(quartic, 0.05, 3.0, 1001, 2.0)
    assert refined.solve_nodes == 107 and refined.energies.size == settled.energies.size == 19
    assert np.max(np.abs(refined.energies - settled.energies)) <= 2e-12
    # a refinement that would pass the cap is refused
    monkeypatch.setattr(spectra, "MAX_DVR_NODES", 68)
    with pytest.raises(ResolutionError, match="disagree"):
        dvr_catalog_1d(quartic, 0.05, 3.0, 1001, 2.0)


@pytest.mark.parametrize("hbar", [0.05, 0.025])
@pytest.mark.parametrize("fill", [1, 2])
def test_dvr_refines_a_catalog_of_few_levels(hbar, fill):
    # the momentum rule alone gave 50 nodes at hbar = 0.05, fill 1, which
    # missed hbar by 2.6e-7; the ladder refines it to 99
    cat = dvr_catalog_1d(lambda x: x * x, hbar, 4.0, 1001, hbar * (2 * fill + 1) + 0.01)
    exact = hbar * (2.0 * np.arange(fill + 1) + 1.0)
    assert cat.energies.size == fill + 1
    assert np.max(np.abs(cat.energies - exact) / exact) <= 1e-12
    assert cat.convergence_estimate <= spectra._DVR_SETTLED * cat.lambda_max


@pytest.mark.parametrize("n, hbar", [(27, 0.5), (28, 0.5), (135, 0.05), (136, 0.05)])
@pytest.mark.parametrize("q", [2, 4])
def test_parity_blocks_hold_the_full_spectrum(q, n, hbar):
    # odd n puts the centre node in the even block, coupled by sqrt(2) t(i);
    # even n couples the mirrored nodes through t(i + j - 1).  The oracle is
    # the full Colbert-Miller matrix on the nodes -3 + i h, i = 1..n
    v = lambda x: x**q
    h = 6.0 / (n + 1)
    H = spectra._toeplitz(spectra._kinetic_band(n), n) * (hbar / h) ** 2
    H += np.diag(v(-3.0 + h * np.arange(1, n + 1)))
    w, c = np.linalg.eigh(H)
    parts = [np.linalg.eigh(spectra._parity_block(v, hbar, 3.0, n, s)) for s in (1.0, -1.0)]
    w_fold = np.concatenate([p[0] for p in parts])
    order = np.argsort(w_fold)
    assert np.max(np.abs(w_fold[order] - w)) <= 1e-13 * np.max(np.abs(w))
    # a unit block vector's last component^2 is the full vector's c_0^2 + c_{n-1}^2
    ends_fold = np.concatenate([p[1][-1] ** 2 for p in parts])[order]
    assert np.max(np.abs(ends_fold - (c[0] ** 2 + c[-1] ** 2))) <= 1e-13
    # and the unfolded block vectors are the full matrix's, up to sign, on the
    # levels a catalog of lambda_max = 2 keeps; high in the x^4 spectrum the
    # states sit at both ends in near-degenerate pairs, whose vectors rounding
    # fixes only to eps ||H|| / gap
    kept = w <= 2.0
    unfolded = spectra._unfolded_vectors(parts, n)[:, kept]
    signs = np.sign(np.sum(unfolded * c[:, kept], axis=0))
    assert np.max(np.abs(unfolded * signs - c[:, kept])) <= 1e-12


def _exact_slope(Ns, errs):
    """Least-squares slope of the float points (log10 N, log10 err), err > 0,
    in exact rational arithmetic, then rounded once."""
    pts = [(Fraction(math.log10(n)), Fraction(math.log10(e))) for n, e in zip(Ns, errs) if e > 0]
    x_bar = sum(x for x, _ in pts) / len(pts)
    y_bar = sum(y for _, y in pts) / len(pts)
    sxy = sum((x - x_bar) * (y - y_bar) for x, y in pts)
    return float(sxy / sum((x - x_bar) ** 2 for x, _ in pts))


def test_weyl_exponents_of_the_default_scan_are_exact_slopes():
    # the harmonic scan weyl_scan.csv prints; np.polyfit read 0.7978858510004925
    # and 0.801794746330192, one and two ulp off the exact slopes
    spec = DEFAULT_CONFIG["spectra"]
    scan = weyl_error_scan({"kind": "harmonic", "offset": spec["offset"]},
                           DEFAULT_CONFIG["sweeps"]["N"], cli._scan_lambda(spec))
    assert scan.n_exponent == _exact_slope(scan.N, scan.n_err) == 0.7978858510004927
    assert scan.e_exponent == _exact_slope(scan.N, scan.e_err) == 0.8017947463301922


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.integers(1, 10**12), st.floats(1e-300, 1e300)), min_size=2, max_size=8,
        unique_by=lambda p: p[0],
    )
)
def test_fit_exponent_meets_the_exact_slope(points):
    # centred sums in math.fsum: each product (x - x_bar)(y - y_bar)
    # carries a few roundings of its own size, the quotient a few of the
    # slope's, and the rounded means e_x, e_y (a few u |x_bar|, u |y_bar|)
    # cancel to first order, leaving u^2 terms: e_y sum |dx|, e_x sum |dy|
    # and k e_x e_y
    u = 2.0**-53
    Ns, errs = zip(*sorted(points))
    xs = [math.log10(n) for n in Ns]
    ys = [math.log10(e) for e in errs]
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - x_bar) ** 2 for x in xs)
    spread = sum(abs((x - x_bar) * (y - y_bar)) for x, y in zip(xs, ys)) / sxx
    means = (
        abs(y_bar) * sum(abs(x - x_bar) for x in xs)
        + abs(x_bar) * sum(abs(y - y_bar) for y in ys)
        + len(xs) * abs(x_bar * y_bar)
    ) / sxx
    exact = _exact_slope(Ns, errs)
    got = numerics._loglog_slope(Ns, errs)
    assert abs(got - exact) <= 4 * u * (spread + abs(exact)) + 16 * u * u * means
    # a zero error drops its point, and fewer than two points fit nothing
    dropped = numerics._loglog_slope(Ns, (0.0,) + errs[1:])
    assert dropped == (numerics._loglog_slope(Ns[1:], errs[1:]) if len(Ns) > 2 else math.inf)


def test_weyl_scan_harmonic_exponents():
    lam = 48.0 ** (1.0 / 3.0)
    scan = weyl_error_scan({"kind": "harmonic"}, [10**3, 10**4, 10**5, 10**6], lam)
    bound = 8.0 / 9.0 + 0.05
    assert scan.n_exponent <= bound
    assert scan.e_exponent <= bound
    span = weyl_error_scan({"kind": "harmonic"}, [10**3, 10**4, 10**6], lam)
    assert all(b < a for a, b in zip(span.n_err_over_N, span.n_err_over_N[1:]))
    assert all(b < a for a, b in zip(span.e_err_over_N, span.e_err_over_N[1:]))


def test_weyl_single_particle_sanity_row():
    # N = 1, hbar = 1: the error is the raw quantum-classical gap
    lam = 48.0 ** (1.0 / 3.0)
    budget = phase_space_counts(harmonic_trap(0.0), lam)
    cat = harmonic_catalog(1.0, lam + 1e-12)
    n_q, e_q = spectral_counts(cat, lam)
    assert abs(n_q - budget.n_cl) == pytest.approx(abs(1 - budget.n_cl))
    assert n_q == 1 and e_q == 3.0


def test_weyl_scan_validation():
    with pytest.raises(ValueError):
        weyl_error_scan({"kind": "harmonic"}, [100, 200], 2.0)  # less than two decades
    with pytest.raises(ValueError):
        weyl_error_scan({"kind": "harmonic"}, [100], 2.0)


# e_q of the quartic scan at N = 2, 20, 200: sinc-DVR levels converged to
# 1e-13 relative on 600, 800 and 1200 nodes (finite differences on 10^4
# points gave 1.928705996623379, 16.621805104284384, 159.96863816593995)
QUARTIC_E_Q = [1.92870621563, 16.6219534128, 160.108227346571]


def test_weyl_scan_fd_1d():
    # hbar = 1/N in one dimension; an anharmonic trap carries genuine
    # counting corrections (the oscillator alone is Weyl-exact).  The solve
    # grid follows hbar, so the unread points key changes nothing
    scans = [
        weyl_error_scan(
            {"kind": "fd_1d", "v": lambda x: x**4, "halfwidth": 3.0, "points": points},
            [2, 20, 200],
            2.0,
        )
        for points in (1000, 20000)
    ]
    assert scans[0] == scans[1]
    scan = scans[0]
    assert scan.n_q == [2, 19, 187]
    assert np.max(np.abs(np.array(scan.e_q) - QUARTIC_E_Q)) <= 1e-9
    assert scan.n_err_over_N[-1] < scan.n_err_over_N[0]
    assert scan.e_err_over_N[-1] < scan.e_err_over_N[0]
    assert -0.02 < scan.e_exponent < 0.0  # finite differences read 0.071


@pytest.fixture
def dense_solves(monkeypatch):
    """(solver, rows) of every np.linalg.eigh and eigvalsh call made in spectra.

    Calls from elsewhere, such as the Gauss rules that NumPy's leggauss
    builds for the classical counts, are not recorded.
    """
    calls = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)

        def recorder(a, *args, _solve=solve, _name=name, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == spectra.__name__:
                calls.append((_name, a.shape[0]))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorder)
    return calls


@pytest.fixture
def block_solves(monkeypatch, dense_solves):
    """(n, sign, solver) of every sinc-DVR parity block built and solved."""
    built = []
    block = spectra._parity_block

    def recorder(v, hbar, halfwidth, n, sign):
        built.append((n, sign))
        return block(v, hbar, halfwidth, n, sign)

    monkeypatch.setattr(spectra, "_parity_block", recorder)

    def solves():
        # each block is solved once, right after it is built
        assert [rows for _, rows in dense_solves] == [
            n - n // 2 if sign > 0 else n // 2 for n, sign in built
        ]
        return [(n, sign, solver) for (n, sign), (solver, _) in zip(built, dense_solves)]

    return solves


def _ladder(probes, *kept):
    """The block solves of a ladder: levels alone on each probe grid, the
    last of them n_0, then levels and vectors on each grid kept for a try:
    a probe that settled, or n_1 and the grids above it."""
    return [(n, s, "eigvalsh") for n in probes for s in (1.0, -1.0)] + [
        (n, s, "eigh") for n in kept for s in (1.0, -1.0)
    ]


def test_weyl_scan_fd_1d_work_budget(block_solves):
    weyl_error_scan({"kind": "fd_1d", "v": lambda x: x**4, "halfwidth": 3.0}, [2, 20, 200], 2.0)
    # N = 2: no probe pair of 5 to 11 nodes agrees, and the vector walk
    # refines past the momentum rule's 13 nodes to 35.  N = 20 and 200 settle
    # on probes, 108 and 864 nodes (the momentum rule's 135 and 1350 were
    # kept before the probes), so no block has more than 432 rows.  No grid
    # is solved twice, apart from a settled probe's re-solve with vectors
    assert block_solves() == (
        _ladder([5, 6, 7, 8, 9, 11], 13, 17, 22, 28, 35)
        + _ladder([56, 70, 87, 108], 108)
        + _ladder([554, 692, 864], 864)
    )


def test_dvr_catalog_work_budget(block_solves):
    # no probe pair agrees, so the vector walk starts from n_0 = 105 as it
    # did without the probes, and keeps n_1 = 131
    dvr_catalog_1d(lambda x: x * x, 0.05, 4.0, 1001, 21.0 * 0.05 + 0.01)
    assert block_solves() == _ladder([55, 68, 84, 105], 131)


# criterion 15's four x^2 rungs: (hbar, solve nodes, convergence_estimate),
# the grids and bits of the vector walk before the probes, with one BLAS
# thread (the thread count of ``bench/run.py``); OpenBLAS splits the
# eigensolver's work by thread count, so with two threads the 382-node
# rung's estimate reads 2.8657631823136853e-15 before and after the probes
HUSIMI_RUNGS = [
    (0.05, 131, 3.7192471324942744e-15),
    (0.025, 186, 2.7200464103316335e-15),
    (0.0125, 265, 1.8318679906315083e-15),
    (0.00625, 382, 2.5396351688300456e-15),
]

_RUNGS_SCRIPT = """
from dilutefermi.spectra import dvr_catalog_1d
for hbar in (0.05, 0.025, 0.0125, 0.00625):
    cat = dvr_catalog_1d(lambda x: x * x, hbar, 4.0, 1001, 21.0 * hbar + 0.01)
    print(cat.solve_nodes, cat.convergence_estimate.hex())
"""


@functools.cache
def _single_thread_rungs():
    """(solve nodes, convergence_estimate) of each Husimi rung, from a child
    process held to one BLAS thread."""
    one = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    src = str(Path(spectra.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _RUNGS_SCRIPT],
        env={**os.environ, **one, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.split("\n") if line]
    return {hbar: (int(n), float.fromhex(e)) for (hbar, _, _), (n, e) in zip(HUSIMI_RUNGS, rows)}


@pytest.mark.parametrize("hbar, nodes, estimate", HUSIMI_RUNGS)
def test_husimi_rungs_keep_their_grids(hbar, nodes, estimate):
    # no probe pair below n_0 agrees on the oscillator levels (the closest,
    # 245 and 306 nodes at hbar = 0.00625, differ by 1.6e-12 of the range),
    # so the catalog keeps the vector walk's grid and its estimate, bit for
    # bit, at this process's thread count and at the pinned one
    v = lambda x: x * x
    cat = dvr_catalog_1d(v, hbar, 4.0, 1001, 21.0 * hbar + 0.01)
    n_ref, _, _, change_ref = _vector_walk(v, hbar, 4.0, 21.0 * hbar + 0.01)
    assert cat.solve_nodes == n_ref == nodes
    assert cat.convergence_estimate == change_ref
    assert _single_thread_rungs()[hbar] == (nodes, estimate)


def test_dvr_leaky_probe_falls_through_to_the_vector_walk(monkeypatch, block_solves):
    # the quartic catalog at hbar = 0.05 settles on its 108-node probe; if
    # that probe's vectors leaked past MAX_BOUNDARY_MASS, it is passed over
    # without an error, and the vector walk keeps n_1 = 135 as it did
    # before the probes, with the same levels
    eigenpairs = spectra._dvr_eigenpairs

    def leaky_below_n_1(v, hbar, halfwidth, n, lambda_max):
        w, blocks, mass = eigenpairs(v, hbar, halfwidth, n, lambda_max)
        return w, blocks, (1e-6 if n < 135 else mass)

    monkeypatch.setattr(spectra, "_dvr_eigenpairs", leaky_below_n_1)
    cat = dvr_catalog_1d(lambda x: x**4, 0.05, 3.0, 1001, 2.0 + 1e-12)
    assert block_solves() == _ladder([56, 70, 87, 108], 108, 135)
    assert cat.solve_nodes == 135 and cat.boundary_mass <= spectra.MAX_BOUNDARY_MASS
    assert float(np.sum(cat.energies)) == 16.62195341284722  # e_q at N = 20 before the probes


def _vector_walk(v, hbar, halfwidth, lambda_max):
    """Reference: the ladder without probes.  n_0 is solved for its levels,
    then n_1 = the grid of momentum margin ``_DVR_MARGIN`` and the grids
    ceil(1.25 n) above it with their vectors, until one finds as many
    levels as the grid before it, none moved by more than
    max(1e-12, end mass) (lambda_max - min v).  Returns the kept grid's
    nodes, levels, end mass and largest level change."""
    xs = np.linspace(-halfwidth, halfwidth, 8191)
    span = lambda_max - float(np.min(v(xs)))
    steps = 2.0 * halfwidth * spectra._DVR_MARGIN * math.sqrt(span) / (math.pi * hbar)
    n_1 = max(math.ceil(steps) - 1, 2)
    n = min(math.ceil(0.8 * n_1), n_1 - 1)
    blocks = [spectra._parity_block(v, hbar, halfwidth, n, s) for s in (1.0, -1.0)]
    coarse = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
    coarse, n = coarse[coarse <= lambda_max], n_1
    while True:
        pairs = [
            np.linalg.eigh(spectra._parity_block(v, hbar, halfwidth, n, s)) for s in (1.0, -1.0)
        ]
        w = np.sort(np.concatenate([wb for wb, _ in pairs]))
        w = w[w <= lambda_max]
        mass = max(float(np.max(u[-1, wb <= lambda_max] ** 2, initial=0.0)) for wb, u in pairs)
        if mass > spectra.MAX_BOUNDARY_MASS:
            raise DomainTooSmallError(f"end mass {mass:.3e}")
        change = np.max(np.abs(w - coarse), initial=0.0) if coarse.size == w.size else np.inf
        if change <= max(1e-12, mass) * span:
            return n, w, mass, change
        coarse, n = w, math.ceil(1.25 * n)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 4, 6]),
    lambda_max=st.floats(0.5, 3.0),
    room=st.floats(1.6, 2.5),
    nodes=st.integers(12, 200),
)
def test_probes_match_the_vector_walk(q, lambda_max, room, nodes):
    # an even trap |x|^q on room times its turning point; hbar puts the
    # momentum rule's n_1 near ``nodes``, so no grid passes ~400 nodes
    v = lambda x: np.abs(x) ** q
    halfwidth = room * lambda_max ** (1.0 / q)
    hbar = 2.0 * halfwidth * spectra._DVR_MARGIN * math.sqrt(lambda_max) / (math.pi * nodes)
    try:
        n_ref, w_ref, mass_ref, _ = _vector_walk(v, hbar, halfwidth, lambda_max)
    except DomainTooSmallError:
        with pytest.raises(DomainTooSmallError):
            spectra._settled_dvr_solve(v, hbar, halfwidth, lambda_max)
        return
    if w_ref.size == 0:
        with pytest.raises(TruncationError):
            spectra._settled_dvr_solve(v, hbar, halfwidth, lambda_max)
        return
    w, _, certificates = spectra._settled_dvr_solve(v, hbar, halfwidth, lambda_max)
    mass = max(certificates["boundary_mass"], mass_ref)
    assert w.size == w_ref.size
    assert np.max(np.abs(w - w_ref)) <= max(1e-12, mass) * lambda_max
    assert certificates["solve_nodes"] <= n_ref


def test_weyl_scan_fd_1d_refuses_an_uneven_trap(monkeypatch, dense_solves):
    monkeypatch.setattr(spectra, "_parity_block", lambda *a: pytest.fail("block built"))
    uneven = lambda x: (x + 0.1) ** 2
    with pytest.raises(ValueError, match="even trap"):
        weyl_error_scan({"kind": "fd_1d", "v": uneven, "halfwidth": 3.0}, [2, 20, 200], 2.0)
    with pytest.raises(ValueError, match="even trap"):
        dvr_catalog_1d(uneven, 0.05, 4.0, 1001, 1.06)
    assert dense_solves == []


def test_weyl_scan_fd_1d_stops_a_kink_at_the_cap(monkeypatch):
    # |x| has a kink at its minimum, so the sinc-DVR levels converge slowly
    # and no two grids of the ladder agree, probes included; the refinement
    # stops at the cap
    built = []
    block = spectra._parity_block

    def recorder(v, hbar, halfwidth, n, sign):
        built.append(n)
        return block(v, hbar, halfwidth, n, sign)

    monkeypatch.setattr(spectra, "_parity_block", recorder)
    with pytest.raises(ResolutionError, match="disagree"):
        weyl_error_scan({"kind": "fd_1d", "v": np.abs, "halfwidth": 6.0}, [2, 200], 2.0)
    # the probes of 10 to 18 nodes and n_0 = 22 come first, each solved once
    assert built[:12] == [10, 10, 12, 12, 15, 15, 18, 18, 22, 22, 27, 27]
    assert max(built) <= spectra.MAX_DVR_NODES


@pytest.mark.parametrize("q", [2, 4])
def test_classical_counts_1d_match_beta_closed_forms(q):
    # over |x|^q <= L: n_cl = (2 / (pi q)) L^(1/2 + 1/q) B(1/q, 3/2) and
    # e_cl = (2 / (pi q)) L^(3/2 + 1/q) [B(1/q, 5/2) / 3 + B(1 + 1/q, 3/2)]
    import mpmath

    with mpmath.workdps(30):
        L, q_ = mpmath.mpf(2), mpmath.mpf(q)
        n_cl = 2 / (mpmath.pi * q_) * L ** (0.5 + 1 / q_) * mpmath.beta(1 / q_, 1.5)
        e_cl = 2 / (mpmath.pi * q_) * L ** (1.5 + 1 / q_) * (
            mpmath.beta(1 / q_, 2.5) / 3 + mpmath.beta(1 + 1 / q_, 1.5)
        )
    got = spectra._counts_cl_1d(lambda x: x**q, 2.0, 3.0)
    assert abs(got[0] - float(n_cl)) <= 1e-14 * float(n_cl)
    assert abs(got[1] - float(e_cl)) <= 1e-14 * float(e_cl)


def test_classical_counts_1d_refuse_a_double_well():
    with pytest.raises(DomainError, match="nondecreasing away from its minimum"):
        spectra._counts_cl_1d(lambda x: (x * x - 1.0) ** 2, 2.0, 3.0)


def test_hermite_recurrence_depth_guard():
    with pytest.raises(DepthError):
        hermite_functions(201, np.zeros(1))


def test_hermite_against_direct_formula():
    # cross-check the recurrence against the explicit low orders
    x = np.linspace(-3.0, 3.0, 61)
    psi = hermite_functions(3, x)
    w = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    assert np.max(np.abs(psi[0] - w)) < 1e-12
    assert np.max(np.abs(psi[1] - math.sqrt(2.0) * x * w)) < 1e-12
    assert np.max(np.abs(psi[2] - (2.0 * x**2 - 1.0) / math.sqrt(2.0) * w)) < 1e-12


def test_ground_state_density_gaussian():
    hbar = 0.3
    fn = free_ground_state_density_fn(hbar, 1)
    r = np.linspace(0.0, 2.0, 33)
    expected = (math.pi * hbar) ** -1.5 * np.exp(-(r**2) / hbar)
    assert np.max(np.abs(fn(r) - expected)) < 1e-12


def test_ground_state_density_trace():
    for N in (100, 2000):
        hbar = float(N) ** (-1.0 / 3.0)
        M = math.ceil(N / 2)
        fn = free_ground_state_density_fn(hbar, M)
        trace = integrate_radial(fn, 5.0, Tolerance(abs=1e-10, rel=1e-10))
        assert abs(trace - M) <= 1e-6 * M


def test_ground_state_density_profile_shape():
    prof = free_ground_state_density(0.1, 35, np.linspace(0.0, 3.0, 257))
    vals = prof.values
    assert np.all(vals >= 0.0)
    assert np.all(np.diff(vals) <= 1e-12)  # radially nonincreasing


def test_ground_state_density_is_radial():
    # the shell construction must not depend on direction
    hbar = 0.2
    fn = free_ground_state_density_fn(hbar, 17)
    # evaluating at (r,0,0) through the radial profile equals the diagonal
    # direction value by construction; check internal consistency across M
    r = np.linspace(0.0, 2.5, 129)
    dens = fn(r)
    mass = integrate_radial(fn, 4.0, Tolerance(abs=1e-10, rel=1e-10))
    assert abs(mass - 17.0) < 1e-5
    assert np.all(dens >= 0.0)


def test_ground_state_density_depth_error():
    with pytest.raises(DepthError):
        free_ground_state_density_fn(1.0, 10**7)


def test_density_converges_to_minimizer():
    base = tf_solve(harmonic_trap(0.0))
    nodes = np.linspace(0.0, 6.0, 2049)
    rho_tf = RadialProfile(nodes, base.rho_fn(nodes))
    dists = []
    for N in (100, 1000):
        hbar = float(N) ** (-1.0 / 3.0)
        fn = free_ground_state_density_fn(hbar, math.ceil(N / 2))
        dists.append(lp_distance(RadialProfile(nodes, 2.0 * fn(nodes) / N), rho_tf, 1.0))
    assert dists[1] < dists[0]


@pytest.fixture(scope="module")
def husimi_catalog():
    return dvr_catalog_1d(lambda x: x * x, 0.05, 4.0, 1001, 21.0 * 0.05 + 0.01)


def test_husimi_resolution_identity(husimi_catalog):
    rep = coherent_identity_check_1d(husimi_catalog, 10)
    assert rep.resolution_residual <= 1e-6


def test_husimi_kinetic_identity(husimi_catalog):
    rep = coherent_identity_check_1d(husimi_catalog, 10)
    assert rep.kinetic_identity_residual <= 1e-6 * rep.kinetic_reference


def test_husimi_occupation_bounds(husimi_catalog):
    rep = coherent_identity_check_1d(husimi_catalog, 10)
    assert rep.m_min >= 0.0
    assert rep.m_max <= 1.0 + 1e-9


def test_husimi_potential_residual_shrinks_with_hbar(husimi_catalog):
    rep = coherent_identity_check_1d(husimi_catalog, 10)
    half = dvr_catalog_1d(lambda x: x * x, 0.025, 4.0, 1001, 21.0 * 0.025 + 0.01)
    rep_half = coherent_identity_check_1d(half, 10)
    assert rep.potential_identity_residual / rep_half.potential_identity_residual >= 1.3


def test_husimi_lowfreq_residual_within_envelope(husimi_catalog):
    rep = coherent_identity_check_1d(husimi_catalog, 10)
    envelope = math.sqrt(rep.hbar_p) * (rep.kinetic_reference + rep.fill)
    assert rep.lowfreq_identity_residual <= envelope


def test_husimi_report_fields_are_plain_floats(husimi_catalog):
    rep = coherent_identity_check_1d(husimi_catalog, 10)
    for f in dataclasses.fields(rep):
        if f.type == "float":
            assert type(getattr(rep, f.name)) is float, f.name


def test_husimi_split_validation(husimi_catalog):
    rep = coherent_identity_check_1d(husimi_catalog, 1)
    assert rep.hbar_x == 0.05 ** (4.0 / 3.0) and rep.hbar_p == 0.05 ** (2.0 / 3.0)
    assert rep.hbar_x * rep.hbar_p == pytest.approx(0.05**2, rel=1e-15)
    with pytest.raises(ValueError):
        coherent_identity_check_1d(husimi_catalog, 0)


def _dense_husimi_reference(catalog, fill, p_F=1.0):
    """The Husimi check with full-width windows and one dense complex product per level."""
    hbar = catalog.hbar
    hbar_p, hbar_x = hbar ** (2.0 / 3.0), hbar ** (4.0 / 3.0)
    x = catalog.grid
    h = float(x[1] - x[0])
    sigma = math.sqrt(hbar_x)
    psi = catalog.vectors[:, :fill]
    stride = max(1, int(sigma / (8.0 * h)))
    xm = x[::stride]
    dx = h * stride
    k = 2.0 * math.pi * np.fft.fftfreq(x.size, d=h)
    p_spec = hbar * k
    psi_hat = np.fft.fft(psi, axis=0) * h / math.sqrt(2.0 * math.pi)
    t_spec = np.sum(np.abs(psi_hat) ** 2, axis=1) * 2.0 * math.pi / (x.size * h)
    kinetic_spec = float(np.sum(p_spec**2 * t_spec))
    with np.errstate(divide="ignore", over="ignore"):
        weight_lf = np.minimum(1.0, (p_F / np.maximum(np.abs(p_spec), 1e-300)) ** 2)
    lowfreq_spec = float(np.sum(p_spec**2 * weight_lf * t_spec))
    p_occ = float(np.max(np.abs(p_spec)[t_spec > 1e-14 * np.max(t_spec)]))
    sp = math.sqrt(hbar_p)
    p_max = p_occ + 10.0 * sp
    p = np.linspace(-p_max, p_max, max(64, int(math.ceil(2.0 * p_max / (sp / 8.0))) + 1))
    dp = p[1] - p[0]
    w = np.exp(-((xm[:, None] - x[None, :]) ** 2) / (2.0 * hbar_x))
    w /= np.sqrt(h * np.sum(w * w, axis=1))[:, None]
    phases = np.exp(-1j * np.outer(p, x) / hbar) * h
    m = np.zeros((xm.size, p.size))
    for j in range(fill):
        m += np.abs((w * psi[:, j][None, :]) @ phases.T) ** 2
    norm = dx * dp / (2.0 * math.pi * hbar)
    kin_expected = kinetic_spec + hbar_p * fill * 0.5
    vv = np.asarray(catalog.potential_1d(x), dtype=float)
    vm = np.asarray(catalog.potential_1d(xm), dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        lf_weight = np.minimum(1.0, (p_F / np.maximum(np.abs(p), 1e-300)) ** 2)
    return {
        "hbar": hbar,
        "hbar_x": hbar_x,
        "hbar_p": hbar_p,
        "fill": fill,
        "resolution_residual": abs(float(np.sum(m)) * norm - fill) / fill,
        "kinetic_identity_residual": abs(float(np.sum(m * p[None, :] ** 2)) * norm - kin_expected),
        "kinetic_reference": kin_expected,
        "potential_identity_residual": abs(
            float(np.sum(m * vm[:, None])) * norm - float(np.sum(vv[:, None] * psi**2)) * h
        ),
        "lowfreq_identity_residual": abs(
            float(np.sum(m * (p**2 * lf_weight)[None, :])) * norm - lowfreq_spec
        ),
        "m_min": float(np.min(m)),
        "m_max": float(np.max(m)),
    }


@pytest.mark.parametrize(
    "hbar, halfwidth, fill",
    [
        (0.1, 4.0, 1),
        (0.1, 4.0, 10),
        (0.05, 4.0, 1),
        (0.05, 4.0, 10),
        # 10 sigma = 25.2 exceeds the whole grid: every window is cut at both ends
        (4.0, 12.5, 2),
    ],
)
def test_husimi_band_matches_dense_products(hbar, halfwidth, fill):
    cat = dvr_catalog_1d(lambda x: x * x, hbar, halfwidth, 1001, hbar * (2 * fill + 1) + 0.01)
    rep = coherent_identity_check_1d(cat, fill)
    ref = _dense_husimi_reference(cat, fill)
    for name, want in ref.items():
        got = getattr(rep, name)
        if name in ("resolution_residual", "kinetic_identity_residual", "m_min"):
            # roundoff-level quantities: m lies in [0, 1] and both residuals vanish exactly
            assert abs(got - want) <= 1e-12, (name, got, want)
        else:
            assert got == pytest.approx(want, rel=1e-10, abs=0.0), name


class _ExpShapes:
    """Stands in for ``numpy`` inside ``spectra`` and records the shapes of 2-d ``exp`` results."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        out = np.exp(x, *args, **kwargs)
        if np.ndim(out) == 2:
            self.shapes.append((np.iscomplexobj(out), out.shape))
        return out


@pytest.mark.parametrize(
    "hbar, n_xm, n_band, n_p",
    [
        (0.05, 501, 170, 237),
        (0.025, 1001, 108, 228),  # an even p grid: no p = 0 node
    ],
)
def test_husimi_work_budget(monkeypatch, hbar, n_xm, n_band, n_p):
    cat = dvr_catalog_1d(lambda x: x * x, hbar, 4.0, 1001, 21.0 * hbar + 0.01)
    h = float(cat.grid[1] - cat.grid[0])
    assert n_band == math.ceil(10.0 * hbar ** (2.0 / 3.0) / h)
    probe = _ExpShapes()
    monkeypatch.setattr(spectra, "np", probe)
    rep = coherent_identity_check_1d(cat, 10)
    monkeypatch.undo()
    assert (rep.n_xm, rep.band, rep.n_p) == (n_xm, 2 * n_band + 1, n_p)
    # the real windows on the full band, and one complex phase table on the
    # ceil(n_p / 2) momenta p >= 0 and the n_band offsets d > 0: the products
    # run on the folded band and half the p grid
    assert probe.shapes == [(False, (n_xm, 2 * n_band + 1)), (True, ((n_p + 1) // 2, n_band))]


@pytest.mark.parametrize(
    "hbar, points, catalog_mib, check_mib",
    [
        (0.025, 1001, 3.3, 8.4),  # criterion 15's second rung: 2.88 and 7.36 MiB
        (0.0125, 2001, 9.3, 18.7),  # the next rung: 8.15 and 16.34 MiB
    ],
)
def test_husimi_memory_budget(hbar, points, catalog_mib, check_mib):
    # traced peaks (NumPy reports its data buffers to tracemalloc).  The
    # catalog holds the sinc matrix and sin's output, the check its windows
    # and one set of per-level buffers, then m and one product.  With
    # np.sinc's temporaries, an index table and per-level temporaries they
    # peaked at 5.7 and 12.0 MiB (hbar = 0.025), 16.2 and 25.9 MiB (0.0125)
    peaks = []
    tracemalloc.start()
    try:
        cat = dvr_catalog_1d(lambda x: x * x, hbar, 4.0, points, 21.0 * hbar + 0.01)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        coherent_identity_check_1d(cat, 10)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[0] <= catalog_mib * 2**20 and peaks[1] <= check_mib * 2**20, peaks


def test_husimi_grid_resolution_guard():
    coarse = dvr_catalog_1d(lambda x: x * x, 0.05, 4.0, 220, 0.4)
    with pytest.raises(ResolutionError):
        coherent_identity_check_1d(coarse, 3)


@pytest.mark.parametrize("catalog", [dvr_catalog_1d, spectra.fd_catalog_1d])
@pytest.mark.parametrize("points", [0, 1, 199, 4002])
def test_catalog_refuses_sample_points_out_of_range(monkeypatch, catalog, points):
    # refused before any solve
    monkeypatch.setattr(spectra, "_settled_dvr_solve", lambda *args: pytest.fail("solved"))
    with pytest.raises(ValueError, match=f"points={points} outside"):
        catalog(lambda x: x * x, 0.05, 4.0, points, 1.06)
