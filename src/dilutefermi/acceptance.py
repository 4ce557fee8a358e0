"""Acceptance suite: one registered check per criterion.

Each criterion is one function that returns ``(passed, details)``: the
pass flag and the measured numbers with the bounds they must meet.  The
``_criterion(cid, description, seconds=...)`` decorator registers it:
it times the whole check, passes the criterion only when the check
passes in under ``seconds`` (no runtime gate by default), builds the
CriterionResult and appends the criterion to ``ALL_CRITERIA`` in
definition order.  The pytest acceptance module and the command-line
``verify-all`` both consume exactly this list, so there is a single
definition of every tolerance.
"""

from __future__ import annotations

import functools
import math
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import asymptotics as asy
from . import potentials as pots
from . import scattering as sc
from . import semiclassics as scl
from . import spectra as sp
from . import thomas_fermi as tf
from .numerics import RadialProfile, Tolerance, integrate_radial, lp_distance

LAMBDA_EXACT = 24.0 ** (1.0 / 3.0)
E_TF_EXACT = 0.75 * LAMBDA_EXACT
INTERACTION_EXACT = (64.0 / 2835.0) * 24.0**1.5 / math.pi**3


@dataclass
class CriterionResult:
    cid: int
    description: str
    passed: bool
    details: dict = field(default_factory=dict)
    runtime: float = 0.0  # seconds of the whole check, as the runtime gate reads them

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:2d}: {self.description}"


ALL_CRITERIA = []


def _criterion(cid, description, seconds=math.inf):
    """Register a check returning ``(passed, details)`` as criterion ``cid``.

    The registered criterion times the whole check and returns its
    CriterionResult, passed only when the check passes in under
    ``seconds``.
    """

    def register(check):
        @functools.wraps(check)
        def criterion():
            t0 = time.perf_counter()
            passed, details = check()
            runtime = time.perf_counter() - t0
            return CriterionResult(cid, description, passed and runtime < seconds, details, runtime)

        ALL_CRITERIA.append(criterion)
        return criterion

    return register


@_criterion(1, "chemical potential of the bare harmonic trap", seconds=1.0)
def criterion_1():
    sol = tf.tf_solve(pots.harmonic_trap(0.0))
    err = abs(sol.lambda_TF - LAMBDA_EXACT)
    return err <= 1e-6, {"lambda": sol.lambda_TF, "exact": LAMBDA_EXACT, "error": err, "bound": 1e-6}


@_criterion(2, "minimizer energy and squared-density integral")
def criterion_2():
    sol = tf.tf_solve(pots.harmonic_trap(0.0))
    e_err = abs(sol.E_TF - E_TF_EXACT)
    i_err = abs(sol.interaction_integral - INTERACTION_EXACT)
    return e_err <= 1e-5 and i_err <= 1e-4, {
        "E_TF": sol.E_TF,
        "E_error": e_err,
        "E_bound": 1e-5,
        "interaction": sol.interaction_integral,
        "interaction_error": i_err,
        "interaction_bound": 1e-4,
    }


@_criterion(3, "multiplier equality residual on the support")
def criterion_3():
    out = {}
    for name, v in (
        ("harmonic_plus_one", pots.harmonic_trap(1.0)),
        ("power_plus_one_s4", pots.power_trap(4.0)),
    ):
        sol = tf.tf_solve(v)
        out[name] = (sol.lagrange_residual, 1e-8 * sol.lambda_TF)
    details = {f"{k}_residual": v[0] for k, v in out.items()}
    details.update({f"{k}_bound": v[1] for k, v in out.items()})
    return all(res <= bound for res, bound in out.values()), details


@_criterion(4, "square-barrier scattering lengths against the closed form")
def criterion_4():
    a2 = sc.zero_energy_solve(sc.square_barrier(2.0)).a
    a200 = sc.zero_energy_solve(sc.square_barrier(200.0)).a
    t2 = 1.0 - math.tanh(1.0)
    t200 = 1.0 - math.tanh(10.0) / 10.0
    passed = abs(a2 - t2) <= 1e-6 and abs(a200 - t200) <= 1e-6
    return passed, {"a_A2": a2, "exact_A2": t2, "a_A200": a200, "exact_A200": t200, "bound": 1e-6}


@_criterion(5, "hard-core limit of the amplitude sweep", seconds=5.0)
def criterion_5():
    amps = list(np.logspace(math.log10(2.0), 4.0, 12))
    lengths = [a for _, a in sc.hardcore_limit(sc.square_barrier(1.0), amps)]
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(lengths, lengths[1:]))
    bounded = all(a <= 1.0 + 1e-10 for a in lengths)
    end_ok = lengths[-1] >= 0.985
    return nondecreasing and bounded and end_ok, {
        "a_first": lengths[0],
        "a_last": lengths[-1],
        "end_bound": 0.985,
        "nondecreasing": nondecreasing,
        "bounded_by_range": bounded,
        "runtime_bound_s": 5.0,
    }


@_criterion(6, "dilation identity of the scattering length")
def criterion_6():
    out = {}
    for N in (100, 10000):
        for beta in (0.35, 0.45):
            rep = sc.scaled_identity_check(sc.square_barrier(2.0), N, beta)
            out[f"rel_err_N{N}_b{beta}"] = rep.rel_err
    passed = all(v <= 1e-8 for v in out.values())
    out["bound"] = 1e-8
    return passed, out


@_criterion(7, "Weyl counting errors: fitted exponents and error/N decay", seconds=10.0)
def criterion_7():
    lam = 48.0 ** (1.0 / 3.0)
    full = sp.weyl_error_scan({"kind": "harmonic"}, [10**3, 10**4, 10**5, 10**6], lam)
    span = sp.weyl_error_scan({"kind": "harmonic"}, [10**3, 10**4, 10**6], lam)
    bound = 8.0 / 9.0 + 0.05
    exps_ok = (
        full.n_exponent <= bound
        and full.e_exponent <= bound
        and span.n_exponent <= bound
        and span.e_exponent <= bound
    )

    def strictly_dec(seq):
        return all(b < a for a, b in zip(seq, seq[1:]))

    dec_ok = strictly_dec(span.n_err_over_N) and strictly_dec(span.e_err_over_N)
    return exps_ok and dec_ok, {
        "n_exponent": full.n_exponent,
        "e_exponent": full.e_exponent,
        "exponent_bound": bound,
        "n_err_over_N": span.n_err_over_N,
        "e_err_over_N": span.e_err_over_N,
        "strictly_decreasing": dec_ok,
        "runtime_bound_s": 10.0,
    }


@_criterion(8, "Legendre relation between count and energy derivatives")
def criterion_8():
    # spacing keeps the central-difference truncation (h^2 Lambda / 24)
    # inside the stated envelope 1e-3 Lambda |dn| down to the left edge
    grid = np.linspace(2.0, 5.0, 50)
    v = pots.harmonic_trap(0.0)
    budgets = [scl.phase_space_counts(v, lam) for lam in grid]
    n = np.array([b.n_cl for b in budgets])
    e = np.array([b.e_cl for b in budgets])
    dn = (n[2:] - n[:-2]) / (grid[2:] - grid[:-2])
    de = (e[2:] - e[:-2]) / (grid[2:] - grid[:-2])
    mids = grid[1:-1]
    lhs = np.abs(de - mids * dn)
    rhs = 1e-3 * mids * np.abs(dn)
    worst_gap, worst_ratio = float(np.max(lhs - rhs)), float(np.max(lhs / rhs))
    return worst_gap <= 0.0, {"worst_ratio_of_bound": worst_ratio, "bound_ratio": 1.0}


@_criterion(9, "momentum-cutoff energy gap: sign and decay exponent")
def criterion_9():
    scan = tf.cutoff_gap_scan(pots.harmonic_trap(0.0), [4.0, 8.0, 16.0, 32.0])
    nonneg = all(g >= 0.0 for g in scan.gaps)
    return nonneg and scan.fitted_exponent >= 1.8, {
        "gaps": scan.gaps,
        "fitted_exponent": scan.fitted_exponent,
        "exponent_bound": 1.8,
        "note": "gaps at or below the quadrature floor fit as +inf",
    }


@_criterion(10, "two-spin perturbation slope and spin symmetry")
def criterion_10():
    v = pots.harmonic_trap(0.0)
    base = tf.tf_solve(v)
    quarter = base.interaction_integral / 4.0
    devs = []
    sup_gap = 0.0
    residuals, bounds = [], []
    for g in (0.2, 0.1, 0.05):
        st = tf.two_spin_minimize(v, g)
        devs.append(abs((st.energy - base.E_TF) / g - quarter) / quarter)
        up, down = st.rho_up_values, st.rho_down_values
        sup_gap = max(sup_gap, float(np.max(np.abs(up - down))))
        # each spin sees the trap plus g times the other spin's density
        vr = v.radial_fn(st.rho_up.nodes)
        residuals.append(max(
            float(np.max(tf.euler_lagrange_residual(mine, vr + g * other, st.lambda_two_spin,
                                                    tf.KAPPA_SPIN)))
            for mine, other in ((up, down), (down, up))
        ))
        bounds.append(1e-8 * st.lambda_two_spin)
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    stationary = all(r <= b for r, b in zip(residuals, bounds))
    return decreasing and devs[-1] <= 0.05 and sup_gap <= 1e-6 and stationary, {
        "relative_deviations": devs,
        "final_bound": 0.05,
        "spin_sup_gap": sup_gap,
        "sup_gap_bound": 1e-6,
        "spin_lagrange_residuals": residuals,
        "spin_lagrange_bounds": bounds,
    }


@_criterion(11, "softened-potential kit: bump normalization and kinetic-split inequality")
def criterion_11():
    p_F = 3.0
    s = 1.0 / (2.0 * p_F)
    kit = sc.dyson_parts(0.0, 1.0, s, p_F)
    u_err = abs(kit.U_integral_check - 1.0)
    p = np.linspace(1e-6, 8.0 * p_F, 10**4)
    margin = kit.high_frequency_margin(p)
    violations = int(np.sum(margin < 0))
    return u_err <= 1e-10 and violations == 0, {
        "U_integral_error": u_err,
        "U_bound": 1e-10,
        "min_margin": float(np.min(margin)),
        "violations": violations,
    }


@_criterion(12, "box-scale window flips exactly at 34/81 and 1/2")
def criterion_12():
    b_star = Fraction(34, 81)
    at = asy.beta_l_window(b_star, 10**6)
    below = asy.beta_l_window(b_star - Fraction(1, 10**12), 10**6)
    above = asy.beta_l_window(b_star + Fraction(1, 10**12), 10**6)
    half = asy.beta_l_window(Fraction(1, 2), 10**6)
    under_half = asy.beta_l_window(Fraction(1, 2) - Fraction(1, 10**12), 10**6)
    flip_ok = (not at.feasible) and below.feasible and (not above.feasible)
    lower_ok = (not half.lower_bound_regime) and under_half.lower_bound_regime
    return flip_ok and lower_ok, {
        "feasible_at_34_81": at.feasible, "feasible_below": below.feasible,
        "lower_flag_at_half": half.lower_bound_regime,
        "lower_flag_below_half": under_half.lower_bound_regime,
    }


@_criterion(13, "box-sum total against the continuum prediction")
def criterion_13():
    v = pots.harmonic_trap(0.0)
    base = tf.tf_solve(v)
    ctx = asy.make_context(10**6, 0.40, sc.square_barrier(2.0))
    l0 = asy.beta_l_window(0.40, 10**6).chosen_l
    ests = [asy.box_estimate(v, ctx, l0 / f, base) for f in (1, 2, 4)]
    ratio = ests[0].ratio
    d53 = [e.rho53_defect for e in ests]
    d2 = [e.rho2_defect for e in ests]
    dec = all(b < a for a, b in zip(d53, d53[1:])) and all(
        b < a for a, b in zip(d2, d2[1:])
    )
    return 0.9 <= ratio <= 1.3 and dec, {
        "ratio": ratio,
        "ratio_window": (0.9, 1.3),
        "rho53_defects": d53,
        "rho2_defects": d2,
        "defects_decreasing": dec,
    }


@_criterion(14, "error-budget ratio decreases along the N sweep")
def criterion_14():
    table = {}
    for beta in (0.40, 0.45, 0.49):
        table[beta] = [asy.error_budget(N, beta).ratio for N in (10**4, 10**6, 10**8)]
    ok = {b: all(y < x for x, y in zip(r, r[1:])) for b, r in table.items()}
    details = {f"ratios_beta_{b}": r for b, r in table.items()}
    details["strictly_decreasing"] = ok
    return all(ok.values()), details


@_criterion(15, "coherent-state identities on the 1d catalog")
def criterion_15():
    cats = [
        sp.dvr_catalog_1d(lambda x: x * x, hb, 4.0, 1001, 21.0 * hb + 0.01)
        for hb in (0.05, 0.025)
    ]
    rep, rep_half = [sp.coherent_identity_check_1d(cat, 10) for cat in cats]
    res_ok = rep.resolution_residual <= 1e-6
    kin_ok = rep.kinetic_identity_residual <= 1e-6 * rep.kinetic_reference
    factor = rep.potential_identity_residual / rep_half.potential_identity_residual
    pot_ok = factor >= 1.3
    # for V = x^2 the potential residual is fill hbar_x / 2 exactly
    closed = [r.fill * r.hbar_x / 2.0 for r in (rep, rep_half)]
    distances = [
        (r.potential_identity_residual - c) / c for r, c in zip((rep, rep_half), closed)
    ]
    m_ok = rep.m_min >= 0.0 and rep.m_max <= 1.0 + 1e-9
    return res_ok and kin_ok and pot_ok and m_ok, {
        "resolution_residual": rep.resolution_residual,
        "resolution_bound": 1e-6,
        "kinetic_residual": rep.kinetic_identity_residual,
        "kinetic_bound": 1e-6 * rep.kinetic_reference,
        "potential_halving_factor": factor,
        "halving_bound": 1.3,
        "potential_closed_forms": closed,
        "potential_closed_form_distances": distances,
        "m_min": rep.m_min,
        "m_max": rep.m_max,
        "solve_nodes": [c.solve_nodes for c in cats],
        "momentum_margins": [c.momentum_margin for c in cats],
        "boundary_masses": [c.boundary_mass for c in cats],
        "convergence_estimates": [c.convergence_estimate for c in cats],
    }


@_criterion(16, "filled free-state density converges to the minimizer in L1")
def criterion_16():
    v = pots.harmonic_trap(0.0)
    base = tf.tf_solve(v)
    nodes = np.linspace(0.0, 6.0, 4097)
    rho_tf = RadialProfile(nodes, base.rho_fn(nodes))
    dists = []
    trace_errs = []
    for N in (100, 1000, 10000):
        hb = float(N) ** (-1.0 / 3.0)
        M = math.ceil(N / 2)
        fn = sp.free_ground_state_density_fn(hb, M)
        # panels split at r = 1, 2, 3: each trace settles by order 64
        trace = integrate_radial(fn, 6.0, Tolerance(abs=1e-10, rel=1e-10), (1.0, 2.0, 3.0))
        trace_errs.append(abs(trace - M) / M)
        prof = RadialProfile(nodes, 2.0 * fn(nodes) / N)
        dists.append(lp_distance(prof, rho_tf, 1.0))
    dec = all(b < a for a, b in zip(dists, dists[1:]))
    return dec and dists[-1] <= 0.05 and all(e <= 1e-6 for e in trace_errs), {
        "l1_distances": dists,
        "final_bound": 0.05,
        "trace_errors": trace_errs,
        "trace_bound": 1e-6,
    }


@_criterion(17, "re-emitting every output is byte-identical")
def criterion_17():
    # byte-level determinism of the emitted bundle, checked by double emission
    from . import cli

    commands = ("tf", "scatter", "semiclass", "spectra", "predict", "budget")

    def emit_bundle():
        config = dict(cli.DEFAULT_CONFIG)
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(p) for cmd in commands for p in cli.run_command(cmd, config, tmp)[0]]
            return {p.name: p.read_bytes() for p in paths}

    first, second = emit_bundle(), emit_bundle()
    same = first == second
    return same, {"files": sorted(first), "identical": same}


def run_all(echo=False):
    """Run every acceptance criterion, returning the result list."""
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        if echo:
            print(res.line())
    return results
