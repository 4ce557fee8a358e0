"""Independent references and output checks for the benchmark.

Every reference here is computed apart from the program under test:
closed forms derived from the Thomas-Fermi equation with the Beta
function and the virial identity, SciPy solves, exact oscillator
catalogs, WKB counts and dense resampling.  Nothing is compared with a
stored copy of an earlier output.

A check records a failure in a ``Checker`` instead of raising, so one
run reports every failing output at once.  ``test_bench_checks.py``
feeds each check exact and perturbed values and confirms that only the
perturbed ones fail.
"""

from __future__ import annotations

import math
import warnings

KAPPA = (3.0 * math.pi**2) ** (2.0 / 3.0)
KAPPA_SPIN = (6.0 * math.pi**2) ** (2.0 / 3.0)
C_TF = 0.6 * KAPPA_SPIN
LAMBDA_HARMONIC = 24.0 ** (1.0 / 3.0)

# Tolerances, each set from the accuracy the method promises rather than
# from what today's code happens to return.
TF_RTOL = 1e-8  # tf_solve fixes the mass to 1e-10 and integrates to 1e-12
TWO_SPIN_RTOL = 1e-8  # the fixed point stops at an L1 residual of 1e-9
COUNT_RTOL = 1e-9  # phase-space quadrature runs at 1e-12
SCATTER_ATOL = 1e-9  # RK4 is exact for piecewise-constant potentials up to rounding
FORMULA_RTOL = 1e-12  # outputs that are closed-form arithmetic of other outputs
HUSIMI_RESOLUTION_BOUND = 1e-6
L1_RTOL = 1e-6  # trapezoid on a 32x refined grid against the closed-form segments


class Checker:
    """Collects failed comparisons as readable lines."""

    def __init__(self):
        self.failures = []

    def require(self, ok, what):
        if not ok:
            self.failures.append(what)
        return bool(ok)

    def close(self, what, got, want, rtol=0.0, atol=0.0):
        got = float(got)
        want = float(want)
        ok = math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)
        return self.require(ok, f"{what}: got {got!r}, want {want!r} (rtol {rtol}, atol {atol})")

    @property
    def ok(self):
        return not self.failures


def beta_fn(a, b):
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


# ---------------------------------------------------------------- Thomas-Fermi


def tf_reference(s, offset):
    """Unit-mass Thomas-Fermi data for V = offset + r^s.

    The mass condition kappa^(-3/2) 4 pi mu^(3/2 + 3/s) B(3/s, 5/2) / s = 1
    fixes mu = lambda - offset; the virial identity 2 T = s int r^s rho
    with mu = (5/3) T + int r^s rho gives E_TF - offset = mu (6 + 3s)/(6 + 5s).
    For s = 2 this is lambda = 24^(1/3), E_TF = (3/4) lambda and
    int rho^2 = (64/2835) 24^(3/2) / pi^3.
    """
    mu = (3.0 * math.pi * s / (4.0 * beta_fn(3.0 / s, 2.5))) ** (1.0 / (1.5 + 3.0 / s))
    rho2 = 4.0 * math.pi * mu ** (3.0 + 3.0 / s) * beta_fn(3.0 / s, 4.0) / (s * KAPPA**3)
    return {
        "lambda": offset + mu,
        "E_TF": offset + mu * (6.0 + 3.0 * s) / (6.0 + 5.0 * s),
        "rho2": rho2,
    }


def check_tf(ck, label, s, offset, lam, e_tf, rho2):
    ref = tf_reference(s, offset)
    ck.close(f"{label} lambda_TF", lam, ref["lambda"], rtol=TF_RTOL)
    ck.close(f"{label} E_TF", e_tf, ref["E_TF"], rtol=TF_RTOL)
    ck.close(f"{label} int rho^2", rho2, ref["rho2"], rtol=TF_RTOL)


def tf_density_reference(r, lam, offset):
    """rho = ((lam - V)_+ / kappa)^(3/2) for V = offset + r^2."""
    gap = lam - offset - r * r
    return (gap / KAPPA) ** 1.5 if gap > 0.0 else 0.0


def two_spin_reference(s, offset, g):
    """Symmetric two-spin minimizer by SciPy, independent of the program.

    Each spin density is t^3 with kappa_s t^2 + g t^3 = (mu - V)_+
    (brentq in t), the shared multiplier mu fixes 2 int rho_s = 1
    (brentq in mu), and every integral is a ``quad``.
    """
    from scipy.integrate import IntegrationWarning, quad
    from scipy.optimize import brentq

    def rho_s(r, mu):
        gap = mu - offset - r**s
        if gap <= 0.0:
            return 0.0
        t_hi = math.sqrt(gap / KAPPA_SPIN)
        t = brentq(lambda t: KAPPA_SPIN * t * t + g * t**3 - gap, 0.0, t_hi, xtol=1e-300, rtol=1e-15)
        return t**3

    def integral(fn, mu):
        edge = (mu - offset) ** (1.0 / s)
        with warnings.catch_warnings():
            # quad reports its roundoff floor near 1e-16; that is the point
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(
                lambda r: fn(r, rho_s(r, mu)) * 4.0 * math.pi * r * r,
                0.0, edge, epsabs=1e-15, epsrel=1e-14, limit=400,
            )
        return val

    def mass_defect(mu):
        return 2.0 * integral(lambda r, rho: rho, mu) - 1.0

    lo = tf_reference(s, offset)["lambda"]  # repulsion needs a larger multiplier
    hi = lo + 1.0
    while mass_defect(hi) <= 0.0:
        hi += 1.0
    mu = brentq(mass_defect, lo, hi, xtol=1e-300, rtol=1e-15)
    energy = integral(
        lambda r, rho: 2.0 * C_TF * rho ** (5.0 / 3.0) + 2.0 * (offset + r**s) * rho + g * rho * rho,
        mu,
    )
    return {"mu": mu, "energy": energy}


def check_two_spin(ck, label, g, energy, mu, ref):
    ck.close(f"{label} energy", energy, ref["energy"], rtol=TWO_SPIN_RTOL)
    ck.close(f"{label} multiplier", mu, ref["mu"], rtol=TWO_SPIN_RTOL)


def cutoff_reference(p_F, offset):
    """Gap E_TF - E_TF_pF on V = offset + r^2.

    The cap saturates the multiplier at offset + p_F^2 while p_F^6 < 24;
    the regular part then has mass p_F^6 / 24 and the spike carries the
    rest, so E_TF_pF = offset + p_F^2 - p_F^8 / 96.  Above saturation the
    cap is inactive and the gap is exactly zero.
    """
    e_tf = offset + 0.75 * LAMBDA_HARMONIC
    if p_F**6 >= 24.0:
        return 0.0
    return e_tf - (offset + p_F**2 - p_F**8 / 96.0)


def check_cutoff_gaps(ck, label, p_list, gaps, offset):
    ck.require(len(gaps) == len(p_list), f"{label}: {len(gaps)} gaps for {len(p_list)} caps")
    for p, gap in zip(p_list, gaps):
        ck.close(f"{label} gap at p_F={p}", gap, cutoff_reference(p, offset), atol=1e-9)


# ------------------------------------------------------------ phase space


def counts_reference(Lam, offset):
    """n_cl = mu^3/48 and e_cl = mu^4/64 + offset mu^3/48 on V = offset + r^2."""
    mu = max(Lam - offset, 0.0)
    return mu**3 / 48.0, mu**4 / 64.0 + offset * mu**3 / 48.0


def check_counts(ck, label, Lam, n_cl, e_cl, offset):
    n_ref, e_ref = counts_reference(Lam, offset)
    ck.close(f"{label} n_cl at Lambda={Lam}", n_cl, n_ref, rtol=COUNT_RTOL, atol=1e-14)
    ck.close(f"{label} e_cl at Lambda={Lam}", e_cl, e_ref, rtol=COUNT_RTOL, atol=1e-14)


def check_filling(ck, label, target, Lam, offset):
    ck.close(f"{label} level for n_cl={target}", Lam, offset + (48.0 * target) ** (1.0 / 3.0), rtol=COUNT_RTOL)


def gradient_reference(x, f):
    """Second-order central differences inside, one-sided at the ends."""
    n = len(x)
    out = [0.0] * n
    out[0] = (f[1] - f[0]) / (x[1] - x[0])
    out[-1] = (f[-1] - f[-2]) / (x[-1] - x[-2])
    for i in range(1, n - 1):
        hd = x[i] - x[i - 1]
        hs = x[i + 1] - x[i]
        out[i] = (hs * hs * f[i + 1] + (hd * hd - hs * hs) * f[i] - hd * hd * f[i - 1]) / (
            hs * hd * (hd + hs)
        )
    return out


# -------------------------------------------------------------- scattering


def barrier_length(amplitude, radius):
    """Scattering length of amplitude * 1{r <= R}: R - tanh(kR)/k, k = sqrt(amplitude/2)."""
    k = math.sqrt(amplitude / 2.0)
    return radius - math.tanh(k * radius) / k


def barrier_profile(r, amplitude, radius):
    """Zero-energy solution normalized to u = r - a outside the barrier."""
    k = math.sqrt(amplitude / 2.0)
    if r >= radius:
        return r - barrier_length(amplitude, radius)
    return math.sinh(k * r) / (k * math.cosh(k * radius))


def check_barrier(ck, label, amplitude, radius, a):
    ck.close(f"{label} a at amplitude {amplitude}", a, barrier_length(amplitude, radius), atol=SCATTER_ATOL)


# ----------------------------------------------------------------- spectra


def oscillator_shells(hbar, lambda_max, offset):
    """(level, degeneracy) of -hbar^2 Lap + |x|^2 + offset in 3d up to lambda_max."""
    out = []
    n = 0
    while offset + hbar * (2 * n + 3) <= lambda_max:
        out.append((offset + hbar * (2 * n + 3), (n + 1) * (n + 2) // 2))
        n += 1
    return out


def check_fd_oscillator(ck, label, hbar, h, energies):
    """1d finite-difference levels against hbar (2n + 1).

    The second difference adds -h^2 p^4 / (12 hbar^2) to the kinetic
    term; with <p^4>_n = hbar^2 (6n^2 + 6n + 3)/4 the level shift is
    h^2 (6n^2 + 6n + 3)/48.  The bound allows twice that.
    """
    for n, e in enumerate(energies):
        bound = h * h * (6 * n * n + 6 * n + 3) / 24.0
        ck.close(f"{label} level {n}", e, hbar * (2 * n + 1), atol=bound)


def wkb_count(q, Lam, hbar):
    """Levels of -hbar^2 d^2/dx^2 + x^q below Lam from (n + 1/2) pi hbar = S(E).

    S(E) = 2 E^(1/2 + 1/q) B(1/q, 3/2) / q.  Returns the count and the
    distance of S/(pi hbar) + 1/2 from the nearest integer, which must be
    clear of zero for the count to be decided.
    """
    action = 2.0 * Lam ** (0.5 + 1.0 / q) * beta_fn(1.0 / q, 1.5) / q
    x = action / (math.pi * hbar) + 0.5
    return int(math.floor(x)), abs(x - round(x))


def check_weyl_fd(ck, label, q, Lam, Ns, n_q, n_cl):
    ck.close(f"{label} n_cl", n_cl, 2.0 * Lam ** (0.5 + 1.0 / q) * beta_fn(1.0 / q, 1.5) / q / math.pi, rtol=1e-5)
    for N, count in zip(Ns, n_q):
        ref, margin = wkb_count(q, Lam, 1.0 / N)
        if ck.require(margin > 0.05, f"{label}: WKB count at N={N} too close to a level to decide"):
            ck.require(count == ref, f"{label} n_q at N={N}: got {count}, WKB gives {ref}")


def check_husimi(ck, label, resolution, m_min, m_max, kinetic=None, kinetic_ref=None):
    ck.require(resolution <= HUSIMI_RESOLUTION_BOUND, f"{label} resolution residual {resolution!r} > 1e-6")
    ck.require(m_min >= 0.0, f"{label} Husimi minimum {m_min!r} < 0")
    ck.require(m_max <= 1.0 + 1e-9, f"{label} Husimi maximum {m_max!r} > 1")
    if kinetic is not None:
        ck.require(kinetic <= 1e-6 * kinetic_ref, f"{label} kinetic residual {kinetic!r} > 1e-6 reference")


def hermite_function(k, y):
    """Orthonormal oscillator function psi_k(y) from the Hermite polynomial."""
    from scipy.special import eval_hermite

    norm = math.exp(-0.5 * (k * math.log(2.0) + math.lgamma(k + 1.0) + 0.5 * math.log(math.pi)))
    return norm * float(eval_hermite(k, y)) * math.exp(-0.5 * y * y)


def free_density_reference(hbar, M, r):
    """Radial density of the M lowest 3d oscillator states at radius r.

    Sums |psi_a(r) psi_b(0) psi_c(0)|^2 over a + b + c = n shell by shell,
    in scaled units y = r / sqrt(hbar); the top shell is filled uniformly
    (fractional weight).
    """
    weights = []
    left = float(M)
    while left > 0:
        deg = (len(weights) + 1) * (len(weights) + 2) // 2
        weights.append(min(1.0, left / deg))
        left -= weights[-1] * deg
    top = len(weights)
    at_r = [hermite_function(k, r / math.sqrt(hbar)) ** 2 for k in range(top)]
    at_0 = [hermite_function(k, 0.0) ** 2 for k in range(top)]
    total = 0.0
    for n, weight in enumerate(weights):
        for a in range(n + 1):
            total += weight * at_r[a] * sum(at_0[b] * at_0[n - a - b] for b in range(n - a + 1))
    return total * hbar**-1.5


def check_free_density(ck, label, hbar, M, radii, values):
    for r, val in zip(radii, values):
        ck.close(f"{label} density at r={r}", val, free_density_reference(hbar, M, r), rtol=1e-9, atol=1e-12)


def l1_reference(nodes, f_vals, g_vals, refine=32):
    """L1 distance (weight 4 pi r^2) of two piecewise-linear profiles, by dense trapezoid."""
    import numpy as np

    nodes = np.asarray(nodes, dtype=float)
    fine = np.linspace(nodes[0], nodes[-1], (len(nodes) - 1) * refine + 1)
    diff = np.abs(np.interp(fine, nodes, f_vals) - np.interp(fine, nodes, g_vals))
    return float(np.trapezoid(diff * 4.0 * math.pi * fine * fine, fine))


def check_l1_ladder(ck, label, Ms, traces, dists, dist_refs):
    for M, tr in zip(Ms, traces):
        ck.close(f"{label} trace of rank {M}", tr, M, rtol=1e-6)
    for d, ref in zip(dists, dist_refs):
        ck.close(f"{label} L1 distance", d, ref, rtol=L1_RTOL)
    ck.require(all(b < a for a, b in zip(dists, dists[1:])), f"{label} L1 distances {dists} not decreasing")


# -------------------------------------------------------------- asymptotics


def window_l(N, beta):
    """Midpoint box side of the admissible window N^e, e between the two bounds."""
    e_hi = 1.0 / 3.0 - beta
    e_lo = max(-27.0 / 21.0 * (1.0 - 3.0 * beta) - beta, beta / 3.0 - 4.0 / 9.0)
    return float(N) ** ((e_hi + e_lo) / 2.0)


def prediction_reference(N, beta, e_tf, rho2, a_w):
    main = N * e_tf
    return main, 2.0 * math.pi * a_w * float(N) ** (4.0 / 3.0 - beta) * rho2


def budget_reference(N, beta):
    """f(N) with delta = eps, p_F^-2 = eps N^(1/3-beta), s^2 = eps^2 N^(1/3-beta), R = eps hbar."""
    A = N ** (-1.0 / 18.0) + N ** (1.0 / 6.0 - beta / 2.0)
    eps = A ** 0.125
    R = eps * N ** (-1.0 / 3.0)
    s2 = eps * eps * N ** (1.0 / 3.0 - beta)
    inv_pf2 = eps * N ** (1.0 / 3.0 - beta)
    terms = {
        "bulk_term": N ** (5.0 / 6.0),
        "cutoff_term": inv_pf2 * N,
        "softening_term": N ** (1.0 / 3.0 - beta) * A * (R**-3 + 1.0 / (eps * s2 * R)) / eps,
        "remainder_term": N ** (1.0 / 3.0 - beta) / (eps * s2 * R),
    }
    total = sum(terms.values())
    terms.update(
        epsilon=eps, p_F=inv_pf2**-0.5, s=math.sqrt(s2), R=R, total=total,
        ratio=total / N ** (4.0 / 3.0 - beta),
    )
    return terms


def cube_orbit_key(center, pitch):
    """Cells mapped onto each other by the cube's 48 symmetries share this key."""
    return tuple(sorted(abs(int(round(2.0 * c / pitch))) for c in center))


def check_boxes(ck, label, N, masses, centers, pitch):
    """N <= 2 sum M_i < N + 2 (occupied cells), and M_i constant on cube orbits."""
    total = 2 * sum(int(m) for m in masses)
    occupied = sum(1 for m in masses if m > 0)
    ck.require(N <= total < N + 2 * occupied, f"{label}: 2 sum M_i = {total} outside [{N}, {N + 2 * occupied})")
    orbit = {}
    broken = 0
    for c, m in zip(centers, masses):
        broken += orbit.setdefault(cube_orbit_key(c, pitch), int(m)) != int(m)
    ck.require(broken == 0, f"{label}: {broken} cells differ in mass from their cube-symmetric images")
