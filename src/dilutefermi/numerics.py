"""Shared deterministic numeric kernel.

One Gauss-Legendre rule for every radial integral: ``_gauss_rule`` checks
order n against order 2n and doubles n up to a fixed cap.  The level
integrals of ``thomas_fermi`` run it on their support, and
``integrate_radial`` on the panels between given breakpoints.  Also L^p
distances between radial profiles, which vanish beyond their last node,
and the one least-squares slope of a log-log fit, ``_loglog_slope``.
Level multipliers are fixed elsewhere, by Newton steps from above in
``thomas_fermi``.
Everything here is pure: no global mutable state, no randomness,
identical inputs give identical outputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "RadialProfile",
    "RefinementError",
    "integrate_radial",
    "lp_distance",
]


class RefinementError(RuntimeError):
    """The Gauss rule hit its order cap before reaching the tolerance.

    Carries the last two estimates so callers can judge how far the
    refinement got.
    """

    def __init__(self, message, previous_estimate, last_estimate):
        super().__init__(message)
        self.previous_estimate = previous_estimate
        self.last_estimate = last_estimate


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair of ``integrate_radial``."""

    abs: float = 1e-10
    rel: float = 1e-10

    def __post_init__(self):
        if self.abs < 0 or self.rel < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.abs + self.rel <= 0:
            raise ValueError("abs + rel must be positive")


@dataclass(frozen=True)
class RadialProfile:
    """Sampled radial function that vanishes beyond its last node.

    Inside the node range values are linearly interpolated; below the
    first node the first value is held constant.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        if nodes.ndim != 1 or nodes.size < 16:
            raise ValueError("a radial profile needs at least 16 nodes")
        if values.shape != nodes.shape:
            raise ValueError("nodes and values must have matching shapes")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(values))):
            raise ValueError("nodes and values must be finite")

    @property
    def r_max(self):
        return float(self.nodes[-1])

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.interp(r, self.nodes, self.values)
        beyond = r > self.nodes[-1]
        if np.any(beyond):
            out = np.where(beyond, 0.0, out)
        return out


# 10-point Gauss-Legendre rule on [-1, 1], the panel rule of ``lp_distance``.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)

# the shared Gauss rule: order n is checked against order 2n; n starts at
# _RULE_START and doubles up to _RULE_CAP
_RULE_START = 16
_RULE_CAP = 256


@functools.cache
def _gauss(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], n even, correctly rounded.

    Two Newton steps on P_n in 34-digit decimal arithmetic from NumPy's
    nodes, then w = 2 / ((1 - x^2) P_n'(x)^2) with P_n' taken at the node
    after one step.  NumPy's nodes start within about 1e-16, so one
    quadratic step leaves them within about 1e-32 and the second moves
    them below the last digit a double keeps.  NumPy's own weights err
    by up to 1e-11 relative at n = 128, which moved level integrals by
    several ulp.  ``decimal`` loads on the first call.
    """
    from decimal import Decimal, localcontext

    def legendre(t):
        p_prev, p = Decimal(1), t
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * t * p - (k - 1) * p_prev) / k
        return p, n * (t * p - p_prev) / (t * t - 1)

    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = 34
        for guess in np.polynomial.legendre.leggauss(n)[0][: n // 2]:
            t = Decimal(float(guess))
            for _ in range(2):  # the second step moves t by about 1e-32
                p, dp = legendre(t)
                t -= p / dp
            nodes.append(float(t))
            weights.append(float(2 / ((1 - t * t) * dp * dp)))
    # the rule is symmetric, and every order used is even
    return np.array(nodes + [-x for x in reversed(nodes)]), np.array(weights + weights[::-1])


def _node_sum(vals, w):
    """Sum over the rows of ``vals`` weighted by ``w``, one row after another.

    Element-wise products and sums in a fixed order, not a BLAS dot
    product, whose rounding depends on the row count and the CPU's kernel.
    """
    acc = vals[0] * w[0]
    for row, wj in zip(vals[1:], w[1:]):
        acc = acc + row * wj
    return acc


def _gauss_rule(panel, what, per):
    """Estimates of ``panel`` by the n-against-2n Gauss-Legendre rule.

    ``panel(x, w)`` integrates with the n-point rule's nodes ``x`` and
    weights ``w`` on [-1, 1] and returns its estimates and their error
    budgets, two arrays of one shape.  n starts at ``_RULE_START``; the
    2n estimates are returned once each differs from the n estimate by
    at most its budget, and n doubles until then.  Past ``_RULE_CAP`` a
    ``RefinementError`` ("{what} did not converge with 2n points per
    {per}") carries both estimates.
    """
    n = _RULE_START
    coarse, _ = panel(*_gauss(n))
    while True:
        fine, budget = panel(*_gauss(2 * n))
        if np.all(np.abs(fine - coarse) <= budget):
            return fine
        if n >= _RULE_CAP:
            raise RefinementError(
                f"{what} did not converge with {2 * n} points per {per}",
                previous_estimate=coarse,
                last_estimate=fine,
            )
        n, coarse = 2 * n, fine


def integrate_radial(f, r_max, tol=Tolerance(), breakpoints=()):
    """Integrate f(r) * 4*pi*r^2 over [0, r_max] by the shared Gauss rule.

    ``f`` must accept ndarray input.  ``breakpoints`` are radii that split
    [0, r_max] into panels (e.g. support boundaries of (lam - V)_+
    integrands), so no panel straddles a known kink.  Every panel takes
    the same order, one call of ``f`` per order samples them all, and
    each panel's n-against-2n difference must pass
    max(tol.abs (b - a) / r_max, tol.rel |estimate|).  Each panel sums its
    nodes by ``_node_sum`` and the panels add up in order, so no BLAS
    kernel rounds the result.
    """
    if r_max <= 0:
        raise ValueError("r_max must be positive")
    inner = sorted(x for x in set(map(float, breakpoints)) if 0.0 < x < r_max)
    edges = np.array([0.0, *inner, float(r_max)])
    a, b = edges[:-1], edges[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    floor = tol.abs * (b - a) / r_max

    def panel(x, w):
        r = mid + half * x[:, None]  # one row per Gauss node
        vals = 4.0 * np.pi * r * r * np.asarray(f(r.ravel()), dtype=float).reshape(r.shape)
        est = half * _node_sum(vals, w)
        return est, np.maximum(floor, tol.rel * np.abs(est))

    return float(np.add.accumulate(_gauss_rule(panel, "radial quadrature", "panel"))[-1])


def _moments(u, p):
    """Antiderivatives of |t|^p t^k from 0 to u, for k = 0, 1, 2.

    |u|^(p+k+1) is |u|^p times k + 1 factors |u|, so only the p-th power
    goes through ``pow``, and at p = 1 and 2 not even that (see
    ``lp_distance``).
    """
    a = np.abs(u)
    neg = u < 0  # for even k the antiderivative is odd in u
    power = a**p
    out = []
    for k in range(3):
        power = power * a
        m = power / (p + k + 1.0)
        out.append(np.where(neg, -m, m) if k % 2 == 0 else m)
    return out


def _gauss_masses(d0, d1, r0, r1, p):
    """Mild-variation rule: one 10-point Gauss panel per segment."""
    length = r1 - r0
    s = (d1 - d0) / length
    mid = 0.5 * (r0 + r1)
    half = 0.5 * length
    pts = mid + half * _GL_X[:, None]  # one row per Gauss node
    vals = np.abs(d0 + s * (pts - r0)) ** p * 4.0 * np.pi * pts * pts
    return half * _node_sum(vals, _GL_W)


def _closed_form_masses(d0, d1, r0, r1, p):
    """Strong-variation rule: exact moments in u = delta(r)."""
    s = (d1 - d0) / (r1 - r0)
    alpha = r0 - d0 / s
    m1 = _moments(d1, p)
    m0 = _moments(d0, p)
    f0 = m1[0] - m0[0]
    f1 = m1[1] - m0[1]
    f2 = m1[2] - m0[2]
    return 4.0 * np.pi / s * (alpha * alpha * f0 + 2.0 * alpha / s * f1 + f2 / (s * s))


def _segment_masses(d0, d1, r0, r1, p):
    """Integral of |delta(r)|^p 4 pi r^2 on every segment [r0, r1].

    delta is the linear interpolant through (r0, d0), (r1, d1); all four
    arguments are arrays of one length.  Masks pick one rule per segment:

    - no length or scale = max(|d0|, |d1|) = 0: mass 0;
    - scale < 1e-100: the midpoint rule, where the powers would
      underflow;
    - a zero crossing (d0 d1 < 0): split at rc = r0 - d0/s, each half
      taking the rules below in a second call that recomputes its own
      length and slope;
    - mild variation, |d1 - d0| <= scale/2: |d0 + s (r - r0)|^p has
      Taylor coefficients decaying like 2^-n, so a 10-point Gauss panel
      is exact in floats, where the closed form would cancel;
    - otherwise the closed-form moments in u = delta(r), well
      conditioned and exact.
    """
    length = r1 - r0
    scale = np.maximum(np.abs(d0), np.abs(d1))
    mass = np.zeros(length.shape)
    live = (length > 0) & (scale != 0.0)
    tiny = live & (scale < 1e-100)
    live &= ~tiny
    cross = live & (d0 * d1 < 0)
    live &= ~cross
    mild = live & (np.abs(d1 - d0) <= 0.5 * scale)
    steep = live & ~mild
    if tiny.any():
        a, b = r0[tiny], r1[tiny]
        dm = 0.5 * (np.abs(d0[tiny]) + np.abs(d1[tiny]))
        mass[tiny] = dm**p * (4.0 * np.pi / 3.0) * (b * b * b - a * a * a)
    if cross.any():
        c0, c1, a, b = d0[cross], d1[cross], r0[cross], r1[cross]
        rc = a - c0 / ((c1 - c0) / (b - a))
        zero = np.zeros(rc.shape)
        mass[cross] = _segment_masses(c0, zero, a, rc, p) + _segment_masses(zero, c1, rc, b, p)
    for rule, sel in ((_gauss_masses, mild), (_closed_form_masses, steep)):
        if sel.any():
            mass[sel] = rule(d0[sel], d1[sel], r0[sel], r1[sel], p)
    return mass


def lp_distance(f, g, p):
    """L^p distance (weight 4 pi r^2) between two radial profiles, p >= 1.

    The union of both node sets defines segments on which both
    interpolants are linear, so the only approximation is the
    interpolants themselves.  Both profiles are evaluated once at all
    nodes, and one pass of array operations integrates every segment
    (``_segment_masses`` gives the rule masks).  The Gauss panels reduce
    their ten columns by ``_node_sum``, and the segment masses are then
    added sequentially in node order.  So a segment's mass does not depend on
    how many segments share its rule, and no BLAS kernel is called.  At
    p = 1 and 2 NumPy's power returns |x| and |x|*|x| exactly, so the
    result is the same under every SIMD dispatch; at other p the last
    bit of NumPy's ``pow`` follows the dispatch.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")
    if not isinstance(f, RadialProfile) or not isinstance(g, RadialProfile):
        raise TypeError("lp_distance expects RadialProfile inputs")
    r_hi = max(f.r_max, g.r_max)
    nodes = np.union1d(np.concatenate([[0.0], f.nodes, g.nodes]), [r_hi])
    nodes = nodes[(nodes >= 0.0) & (nodes <= r_hi)]

    def segment_values(prof):
        # one-sided values at both ends of every segment; beyond its
        # last node a profile is exactly 0
        vals = prof(nodes)
        outside = nodes[:-1] >= prof.r_max
        return np.where(outside, 0.0, vals[:-1]), np.where(outside, 0.0, vals[1:])

    fa, fb = segment_values(f)
    ga, gb = segment_values(g)
    mass = _segment_masses(fa - ga, fb - gb, nodes[:-1], nodes[1:], p)
    total = float(np.add.accumulate(mass)[-1])
    return max(total, 0.0) ** (1.0 / p)


def _loglog_slope(xs, ys):
    """Least-squares slope of log10 y against log10 x over the points with
    y > 0, inf below two points: sum (u - u_bar)(w - w_bar) over
    sum (u - u_bar)^2 of u = log10 x, w = log10 y, with correctly rounded
    sums, so no BLAS kernel sets its digits."""
    pts = [(math.log10(x), math.log10(y)) for x, y in zip(xs, ys) if y > 0]
    if len(pts) < 2:
        return math.inf
    u_bar = math.fsum(u for u, _ in pts) / len(pts)
    w_bar = math.fsum(w for _, w in pts) / len(pts)
    suw = math.fsum((u - u_bar) * (w - w_bar) for u, w in pts)
    suu = math.fsum((u - u_bar) ** 2 for u, _ in pts)
    return suw / suu
