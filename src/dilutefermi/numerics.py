"""Shared deterministic numeric kernel.

Adaptive radial quadrature of trial profiles and L^p distances between
radial profiles, which vanish beyond their last node.  Level multipliers
are fixed elsewhere, by Newton steps from above in ``thomas_fermi``.
Everything here is pure: no global mutable state, no randomness,
identical inputs give identical outputs.
"""

from __future__ import annotations

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
    """Adaptive refinement hit its cap before reaching the tolerance.

    Carries the last two global estimates so callers can judge how far
    the refinement got.
    """

    def __init__(self, message, previous_estimate, last_estimate):
        super().__init__(message)
        self.previous_estimate = previous_estimate
        self.last_estimate = last_estimate


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair plus a refinement cap."""

    abs: float = 1e-10
    rel: float = 1e-10
    max_refinements: int = 48

    def __post_init__(self):
        if self.abs < 0 or self.rel < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.abs + self.rel <= 0:
            raise ValueError("abs + rel must be positive")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")


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


# 10-point Gauss-Legendre rule on [-1, 1], the workhorse panel rule.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)


def _panel_samples(f, a, b):
    """Half-widths and Gauss-Legendre samples of ``f`` on many panels at once.

    a, b: arrays of panel edges.  Returns ``(half, vals)`` with one row
    of ``vals`` per panel, from a single vectorized call to ``f``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * _GL_X[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    return half, vals


def _panel_values(f, a, b):
    """Gauss-Legendre estimates of ``f`` over the panels [a, b]."""
    half, vals = _panel_samples(f, a, b)
    return half * (vals @ _GL_W)


def integrate_radial(f, r_max, tol=Tolerance(), breakpoints=()):
    """Integrate f(r) * 4*pi*r^2 over [0, r_max] adaptively.

    ``f`` must accept ndarray input.  ``breakpoints`` are radii inserted
    as initial panel edges (e.g. support boundaries of (lam - V)_+
    integrands) so the refinement never straddles a known kink.  The
    panel error estimate is the difference between one Gauss panel and
    its two halves; panels are bisected until the estimate passes.

    Each refinement level samples ``f`` once, on the Gauss points of all
    left and right halves together.  The weight products stay two, one
    per half: BLAS ``gemv`` may round a row differently depending on
    how many rows it is given, so a single product over both halves
    would move the last digits of the result.
    """
    if r_max <= 0:
        raise ValueError("r_max must be positive")

    def weighted(r):
        r = np.asarray(r, dtype=float)
        return 4.0 * np.pi * r * r * np.asarray(f(r), dtype=float)

    edges = [0.0]
    for b in sorted(set(float(x) for x in breakpoints)):
        if 0.0 < b < r_max:
            edges.append(b)
    edges.append(float(r_max))
    a = np.array(edges[:-1])
    b = np.array(edges[1:])
    coarse = _panel_values(weighted, a, b)

    total = 0.0
    depth = 0
    while a.size:
        mids = 0.5 * (a + b)
        half, vals = _panel_samples(weighted, np.concatenate([a, mids]), np.concatenate([mids, b]))
        if depth > tol.max_refinements:
            raise RefinementError(
                "radial quadrature did not converge within "
                f"{tol.max_refinements} refinements",
                previous_estimate=total + float(np.sum(coarse)),
                last_estimate=total + float(np.sum(half * (vals @ _GL_W))),
            )
        k = a.size
        left = half[:k] * (vals[:k] @ _GL_W)
        right = half[k:] * (vals[k:] @ _GL_W)
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
    acc = vals[0] * _GL_W[0]
    for row, w in zip(vals[1:], _GL_W[1:]):
        acc = acc + row * w
    return half * acc


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
    their ten columns one after another with element-wise products and
    sums, not a BLAS dot product, whose rounding depends on the row
    count and the CPU's kernel; the segment masses are then added
    sequentially in node order.  So a segment's mass does not depend on
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
