"""Shared deterministic numeric kernel.

Adaptive radial quadrature of trial profiles and L^p distances between
radial profiles, which vanish beyond their last node.  Level multipliers
are fixed elsewhere, by Newton steps from above in ``thomas_fermi``.
Everything here is pure: no global mutable state, no randomness,
identical inputs give identical outputs.
"""

from __future__ import annotations

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


def _abs_power_moment(u, p, k):
    """Antiderivative of |t|^p t^k evaluated from 0 to u (p > -1)."""
    q = p + k + 1.0
    if u >= 0.0:
        return u**q / q
    return (-1.0) ** (k + 1) * (-u) ** q / q


def _segment_lp_mass(d0, d1, r0, r1, p):
    """Integral of |delta(r)|^p 4 pi r^2 on [r0, r1] to machine accuracy.

    delta is the linear interpolant through (r0, d0), (r1, d1).  When
    the difference varies strongly across the segment (including every
    zero crossing, split exactly) the closed form via u = delta(r) is
    well conditioned and exact.  When it varies weakly the closed form
    cancels catastrophically, but then |delta|^p is analytic with
    geometrically small derivatives and a fixed Gauss panel is exact to
    machine precision.
    """
    length = r1 - r0
    if length <= 0:
        return 0.0
    scale = max(abs(d0), abs(d1))
    if scale == 0.0:
        return 0.0
    if scale < 1e-100:
        dm = 0.5 * (abs(d0) + abs(d1))
        return dm**p * (4.0 * np.pi / 3.0) * (r1**3 - r0**3)
    s = (d1 - d0) / length
    if d0 * d1 < 0:
        rc = r0 - d0 / s
        return _segment_lp_mass(d0, 0.0, r0, rc, p) + _segment_lp_mass(0.0, d1, rc, r1, p)
    if abs(d1 - d0) <= 0.5 * scale:
        # same sign, mild variation: |d0 + s (r - r0)|^p has Taylor
        # coefficients decaying like 2^-n, so GL10 is exact in floats
        mid = 0.5 * (r0 + r1)
        half = 0.5 * length
        pts = mid + half * _GL_X
        vals = np.abs(d0 + s * (pts - r0)) ** p * 4.0 * np.pi * pts * pts
        return float(half * (vals @ _GL_W))
    alpha = r0 - d0 / s

    def moments(u):
        return (
            _abs_power_moment(u, p, 0),
            _abs_power_moment(u, p, 1),
            _abs_power_moment(u, p, 2),
        )

    m1 = moments(d1)
    m0 = moments(d0)
    f0 = m1[0] - m0[0]
    f1 = m1[1] - m0[1]
    f2 = m1[2] - m0[2]
    return 4.0 * np.pi / s * (alpha * alpha * f0 + 2.0 * alpha / s * f1 + f2 / (s * s))


def lp_distance(f, g, p):
    """L^p distance (weight 4 pi r^2) between two radial profiles.

    The union of both node sets defines segments on which both
    interpolants are linear; each segment is integrated in closed form,
    so the only approximation is the interpolants themselves.  Both
    profiles are evaluated once at all nodes; the segment masses are
    summed in node order.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
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
    total = 0.0
    for a, b, d0, d1 in zip(
        nodes[:-1].tolist(), nodes[1:].tolist(), (fa - ga).tolist(), (fb - gb).tolist()
    ):
        total += _segment_lp_mass(d0, d1, a, b, p)
    return max(total, 0.0) ** (1.0 / p)
