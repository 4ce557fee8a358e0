"""Trap potential families and curvature diagnostics.

Built-in traps are radial and confining with V >= 1 (the normalization
the rest of the pipeline assumes); a bare harmonic variant without the
offset is exposed for closed-form testing.  The curvature diagnostic
reports the smallest constants bounding |Lap V|, |grad Lap V| and the
squared Hessian norm against powers of V on a deterministic radial
sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import RadialProfile

__all__ = [
    "Potential",
    "H1Report",
    "ConfigurationError",
    "UnsupportedDiagnosticError",
    "harmonic_trap",
    "power_trap",
    "custom_radial_trap",
    "h1_diagnostic",
]


class ConfigurationError(ValueError):
    """A configuration value or trap parameter is unknown or out of range."""


class UnsupportedDiagnosticError(RuntimeError):
    """The requested diagnostic needs derivatives the potential cannot provide."""


@dataclass(frozen=True)
class Potential:
    """Evaluable trap potential.

    ``radial_fn`` maps radii (ndarray-ready) to energies.  For radial
    potentials ``__call__`` accepts either radii or (..., 3) position
    arrays.  Analytic derivative callables are populated for built-ins
    only; ``None`` marks them unavailable.  Every trap must be
    nondecreasing along each ray from the origin.  ``kinks`` are the
    radii where a radial trap is not smooth (the nodes of a
    ``custom_radial`` table); level integrals put panel edges there.
    """

    kind: str
    radial: bool
    growth: float
    radial_fn: object
    laplacian: object = None
    grad_laplacian_norm: object = None
    hessian_frobenius_sq: object = None
    eval_3d: object = None
    kinks: tuple = field(default=(), init=False)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim >= 1 and x.shape[-1] == 3 and not self.radial:
            return self.eval_3d(x)
        if x.ndim >= 1 and x.shape[-1] == 3:
            r = np.sqrt(np.sum(x * x, axis=-1))
            return self.radial_fn(r)
        if not self.radial:
            raise ValueError("non-radial potential requires (..., 3) positions")
        return self.radial_fn(x)

    @property
    def has_derivatives(self):
        return self.laplacian is not None

    def min_value(self):
        """V at the origin, the minimum of a trap nondecreasing along every ray."""
        return float(self(np.zeros(3)))


@dataclass(frozen=True)
class H1Report:
    """Smallest sampled constants in the three trap-curvature bounds."""

    radius: float
    samples: int
    c1: float  # |Lap V|      <= c1 * V^2
    c2: float  # |grad Lap V| <= c2 * V
    c3: float  # sum |d_jk V|^2 <= c3 * V^2
    passed: bool
    sample_radii: np.ndarray = field(repr=False, default=None)


def harmonic_trap(offset=0.0):
    """V(x) = offset + |x|^2.  offset=1 is the standard built-in; offset=0
    is the bare variant used by the closed-form oracles."""

    def fn(r):
        r = np.asarray(r, dtype=float)
        return offset + r * r

    return Potential(
        kind="harmonic_plus_one" if offset == 1.0 else "harmonic",
        radial=True,
        growth=2.0,
        radial_fn=fn,
        laplacian=lambda r: np.full_like(np.asarray(r, dtype=float), 6.0),
        grad_laplacian_norm=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        hessian_frobenius_sq=lambda r: np.full_like(np.asarray(r, dtype=float), 12.0),
    )


def power_trap(s):
    """V(x) = 1 + |x|^s with s > 1."""
    if not s > 1:
        raise ConfigurationError(f"power trap needs growth s > 1, got s={s}")
    s = float(s)

    def fn(r):
        r = np.asarray(r, dtype=float)
        return 1.0 + r**s

    def lap(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = s * (s + 1.0) * r ** (s - 2.0)
        if s == 2.0:
            return np.full_like(r, 6.0)
        return np.where(r == 0.0, 0.0 if s > 2.0 else np.inf, out)

    def grad_lap(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.abs(s * (s + 1.0) * (s - 2.0)) * r ** (s - 3.0)
        if s == 2.0:
            return np.zeros_like(r)
        return np.where(r == 0.0, 0.0 if s > 3.0 else np.inf, out)

    def hess_sq(r):
        # Hessian of r^s: s r^(s-2) Id + s (s-2) r^(s-4) x x^T
        r = np.asarray(r, dtype=float)
        coef = s * s * (s * s - 2.0 * s + 3.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = coef * r ** (2.0 * s - 4.0)
        if s == 2.0:
            return np.full_like(r, 12.0)
        return np.where(r == 0.0, 0.0 if s > 2.0 else np.inf, out)

    return Potential(
        kind="power_plus_one",
        radial=True,
        growth=s,
        radial_fn=fn,
        laplacian=lap,
        grad_laplacian_norm=grad_lap,
        hessian_frobenius_sq=hess_sq,
    )


# growth exponent of a custom trap beyond its last node
CUSTOM_GROWTH = 2.0


def custom_radial_trap(table: RadialProfile):
    """Trap interpolated from a radial table with a quadratic tail.

    The table must be confining in the declared sense: values >= 1 and
    nondecreasing.  Beyond the last node the trap continues as
    V(last) * (r / r_last)^CUSTOM_GROWTH.  The table has no analytic
    derivatives, so the curvature diagnostic refuses it.
    """
    if np.min(table.values) < 1.0:
        raise ConfigurationError("custom trap values must satisfy V >= 1")
    if np.any(np.diff(table.values) < 0):
        raise ConfigurationError("custom trap table must be nondecreasing")
    r_last = table.r_max
    v_last = float(table.values[-1])

    def fn(r):
        r = np.asarray(r, dtype=float)
        inside = np.interp(r, table.nodes, table.values)
        return np.where(r <= r_last, inside, v_last * (r / r_last) ** CUSTOM_GROWTH)

    trap = Potential(
        kind="custom_radial",
        radial=True,
        growth=CUSTOM_GROWTH,
        radial_fn=fn,
    )
    object.__setattr__(trap, "kinks", tuple(table.nodes.tolist()))
    return trap


def h1_diagnostic(v: Potential, radius, samples=1024):
    """Smallest constants bounding the trap-curvature inequalities on a ball.

    Sampling is a deterministic uniform radial ladder including the
    origin and the boundary; built-in traps are radial, so radii capture
    the exact suprema up to ladder resolution.  Calls at radii that are
    integer multiples of a common spacing use nested samples, which
    makes the reported constants monotone in the radius.
    """
    if not v.has_derivatives:
        raise UnsupportedDiagnosticError(
            f"potential kind {v.kind!r} has no analytic derivatives"
        )
    if radius <= 0 or samples < 2:
        raise ValueError("need radius > 0 and samples >= 2")
    radii = np.linspace(0.0, float(radius), int(samples) + 1)
    vv = np.asarray(v.radial_fn(radii), dtype=float)
    with np.errstate(invalid="ignore"):
        c1 = np.max(np.asarray(v.laplacian(radii), dtype=float) / vv**2)
        c2 = np.max(np.asarray(v.grad_laplacian_norm(radii), dtype=float) / vv)
        c3 = np.max(np.asarray(v.hessian_frobenius_sq(radii), dtype=float) / vv**2)
    c1, c2, c3 = (float(abs(c)) for c in (c1, c2, c3))
    passed = all(np.isfinite(c) for c in (c1, c2, c3))
    return H1Report(
        radius=float(radius),
        samples=int(samples) + 1,
        c1=c1,
        c2=c2,
        c3=c3,
        passed=passed,
        sample_radii=radii,
    )
