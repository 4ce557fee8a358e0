"""Trap potential families.

Built-in traps are radial and confining with V >= 1 (the normalization
the rest of the pipeline assumes); a bare harmonic variant without the
offset is exposed for closed-form testing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Potential",
    "ConfigurationError",
    "harmonic_trap",
    "power_trap",
]


class ConfigurationError(ValueError):
    """A configuration value or trap parameter is unknown or out of range."""


@dataclass(frozen=True)
class Potential:
    """Evaluable trap potential.

    ``radial_fn`` maps radii (ndarray-ready) to energies.  For radial
    potentials ``__call__`` accepts either radii or (..., 3) position
    arrays.  Every trap must be nondecreasing along each ray from the
    origin.
    """

    radial: bool
    growth: float
    radial_fn: object
    eval_3d: object = None

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

    def min_value(self):
        """V at the origin, the minimum of a trap nondecreasing along every ray."""
        return float(self(np.zeros(3)))


def harmonic_trap(offset=0.0):
    """V(x) = offset + |x|^2.  offset=1 is the standard built-in; offset=0
    is the bare variant used by the closed-form oracles."""

    def fn(r):
        r = np.asarray(r, dtype=float)
        return offset + r * r

    return Potential(radial=True, growth=2.0, radial_fn=fn)


def power_trap(s):
    """V(x) = 1 + |x|^s with s > 1."""
    if not s > 1:
        raise ConfigurationError(f"power trap needs growth s > 1, got s={s}")
    s = float(s)

    def fn(r):
        r = np.asarray(r, dtype=float)
        return 1.0 + r**s

    return Potential(radial=True, growth=s, radial_fn=fn)
