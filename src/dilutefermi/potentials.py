"""Radial trap potential families.

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
    """Radial trap potential.

    ``radial_fn`` maps radii (ndarray-ready) to energies and must be
    nondecreasing in the radius; ``asymptotics.box_estimate`` relies on
    this to take a box's sup at its farthest corner.
    """

    growth: float
    radial_fn: object

    def min_value(self):
        """V at the origin, the minimum of a trap nondecreasing in the radius."""
        return float(self.radial_fn(0.0))


def harmonic_trap(offset=0.0):
    """V(x) = offset + |x|^2.  offset=1 is the standard built-in; offset=0
    is the bare variant used by the closed-form oracles."""

    def fn(r):
        r = np.asarray(r, dtype=float)
        return offset + r * r

    return Potential(growth=2.0, radial_fn=fn)


def power_trap(s):
    """V(x) = 1 + |x|^s with s > 1."""
    if not s > 1:
        raise ConfigurationError(f"power trap needs growth s > 1, got s={s}")
    s = float(s)

    def fn(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):  # V = +inf where r^s overflows
            return 1.0 + r**s

    return Potential(growth=s, radial_fn=fn)
