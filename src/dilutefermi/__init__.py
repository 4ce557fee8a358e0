"""Numerical laboratory for the ground-state energy of a trapped dilute two-spin Fermi gas.

The package decomposes into small, pure submodules:

- ``numerics``: quadrature of trial profiles, L^p profile distances
- ``potentials``: radial trap families
- ``thomas_fermi``: single-spin, two-spin and momentum-cutoff density functionals
- ``scattering``: zero-energy scattering lengths and the Dyson kit
- ``semiclassics``: phase-space counting and filling levels
- ``spectra``: eigenvalue catalogs, Weyl scans, Husimi identities
- ``asymptotics``: two-term energy prediction, box estimates, error budget
- ``acceptance``: the 17 criteria of ``verify-all``, each one registered
  check that returns ``(passed, details)``
- ``cli``: configuration-driven command line front end, the one writer of the
  emitted CSV tables and their JSON mirrors
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    asymptotics,
    numerics,
    potentials,
    scattering,
    semiclassics,
    spectra,
    thomas_fermi,
)
