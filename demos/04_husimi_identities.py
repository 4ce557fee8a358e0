# Coherent-state (Husimi) identities on a one-dimensional sinc-DVR catalog.  The
# resolution of identity and the kinetic convolution identity hold to
# quadrature precision; the potential smearing shrinks with the spatial
# width; the occupation function respects the exclusion bound 0 <= m <= 1.

import math

from dilutefermi.spectra import coherent_identity_check_1d, dvr_catalog_1d, free_ground_state_density_fn

print("harmonic 1d catalog, 10 filled levels, default split sqrt(hx) = hp = h^(2/3)")
print("  hbar    resolution    kinetic        potential    lowfreq      m_max")
for hbar in (0.05, 0.025):
    cat = dvr_catalog_1d(lambda x: x * x, hbar, 4.0, 1001, 21.0 * hbar + 0.01)
    rep = coherent_identity_check_1d(cat, 10)
    print(
        f"  {hbar:<6} {rep.resolution_residual:.2e}   "
        f"{rep.kinetic_identity_residual:.2e} (of {rep.kinetic_reference:.3f})   "
        f"{rep.potential_identity_residual:.3e}   "
        f"{rep.lowfreq_identity_residual:.2e}   {rep.m_max:.8f}"
    )

print("\nthe potential residual is the exact smearing hbar_x tr(gamma) <y^2>_f:")
for hbar in (0.05, 0.025):
    print(f"  hbar={hbar}: hbar^(4/3) * 10 / 2 = {hbar ** (4 / 3) * 5:.5e}")

# --- the filled free state approaches the minimizer's density ------------
import numpy as np

from dilutefermi.numerics import RadialProfile, lp_distance
from dilutefermi.potentials import harmonic_trap
from dilutefermi.thomas_fermi import tf_solve

base = tf_solve(harmonic_trap(0.0))
nodes = np.linspace(0.0, 6.0, 2049)
ref = RadialProfile(nodes, base.rho_fn(nodes))
print("\nL1 distance between 2 rho_M / N and the minimizer (hbar = N^(-1/3), M = N/2)")
for N in (100, 1000, 10000):
    fn = free_ground_state_density_fn(float(N) ** (-1 / 3), math.ceil(N / 2))
    prof = RadialProfile(nodes, 2.0 * fn(nodes) / N)
    print(f"  N={N:>6}: {lp_distance(prof, ref, 1.0):.5f}")
