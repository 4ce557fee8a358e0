# Phase-space counting against exact eigenvalue catalogs.  With
# hbar = N^(-1/3) the quantum count and energy below a fixed level agree
# with N times their phase-space versions up to errors well below N.

import numpy as np

from dilutefermi.potentials import harmonic_trap
from dilutefermi.semiclassics import h2_probe, lambda_for_filling, phase_space_counts
from dilutefermi.spectra import weyl_error_scan
from dilutefermi.thomas_fermi import tf_solve

v = harmonic_trap(0.0)

# --- counting functions and the filling level ---------------------------
print("phase-space counts for V = |x|^2 (exact: n = L^3/48, e = L^4/64)")
for lam in (1.0, 2.0, 3.0):
    b = phase_space_counts(v, lam)
    print(f"  L={lam:3.1f}  n={b.n_cl:.8f} ({lam**3 / 48:.8f})  "
          f"e={b.e_cl:.8f} ({lam**4 / 64:.8f})  e_tilde={b.e_tilde:.6f}")

lam1 = lambda_for_filling(v, 1.0)
print(f"\nlevel filling one particle per spin pair: {lam1:.9f} "
      f"(exact {48 ** (1 / 3):.9f})")

# the minimizer's multiplier fills exactly one half per spin
sol = tf_solve(v)
print(f"count at the minimizer's multiplier: {phase_space_counts(v, sol.lambda_TF).n_cl:.9f} "
      "(should be 1/2)")

# --- smoothness probe of the count ---------------------------------------
rep = h2_probe(v, np.arange(1.0, 5.01, 0.1))
print(f"\nsmoothness probe: score={rep.score:.4f} flagged={rep.flagged}")

# --- quantum vs semiclassical counting errors ----------------------------
lam = 48.0 ** (1.0 / 3.0)
scan = weyl_error_scan({"kind": "harmonic"}, [10**3, 10**4, 10**5, 10**6], lam)
print(f"\ncounting errors at L = 48^(1/3), hbar = N^(-1/3)")
print("      N      n_q        |n_q - N n_cl|   |e_q - N e_cl|")
for N, nq, ne, ee in zip(scan.N, scan.n_q, scan.n_err, scan.e_err):
    print(f"  {N:>7}  {nq:>9}  {ne:>15.2f}  {ee:>15.2f}")
print(f"fitted growth exponents: counts {scan.n_exponent:.3f}, "
      f"energies {scan.e_exponent:.3f}  (envelope 8/9 + 0.05 = {8 / 9 + 0.05:.3f})")
