# The unit-mass density functional in a harmonic trap has a fully
# closed-form solution, which makes it the reference point for everything
# else in the package.  This script solves it numerically and lines the
# results up against the exact constants.

import math

import numpy as np

from dilutefermi.potentials import harmonic_trap, power_trap
from dilutefermi.thomas_fermi import KAPPA, tf_solve, tf_functional, two_spin_minimize
from dilutefermi.numerics import RadialProfile

# --- bare harmonic trap V = |x|^2 --------------------------------------
# The multiplier solves lam^3 / 24 = 1 and the energy is (3/4) lam.
sol = tf_solve(harmonic_trap(0.0))
lam_exact = 24.0 ** (1.0 / 3.0)

print("bare harmonic trap")
print(f"  multiplier   {sol.lambda_TF:.12f}   exact {lam_exact:.12f}")
print(f"  energy       {sol.E_TF:.12f}   exact {0.75 * lam_exact:.12f}")
print(f"  int V rho    {sol.potential_integral:.12f}   exact {lam_exact**4 / 64:.12f}")
inter_exact = (64.0 / 2835.0) * 24.0**1.5 / math.pi**3
print(f"  int rho^2    {sol.interaction_integral:.12f}   exact {inter_exact:.12f}")
print(f"  support      {sol.support_radius:.12f}   exact {math.sqrt(lam_exact):.12f}")
print(f"  EL residual  {sol.lagrange_residual:.2e}")

# --- the density is literally the inverted multiplier equation ---------
r = np.array([0.0, 0.5, 1.0, 1.5])
print("\n  r, rho, kappa rho^(2/3) + V  (should equal the multiplier on the support)")
for ri in r:
    rho = sol.rho_fn(np.array([ri]))[0]
    if rho > 0:
        print(f"  {ri:4.2f}  {rho:.6f}  {KAPPA * rho ** (2 / 3) + ri * ri:.12f}")

# --- adding a constant to the trap shifts the multiplier, not the density
shifted = tf_solve(harmonic_trap(1.0))
print("\noffset trap V = 1 + |x|^2")
print(f"  multiplier   {shifted.lambda_TF:.12f}   exact {1 + lam_exact:.12f}")

# --- any other unit-mass density costs more ----------------------------
nodes = np.linspace(0.0, 3.0, 513)
w = np.gradient(nodes) * 4 * math.pi * nodes**2
trial_vals = np.exp(-nodes**2)
trial = RadialProfile(nodes, trial_vals / (w @ trial_vals))
print("\nvariational check: gaussian trial density")
print(f"  trial energy {tf_functional(harmonic_trap(0.0), trial):.6f}  >  {sol.E_TF:.6f}")

# --- a quartic trap works the same way, just without closed forms -------
quartic = tf_solve(power_trap(4.0))
print("\nquartic trap V = 1 + |x|^4")
print(f"  multiplier {quartic.lambda_TF:.8f}, energy {quartic.E_TF:.8f}, "
      f"mass {quartic.mass:.10f}")

# --- two coupled spin densities -----------------------------------------
# At coupling g the minimum shifts by (g/4) int rho^2 to first order.
print("\ntwo-spin coupling sweep (slope should approach int rho^2 / 4 = "
      f"{sol.interaction_integral / 4:.6f})")
for g in (0.2, 0.1, 0.05):
    st = two_spin_minimize(harmonic_trap(0.0), g)
    print(f"  g={g:4.2f}  energy {st.energy:.8f}  slope {(st.energy - sol.E_TF) / g:.6f}")
