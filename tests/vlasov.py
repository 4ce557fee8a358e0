"""Phase-space (Vlasov) energy of explicit trial occupations, a test oracle.

Integrates a radial occupation m(r, p) against dx dp / (2 pi)^3 with
Simpson's rule in r and in p, so bathtub occupations can be checked
against the Thomas-Fermi minimum.
"""

import math

import numpy as np


def _simpson_weights(x):
    n = len(x)
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson weights need an odd number of nodes >= 3")
    h = x[1] - x[0]
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def vlasov_energy(v, occupation, r_nodes, p_nodes):
    """Phase-space energy and mass of a radial trial occupation.

    ``occupation`` is either a callable m(r, p) or an array of shape
    (len(r_nodes), len(p_nodes)) with values in [0, 2]; the measure is
    dx dp / (2 pi)^3 with both factors radial.  Returns (energy, mass).
    """
    r = np.asarray(r_nodes, dtype=float)
    p = np.asarray(p_nodes, dtype=float)
    if callable(occupation):
        m = np.asarray(occupation(r[:, None], p[None, :]), dtype=float)
    else:
        m = np.asarray(occupation, dtype=float)
    if m.shape != (r.size, p.size):
        raise ValueError("occupation shape must be (len(r), len(p))")
    if np.min(m) < -1e-12 or np.max(m) > 2.0 + 1e-12:
        raise ValueError("occupation must take values in [0, 2]")
    wr = _simpson_weights(r) * 4.0 * np.pi * r * r
    wp = _simpson_weights(p) * 4.0 * np.pi * p * p
    vv = v.radial_fn(r)
    norm = (2.0 * math.pi) ** 3
    mass = float(wr @ m @ wp) / norm
    energy = float(wr @ (m * (vv[:, None] + p[None, :] ** 2)) @ wp) / norm
    return energy, mass
