"""The box estimator and the Husimi path give the fields they gave before
their working memory was bounded, bit for bit.

The digests (``test_level_rule._fields_digest``, a SHA-256 prefix over
every numeric field) cover every field of ``box_estimate`` at N = 10^6,
beta = 0.4 and a barrier of height 2, from l0 to l0/8, and every field of
the x^2 catalog and of its Husimi report (fill 10, as criterion 15 runs
them) at hbar = 0.05 and 0.025.  The catalog's convergence estimate
depends on the BLAS thread count, so the digests are taken in a child
process held to one BLAS thread, the benchmark's count.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_level_rule import RECORDED_DISPATCH, _fields_digest, _numpy_dispatch

from dilutefermi import spectra
from dilutefermi.asymptotics import beta_l_window, box_estimate, make_context
from dilutefermi.potentials import harmonic_trap
from dilutefermi.scattering import square_barrier
from dilutefermi.spectra import coherent_identity_check_1d, dvr_catalog_1d
from dilutefermi.thomas_fermi import tf_solve

# as the estimator with np.unique's orbit sort and the Husimi path with its
# index-table windows and per-level temporaries gave them
RECORDED_KERNEL_DIGESTS = {
    "box l0/1": "0c04a64ab3c1c2a0",
    "box l0/2": "3e26173cf9afe9d6",
    "box l0/4": "b1e27b8f21458dc0",
    "box l0/8": "f3b56a8eb793f3e3",
    "catalog hbar=0.05": "25aeaec1e8b7e5ea",
    "husimi hbar=0.05": "71b00f7235d7f86a",
    "catalog hbar=0.025": "eb7dd502cc64aea6",
    "husimi hbar=0.025": "322afc2f27ba6cb0",
}


def kernel_digests():
    """``_fields_digest`` of each box estimate, catalog and Husimi report above."""
    v = harmonic_trap(0.0)
    tf = tf_solve(v)
    ctx = make_context(10**6, 0.40, square_barrier(2.0))
    l0 = beta_l_window(0.40, 10**6).chosen_l
    out = {f"box l0/{d}": _fields_digest(box_estimate(v, ctx, l0 / d, tf)) for d in (1, 2, 4, 8)}
    for hbar in (0.05, 0.025):
        cat = dvr_catalog_1d(lambda x: x * x, hbar, 4.0, 1001, 21.0 * hbar + 0.01)
        out[f"catalog hbar={hbar}"] = _fields_digest(cat)
        out[f"husimi hbar={hbar}"] = _fields_digest(coherent_identity_check_1d(cat, 10))
    return out


def test_box_and_husimi_fields_keep_their_bits():
    if _numpy_dispatch() != RECORDED_DISPATCH:
        pytest.skip(f"fields recorded under NumPy's {RECORDED_DISPATCH} kernels, not {_numpy_dispatch()}")
    one = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    path = os.pathsep.join([str(Path(spectra.__file__).resolve().parents[1]), str(Path(__file__).parent)])
    run = subprocess.run(
        [sys.executable, "-c", "from test_kernel_bits import kernel_digests; print(kernel_digests())"],
        env={**os.environ, **one, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert ast.literal_eval(run.stdout) == RECORDED_KERNEL_DIGESTS
