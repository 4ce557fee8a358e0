"""The level rule's support search and sums against the code they replaced.

The support search must return the same float as the 63-section search it
replaced, kept below as the reference, and the solvers built on the rule
must reproduce the earlier release's fields bit for bit.  A work budget
pins how many level integrals and support-search trace calls a solve takes.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from dilutefermi import semiclassics as scl
from dilutefermi import numerics, spectra
from dilutefermi.numerics import RadialProfile
from dilutefermi.potentials import Potential, harmonic_trap, power_trap
from dilutefermi.thomas_fermi import cutoff_gap_scan, tf_solve, two_spin_minimize


def _support_reference(trace, rays, lam, sections_total=64):
    """The 63-section support search the current one replaced, unchanged.

    ``sections_total`` is the search's ``_SECTIONS``; passing 64 * rays
    gives every ray the 63 points per step a lone ray gets, so levels
    stacked as rays of one call are searched exactly as one by one.
    """
    lo = np.zeros(rays)
    hi = np.ones(rays)
    for _ in range(200):
        inside = trace(hi[:, None])[:, 0] <= lam
        if not inside.any():
            break
        lo = np.where(inside, hi, lo)
        hi = np.where(inside, 2.0 * hi, hi)
    else:
        raise numerics.NormalizationError("potential does not exceed the multiplier; not confining?")
    sections = max(2, sections_total // rays)
    steps = np.arange(1, sections) / sections
    rows = np.arange(rays)
    while (np.nextafter(lo, hi) < hi).any():
        pts = np.minimum(lo[:, None] + (hi - lo)[:, None] * steps, hi[:, None])
        inside = trace(pts) <= lam
        last = np.sum(inside, axis=1)  # points inside come first on a nondecreasing ray
        lo = np.where(last > 0, pts[rows, np.maximum(last - 1, 0)], lo)
        hi = np.where(last < sections - 1, pts[rows, np.minimum(last, sections - 2)], hi)
    return lo


# a table trap: V = 1 + r^2 at the nodes, held at 2 from the node at 1 to the one at 1.4,
# interpolated linearly and continued as 10 (r / 3)^2 beyond the last node
_NODES = np.linspace(0.0, 3.0, 31)
_PLATEAU = np.concatenate([1.0 + _NODES[:10] ** 2, np.full(5, 2.0), 1.0 + _NODES[15:] ** 2])


def _plateau_trap():
    def fn(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= 3, np.interp(r, _NODES, _PLATEAU), 10 * (r / 3) ** 2)

    return Potential(growth=2.0, radial_fn=fn)


RADIAL_TRAPS = {
    "harmonic": harmonic_trap(0.0),
    "harmonic+1": harmonic_trap(1.0),
    **{f"power s={s}": power_trap(s) for s in (1.2, 2.5, 3.0, 4.0, 6.0)},
    "custom with plateau": _plateau_trap(),
}


def _levels(vmin, count, seed):
    """Random levels 1e-12 to 1e3 above vmin, uniform in log."""
    return vmin + 10.0 ** np.random.default_rng(seed).uniform(-12.0, 3.0, count)


@pytest.mark.parametrize("name", list(RADIAL_TRAPS))
def test_support_search_matches_the_reference_on_radial_traps(name):
    rays = numerics._rays(RADIAL_TRAPS[name])
    assert rays.weights.size == 1
    levels = _levels(rays.vmin, 2000, seed=len(name))
    if name.startswith("custom"):
        levels = np.append(levels, 2.0)  # the plateau's own level: R is its far end
    got = np.array([numerics._support(rays.trace, 1, lam)[0] for lam in levels])
    # the reference, one level per row; V - lam <= 0 exactly when V <= lam
    want = _support_reference(lambda r: rays.trace(r) - levels[:, None], levels.size, 0.0, 64 * levels.size)
    assert np.array_equal(got, want), np.flatnonzero(got != want)[:5]
    if name.startswith("custom"):
        assert got[-1] == _NODES[14]


def test_support_search_matches_the_reference_on_the_1152_ray_trap():
    # 1152 rays in one call, the sections shared among them: a radial trap's
    # levels stacked as rays, one per ray and call, through V - lam <= 0
    n = 1152
    for seed, name in ((2, "harmonic"), (3, "power s=3.0")):
        rays = numerics._rays(RADIAL_TRAPS[name])
        levels = _levels(rays.vmin, n, seed)

        def trace(r, levels=levels):
            return rays.trace(r) - levels[:, None]

        assert np.array_equal(numerics._support(trace, n, 0.0), _support_reference(trace, n, 0.0))


def test_support_search_takes_few_trace_calls():
    # a lone ray: at most 6 calls on a level far from the trap's rounding floor
    rays = numerics._rays(harmonic_trap(1.0))
    calls = []

    def trace(r):
        calls.append(r.shape)
        return rays.trace(r)

    counts = []
    for lam in np.linspace(1.5, 25.0, 48):
        calls.clear()
        numerics._support(trace, 1, lam)
        counts.append(len(calls))
    assert max(counts) <= 6, counts


def test_level_solves_raise_the_error_of_their_failure():
    # V = 2 - 1/(1 + r^2) stays below 2, so no level from 2 up has a support
    # edge: the classical counts diverge, and no density has unit mass
    v = Potential(growth=0.0, radial_fn=lambda r: 2.0 - 1.0 / (1.0 + np.asarray(r, dtype=float) ** 2))
    with pytest.raises(scl.DivergenceError):
        scl.phase_space_counts(v, 3.0)
    with pytest.raises(scl.DivergenceError):
        scl.lambda_for_filling(v, 10.0)
    for solve in (tf_solve, lambda v: two_spin_minimize(v, 0.1), lambda v: cutoff_gap_scan(v, [1.0])):
        with pytest.raises(numerics.NormalizationError, match="not confining"):
            solve(v)
    # a target no doubling of the level reaches fails the bracket, on a trap that confines
    for target in (math.inf, 1e300):
        with pytest.raises(numerics.NormalizationError, match="could not bracket the filling level"):
            scl.lambda_for_filling(harmonic_trap(1.0), target)


def _fields_digest(state):
    """SHA-256 prefix over every numeric field of a solver's result, arrays by their bytes."""
    h = hashlib.sha256()
    for f in dataclasses.fields(state):
        value = getattr(state, f.name)
        if isinstance(value, RadialProfile):
            value = np.concatenate([value.nodes, value.values])
        if isinstance(value, np.ndarray):
            h.update(f.name.encode() + value.tobytes())
        elif isinstance(value, (int, float)):
            h.update(f.name.encode() + repr(value).encode())
    return h.hexdigest()[:16]


SWEEP_TRAPS = {
    "harmonic": harmonic_trap(0.0),
    "harmonic+1": harmonic_trap(1.0),
    "power s=3": power_trap(3.0),
    "power s=4": power_trap(4.0),
    "power s=6": power_trap(6.0),
}
COUPLINGS = (0.2, 0.1, 0.05, 0.025)
FILLINGS = (0.5, 1.0, 2.0)

# per trap: the tf_solve digest, the two_spin_minimize digests at COUPLINGS and
# the lambda_for_filling levels at FILLINGS, as the 63-section search and the
# per-field sums gave them
RECORDED = {
    "harmonic": (
        "9e9101819c3c10dc",
        ("8da7eeba9b32ddb0", "8c6f51169e2ce3a9", "9bfab126228dfd30", "97f327b938c42dc3"),
        (2.8844991406148166, 3.634241185664279, 4.5788569702133275),
    ),
    "harmonic+1": (
        "6c14803c282bb057",
        ("3846f7de2725bc9f", "f5d58bdbcad553be", "fc7c842285f09738", "fb9d9be46598fe95"),
        (3.8844991406148166, 4.634241185664279, 5.5788569702133275),
    ),
    "power s=3": (
        "5db7321640700236",
        ("084e6fe14a191f7a", "3729ac1e03d1afbd", "6affb7780efce7a9", "95faa2330cc4347f"),
        (4.154343315924505, 5.162180958655988, 6.492030701014884),
    ),
    "power s=4": (
        "2c2e006d8ed7d2e4",
        ("89cbcecb44ef8cf5", "889a8e2a3ae564bf", "683829cdef2fa704", "a79a52492bbe0796"),
        (4.3071279572469106, 5.50030665351871, 7.123972291826476),
    ),
    "power s=6": (
        "1c535650011c387f",
        ("9c975fe21956c3c1", "d938ac10fa2e0052", "0e13206c3666fa54", "b07ae1c4075a101e"),
        (4.464101615137754, 5.898979485566356, 7.928203230275509),
    ),
}


def _numpy_dispatch():
    """The SIMD targets NumPy dispatches its kernels to on this CPU, or None if unknown."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return None
    return sorted(t for t in __cpu_dispatch__ if __cpu_features__.get(t))


# the digests hold for these kernels: NumPy's pow differs in the last bit between
# its AVX-512, AVX2 and baseline paths
RECORDED_DISPATCH = ["AVX512_ICL", "AVX512_SPR", "X86_V3", "X86_V4"]


@pytest.mark.parametrize("name", list(SWEEP_TRAPS))
def test_solvers_reproduce_the_recorded_fields_bit_for_bit(name):
    if _numpy_dispatch() != RECORDED_DISPATCH:
        pytest.skip(f"fields recorded under NumPy's {RECORDED_DISPATCH} kernels, not {_numpy_dispatch()}")
    v = SWEEP_TRAPS[name]
    tf_digest, two_spin_digests, levels = RECORDED[name]
    assert _fields_digest(tf_solve(v)) == tf_digest
    assert tuple(_fields_digest(two_spin_minimize(v, g)) for g in COUPLINGS) == two_spin_digests
    assert tuple(scl.lambda_for_filling(v, t) for t in FILLINGS) == levels


def test_tf_solve_work_budget(monkeypatch):
    # per tf_solve: level integrals, support searches (the final integrals reuse
    # the last Newton step's edges) and the searches' trace calls; the
    # benchmark's tracer does not see these, so this pins them
    counts = {"level": 0, "search": 0, "trace": 0}
    level_integrals, support = numerics._level_integrals, numerics._support

    def counting_level_integrals(*args):
        counts["level"] += 1
        return level_integrals(*args)

    def counting_support(trace, count, lam):
        counts["search"] += 1

        def counting_trace(r):
            counts["trace"] += 1
            return trace(r)

        return support(counting_trace, count, lam)

    monkeypatch.setattr(numerics, "_level_integrals", counting_level_integrals)
    monkeypatch.setattr(numerics, "_support", counting_support)
    got = {}
    for name, v in SWEEP_TRAPS.items():
        counts.update(level=0, search=0, trace=0)
        tf_solve(v)
        got[name] = (counts["level"], counts["search"], counts["trace"])
    assert got == {
        "harmonic": (9, 8, 38),
        "harmonic+1": (9, 8, 38),
        "power s=3": (9, 8, 39),
        "power s=4": (9, 8, 39),
        "power s=6": (8, 7, 34),
    }


# the 1-d classical counts at Lambda = 2 of x^2 and x^4, two half-lines each,
# as the level rule with a panel per kink gave them
RECORDED_RAYS = {
    "1-d x^2 counts": (1.0000000000000002, 1.0),
    "1-d x^4 counts": (0.9357796256510102, 0.80209682198658),
}


def test_every_ray_geometry_reproduces_the_recorded_values_bit_for_bit():
    if _numpy_dispatch() != RECORDED_DISPATCH:
        pytest.skip(f"values recorded under NumPy's {RECORDED_DISPATCH} kernels, not {_numpy_dispatch()}")
    got = {
        "1-d x^2 counts": spectra._counts_cl_1d(np.square, 2.0, 3.0),
        "1-d x^4 counts": spectra._counts_cl_1d(lambda x: x**4, 2.0, 3.0),
    }
    assert got == RECORDED_RAYS
