"""Quantum side of the semiclassical comparison.

Eigenvalue catalogs come from the analytic 3d isotropic harmonic
spectrum and from the Colbert-Miller sinc-DVR of an even one-dimensional
trap (dense 3d eigensolvers exceed desk scale, and the phase-space
identities are dimension-agnostic).  On top of the catalogs sit spectral
counting, Weyl-error exponent scans, the radial density of the filled
free ground state, and coherent-state (Husimi) identity checks.

The choices are fixed: the coherent states split hbar^2 into
hbar_x = hbar^(4/3) in position and hbar_p = hbar^(2/3) in momentum, the
low-frequency identity uses p_F = ``HUSIMI_P_F`` = 1, and configured sizes
stop at ``MAX_SAMPLE_POINTS`` sampling points, ``MAX_SHELLS`` shells and
``MAX_DENSITY_NODES`` density nodes.

The one-dimensional analog of the bulk scaling hbar = N^(-1/3) is
hbar = N^(-1), so the number of bound states below a fixed level again
grows like N.

The one-dimensional levels have one eigensolver, in NumPy alone:
``_settled_dvr_solve`` solves each grid of its ladder as the two parity
blocks of the even trap, once for its levels alone on the coarse probe
grids and once with its vectors on the grid kept, or tried, for the
catalog.  ``dvr_catalog_1d`` unfolds the kept grid's block vectors onto
the full grid, where the ``fd_1d`` Weyl scans keep the levels alone.
``fd_catalog_1d`` is ``dvr_catalog_1d`` under the older name that the
benchmark calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import DomainError, RadialProfile, _level_integrals, _loglog_slope, _Rays
from .semiclassics import phase_space_counts
from .potentials import harmonic_trap

__all__ = [
    "SpectralCatalog",
    "HusimiReport",
    "WeylScan",
    "TruncationError",
    "DomainTooSmallError",
    "DepthError",
    "ResolutionError",
    "harmonic_catalog",
    "fd_catalog_1d",
    "dvr_catalog_1d",
    "spectral_counts",
    "weyl_error_scan",
    "free_ground_state_density",
    "free_ground_state_density_fn",
    "coherent_identity_check_1d",
    "hermite_functions",
]


class TruncationError(ValueError):
    """Requested level lies beyond the catalog truncation."""


class DomainTooSmallError(RuntimeError):
    """Eigenfunctions reach the grid boundary; enlarge the domain."""


class DepthError(ValueError):
    """Shell index beyond the validated recurrence depth."""


class ResolutionError(RuntimeError):
    """Grid unable to represent the operator: too coarse for its levels or
    the coherent-state width, or a potential that is not finite on it."""


@dataclass
class SpectralCatalog:
    """Sorted eigenvalue list with degeneracies, complete below lambda_max.

    One-dimensional catalogs also carry their sampling grid, the potential,
    the eigenvectors sampled on the grid and the certificates of their
    sinc-DVR solve.  ``sturm_certified`` is True on every one of them: the
    coarser grid before the solve grid finds as many levels.
    """

    hbar: float
    energies: np.ndarray
    degeneracies: np.ndarray
    lambda_max: float
    grid: np.ndarray = field(repr=False, default=None)
    vectors: np.ndarray = field(repr=False, default=None)  # columns, unit h-weighted norm
    potential_1d: object = field(repr=False, default=None)
    sturm_certified: bool = None
    # sinc-DVR catalogs only: solve-grid nodes n_c, the momentum margin
    # pi hbar / h_c over sqrt(lambda_max - min v), the largest end mass
    # c_0^2 + c_{n-1}^2 and the largest level change against the coarser grid
    solve_nodes: int = None
    momentum_margin: float = None
    boundary_mass: float = None
    convergence_estimate: float = None

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        d = np.asarray(self.degeneracies, dtype=int)
        if np.any(np.diff(e) <= 0):
            raise ValueError("catalog energies must be strictly increasing")
        if np.any(d < 1):
            raise ValueError("degeneracies must be >= 1")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "degeneracies", d)


# points of the grid a configured one-dimensional catalog samples its
# eigenfunctions on: the sinc interpolation holds two points x n_c arrays
# of doubles and one of booleans, n_c <= MAX_DVR_NODES = 2048, so 66 + 66
# + 8 MB at the upper cap (a catalog of 4001 points and n_c = 1289 traces
# a 86 MiB peak, 2.2 such arrays of doubles).  The interpolation stays
# whole: its sinc @ c product has one column per level, so row tiles of
# it small enough to save memory take under 10^6 multiply-adds, and
# 64-row tiles moved 10366 of the 11011 vector elements at hbar = 0.05.
# The Husimi check on a catalog of 4001 points holds its table twice and
# one row tile: a 3.85 MiB peak at hbar = 0.05
MIN_SAMPLE_POINTS = 200
MAX_SAMPLE_POINTS = 4001
# nodes of a configured free-state density: its Hermite table holds
# (shells + 1) x nodes doubles, 105 MB at this cap and the 200-shell depth
MAX_DENSITY_NODES = 65537
# shells of one analytic catalog; the level count sum (n+1)(n+2)/2 of
# 10^6 shells is 1.7e17, well inside int64
MAX_SHELLS = 10**6


def harmonic_shell_count(hbar, lambda_max, offset=0.0):
    """Number of shells offset + hbar (2n + 3) <= lambda_max; at most MAX_SHELLS.

    Raises ValueError for a bad argument or a count past the cap, before
    anything is allocated.  The CLI calls this to reject a tiny
    ``spectra.hbar`` before it writes anything.
    """
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    if lambda_max <= offset:
        raise ValueError("lambda_max must exceed the offset")
    n_max = ((lambda_max - offset) / hbar - 3.0) / 2.0
    if not n_max < MAX_SHELLS:
        raise ValueError(
            f"hbar={hbar!r} puts more than {MAX_SHELLS} shells below lambda_max={lambda_max!r}"
        )
    return max(int(math.floor(n_max)) + 1, 0)


def harmonic_catalog(hbar, lambda_max, offset=0.0) -> SpectralCatalog:
    """Analytic catalog of -hbar^2 Lap + |x|^2 + offset up to lambda_max.

    Shell n carries energy offset + hbar (2n + 3) and degeneracy
    (n + 1)(n + 2) / 2.
    """
    ns = np.arange(harmonic_shell_count(hbar, lambda_max, offset))
    energies = offset + hbar * (2.0 * ns + 3.0)
    degs = ((ns + 1) * (ns + 2) // 2) if ns.size else np.ones(0, dtype=int)
    return SpectralCatalog(
        hbar=float(hbar),
        energies=energies,
        degeneracies=degs,
        lambda_max=float(lambda_max),
    )


# Largest end mass c_0^2 + c_{n-1}^2 of a unit sinc-DVR eigenvector on the
# grid a catalog keeps: more means the level reaches the ends of the domain.
MAX_BOUNDARY_MASS = 1e-8


def _allowed_region_samples(v, halfwidth, lambda_max):
    """v on 8191 points of [-halfwidth, halfwidth], where the classically
    allowed region {v <= lambda_max} must fit with a 20% margin on both
    sides (a DomainTooSmallError otherwise)."""
    xs = np.linspace(0.0, halfwidth, 4096)
    xs = np.concatenate((-xs[:0:-1], xs))
    with np.errstate(over="ignore", invalid="ignore"):
        vx = np.asarray(v(xs), dtype=float)
    turning = float(np.max(np.abs(xs[vx <= lambda_max]), initial=0.0))
    if turning * 1.2 > halfwidth:
        raise DomainTooSmallError(
            f"classically allowed region |x| <= {turning:.3g} needs a 20% margin "
            f"inside halfwidth {halfwidth}"
        )
    return vx


# The vector walk of the sinc-DVR ladder starts on the grid whose largest
# momentum pi hbar / h_c is this multiple of sqrt(lambda_max - min v), the
# largest classical momentum below lambda_max; the levels-only probes below
# it reach down to a multiple of 1.
_DVR_MARGIN = 2.5
# A sinc-DVR grid is settled when the grid before it on the ladder finds as
# many levels at or below lambda_max, none of them moved by more than this
# fraction of lambda_max - min v; once the grid's vectors are solved, by
# more than its largest end mass, if larger.
_DVR_SETTLED = 1e-12
# nodes of a sinc-DVR grid: its larger parity block, the largest dense
# solve, and the eigensolver's copy hold nodes^2 / 2 doubles, 17 MB at this
# cap, a quarter of the full matrix and its copy
MAX_DVR_NODES = 2048


def _kinetic_band(n):
    """t(0), ..., t(n-1) of the Colbert-Miller kinetic matrix t(|i - j|):
    pi^2 / 3, then 2 (-1)^k / k^2."""
    k = np.arange(1, n, dtype=float)
    return np.concatenate(([math.pi**2 / 3.0], np.where(k % 2.0, -2.0, 2.0) / (k * k)))


def _toeplitz(band, m):
    """The m x m matrix band[|i - j|] as a strided view, no index table built.

    Row i is the window of band[m-1..1], band[0..m-1] that starts at m - 1 - i.
    """
    stacked = np.concatenate((band[m - 1 : 0 : -1], band[:m]))
    return np.lib.stride_tricks.sliding_window_view(stacked, m)[::-1]


def _parity_block(v, hbar, halfwidth, n, sign):
    """The even (sign +1) or odd (sign -1) block of the Colbert-Miller
    sinc-DVR matrix of -hbar^2 d^2/dx^2 + v for an even v, in the basis
    (e_x +- e_-x) / sqrt(2) of the nodes x > 0, which come last in the block.

    The n nodes x_i = -halfwidth + i h, i = 1..n, split (-halfwidth,
    halfwidth) into n + 1 steps h, and the full matrix is hbar^2 / h^2
    times ``_kinetic_band``'s t(|i - j|) plus diag v(x_i).  Its kinetic
    block is t(|i - j|) + sign t(i + j) on the nodes x = i h, i = 1..m, of
    odd n = 2m + 1, and t(|i - j|) + sign t(i + j - 1) on the nodes
    x = (i - 1/2) h of even n = 2m.  The centre node x = 0 of odd n enters
    the even block alone, coupled by sqrt(2) t(i).  v is read on x >= 0
    only.
    """
    h = 2.0 * halfwidth / (n + 1)
    m, odd = divmod(n, 2)
    band = _kinetic_band(n)
    # Hankel part t(i + j + shift) for i, j = 0..m-1, a strided view
    shift = 2 if odd else 1
    hankel = np.lib.stride_tricks.sliding_window_view(band[shift:], m)[:m]
    x = h * (np.arange(m) + (1.0 if odd else 0.5))
    with np.errstate(over="ignore", invalid="ignore"):
        if odd and sign > 0:
            x = np.concatenate(([0.0], x))
            block = np.empty((m + 1, m + 1))
            block[0, 0] = band[0]
            block[0, 1:] = block[1:, 0] = math.sqrt(2.0) * band[1 : m + 1]
            block[1:, 1:] = _toeplitz(band, m) + hankel
        else:
            block = _toeplitz(band, m) + sign * hankel
        block *= (hbar / h) * (hbar / h)
        block[np.diag_indices(x.size)] += np.asarray(v(x), dtype=float)
    if not np.all(np.isfinite(block)):
        raise ResolutionError(
            f"the operator is not finite on the {n}-node grid of halfwidth {halfwidth}"
        )
    return block


def _dvr_eigenpairs(v, hbar, halfwidth, n, lambda_max):
    """Grid n's sorted levels at or below lambda_max, the (levels, vectors)
    of its even and odd blocks, solved one at a time, and its largest end
    mass c_0^2 + c_{n-1}^2, the last component^2 of a unit block vector."""
    blocks = []
    for sign in (1.0, -1.0):
        wb, ub = np.linalg.eigh(_parity_block(v, hbar, halfwidth, n, sign))
        blocks.append((wb[wb <= lambda_max], ub[:, wb <= lambda_max]))
        del ub  # the block's vectors are freed before the next block is built
    w = np.sort(np.concatenate([wb for wb, _ in blocks]))
    return w, blocks, max(float(np.max(u[-1] ** 2, initial=0.0)) for _, u in blocks)


def _level_change(coarse, w):
    """The largest level change between two grids, inf if their counts differ."""
    if coarse.size != w.size:
        return math.inf
    return float(np.max(np.abs(w - coarse), initial=0.0))


def _settled_dvr_solve(v, hbar, halfwidth, lambda_max):
    """Size a sinc-DVR grid for an even v and certify its levels.

    The ladder runs on grids whose largest momentum pi hbar / h is a
    multiple, the margin, of sqrt(lambda_max - min v).  n_1 is the coarsest
    grid, of at least 2 nodes, of margin ``_DVR_MARGIN``; below it come
    n_0 = min(ceil(0.8 n_1), n_1 - 1) and, by the same step, the probes down
    to the last grid of margin at least 1; above it n_{k+1} = ceil(1.25 n_k).
    Each grid is built as its two ``_parity_block`` blocks, one at a time.

    The probes and n_0 are solved for their levels alone, from the coarsest
    up.  Once a grid finds as many levels at or below lambda_max as the one
    before it, at least one, and moves none by more than ``_DVR_SETTLED``
    (lambda_max - min v), it is re-solved with its vectors and kept if its
    end mass, the largest c_0^2 + c_{n-1}^2, is at most
    ``MAX_BOUNDARY_MASS`` and its levels still agree within
    max(``_DVR_SETTLED``, end mass) (lambda_max - min v); an end mass above
    the limit only passes the walk on.  Failing that, n_1 and the grids
    above it are solved with their vectors until one agrees so with the
    grid before it; there an end mass above ``MAX_BOUNDARY_MASS`` raises.
    A level that reaches the ends moves with them, so no finer grid would
    settle it.

    Returns the kept grid's sorted levels at or below lambda_max, the
    (levels, vectors) of its even and odd blocks, and the certificate
    fields of ``SpectralCatalog``; ``convergence_estimate`` is the largest
    level change between the kept grid's levels and those of the grid
    before it.

    Raises, before any block is built, ``ValueError`` for a v whose 8191
    samples of the 20% turning-point check differ from their mirror images
    by more than 1e-12 relative, and ``ResolutionError`` for an n_1 past
    ``MAX_DVR_NODES`` or not finite; later, ``ResolutionError`` for a
    ladder that would pass the cap, ``TruncationError`` for no level below
    lambda_max and ``DomainTooSmallError`` for an end mass above
    ``MAX_BOUNDARY_MASS`` from n_1 on.
    """
    vx = _allowed_region_samples(v, halfwidth, lambda_max)
    v_min = float(np.min(vx))
    if not lambda_max > v_min:
        raise TruncationError("no eigenvalues below lambda_max; raise it or shrink hbar")
    span = lambda_max - v_min
    # n + 1 >= 2 halfwidth / h with pi hbar / h = margin sqrt(lambda_max - v_min)
    steps = 2.0 * halfwidth * _DVR_MARGIN * math.sqrt(span) / (math.pi * hbar)
    if not steps <= MAX_DVR_NODES + 1:
        raise ResolutionError(
            f"hbar={hbar!r} and halfwidth={halfwidth!r} need a sinc-DVR grid of about "
            f"{steps:.3g} nodes, more than {MAX_DVR_NODES}"
        )
    mid = vx.size // 2  # the sample at x = 0
    left, right = vx[mid - 1 :: -1], vx[mid + 1 :]  # v(-x) and v(x), x > 0
    if not np.all((left == right) | (np.abs(left - right) <= 1e-12 * np.abs(right))):
        raise ValueError("the parity-folded sinc-DVR needs an even trap v(-x) = v(x)")

    n_1 = max(math.ceil(steps) - 1, 2)
    probes = [min(math.ceil(0.8 * n_1), n_1 - 1)]  # n_0, then downwards to margin 1
    while True:
        n = min(math.ceil(0.8 * probes[-1]), probes[-1] - 1)
        if n < 1 or (n + 1) * _DVR_MARGIN < steps:
            break
        probes.append(n)
    coarse = None
    for n in reversed(probes):
        levels = np.sort(np.concatenate([
            np.linalg.eigvalsh(_parity_block(v, hbar, halfwidth, n, sign))
            for sign in (1.0, -1.0)
        ]))
        levels = levels[levels <= lambda_max]
        if coarse is not None and levels.size and (
            _level_change(coarse, levels) <= _DVR_SETTLED * span
        ):
            w, blocks, boundary_mass = _dvr_eigenpairs(v, hbar, halfwidth, n, lambda_max)
            change = _level_change(coarse, w)
            if boundary_mass <= MAX_BOUNDARY_MASS and (
                change <= max(_DVR_SETTLED, boundary_mass) * span
            ):
                break
        coarse, n_coarse = levels, n
    else:
        n = n_1
        while True:
            w, blocks, boundary_mass = _dvr_eigenpairs(v, hbar, halfwidth, n, lambda_max)
            if boundary_mass > MAX_BOUNDARY_MASS:
                raise DomainTooSmallError(
                    f"eigenfunction boundary mass {boundary_mass:.3e} exceeds 1e-8"
                )
            change = _level_change(coarse, w)
            if change <= max(_DVR_SETTLED, boundary_mass) * span:
                break
            if math.ceil(1.25 * n) > MAX_DVR_NODES:
                raise ResolutionError(
                    f"sinc-DVR grids of {n_coarse} and {n} nodes disagree on the levels below "
                    f"lambda_max={lambda_max!r}, and a finer grid would pass {MAX_DVR_NODES} nodes"
                )
            coarse, n_coarse, n = w, n, math.ceil(1.25 * n)
    if w.size == 0:
        raise TruncationError("no eigenvalues below lambda_max; raise it or shrink hbar")
    if np.any(np.diff(w) <= 0):
        raise ResolutionError(f"levels at hbar={hbar} coincide in floating point")
    h = 2.0 * halfwidth / (n + 1)
    return w, blocks, dict(
        sturm_certified=True,
        solve_nodes=n,
        momentum_margin=math.pi * hbar / h / math.sqrt(span),
        boundary_mass=boundary_mass,
        convergence_estimate=change,
    )


def _unfolded_vectors(blocks, n):
    """The n-node grid's unit vectors of the even and odd block eigenpairs
    ``blocks``, as columns in ascending order of their levels: the nodes
    x > 0 carry u / sqrt(2) and their mirror nodes +-u / sqrt(2); the centre
    node of an odd grid keeps an even vector's component, 0 in odd ones.
    """
    m, odd = divmod(n, 2)
    unfolded = []
    for sign, (_, u) in zip((1.0, -1.0), blocks):
        c = np.zeros((n, u.shape[1]))
        c[n - m :] = u[-m:] / math.sqrt(2.0)
        c[:m] = sign * c[n - m :][::-1]
        if odd and sign > 0:
            c[m] = u[0]
        unfolded.append(c)
    order = np.argsort(np.concatenate([w for w, _ in blocks]), kind="stable")
    return np.concatenate(unfolded, axis=1)[:, order]


def dvr_catalog_1d(v, hbar, halfwidth, points, lambda_max) -> SpectralCatalog:
    """Eigenpairs of -hbar^2 d^2/dx^2 + v for an even v on (-halfwidth,
    halfwidth) by the Colbert-Miller sinc-DVR (J. Chem. Phys. 96, 1982
    (1992)), in NumPy alone.

    The solve grid of n_c nodes x_i = -halfwidth + i h_c is the one
    ``_settled_dvr_solve`` keeps, which also raises the errors; it does not
    depend on ``points``.  Its block vectors unfold onto it
    (``_unfolded_vectors``), and the eigenfunctions psi(x) = sum_i c_i
    sinc((x - x_i) / h_c) / sqrt(h_c), which are band-limited, are
    evaluated exactly on the ``points`` interior points of the uniform
    grid of [-halfwidth, halfwidth], and renormalized there to
    h sum psi^2 = 1.

    Certificates: ``sturm_certified`` is True, for the coarser grid before
    n_c finds as many levels; ``convergence_estimate`` is the largest level
    change between the two; ``boundary_mass``, the largest end mass
    c_0^2 + c_{n-1}^2, is at most ``MAX_BOUNDARY_MASS``; and the
    classically allowed region fits with a 20% margin inside halfwidth.

    ValueError, before any solve, unless ``points`` is in
    [``MIN_SAMPLE_POINTS``, ``MAX_SAMPLE_POINTS``].
    """
    if not MIN_SAMPLE_POINTS <= points <= MAX_SAMPLE_POINTS:
        raise ValueError(f"points={points} outside [{MIN_SAMPLE_POINTS}, {MAX_SAMPLE_POINTS}]")
    w, blocks, certificates = _settled_dvr_solve(v, hbar, halfwidth, lambda_max)
    n = certificates["solve_nodes"]
    h = 2.0 * halfwidth / (n + 1)
    x = -halfwidth + h * np.arange(1, n + 1)
    c = _unfolded_vectors(blocks, n)
    grid = np.linspace(-halfwidth, halfwidth, points + 2)[1:-1]
    # np.sinc's own steps, in place: y = pi (g - x) / h, eps where y is 0, sin(y) / y
    y = grid[:, None] - x[None, :]
    y /= h
    y *= math.pi
    y[y == 0] = np.finfo(float).eps
    sinc = np.sin(y)
    sinc /= y
    del y
    psi = sinc @ c
    psi /= np.sqrt((grid[1] - grid[0]) * np.sum(psi * psi, axis=0))
    return SpectralCatalog(
        hbar=float(hbar),
        energies=w,
        degeneracies=np.ones(w.size, dtype=int),
        lambda_max=float(lambda_max),
        grid=grid,
        vectors=psi,
        potential_1d=v,
        **certificates,
    )


def fd_catalog_1d(v, hbar, halfwidth, points, lambda_max, keep_vectors=True):
    """``dvr_catalog_1d`` under the name the benchmark calls; ``keep_vectors`` is accepted and unread."""
    return dvr_catalog_1d(v, hbar, halfwidth, points, lambda_max)


def spectral_counts(catalog: SpectralCatalog, Lambda):
    """(number, energy) of catalog levels at or below Lambda."""
    if Lambda > catalog.lambda_max:
        raise TruncationError(
            f"Lambda={Lambda} beyond catalog truncation {catalog.lambda_max}"
        )
    mask = catalog.energies <= Lambda
    n_q = int(np.sum(catalog.degeneracies[mask]))
    e_q = float(np.sum(catalog.energies[mask] * catalog.degeneracies[mask]))
    return n_q, e_q


@dataclass
class WeylScan:
    """Quantum-vs-semiclassical counting errors along an N sweep."""

    N: list
    hbar: list
    n_q: list
    e_q: list
    n_cl: float
    e_cl: float
    n_err: list
    e_err: list
    n_exponent: float
    e_exponent: float

    @property
    def n_err_over_N(self):
        return [e / n for e, n in zip(self.n_err, self.N)]

    @property
    def e_err_over_N(self):
        return [e / n for e, n in zip(self.e_err, self.N)]


def _counts_cl_1d(v, Lambda, halfwidth):
    """n_cl and e_cl of a 1-d trap: (1/pi) times the integrals of (Lambda - v)^(1/2)
    and (Lambda - v)^(3/2) / 3 + v (Lambda - v)^(1/2) over {v <= Lambda}.

    v's minimum is taken on a 4097-point grid of [-halfwidth, halfwidth],
    where v must be nonincreasing to its left and nondecreasing to its
    right (a DomainError otherwise).  The level rule of ``numerics``
    then integrates along the two half-lines from it, with the same
    support search and edge-resolved Gauss rule as the 3-d counts.
    """
    xs = np.linspace(-halfwidth, halfwidth, 4097)
    vx = np.asarray(v(xs), dtype=float)
    i = int(np.argmin(vx))
    if np.any(np.diff(vx[: i + 1]) > 0.0) or np.any(np.diff(vx[i:]) < 0.0):
        raise DomainError("a 1-d trap must be nondecreasing away from its minimum")
    sides = np.array([[1.0], [-1.0]])

    def trace(r):
        return np.asarray(v(xs[i] + sides * r), dtype=float)

    def fields(gap, vr):
        root = np.sqrt(gap)
        return root, gap * root / 3.0 + vr * root

    rays = _Rays(np.ones(2), trace, float(vx[i]), dim=1)

    (n_cl, e_cl), _ = _level_integrals(rays, Lambda, fields)
    return float(n_cl) / math.pi, float(e_cl) / math.pi


def weyl_scan_sizes(N_list):
    """The N of a Weyl scan as ints; ValueError unless a valid sweep.

    A valid sweep is increasing, has at least two entries, starts at
    N >= 1 and spans at least two decades.  The CLI calls this to reject
    a bad ``sweeps.N`` before it writes anything.
    """
    Ns = [int(n) for n in N_list]
    if len(Ns) < 2 or any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("N_list must be increasing with at least two entries")
    if Ns[0] < 1:
        raise ValueError("N_list entries must be >= 1")
    if max(Ns) < 100 * min(Ns):
        raise ValueError("N_list must span at least two decades")
    return Ns


def weyl_error_scan(trap, N_list, Lambda) -> WeylScan:
    """Scan |n_q - N n_cl| and |e_q - N e_cl| over N with hbar tied to N.

    ``trap`` is {"kind": "harmonic", "offset": c} (offset 0 if absent)
    for the 3d analytic oracle with hbar = N^(-1/3), or
    {"kind": "fd_1d", "v": ..., "halfwidth": ..., "points": ...} for the
    one-dimensional oracle with hbar = N^(-1).  Least-squares slopes of
    log-error against log N are reported alongside the raw errors.

    The one-dimensional levels are those of ``dvr_catalog_1d``, from the
    same ``_settled_dvr_solve`` without the vectors' interpolation, so v
    must be even (a ``ValueError`` otherwise).  Its solve grid follows
    hbar, not ``points``: the key is accepted and unread.
    The kind keeps its name and key for callers that send them.
    """
    Ns = weyl_scan_sizes(N_list)
    if trap.get("kind") == "harmonic":
        offset = float(trap.get("offset", 0.0))
        budget = phase_space_counts(harmonic_trap(offset=offset), Lambda)
        n_cl, e_cl = budget.n_cl, budget.e_cl
        hbars = [n ** (-1.0 / 3.0) for n in Ns]
        counts = []
        for hb in hbars:
            cat = harmonic_catalog(hb, Lambda + 1e-12, offset=offset)
            counts.append(spectral_counts(cat, Lambda))
    elif trap.get("kind") == "fd_1d":
        v = trap["v"]
        halfwidth = float(trap["halfwidth"])
        n_cl, e_cl = _counts_cl_1d(v, Lambda, halfwidth)
        hbars = [1.0 / n for n in Ns]
        counts = []
        for hb in hbars:
            w = _settled_dvr_solve(v, hb, halfwidth, Lambda + 1e-12)[0]
            counts.append((int(np.count_nonzero(w <= Lambda)), float(np.sum(w[w <= Lambda]))))
    else:
        raise ValueError("trap must be a harmonic or an fd_1d spec")

    n_err = [abs(nq - n * n_cl) for (nq, _), n in zip(counts, Ns)]
    e_err = [abs(eq - n * e_cl) for (_, eq), n in zip(counts, Ns)]
    return WeylScan(
        N=Ns,
        hbar=hbars,
        n_q=[c[0] for c in counts],
        e_q=[c[1] for c in counts],
        n_cl=n_cl,
        e_cl=e_cl,
        n_err=n_err,
        e_err=e_err,
        n_exponent=_loglog_slope(Ns, n_err),
        e_exponent=_loglog_slope(Ns, e_err),
    )


def hermite_functions(n_max, x):
    """Orthonormal oscillator eigenfunctions psi_0..psi_n_max at x.

    Stable three-term recurrence on the normalized functions, so no
    factorials or overflow up to the validated depth of 200 shells.
    """
    if n_max > 200:
        raise DepthError("shell index beyond validated recurrence depth 200")
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1, x.size))
    out[0] = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = (
            math.sqrt(2.0 / (n + 1.0)) * x * out[n]
            - math.sqrt(n / (n + 1.0)) * out[n - 1]
        )
    return out


def _shell_occupations(M):
    """Occupancy weight per shell for the M lowest 3d oscillator states.

    Full shells carry weight 1; the topmost shell is filled uniformly
    (fractionally), the unique spectral filling with a radial density.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    weights = []
    left = float(M)
    n = 0
    while left > 0:
        if n > 200:
            raise DepthError("shell index beyond validated recurrence depth 200")
        deg = (n + 1) * (n + 2) // 2
        take = min(1.0, left / deg)
        weights.append(take)
        left -= take * deg
        n += 1
    return np.array(weights)


def free_ground_state_density_fn(hbar, M):
    """Radial density (as a callable) of the filled free oscillator ground state."""
    w_shell = _shell_occupations(M)
    n_top = w_shell.size - 1
    z = hermite_functions(n_top, np.array([0.0]))[:, 0]
    z2 = z * z
    pair = np.convolve(z2, z2)[: n_top + 1]  # sum_{j+k=m} psi_j(0)^2 psi_k(0)^2
    # coefficient of psi_i(x)^2: sum over occupied shells n >= i of w_n pair[n-i]
    coef = np.array(
        [float(np.sum(w_shell[i:] * pair[: n_top - i + 1])) for i in range(n_top + 1)]
    )
    scale = hbar ** (-1.5)

    def rho(r):
        r = np.asarray(r, dtype=float)
        tab = hermite_functions(n_top, r.ravel() / math.sqrt(hbar)) ** 2
        return scale * (coef @ tab).reshape(r.shape)

    return rho


def free_ground_state_density(hbar, M, nodes) -> RadialProfile:
    """Radial density of the projector on the M lowest oscillator states."""
    fn = free_ground_state_density_fn(hbar, M)
    nodes = np.asarray(nodes, dtype=float)
    return RadialProfile(nodes, fn(nodes))


@dataclass
class HusimiReport:
    """Residuals of the coherent-state identities on a 1d catalog."""

    hbar: float
    hbar_x: float
    hbar_p: float
    fill: int
    resolution_residual: float
    kinetic_identity_residual: float
    kinetic_reference: float
    potential_identity_residual: float
    lowfreq_identity_residual: float
    m_min: float
    m_max: float
    n_xm: int  # Husimi x-nodes
    band: int  # grid samples per window, 2 K + 1
    n_p: int  # momentum nodes


# Fermi momentum of the low-frequency weight 1 - Gamma(p) = min(1, (p_F / p)^2)
HUSIMI_P_F = 1.0
# Row tiles of the Husimi check.  Each tile's (rows x n_band) .
# (n_band x ceil(n_p / 2)) products take at least _HUSIMI_TILE_MACS
# multiply-adds, and its edges fall on multiples of _HUSIMI_TILE_STEP rows
# (the last tile ends with the table; a smaller table is one tile).  At
# one BLAS thread OpenBLAS then rounds every element of a tile's product
# as it rounds the whole table's (tests/test_kernel_bits.py).  Tiles of
# at most 10^6 multiply-adds, which OpenBLAS runs through its small-matrix
# kernel, rounded some shapes differently, and so did tiles of products
# wider than 240 columns whose edges were off a multiple of 12 rows.  A tile of
# the least height holds about 2^23 (5 / ceil(n_p / 2) + 2 / n_band) bytes
# of buffers; the tallest tile at the CLI's hbar = 0.05, 72 rows, 0.63 MB
_HUSIMI_TILE_MACS = 2**20
_HUSIMI_TILE_STEP = 12


def _row_tiles(n_rows, row_macs):
    """Edges 0, ..., n_rows of the row tiles of a product of ``row_macs`` multiply-adds per row."""
    step = _HUSIMI_TILE_STEP
    least = step * math.ceil(_HUSIMI_TILE_MACS / (step * row_macs))
    n_tiles = max(1, n_rows // least)
    return [step * (i * n_rows // (step * n_tiles)) for i in range(n_tiles)] + [n_rows]


def coherent_identity_check_1d(catalog: SpectralCatalog, fill) -> HusimiReport:
    """Husimi-transform identity residuals for a filled 1d projector.

    Builds m(x, p) by testing the rank-``fill`` projector against
    Gaussian coherent states of position variance hbar_x / 2 and momentum
    variance hbar_p / 2, with the fixed split hbar_x = hbar^(4/3),
    hbar_p = hbar^(2/3), so hbar_x hbar_p = hbar^2.  Reports residuals of
    (a) the resolution of identity, (b) the exact kinetic convolution
    identity tr(-hbar^2 Lap gamma) + hbar_p tr(gamma) |grad f|^2, (c) the
    potential smearing of order hbar_x, and (d) the low-frequency kinetic
    identity weighted by 1 - Gamma(p) at p_F = ``HUSIMI_P_F``.  For
    V = x^2 the smearing (c) equals fill hbar_x / 2 exactly.  The
    coherent vectors are normalized in the discrete norm, so m lies in
    [0, 1] up to roundoff by Bessel's inequality.

    Each window is cut to the band of 2K + 1 grid samples around its
    node, K = ceil(10 sigma / h), where the Gaussian is still above
    e^-50; the node's own phase cancels in |overlap|^2.  Windows and
    eigenvectors are real, so each band folds to its K offsets d > 0
    (cos is even in d, sin odd), and m(x, -p) = m(x, p) is computed on
    the ceil(n_p / 2) momenta p >= 0 and mirrored: each filled level
    costs two real (n_xm x K) . (K x ceil(n_p / 2)) products.

    Those products run in row tiles of the Husimi nodes (``_row_tiles``).
    A tile builds its windows, folded bands and products in buffers that
    every tile reuses, and adds into the p >= 0 half of the one
    (n_xm x n_p) table m, whose p < 0 half is then mirrored in place; the
    weighted sums multiply into one reused buffer.  So the working set is
    one tile, m and that buffer: traced peaks of 2.20 MiB at hbar = 0.05,
    3.75 MiB at 0.025 (1001 points) and 7.25 MiB at 0.0125 (2001 points).
    At one BLAS thread every element of m has the bits that untiled
    products give (see ``_HUSIMI_TILE_MACS``).
    """
    if catalog.vectors is None or catalog.grid is None:
        raise ValueError("catalog must carry grid and eigenvectors (a one-dimensional catalog)")
    n_levels = catalog.vectors.shape[1]
    if fill < 1:
        raise ValueError("fill must be >= 1")
    if fill > n_levels:
        raise TruncationError(f"fill={fill} exceeds the {n_levels} levels below lambda_max")
    hbar = catalog.hbar
    hbar_p = hbar ** (2.0 / 3.0)
    hbar_x = hbar ** (4.0 / 3.0)

    x = catalog.grid
    h = float(x[1] - x[0])
    sigma = math.sqrt(hbar_x)
    if h > sigma / 8.0:
        raise ResolutionError(
            f"grid spacing {h:.3g} too coarse for coherent width {sigma:.3g} "
            "(need >= 8 nodes per width)"
        )
    psi = catalog.vectors[:, :fill]  # physical normalization: h * sum psi^2 = 1

    # Husimi x-nodes: stride the catalog grid down to ~8 nodes per width
    stride = max(1, int(sigma / (8.0 * h)))
    xm = x[::stride]
    dx = h * stride

    # momentum content via discrete Fourier transform of the eigenvectors
    n_grid = x.size
    k = 2.0 * math.pi * np.fft.fftfreq(n_grid, d=h)
    p_spec = hbar * k
    psi_hat = np.fft.fft(psi, axis=0) * h / math.sqrt(2.0 * math.pi)
    dk = 2.0 * math.pi / (n_grid * h)
    t_spec = np.sum(np.abs(psi_hat) ** 2, axis=1) * dk  # integrates to ~fill over dp
    del psi_hat

    kinetic_spec = float(np.sum(p_spec**2 * t_spec))
    with np.errstate(divide="ignore", over="ignore"):
        weight_lf = np.minimum(1.0, (HUSIMI_P_F / np.maximum(np.abs(p_spec), 1e-300)) ** 2)
    lowfreq_spec = float(np.sum(p_spec**2 * weight_lf * t_spec))

    p_occ = float(np.max(np.abs(p_spec)[t_spec > 1e-14 * np.max(t_spec)]))
    sp = math.sqrt(hbar_p)
    p_max = p_occ + 10.0 * sp
    n_p = max(64, int(math.ceil(2.0 * p_max / (sp / 8.0))) + 1)
    p = np.linspace(-p_max, p_max, n_p)
    dp = float(p[1] - p[0])

    # Gaussian windows on the band of 2 n_band + 1 grid samples around
    # each Husimi node: beyond 10 sigma a window is below e^-50, under the
    # rounding of every sum it enters.  Samples past the grid ends get a
    # zero window.  Normalized in the same discrete norm as psi.  Each row
    # reads its band of the grid, clipped at the ends, as a strided view
    # of the edge-padded grid, so no index table is built
    n_band = min(int(math.ceil(10.0 * sigma / h)), n_grid - 1)
    band = 2 * n_band + 1
    windows = np.lib.stride_tricks.sliding_window_view
    x_rows = windows(np.pad(x, n_band, mode="edge"), band)[::stride]
    outside = np.pad(np.zeros(n_grid, dtype=bool), n_band, constant_values=True)
    outside = windows(outside, band)[::stride]

    # Relative to its node x_m the band sits at offsets d h, and the phase
    # exp(-i p x_m / hbar) common to a row drops out of |overlap|^2, so one
    # phase table serves every row.  Its cos is even in d and its sin odd,
    # so the table covers d = 1 .. n_band and p >= 0 only (see above)
    half_p = p[n_p // 2 :]
    phases = np.exp(-1j * np.outer(half_p, np.arange(1, n_band + 1) * h) / hbar) * h  # weight h
    cos_t = phases.real.T.copy()
    sin_t = phases.imag.T.copy()
    del phases
    # each level's bands are windows of psi padded by n_band zeros at both
    # ends, where w is 0 too
    padded = np.zeros((fill, n_grid + 2 * n_band))
    padded[:, n_band : n_band + n_grid] = psi.T
    bands = windows(padded, band, axis=1)[:, ::stride]
    # one Husimi table; the levels add into its p >= 0 half one row tile
    # at a time (see _HUSIMI_TILE_MACS), and every tile reuses the same
    # window and per-level buffers
    m = np.zeros((xm.size, n_p))
    m_pos = m[:, n_p // 2 :]
    edges = _row_tiles(xm.size, n_band * half_p.size)
    tile = max(b - a for a, b in zip(edges, edges[1:]))
    w_buf = np.empty((tile, band))
    windowed_buf = np.empty_like(w_buf)
    folded_buf = np.empty((tile, n_band))
    re_buf = np.empty((tile, half_p.size))
    im_buf = np.empty_like(re_buf)
    for start, stop in zip(edges, edges[1:]):
        rows = slice(start, stop)
        n = stop - start
        w, windowed, folded = w_buf[:n], windowed_buf[:n], folded_buf[:n]
        re, im = re_buf[:n], im_buf[:n]
        np.subtract(xm[rows, None], x_rows[rows], out=w)
        w **= 2
        np.negative(w, out=w)
        w /= 2.0 * hbar_x
        np.exp(w, out=w)
        np.copyto(w, 0.0, where=outside[rows])
        w /= np.sqrt(h * np.sum(np.multiply(w, w, out=windowed), axis=1))[:, None]
        lo = windowed[:, n_band - 1 :: -1]  # offsets -1, -2, ..., -n_band
        hi = windowed[:, n_band + 1 :]  # offsets 1, 2, ..., n_band
        for j in range(fill):
            np.multiply(w, bands[j, rows], out=windowed)
            np.matmul(np.add(lo, hi, out=folded), cos_t, out=re)
            re += windowed[:, n_band, None] * h
            np.matmul(np.subtract(hi, lo, out=folded), sin_t, out=im)
            re *= re
            im *= im
            re += im
            m_pos[rows] += re
    del w_buf, windowed_buf, folded_buf, re_buf, im_buf, w, windowed, folded, re, im, lo, hi
    del cos_t, sin_t, padded, bands
    m[:, : n_p // 2] = m_pos[:, ::-1][:, : n_p // 2]  # m(x, -p) = m(x, p)

    mass = float(np.sum(m)) * dx * dp / (2.0 * math.pi * hbar)
    resolution_residual = abs(mass - fill) / fill

    # the weighted sums multiply into one reused buffer
    prod = np.empty_like(m)
    kin_husimi = float(np.sum(np.multiply(m, p[None, :] ** 2, out=prod))) * dx * dp / (
        2.0 * math.pi * hbar
    )
    kin_expected = kinetic_spec + hbar_p * fill * 0.5  # the unit Gaussian has |grad f|^2 = 1/2
    kinetic_residual = abs(kin_husimi - kin_expected)

    vv = np.asarray(catalog.potential_1d(x), dtype=float)
    pot_trace = float(np.sum(vv[:, None] * psi**2)) * h
    vm = np.asarray(catalog.potential_1d(xm), dtype=float)
    pot_husimi = float(np.sum(np.multiply(m, vm[:, None], out=prod))) * dx * dp / (
        2.0 * math.pi * hbar
    )
    potential_residual = abs(pot_husimi - pot_trace)

    with np.errstate(divide="ignore", over="ignore"):
        lf_weight = np.minimum(1.0, (HUSIMI_P_F / np.maximum(np.abs(p), 1e-300)) ** 2)
    lf_husimi = float(np.sum(np.multiply(m, (p**2 * lf_weight)[None, :], out=prod))) * dx * dp / (
        2.0 * math.pi * hbar
    )
    lowfreq_residual = abs(lf_husimi - lowfreq_spec)

    return HusimiReport(
        hbar=float(hbar),
        hbar_x=float(hbar_x),
        hbar_p=float(hbar_p),
        fill=int(fill),
        resolution_residual=resolution_residual,
        kinetic_identity_residual=kinetic_residual,
        kinetic_reference=kin_expected,
        potential_identity_residual=potential_residual,
        lowfreq_identity_residual=lowfreq_residual,
        m_min=float(np.min(m)),
        m_max=float(np.max(m)),
        n_xm=int(xm.size),
        band=band,
        n_p=int(n_p),
    )
