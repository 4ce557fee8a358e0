"""Configuration-driven command line front end.

Reads a single JSON configuration file (nested key-value sections, see
docs/config_schema.md), dispatches to the library, and emits CSV files
with a provenance header block: tool version, the fully resolved
configuration, and the identifiers of the formulas exercised.  It is
the one writer: the library computes, and ``_emit`` writes every table
and the JSON mirror from the same cells.  Reruns of the same
configuration byte-reproduce every output; no command uses randomness.

Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from . import asymptotics as asy
from . import potentials as pots
from . import scattering as sc
from . import semiclassics as scl
from . import spectra as sp
from . import thomas_fermi as tf
from .numerics import RefinementError
from .potentials import ConfigurationError

COMMANDS = (
    "tf",
    "scatter",
    "semiclass",
    "spectra",
    "husimi",
    "predict",
    "boxes",
    "budget",
    "verify-all",
)

_NUMERICAL_ERRORS = (
    tf.NormalizationError,
    tf.DomainError,
    sc.StiffnessError,
    sc.NonPhysicalSolutionError,
    sc.GeometryError,
    scl.DivergenceError,
    sp.DomainTooSmallError,
    sp.TruncationError,
    sp.DepthError,
    sp.ResolutionError,
    asy.RegimeError,
    asy.DegenerateTilingError,
    RefinementError,
    FloatingPointError,
    np.linalg.LinAlgError,
)

DEFAULT_CONFIG = {
    "potential": {"kind": "harmonic_plus_one"},
    "interaction": {"kind": "square_barrier", "height": 2.0, "radius": 1.0},
    "tolerances": {"abs": 1e-10, "rel": 1e-10, "max_refinements": 48},
    "sweeps": {
        "N": [10**4, 10**5, 10**6],
        "beta": [0.40],
        "Lambda": [1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0],
        "A": [2.0, 20.0, 200.0, 2000.0],
        "p_F": [4.0, 8.0, 16.0, 32.0],
    },
    "spectra": {"hbar": 1.0, "lambda_max": 12.0, "offset": 0.0},
    "husimi": {"hbar": 0.05, "fill": 10, "halfwidth": 4.0, "points": 1001},
    "boxes": {"l": None},
    "output": {"directory": "out", "json_mirror": False},
}


def _merge(base, override):
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def _merged_config(user):
    """``user`` merged over the defaults key by key; a kinded section keeps only its kind's keys.

    So a hardcore interaction inherits the default radius, not the
    barrier height.  A kind that ``SCHEMA`` does not know is left for
    ``validate`` to refuse.
    """
    config = _merge(DEFAULT_CONFIG, user)
    for section, table in SCHEMA.items():
        spec, kinds = config.get(section), table.get("kind", {})
        if isinstance(spec, dict) and isinstance(spec.get("kind"), str) and spec["kind"] in kinds:
            keys = kinds[spec["kind"]]
            config[section] = {k: v for k, v in spec.items() if k == "kind" or k in keys}
    return config


def load_config(path):
    if path is None:
        return DEFAULT_CONFIG
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not UTF-8, too long an int
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigurationError("config root must be a JSON object")
    return user


# section -> key -> check.  A check is a string that names what passes:
# "number" (finite, and not a bool), a bound such as "> 0" or "> 1/3",
# "integer >= 1", "null or > 0", "true or false" or "a nonempty string";
# "and" joins bounds, as in "integer >= 200 and <= 4001".
# A one-check list passes a list whose entries all pass that check.  A dict
# is a subsection; a section with a "kind" maps each kind to its own keys.
SCHEMA = {
    "potential": {"kind": {
        "harmonic_plus_one": {},
        "power_plus_one": {"s": "> 1"},
        "harmonic": {"offset": "number"},
    }},
    "interaction": {"kind": {
        # below about 2e-305 the scattering solve's steps per unit length overflow
        "square_barrier": {"height": ">= 0", "radius": ">= 1e-300"},
        "hardcore": {"radius": ">= 1e-300"},
    }},
    "tolerances": {"abs": ">= 0", "rel": ">= 0", "max_refinements": "integer >= 1"},
    "sweeps": {"N": ["integer >= 1"], "beta": ["> 1/3"], "Lambda": ["number"], "A": ["> 0"],
               "p_F": ["> 0"]},
    "spectra": {"hbar": "> 0", "lambda_max": "number", "offset": "number", "scan_lambda": "number",
                "density": {"hbar": "> 0", "M": "integer >= 1", "r_max": "> 0",
                            "nodes": f"integer >= 16 and <= {sp.MAX_DENSITY_NODES}"}},
    "husimi": {"hbar": "> 0", "fill": "integer >= 1", "halfwidth": "> 0",
               "points": f"integer >= {sp.MIN_SAMPLE_POINTS} and <= {sp.MAX_SAMPLE_POINTS}",
               "lambda_max": "number"},
    "boxes": {"l": "null or > 0"},
    "output": {"directory": "a nonempty string", "json_mirror": "true or false"},
}

# command -> the sections an explicit config must carry itself
NEEDS = {"tf": ("potential",), "scatter": ("interaction",), "semiclass": ("potential",),
         "predict": ("potential", "interaction"), "boxes": ("potential", "interaction")}


def _scan_lambda(spec):
    return float(spec.get("scan_lambda", 48.0 ** (1.0 / 3.0)))


def _spectra_caps(c):
    """ValueError past a shell cap; else whether scan_lambda exceeds the offset."""
    spec, Ns, scan_lam = c["spectra"], c["sweeps"]["N"], _scan_lambda(c["spectra"])
    sp.harmonic_shell_count(spec["hbar"], spec["lambda_max"], spec["offset"])
    if len(Ns) >= 2 and scan_lam > spec["offset"]:
        # the scan's finest catalog: hbar = N^(-1/3) at its largest N
        hbar = max(sp.weyl_scan_sizes(Ns)) ** (-1.0 / 3.0)
        sp.harmonic_shell_count(hbar, scan_lam + 1e-12, spec["offset"])
    return scan_lam > spec["offset"]


def _density_args(spec):
    """hbar, M and the radii of the spectra.density profile, with their defaults."""
    d = spec["density"]
    return (float(d.get("hbar", spec["hbar"])), int(d.get("M", 1)),
            np.linspace(0.0, float(d.get("r_max", 6.0)), int(d.get("nodes", 2049))))


def _density_fits(c):
    """DepthError past the shell depth; else whether the density profile is finite.

    Its radii must increase and r / sqrt(hbar) must be finite.  Its peak is
    at most M (pi hbar)^(-3/2), so M hbar^(-3/2) up to half the largest float
    leaves every value and hbar^(-3/2) itself finite; at M = 1 that needs
    hbar above about 5e-206.  Only the shell weights are built, no density.
    """
    if c["spectra"].get("density") is None:
        return True
    hbar, M, nodes = _density_args(c["spectra"])
    if not M <= 0.5 * sys.float_info.max * (hbar * math.sqrt(hbar)):
        return False
    sp.free_ground_state_density_fn(hbar, M)
    return bool(np.all(np.diff(nodes) > 0)) and math.isfinite(float(nodes[-1]) / math.sqrt(hbar))


def _husimi_fills(c):
    # the fill-th level of -hbar^2 d^2/dx^2 + x^2 is hbar (2 fill - 1)
    h = c["husimi"]
    return h.get("lambda_max", math.inf) > h["hbar"] * (2 * h["fill"] - 1)


def _increasing(values):
    return sorted(set(values)) == values


# (commands, what a command needs, holds(merged config)), checked in this order
RULES = (
    (COMMANDS, "a growth exponent potential.s for power_plus_one",
     lambda c: c["potential"]["kind"] != "power_plus_one" or "s" in c["potential"]),
    (("tf", "scatter", "predict", "boxes"), "tolerances with abs + rel > 0",
     lambda c: c["tolerances"]["abs"] + c["tolerances"]["rel"] > 0),
    (COMMANDS, "an increasing sweeps.A", lambda c: _increasing(c["sweeps"]["A"])),
    (("predict", "boxes", "budget"), "a nonempty sweeps.beta and sweeps.N, every N >= 2",
     lambda c: c["sweeps"]["beta"] and min(c["sweeps"]["N"] or [0]) >= 2),
    (("budget",), "every sweeps.beta < 1/2", lambda c: max(c["sweeps"]["beta"]) < 0.5),
    (("semiclass",), "an increasing sweeps.Lambda of at least two levels",
     lambda c: len(c["sweeps"]["Lambda"]) >= 2 and _increasing(c["sweeps"]["Lambda"])),
    (("spectra",), "a spectra.scan_lambda above spectra.offset", _spectra_caps),
    (("spectra",), "a spectra.density with increasing radii, and r_max / sqrt(hbar) and "
     "M hbar^(-3/2) finite", _density_fits),
    (("husimi",), "a husimi.lambda_max above hbar (2 fill - 1)", _husimi_fills),
)


def _fits(value, check):
    """Whether a JSON value passes a SCHEMA check."""
    if isinstance(check, list):
        return isinstance(value, list) and all(_fits(v, check[0]) for v in value)
    if " and " in check:
        return all(_fits(value, part) for part in check.split(" and "))
    if check.startswith("null or "):
        return value is None or _fits(value, check[len("null or "):])
    if check == "true or false":
        return isinstance(value, bool)
    if check == "a nonempty string":
        return isinstance(value, str) and value != ""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        x = float(value)
    except OverflowError:  # an integer past the float range
        return False
    if not math.isfinite(x) or (check.startswith("integer") and not x.is_integer()):
        return False
    op, _, bound = check.removeprefix("integer").removeprefix("number").strip().partition(" ")
    if op == "<=":
        return x <= Fraction(bound)
    return op == "" or (x > Fraction(bound) if op == ">" else x >= Fraction(bound))


def _check(path, value, table):
    """ConfigurationError unless ``value`` passes ``table``, a check or a (sub)section table."""
    if not isinstance(table, dict):
        if not _fits(value, table):
            what = f"a list, each {table[0]}" if isinstance(table, list) else table
            raise ConfigurationError(f"{path} must be {what}, got {value!r}")
        return
    if not isinstance(value, dict):
        raise ConfigurationError(f"'{path}' must be a JSON object")
    if "kind" in table:
        kind = value.get("kind")
        if not (isinstance(kind, str) and kind in table["kind"]):
            raise ConfigurationError(f"unknown {path} kind {kind!r}")
        table = table["kind"][kind]
        value = {k: v for k, v in value.items() if k != "kind"}
    for key, item in value.items():
        name = f"{path}.{key}" if path else key
        if key not in table:
            raise ConfigurationError(f"unknown config key {name!r}")
        _check(name, item, table[key])


def validate(config, user, command):
    """ConfigurationError unless ``config``, ``user`` merged over the defaults, fits ``command``.

    ``user`` is checked against ``SCHEMA``: unknown names, wrong types and
    out-of-range values.  The merged config then has every default key,
    and ``RULES`` check it across keys.  Nothing is solved.
    """
    for section in NEEDS.get(command, ()):
        if section not in user:
            raise ConfigurationError(f"command '{command}' needs a '{section}' section")
    _check("", user, SCHEMA)
    for commands, needs, holds in RULES:
        if command in commands:
            try:
                ok = holds(config)
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from exc
            if not ok:
                raise ConfigurationError(f"command '{command}' needs {needs}")


def resolve_potential(config):
    spec = config["potential"]
    if spec["kind"] == "harmonic":
        return pots.harmonic_trap(float(spec.get("offset", 0.0)))
    if spec["kind"] == "power_plus_one":
        return pots.power_trap(float(spec["s"]))
    return pots.harmonic_trap(1.0)


def resolve_interaction(config):
    spec = config["interaction"]
    if spec["kind"] == "hardcore":
        return sc.hardcore(float(spec["radius"]))
    return sc.square_barrier(float(spec["height"]), float(spec["radius"]))


def _header(command, config, formulas):
    resolved = json.dumps(config, sort_keys=True, default=str)
    lines = [
        f"dilutefermi {__version__}",
        f"command: {command}",
        f"config: {resolved}",
    ]
    lines += [f"formula: {f}" for f in formulas]
    return lines


def _emit(outdir, command, config, stem, formulas, columns, rows, notes=()):
    """Write ``<stem>.csv``: ``# `` header lines, the comma-joined columns, then one line per row.

    The header is ``_header``'s lines, then ``notes``.  A float cell, Python
    or NumPy, prints as ``repr(float(x))``, the shortest string that reads
    back to the same double; any other cell prints as ``str(x)``.  Returns
    the path, the header lines, the columns and the cell strings, from which
    ``_mirror_csv_as_json`` writes the mirror.
    """
    header = [*_header(command, config, formulas), *notes]
    cells = [[repr(float(x)) if isinstance(x, (float, np.floating)) else str(x) for x in row]
             for row in rows]
    path = os.path.join(outdir, f"{stem}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {line}\n" for line in header)
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in cells)
    return path, header, columns, cells


def _mirror_csv_as_json(csv_path, header, columns, cells):
    """Write the JSON mirror of an emitted CSV: its header lines, and its cells keyed by column."""
    json_path = os.path.splitext(csv_path)[0] + ".json"
    rows = [dict(zip(columns, row)) for row in cells]
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump({"header": header, "rows": rows}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return json_path


# Each command yields its tables as (file stem, formulas, columns, rows[, notes]).
def cmd_tf(config):
    v = resolve_potential(config)
    sol = tf.tf_solve(v)
    r, rho = sol.rho.nodes, sol.rho.values
    vr = v.radial_fn(r)
    residual = tf.euler_lagrange_residual(rho, vr, sol.lambda_TF)
    yield "tf_solution", [
        "density_inversion: rho = ((lambda - V)_+ / kappa)^(3/2)",
        "energy: 2^(-2/3) c_tf int rho^(5/3) + int V rho",
        f"lambda={sol.lambda_TF!r} E_TF={sol.E_TF!r}",
    ], ("r", "rho", "V", "lagrange_residual"), zip(r, rho, vr, residual)
    p_fs = config["sweeps"]["p_F"]
    if p_fs:
        scan = tf.cutoff_gap_scan(v, [float(p) for p in p_fs])
        yield "cutoff_scan", [
            "cutoff: kinetic density capped at the local Fermi momentum",
            f"fitted_gap_exponent={scan.fitted_exponent!r}",
        ], ("p_F", "E_TF_pF", "gap", "overflow_mass"), (
            (s.p_F, s.E_TF_pF, gap, s.overflow_mass) for s, gap in zip(scan.solutions, scan.gaps)
        )


def cmd_scatter(config):
    w = resolve_interaction(config)
    sol = sc.zero_energy_solve(w)
    r = sol.u.nodes
    yield "scattering_profile", [
        "reduced_ode: u'' = v u / 2, u(0)=0, u'(0)=1",
        "length: a = R - u(R)/u'(R)",
        f"a={sol.a!r} R={sol.range_!r}",
        f"step_error_estimate={sol.step_error_estimate!r}",
        f"fit_residual={sol.fit_residual!r}",
    ], ("r", "u", "f", "v"), zip(r, sol.u.values, sol.f.values, sol.spec(r))
    amps = config["sweeps"]["A"]
    if amps:
        yield ("hardcore_sweep", ["hardcore_limit: a(A v) -> R as A grows"], ("A", "a"),
               sc.hardcore_limit(w, amps))


def cmd_semiclass(config):
    v = resolve_potential(config)
    grid = np.asarray(config["sweeps"]["Lambda"], dtype=float)
    counts = [scl.phase_space_counts(v, lam) for lam in grid]
    d_n = np.gradient(np.array([c.n_cl for c in counts]), grid)
    yield "semiclassics", [
        "count: (6 pi^2)^(-1) int (Lambda - V)_+^(3/2)",
        "energy: (2 pi^2)^(-1) int [(Lambda-V)_+^(5/2)/5 + V (Lambda-V)_+^(3/2)/3]",
    ], ("Lambda", "n_cl", "e_cl", "e_tilde", "d_n_cl"), (
        (c.Lambda, c.n_cl, c.e_cl, c.e_tilde, dn) for c, dn in zip(counts, d_n)
    )


def cmd_spectra(config):
    spec = config["spectra"]
    offset = float(spec["offset"])
    cat = sp.harmonic_catalog(float(spec["hbar"]), float(spec["lambda_max"]), offset)
    yield ("catalog", ["shells: offset + hbar (2n+3) with degeneracy (n+1)(n+2)/2"],
           ("level", "degeneracy"), zip(cat.energies, cat.degeneracies))
    Ns = config["sweeps"]["N"]
    if len(Ns) >= 2:
        scan = sp.weyl_error_scan({"kind": "harmonic", "offset": offset}, Ns, _scan_lambda(spec))
        yield "weyl_scan", [
            "scan: |n_q - N n_cl| and |e_q - N e_cl| with hbar = N^(-1/3)",
            f"n_exponent={scan.n_exponent!r} e_exponent={scan.e_exponent!r}",
        ], ("N", "hbar", "n_q", "e_q", "n_err", "e_err"), zip(
            scan.N, scan.hbar, scan.n_q, scan.e_q, scan.n_err, scan.e_err
        )
    if spec.get("density") is not None:
        prof = sp.free_ground_state_density(*_density_args(spec))
        yield ("free_state_density", ["density: radial diagonal of the rank-M free-state projector"],
               ("r", "rho"), zip(prof.nodes, prof.values))


def cmd_husimi(config):
    spec = config["husimi"]
    hbar, fill = float(spec["hbar"]), int(spec["fill"])
    lam_max = float(spec.get("lambda_max", hbar * (2 * fill + 1) + 0.01))
    cat = sp.dvr_catalog_1d(
        lambda x: x * x, hbar, float(spec["halfwidth"]), int(spec["points"]), lam_max
    )
    rep = sp.coherent_identity_check_1d(cat, fill)
    yield "husimi", [
        "resolution: int m dx dp / (2 pi hbar) = tr(gamma)",
        "kinetic: int p^2 m = tr(-hbar^2 Lap gamma) + hbar_p tr(gamma) |grad f|^2",
        "catalog: sinc-DVR on solve_nodes, levels checked on the coarser grid before it",
        f"solve_nodes={cat.solve_nodes} momentum_margin={cat.momentum_margin!r}",
        f"boundary_mass={cat.boundary_mass!r}",
        f"convergence_estimate={cat.convergence_estimate!r}",
        f"husimi_grid: n_xm={rep.n_xm} band={rep.band} n_p={rep.n_p}",
    ], ("hbar", "hbar_x", "hbar_p", "fill", "resolution_residual", "kinetic_residual",
        "potential_residual", "lowfreq_residual", "m_min", "m_max"), [
        (rep.hbar, rep.hbar_x, rep.hbar_p, rep.fill, rep.resolution_residual,
         rep.kinetic_identity_residual, rep.potential_identity_residual,
         rep.lowfreq_identity_residual, rep.m_min, rep.m_max)
    ]


def _sweep_pairs(config):
    sweeps = config["sweeps"]
    return [(int(N), float(b)) for b in sweeps["beta"] for N in sweeps["N"]]


def cmd_predict(config):
    v = resolve_potential(config)
    w = resolve_interaction(config)
    base = tf.tf_solve(v)
    pairs = _sweep_pairs(config)
    # the scattering length depends on the interaction alone: solve it once
    ctx = asy.make_context(*pairs[0], w)
    rows = [
        asy.predict_energy(v, dataclasses.replace(ctx, N=N, beta=beta), base)
        for N, beta in pairs
    ]
    columns = ("N", "beta", "main", "correction", "total")
    yield ("prediction", ["two_term: N E_TF + 2 pi a_w N^(4/3 - beta) int rho_TF^2"], columns,
           ([getattr(p, c) for c in columns] for p in rows))


def cmd_boxes(config):
    v = resolve_potential(config)
    w = resolve_interaction(config)
    pairs = _sweep_pairs(config)
    N, beta = pairs[0]
    ctx = asy.make_context(N, beta, w)
    l = config["boxes"]["l"]
    if l is None:
        window = asy.beta_l_window(beta, N)
        if not window.feasible:
            raise asy.RegimeError(f"no admissible box scale at beta={beta}")
        l = window.chosen_l
    base = tf.tf_solve(v)
    est = asy.box_estimate(v, ctx, float(l), base)
    yield "boxes", [
        "mass: M_i = ceil(N/2 int_cell rho)",
        "per_box: N^(2 beta - 2/3) (2 c_tf L^-2 M^(5/3) + 8 pi a_w L^-3 M^2)",
    ], ("cx", "cy", "cz", "M_i", "kinetic_interaction", "potential"), (
        (*c, int(m), k, p)
        for c, m, k, p in zip(est.centers, est.masses, est.kin_per_box, est.pot_per_box)
    ), [f"l={est.l!r} gap={est.gap!r} L={est.L!r} ratio={est.ratio!r}"]


def cmd_budget(config):
    rows = [asy.error_budget(N, beta) for N, beta in _sweep_pairs(config)]
    columns = (
        "N", "beta", "epsilon", "p_F", "s", "R", "bulk_term", "cutoff_term",
        "softening_term", "remainder_term", "total", "ratio",
    )
    yield "budget", [
        "f(N) = N^(5/6) + p_F^-2 N + delta^-1 N^(1/3-beta) (N^(-1/18)+N^(1/6-beta/2))"
        " (R^-3 + (eps s^2 R)^-1) + N^(1/3-beta)/(eps s^2 R)",
        "couplings: delta=eps, p_F^-2=eps N^(1/3-beta), s^2=eps^2 N^(1/3-beta), R=eps hbar",
    ], columns, ([getattr(b, c) for c in columns] for b in rows)


def cmd_verify_all(config):
    from .acceptance import run_all

    results = run_all(echo=True)
    rows = [(res.cid, res.description, "pass" if res.passed else "fail") for res in results]
    yield ("acceptance_summary", ["acceptance: one row per criterion"],
           ("criterion", "description", "status"), rows)


_DISPATCH = {
    "tf": cmd_tf,
    "scatter": cmd_scatter,
    "semiclass": cmd_semiclass,
    "spectra": cmd_spectra,
    "husimi": cmd_husimi,
    "predict": cmd_predict,
    "boxes": cmd_boxes,
    "budget": cmd_budget,
    "verify-all": cmd_verify_all,
}


def run_command(command, config, outdir):
    """Write ``command``'s tables into ``outdir``, then their JSON mirrors if configured.

    Each table is written before the next is computed, so a numerical
    failure keeps the tables before it, without mirrors.  Returns the paths
    written, tables first, and the exit code: 1 when a verify-all row fails.
    """
    written = [_emit(outdir, command, config, *table) for table in _DISPATCH[command](config)]
    paths = [path for path, *_ in written]
    if config["output"]["json_mirror"]:
        paths += [_mirror_csv_as_json(*table) for table in written]
    failed = command == "verify-all" and any(row[-1] == "fail" for row in written[0][3])
    return paths, int(failed)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dilutefermi",
        description="Desk-scale laboratory for the trapped dilute two-spin gas",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="path to the JSON configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument(
        "--seedless",
        action="store_true",
        help="assert that the run leaves the global random state untouched",
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    rng_before = np.random.get_state()[1].copy() if args.seedless else None
    try:
        user = load_config(args.config)
        config = _merged_config(user)
        validate(config, user, args.command)
        outdir = args.out or config["output"]["directory"]
        os.makedirs(outdir, exist_ok=True)
        paths, exit_code = run_command(args.command, config, outdir)
        for p in paths:
            print(p)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.seedless:
        rng_after = np.random.get_state()[1]
        if not np.array_equal(rng_before, rng_after):
            print("seedless assertion failed: global random state changed", file=sys.stderr)
            return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
