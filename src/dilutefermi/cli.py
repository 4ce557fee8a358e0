"""Configuration-driven command line front end.

Reads a single JSON configuration file (nested key-value sections, see
docs/config_schema.md), dispatches to the library, and emits CSV files
with a provenance header block: tool version, the fully resolved
configuration, and the identifiers of the formulas exercised.  Reruns
of the same configuration byte-reproduce every output; no command uses
randomness.

Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv as _csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from . import asymptotics as asy
from . import potentials as pots
from . import scattering as sc
from . import semiclassics as scl
from . import spectra as sp
from . import thomas_fermi as tf
from .numerics import BracketError, RadialProfile, RefinementError, Tolerance
from .potentials import ConfigurationError
from .tables import write_table

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
    BracketError,
    RefinementError,
    FloatingPointError,
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


def load_config(path):
    if path is None:
        return dict(DEFAULT_CONFIG), True
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigurationError("config root must be a JSON object")
    return user, False


def _require(config, key, command):
    if key not in config:
        raise ConfigurationError(f"command '{command}' needs a '{key}' section")
    return config[key]


def _tolerance(config):
    t = config.get("tolerances", DEFAULT_CONFIG["tolerances"])
    return Tolerance(
        abs=float(t.get("abs", 1e-10)),
        rel=float(t.get("rel", 1e-10)),
        max_refinements=int(t.get("max_refinements", 48)),
    )


def resolve_potential(config, command):
    spec = _require(config, "potential", command)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError("potential section must carry a 'kind'")
    kind = spec["kind"]
    if kind == "harmonic":
        return pots.harmonic_trap(float(spec.get("offset", 0.0)))
    return pots.make_potential(spec)


def resolve_interaction(config, command):
    spec = _require(config, "interaction", command)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError("interaction section must carry a 'kind'")
    kind = spec["kind"]
    if kind == "square_barrier":
        return sc.square_barrier(float(spec.get("height", 2.0)), float(spec.get("radius", 1.0)))
    if kind == "hardcore":
        return sc.hardcore(float(spec.get("radius", 1.0)))
    raise ConfigurationError(f"unknown interaction kind {kind!r}")


def _header(command, config, formulas):
    resolved = json.dumps(config, sort_keys=True, default=str)
    lines = [
        f"dilutefermi {__version__}",
        f"command: {command}",
        f"config: {resolved}",
    ]
    lines += [f"formula: {f}" for f in formulas]
    return lines


def _mirror_csv_as_json(csv_path):
    """Write a JSON mirror of an emitted CSV next to it."""
    with open(csv_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = [ln[1:].strip() for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    rows = []
    if data:
        parsed = list(_csv.reader(data))
        fields = parsed[0]
        rows = [dict(zip(fields, row)) for row in parsed[1:]]
    json_path = os.path.splitext(csv_path)[0] + ".json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump({"header": comments, "rows": rows}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return json_path


def cmd_tf(config, outdir):
    v = resolve_potential(config, "tf")
    tol = _tolerance(config)
    sol = tf.tf_solve(v, tol)
    path = os.path.join(outdir, "tf_solution.csv")
    tf.write_density_csv(
        path,
        sol,
        _header(
            "tf",
            config,
            [
                "density_inversion: rho = ((lambda - V)_+ / kappa)^(3/2)",
                "energy: 2^(-2/3) c_tf int rho^(5/3) + int V rho",
                f"lambda={sol.lambda_TF!r} E_TF={sol.E_TF!r}",
            ],
        ),
    )
    paths = [path]
    p_fs = config.get("sweeps", {}).get("p_F") or []
    if p_fs:
        scan = tf.cutoff_gap_scan(v, [float(p) for p in p_fs], tol)
        cut_path = os.path.join(outdir, "cutoff_scan.csv")
        write_table(
            cut_path,
            _header(
                "tf",
                config,
                [
                    "cutoff: kinetic density capped at the local Fermi momentum",
                    f"fitted_gap_exponent={scan.fitted_exponent!r}",
                ],
            ),
            ("p_F", "E_TF_pF", "gap", "overflow_mass"),
            ((s.p_F, s.E_TF_pF, gap, s.overflow_mass) for s, gap in zip(scan.solutions, scan.gaps)),
        )
        paths.append(cut_path)
    return paths


def cmd_scatter(config, outdir):
    w = resolve_interaction(config, "scatter")
    tol = _tolerance(config)
    sol = sc.zero_energy_solve(w, tol=tol)
    paths = []
    path = os.path.join(outdir, "scattering_profile.csv")
    sc.write_scattering_csv(
        path,
        sol,
        _header(
            "scatter",
            config,
            [
                "reduced_ode: u'' = v u / 2, u(0)=0, u'(0)=1",
                "length: a = R - u(R)/u'(R)",
                f"a={sol.a!r} R={sol.range_!r}",
            ],
        ),
    )
    paths.append(path)
    amps = config.get("sweeps", {}).get("A") or []
    if amps:
        rows = sc.hardcore_limit(w, amps, tol=tol)
        sweep_path = os.path.join(outdir, "hardcore_sweep.csv")
        header = _header("scatter", config, ["hardcore_limit: a(A v) -> R as A grows"])
        write_table(sweep_path, header, ("A", "a"), rows)
        paths.append(sweep_path)
    return paths


def cmd_semiclass(config, outdir):
    v = resolve_potential(config, "semiclass")
    lambdas = config.get("sweeps", {}).get("Lambda")
    if not lambdas:
        raise ConfigurationError("semiclass needs a nonempty sweeps.Lambda list")
    path = os.path.join(outdir, "semiclassics.csv")
    scl.write_counts_csv(
        path,
        v,
        lambdas,
        _header(
            "semiclass",
            config,
            [
                "count: (6 pi^2)^(-1) int (Lambda - V)_+^(3/2)",
                "energy: (2 pi^2)^(-1) int [(Lambda-V)_+^(5/2)/5 + V (Lambda-V)_+^(3/2)/3]",
            ],
        ),
    )
    return [path]


def _spectra_args(spec):
    """(hbar, lambda_max, offset, scan_lambda) of a spectra section."""
    hbar = float(spec.get("hbar", 1.0))
    lam_max = float(spec.get("lambda_max", 12.0))
    offset = float(spec.get("offset", 0.0))
    scan_lam = float(spec.get("scan_lambda", 48.0 ** (1.0 / 3.0)))
    if not (lam_max > offset and scan_lam > offset):
        raise ConfigurationError("spectra.lambda_max and spectra.scan_lambda must exceed the offset")
    sp.harmonic_shell_count(hbar, lam_max, offset)
    return hbar, lam_max, offset, scan_lam


def cmd_spectra(config, outdir):
    spec = config.get("spectra", DEFAULT_CONFIG["spectra"])
    hbar, lam_max, offset, scan_lam = _spectra_args(spec)
    cat = sp.harmonic_catalog(hbar, lam_max, offset)
    paths = []
    path = os.path.join(outdir, "catalog.csv")
    sp.write_catalog_csv(
        path,
        cat,
        _header(
            "spectra",
            config,
            ["shells: offset + hbar (2n+3) with degeneracy (n+1)(n+2)/2"],
        ),
    )
    paths.append(path)
    Ns = config.get("sweeps", {}).get("N") or []
    if len(Ns) >= 2:
        scan = sp.weyl_error_scan({"kind": "harmonic", "offset": offset}, Ns, scan_lam)
        scan_path = os.path.join(outdir, "weyl_scan.csv")
        sp.write_scan_csv(
            scan_path,
            scan,
            _header(
                "spectra",
                config,
                [
                    "scan: |n_q - N n_cl| and |e_q - N e_cl| with hbar = N^(-1/3)",
                    f"n_exponent={scan.n_exponent!r} e_exponent={scan.e_exponent!r}",
                ],
            ),
        )
        paths.append(scan_path)
    if spec.get("density"):
        prof = sp.free_ground_state_density(*_density_args(spec))
        dens_path = os.path.join(outdir, "free_state_density.csv")
        sp.write_profile_csv(
            dens_path,
            prof,
            _header(
                "spectra",
                config,
                ["density: radial diagonal of the rank-M free-state projector"],
            ),
        )
        paths.append(dens_path)
    return paths


def _density_args(spec):
    """(hbar, M, nodes) for the free-state density of a spectra section."""
    density = spec["density"]
    r_max = float(density.get("r_max", 6.0))
    hbar = float(density.get("hbar", spec.get("hbar", 1.0)))
    M = int(density.get("M", 1))
    if not (hbar > 0 and M >= 1):
        raise ConfigurationError("spectra.density needs hbar > 0 and M >= 1")
    nodes = np.linspace(0.0, r_max, int(density.get("nodes", 2049)))
    RadialProfile(nodes, np.zeros_like(nodes))  # raises ValueError on nodes a profile refuses
    return hbar, M, nodes


def _husimi_args(spec):
    """(hbar, fill, halfwidth, points, lambda_max) of a husimi section."""
    hbar = float(spec.get("hbar", 0.05))
    fill = float(spec.get("fill", 10))
    halfwidth = float(spec.get("halfwidth", 4.0))
    points = float(spec.get("points", 1001))
    if not (fill >= 1 and fill.is_integer()):
        raise ConfigurationError("husimi.fill must be an integer >= 1")
    if not (points >= sp.MIN_FD_POINTS and points.is_integer()):
        raise ConfigurationError(f"husimi.points must be an integer >= {sp.MIN_FD_POINTS}")
    if not halfwidth > 0:
        raise ConfigurationError("husimi.halfwidth must be > 0")
    lam_max = float(spec.get("lambda_max", hbar * (2 * fill + 1) + 0.01))
    return hbar, int(fill), halfwidth, int(points), lam_max


def cmd_husimi(config, outdir):
    spec = config.get("husimi", DEFAULT_CONFIG["husimi"])
    hbar, fill, halfwidth, points, lam_max = _husimi_args(spec)
    cat = sp.fd_catalog_1d(lambda x: x * x, hbar, halfwidth, points, lam_max)
    rep = sp.coherent_identity_check_1d(cat, fill)
    path = os.path.join(outdir, "husimi.csv")
    write_table(
        path,
        _header(
            "husimi",
            config,
            [
                "resolution: int m dx dp / (2 pi hbar) = tr(gamma)",
                "kinetic: int p^2 m = tr(-hbar^2 Lap gamma) + hbar_p tr(gamma) |grad f|^2",
            ],
        ),
        ("hbar", "hbar_x", "hbar_p", "fill", "resolution_residual", "kinetic_residual",
         "potential_residual", "lowfreq_residual", "m_min", "m_max"),
        [(rep.hbar, rep.hbar_x, rep.hbar_p, rep.fill, rep.resolution_residual,
          rep.kinetic_identity_residual, rep.potential_identity_residual,
          rep.lowfreq_identity_residual, rep.m_min, rep.m_max)],
    )
    return [path]


def _sweep_pairs(config, command):
    sweeps = _require(config, "sweeps", command)
    Ns = sweeps.get("N") or []
    betas = sweeps.get("beta") or []
    if not Ns or not betas:
        raise ConfigurationError(f"command '{command}' needs nonempty sweeps.N and sweeps.beta")
    return [(int(N), float(b)) for b in betas for N in Ns]


def cmd_predict(config, outdir):
    v = resolve_potential(config, "predict")
    w = resolve_interaction(config, "predict")
    tol = _tolerance(config)
    base = tf.tf_solve(v, tol)
    pairs = _sweep_pairs(config, "predict")
    # the scattering length depends on the interaction alone: solve it once
    ctx = asy.make_context(*pairs[0], w, tol)
    rows = [
        asy.predict_energy(v, dataclasses.replace(ctx, N=N, beta=beta), base)
        for N, beta in pairs
    ]
    path = os.path.join(outdir, "prediction.csv")
    asy.write_prediction_csv(
        path,
        rows,
        _header(
            "predict",
            config,
            ["two_term: N E_TF + 2 pi a_w N^(4/3 - beta) int rho_TF^2"],
        ),
    )
    return [path]


def cmd_boxes(config, outdir):
    v = resolve_potential(config, "boxes")
    w = resolve_interaction(config, "boxes")
    tol = _tolerance(config)
    pairs = _sweep_pairs(config, "boxes")
    N, beta = pairs[0]
    ctx = asy.make_context(N, beta, w, tol)
    l = config.get("boxes", {}).get("l")
    if l is None:
        window = asy.beta_l_window(beta, N)
        if not window.feasible:
            raise asy.RegimeError(f"no admissible box scale at beta={beta}")
        l = window.chosen_l
    base = tf.tf_solve(v, tol)
    est = asy.box_estimate(v, ctx, float(l), base)
    path = os.path.join(outdir, "boxes.csv")
    asy.write_boxes_csv(
        path,
        est,
        _header(
            "boxes",
            config,
            [
                "mass: M_i = ceil(N/2 int_cell rho)",
                "per_box: N^(2 beta - 2/3) (2 c_tf L^-2 M^(5/3) + 8 pi a_w L^-3 M^2)",
            ],
        ),
    )
    return [path]


def cmd_budget(config, outdir):
    rows = [asy.error_budget(N, beta) for N, beta in _sweep_pairs(config, "budget")]
    path = os.path.join(outdir, "budget.csv")
    asy.write_budget_csv(
        path,
        rows,
        _header(
            "budget",
            config,
            [
                "f(N) = N^(5/6) + p_F^-2 N + delta^-1 N^(1/3-beta) (N^(-1/18)+N^(1/6-beta/2))"
                " (R^-3 + (eps s^2 R)^-1) + N^(1/3-beta)/(eps s^2 R)",
                "couplings: delta=eps, p_F^-2=eps N^(1/3-beta), s^2=eps^2 N^(1/3-beta), R=eps hbar",
            ],
        ),
    )
    return [path]


def cmd_verify_all(config, outdir):
    from .acceptance import run_all

    results = run_all(echo=True)
    path = os.path.join(outdir, "acceptance_summary.csv")
    header = _header("verify-all", config, ["acceptance: one row per criterion"])
    rows = ((res.cid, res.description, "pass" if res.passed else "fail") for res in results)
    write_table(path, header, ("criterion", "description", "status"), rows)
    failed = [r for r in results if not r.passed]
    return [path], len(failed)


_DISPATCH = {
    "tf": cmd_tf,
    "scatter": cmd_scatter,
    "semiclass": cmd_semiclass,
    "spectra": cmd_spectra,
    "husimi": cmd_husimi,
    "predict": cmd_predict,
    "boxes": cmd_boxes,
    "budget": cmd_budget,
}


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
        user, used_defaults = load_config(args.config)
        config = _merge(DEFAULT_CONFIG, user) if not used_defaults else user
        if args.config is not None:
            # an explicit config must itself carry the sections its command needs
            config_for_validation = user
        else:
            config_for_validation = config
        for key, default in DEFAULT_CONFIG.items():
            if isinstance(default, dict) and not isinstance(config.get(key, default), dict):
                raise ConfigurationError(f"'{key}' must be a JSON object")
        outdir = args.out or config.get("output", {}).get("directory", "out")
        try:
            if args.command in ("tf", "semiclass", "predict", "boxes"):
                resolve_potential(config_for_validation, args.command)
            if args.command in ("scatter", "predict", "boxes"):
                resolve_interaction(config_for_validation, args.command)
            if args.command in ("tf", "scatter", "predict", "boxes"):
                _tolerance(config)
            sweeps = config.get("sweeps", {})
            for key in DEFAULT_CONFIG["sweeps"]:
                values = [float(x) for x in sweeps.get(key) or []]
                if not np.all(np.isfinite(values)):
                    raise ConfigurationError(f"every sweeps.{key} entry must be finite")
                if key in ("A", "p_F") and min(values, default=1.0) <= 0:
                    raise ConfigurationError(f"every sweeps.{key} entry must be > 0")
                if key == "A" and any(b <= a for a, b in zip(values, values[1:])):
                    raise ConfigurationError("sweeps.A must be increasing")
            if args.command in ("predict", "boxes", "budget"):
                if min(N for N, _ in _sweep_pairs(config, args.command)) < 2:
                    raise ConfigurationError("every sweeps.N must be >= 2")
            if args.command in ("spectra", "husimi"):
                spec = config.get(args.command, DEFAULT_CONFIG[args.command])
                if not float(spec.get("hbar", DEFAULT_CONFIG[args.command]["hbar"])) > 0:
                    raise ConfigurationError(f"{args.command}.hbar must be > 0")
                if args.command == "husimi":
                    _husimi_args(spec)
                else:
                    _, _, offset, scan_lam = _spectra_args(spec)
                    if spec.get("density"):
                        _density_args(spec)
                    if len(sweeps.get("N") or []) >= 2:
                        # the scan's finest catalog: hbar = N^(-1/3) at its largest N
                        N_top = max(sp.weyl_scan_sizes(sweeps["N"]))
                        sp.harmonic_shell_count(N_top ** (-1.0 / 3.0), scan_lam + 1e-12, offset)
            if args.command == "boxes" and config.get("boxes", {}).get("l") is not None:
                if not float(config["boxes"]["l"]) > 0:
                    raise ConfigurationError("boxes.l must be null or > 0")
        except (ValueError, TypeError, AttributeError, OverflowError) as exc:
            raise ConfigurationError(str(exc)) from exc
        os.makedirs(outdir, exist_ok=True)
        if args.command == "verify-all":
            paths, n_failed = cmd_verify_all(config, outdir)
            exit_code = 1 if n_failed else 0
        else:
            paths = _DISPATCH[args.command](config, outdir)
            exit_code = 0
        if config.get("output", {}).get("json_mirror", False):
            for p in list(paths):
                paths.append(_mirror_csv_as_json(p))
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
