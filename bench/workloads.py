"""The benchmark's three workloads.

A workload is a fixed round of like operations, built once from the
seed.  ``solve-sweep`` and ``fine-scale`` call the library in the
workload's own process; ``cli-cold`` starts a fresh command-line process
per command.  Each operation returns a plain summary of its outputs.
After timing, the first round's summaries are checked against the
independent references in ``checks``, and every later round must have
reproduced them exactly.

The seed only draws values that leave the work of a round unchanged:
barrier heights and amplitudes (the RK4 grid depends on the radius
alone), the (N, beta) pairs of the prediction grid (closed-form
arithmetic once a_w is solved) and, for ``cli-cold``, the order of the
commands.  In-process rounds keep one order, because the order moves
the process's peak memory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import checks


class OpFailed(RuntimeError):
    """An operation failed: it raised, exited non-zero or wrote unusable output.

    ``summary`` carries what the operation did produce, so its usable
    outputs are still checked and compared between rounds.
    """

    def __init__(self, message, summary=None):
        super().__init__(message)
        self.summary = summary


@dataclass
class Op:
    name: str
    run: object  # run(round_context) -> summary, or what summarize takes
    check: object  # check(checker, summary)
    summarize: object = None  # summarize(result) -> summary, after the round's timing


@dataclass
class RoundContext:
    index: int
    directory: Path
    state: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list
    warm_up: object
    in_process: bool = True


def digest(value):
    """Canonical hash of a nested summary (floats by repr, arrays by bytes)."""
    h = hashlib.sha256()

    def feed(v):
        if hasattr(v, "tobytes") and hasattr(v, "dtype"):
            h.update(f"{v.dtype}{v.shape}".encode())
            h.update(v.tobytes())
        elif isinstance(v, dict):
            for k in sorted(v):
                h.update(str(k).encode())
                feed(v[k])
        elif isinstance(v, (list, tuple)):
            h.update(b"[")
            for x in v:
                feed(x)
            h.update(b"]")
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


def _square(x):
    return x * x


def _quartic(x):
    return x**4


# ------------------------------------------------------------- solve-sweep

SWEEP_TRAPS = (("harmonic", 2.0, 0.0), ("harmonic+1", 2.0, 1.0), ("power s=3", 3.0, 1.0),
               ("power s=4", 4.0, 1.0), ("power s=6", 6.0, 1.0))
SWEEP_COUPLINGS = (0.2, 0.1, 0.05, 0.025)
# caps below 24^(1/6) = 1.698 saturate (spike branch); the rest are inactive
SWEEP_CAPS = (1.2, 1.4, 1.6, 2.0, 4.0)
SWEEP_LEVELS = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
SWEEP_FILLINGS = (0.5, 1.0, 2.0)


def solve_sweep(rng, work, env):
    from dilutefermi import asymptotics as asy
    from dilutefermi import potentials as pots
    from dilutefermi import scattering as sc
    from dilutefermi import semiclassics as scl
    from dilutefermi import thomas_fermi as tf

    def trap(s, offset):
        return pots.harmonic_trap(offset) if s == 2.0 else pots.power_trap(s)

    v0 = pots.harmonic_trap(0.0)
    v1 = pots.harmonic_trap(1.0)
    ops = []
    for label, s, off in SWEEP_TRAPS:
        def run_tf(rc, v=trap(s, off)):
            sol = tf.tf_solve(v)
            return sol.lambda_TF, sol.E_TF, sol.interaction_integral

        def check_tf(ck, out, label=label, s=s, off=off):
            checks.check_tf(ck, f"tf_solve {label}", s, off, *out)

        ops.append(Op(f"tf_solve {label}", run_tf, check_tf))

    for g in SWEEP_COUPLINGS:
        def run_two_spin(rc, g=g):
            st = tf.two_spin_minimize(v0, g)
            gap = float(abs(st.rho_up_values - st.rho_down_values).max())
            return st.energy, st.lambda_two_spin, gap

        def check_two_spin(ck, out, g=g):
            energy, mu, gap = out
            checks.check_two_spin(ck, f"two_spin g={g}", g, energy, mu, checks.two_spin_reference(2.0, 0.0, g))
            ck.require(gap <= 1e-6, f"two_spin g={g}: spin densities differ by {gap}")

        ops.append(Op(f"two_spin_minimize g={g}", run_two_spin, check_two_spin))

    ops.append(Op(
        "cutoff_gap_scan",
        lambda rc: list(tf.cutoff_gap_scan(v1, list(SWEEP_CAPS)).gaps),
        lambda ck, out: checks.check_cutoff_gaps(ck, "cutoff_gap_scan", SWEEP_CAPS, out, 1.0),
    ))

    for lam in SWEEP_LEVELS:
        def run_counts(rc, lam=lam):
            b = scl.phase_space_counts(v1, lam)
            return b.n_cl, b.e_cl

        ops.append(Op(f"phase_space_counts Lambda={lam}", run_counts,
                      lambda ck, out, lam=lam: checks.check_counts(ck, "phase_space_counts", lam, *out, 1.0)))
    for target in SWEEP_FILLINGS:
        ops.append(Op(f"lambda_for_filling {target}",
                      lambda rc, t=target: scl.lambda_for_filling(v1, t),
                      lambda ck, out, t=target: checks.check_filling(ck, "lambda_for_filling", t, out, 1.0)))

    amplitudes = sorted(10.0 ** rng.uniform(0.0, 4.0) for _ in range(8))
    ops.append(Op(
        "hardcore_limit",
        lambda rc: sc.hardcore_limit(sc.square_barrier(1.0, 1.0), amplitudes),
        lambda ck, out: [checks.check_barrier(ck, "hardcore_limit", amp, 1.0, a) for amp, a in out],
    ))

    height = rng.uniform(0.5, 5.0)
    pairs = [(int(10.0 ** rng.uniform(3.0, 9.0)), rng.uniform(0.34, 0.49)) for _ in range(9)]

    def run_predict(rc):
        w = sc.square_barrier(height, 1.0)
        base = tf.tf_solve(v1)
        rows = []
        for N, beta in pairs:
            p = asy.predict_energy(v1, asy.make_context(N, beta, w), base)
            rows.append((p.main, p.correction))
        return rows

    def check_predict(ck, rows):
        ref = checks.tf_reference(2.0, 1.0)
        a_w = checks.barrier_length(height, 1.0)
        for (N, beta), (main, corr) in zip(pairs, rows):
            main_ref, corr_ref = checks.prediction_reference(N, beta, ref["E_TF"], ref["rho2"], a_w)
            ck.close(f"predict main N={N}", main, main_ref, rtol=checks.TF_RTOL)
            ck.close(f"predict correction N={N} beta={beta}", corr, corr_ref, rtol=checks.TF_RTOL)

    ops.append(Op("make_context+predict_energy grid", run_predict, check_predict))

    def warm_up():
        tf.tf_solve(v1)
        tf.two_spin_minimize(v0, SWEEP_COUPLINGS[0])
        tf.cutoff_tf_solve(v1, SWEEP_CAPS[0])
        scl.phase_space_counts(v1, SWEEP_LEVELS[0])
        sc.zero_energy_solve(sc.square_barrier(1.0, 1.0))

    return Workload("solve-sweep", ops, warm_up)


# -------------------------------------------------------------- fine-scale

BOX_N, BOX_BETA = 10**6, 0.4
HUSIMI_HBARS = (0.05, 0.025)
LADDER_N = (100, 1000, 10000)
# 10^4 points resolve the top count (187) at hbar = 1/200; 5000 do not
WEYL_POINTS = 10000


def fine_scale(rng, work, env):
    import numpy as np

    from dilutefermi import asymptotics as asy
    from dilutefermi import numerics as nm
    from dilutefermi import potentials as pots
    from dilutefermi import scattering as sc
    from dilutefermi import spectra as sp
    from dilutefermi import thomas_fermi as tf

    # library calls go through module attributes, where a traced run sees them
    RadialProfile, Tolerance = nm.RadialProfile, nm.Tolerance

    v0 = pots.harmonic_trap(0.0)
    height = rng.uniform(1.0, 4.0)
    l0 = checks.window_l(BOX_N, BOX_BETA)
    nodes = np.linspace(0.0, 6.0, 4097)
    samples = range(0, 2049, 256)  # radii 0 .. 3

    def run_tf(rc):
        sol = tf.tf_solve(v0)
        rc.state["tf"] = sol
        return sol.lambda_TF, sol.E_TF, sol.interaction_integral

    def run_boxes(rc):
        ctx = asy.make_context(BOX_N, BOX_BETA, sc.square_barrier(height, 1.0))
        out = []
        for f in (1, 2, 4):
            e = asy.box_estimate(v0, ctx, l0 / f, rc.state["tf"])
            out.append({"pitch": e.l + e.gap, "masses": e.masses, "centers": e.centers,
                        "prediction": e.prediction_total, "d53": e.rho53_defect, "d2": e.rho2_defect})
        return out

    def check_boxes(ck, out):
        ref = checks.tf_reference(2.0, 0.0)
        main, corr = checks.prediction_reference(
            BOX_N, BOX_BETA, ref["E_TF"], ref["rho2"], checks.barrier_length(height, 1.0))
        for f, e in zip((1, 2, 4), out):
            checks.check_boxes(ck, f"box_estimate l0/{f}", BOX_N, e["masses"].tolist(),
                               e["centers"].tolist(), e["pitch"])
            ck.close(f"box_estimate l0/{f} prediction", e["prediction"], main + corr, rtol=checks.TF_RTOL)
        for key in ("d53", "d2"):
            seq = [e[key] for e in out]
            ck.require(all(b < a for a, b in zip(seq, seq[1:])), f"box Riemann defects {key} {seq} not decreasing")

    def run_husimi(rc, hb):
        cat = sp.fd_catalog_1d(_square, hb, 4.0, 1001, 21.0 * hb + 0.01)
        rep = sp.coherent_identity_check_1d(cat, 10)
        return {"energies": cat.energies.tolist(), "h": float(cat.grid[1] - cat.grid[0]),
                "sturm": cat.sturm_certified, "res": rep.resolution_residual, "m_min": rep.m_min,
                "m_max": rep.m_max, "kin": rep.kinetic_identity_residual, "kin_ref": rep.kinetic_reference}

    def check_husimi(ck, out, hb):
        label = f"husimi hbar={hb}"
        checks.check_fd_oscillator(ck, label, hb, out["h"], out["energies"])
        ck.require(out["sturm"], f"{label}: Sturm count does not certify the catalog")
        checks.check_husimi(ck, label, out["res"], out["m_min"], out["m_max"], out["kin"], out["kin_ref"])

    def run_ladder(rc):
        rho_tf = RadialProfile(nodes, rc.state["tf"].rho_fn(nodes))
        out = []
        for N in LADDER_N:
            hb = N ** (-1.0 / 3.0)
            M = math.ceil(N / 2)
            fn = sp.free_ground_state_density_fn(hb, M)
            trace = nm.integrate_radial(fn, 6.0, Tolerance(abs=1e-10, rel=1e-10))
            vals = 2.0 * fn(nodes) / N
            out.append({"N": N, "hbar": hb, "M": M, "trace": trace, "vals": vals,
                        "dist": nm.lp_distance(RadialProfile(nodes, vals), rho_tf, 1.0)})
        return {"rungs": out, "tf_vals": rho_tf.values}

    def check_ladder(ck, out):
        rungs = out["rungs"]
        lam = checks.tf_reference(2.0, 0.0)["lambda"]
        for i in samples:
            ck.close(f"rho_TF at r={nodes[i]}", out["tf_vals"][i],
                     checks.tf_density_reference(nodes[i], lam, 0.0), rtol=checks.TF_RTOL, atol=1e-12)
        for rung in rungs:
            checks.check_free_density(ck, f"free density M={rung['M']}", rung["hbar"], rung["M"],
                                      [nodes[i] for i in samples],
                                      [rung["vals"][i] * rung["N"] / 2.0 for i in samples])
        refs = [checks.l1_reference(nodes, r["vals"], out["tf_vals"]) for r in rungs]
        checks.check_l1_ladder(ck, "free-state ladder", [r["M"] for r in rungs],
                               [r["trace"] for r in rungs], [r["dist"] for r in rungs], refs)

    def run_weyl(rc):
        scan = sp.weyl_error_scan(
            {"kind": "fd_1d", "v": _quartic, "halfwidth": 3.0, "points": WEYL_POINTS}, [2, 20, 200], 2.0)
        return {"n_q": list(scan.n_q), "n_cl": scan.n_cl}

    ops = [
        Op("tf_solve harmonic", run_tf, lambda ck, out: checks.check_tf(ck, "tf_solve harmonic", 2.0, 0.0, *out)),
        Op("box_estimate ladder", run_boxes, check_boxes),
        Op("free-state L1 ladder", run_ladder, check_ladder),
        Op("weyl_error_scan fd_1d quartic", run_weyl,
           lambda ck, out: checks.check_weyl_fd(ck, "weyl fd_1d quartic", 4.0, 2.0, [2, 20, 200],
                                               out["n_q"], out["n_cl"])),
    ]
    for hb in HUSIMI_HBARS:
        ops.append(Op(f"fd_catalog_1d+coherent_identity_check_1d hbar={hb}",
                      lambda rc, hb=hb: run_husimi(rc, hb),
                      lambda ck, out, hb=hb: check_husimi(ck, out, hb)))

    def warm_up():
        base = tf.tf_solve(v0)
        ctx = asy.make_context(BOX_N, BOX_BETA, sc.square_barrier(height, 1.0))
        asy.box_estimate(v0, ctx, l0, base)
        cat = sp.fd_catalog_1d(_square, HUSIMI_HBARS[0], 4.0, 1001, 21.0 * HUSIMI_HBARS[0] + 0.01)
        sp.coherent_identity_check_1d(cat, 1)
        sp.fd_catalog_1d(_quartic, 0.05, 3.0, 1000, 2.0, keep_vectors=False)
        fn = sp.free_ground_state_density_fn(0.2, 50)
        nm.integrate_radial(fn, 6.0, Tolerance(abs=1e-10, rel=1e-10))
        nm.lp_distance(RadialProfile(nodes, fn(nodes)), RadialProfile(nodes, base.rho_fn(nodes)), 1.0)

    return Workload("fine-scale", ops, warm_up)


# ---------------------------------------------------------------- cli-cold

CLI_COMMANDS = ("tf", "scatter", "semiclass", "spectra", "husimi", "predict", "boxes", "budget")

# The documented defaults (dilutefermi.cli.DEFAULT_CONFIG), plus the
# documented spectra.density example and the JSON mirror, so that every
# CSV writer and the mirror run.  Only keys from docs/config_schema.md.
CLI_CONFIG = {
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
    "spectra": {
        "hbar": 1.0, "lambda_max": 12.0, "offset": 0.0,
        "density": {"hbar": 0.1, "M": 500, "r_max": 6.0, "nodes": 2049},
    },
    "husimi": {"hbar": 0.05, "fill": 10, "halfwidth": 4.0, "points": 1001},
    "boxes": {"l": None},
    "output": {"directory": "out", "json_mirror": True},
}

CLI_FILES = {
    "tf": ("tf_solution", "cutoff_scan"),
    "scatter": ("scattering_profile", "hardcore_sweep"),
    "semiclass": ("semiclassics",),
    "spectra": ("catalog", "weyl_scan", "free_state_density"),
    "husimi": ("husimi",),
    "predict": ("prediction",),
    "boxes": ("boxes",),
    "budget": ("budget",),
}


def cli_argv(cmd, config_path, out_dir):
    if cmd == "import":
        return [sys.executable, "-c", "import dilutefermi.cli"]
    return [sys.executable, "-m", "dilutefermi.cli", cmd, "--config", str(config_path), "--out", str(out_dir)]


def read_table(path):
    """Rows of an emitted CSV as dicts keyed by column name; '#' lines are skipped."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return list(csv.DictReader(ln for ln in lines if ln and not ln.startswith("#")))


def _is_number(cell):
    try:
        float(cell)
    except (TypeError, ValueError):
        return False
    return True


def command_outputs(cmd, out_dir):
    """Summary of one command's files; raises OpFailed when a table is not numeric.

    ``out_dir`` None (the bare import) has no files.

    Every cell of every data table the tool writes is a number, so a
    cell that does not parse as one makes the file unusable.
    """
    if out_dir is None:
        return {}
    out_dir = Path(out_dir)
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}
    bad = {}
    for path in sorted(out_dir.glob("*.csv")):
        cells = [c for row in read_table(path) for c in row.values() if not _is_number(c)]
        if cells:
            bad[path.name] = cells[0]
    summary = {"hashes": hashes, "malformed": sorted(bad)}
    if bad:
        detail = "; ".join(f"{name} holds non-numeric cells such as {cell!r}" for name, cell in bad.items())
        raise OpFailed(f"{cmd}: {detail}", summary)
    return summary


def cli_cold(rng, work, env):
    config_path = Path(work) / "cli_config.json"
    config_path.write_text(json.dumps(CLI_CONFIG, indent=1))
    first_round = {}

    def run_cmd(rc, cmd):
        out_dir = rc.directory / cmd
        proc = subprocess.run(cli_argv(cmd, config_path, out_dir), env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        if proc.returncode != 0:
            raise OpFailed(f"{cmd} exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
        if cmd == "import":
            return None
        if rc.index == 0:
            first_round[cmd] = out_dir
        return out_dir

    def check_cmd(ck, summary, cmd):
        if cmd != "import":
            check_cli_outputs(ck, cmd, first_round[cmd], summary["malformed"])

    ops = [Op(cmd, lambda rc, c=cmd: run_cmd(rc, c), lambda ck, out, c=cmd: check_cmd(ck, out, c),
              lambda out_dir, c=cmd: command_outputs(c, out_dir))
           for cmd in CLI_COMMANDS + ("import",)]
    rng.shuffle(ops)

    def warm_up():
        subprocess.run(cli_argv("import", None, None), env=env, check=True, timeout=120)

    return Workload("cli-cold", ops, warm_up, in_process=False)


def _num(x):
    return float(x) if _is_number(x) else x


def check_mirror(ck, csv_path):
    json_path = csv_path.with_suffix(".json")
    if not ck.require(json_path.is_file(), f"{json_path.name} missing"):
        return
    rows = read_table(csv_path)
    mirror = json.loads(json_path.read_text(encoding="utf-8")).get("rows", [])
    same = len(rows) == len(mirror) and all(
        set(a) == set(b) and all(_num(a[k]) == _num(b[k]) for k in a) for a, b in zip(rows, mirror)
    )
    ck.require(same, f"{json_path.name} rows differ from {csv_path.name}")


def check_cli_outputs(ck, cmd, out_dir, malformed=()):
    """Check one command's tables (config CLI_CONFIG) and their JSON mirrors.

    Tables already counted as failed for non-numeric cells are only
    compared with their mirrors.
    """
    for stem in CLI_FILES[cmd]:
        path = Path(out_dir) / f"{stem}.csv"
        if not ck.require(path.is_file(), f"{cmd}: {path.name} missing"):
            continue
        check_mirror(ck, path)
        if path.name not in malformed:
            TABLE_CHECKS[stem](ck, read_table(path))


def _check_tf_solution(ck, rows):
    ref = checks.tf_reference(2.0, 1.0)
    rho_max = max((float(r["rho"]) for r in rows), default=0.0)
    ck.require(rho_max > 0, "tf_solution.csv has no density")
    for r in rows:
        x = float(r["r"])
        ck.close(f"tf_solution V at r={x}", r["V"], 1.0 + x * x, rtol=checks.FORMULA_RTOL)
        ck.close(f"tf_solution rho at r={x}", r["rho"], checks.tf_density_reference(x, ref["lambda"], 1.0),
                 atol=1e-8 * rho_max)
        ck.require(float(r["lagrange_residual"]) <= 1e-8 * ref["lambda"], f"tf_solution residual at r={x}")


def _check_cutoff_scan(ck, rows):
    e_tf = checks.tf_reference(2.0, 1.0)["E_TF"]
    ck.require([float(r["p_F"]) for r in rows] == CLI_CONFIG["sweeps"]["p_F"], "cutoff_scan.csv p_F column")
    for r in rows:
        p = float(r["p_F"])
        gap = checks.cutoff_reference(p, 1.0)
        ck.close(f"cutoff_scan gap p_F={p}", r["gap"], gap, atol=1e-9)
        ck.close(f"cutoff_scan E_TF_pF p_F={p}", r["E_TF_pF"], e_tf - gap, rtol=checks.TF_RTOL)
        ck.close(f"cutoff_scan overflow p_F={p}", r["overflow_mass"], max(0.0, 1.0 - p**6 / 24.0), atol=1e-9)


def _check_scattering_profile(ck, rows):
    height = CLI_CONFIG["interaction"]["height"]
    R = CLI_CONFIG["interaction"]["radius"]
    k = math.sqrt(height / 2.0)
    ck.require(rows, "scattering_profile.csv has no rows")
    for r in rows:
        x = float(r["r"])
        u = checks.barrier_profile(x, height, R)
        ck.close(f"scattering u at r={x}", r["u"], u, atol=checks.SCATTER_ATOL)
        ck.close(f"scattering f at r={x}", r["f"], u / x if x > 0 else 1.0 / math.cosh(k * R),
                 atol=checks.SCATTER_ATOL)
        ck.close(f"scattering v at r={x}", r["v"], height if x <= R else 0.0)


def _check_hardcore_sweep(ck, rows):
    height = CLI_CONFIG["interaction"]["height"]
    ck.require([float(r["A"]) for r in rows] == CLI_CONFIG["sweeps"]["A"], "hardcore_sweep.csv A column")
    for r in rows:
        # the applied amplitude is the barrier height times the sweep factor
        checks.check_barrier(ck, "hardcore_sweep", height * float(r["A"]), CLI_CONFIG["interaction"]["radius"],
                             float(r["a"]))


def _check_semiclassics(ck, rows):
    lams = [float(r["Lambda"]) for r in rows]
    ck.require(lams == CLI_CONFIG["sweeps"]["Lambda"], "semiclassics.csv Lambda column")
    n_ref = [checks.counts_reference(lam, 1.0)[0] for lam in lams]
    d_ref = checks.gradient_reference(lams, n_ref) if len(lams) > 1 else []
    for r, lam, dn in zip(rows, lams, d_ref):
        checks.check_counts(ck, "semiclassics.csv", lam, float(r["n_cl"]), float(r["e_cl"]), 1.0)
        n, e = checks.counts_reference(lam, 1.0)
        ck.close(f"semiclassics e_tilde at {lam}", r["e_tilde"], e - lam * n, rtol=1e-8, atol=1e-12)
        ck.close(f"semiclassics d_n_cl at {lam}", r["d_n_cl"], dn, rtol=1e-8, atol=1e-12)


def _check_catalog(ck, rows):
    spec = CLI_CONFIG["spectra"]
    shells = checks.oscillator_shells(spec["hbar"], spec["lambda_max"], spec["offset"])
    got = [(float(r["level"]), int(r["degeneracy"])) for r in rows]
    ck.require(got == shells, f"catalog.csv {got} != oscillator shells {shells}")


def _check_weyl_scan(ck, rows):
    lam = 48.0 ** (1.0 / 3.0)  # the command's default scan level
    n_cl, e_cl = checks.counts_reference(lam, 0.0)
    ck.require([int(r["N"]) for r in rows] == CLI_CONFIG["sweeps"]["N"], "weyl_scan.csv N column")
    for r in rows:
        N = int(r["N"])
        hb = N ** (-1.0 / 3.0)
        below = [(e, d) for e, d in checks.oscillator_shells(hb, lam, 0.0)]
        n_q = sum(d for _, d in below)
        e_q = sum(e * d for e, d in below)
        ck.close(f"weyl_scan hbar N={N}", r["hbar"], hb, rtol=checks.FORMULA_RTOL)
        ck.require(int(r["n_q"]) == n_q, f"weyl_scan n_q N={N}: {r['n_q']} != {n_q}")
        ck.close(f"weyl_scan e_q N={N}", r["e_q"], e_q, rtol=1e-12)
        ck.close(f"weyl_scan n_err N={N}", r["n_err"], abs(n_q - N * n_cl), atol=1e-9 * N * n_cl)
        ck.close(f"weyl_scan e_err N={N}", r["e_err"], abs(e_q - N * e_cl), atol=1e-9 * N * e_cl)


def _check_free_state_density(ck, rows):
    dens = CLI_CONFIG["spectra"]["density"]
    ck.require(len(rows) == dens["nodes"], "free_state_density.csv node count")
    picked = rows[::128]
    checks.check_free_density(ck, "free_state_density.csv", dens["hbar"], dens["M"],
                              [float(r["r"]) for r in picked], [float(r["rho"]) for r in picked])


def _check_husimi(ck, rows):
    if not ck.require(len(rows) == 1, "husimi.csv needs one row"):
        return
    r = rows[0]
    hb = CLI_CONFIG["husimi"]["hbar"]
    ck.close("husimi hbar_x", r["hbar_x"], hb ** (4.0 / 3.0), rtol=checks.FORMULA_RTOL)
    ck.close("husimi hbar_p", r["hbar_p"], hb ** (2.0 / 3.0), rtol=checks.FORMULA_RTOL)
    checks.check_husimi(ck, "husimi.csv", float(r["resolution_residual"]), float(r["m_min"]), float(r["m_max"]))


def _sweep_pairs():
    return [(N, b) for b in CLI_CONFIG["sweeps"]["beta"] for N in CLI_CONFIG["sweeps"]["N"]]


def _check_prediction(ck, rows):
    ref = checks.tf_reference(2.0, 1.0)
    a_w = checks.barrier_length(CLI_CONFIG["interaction"]["height"], CLI_CONFIG["interaction"]["radius"])
    ck.require([(int(r["N"]), float(r["beta"])) for r in rows] == _sweep_pairs(), "prediction.csv (N, beta)")
    for r, (N, beta) in zip(rows, _sweep_pairs()):
        main, corr = checks.prediction_reference(N, beta, ref["E_TF"], ref["rho2"], a_w)
        ck.close(f"prediction main N={N}", r["main"], main, rtol=checks.TF_RTOL)
        ck.close(f"prediction correction N={N}", r["correction"], corr, rtol=checks.TF_RTOL)
        ck.close(f"prediction total N={N}", r["total"], float(r["main"]) + float(r["correction"]),
                 rtol=checks.FORMULA_RTOL)


def _check_boxes(ck, rows):
    N, beta = _sweep_pairs()[0]
    R = CLI_CONFIG["interaction"]["radius"]
    a_w = checks.barrier_length(CLI_CONFIG["interaction"]["height"], R)
    l = checks.window_l(N, beta)
    L = N**beta * l
    centers = [(float(r["cx"]), float(r["cy"]), float(r["cz"])) for r in rows]
    masses = [int(r["M_i"]) for r in rows]
    ck.require(rows, "boxes.csv has no cells")
    checks.check_boxes(ck, "boxes.csv", N, masses, centers, l + N ** (-beta) * R)
    scale = N ** (2.0 * beta - 2.0 / 3.0)
    for r, c, M in zip(rows, centers, masses):
        kin = scale * (2.0 * checks.C_TF * M ** (5.0 / 3.0) / L**2 + 8.0 * math.pi * a_w * M * M / L**3)
        ck.close(f"boxes kinetic_interaction at {c}", r["kinetic_interaction"], kin, rtol=1e-9)
        # a convex radial trap peaks at the box corner farthest from the origin
        corner = sum((abs(x) + 0.5 * l) ** 2 for x in c)
        ck.close(f"boxes potential at {c}", r["potential"], 2.0 * M * (1.0 + corner), rtol=1e-12)


def _check_budget(ck, rows):
    ck.require([(int(r["N"]), float(r["beta"])) for r in rows] == _sweep_pairs(), "budget.csv (N, beta)")
    for r, (N, beta) in zip(rows, _sweep_pairs()):
        for key, want in checks.budget_reference(float(N), beta).items():
            ck.close(f"budget {key} N={N}", r[key], want, rtol=1e-12)


TABLE_CHECKS = {
    "tf_solution": _check_tf_solution,
    "cutoff_scan": _check_cutoff_scan,
    "scattering_profile": _check_scattering_profile,
    "hardcore_sweep": _check_hardcore_sweep,
    "semiclassics": _check_semiclassics,
    "catalog": _check_catalog,
    "weyl_scan": _check_weyl_scan,
    "free_state_density": _check_free_state_density,
    "husimi": _check_husimi,
    "prediction": _check_prediction,
    "boxes": _check_boxes,
    "budget": _check_budget,
}

BUILDERS = {"solve-sweep": solve_sweep, "fine-scale": fine_scale, "cli-cold": cli_cold}
