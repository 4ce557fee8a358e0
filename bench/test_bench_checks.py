"""Self-test of the benchmark's output checks.

Every check is fed values built from its reference, which must pass, and
the same values with one entry perturbed, which must fail.  A check that
cannot fail would let a wrong output through unnoticed.
"""

import copy
import json
import math

import pytest

import checks
import workloads


def failures(fn, *args):
    ck = checks.Checker()
    fn(ck, *args)
    return ck.failures


def test_tf_reference_matches_harmonic_closed_forms():
    ref = checks.tf_reference(2.0, 0.0)
    lam = 24.0 ** (1.0 / 3.0)
    assert ref["lambda"] == pytest.approx(lam, rel=1e-14)
    assert ref["E_TF"] == pytest.approx(0.75 * lam, rel=1e-14)
    assert ref["rho2"] == pytest.approx((64.0 / 2835.0) * 24.0**1.5 / math.pi**3, rel=1e-13)
    assert checks.tf_reference(2.0, 1.0)["E_TF"] == pytest.approx(1.0 + 0.75 * lam, rel=1e-14)


@pytest.mark.parametrize("s,offset", [(2.0, 0.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0), (6.0, 1.0)])
@pytest.mark.parametrize("field", [0, 1, 2])
def test_tf_check(s, offset, field):
    ref = checks.tf_reference(s, offset)
    good = [ref["lambda"], ref["E_TF"], ref["rho2"]]
    assert not failures(checks.check_tf, "tf", s, offset, *good)
    bad = list(good)
    bad[field] *= 1.0 + 1e-6
    assert failures(checks.check_tf, "tf", s, offset, *bad)


def test_two_spin_check():
    ref = checks.two_spin_reference(2.0, 0.0, 0.2)
    # a weak coupling raises the energy by about g/4 int rho_TF^2
    tf = checks.tf_reference(2.0, 0.0)
    assert ref["energy"] - tf["E_TF"] == pytest.approx(0.2 * tf["rho2"] / 4.0, rel=0.05)
    assert not failures(checks.check_two_spin, "two_spin", 0.2, ref["energy"], ref["mu"], ref)
    assert failures(checks.check_two_spin, "two_spin", 0.2, ref["energy"] * (1 + 1e-6), ref["mu"], ref)
    assert failures(checks.check_two_spin, "two_spin", 0.2, ref["energy"], ref["mu"] * (1 + 1e-6), ref)


def test_cutoff_check():
    caps = [1.2, 1.6, 2.0, 4.0]
    gaps = [checks.cutoff_reference(p, 1.0) for p in caps]
    assert gaps[0] > 0 and gaps[2] == gaps[3] == 0.0
    # continuous at saturation, p_F^6 = 24
    assert checks.cutoff_reference(24.0 ** (1.0 / 6.0) * (1 - 1e-12), 1.0) == pytest.approx(0.0, abs=1e-9)
    assert not failures(checks.check_cutoff_gaps, "cut", caps, gaps, 1.0)
    for i, delta in ((0, 1e-6), (3, 1e-6)):
        bad = list(gaps)
        bad[i] += delta
        assert failures(checks.check_cutoff_gaps, "cut", caps, bad, 1.0)


def test_counts_and_filling_checks():
    n, e = checks.counts_reference(3.0, 1.0)
    assert n == pytest.approx(8.0 / 48.0) and e == pytest.approx(16.0 / 64.0 + 8.0 / 48.0)
    assert not failures(checks.check_counts, "c", 3.0, n, e, 1.0)
    assert failures(checks.check_counts, "c", 3.0, n * (1 + 1e-7), e, 1.0)
    assert failures(checks.check_counts, "c", 3.0, n, e * (1 + 1e-7), 1.0)
    lam = 1.0 + 48.0 ** (1.0 / 3.0)
    assert not failures(checks.check_filling, "f", 1.0, lam, 1.0)
    assert failures(checks.check_filling, "f", 1.0, lam * (1 + 1e-7), 1.0)


def test_barrier_check():
    a = checks.barrier_length(2.0, 1.0)
    assert a == pytest.approx(1.0 - math.tanh(1.0))
    assert checks.barrier_profile(1.0, 2.0, 1.0) == pytest.approx(1.0 - a)  # continuous at R
    assert not failures(checks.check_barrier, "b", 2.0, 1.0, a)
    assert failures(checks.check_barrier, "b", 2.0, 1.0, a + 1e-8)


def test_fd_oscillator_check():
    hbar, h = 0.05, 8.0 / 1002.0
    exact = [hbar * (2 * n + 1) for n in range(11)]
    assert not failures(checks.check_fd_oscillator, "fd", hbar, h, exact)
    bad = list(exact)
    bad[3] += 1e-2 * hbar  # the bound at n = 3 is 2e-4
    assert failures(checks.check_fd_oscillator, "fd", hbar, h, bad)


def test_weyl_fd_check():
    Ns = [2, 20, 200]
    n_q = [checks.wkb_count(4.0, 2.0, 1.0 / N)[0] for N in Ns]
    assert n_q == [2, 19, 187]
    n_cl = 2.0 * 2.0**0.75 * checks.beta_fn(0.25, 1.5) / 4.0 / math.pi
    assert not failures(checks.check_weyl_fd, "w", 4.0, 2.0, Ns, n_q, n_cl)
    assert failures(checks.check_weyl_fd, "w", 4.0, 2.0, Ns, n_q[:2] + [188], n_cl)
    assert failures(checks.check_weyl_fd, "w", 4.0, 2.0, Ns, n_q, n_cl * (1 + 1e-4))


@pytest.mark.parametrize("bad", [
    {"resolution": 2e-6}, {"m_min": -1e-3}, {"m_max": 1.01}, {"kinetic": 2.0},
])
def test_husimi_check(bad):
    good = {"resolution": 1e-13, "m_min": 0.0, "m_max": 0.9999, "kinetic": 1e-12, "kinetic_ref": 1e3}
    assert not failures(checks.check_husimi, "h", *good.values())
    assert failures(checks.check_husimi, "h", *{**good, **bad}.values())


def test_free_density_check():
    # one state: the 3d Gaussian ground state, rho(0) = (pi hbar)^(-3/2)
    assert checks.free_density_reference(0.3, 1, 0.0) == pytest.approx((math.pi * 0.3) ** -1.5)
    radii = [0.0, 0.5, 1.0]
    vals = [checks.free_density_reference(0.1, 20, r) for r in radii]
    assert not failures(checks.check_free_density, "d", 0.1, 20, radii, vals)
    assert failures(checks.check_free_density, "d", 0.1, 20, radii, vals[:2] + [vals[2] * (1 + 1e-6)])


def test_l1_ladder_check():
    import numpy as np

    nodes = np.linspace(0.0, 2.0, 65)
    f = np.maximum(1.0 - nodes, 0.0)
    g = 0.5 * np.ones_like(nodes)
    # |1/2 - r| on [0, 1] and 1/2 on [1, 2], weighted by 4 pi r^2: 4 pi (18/192 + 7/6)
    assert checks.l1_reference(nodes, f, g) == pytest.approx(4.0 * math.pi * (18.0 / 192.0 + 7.0 / 6.0), rel=1e-6)
    good = ([50, 500], [50.0, 500.0], [0.2, 0.1], [0.2, 0.1])
    assert not failures(checks.check_l1_ladder, "l", *good)
    assert failures(checks.check_l1_ladder, "l", [50, 500], [50.0, 500.1], [0.2, 0.1], [0.2, 0.1])
    assert failures(checks.check_l1_ladder, "l", [50, 500], [50.0, 500.0], [0.2, 0.1001], [0.2, 0.1])
    assert failures(checks.check_l1_ladder, "l", [50, 500], [50.0, 500.0], [0.1, 0.2], [0.1, 0.2])


def _orbit_cells():
    """Eight cells (+-c, +-c, +-c) plus the centre cell of a pitch-1 lattice."""
    cells = [(sx * 1.0, sy * 1.0, sz * 1.0) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    return cells + [(0.0, 0.0, 0.0)]


def test_box_check():
    cells = _orbit_cells()
    masses = [600] * 8 + [200]  # 2 sum M = 10000
    assert not failures(checks.check_boxes, "box", 10000, masses, cells, 1.0)
    assert failures(checks.check_boxes, "box", 10000, [601] + masses[1:], cells, 1.0)  # breaks symmetry
    assert failures(checks.check_boxes, "box", 10001, masses, cells, 1.0)  # 2 sum M < N
    assert failures(checks.check_boxes, "box", 9000, masses, cells, 1.0)  # too many particles


def test_budget_reference_orders():
    b = checks.budget_reference(1e6, 0.4)
    assert b["total"] == pytest.approx(
        b["bulk_term"] + b["cutoff_term"] + b["softening_term"] + b["remainder_term"])
    assert b["ratio"] < checks.budget_reference(1e4, 0.4)["ratio"]


# ------------------------------------------------------------- CLI tables


def _fmt(rows):
    return [{k: repr(v) if isinstance(v, float) else str(v) for k, v in row.items()} for row in rows]


def _good_tables():
    cfg = workloads.CLI_CONFIG
    tf = checks.tf_reference(2.0, 1.0)
    h, R = cfg["interaction"]["height"], cfg["interaction"]["radius"]
    k = math.sqrt(h / 2.0)
    lams = cfg["sweeps"]["Lambda"]
    n_ref = [checks.counts_reference(x, 1.0)[0] for x in lams]
    pairs = [(N, b) for b in cfg["sweeps"]["beta"] for N in cfg["sweeps"]["N"]]
    a_w = checks.barrier_length(h, R)
    scan_lam = 48.0 ** (1.0 / 3.0)
    n_cl, e_cl = checks.counts_reference(scan_lam, 0.0)
    weyl = []
    for N in cfg["sweeps"]["N"]:
        hb = N ** (-1.0 / 3.0)
        shells = checks.oscillator_shells(hb, scan_lam, 0.0)
        nq = sum(d for _, d in shells)
        eq = sum(e * d for e, d in shells)
        weyl.append({"N": N, "hbar": hb, "n_q": nq, "e_q": eq, "n_err": abs(nq - N * n_cl),
                     "e_err": abs(eq - N * e_cl)})
    dens = cfg["spectra"]["density"]
    radii = [dens["r_max"] * i / (dens["nodes"] - 1) for i in range(dens["nodes"])]
    N0, b0 = pairs[0]
    l = checks.window_l(N0, b0)
    L = N0**b0 * l
    pitch = l + N0 ** (-b0) * R
    boxes = []
    for c, M in zip(_orbit_cells(), [600] * 8 + [200]):
        c = tuple(x * pitch for x in c)
        kin = N0 ** (2 * b0 - 2.0 / 3.0) * (2 * checks.C_TF * M ** (5.0 / 3.0) / L**2 + 8 * math.pi * a_w * M * M / L**3)
        pot = 2.0 * M * (1.0 + sum((abs(x) + 0.5 * l) ** 2 for x in c))
        boxes.append({"cx": c[0], "cy": c[1], "cz": c[2], "M_i": M, "kinetic_interaction": kin, "potential": pot})
    return {
        "tf_solution": [{"r": r, "rho": checks.tf_density_reference(r, tf["lambda"], 1.0), "V": 1.0 + r * r,
                         "lagrange_residual": 0.0} for r in (0.0, 0.5, 1.0, 1.5, 2.0)],
        "cutoff_scan": [{"p_F": p, "E_TF_pF": tf["E_TF"], "gap": 0.0, "overflow_mass": 0.0}
                        for p in cfg["sweeps"]["p_F"]],
        "scattering_profile": [{"r": r, "u": checks.barrier_profile(r, h, R),
                                "f": checks.barrier_profile(r, h, R) / r if r else 1.0 / math.cosh(k * R),
                                "v": h if r <= R else 0.0} for r in (0.0, 0.5, 1.0, 1.5)],
        "hardcore_sweep": [{"A": A, "a": checks.barrier_length(h * A, R)} for A in cfg["sweeps"]["A"]],
        "semiclassics": [{"Lambda": x, "n_cl": n, "e_cl": checks.counts_reference(x, 1.0)[1],
                          "e_tilde": checks.counts_reference(x, 1.0)[1] - x * n, "d_n_cl": d}
                         for x, n, d in zip(lams, n_ref, checks.gradient_reference(lams, n_ref))],
        "catalog": [{"level": e, "degeneracy": d} for e, d in
                    checks.oscillator_shells(cfg["spectra"]["hbar"], cfg["spectra"]["lambda_max"], 0.0)],
        "weyl_scan": weyl,
        "free_state_density": [{"r": r, "rho": checks.free_density_reference(dens["hbar"], dens["M"], r)
                                if i % 128 == 0 else 0.0} for i, r in enumerate(radii)],
        "husimi": [{"hbar": 0.05, "hbar_x": 0.05 ** (4.0 / 3.0), "hbar_p": 0.05 ** (2.0 / 3.0), "fill": 10,
                    "resolution_residual": 1e-14, "kinetic_residual": 1e-13, "potential_residual": 0.09,
                    "lowfreq_residual": 0.4, "m_min": 0.0, "m_max": 0.9999}],
        "prediction": [dict(zip(("N", "beta", "main", "correction"),
                                (N, b, *checks.prediction_reference(N, b, tf["E_TF"], tf["rho2"], a_w))))
                       for N, b in pairs],
        "boxes": boxes,
        "budget": [{"N": N, "beta": b, **checks.budget_reference(float(N), b)} for N, b in pairs],
    }


# one numeric cell per table that the check must catch when perturbed
PERTURB = {
    "tf_solution": (2, "rho"), "cutoff_scan": (0, "gap"), "scattering_profile": (1, "u"),
    "hardcore_sweep": (2, "a"), "semiclassics": (3, "n_cl"), "catalog": (1, "level"),
    "weyl_scan": (1, "e_q"), "free_state_density": (128, "rho"), "husimi": (0, "resolution_residual"),
    "prediction": (1, "correction"), "boxes": (3, "potential"), "budget": (2, "softening_term"),
}


@pytest.mark.parametrize("stem", sorted(PERTURB))
def test_cli_table_checks(stem):
    tables = _good_tables()
    for row in tables["prediction"]:
        row["total"] = row["main"] + row["correction"]
    good = _fmt(tables[stem])
    assert not failures(workloads.TABLE_CHECKS[stem], good)
    bad = copy.deepcopy(good)
    i, col = PERTURB[stem]
    value = float(bad[i][col])
    bad[i][col] = repr(value + 1e-5 * max(abs(value), 1.0))
    assert failures(workloads.TABLE_CHECKS[stem], bad)


def test_mirror_check(tmp_path):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("# header\nx,y\n1.0,2.0\n3.0,4.0\n")
    mirror = {"header": ["header"], "rows": [{"x": "1.0", "y": "2.0"}, {"x": 3.0, "y": 4.0}]}
    (tmp_path / "t.json").write_text(json.dumps(mirror))
    assert not failures(workloads.check_mirror, csv_path)
    mirror["rows"][1]["y"] = 4.5
    (tmp_path / "t.json").write_text(json.dumps(mirror))
    assert failures(workloads.check_mirror, csv_path)


def test_non_numeric_cells_fail_the_operation(tmp_path):
    (tmp_path / "ok.csv").write_text("# h\na,b\n1.0,2\n")
    assert workloads.command_outputs("x", tmp_path)["malformed"] == []
    (tmp_path / "bad.csv").write_text("a\nnp.float64(1.0)\n")
    with pytest.raises(workloads.OpFailed) as err:
        workloads.command_outputs("x", tmp_path)
    assert err.value.summary["malformed"] == ["bad.csv"]


def test_digest_sees_one_changed_value():
    import numpy as np

    a = {"x": [1.0, 2.0], "y": np.arange(4)}
    b = {"x": [1.0, 2.0], "y": np.arange(4)}
    assert workloads.digest(a) == workloads.digest(b)
    b["y"][2] = 7
    assert workloads.digest(a) != workloads.digest(b)
    assert workloads.digest({"x": [1.0, 2.0]}) != workloads.digest({"x": [1.0, 2.0000000000000004]})
