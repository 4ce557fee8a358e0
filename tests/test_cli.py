import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dilutefermi
from dilutefermi import asymptotics, thomas_fermi
from dilutefermi.cli import DEFAULT_CONFIG, main


def run_cli(args):
    return main(args)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_table(path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    header = data[0].split(",")
    rows = [ln.split(",") for ln in data[1:]]
    return comments, header, rows


def test_tf_command_offset_trap(tmp_path):
    cfg = write_config(tmp_path, {"potential": {"kind": "harmonic_plus_one"}})
    out = tmp_path / "out"
    code = run_cli(["tf", "--config", cfg, "--out", str(out)])
    assert code == 0
    comments, header, rows = read_table(out / "tf_solution.csv")
    assert header == ["r", "rho", "V", "lagrange_residual"]
    lam_line = next(c for c in comments if "lambda=" in c)
    lam = float(lam_line.split("lambda=")[1].split()[0])
    assert abs(lam - (1.0 + 24.0 ** (1.0 / 3.0))) < 1e-6
    cells = np.array([[float(c) for c in row] for row in rows])
    assert np.all(np.isfinite(cells))


def test_missing_potential_is_config_error(tmp_path):
    cfg = write_config(tmp_path, {"interaction": {"kind": "square_barrier"}})
    out = tmp_path / "none"
    code = run_cli(["tf", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert not out.exists()  # nothing written


def test_unknown_kind_is_config_error(tmp_path):
    cfg = write_config(tmp_path, {"potential": {"kind": "mystery"}})
    assert run_cli(["tf", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_malformed_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli(["tf", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_invalid_parameter_is_numerical_or_config(tmp_path):
    cfg = write_config(tmp_path, {"potential": {"kind": "power_plus_one", "s": 0.5}})
    assert run_cli(["tf", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "command, payload",
    [
        ("tf", {"potential": {"kind": "power_plus_one", "s": "abc"}}),
        ("scatter", {"interaction": {"kind": "square_barrier", "height": -1}}),
        ("tf", {"potential": {"kind": "harmonic"}, "tolerances": {"abs": 0, "rel": 0}}),
        ("tf", {"potential": {"kind": "harmonic"}, "tolerances": "tight"}),
        (
            "predict",
            {
                "potential": {"kind": "harmonic"},
                "interaction": {"kind": "square_barrier"},
                "sweeps": {"N": [1]},
            },
        ),
        ("budget", {"sweeps": {"N": [10**4, 1]}}),
        ("spectra", {"spectra": {"hbar": 0}}),
        ("husimi", {"husimi": {"fill": 0}}),
        ("husimi", {"husimi": {"fill": 2.5}}),
        ("spectra", {"spectra": {"density": 5}}),
        ("spectra", {"sweeps": {"N": 5}}),
        ("spectra", {"spectra": {"density": {"nodes": "many"}}}),
        ("tf", {"potential": {"kind": "harmonic"}, "sweeps": {"p_F": ["x"]}}),
        ("scatter", {"interaction": {"kind": "square_barrier"}, "sweeps": {"A": ["x"]}}),
        ("semiclass", {"potential": {"kind": "harmonic"}, "sweeps": {"Lambda": ["x"]}}),
        (
            "boxes",
            {
                "potential": {"kind": "harmonic"},
                "interaction": {"kind": "square_barrier"},
                "boxes": {"l": "x"},
            },
        ),
        (
            "predict",
            {
                "potential": {"kind": "harmonic"},
                "interaction": {"kind": "square_barrier"},
                "sweeps": {"N": [1e400]},
            },
        ),
        ("spectra", {"spectra": {"density": {"M": 0}}}),
        ("spectra", {"spectra": {"lambda_max": "x"}}),
        ("spectra", {"spectra": {"lambda_max": 0}}),
        ("spectra", {"sweeps": {"N": [1e400, 10]}}),
        ("spectra", {"sweeps": {"N": [10, 20]}}),
        ("spectra", {"sweeps": {"N": [0, 1000]}}),
        ("husimi", {"husimi": {"points": "x"}}),
        ("husimi", {"husimi": {"points": 150}}),
        ("husimi", {"husimi": {"points": 1001.5}}),
        ("husimi", {"husimi": {"halfwidth": -1}}),
        (
            "boxes",
            {
                "potential": {"kind": "harmonic"},
                "interaction": {"kind": "square_barrier"},
                "boxes": {"l": -1},
            },
        ),
        ("semiclass", {"potential": {"kind": "harmonic"}, "sweeps": {"Lambda": [math.nan]}}),
        ("tf", {"potential": {"kind": "harmonic"}, "sweeps": {"p_F": [-1]}}),
        ("scatter", {"interaction": {"kind": "square_barrier"}, "sweeps": {"A": [20.0, 2.0]}}),
        ("spectra", {"spectra": {"density": {"nodes": 0}}}),
        ("spectra", {"spectra": {"density": {"r_max": -1}}}),
        ("spectra", {"spectra": {"hbar": 1e-9}}),
        ("spectra", {"sweeps": {"N": [10, 10**30]}}),
    ],
)
def test_bad_config_value_is_config_error(tmp_path, command, payload):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "none"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()  # nothing written


def test_scatter_command_with_amplitude_sweep(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "interaction": {"kind": "square_barrier", "height": 1.0, "radius": 1.0},
            "sweeps": {"A": [2.0, 20.0, 200.0]},
        },
    )
    out = tmp_path / "out"
    assert run_cli(["scatter", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_table(out / "scattering_profile.csv")
    assert header == ["r", "u", "f", "v"]
    _, sweep_header, sweep_rows = read_table(out / "hardcore_sweep.csv")
    assert sweep_header == ["A", "a"]
    lengths = [float(r[1]) for r in sweep_rows]
    assert lengths == sorted(lengths)
    # sweep amplitudes multiply the unit barrier, so A = 2 is the closed form
    assert abs(lengths[0] - (1.0 - math.tanh(1.0))) < 1e-6


def test_semiclass_command(tmp_path):
    cfg = write_config(
        tmp_path,
        {"potential": {"kind": "harmonic"}, "sweeps": {"Lambda": [1.0, 2.0, 3.0]}},
    )
    out = tmp_path / "out"
    assert run_cli(["semiclass", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_table(out / "semiclassics.csv")
    assert header == ["Lambda", "n_cl", "e_cl", "e_tilde", "d_n_cl"]
    row2 = [float(c) for c in rows[1]]
    assert abs(row2[1] - 1.0 / 6.0) < 1e-9  # n_cl at Lambda = 2


def test_spectra_command_with_scan(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "spectra": {
                "hbar": 1.0,
                "lambda_max": 7.5,
                "density": {"hbar": 0.5, "M": 10, "r_max": 4.0, "nodes": 257},
            },
            "sweeps": {"N": [1000, 10000, 100000]},
        },
    )
    out = tmp_path / "out"
    assert run_cli(["spectra", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_table(out / "catalog.csv")
    assert header == ["level", "degeneracy"]
    assert [int(r[1]) for r in rows] == [1, 3, 6]
    assert (out / "weyl_scan.csv").exists()
    _, dens_header, dens_rows = read_table(out / "free_state_density.csv")
    assert dens_header == ["r", "rho"]
    assert all(float(r[1]) >= 0.0 for r in dens_rows)


def test_predict_command(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "potential": {"kind": "harmonic"},
            "interaction": {"kind": "square_barrier", "height": 2.0, "radius": 1.0},
            "sweeps": {"N": [10**4, 10**5, 10**6], "beta": [0.4]},
        },
    )
    out1 = tmp_path / "o1"
    assert run_cli(["predict", "--config", cfg, "--out", str(out1)]) == 0
    _, header, rows = read_table(out1 / "prediction.csv")
    assert header == ["N", "beta", "main", "correction", "total"]
    totals = [float(r[4]) for r in rows]
    assert all(t > 0 and math.isfinite(t) for t in totals)


def test_budget_command_deterministic_rerun(tmp_path):
    cfg = write_config(
        tmp_path,
        {"sweeps": {"N": [10**4, 10**6, 10**8], "beta": [0.4, 0.45]}},
    )
    outs = []
    for name in ("b1", "b2"):
        out = tmp_path / name
        assert run_cli(["budget", "--config", cfg, "--out", str(out), "--seedless"]) == 0
        outs.append((out / "budget.csv").read_bytes())
    assert outs[0] == outs[1]


def test_boxes_command(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "potential": {"kind": "harmonic"},
            "interaction": {"kind": "square_barrier", "height": 2.0, "radius": 1.0},
            "sweeps": {"N": [10**6], "beta": [0.4]},
        },
    )
    out = tmp_path / "out"
    assert run_cli(["boxes", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "boxes.csv").read_text()
    assert "cx,cy,cz,M_i" in text
    ratio_line = next(ln for ln in text.splitlines() if "ratio=" in ln)
    ratio = float(ratio_line.split("ratio=")[1].split()[0])
    assert 0.9 <= ratio <= 1.3


def test_tf_cutoff_sweep_emission(tmp_path):
    cfg = write_config(
        tmp_path,
        {"potential": {"kind": "harmonic"}, "sweeps": {"p_F": [4.0, 8.0]}},
    )
    out = tmp_path / "out"
    assert run_cli(["tf", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_table(out / "cutoff_scan.csv")
    assert header == ["p_F", "E_TF_pF", "gap", "overflow_mass"]
    assert all(float(r[2]) >= 0.0 for r in rows)


def test_numerical_failure_exits_one(tmp_path):
    # a box side larger than the support diameter is a numerical failure
    cfg = write_config(
        tmp_path,
        {
            "potential": {"kind": "harmonic"},
            "interaction": {"kind": "square_barrier", "height": 2.0, "radius": 1.0},
            "sweeps": {"N": [10**6], "beta": [0.4]},
            "boxes": {"l": 50.0},
        },
    )
    assert run_cli(["boxes", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_json_mirror(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "potential": {"kind": "harmonic"},
            "output": {"json_mirror": True},
        },
    )
    out = tmp_path / "out"
    assert run_cli(["tf", "--config", cfg, "--out", str(out)]) == 0
    mirror = json.loads((out / "tf_solution.json").read_text())
    assert mirror["rows"]
    assert set(mirror["rows"][0]) == {"r", "rho", "V", "lagrange_residual"}


def test_headers_carry_version_and_config(tmp_path):
    cfg = write_config(tmp_path, {"potential": {"kind": "harmonic"}})
    out = tmp_path / "out"
    assert run_cli(["tf", "--config", cfg, "--out", str(out)]) == 0
    comments, _, _ = read_table(out / "tf_solution.csv")
    assert any("dilutefermi" in c for c in comments)
    assert any(c.startswith("# config:") for c in comments)
    assert any(c.startswith("# formula:") for c in comments)


@pytest.mark.parametrize("command", ["spectra", "husimi", "boxes"])
def test_default_config_tables_are_numeric(tmp_path, command):
    # NumPy scalars must be written as plain floats, never as np.float64(...)
    out = tmp_path / "out"
    assert run_cli([command, "--out", str(out)]) == 0
    tables = sorted(out.glob("*.csv"))
    assert tables
    for path in tables:
        _, header, rows = read_table(path)
        assert rows, path.name
        for row in rows:
            assert len(row) == len(header), path.name
            for cell in row:
                float(cell)


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_tf_command_solves_the_trap_at_most_twice(tmp_path, monkeypatch):
    # the cutoff scan reuses one uncapped solve for every cap and for its table
    calls = _count_calls(monkeypatch, thomas_fermi, "tf_solve")
    assert run_cli(["tf", "--out", str(tmp_path / "o")]) == 0
    assert len(calls) <= 2


def test_predict_command_solves_scattering_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, asymptotics, "zero_energy_solve")
    assert run_cli(["predict", "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


# runs every command in one fresh process and records which SciPy
# modules were loaded before husimi, the first command to need one
_FRESH_RUN = """
import json, sys
from dilutefermi import cli
out, extra = sys.argv[1], sys.argv[2:]
codes = {}
for command in ("tf", "scatter", "semiclass", "spectra", "predict", "boxes", "budget", "husimi"):
    if command == "husimi":
        scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    codes[command] = cli.main([command, "--out", out, *extra])
print(json.dumps({"codes": codes, "scipy_before_husimi": scipy}))
"""


def run_fresh_process(out, *extra):
    src = os.path.dirname(os.path.dirname(dilutefermi.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN, str(out), *extra],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert set(report["codes"].values()) == {0}, report["codes"]
    return report


def test_commands_without_eigensolve_load_no_scipy(tmp_path):
    report = run_fresh_process(tmp_path / "out")
    assert report["scipy_before_husimi"] == []


def test_outputs_identical_across_processes(tmp_path):
    cfg = write_config(tmp_path, {**DEFAULT_CONFIG, "output": {"json_mirror": True}})
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        run_fresh_process(out, "--config", cfg)
        digests.append(
            {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        )
    assert {p.rsplit(".", 1)[1] for p in digests[0]} == {"csv", "json"}
    assert len(digests[0]) == 22
    assert digests[0] == digests[1]
    # the command table in the schema doc names each file with its exact column row
    doc = (Path(__file__).parents[1] / "docs" / "config_schema.md").read_text()
    for path in sorted((tmp_path / "first").glob("*.csv")):
        _, header, _ = read_table(path)
        assert f"`{path.name}` | `{','.join(header)}` |" in doc, path.name
