import copy
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dilutefermi
from dilutefermi import asymptotics, cli, thomas_fermi
from dilutefermi.cli import COMMANDS, DEFAULT_CONFIG, SCHEMA, main, validate


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


@pytest.mark.parametrize(
    "content", [None, b"\xff\xfe{}", b'{"tolerances": {"abs": ' + b"9" * 5000 + b"}}"]
)
def test_unreadable_config_is_config_error(tmp_path, content):
    # a directory, bytes that are not UTF-8, and an integer past Python's digit limit
    path = tmp_path / "cfg"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert run_cli(["tf", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


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
        ("scatter", {"interaction": {"kind": "square_barrier", "hieght": 5, "radius": 1.0}}),
        ("tf", {"potential": {"kind": "harmonic"}, "bogus_section": {}}),
        (
            "predict",
            {
                "potential": {"kind": "harmonic"},
                "interaction": {"kind": "square_barrier"},
                "sweeps": {"beta": [0.2]},
            },
        ),
        (
            "boxes",
            {
                "potential": {"kind": "harmonic"},
                "interaction": {"kind": "square_barrier"},
                "sweeps": {"beta": [0.2]},
            },
        ),
        ("budget", {"sweeps": {"beta": [0.6]}}),
        ("husimi", {"husimi": {"lambda_max": 0.2}}),
        ("semiclass", {"potential": {"kind": "harmonic"}, "sweeps": {"Lambda": []}}),
        ("tf", {"potential": {"kind": "harmonic"}, "output": {"directory": 5}}),
        ("tf", {"potential": {"kind": "harmonic"}, "output": {"json_mirror": "no"}}),
        ("scatter", {"interaction": {"kind": "square_barrier", "height": True}}),
        ("tf", {"potential": {"kind": "harmonic"}, "tolerances": {"max_refinements": 2.5}}),
        ("tf", {"potential": {"kind": "power_plus_one", "s": math.inf}}),
        ("tf", {"potential": {"kind": "harmonic_plus_one", "s": 4.0}}),
        ("tf", {"potential": {"kind": ["harmonic"]}}),
        ("scatter", {"interaction": {"kind": {"hardcore": 1}}}),
        ("husimi", {"husimi": {"points": 4002}}),  # one past spectra.MAX_SAMPLE_POINTS
        ("husimi", {"husimi": {"points": 10**9}}),  # a 10^9 x 131 sinc interpolation matrix, 1 TB
        # d_n_cl is a central difference: one level has none, a repeated level divides by zero
        ("semiclass", {"potential": {"kind": "harmonic"}, "sweeps": {"Lambda": [2.0]}}),
        ("semiclass", {"potential": {"kind": "harmonic"}, "sweeps": {"Lambda": [2.0, 2.0, 3.0]}}),
        ("spectra", {"spectra": {"density": {"nodes": 65538}}}),  # one past MAX_DENSITY_NODES
        # below the radius floor the scattering solve's steps per unit length overflow
        ("scatter", {"interaction": {"kind": "square_barrier", "radius": 1e-310}}),
        ("scatter", {"interaction": {"kind": "square_barrier", "radius": 5e-324}}),
        ("scatter", {"interaction": {"kind": "hardcore", "radius": 1e-310}}),
        ("predict", {"potential": {"kind": "harmonic"}, "interaction": {"kind": "hardcore", "radius": 5e-324}}),
        # a density whose scale hbar^(-3/2) overflows, whose radii r / sqrt(hbar)
        # overflow, that fills past the 200-shell depth (M > C(203, 3) = 1373701),
        # or whose 2049 radii cannot increase
        ("spectra", {"spectra": {"density": {"hbar": 1e-250, "M": 1}}}),
        ("spectra", {"spectra": {"density": {"hbar": 0.1, "M": 5, "r_max": 1e308}}}),
        ("spectra", {"spectra": {"density": {"hbar": 0.1, "M": 10000000}}}),
        ("spectra", {"spectra": {"density": {"M": 1373702, "nodes": 16}}}),
        ("spectra", {"spectra": {"density": {"r_max": 5e-324}}}),
    ],
)
def test_bad_config_value_is_config_error(tmp_path, command, payload):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "none"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()  # nothing written


def test_husimi_points_cap_admits_the_4001_point_rung():
    # the finest Husimi rung planned, hbar = 0.00625 on 4001 points
    user = {"husimi": {"hbar": 0.00625, "points": 4001}}
    config = json.loads(json.dumps(DEFAULT_CONFIG))
    config["husimi"].update(user["husimi"])
    validate(config, user, "husimi")


def test_bad_output_directory_without_out_flag(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {"potential": {"kind": "harmonic"}, "output": {"directory": 5}})
    monkeypatch.chdir(tmp_path)
    assert run_cli(["tf", "--config", cfg]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize(
    "husimi, error",
    [
        # solve grids past spectra.MAX_DVR_NODES, refused before they are built
        ({"halfwidth": 792}, "ResolutionError"),  # about 3.2e4 nodes
        ({"halfwidth": 5000, "points": 200}, "ResolutionError"),  # about 2.0e5 nodes
        ({"hbar": 1e-9}, "ResolutionError"),  # about 8.0e8 nodes
        ({"halfwidth": 1e300}, "ResolutionError"),  # about 1e301 nodes, no int() overflow
        # lambda_max ~ 2e301 puts the whole grid in the allowed region
        ({"hbar": 1e300}, "DomainTooSmallError"),
    ],
)
def test_husimi_grid_shortfall_is_numerical_failure(tmp_path, capsys, husimi, error):
    # no schema rule can see these without solving: each must end as a named
    # failure, and none may print a warning on the way
    cfg = write_config(tmp_path, {"husimi": husimi})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["husimi", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert f"numerical failure: {error}" in capsys.readouterr().err


def test_box_lattice_past_the_cell_cap_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # l = 0.00926 tiles the support diameter with 257^3 cells, just past 2^24;
    # the lattice axis, the first array built after the cap check, fails at
    # once, so a missing cap costs no memory
    no_axis = {**vars(np), "arange": lambda *args, **kwargs: pytest.fail("lattice built")}
    monkeypatch.setattr(asymptotics, "np", SimpleNamespace(**no_axis))
    cfg = write_config(tmp_path, {
        "potential": {"kind": "harmonic_plus_one"},
        "interaction": {"kind": "square_barrier", "height": 2.0, "radius": 1.0},
        "sweeps": {"N": [10**6]},
        "boxes": {"l": 0.00926},
    })
    out = tmp_path / "o"
    assert run_cli(["boxes", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: DegenerateTilingError: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["tf", "semiclass"])
def test_steep_power_trap_prints_no_warning(tmp_path, capsys, command):
    # the support search probes r = 128, where r^200 overflows to +inf, as it should
    cfg = write_config(tmp_path, {"potential": {"kind": "power_plus_one", "s": 200}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_failed_eigenvector_solve_is_numerical_failure(tmp_path, capsys, monkeypatch):
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(dilutefermi.spectra.np.linalg, "eigh", failing)
    assert run_cli(["husimi", "--out", str(tmp_path / "o")]) == 1
    assert "numerical failure: LinAlgError" in capsys.readouterr().err


# a default config that also carries a cheap spectra.density, so its keys are fuzzed too
_FUZZ_BASE = copy.deepcopy(DEFAULT_CONFIG)
_FUZZ_BASE["spectra"]["density"] = {"hbar": 0.5, "M": 10, "r_max": 4.0, "nodes": 257}


def _key_paths(config, prefix=()):
    for key, value in config.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_FUZZ_PATHS = list(_key_paths(_FUZZ_BASE))
_FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=10**309, max_value=10**400),  # past the float range
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=3),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(min_value=-3, max_value=3), max_size=2),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from(["tf", "scatter", "semiclass", "spectra", "husimi", "predict", "budget"]),
    st.sampled_from(_FUZZ_PATHS + [("bogus",)] + [(s, "bogus") for s in DEFAULT_CONFIG]),
    _FUZZ_VALUES,
)
def test_fuzzed_config_exits_cleanly(command, path, value):
    config = copy.deepcopy(_FUZZ_BASE)
    section = config
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), config)
        out = Path(tmp) / "out"
        code = run_cli([command, "--config", cfg, "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 2:
            assert not out.exists()


def _schema_leaves(table, prefix):
    """(dotted key, check) of every key of a SCHEMA section, and the kinds it names."""
    for key, check in table.items():
        if key == "kind":
            for kind, keys in check.items():
                yield f"{prefix}kind", kind
                yield from _schema_leaves(keys, prefix)
        elif isinstance(check, dict):
            yield from _schema_leaves(check, f"{prefix}{key}.")
        else:
            yield prefix + key, f"a list, each {check[0]}" if isinstance(check, list) else check


def test_schema_doc_lists_every_key_and_its_example_validates():
    doc = (Path(__file__).parents[1] / "docs" / "config_schema.md").read_text()
    for section, table in SCHEMA.items():
        assert f"### `{section}`" in doc, section
        for key, check in _schema_leaves(table, f"{section}."):
            if key.endswith(".kind"):
                assert f'"kind": "{check}"' in doc, check
            else:
                assert f"| `{key}` | {check} |" in doc, key
    example = json.loads(re.search(r"```json\n(.*?)```", doc, re.S).group(1))
    assert set(example) == set(SCHEMA)
    for command in COMMANDS:
        validate(example, example, command)


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


@pytest.mark.parametrize("height", [1e-300, 1e-12, 1e12, 1e100, 1e300])
@pytest.mark.parametrize("command", ["scatter", "predict"])
def test_extreme_barrier_heights_exit_cleanly(tmp_path, command, height):
    cfg = write_config(tmp_path, {
        "potential": {"kind": "harmonic"},
        "interaction": {"kind": "square_barrier", "height": height, "radius": 0.5},
    })
    out = tmp_path / "out"
    code = run_cli([command, "--config", cfg, "--out", str(out)])
    assert code in (0, 1)
    if command == "scatter":
        assert code == 0
        comments, _, rows = read_table(out / "scattering_profile.csv")
        assert all(math.isfinite(float(c)) for row in rows for c in row)
        fields = dict(kv.split("=") for c in comments for kv in c.split()[2:] if "=" in kv)
        assert set(fields) >= {"a", "R", "step_error_estimate", "fit_residual"}
        if height == 1e300:
            assert float(fields["a"]) == float(fields["R"]) == 0.5


@pytest.mark.parametrize("radius", [1e-300, 1e-6])
def test_tiny_interaction_radius_keeps_the_profile_bounded(tmp_path, radius):
    # the exterior has a fixed node count, not one that grows like 1/radius
    cfg = write_config(tmp_path, {
        "interaction": {"kind": "square_barrier", "height": 2.0, "radius": radius},
        "sweeps": {"A": []},
    })
    out = tmp_path / "out"
    assert run_cli(["scatter", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = read_table(out / "scattering_profile.csv")
    assert len(rows) <= 6001


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


def test_empty_density_writes_the_default_density(tmp_path):
    rows = []
    for name, density in (("empty", {}), ("explicit", {"hbar": 1.0, "M": 1, "r_max": 6.0, "nodes": 2049})):
        cfg = write_config(tmp_path, {"spectra": {"density": density}}, name=f"{name}.json")
        out = tmp_path / name
        assert run_cli(["spectra", "--config", cfg, "--out", str(out)]) == 0
        rows.append(read_table(out / "free_state_density.csv")[2])
    assert len(rows[0]) == 2049
    assert rows[0] == rows[1]


def _header_config(path):
    comments, _, _ = read_table(path)
    return json.loads(next(c for c in comments if c.startswith("# config: "))[len("# config: "):])


@pytest.mark.parametrize(
    "interaction, resolved",
    [
        ({"kind": "hardcore", "radius": 1.5}, {"kind": "hardcore", "radius": 1.5}),
        ({"kind": "hardcore"}, {"kind": "hardcore", "radius": 1.0}),
        ({"kind": "square_barrier", "height": 3.0}, {"kind": "square_barrier", "height": 3.0, "radius": 1.0}),
    ],
)
def test_header_config_keeps_only_the_keys_of_the_section_kind(tmp_path, interaction, resolved):
    cfg = write_config(tmp_path, {"interaction": interaction, "sweeps": {"A": []}})
    out = tmp_path / "out"
    assert run_cli(["scatter", "--config", cfg, "--out", str(out)]) == 0
    header = _header_config(out / "scattering_profile.csv")
    assert header["interaction"] == resolved
    assert header["tolerances"] == DEFAULT_CONFIG["tolerances"]


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
        assert run_cli(["budget", "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "budget.csv").read_bytes())
    assert outs[0] == outs[1]


def test_commands_leave_the_global_random_state_alone(tmp_path):
    # no command draws from, or seeds, NumPy's global generator
    before = np.random.get_state()
    for command in COMMANDS:
        out = tmp_path / command
        out.mkdir()
        cli.run_command(command, copy.deepcopy(_FUZZ_BASE), str(out))
        after = np.random.get_state()
        assert after[0] == before[0] and after[2:] == before[2:], command
        assert np.array_equal(after[1], before[1]), command


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


@pytest.mark.parametrize(
    "header, columns, cells",
    [
        ([], ["rho", "r"], []),  # no rows, no header lines
        (["one line"], ["z", "a", "m"], [["1.0", "2.5", "-3e-300"], ["inf", "nan", "7"]]),
        (
            ['a "quoted" word', "a back\\slash", "non-ASCII: \u0127 \u03bb \u03c1\u00b2", "{0} {braces}"],
            ['q"', "x{0}", "\u00e9", "a\\b"],
            [['"', "{1}", "\u0127", "\\"]],
        ),
        (["a column twice"], ["a", "b", "a"], [["1", "2", "3"]]),  # dict(zip()) keeps the last "a"
        ([], [], [[], []]),
    ],
)
def test_json_mirror_writes_the_bytes_of_json_dump(tmp_path, header, columns, cells):
    path = cli._mirror_csv_as_json(str(tmp_path / "t.csv"), header, columns, cells)
    with open(tmp_path / "want.json", "w", encoding="utf-8") as fh:
        json.dump({"header": header, "rows": [dict(zip(columns, row)) for row in cells]},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    assert path == str(tmp_path / "t.json")
    assert Path(path).read_bytes() == (tmp_path / "want.json").read_bytes()


def test_headers_carry_version_and_config(tmp_path):
    cfg = write_config(tmp_path, {"potential": {"kind": "harmonic"}})
    out = tmp_path / "out"
    assert run_cli(["tf", "--config", cfg, "--out", str(out)]) == 0
    comments, _, _ = read_table(out / "tf_solution.csv")
    assert any("dilutefermi" in c for c in comments)
    assert any(c.startswith("# config:") for c in comments)
    assert any(c.startswith("# formula:") for c in comments)


def test_husimi_header_names_its_sampling_grid(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["husimi", "--out", str(out)]) == 0
    comments, _, _ = read_table(out / "husimi.csv")
    # 501 x-nodes at stride 2, windows of 2 * 170 + 1 samples, 237 momenta
    assert "# formula: husimi_grid: n_xm=501 band=341 n_p=237" in comments


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


# runs every command, verify-all included, in one fresh process and records
# the SciPy modules loaded after them
_FRESH_RUN = """
import json, sys
from dilutefermi import cli
out, extra = sys.argv[1], sys.argv[2:]
codes = {}
for command in cli.COMMANDS:
    codes[command] = cli.main([command, "--out", out, *extra])
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
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
    assert list(report["codes"]) == list(COMMANDS)
    assert report["scipy"] == []


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
    assert len(digests[0]) == 24
    assert digests[0] == digests[1]
    # the command table in the schema doc names each file with its exact column row
    doc = (Path(__file__).parents[1] / "docs" / "config_schema.md").read_text()
    for path in sorted((tmp_path / "first").glob("*.csv")):
        _, header, _ = read_table(path)
        assert f"`{path.name}` | `{','.join(header)}` |" in doc, path.name


# every command, verify-all included, on the defaults with the bare harmonic
# trap, a cheap spectra.density and the JSON mirror: all 13 tables, mirrored
@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    root = tmp_path_factory.mktemp("emitted")
    cfg = write_config(root, {**_FUZZ_BASE, "potential": {"kind": "harmonic"},
                              "output": {"directory": "out", "json_mirror": True}})
    out = root / "out"
    for command in COMMANDS:
        assert run_cli([command, "--config", cfg, "--out", str(out)]) == 0, command
    return out


# (command, file stem, column line) of every table the tool writes
TABLES = [
    ("tf", "tf_solution", "r,rho,V,lagrange_residual"),
    ("tf", "cutoff_scan", "p_F,E_TF_pF,gap,overflow_mass"),
    ("scatter", "scattering_profile", "r,u,f,v"),
    ("scatter", "hardcore_sweep", "A,a"),
    ("semiclass", "semiclassics", "Lambda,n_cl,e_cl,e_tilde,d_n_cl"),
    ("spectra", "catalog", "level,degeneracy"),
    ("spectra", "weyl_scan", "N,hbar,n_q,e_q,n_err,e_err"),
    ("spectra", "free_state_density", "r,rho"),
    ("husimi", "husimi", "hbar,hbar_x,hbar_p,fill,resolution_residual,kinetic_residual,"
     "potential_residual,lowfreq_residual,m_min,m_max"),
    ("predict", "prediction", "N,beta,main,correction,total"),
    ("boxes", "boxes", "cx,cy,cz,M_i,kinetic_interaction,potential"),
    ("budget", "budget", "N,beta,epsilon,p_F,s,R,bulk_term,cutoff_term,softening_term,"
     "remainder_term,total,ratio"),
    ("verify-all", "acceptance_summary", "criterion,description,status"),
]


def test_every_table_is_listed(emitted):
    stems = {stem for _, stem, _ in TABLES}
    assert sorted(p.name for p in emitted.iterdir()) == sorted(
        f"{stem}.{ext}" for stem in stems for ext in ("csv", "json")
    )


@pytest.mark.parametrize("command, stem, columns", TABLES, ids=[t[1] for t in TABLES])
def test_table_columns_and_cells(emitted, command, stem, columns):
    comments, header, rows = read_table(emitted / f"{stem}.csv")
    assert f"# command: {command}" in comments
    assert ",".join(header) == columns
    assert rows and all(len(row) == len(header) for row in rows)
    if stem != "acceptance_summary":
        assert np.all(np.isfinite(np.array(rows, dtype=float)))


def test_tf_solution_density_at_the_origin(emitted):
    comments, _, rows = read_table(emitted / "tf_solution.csv")
    lam = float(next(c for c in comments if "lambda=" in c).split("lambda=")[1].split()[0])
    r, rho, v, _ = (float(c) for c in rows[0])
    assert r == v == 0.0
    assert rho == pytest.approx((lam / thomas_fermi.KAPPA) ** 1.5)


@pytest.mark.parametrize("stem, sweep", [("semiclassics", "Lambda"), ("weyl_scan", "N"),
                                         ("cutoff_scan", "p_F"), ("hardcore_sweep", "A")])
def test_one_row_per_sweep_value(emitted, stem, sweep):
    _, _, rows = read_table(emitted / f"{stem}.csv")
    assert len(rows) == len(DEFAULT_CONFIG["sweeps"][sweep])


def _csv_reader_mirror(csv_path):
    """The mirror of an emitted CSV as a csv.reader parse of its lines."""
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    comments = [ln[1:].strip() for ln in lines if ln.startswith("#")]
    fields, *rows = csv.reader(ln for ln in lines if ln and not ln.startswith("#"))
    return {"header": comments, "rows": [dict(zip(fields, row)) for row in rows]}


@pytest.mark.parametrize("stem", [t[1] for t in TABLES])
def test_json_mirror_equals_a_csv_reader_parse(emitted, stem):
    mirror = json.loads((emitted / f"{stem}.json").read_text(encoding="utf-8"))
    assert mirror == _csv_reader_mirror(emitted / f"{stem}.csv")
    # the writer does not quote, so no cell may need it
    assert not any(set(cell) & set(',"\n') for row in mirror["rows"] for cell in row.values())


def test_emit_cell_rule(tmp_path):
    path, header, columns, cells = cli._emit(
        str(tmp_path), "tf", DEFAULT_CONFIG, "t", ["f"], ("a", "b", "c", "d", "e"),
        [(np.float64(0.1), np.int64(3), 3, 2.0, "pass")], ["note"],
    )
    lines = Path(path).read_text().splitlines()
    assert lines == [f"# {line}" for line in header] + ["a,b,c,d,e", "0.1,3,3,2.0,pass"]
    assert header[-2:] == ["formula: f", "note"]
    assert cells == [["0.1", "3", "3", "2.0", "pass"]]
