"""Acceptance gate: every stated criterion at its stated tolerance.

Runs the shared acceptance suite once and asserts each criterion with
its pass/fail line, then checks full command-line determinism by
invoking ``verify-all`` twice and comparing bytes.
"""

import subprocess
import sys

import pytest

from dilutefermi import cli
from dilutefermi.acceptance import ALL_CRITERIA, criterion_17, run_all


@pytest.fixture(scope="module")
def results():
    return run_all()


@pytest.mark.parametrize("index", range(len(ALL_CRITERIA)))
def test_criterion(results, index):
    res = results[index]
    print(res.line())
    assert res.passed, f"{res.line()}\ndetails: {res.details}"


def test_all_criteria_present(results):
    assert [r.cid for r in results] == list(range(1, 18))


def test_verify_all_cli_round_trip(tmp_path):
    """Criterion 17 at the process level: two runs, byte-identical outputs."""
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "dilutefermi.cli", "verify-all", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.count("[PASS]") == 17
        outputs.append((out / "acceptance_summary.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_criterion_17_emits_through_the_cli_writer(monkeypatch):
    # the bytes it compares are the bytes main writes: both go through cli._emit
    stems = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda *args: stems.append(args[3]) or emit(*args))
    assert criterion_17().passed
    once = ["tf_solution", "cutoff_scan", "scattering_profile", "hardcore_sweep", "semiclassics",
            "catalog", "weyl_scan", "prediction", "budget"]
    assert stems == once + once


def test_criterion_15_potential_residual_is_its_closed_form(results):
    # for V = x^2 the residual is fill hbar_x / 2 exactly, at both rungs
    details = results[14].details
    assert len(details["potential_closed_form_distances"]) == 2
    assert all(abs(d) <= 1e-11 for d in details["potential_closed_form_distances"])
