"""Acceptance gate: every stated criterion at its stated tolerance.

Runs the shared acceptance suite once and asserts each criterion with
its pass/fail line, then checks full command-line determinism by
invoking ``verify-all`` twice and comparing bytes.
"""

import dataclasses
import itertools
import math
import subprocess
import sys
import types

import pytest

from dilutefermi import acceptance, cli, thomas_fermi
from dilutefermi.acceptance import ALL_CRITERIA, criterion_10, criterion_17, run_all


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


def test_criterion_10_fails_a_scaled_spin_density(monkeypatch):
    # both spins scaled alike keep spin_sup_gap at 0; their Euler-Lagrange residual sees it
    solve = thomas_fermi.two_spin_minimize

    def scaled(v, g):
        state = solve(v, g)
        rho = state.rho_up_values * (1.0 + 1e-6)
        return dataclasses.replace(state, rho_up_values=rho, rho_down_values=rho)

    monkeypatch.setattr(thomas_fermi, "two_spin_minimize", scaled)
    res = criterion_10()
    details = res.details
    assert not res.passed
    assert details["spin_sup_gap"] == 0.0
    assert all(r > b for r, b in zip(details["spin_lagrange_residuals"], details["spin_lagrange_bounds"]))


def _ticking(step):
    """A stand-in for the time module whose clock moves ``step`` seconds per reading."""
    ticks = itertools.count(0.0, step)
    return types.SimpleNamespace(perf_counter=lambda: next(ticks))


# the runtime gates, in seconds of the whole check; every other criterion has none
@pytest.mark.parametrize("cid, seconds", [(1, 1.0), (5, 5.0), (7, 10.0)], ids=["1", "5", "7"])
def test_runtime_gate_fails_a_check_over_budget(monkeypatch, cid, seconds):
    monkeypatch.setattr(acceptance, "time", _ticking(seconds))
    res = ALL_CRITERIA[cid - 1]()
    assert (res.cid, res.runtime, res.passed) == (cid, seconds, False)
    monkeypatch.setattr(acceptance, "time", _ticking(math.nextafter(seconds, 0.0)))
    assert ALL_CRITERIA[cid - 1]().passed


def test_ungated_criterion_passes_at_any_runtime(monkeypatch):
    monkeypatch.setattr(acceptance, "time", _ticking(1e9))
    res = ALL_CRITERIA[11]()
    assert (res.cid, res.runtime, res.passed) == (12, 1e9, True)
