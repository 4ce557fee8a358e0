import ast
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dilutefermi import asymptotics, cli, numerics, potentials, scattering, semiclassics
from dilutefermi import spectra, thomas_fermi

SRC = Path(__file__).parents[1] / "src" / "dilutefermi"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _public_names(tree):
    """The entries of a parsed module's ``__all__``, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _unused_imports(source):
    """Names bound by module-level imports that the module never references.

    A reference is a name read anywhere in the module, or an entry of
    ``__all__``.  ``from __future__`` imports bind no name.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    used.update(_public_names(tree))
    return sorted(name for name in bound if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_guard_sees_what_it_should():
    source = "from __future__ import annotations\nimport os, numpy as np\nfrom .x import a, b as c\n__all__ = ['a']\nnp.zeros(1)\n"
    assert _unused_imports(source) == ["c", "os"]


# every public name must be reached from the library, the demos or the benchmark
def _referenced_names(paths):
    """Every ``Name`` id, ``Attribute`` attr and imported name in the files at ``paths``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_reached_outside_the_tests():
    root = SRC.parents[1]
    reached = _referenced_names(
        [*SRC.glob("*.py"), *(root / "demos").glob("*.py"), *(root / "bench").glob("*.py")]
    )
    unreached = {
        path.stem: sorted(set(_public_names(ast.parse(path.read_text()))) - reached)
        for path in MODULES
    }
    assert {module: names for module, names in unreached.items() if names} == {}


# The library calls and attribute reads of bench/workloads.py, bench/worker.py
# and bench/tracer.py.  The benchmark is frozen against library changes, so
# every shape here must keep binding and every attribute must keep existing.
BENCH_CALLS = [
    (spectra.fd_catalog_1d, ("v", 0.05, 4.0, 1001, 1.06), {}),
    (spectra.fd_catalog_1d, ("v", 0.05, 3.0, 1000, 2.0), {"keep_vectors": False}),
    (spectra.coherent_identity_check_1d, ("cat", 10), {}),
    (spectra.free_ground_state_density_fn, (0.2, 50), {}),
    (spectra.weyl_error_scan, ({"kind": "fd_1d"}, [2, 20, 200], 2.0), {}),
    (asymptotics.make_context, (10**6, 0.4, "w"), {}),
    (asymptotics.predict_energy, ("v", "ctx", "tf"), {}),
    (asymptotics.box_estimate, ("v", "ctx", 0.2, "tf"), {}),
    (numerics.integrate_radial, ("fn", 6.0, numerics.Tolerance(abs=1e-10, rel=1e-10)), {}),
    (numerics.lp_distance, ("a", "b", 1.0), {}),
    (numerics.RadialProfile, ("nodes", "values"), {}),
    (thomas_fermi.tf_solve, ("v",), {}),
    (thomas_fermi.two_spin_minimize, ("v", 0.2), {}),
    (thomas_fermi.cutoff_gap_scan, ("v", [1.2, 4.0]), {}),
    (thomas_fermi.cutoff_tf_solve, ("v", 1.2), {}),
    (semiclassics.phase_space_counts, ("v", 1.5), {}),
    (semiclassics.lambda_for_filling, ("v", 0.5), {}),
    (scattering.square_barrier, (2.0, 1.0), {}),
    (scattering.zero_energy_solve, ("spec",), {}),
    (scattering.hardcore_limit, ("spec", [2.0, 20.0]), {}),
    (potentials.harmonic_trap, (0.0,), {}),
    (potentials.power_trap, (3.0,), {}),
    (cli.main, (["tf", "--config", "c.json", "--out", "o"],), {}),
]
BENCH_READS = [
    (thomas_fermi.TFSolution, ("lambda_TF", "E_TF", "interaction_integral", "rho_fn")),
    (thomas_fermi.TwoSpinState,
     ("energy", "lambda_two_spin", "rho_up_values", "rho_down_values", "iterations")),
    (thomas_fermi.CutoffScan, ("gaps",)),
    (semiclassics.PhaseSpaceBudget, ("n_cl", "e_cl")),
    (asymptotics.EnergyPrediction, ("main", "correction")),
    (asymptotics.BoxEstimate, ("l", "gap", "masses", "centers", "prediction_total",
                               "rho53_defect", "rho2_defect", "n_cells")),
    (spectra.SpectralCatalog, ("energies", "grid", "sturm_certified")),
    (spectra.HusimiReport, ("resolution_residual", "m_min", "m_max",
                            "kinetic_identity_residual", "kinetic_reference")),
    (spectra.WeylScan, ("n_q", "n_cl")),
    (scattering.ScatteringSolution, ("a",)),
    (scattering.InteractionSpec, ("hardcore", "range_")),
    (potentials.Potential, ("growth", "min_value")),
]
TRACER_HOOKS = [(spectra, "np"), (scattering, "_rk4_outward"), (cli, "_mirror_csv_as_json")]


def test_bench_call_shapes_still_bind():
    for fn, args, kwargs in BENCH_CALLS:
        inspect.signature(fn).bind(*args, **kwargs)


def test_bench_reads_and_tracer_hooks_still_exist():
    for cls, names in BENCH_READS:
        present = {f.name for f in dataclasses.fields(cls)} | set(dir(cls))
        assert set(names) <= present, (cls.__name__, set(names) - present)
    for module, name in TRACER_HOOKS:
        assert hasattr(module, name), (module.__name__, name)


def _dataclass_outputs(path):
    """(class, name) of every dataclass field and every property declared in ``path``."""
    outputs = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        is_dataclass = any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators)
        for stmt in node.body:
            if is_dataclass and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                outputs.append((node.name, stmt.target.id))
            elif isinstance(stmt, ast.FunctionDef) and any(
                getattr(d, "id", None) == "property" for d in stmt.decorator_list
            ):
                outputs.append((node.name, stmt.name))
    return outputs


# outputs that nothing reads as an attribute, with the reason each stays
UNREAD_OUTPUTS = {
    ("CriterionResult", "runtime"): "the intended source of the per-criterion run record",
}


def test_every_dataclass_output_is_read():
    root = SRC.parents[1]
    reads = set()
    for folder in (SRC, root / "demos", root / "bench", root / "tests"):
        for path in folder.glob("*.py"):
            reads.update(
                node.attr
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            )
    unread = {
        (cls, name)
        for path in MODULES
        for cls, name in _dataclass_outputs(path)
        if name not in reads
    }
    assert unread == set(UNREAD_OUTPUTS)


def _third_party_imports(paths):
    """Top-level names of the absolute imports in ``paths`` outside the standard library."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def _requirement_names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements}


def test_src_imports_only_the_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())["project"]
    runtime = _requirement_names(project["dependencies"])
    assert _third_party_imports(SRC.glob("*.py")) == runtime == {"numpy"}
    # SciPy stays an oracle of the tests and the benchmark's checks
    assert "scipy" in _requirement_names(project["optional-dependencies"]["test"])


# the benchmark's three fd_catalog_1d calls, as its Husimi ops and warm-up
# make them, in one fresh process; prints the SciPy modules loaded
_BENCH_CATALOGS = """
import json, sys
from dilutefermi import spectra as sp
for hb in (0.05, 0.025):
    cat = sp.fd_catalog_1d(lambda x: x * x, hb, 4.0, 1001, 21.0 * hb + 0.01)
    sp.coherent_identity_check_1d(cat, 10)
sp.fd_catalog_1d(lambda x: x**4, 0.05, 3.0, 1000, 2.0, keep_vectors=False)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_bench_catalogs_load_no_scipy():
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _BENCH_CATALOGS], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
