"""Spans and work counters recorded from outside the program.

``Tracer.install`` replaces every public function of the package's
modules at every module global it is bound under, so a call through
``from .numerics import integrate_radial`` in another module, or through
a module's own globals, is caught as well as one through the module
attribute.  Each call records a span (name, start, end, parent) in
memory; ``spans_json`` writes them out at the end.  Integrands and root
functions handed to ``numerics`` are wrapped to count the points and
evaluations they are asked for.  Nothing in the package is edited.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import types
from time import perf_counter

import numpy as np

PACKAGE_MODULES = (
    "numerics",
    "potentials",
    "thomas_fermi",
    "scattering",
    "semiclassics",
    "spectra",
    "asymptotics",
    "cli",
)

# the writers and the JSON mirror: their time is emit.self_s
EMIT_FUNCTIONS = frozenset(
    {
        "thomas_fermi.write_density_csv",
        "scattering.write_scattering_csv",
        "semiclassics.write_counts_csv",
        "spectra.write_catalog_csv",
        "spectra.write_scan_csv",
        "spectra.write_profile_csv",
        "asymptotics.write_prediction_csv",
        "asymptotics.write_boxes_csv",
        "asymptotics.write_budget_csv",
        "cli._mirror_csv_as_json",
    }
)


class _ShapeProbe:
    """Stands in for ``numpy`` inside one call and records 2-d ``exp`` results."""

    def __init__(self, shapes):
        self._shapes = shapes

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        out = np.exp(x, *args, **kwargs)
        if np.ndim(out) == 2:
            self._shapes.append((np.iscomplexobj(out), out.shape))
        return out


class Tracer:
    """Wraps the package's public functions; one instance per traced run."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self.results = collections.defaultdict(list)  # name -> (args, kwargs, result)
        self.keep_results = frozenset()
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def open_span(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close_span(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def self_times(self, since=0):
        """Per-name sum of span duration minus the time its child spans cover."""
        child = collections.defaultdict(float)
        for name, t0, t1, parent in self.spans[since:]:
            if parent >= since:
                child[parent] += t1 - t0
        out = collections.defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans[since:], start=since):
            out[name] += (t1 - t0) - child[i]
        return out

    def spans_json(self):
        return [
            {"name": n, "start": t0, "end": t1, "parent": p} for n, t0, t1, p in self.spans
        ]

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        around = _AROUND.get(name, _no_context)

        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                after(tracer, args, kwargs, out)
                return out

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            tracer.counts[name + ".calls"] += 1
            idx = tracer.open_span(name)
            try:
                with around(tracer, args, kwargs):
                    out = fn(*args, **kwargs)
            finally:
                tracer.close_span(idx)
            if after is not None:
                after(tracer, args, kwargs, out)
            if name in tracer.keep_results:
                tracer.results[name].append((args, kwargs, out))
            return out

        return traced

    def install(self):
        """Wrap every traced function at each module global bound to it."""
        package = self.package
        modules = [getattr(package, m) for m in PACKAGE_MODULES if hasattr(package, m)]
        targets = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            names = list(getattr(mod, "__all__", ()))
            names += [n for n in _PRIVATE_TARGETS.get(short, ()) if hasattr(mod, n)]
            for attr in names:
                obj = getattr(mod, attr)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        spectra = getattr(package, "spectra", None)
        lapack = getattr(spectra, "eigh_tridiagonal", None)
        if lapack is not None:
            targets[id(lapack)] = (lapack, self._wrap("spectra.eigh_tridiagonal", lapack))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()


@contextlib.contextmanager
def _no_context(tracer, args, kwargs):
    yield


# private helpers that are wrapped too: the RK4 stepper for its node
# count, the JSON mirror for its share of emission time
_PRIVATE_TARGETS = {"scattering": ("_rk4_outward",), "cli": ("_mirror_csv_as_json",)}

# counted without a span, so their time stays in the caller's self time
COUNT_ONLY = frozenset({"scattering._rk4_outward", "spectra.eigh_tridiagonal"})


def _counting(tracer, key, fn, size):
    def counted(x, *args, **kwargs):
        tracer.counts[key] += size(x)
        return fn(x, *args, **kwargs)

    return counted


def _swap_first(key, size):
    """Hook that replaces the callable first argument by a counting wrapper."""

    def before(tracer, args, kwargs):
        if args:
            return (_counting(tracer, key, args[0], size),) + tuple(args[1:]), kwargs
        for name in ("f", "g"):
            if name in kwargs:
                kwargs = dict(kwargs, **{name: _counting(tracer, key, kwargs[name], size)})
        return args, kwargs

    return before


@contextlib.contextmanager
def _dense_product_shapes(tracer, args, kwargs):
    """Count the complex multiply-adds of the Husimi overlaps from array shapes.

    Inside the call ``spectra.np`` is swapped for a probe that records the
    shapes of the 2-d arrays ``exp`` builds: the real window matrix
    (n_xm x n_x) and the complex phase matrix (n_p x n_x).  The count is
    computed, not measured: fill * n_xm * n_x * n_p.
    """
    spectra = tracer.package.spectra
    shapes = []
    saved = spectra.np
    spectra.np = _ShapeProbe(shapes)
    try:
        yield
    finally:
        spectra.np = saved
    fill = int(args[1]) if len(args) > 1 else int(kwargs["fill"])
    windows = [s for cplx, s in shapes if not cplx]
    phases = [s for cplx, s in shapes if cplx]
    if windows and phases:
        n_xm, n_x = windows[0]
        tracer.counts["spectra.coherent_identity_check_1d.cmacs"] += fill * n_xm * n_x * phases[0][0]


_AROUND = {"spectra.coherent_identity_check_1d": _dense_product_shapes}


_BEFORE = {
    "numerics.integrate_radial": _swap_first("numerics.integrate_radial.points", np.size),
    "numerics.find_root_monotone": _swap_first("numerics.find_root_monotone.evals", lambda x: 1),
    "numerics.find_sign_changes": _swap_first("numerics.find_sign_changes.points", np.size),
}


def _add(key, value):
    def after(tracer, args, kwargs, out):
        tracer.counts[key] += value(args, out)

    return after


_AFTER = {
    "thomas_fermi.two_spin_minimize": _add("thomas_fermi.two_spin_minimize.sweeps", lambda a, o: o.iterations),
    "scattering._rk4_outward": _add("scattering.zero_energy_solve.rk4_nodes", lambda a, o: len(o[0]) - 1),
    "spectra.eigh_tridiagonal": _add("spectra.fd_catalog_1d.points", lambda a, o: len(a[0])),
    "asymptotics.box_estimate": _add("asymptotics.box_estimate.cells", lambda a, o: o.n_cells),
}
