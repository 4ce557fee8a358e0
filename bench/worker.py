"""One fresh process of a benchmark workload.

    python bench/worker.py --workload NAME --seed N --seconds S --mode MODE --work DIR

``run.py`` starts this script; its environment already puts the
checkout's ``src`` on the path and fixes the BLAS thread count.  Every
mode builds the inputs from the seed and warms up, then notes the
monotonic clock: that instant ends the set-up the parent measures.

- ``setup`` stops there.
- ``measure`` runs whole rounds (at least three) for ``--seconds``,
  timing each; then checks the first round's outputs against the
  references and requires every later round to repeat them exactly.
- ``trace`` runs untraced rounds, then rounds with every public function
  of the package wrapped (``tracer``), and reports the per-layer metrics.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 2


def cpu_seconds(in_process):
    """User + system CPU of this process, or of its waited-for children."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb(in_process):
    """Peak resident set of this process, or of its largest child (ru_maxrss is KiB)."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


class Rounds:
    """Runs rounds of a workload and keeps what the checks need."""

    def __init__(self, wl, work):
        self.wl = wl
        self.work = Path(work)
        self.first = None
        self.digests = None
        self.errors = []
        self.mismatched = set()
        self.attempted = 0
        self.failed = 0
        self.count = 0

    def run(self, ops=None, label="round", before_op=None, after_op=None, inspect=None):
        """One timed round; returns (wall, cpu, per-op walls).

        ``inspect(directory)`` sees the round's output files before a
        repeated round's directory is removed.
        """
        ops = self.wl.ops if ops is None else ops
        index = self.count
        self.count += 1
        rc = workloads.RoundContext(index, self.work / f"{label}{index}")
        results = {}
        summaries = {}
        op_walls = {}
        c0 = cpu_seconds(self.wl.in_process)
        t0 = time.perf_counter()
        for op in ops:
            token = before_op(op) if before_op else None
            s0 = time.perf_counter()
            try:
                results[op.name] = op.run(rc)
            except Exception as exc:  # counted as a failed operation; the run goes on
                self._failed(index, op, exc, summaries)
            op_walls[op.name] = time.perf_counter() - s0
            if after_op:
                after_op(token)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds(self.wl.in_process) - c0
        self.attempted += len(ops)
        for op in ops:
            if op.name in results:
                try:
                    summaries[op.name] = op.summarize(results[op.name]) if op.summarize else results[op.name]
                except workloads.OpFailed as exc:
                    self._failed(index, op, exc, summaries)
        digests = {name: workloads.digest(v) for name, v in summaries.items()}
        if inspect is not None:
            inspect(rc.directory)
        if self.first is None:
            self.first = summaries
            self.digests = digests
        else:
            self.mismatched.update(n for n, d in digests.items() if self.digests.get(n) != d)
            shutil.rmtree(rc.directory, ignore_errors=True)
        return wall, cpu, op_walls

    def _failed(self, index, op, exc, summaries):
        self.failed += 1
        self.errors.append(f"round {index} {op.name}: {type(exc).__name__}: {exc}")
        if getattr(exc, "summary", None) is not None:
            summaries[op.name] = exc.summary

    def report(self, ck):
        """Operation counts, the checks' verdict and what failed."""
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": ck.ok,
            "failures": ck.failures[:50],
            "failed_ops": sorted(set(e.split(" ", 2)[2] for e in self.errors)),
            "errors": self.errors[:50],
        }

    def check(self):
        ck = checks.Checker()
        for op in self.wl.ops:
            if op.name in self.first:
                try:
                    op.check(ck, self.first[op.name])
                except Exception as exc:  # output the check could not even read
                    ck.require(False, f"{op.name}: check raised {type(exc).__name__}: {exc}")
        for name in sorted(self.mismatched):
            ck.require(False, f"{name}: a later round did not repeat the first round's outputs")
        return ck


def measure(wl, seconds, work):
    rounds = Rounds(wl, work)
    walls, cpus, op_walls = [], [], []
    start = time.perf_counter()
    # whole rounds while the next one, as long as the slowest so far, still
    # ends within the measuring time
    while len(walls) < MIN_ROUNDS or time.perf_counter() - start + max(walls) <= seconds:
        wall, cpu, ow = rounds.run()
        walls.append(wall)
        cpus.append(cpu)
        op_walls.append(ow)
    rss = peak_rss_mb(wl.in_process)
    return {"walls": walls, "cpus": cpus, "op_walls": op_walls, "peak_rss_mb": rss,
            **rounds.report(rounds.check())}


# ------------------------------------------------------------------- trace


def import_times(env, samples=3):
    """Cumulative import time of dilutefermi.cli and scipy.linalg from -X importtime."""
    found = collections.defaultdict(list)
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dilutefermi.cli"],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
                              check=True)
        seen = {}
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) * 1e-6
        for module, metric in (("dilutefermi.cli", "import.cli_s"), ("scipy.linalg", "import.scipy_linalg_s")):
            found[metric].append(seen.get(module, 0.0))
    return {k: statistics.median(v) for k, v in found.items()}


def accuracy(results):
    """Distances of traced outputs from the closed forms (0 where none was made)."""
    import numpy as np

    acc = dict.fromkeys(("acc.tf_lambda_err", "acc.two_spin_energy_err", "acc.scatter_a_err",
                         "acc.husimi_resolution_residual"), 0.0)

    def worst(key, value):
        acc[key] = max(acc[key], float(value))

    for args, _, sol in results["thomas_fermi.tf_solve"]:
        v = args[0]  # built-in traps are V(0) + r^growth
        worst("acc.tf_lambda_err", abs(sol.lambda_TF - checks.tf_reference(v.growth, v.min_value())["lambda"]))
    for args, _, st in results["thomas_fermi.two_spin_minimize"]:
        v, g = args[0], args[1]
        if g > 0:
            ref = checks.two_spin_reference(v.growth, v.min_value(), g)
            worst("acc.two_spin_energy_err", abs(st.energy - ref["energy"]))
    for args, _, sol in results["scattering.zero_energy_solve"]:
        spec = args[0]
        if spec.hardcore or spec.range_ <= 0:
            continue
        probe = spec(np.linspace(0.0, spec.range_, 9))
        if np.all(probe == probe[0]) and probe[0] > 0:  # a square barrier
            worst("acc.scatter_a_err", abs(sol.a - checks.barrier_length(float(probe[0]), spec.range_)))
    for _, _, rep in results["spectra.coherent_identity_check_1d"]:
        worst("acc.husimi_resolution_residual", rep.resolution_residual)
    return acc


def emitted(directory):
    """Files, data rows and bytes written under a round's output directory."""
    files = rows = size = 0
    for path in Path(directory).rglob("*"):
        if not path.is_file():
            continue
        files += 1
        size += path.stat().st_size
        if path.suffix == ".csv":
            rows += len(workloads.read_table(path))
        elif path.suffix == ".json":
            rows += len(json.loads(path.read_text()).get("rows", []))
    return {"emit.files": files, "emit.rows": rows, "emit.bytes": size}


def traced_rounds(rounds, ops, seconds_left, label, count_files):
    """Rounds with every public function wrapped; per-round counts and self times."""
    import dilutefermi
    import tracer as tracing

    tr = tracing.Tracer(dilutefermi)
    tr.keep_results = frozenset({"thomas_fermi.tf_solve", "thomas_fermi.two_spin_minimize",
                                 "scattering.zero_energy_solve", "spectra.coherent_identity_check_1d"})
    per_round = []
    results = None
    tr.install()
    try:
        start = time.perf_counter()
        while len(per_round) < MIN_TRACE_ROUNDS or time.perf_counter() - start < seconds_left:
            mark = len(tr.spans)
            counts_before = collections.Counter(tr.counts)
            files = {}
            wall = rounds.run(ops, label, before_op=lambda op: tr.open_span("op:" + op.name),
                              after_op=tr.close_span,
                              inspect=(lambda d: files.update(emitted(d))) if count_files else None)[0]
            counts = collections.Counter(tr.counts)
            counts.subtract(counts_before)
            counts.update(files)
            selfs = tr.self_times(mark)
            selfs["emit"] = sum(selfs.get(name, 0.0) for name in tracing.EMIT_FUNCTIONS)
            per_round.append({"wall": wall, "counts": +counts, "self": selfs})
            if results is None:
                results = {k: list(v) for k, v in tr.results.items()}
                tr.keep_results = frozenset()
    finally:
        tr.uninstall()
    return per_round, collections.defaultdict(list, results or {}), tr.spans_json()


def layer_metrics(names, per_round, extra):
    counts = per_round[0]["counts"]
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
        elif name.endswith(".self_s"):
            out[name] = statistics.median(r["self"].get(name[: -len(".self_s")], 0.0) for r in per_round)
        elif name.endswith("_s"):
            out[name] = 0.0  # a time this workload never measures
        else:
            out[name] = counts.get(name, 0)
    return out


def trace(wl, seconds, work, env, names, spans_path):
    rounds = Rounds(wl, work)
    extra = import_times(env)
    if wl.in_process:
        ops, label = wl.ops, "round"
        budget = seconds / 2.0
    else:
        # cold processes give cli.<cmd>.cold_s; the traced rounds then run
        # the same commands in-process through cli.main
        cold = collections.defaultdict(list)
        start = time.perf_counter()
        while len(cold["import"]) < MIN_TRACE_ROUNDS or time.perf_counter() - start < seconds / 3.0:
            for name, t in rounds.run()[2].items():
                cold[name].append(t)
        extra.update({f"cli.{name}.cold_s": statistics.median(ts) for name, ts in cold.items()})
        ops, label = in_process_cli_ops(work), "inproc"
        budget = seconds / 3.0
    untraced = []
    start = time.perf_counter()
    while len(untraced) < MIN_TRACE_ROUNDS or time.perf_counter() - start < budget:
        untraced.append(rounds.run(ops, label)[0])
    per_round, results, spans = traced_rounds(rounds, ops, budget, label, not wl.in_process)
    extra["trace.overhead_s"] = statistics.median(r["wall"] for r in per_round) - statistics.median(untraced)
    extra.update(accuracy(results))
    # the first round is a cold one for cli-cold, so in-process and traced
    # outputs must repeat its bytes
    ck = rounds.check()
    repeat = all(r["counts"] == per_round[0]["counts"] for r in per_round)
    ck.require(repeat, "traced counts differ between rounds")
    spans_path.write_text(json.dumps(spans))
    return {"metrics": layer_metrics(names, per_round, extra), "untraced_walls": untraced,
            "traced_walls": [r["wall"] for r in per_round], **rounds.report(ck)}


def in_process_cli_ops(work):
    """The cli-cold commands as in-process cli.main calls (for tracing)."""
    from dilutefermi import cli

    config = Path(work) / "cli_config.json"

    def run(rc, cmd):
        if cmd == "import":
            importlib.import_module("dilutefermi.cli")
            return None
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([cmd, "--config", str(config), "--out", str(rc.directory / cmd)])
        if code != 0:
            raise workloads.OpFailed(f"cli.main {cmd} returned {code}")
        return rc.directory / cmd

    # the same nine operations as a cold round, so the failed share matches
    return [workloads.Op(cmd, lambda rc, c=cmd: run(rc, c), None,
                         lambda out_dir, c=cmd: workloads.command_outputs(c, out_dir))
            for cmd in workloads.CLI_COMMANDS + ("import",)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--work", required=True)
    parser.add_argument("--metrics", default="", help="comma-separated per-layer metric names (trace)")
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    wl = workloads.BUILDERS[args.workload](random.Random(args.seed), Path(args.work), dict(os.environ))
    wl.warm_up()
    ready = time.monotonic()
    if args.mode == "setup":
        out = {}
    elif args.mode == "measure":
        out = measure(wl, args.seconds, args.work)
    else:
        names = [n for n in args.metrics.split(",") if n]
        out = trace(wl, args.seconds, args.work, dict(os.environ), names, Path(args.spans))
    out["ready"] = ready
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
