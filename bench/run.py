"""Run one benchmark workload, check its outputs and print its metrics.

    python3 bench/run.py --workload solve-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is used from ``src`` as it
stands; nothing is installed.  With ``--trace 0`` the last line of
standard output is one JSON object with the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics
of a traced run instead.  Full per-round figures go to
``bench/results/``; the traced run's spans go there too.

Each measured workload runs as fresh worker processes (``worker.py``):
SETUP_SAMPLES - 1 that only set up, then one that also runs the timed
rounds.  ``setup_s`` is the median set-up time of all of them; the other
metrics are medians over the rounds of the last one.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, set-up samples included

# One BLAS thread in every process: the 2-core host is shared, and a
# single thread gives steadier times than two (same output bytes).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def child_env(work):
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work)
    return env


def spawn(args, env, deadline):
    """Run worker.py to completion; returns its JSON and the set-up time it took."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any command it started
        proc.communicate()
        raise WorkerError(f"worker timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {err.decode()[-2000:]}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def end_to_end(args, env, work, deadline):
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--work", str(work)]
    setups = [spawn(common + ["--mode", "setup"], env, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    res = spawn(common + ["--mode", "measure"], env, deadline)
    setups.append(res["setup_s"])
    res["setups"] = setups
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["walls"]),
        "cpu_s": statistics.median(res["cpus"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return res, metrics


def traced(args, env, work, deadline, names, spans_path):
    res = spawn(["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--work", str(work), "--mode", "trace", "--metrics", ",".join(names),
                 "--spans", str(spans_path)], env, deadline)
    return res, res["metrics"]


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "dilutefermi" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no dilutefermi sources under {ROOT / 'src'} or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    # byte-compile once, outside every timed region
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("error: the sources do not compile", file=sys.stderr)
        return 2

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (BENCH / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "_work"))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        env = child_env(work)
        deadline = started + DEADLINE_S
        if args.trace:
            res, values = traced(args, env, work, deadline, list(units), results / f"{stem}-spans.json")
        else:
            res, values = end_to_end(args, env, work, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    (results / f"{stem}.json").write_text(json.dumps(res, indent=1, default=str))
    for failure in res["failures"]:
        print(f"check failed: {failure}")
    for failure in res["failed_ops"]:
        print(f"operation failed: {failure}")
    for name, value in values.items():
        print(f"{args.workload} {name} = {value} {units[name]}")
    summary = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
