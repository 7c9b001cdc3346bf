"""Benchmark launcher for the onoffqueue analyzer.

    python3 bench/run.py --workload exact_tail --seed 1 --seconds 20 --trace 0

Runs one workload (exact_tail, oracle_verify, sim_compare or sweep) in a
fresh single-threaded interpreter, after SETUP_SAMPLES more fresh
interpreters that only do the set-up, and prints one metric per line
followed, as the last line, by a JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 the per-layer
ones.  The full result, with sample counts and provenance, is also written
to bench/out/.  Exit status is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("exact_tail", "oracle_verify", "sim_compare", "sweep")
SETUP_SAMPLES = 9  # fresh interpreters timed for setup_s, the worker included
DEADLINE_S = 170  # every child is killed by then, so a run ends within 180 s
# One thread for every BLAS/OpenMP pool, so each workload is single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(mode: str, args, size: str, workdir: Path, deadline: float) -> dict:
    result_path = workdir / f"{mode}-result.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", size, "--workdir", str(workdir), "--result", str(result_path)]
    t0 = time.monotonic()
    proc = subprocess.run([*argv, "--t0", repr(t0)], env=child_env(), stdout=sys.stderr,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with status {proc.returncode}")
    return json.loads(result_path.read_text())


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of the sorted sample (numpy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def read_git_sha():
    """HEAD of a git checkout, read from .git directly so nothing outside the checkout is consulted."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, versions) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((REPO / "src" / "onoffqueue").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        **versions,
        "git_sha": read_git_sha(),
        "source_sha256": digest.hexdigest(),
    }


def run_scale(run) -> float:
    """Turns this run's seconds into seconds at the reference speed (see calibrate.py)."""
    return run["reference_speed_s"] / statistics.median(run["references"])


def scaled_walls(run, traced=False) -> list:
    """Each pass time in seconds at the reference speed, from the reference times just around it.

    The machine's speed moves within a run too, so a pass is scaled by the
    speed measured next to it rather than by the run's median speed.
    """
    suffix = "_traced" if traced else ""
    return [run["reference_speed_s"] * wall / ref
            for wall, ref in zip(run["walls" + suffix], run["pass_refs" + suffix])]


def typical_jobs(passes) -> list:
    """Each job's median latency over the passes; every pass runs the same jobs in the same order.

    The p99 of these is a tail over inputs.  A p99 over every single
    latency would, on workloads of a few jobs per pass, be the slowest
    moment of the machine instead.
    """
    return [statistics.median(latencies) for latencies in zip(*passes)]


def end_to_end(setups, run) -> dict:
    walls = scaled_walls(run)
    jobs = [[run["reference_speed_s"] * job / ref for job in pass_jobs]
            for ref, pass_jobs in zip(run["pass_refs"], run["jobs"])]
    checks = run["checks"]
    passed = sum(ok for _, ok in checks)
    return {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "setup_s": (run_scale(run) * statistics.median(s["import_s"] + s["models_s"] for s in setups), "s",
                    len(setups)),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
        "pass_frac": (passed / len(checks), "fraction", len(checks)),
        "job_p99_ms": (1000 * quantile(typical_jobs(jobs), 0.99), "ms", len(jobs[0])),
    }


def per_layer(setups, run) -> dict:
    layers = run["layers"]
    n = len(layers)
    scale = run_scale(run)

    def med(get):
        return statistics.median(run["reference_speed_s"] * get(layer) / ref
                                 for ref, layer in zip(run["pass_refs_traced"], layers))

    def incl(*names):
        return med(lambda layer: sum(layer["inclusive"].get(name, 0.0) for name in names))

    def self_s(*names):
        return med(lambda layer: sum(layer["self"].get(name, 0.0) for name in names))

    def count(key):
        return statistics.median_low(layer["counts"][key] for layer in layers)

    def calls(name):
        return statistics.median_low(layer["calls"].get(name, 0) for layer in layers)

    # Everything the CLI does itself (argument parsing, building tables,
    # writing files): cli.load_model is reported on its own.
    cli_own = {name for layer in layers for name in layer["self"]
               if name.startswith("cli.") and name != "cli.load_model"}
    # The worker runs traced (T) and untraced (U) passes as T U U T ..., so
    # the i-th traced and the i-th untraced pass are always next to each other.
    pairs = list(zip(scaled_walls(run, traced=True), scaled_walls(run)))
    solve_s = incl("oracle.joint_stationary")
    run_s = incl("simulation.simulate_run")
    emitted, requested = count("rows_emitted"), count("rows_requested")
    return {
        "series.g_table_s": (incl("series.g_coefficients"), "s", n),
        "series.nd_build_s": (incl("series.series_coefficients"), "s", n),
        "series.divide_s": (self_s("series.queue_distribution"), "s", n),
        "series.g_table_cells": (count("g_table_cells"), "count", n),
        "series.rows_emitted": (emitted, "count", n),
        "series.rows_requested": (requested, "count", n),
        "series.float_rows_frac": (emitted / requested if requested else 0.0, "fraction", n),
        "series.breakdowns": (count("breakdowns"), "count", n),
        "series.exact_den_bits_max": (count("exact_den_bits_max"), "bits", n),
        "tables.format_s": (incl("tables.format_scalar"), "s", n),
        "tables.format_calls": (calls("tables.format_scalar"), "count", n),
        "tables.render_s": (incl("tables.render_csv", "tables.render_structured"), "s", n),
        "tables.bytes_out": (count("bytes_out"), "bytes", n),
        "oracle.build_s": (incl("oracle.build_joint_chain"), "s", n),
        "oracle.solve_s": (solve_s, "s", n),
        "oracle.states_per_s": (count("states") / solve_s if solve_s else 0.0, "1/s", n),
        "oracle.solve_rss_mb": (run["solve_rss_mb"], "MB", 1),
        "oracle.states": (count("states"), "count", n),
        "oracle.kernel_nnz": (count("kernel_nnz"), "count", n),
        "oracle.residual_max": (max(layer["counts"]["residual_max"] for layer in layers), "1", n),
        "oracle.boundary_mass_max": (max(layer["counts"]["boundary_mass_max"] for layer in layers), "1", n),
        "simulation.run_s": (run_s, "s", n),
        "simulation.steps_per_s": (count("steps") / run_s if run_s else 0.0, "1/s", n),
        "simulation.steps": (count("steps"), "count", n),
        "simulation.aggregate_s": (incl("simulation.aggregate"), "s", n),
        "model.validate_s": (incl("model.validate"), "s", n),
        "cli.load_model_s": (incl("cli.load_model"), "s", n),
        "analytic.report_s": (incl("analytic.report"), "s", n),
        "cli.self_s": (self_s(*cli_own), "s", n),
        "setup.import_s": (scale * statistics.median(s["import_s"] for s in setups), "s", len(setups)),
        "setup.models_s": (scale * statistics.median(s["models_s"] for s in setups), "s", len(setups)),
        "trace.overhead_s": (statistics.median(traced - untraced for traced, untraced in pairs),
                             "s", len(pairs)),
        "trace.spans": (statistics.median_low(layer["spans"] for layer in layers), "count", n),
        "calibrate.reference_s": (statistics.median(run["references"]), "s", len(run["references"])),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the harness self-test")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    size = "tiny" if args.tiny else "full"
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        modes = ["setup"] * (SETUP_SAMPLES - 1) + ["run"]
        setups = [run_child(mode, args, size, workdir, deadline) for mode in modes]
        run = setups[-1]
        metrics = per_layer(setups, run) if args.trace else end_to_end(setups, run)
        spans = workdir / "spans.jsonl"
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if spans.exists():
            spans.replace(OUT / f"{stem}-spans.jsonl")
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = run["checks"]
    failed = sorted({name for name, ok in checks if not ok})
    record = {
        "provenance": provenance(args, run["versions"]),
        "metrics": {name: {"value": v, "unit": u, "samples": s} for name, (v, u, s) in metrics.items()},
        "checks": {"attempted": len(checks), "failed": len(checks) - sum(ok for _, ok in checks),
                   "ran": dict(collections.Counter(name for name, _ in checks)), "failed_names": failed},
        "walls": run["walls"],
        "walls_traced": run.get("walls_traced"),
        "job_p99_raw_s": quantile(typical_jobs(run["jobs"]), 0.99) if "jobs" in run else None,
        "references": run["references"],
        "setups": [[setup["import_s"], setup["models_s"]] for setup in setups],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print("# " + json.dumps(record["provenance"]))
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} = {value!r} {unit} (n={samples})")
    if failed:
        print("# failed checks: " + ", ".join(failed))
    print(json.dumps({
        "correct": not failed,
        "attempted": record["checks"]["attempted"],
        "failed": record["checks"]["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
