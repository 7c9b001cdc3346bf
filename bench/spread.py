"""Run the benchmark on seeds 1..10 and report each metric's spread.

    python3 bench/spread.py [--out FILE] [--against FILE] [--traced]

For every workload and end-to-end metric of BENCHMARK.json this prints the
median over the ten seeds and the spread, (Q3 - Q1) / median with the
quartiles of `statistics.quantiles(values, n=4)`, next to the metric's
bound.  `--against` compares the medians with those of an earlier `--out`
file: a metric whose median is worse by more than its bound is flagged.
`--traced` adds one traced run per workload and keeps its per-layer
metrics in the `--out` file.
Exit status is 1 when a run fails, a spread other than setup_s's exceeds
its bound, or a median regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(command, workload, seed, seconds, trace=0) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=REPO, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    parser.add_argument("--against", default=None, help="an earlier --out file to compare medians with")
    parser.add_argument("--traced", action="store_true",
                        help="also make one traced run per workload, on seed 1, and keep its per-layer metrics")
    args = parser.parse_args()

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    summary, ok = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        runs, elapsed = [], []
        for seed in SEEDS:
            started = time.monotonic()
            result = run_once(spec["command"], workload, seed, spec["run_seconds"])
            elapsed.append(time.monotonic() - started)
            ok &= result["correct"] and result["failed"] == 0
            runs.append(result)
        print(f"{workload:14s} {len(runs)} runs, {statistics.mean(elapsed):.1f} s each on average, "
              f"longest {max(elapsed):.1f} s", flush=True)
        summary[workload] = {"run_elapsed_s": elapsed}
        if args.traced:
            traced = run_once(spec["command"], workload, 1, spec["run_seconds"], trace=1)
            ok &= traced["correct"] and traced["failed"] == 0
            summary[workload]["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        for name, metric in metrics.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            summary[workload][name] = stats
            verdict = ""
            if name != "setup_s" and stats["spread"] > metric["bound"]:
                verdict, ok = "SPREAD OVER BOUND", False
            before = earlier.get(workload, {}).get(name)
            if before:
                sign = 1 if metric["better"] == "lower" else -1
                change = sign * (stats["median"] - before["median"]) / before["median"]
                verdict += f" vs earlier {change:+.3f}"
                if change > metric["bound"]:
                    verdict, ok = verdict + " REGRESSED", False
            print(f"{workload:14s} {name:12s} median {stats['median']:.6g} {metric['unit']:8s} "
                  f"spread {stats['spread']:.4f} bound {metric['bound']}{verdict}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
