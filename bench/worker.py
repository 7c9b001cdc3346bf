"""One workload in a fresh interpreter; started by run.py, not by hand.

`setup` mode only imports the package and builds the inputs, reporting the
two times since the launcher's clock reading `--t0` (CLOCK_MONOTONIC is
shared by every process on the machine, so interpreter start counts).
The reference computation (which loads numpy) and the tracer are imported
only after that window.
`run` mode then makes timed passes for `--seconds`, at least MIN_PASSES of
them; the launcher reports their median, so a slow first pass does not
need a separate warm-up.  `peak_rss_mb` is read after the first pass and
before its outputs are checked, so the checker's memory does not count.
With `--trace 1` a traced warm-up pass (which also makes the process's
first oracle solve, for its memory) is followed by traced and untraced
passes in the order T U U T, repeated, so each traced pass has an
untraced neighbour; the median difference of those neighbours is the
tracing overhead.  The result goes to `--result` as JSON, and a traced
run's spans to `spans.jsonl` beside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

clock = time.monotonic
MIN_PASSES = 3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    import onoffqueue  # noqa: F401  the import every CLI call pays

    imported = clock()
    import workloads

    ctx = workloads.Context(
        workload=args.workload, seed=args.seed, size=workloads.SIZES[args.size], workdir=Path(args.workdir)
    )
    workloads.setup(ctx)
    ready = clock()
    result = {"import_s": imported - args.t0, "models_s": ready - imported}
    if args.mode == "run":
        result.update(measure(ctx, args, workloads))
    Path(args.result).write_text(json.dumps(result))
    return 0


def _passes(ctx, workloads, seconds, checks, tr=None) -> dict:
    """Timed passes until `seconds` have gone by and at least MIN_PASSES were made.

    The reference computation is timed before each pass and after the
    last; each pass gets the median of the reference times just before and
    just after it.  With a tracer `tr`, passes go traced, untraced,
    untraced, traced, and so on, at least MIN_PASSES of each; the tracer is
    installed only around a traced pass.  Returns, for the untraced and the
    traced passes apart, their times and reference times, the untraced
    passes' job latencies, the traced passes' layers and spans, every
    reference time, and the process's peak memory after the first pass,
    read before anything is checked.
    """
    import statistics

    import calibrate

    run = {"walls": [], "pass_refs": [], "jobs": [], "walls_traced": [], "pass_refs_traced": [],
           "layers": [], "spans": [], "peak_rss_mb": None}
    gc.collect()
    boundaries = [calibrate.reference_samples(clock)]
    started = clock()
    minimum = MIN_PASSES if tr is None else 2 * MIN_PASSES
    index = 0
    while index < minimum or clock() - started < seconds:
        traced = tr is not None and index % 4 in (0, 3)
        index += 1
        if traced:
            tr.install(clock)
            tr.reset()
        result = workloads.run_pass(ctx, clock)
        if traced:
            tr.uninstall()  # checking and counting are not traced
            run["layers"].append(pass_layers(tr))
            run["spans"].append(tr.spans)
        else:
            run["jobs"].append(result.jobs)
        if run["peak_rss_mb"] is None:
            run["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checks.extend(workloads.check_pass(ctx, result))
        gc.collect()
        boundaries.append(calibrate.reference_samples(clock))
        suffix = "_traced" if traced else ""
        run["walls" + suffix].append(result.wall)
        run["pass_refs" + suffix].append(statistics.median(boundaries[-2] + boundaries[-1]))
    run["references"] = [t for samples in boundaries for t in samples]
    return run


def measure(ctx, args, workloads) -> dict:
    import calibrate
    import numpy
    import scipy

    checks = []
    out = {"reference_speed_s": calibrate.REFERENCE_S}
    if not args.trace:
        out.update(_passes(ctx, workloads, args.seconds, checks))
    else:
        import tracer

        tr = tracer.Tracer()
        tr.install(clock)
        checks.extend(workloads.check_pass(ctx, workloads.run_pass(ctx, clock)))  # warm-up
        tr.uninstall()
        out.update(_passes(ctx, workloads, args.seconds, checks, tr))
        out["solve_rss_mb"] = tr.solve_rss_mb
        with open(Path(args.workdir) / "spans.jsonl", "w") as fh:
            for index, pass_spans in enumerate(out.pop("spans")):
                for name, begin, end, parent in pass_spans:
                    fh.write(json.dumps([index, name, begin, end, parent]) + "\n")
    out["checks"] = [[name, bool(ok)] for name, ok in checks]
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    return out


def pass_layers(tr) -> dict:
    """Per-layer times and counts of one traced pass, from its spans and kept results."""
    import numpy as np

    from tracer import span_times

    inclusive, self_time, calls = span_times(tr.spans)
    counts = dict.fromkeys(
        ("g_table_cells", "rows_emitted", "rows_requested", "breakdowns", "exact_den_bits_max",
         "bytes_out", "states", "kernel_nnz", "steps"), 0)
    counts.update(residual_max=0.0, boundary_mass_max=0.0)
    for name, args, kwargs, result in tr.kept:
        if name == "series.g_coefficients":
            counts["g_table_cells"] += len(result) * len(result[0])
        elif name == "series.queue_distribution":
            config = args[1] if len(args) > 1 else kwargs.get("config")
            counts["rows_requested"] += (200 if config is None else config.k_max) + 1
            counts["rows_emitted"] += len(result.p)
            counts["breakdowns"] += int(result.breakdown_detected)
            if result.p and isinstance(result.p[0], Fraction):
                bits = max(v.denominator.bit_length() for v in result.p)
                counts["exact_den_bits_max"] = max(counts["exact_den_bits_max"], bits)
        elif name in ("tables.render_csv", "tables.render_structured"):
            counts["bytes_out"] += len(result.encode())
        elif name == "oracle.joint_stationary":
            chain, pi = args[0], result
            counts["states"] += chain.kernel.shape[0]
            counts["kernel_nnz"] += int(chain.kernel.nnz)
            residual = float(np.max(np.abs(chain.kernel.T @ pi - pi)))
            boundary = float(pi.reshape(chain.n + 1, chain.q_cap + 1).sum(axis=0)[-1])
            counts["residual_max"] = max(counts["residual_max"], residual)
            counts["boundary_mass_max"] = max(counts["boundary_mass_max"], boundary)
        elif name == "simulation.simulate_run":
            counts["steps"] += args[1].iterations
    tr.kept = []
    return {"inclusive": inclusive, "self": self_time, "calls": calls, "counts": counts, "spans": len(tr.spans)}


if __name__ == "__main__":
    os.chdir(Path(__file__).resolve().parent.parent)
    sys.exit(main())
