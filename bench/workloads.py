"""The four workloads: inputs, one timed pass, and the checks on its outputs.

Every call into the package goes through a module attribute
(`cli.main`, `series.queue_distribution`, ...), so the tracer sees it.
A pass returns its wall time, one latency per job, and the outputs the
checks read.  Checks are independent of the code under test where they
can be: exact identities in `Fraction`s, digests recorded from the seed
commit, and the joint-chain oracle or the closed-form mean as references.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from onoffqueue import analytic, cli, model, series
from onoffqueue.config import NumericConfig

import inputs

SIZES = {
    "full": {
        "exact_kmax": 800,  # table1 and table2
        "exact_kmax_seeded": 400,
        "oracle_kmax": 200,
        "qcap": 1000,
        "sim_iterations": 1_000_000,
        "sim_runs": 4,
        "sim_kmax": 60,
        "sweep_models": 1000,
        "sweep_kmax": 200,
    },
    "tiny": {
        "exact_kmax": 200,
        "exact_kmax_seeded": 150,
        "oracle_kmax": 60,
        "qcap": 600,
        "sim_iterations": 30_000,
        "sim_runs": 3,
        "sim_kmax": 20,
        "sweep_models": 30,
        "sweep_kmax": 60,
    },
}

# sha256 of `dist --backend exact` output at the seed commit, keyed by
# (model, kmax); exact mode must stay Fraction-identical.
EXACT_DIGESTS = json.loads((Path(__file__).with_name("exact_digests.json")).read_text())

TOL_ORACLE = 1e-9
TOL_BOUNDARY = 1e-9
TOL_MASS = 1e-9
# The tail beyond k_max may add at most this share of E[Q] to the sum of tail[k].
TOL_MEAN_REMAINDER = Fraction(1, 10**9)
# The closed-form E[Q] must lie within this many CI half-widths of the
# simulated mean; with 4 runs (t, 3 degrees of freedom) a correct simulator
# falls outside with probability below 1e-4.
SIM_HALF_WIDTHS = 10


@dataclass
class Context:
    workload: str
    seed: int
    size: dict
    workdir: Path
    models: list = field(default_factory=list)  # (name, path, f, g) or (f, g) for sweep
    expected: dict = field(default_factory=dict)  # reference values for checks, computed once
    checked: dict = field(default_factory=dict)  # output digest -> check results


@dataclass
class PassResult:
    wall: float
    jobs: list
    outputs: list


def _write_model(ctx: Context, doc: dict) -> tuple:
    path = ctx.workdir / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    return doc["name"], str(path), doc["f"], doc["g"]


def setup(ctx: Context):
    """Generate, load and validate the workload's models (part of setup_s)."""
    if ctx.workload == "sweep":
        ctx.models = inputs.sweep_models(ctx.seed, ctx.size["sweep_models"])
        for f, g in ctx.models:
            model.from_strings(f, g)
        return
    if ctx.workload == "sim_compare":
        docs = [inputs.bundled_model("table2")]
    else:
        docs = [inputs.bundled_model(name) for name in inputs.BUNDLED]
        docs.append(inputs.table2_like(ctx.seed))
    ctx.models = [_write_model(ctx, doc) for doc in docs]
    backend = "exact" if ctx.workload == "exact_tail" else "float64"
    for _, path, _, _ in ctx.models:
        cli.load_model(path, backend)


def _run_cli(argv, out_path, jobs, clock):
    start = clock()
    code = cli.main([*argv, "--output", str(out_path)])
    jobs.append(clock() - start)
    return code


def run_pass(ctx: Context, clock) -> PassResult:
    size = ctx.size
    jobs, outputs = [], []
    start = clock()
    if ctx.workload == "exact_tail":
        for name, path, _, _ in ctx.models:
            kmax = size["exact_kmax"] if name in inputs.BUNDLED else size["exact_kmax_seeded"]
            out = ctx.workdir / f"{name}.exact.csv"
            code = _run_cli(["dist", path, "--backend", "exact", "--kmax", str(kmax)], out, jobs, clock)
            outputs.append((name, kmax, code, out))
    elif ctx.workload == "oracle_verify":
        for name, path, _, _ in ctx.models:
            dist_out = ctx.workdir / f"{name}.dist.csv"
            oracle_out = ctx.workdir / f"{name}.oracle.csv"
            dist_code = _run_cli(["dist", path, "--kmax", str(size["oracle_kmax"])], dist_out, jobs, clock)
            oracle_code = _run_cli(["oracle", path, "--qcap", str(size["qcap"])], oracle_out, jobs, clock)
            outputs.append((name, dist_code, dist_out, oracle_code, oracle_out))
    elif ctx.workload == "sim_compare":
        name, path, _, _ = ctx.models[0]
        out = ctx.workdir / "compare.csv"
        argv = ["compare", path, "--iterations", str(size["sim_iterations"]),
                "--runs", str(size["sim_runs"]), "--kmax", str(size["sim_kmax"]), "--seed", str(ctx.seed)]
        code = _run_cli(argv, out, jobs, clock)
        outputs.append((name, code, out))
    elif ctx.workload == "sweep":
        config = NumericConfig(k_max=size["sweep_kmax"])
        for f, g in ctx.models:
            job_start = clock()
            spec = model.from_strings(f, g)
            analytic.report(model.moments(spec))
            dist = series.queue_distribution(spec, config)
            jobs.append(clock() - job_start)
            outputs.append(dist)
    else:
        raise ValueError(f"unknown workload {ctx.workload!r}")
    return PassResult(wall=clock() - start, jobs=jobs, outputs=outputs)


# ---- output parsing (own parser, so a bug in tables.parse_csv cannot hide one in render_csv)

def _read_table(path: Path):
    """Data rows, footer and sha256 of a CSV table written by the CLI."""
    text = path.read_text()
    rows, footer = [], {}
    for line in text.split("\n")[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            footer[key] = value
        elif line:
            rows.append(line.split(","))
    return rows, footer, hashlib.sha256(text.encode()).hexdigest()


# ---- checks: each returns a list of (check name, passed)

def _cached(ctx, digest, compute):
    """Identical bytes give identical check results, so each distinct output is checked once."""
    if digest not in ctx.checked:
        ctx.checked[digest] = compute()
    return ctx.checked[digest]


def _exact_mean(ctx, name, f, g):
    key = ("exact_mean", name)
    if key not in ctx.expected:
        spec = model.from_strings(f, g, backend="exact")
        ctx.expected[key] = analytic.report(model.moments(spec)).expected_queue
    return ctx.expected[key]


def _check_exact(ctx, name, f, g, kmax, rows):
    p = [Fraction(r[1]) for r in rows]
    tail = [Fraction(r[2]) for r in rows]
    mass_ok = len(p) == kmax + 1 and all(v >= 0 for v in p) and sum(p) + tail[-1] == 1
    remainder = _exact_mean(ctx, name, f, g) - sum(tail)
    mean_ok = 0 <= remainder <= TOL_MEAN_REMAINDER * max(1, _exact_mean(ctx, name, f, g))
    return [("exact_mass_is_one", mass_ok), ("exact_mean_remainder", mean_ok)]


def _check_oracle(dist_rows, dist_footer, oracle_rows, oracle_footer):
    k_eff = int(dist_footer["k_effective"])
    gap = max(abs(float(dist_rows[k][1]) - float(oracle_rows[k][1])) for k in range(k_eff + 1))
    return [
        ("oracle_agrees", gap <= TOL_ORACLE),
        ("oracle_boundary_mass", float(oracle_footer["boundary_mass"]) <= TOL_BOUNDARY),
    ]


def _check_sim(ctx, f, g, footer):
    if "sim_mean" not in ctx.expected:
        ctx.expected["sim_mean"] = float(
            analytic.report(model.moments(model.from_strings(f, g))).expected_queue
        )
    low, high = float(footer["mean_queue_ci_low"]), float(footer["mean_queue_ci_high"])
    mean = float(footer["mean_queue"])
    half = (high - low) / 2
    return [("sim_covers_mean", abs(ctx.expected["sim_mean"] - mean) <= SIM_HALF_WIDTHS * half)]


def check_pass(ctx: Context, result: PassResult) -> list:
    checks = []
    if ctx.workload == "exact_tail":
        models = {m[0]: m for m in ctx.models}
        for name, kmax, code, out in result.outputs:
            checks.append(("exit_code", code == 0))
            if code != 0:
                continue
            rows, _, digest = _read_table(out)
            if name in inputs.BUNDLED:
                checks.append(("seed_commit_digest", EXACT_DIGESTS.get(f"{name}:{kmax}") == digest))
            _, _, f, g = models[name]
            checks.extend(_cached(ctx, digest, lambda: _check_exact(ctx, name, f, g, kmax, rows)))
    elif ctx.workload == "oracle_verify":
        for name, dist_code, dist_out, oracle_code, oracle_out in result.outputs:
            checks.append(("exit_code", dist_code == 0))
            checks.append(("exit_code", oracle_code == 0))
            if dist_code or oracle_code:
                continue
            dist_rows, dist_footer, d1 = _read_table(dist_out)
            oracle_rows, oracle_footer, d2 = _read_table(oracle_out)
            checks.extend(_cached(
                ctx, d1 + d2, lambda: _check_oracle(dist_rows, dist_footer, oracle_rows, oracle_footer)))
    elif ctx.workload == "sim_compare":
        _, _, f, g = ctx.models[0]
        for name, code, out in result.outputs:
            checks.append(("exit_code", code == 0))
            if code != 0:
                continue
            _, footer, digest = _read_table(out)
            # the same seed must give bitwise the same table on every pass
            first = ctx.expected.setdefault("sim_digest", digest)
            checks.append(("sim_reproducible", digest == first))
            checks.extend(_cached(ctx, digest, lambda: _check_sim(ctx, f, g, footer)))
    elif ctx.workload == "sweep":
        for dist in result.outputs:
            checks.append(("sweep_rows_nonnegative", all(v >= 0 for v in dist.p)))
            checks.append(("sweep_mass_at_most_one", math.fsum(dist.p) <= 1 + TOL_MASS))
    return checks


# Every check each workload must run at least once (asserted by selftest.py).
EXPECTED_CHECKS = {
    "exact_tail": {"exit_code", "seed_commit_digest", "exact_mass_is_one", "exact_mean_remainder"},
    "oracle_verify": {"exit_code", "oracle_agrees", "oracle_boundary_mass"},
    "sim_compare": {"exit_code", "sim_reproducible", "sim_covers_mean"},
    "sweep": {"sweep_rows_nonnegative", "sweep_mass_at_most_one"},
}
