"""Command-line frontend: validate, analyze, dist, simulate, oracle, compare.

Model files are JSON documents with two arrays of decimal strings, `f`
(index 0..n) and `g` (index 1..m), plus an optional `name`.  Numbers are
kept as literal strings while parsing so the exact backend sees the
decimals the user wrote.  Exit status is 0 iff no error occurred; float
breakdown in `dist`/`compare` is expected behavior and reported as footer
metadata, not as an error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analytic, oracle, series, simulation as sim
from .config import EXACT, FLOAT64, NumericConfig
from .errors import QueueModelError, TruncationBias, ValidationError
from .model import from_strings, moments, suffix_sums
from .tables import OutputTable, format_scalar, render_csv, render_structured


class CliInputError(Exception):
    """File or document problem, distinct from model-validation errors."""


def load_model(path: str, backend: str = FLOAT64):
    """Read and validate a model file; returns (spec, name)."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text, parse_float=str, parse_int=str)
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise CliInputError(f"{path}: arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise CliInputError(f"{path}: expected a JSON object with arrays 'f' and 'g'")
    for key in ("f", "g"):
        if key not in doc:
            raise CliInputError(f"{path}: missing required array '{key}'")
        if not isinstance(doc[key], list):
            raise CliInputError(f"{path}: '{key}' must be an array of decimal strings")
    spec = from_strings(doc["f"], doc["g"], backend=backend)
    return spec, doc.get("name")


def write_output(text: str, output):
    if output is None:
        sys.stdout.write(text)
    else:
        # newline="" keeps the documented LF line endings on every platform
        Path(output).write_text(text, newline="")


def emit(table: OutputTable, fmt: str, output):
    if fmt == "structured":
        write_output(render_structured(table), output)
    else:
        write_output(render_csv(table), output)


def _dist_footer(table, dist, backend):
    table.add_footer("backend", backend)
    table.add_footer("k_effective", dist.k_effective)
    table.add_footer("breakdown_detected", format_scalar(dist.breakdown_detected))
    if dist.breakdown_detected:
        table.add_footer("breakdown_index", dist.breakdown_index)
        table.add_footer("breakdown_value", format_scalar(dist.breakdown_value))
        table.add_footer("breakdown_reason", dist.breakdown_reason)
    table.add_footer("mass_accounted", format_scalar(dist.mass_accounted))


def cmd_validate(args) -> int:
    spec, _ = load_model(args.path)
    mom = moments(spec)
    print(f"valid; rho={float(mom.rho):.4f}")
    return 0


def cmd_analyze(args) -> int:
    spec, _ = load_model(args.path, backend=args.backend)
    mom = moments(spec)
    rep = analytic.report(mom)
    values = {
        "f_bar": mom.f_bar,
        "f2_bar": mom.f2_bar,
        "g_bar": mom.g_bar,
        "g2_bar": mom.g2_bar,
        "rho": mom.rho,
        "lambda": mom.lam,
        "pi0": mom.pi0,
        "b0": mom.b0,
        "expected_queue": rep.expected_queue,
        "expected_delay": rep.expected_delay,
    }
    if args.format == "structured":
        payload = {key: format_scalar(value) for key, value in values.items()}
        write_output(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = [f"{key} = {format_scalar(value)}" for key, value in values.items()]
        write_output("\n".join(lines) + "\n", args.output)
    return 0


def make_config(cls, **fields):
    """cls(**fields), with a rejected value reported as an argument error (exit 2)."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise CliInputError(f"invalid argument: {exc}") from exc


def cmd_dist(args) -> int:
    config = make_config(NumericConfig, backend=args.backend, k_max=args.kmax)
    spec, _ = load_model(args.path, backend=args.backend)
    dist = series.queue_distribution(spec, config)
    table = OutputTable(columns=("k", "p", "tail"))
    for k, (p, tail) in enumerate(zip(dist.p, dist.tail)):
        table.add_row(k, format_scalar(p), format_scalar(tail))
    _dist_footer(table, dist, args.backend)
    emit(table, args.format, args.output)
    return 0


def cmd_oracle(args) -> int:
    spec, _ = load_model(args.path)
    chain = oracle.build_joint_chain(spec, args.qcap)
    pi = oracle.joint_stationary(chain)
    marginal = oracle.queue_marginal(chain, pi).tolist()
    # P(Q > k) summed from the far end, so small tails do not cancel against 1
    tails = suffix_sums(marginal)[1:] + (0.0,)
    table = OutputTable(columns=("k", "p", "tail"))
    for k, (p, tail) in enumerate(zip(marginal, tails)):
        table.add_row(k, format_scalar(p), format_scalar(tail))
    table.add_footer("q_cap", args.qcap)
    table.add_footer("boundary_mass", format_scalar(marginal[-1]))
    table.add_footer("residual", format_scalar(oracle.residual(chain, pi)))
    try:
        expected = oracle.oracle_expected_queue(pi, args.qcap)
        table.add_footer("expected_queue", format_scalar(expected))
        table.add_footer("truncation_bias", "false")
    except TruncationBias:
        table.add_footer("truncation_bias", "true")
    emit(table, args.format, args.output)
    return 0


def _sim_config(args) -> sim.SimulationConfig:
    return make_config(sim.SimulationConfig, iterations=args.iterations, runs=args.runs,
                       burn_in=args.burn_in, seed=args.seed, k_max=args.kmax)


def _sim_footer(table, report):
    table.add_footer("mean_queue", format_scalar(report.mean_queue))
    if report.mean_queue_ci is not None:
        table.add_footer("mean_queue_ci_low", format_scalar(report.mean_queue_ci[0]))
        table.add_footer("mean_queue_ci_high", format_scalar(report.mean_queue_ci[1]))
    table.add_footer("lumped_mass", format_scalar(report.lumped_mass))
    table.add_footer("min_resolvable", format_scalar(report.min_resolvable))
    table.add_footer("runs", report.runs)
    table.add_footer("steps_per_run", report.steps_per_run)
    table.add_footer("seed", report.seed)
    table.add_footer("generator", report.generator)


def cmd_simulate(args) -> int:
    config = _sim_config(args)
    spec, _ = load_model(args.path)
    report = sim.simulate(spec, config)
    table = OutputTable(columns=("k", "p_hat", "ci_low", "ci_high"))
    for k, p in enumerate(report.p_hat):
        lo = report.p_ci_low[k] if report.p_ci_low is not None else None
        hi = report.p_ci_high[k] if report.p_ci_high is not None else None
        table.add_row(k, format_scalar(p), format_scalar(lo), format_scalar(hi))
    _sim_footer(table, report)
    emit(table, args.format, args.output)
    return 0


def cmd_compare(args) -> int:
    config = make_config(NumericConfig, backend=args.backend, k_max=args.kmax)
    sim_config = _sim_config(args)
    spec, _ = load_model(args.path, backend=args.backend)
    dist = series.queue_distribution(spec, config)
    report = sim.simulate(spec, sim_config)
    table = OutputTable(
        columns=("k", "theory", "sim_mean", "ci_low", "ci_high", "within_ci")
    )
    upto = min(dist.k_effective, args.kmax)
    inside_all = 0
    inside_resolvable = 0
    resolvable = 0
    floor = 10.0 * report.min_resolvable
    for k in range(upto + 1):
        theory = dist.p[k]
        sim_mean = report.p_hat[k]
        lo = report.p_ci_low[k] if report.p_ci_low is not None else None
        hi = report.p_ci_high[k] if report.p_ci_high is not None else None
        within = lo is not None and lo <= float(theory) <= hi
        inside_all += within
        if float(theory) >= floor:
            resolvable += 1
            inside_resolvable += within
        table.add_row(
            k,
            format_scalar(theory),
            format_scalar(sim_mean),
            format_scalar(lo),
            format_scalar(hi),
            format_scalar(within),
        )
    rows = upto + 1
    table.add_footer("rows", rows)
    table.add_footer("within_ci_fraction", format_scalar(inside_all / rows))
    table.add_footer("resolvable_rows", resolvable)
    if resolvable:
        table.add_footer(
            "within_ci_fraction_resolvable", format_scalar(inside_resolvable / resolvable)
        )
    _dist_footer(table, dist, args.backend)
    _sim_footer(table, report)
    emit(table, args.format, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onoffqueue",
        description="Analyze the discrete-time on/off batch-arrival single-server queue.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument("--format", choices=("csv", "structured"), default="csv")
    out_parent.add_argument("--output", default=None, help="write to a file instead of stdout")

    backend_parent = argparse.ArgumentParser(add_help=False)
    backend_parent.add_argument(
        "--backend", choices=(FLOAT64, EXACT), default=FLOAT64,
        help="arithmetic backend; exact mode is slower but never breaks down",
    )

    sim_parent = argparse.ArgumentParser(add_help=False)
    sim_parent.add_argument("--iterations", type=int, default=1_000_000)
    sim_parent.add_argument("--runs", type=int, default=10)
    sim_parent.add_argument("--seed", type=int, default=0)
    sim_parent.add_argument("--burn-in", dest="burn_in", type=int, default=10_000)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", parents=[backend_parent], help="moments and closed-form metrics")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dist", parents=[backend_parent, out_parent],
                       help="queue-length distribution by the series recursion")
    p.add_argument("path")
    p.add_argument("--kmax", type=int, default=200)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("simulate", parents=[sim_parent, out_parent],
                       help="Monte Carlo estimates with confidence intervals")
    p.add_argument("path")
    p.add_argument("--kmax", type=int, default=50)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", parents=[out_parent],
                       help="brute-force joint-chain distribution (verification tool)")
    p.add_argument("path")
    p.add_argument("--qcap", type=int, default=500)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", parents=[backend_parent, sim_parent, out_parent],
                       help="theory versus simulation, row per queue length")
    p.add_argument("path")
    p.add_argument("--kmax", type=int, default=50)
    p.set_defaults(func=cmd_compare)

    return parser


def run(command, args) -> int:
    """Call command(args) and turn the package's errors into an exit status.

    A model error prints its message (every violation, for an invalid
    model) and gives 1; a file or argument error gives 2.
    """
    try:
        return command(args)
    except ValidationError as exc:
        print("invalid model:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    except QueueModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
