"""Command-line frontend: validate, analyze, dist, simulate, oracle, compare.

Model files are JSON documents with two arrays of decimal strings, `f`
(index 0..n) and `g` (index 1..m), plus an optional `name`.  Numbers are
kept as literal strings while parsing so the exact backend sees the
decimals the user wrote.  Exit status is 0 iff no error occurred: 1 for a
model error, 2 for a file or argument error (an unwritable `--output` or
stdout included) or a MemoryError.  Float breakdown in `dist`/`compare`
is expected behavior and reported as footer metadata, not as an error.

Each command validates and computes before it returns, so an error opens
no output; it returns its text as an iterable of pieces, which `run`
writes as they come.  The rows of a `dist` or `oracle` table are formatted
as they are written, a chunk at a time, so its whole CSV text is never held
at once; its structured text is written a group of rows at a time too.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import analytic, series
from .config import EXACT, FLOAT64, NumericConfig
from .errors import QueueModelError, TruncationBias, ValidationError
from .model import from_strings, moments, suffix_sums
from .tables import OutputTable, csv_chunks, distribution_cells, format_scalar, structured_chunks


class CliInputError(Exception):
    """File or document problem, distinct from model-validation errors."""


def load_model(path: str, backend: str = FLOAT64):
    """Read and validate a model file; returns its ModelSpec."""
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
    return from_strings(doc["f"], doc["g"], backend=backend)


def render(table: OutputTable, fmt: str):
    """The table's text in pieces: CSV a chunk of rows at a time, JSON a group of encoder pieces."""
    return structured_chunks(table) if fmt == "structured" else csv_chunks(table)


def _dist_footer(table, dist, backend):
    table.add_footer("backend", backend)
    table.add_footer("k_effective", dist.k_effective)
    table.add_footer("breakdown_detected", dist.breakdown_detected)
    if dist.breakdown_detected:
        table.add_footer("breakdown_index", dist.breakdown_index)
        table.add_footer("breakdown_value", dist.breakdown_value)
        table.add_footer("breakdown_reason", dist.breakdown_reason)
    table.add_footer("mass_accounted", dist.mass_accounted)


def _distribution_table(p, tail) -> OutputTable:
    """(k, p, tail) rows, k from 0, formatted as they are read."""
    rows = ((str(k), *cells) for k, cells in enumerate(distribution_cells(p, tail)))
    return OutputTable(columns=("k", "p", "tail"), rows=rows)


def cmd_validate(args):
    spec = load_model(args.path)
    return [f"valid; rho={float(moments(spec).rho):.4f}\n"]


def cmd_analyze(args):
    spec = load_model(args.path, backend=args.backend)
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
        return [json.dumps(payload, indent=2) + "\n"]
    return ["".join(f"{key} = {format_scalar(value)}\n" for key, value in values.items())]


def checked(make, **fields):
    """make(**fields), with a rejected value (ValueError) reported as an argument error (exit 2)."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise CliInputError(f"invalid argument: {exc}") from exc


def cmd_dist(args):
    config = checked(NumericConfig, backend=args.backend, k_max=args.kmax)
    spec = load_model(args.path, backend=args.backend)
    dist = series.queue_distribution(spec, config)
    table = _distribution_table(dist.p, dist.tail)
    _dist_footer(table, dist, args.backend)
    return render(table, args.format)


def cmd_oracle(args):
    from . import oracle

    spec = load_model(args.path)
    chain = checked(oracle.build_joint_chain, spec=spec, q_cap=args.qcap)
    pi = oracle.joint_stationary(chain)
    marginal = oracle.queue_marginal(chain, pi)
    probs = marginal.tolist()
    # P(Q > k) summed from the far end, so small tails do not cancel against 1
    tails = suffix_sums(probs)[1:] + (0.0,)
    table = _distribution_table(probs, tails)
    table.add_footer("q_cap", args.qcap)
    table.add_footer("states", chain.num_states)
    table.add_footer("kernel_nnz", chain.kernel_nnz)
    table.add_footer("boundary_mass", probs[-1])
    table.add_footer("residual", oracle.residual(chain, pi))
    try:
        table.add_footer("expected_queue", oracle.oracle_expected_queue(marginal))
        table.add_footer("truncation_bias", False)
    except TruncationBias:
        table.add_footer("truncation_bias", True)
    return render(table, args.format)


def _sim_config(args):
    from . import simulation as sim

    return checked(sim.SimulationConfig, iterations=args.iterations, runs=args.runs,
                   burn_in=args.burn_in, seed=args.seed, k_max=args.kmax)


def _sim_footer(table, report):
    table.add_footer("mean_queue", report.mean_queue)
    if report.mean_queue_ci is not None:
        table.add_footer("mean_queue_ci_low", report.mean_queue_ci[0])
        table.add_footer("mean_queue_ci_high", report.mean_queue_ci[1])
    if report.mean_queue_batch_se is not None:
        table.add_footer("mean_queue_batch_se", report.mean_queue_batch_se)
    table.add_footer("lumped_mass", report.lumped_mass)
    table.add_footer("min_resolvable", report.min_resolvable)
    table.add_footer("runs", report.runs)
    table.add_footer("steps_per_run", report.steps_per_run)
    table.add_footer("seed", report.seed)
    table.add_footer("generator", report.generator)


def cmd_simulate(args):
    from . import simulation as sim

    config = _sim_config(args)
    spec = load_model(args.path)
    report = sim.simulate(spec, config)
    table = OutputTable(columns=("k", "p_hat", "ci_low", "ci_high"))
    lows = report.p_ci_low or (None,) * len(report.p_hat)
    highs = report.p_ci_high or (None,) * len(report.p_hat)
    for k, row in enumerate(zip(report.p_hat, lows, highs)):
        table.add_row(k, *row)
    _sim_footer(table, report)
    return render(table, args.format)


def cmd_compare(args):
    from . import simulation as sim

    config = checked(NumericConfig, backend=args.backend, k_max=args.kmax)
    sim_config = _sim_config(args)
    spec = load_model(args.path, backend=args.backend)
    dist = series.queue_distribution(spec, config)
    report = sim.simulate(spec, sim_config)
    table = OutputTable(
        columns=("k", "theory", "sim_mean", "ci_low", "ci_high", "within_ci")
    )
    inside_all = 0
    inside_resolvable = 0
    resolvable = 0
    floor = 10.0 * report.min_resolvable
    lows = report.p_ci_low or (None,) * len(report.p_hat)
    highs = report.p_ci_high or (None,) * len(report.p_hat)
    for k, (theory, p_hat, lo, hi) in enumerate(zip(dist.p, report.p_hat, lows, highs)):
        within = lo is not None and lo <= float(theory) <= hi
        inside_all += within
        if float(theory) >= floor:
            resolvable += 1
            inside_resolvable += within
        table.add_row(k, theory, p_hat, lo, hi, within)
    table.add_footer("rows", len(dist.p))
    table.add_footer("within_ci_fraction", inside_all / len(dist.p))
    table.add_footer("resolvable_rows", resolvable)
    if resolvable:
        table.add_footer("within_ci_fraction_resolvable", inside_resolvable / resolvable)
    _dist_footer(table, dist, args.backend)
    _sim_footer(table, report)
    return render(table, args.format)


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

    p = sub.add_parser("analyze", parents=[backend_parent], help="moments and closed-form metrics")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--output", default=None)

    p = sub.add_parser("dist", parents=[backend_parent, out_parent],
                       help="queue-length distribution by the series recursion")
    p.add_argument("path")
    p.add_argument("--kmax", type=int, default=200)

    p = sub.add_parser("simulate", parents=[sim_parent, out_parent],
                       help="Monte Carlo estimates with confidence intervals")
    p.add_argument("path")
    p.add_argument("--kmax", type=int, default=50)

    p = sub.add_parser("oracle", parents=[out_parent],
                       help="brute-force joint-chain distribution (verification tool)")
    p.add_argument("path")
    p.add_argument("--qcap", type=int, default=500)

    p = sub.add_parser("compare", parents=[backend_parent, sim_parent, out_parent],
                       help="theory versus simulation, row per queue length")
    p.add_argument("path")
    p.add_argument("--kmax", type=int, default=50)

    return parser


def run(command, args) -> int:
    """Write command(args)'s pieces of text and turn the package's errors into an exit status.

    The pieces go to stdout, flushed, or to the file named by args.output
    with LF line endings, each as it comes; the target is opened once, after
    the command returns.  A model error prints its message (every
    violation, for an invalid model) and gives 1; a file or argument error,
    a failed write to either target included, gives 2, as does a MemoryError.
    A write that fails part way leaves what was written before it.
    """
    output = getattr(args, "output", None)
    try:
        pieces = command(args)
        try:
            if output is None:
                sys.stdout.writelines(pieces)
                sys.stdout.flush()
            else:
                with open(output, "w", newline="") as target:
                    target.writelines(pieces)
        except OSError as exc:
            if output is None:
                _discard_stdout()
            raise CliInputError(f"cannot write {output or '<stdout>'}: {exc}") from exc
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
    except MemoryError as exc:  # numpy's names the allocation it failed; Python's is empty
        if output is None:
            _discard_stdout()  # a failed write may have left part of the text
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    return 0


def _discard_stdout() -> None:
    """Drop what a failed write left in stdout's buffer.

    Otherwise the flush at interpreter exit retries it, prints an
    "Exception ignored" report and exits 120.  The buffer is flushed into
    os.devnull through stdout's own descriptor, which is then restored.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor, e.g. io.StringIO
        return
    saved, null = os.dup(fd), os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
        sys.stdout.flush()
    finally:
        os.dup2(saved, fd)
        os.close(saved)
        os.close(null)


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call (not at import)."""
    return build_parser()


def main(argv=None) -> int:
    """Parse argv and run the named command; returns the exit status.

    One parser serves every call in a process.  The command is looked up
    as the module attribute cmd_<name> at each call, so a replaced
    attribute (a test's patch, a tracer's wrapper) is the one that runs.
    """
    args = _shared_parser().parse_args(argv)
    return run(globals()[f"cmd_{args.command}"], args)


if __name__ == "__main__":
    sys.exit(main())
