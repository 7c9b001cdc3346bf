#!/usr/bin/env python3
"""Scan float-backend breakdown against the exact backend for a model file.

Reports where the float recursion is flagged (first negative coefficient or
mass overshoot), where float and exact first disagree beyond a threshold,
and the exact tail magnitude at the scan horizon.  Exit status follows the
CLI: 1 for an invalid or unstable model, 2 for a file or argument error.

Example:
    python3 scripts/breakdown_scan.py models/table1.json --kmax 200
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from onoffqueue import EXACT, NumericConfig, queue_distribution
from onoffqueue.cli import load_model, make_config, run


def scan(args) -> int:
    float_config = make_config(NumericConfig, k_max=args.kmax)
    exact_config = make_config(NumericConfig, backend=EXACT, k_max=args.kmax)
    float_spec, name = load_model(args.model)
    exact_spec, _ = load_model(args.model, backend=EXACT)
    float_dist = queue_distribution(float_spec, float_config)
    exact_dist = queue_distribution(exact_spec, exact_config)

    print(f"model: {name or args.model}  k_max={args.kmax}")
    if float_dist.breakdown_detected:
        print(
            f"float backend flagged at k={float_dist.breakdown_index} "
            f"({float_dist.breakdown_reason}, value={float_dist.breakdown_value:.3e}); "
            f"k_effective={float_dist.k_effective}"
        )
    else:
        print(f"float backend ran to k_effective={float_dist.k_effective} without a flag")

    first_divergence = None
    for k in range(float_dist.k_effective + 1):
        if abs(float_dist.p[k] - float(exact_dist.p[k])) > args.threshold:
            first_divergence = k
            break
    if first_divergence is None:
        print(f"float agrees with exact within {args.threshold:g} "
              f"for all computed k")
    else:
        print(f"float first diverges from exact at k={first_divergence} "
              f"(float={float_dist.p[first_divergence]:.6e}, "
              f"exact={float(exact_dist.p[first_divergence]):.6e})")
    print(f"exact p[{args.kmax}] = {float(exact_dist.p[args.kmax]):.6e}; "
          f"exact mass accounted = {float(exact_dist.mass_accounted):.15f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("model")
    parser.add_argument("--kmax", type=int, default=200)
    parser.add_argument("--threshold", type=float, default=1e-12,
                        help="absolute disagreement that counts as divergence")
    return run(scan, parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
