"""Seeded benchmark inputs, built with the standard library only.

The generators never call the package under test: utilization and the
arithmetic-size gate are computed here with exact rationals, so a change to
the package cannot change which models a seed produces.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BUNDLED = ("table1", "table2")


def bundled_model(name: str) -> dict:
    """A model file from `models/`, entries kept as the decimal strings written."""
    text = (REPO / "models" / f"{name}.json").read_text()
    return json.loads(text, parse_float=str, parse_int=str)


def _composition(rng: random.Random, parts: int, total: int = 100) -> list:
    """`parts` positive integers summing to `total`, uniform over compositions."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0, *cuts, total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def _two_decimal(units: int) -> str:
    return f"{units // 100}.{units % 100:02d}"


def _rho(f: list, g: list) -> Fraction:
    f_bar = sum(i * Fraction(v, 100) for i, v in enumerate(f))
    g_bar = sum(i * Fraction(v, 100) for i, v in enumerate(g, start=1))
    return g_bar * f_bar / (1 + f_bar)


def table2_like(seed: int) -> dict:
    """A model shaped like table2: n = 4, m = 4, positive two-decimal entries, rho <= 0.9.

    The exact backend's cost per row follows the size of the numerator of
    D[0] = -sum_j f[j] * g[1]**j, the divisor of every step of the series
    recurrence.  Requiring it to have at least 32 bits (two-decimal entries
    in general position, where nothing cancels) keeps that cost the same
    for every seed, so the seed changes the model but not the workload's size.
    """
    rng = random.Random(seed)
    while True:
        f = _composition(rng, 5)
        g = _composition(rng, 4)
        if _rho(f, g) > Fraction(9, 10):
            continue
        g1 = Fraction(g[0], 100)
        d0 = -sum(Fraction(v, 100) * g1**j for j, v in enumerate(f))
        if abs(d0.numerator).bit_length() >= 32:
            return {
                "name": f"seeded{seed}",
                "f": [_two_decimal(v) for v in f],
                "g": [_two_decimal(v) for v in g],
            }


def sweep_models(seed: int, count: int) -> list:
    """`count` random models: n and m in 2..5, positive two-decimal entries, rho in [0.3, 0.9].

    f[0] is drawn on its own so that light and heavy loads are both common;
    the rest of f and all of g are uniform compositions.
    """
    rng = random.Random(f"sweep-{seed}")
    out = []
    while len(out) < count:
        n = rng.randint(2, 5)
        m = rng.randint(2, 5)
        off = rng.randint(5, 100 - n)
        f = [off, *_composition(rng, n, 100 - off)]
        g = _composition(rng, m)
        if Fraction(3, 10) <= _rho(f, g) <= Fraction(9, 10):
            out.append(([_two_decimal(v) for v in f], [_two_decimal(v) for v in g]))
    return out
