"""Closed-form performance metrics for the validated model.

The mean queue length depends on the model only through the first two
moments of the on-period length and of the batch size; the mean delay
follows by Little's law.  Delay here is interpreted as E[T] = E[Q] / lam
with E[Q] the mean of the queue-length variable itself (work in service is
not counted separately).
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import Scalar, check_count
from .errors import ZeroArrivalRate
from .model import MomentSummary, check_stable


@dataclass(frozen=True)
class AnalyticReport:
    """Self-contained headline numbers for one model."""

    expected_queue: Scalar
    expected_delay: Scalar


def _variance(second_moment, mean):
    # nonnegative in exact arithmetic; guard the float subtraction against
    # cancellation flipping the sign
    var = second_moment - mean * mean
    zero = var * 0
    return var if var > zero else zero


def expected_queue(mom: MomentSummary) -> Scalar:
    """Mean queue length at equilibrium.

    Evaluated in the variance form
        [g_bar(g_bar-1)var(f) + f_bar(1+f_bar)var(g)] / [2(1+f_bar)^2(1-rho)]
    which is algebraically identical to the raw-moment form but better
    conditioned in float mode.
    """
    var_f = _variance(mom.f2_bar, mom.f_bar)
    var_g = _variance(mom.g2_bar, mom.g_bar)
    num = mom.g_bar * (mom.g_bar - 1) * var_f + mom.f_bar * (1 + mom.f_bar) * var_g
    den = 2 * (1 + mom.f_bar) ** 2 * (1 - mom.rho)
    return num / den


def expected_delay(mom: MomentSummary) -> Scalar:
    """Mean delay E[T] = E[Q] / lam (Little's law)."""
    return report(mom).expected_delay


def expected_queue_constant_batch(f_bar, f2_bar, r: int) -> Scalar:
    """Mean queue length when every batch has the same size r.

    Specializes the general formula with g degenerate at r; requires the
    stability condition r * f_bar / (1 + f_bar) < 1.
    """
    check_count(r, "batch size r", 1)
    check_stable(r * f_bar / (1 + f_bar))
    var_f = _variance(f2_bar, f_bar)
    return r * (r - 1) * var_f / (2 * (1 + f_bar) * (1 + f_bar - r * f_bar))


def report(mom: MomentSummary) -> AnalyticReport:
    if mom.lam == 0:
        raise ZeroArrivalRate("mean arrival rate is zero; delay is undefined")
    eq = expected_queue(mom)
    return AnalyticReport(expected_queue=eq, expected_delay=eq / mom.lam)
