"""Exception types shared across the package."""

from __future__ import annotations


class QueueModelError(Exception):
    """Base class for all errors raised by this package."""


class NonStochasticVector(QueueModelError):
    """A probability vector fails its range or sum-to-one check."""


class NotErgodic(QueueModelError):
    """The off-state self-transition probability is 0 or 1, so the chain
    never reaches equilibrium from both sides."""


class Unstable(QueueModelError):
    """Utilization is 1 or more; the queue grows without bound."""


class ValidationError(QueueModelError):
    """Carries every requirement violated by a model, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class ZeroArrivalRate(QueueModelError):
    """Mean arrival rate is zero, so delay is undefined."""


class NoConvergence(QueueModelError):
    """Stationary solve missed the residual target or gave a non-finite vector."""

    def __init__(self, residual, finite=True):
        self.residual = residual
        what = "missed the residual target" if finite else "gave a vector that is not finite"
        super().__init__(f"stationary solve {what}: residual {residual:.3e}")


class TruncationBias(QueueModelError):
    """Lumped boundary mass is large enough to bias truncated statistics."""

    def __init__(self, boundary_mass, threshold):
        self.boundary_mass = boundary_mass
        self.threshold = threshold
        super().__init__(
            f"boundary mass {boundary_mass:.3e} exceeds threshold {threshold:.3e}; "
            "increase q_cap"
        )
