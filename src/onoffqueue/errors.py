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


class PoleNear(QueueModelError):
    """Generating-function denominator vanishes at the requested point."""


class CapTooSmall(QueueModelError):
    """Queue cap of the truncated joint chain cannot absorb one slot's arrivals."""


class NoConvergence(QueueModelError):
    """Stationary solve missed the residual target or gave a non-finite vector."""

    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"stationary solve missed the residual target: residual {residual:.3e}")


class TruncationBias(QueueModelError):
    """Lumped boundary mass is large enough to bias truncated statistics."""

    def __init__(self, boundary_mass, threshold):
        self.boundary_mass = boundary_mass
        self.threshold = threshold
        super().__init__(
            f"boundary mass {boundary_mass:.3e} exceeds threshold {threshold:.3e}; "
            "increase q_cap"
        )
