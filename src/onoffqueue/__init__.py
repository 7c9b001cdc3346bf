"""Exact and simulated analysis of a discrete-time on/off Markov-modulated
batch-arrival single-server queue.

The oracle and simulation names load on first access (PEP 562), so
importing the package, or running the CLI's series commands, never loads
numpy or scipy.  The oracle and simulation names load numpy alone; scipy,
which comes with the `test` extra, is loaded only when a check reads
`JointChain.kernel`.
"""

import importlib

from .analytic import (
    AnalyticReport,
    expected_delay,
    expected_queue,
    expected_queue_constant_batch,
    report,
)
from .config import EXACT, FLOAT64, NumericConfig
from .errors import (
    NoConvergence,
    NonStochasticVector,
    NotErgodic,
    QueueModelError,
    TruncationBias,
    Unstable,
    ValidationError,
    ZeroArrivalRate,
)
from .model import (
    ModelSpec,
    MomentSummary,
    coerce,
    from_strings,
    moments,
    stationary_distribution,
    validate,
)
from .series import (
    QueueDistribution,
    pgf_eval,
    queue_distribution,
    queue_distribution_constant_batch,
)

__version__ = "0.1.0"

# Resolved on first access by __getattr__: name -> submodule.
_LAZY = {
    "JointChain": "oracle",
    "build_joint_chain": "oracle",
    "joint_stationary": "oracle",
    "oracle_expected_queue": "oracle",
    "queue_marginal": "oracle",
    "RunTally": "simulation",
    "SimulationConfig": "simulation",
    "SimulationReport": "simulation",
    "aggregate": "simulation",
    "simulate": "simulation",
    "simulate_run": "simulation",
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
