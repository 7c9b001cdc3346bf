"""Exact and simulated analysis of a discrete-time on/off Markov-modulated
batch-arrival single-server queue."""

from .analytic import (
    AnalyticReport,
    expected_delay,
    expected_queue,
    expected_queue_constant_batch,
    report,
)
from .config import EXACT, FLOAT64, NumericConfig
from .errors import (
    CapTooSmall,
    NoConvergence,
    NonStochasticVector,
    NotErgodic,
    PoleNear,
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
    transition_matrix,
    validate,
)
from .oracle import (
    JointChain,
    build_joint_chain,
    joint_stationary,
    oracle_expected_queue,
    queue_marginal,
    state_marginal,
)
from .series import (
    QueueDistribution,
    g_coefficients,
    pgf_eval,
    queue_distribution,
    queue_distribution_constant_batch,
    series_coefficients,
)
from .simulation import (
    RunTally,
    SimulationConfig,
    SimulationReport,
    aggregate,
    simulate,
    simulate_run,
)

__version__ = "0.1.0"
