"""Import layout: the series commands never load numpy or scipy, the
simulation commands never load scipy."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

import onoffqueue
from conftest import MODELS_DIR, REPO_ROOT

LAZY = {
    "oracle": ("JointChain", "build_joint_chain", "joint_stationary",
               "oracle_expected_queue", "queue_marginal"),
    "simulation": ("RunTally", "SimulationConfig", "SimulationReport", "aggregate",
                   "simulate", "simulate_run"),
}

# Every public name the package binds on import; the lazy ones are LAZY above.
EAGER = {
    "AnalyticReport", "expected_delay", "expected_queue", "expected_queue_constant_batch",
    "report",
    "EXACT", "FLOAT64", "NumericConfig",
    "CapTooSmall", "NoConvergence", "NonStochasticVector", "NotErgodic", "QueueModelError",
    "TruncationBias", "Unstable", "ValidationError", "ZeroArrivalRate",
    "ModelSpec", "MomentSummary", "coerce", "from_strings", "moments",
    "stationary_distribution", "validate",
    "QueueDistribution", "pgf_eval", "queue_distribution", "queue_distribution_constant_batch",
}

SERIES_COMMANDS = """
import contextlib, io, sys
import onoffqueue
from onoffqueue import cli
model = sys.argv[1]
for argv in (["validate", model], ["analyze", model], ["dist", model],
             ["dist", model, "--backend", "exact"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))))
"""


def test_series_commands_load_no_numpy_or_scipy():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", SERIES_COMMANDS, str(MODELS_DIR / "table1.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


SIMULATION_COMMANDS = """
import contextlib, io, sys
from onoffqueue import cli
model = sys.argv[1]
for command in ("simulate", "compare"):
    argv = [command, model, "--iterations", "70000", "--runs", "2"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_simulation_commands_load_no_scipy():
    # the simulator computes its own t quantile; scipy.special alone lifts
    # a simulation's peak memory by about 17 MB, scipy.sparse by more
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", SIMULATION_COMMANDS, str(MODELS_DIR / "table1.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in LAZY.items() for name in names]
)
def test_lazy_name_is_the_submodule_object(module, name):
    home = importlib.import_module(f"onoffqueue.{module}")
    assert getattr(onoffqueue, name) is getattr(home, name)


def test_unknown_name_raises():
    with pytest.raises(ImportError):
        from onoffqueue import no_such_name  # noqa: F401
    with pytest.raises(AttributeError):
        onoffqueue.no_such_name


def test_public_surface_is_pinned():
    # submodules become attributes once imported, so they are not counted
    eager = {name for name, value in vars(onoffqueue).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert eager == EAGER
    assert set(onoffqueue._LAZY) == {name for names in LAZY.values() for name in names}
