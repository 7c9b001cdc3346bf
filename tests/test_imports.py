"""Import layout: the series commands never load numpy or scipy, the
simulation commands and the oracle never load scipy."""

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
    "NoConvergence", "NonStochasticVector", "NotErgodic", "QueueModelError",
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
for backend in ("float64", "exact"):
    spec = onoffqueue.from_strings(["0.8", "0.1", "0.05", "0.05"], ["0.4", "0.4", "0.2"], backend)
    assert 0 < onoffqueue.pgf_eval(spec, 0.5) < 1, backend
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


ORACLE_WITHOUT_SCIPY = """
import contextlib, io, sys
sys.modules["scipy"] = None  # any import of scipy raises ImportError
from onoffqueue import (JointChain, build_joint_chain, cli, from_strings, joint_stationary,
                        oracle_expected_queue, queue_marginal)
model = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["oracle", model, "--qcap", "200"]) == 0
chain = build_joint_chain(from_strings(["0.8", "0.2"], ["0", "0", "1"]), 50)
assert isinstance(chain, JointChain)
pi = joint_stationary(chain)
mean = oracle_expected_queue(queue_marginal(chain, pi))
try:
    chain.kernel
except ImportError:
    print("kernel: ImportError")
print(chain.num_states, chain.kernel_nnz, round(float(pi.sum()), 12), round(mean, 12))
"""


def test_oracle_runs_without_scipy():
    # importing scipy.linalg and scipy.sparse added ~29 MB to an oracle run's peak;
    # scipy comes with the test extra, and only JointChain.kernel reads it
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", ORACLE_WITHOUT_SCIPY, str(MODELS_DIR / "table2.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["kernel: ImportError", "102 153 1.0 0.666666666667"]


def test_import_builds_no_division_kernel():
    # float division kernels are compiled on first use, into a bounded cache
    code = ("import onoffqueue, sys; info = sys.modules['onoffqueue.series']"
            "._division_kernel.cache_info(); print(info.currsize, info.maxsize)")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    size, maxsize = done.stdout.split()
    assert size == "0"
    assert maxsize.isdigit()


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
