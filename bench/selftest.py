"""Self-test of the benchmark harness at tiny sizes (under three minutes).

    python3 bench/selftest.py

For every workload, with tracing off and on, it asserts that the last line
of output has exactly the keys correct, attempted, failed and metrics,
that every metric named in BENCHMARK.json appears with its unit, that no
check failed and that every check the workload defines ran.  It then
asserts that the launcher fails, without printing a result, in a copy
holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(BENCH))

from workloads import EXPECTED_CHECKS  # noqa: E402


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in EXPECTED_CHECKS:
        for trace in (0, 1):
            proc = run(REPO, workload, trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
            assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, last
            units = {name: m["unit"] for name, m in last["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in wanted[trace]}, (workload, trace, units)
            for name, metric in last["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (name, metric)
            record = json.loads((BENCH / "out" / f"{workload}-seed7-trace{trace}.json").read_text())
            missing = EXPECTED_CHECKS[workload] - set(record["checks"]["ran"])
            assert not missing, (workload, trace, missing)
            print(f"ok {workload} trace={trace}: {len(units)} metrics, "
                  f"{last['attempted']} checks of {len(record['checks']['ran'])} kinds")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(REPO / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(Path(tmp), "sweep", 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
        print("ok: fails without the package, printing no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
