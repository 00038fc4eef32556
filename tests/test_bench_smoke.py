"""Smoke test of the benchmark contract: bench/run.py at --quick scale.

Each workload runs once untraced and once traced.  The run must exit 0,
end with a correct result line with no failed jobs, and print every metric
BENCHMARK.json declares for that mode.  This catches a refactor that drops
or renames a function the benchmark calls or the tracer wraps.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--quick", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in proc.stdout]
    assert not missing
