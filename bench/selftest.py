"""Quick-scale self-test of the benchmark.

    python3 bench/selftest.py

Run from the root of a checkout.  For every workload in BENCHMARK.json it
runs run.py at --quick scale and checks that:

- the last line is the result object, correct, with every end-to-end
  metric (--trace 0) or every per-layer metric (--trace 1) printed by
  name with the unit BENCHMARK.json gives it;
- two traced runs of one seed print identical counts.

It then gives the e2e workload one deliberately wrong expected verdict and
checks that the run reports a failure, so the correctness gate can fail.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_quick(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--quick"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit "
                             f"{proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, spec: list, what: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{what}: run not correct: {result}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(
            f"{what}: metrics differ from BENCHMARK.json; missing "
            f"{sorted(set(want) - set(got))}, extra "
            f"{sorted(set(got) - set(want))}, units "
            f"{sorted(n for n in want if n in got and got[n] != want[n])}"
        )


def counts(result: dict) -> dict:
    return {n: m["value"] for n, m in result["metrics"].items()
            if m["unit"] == "count"}


def wrong_verdict_fails() -> None:
    """Flip the expected truth of the first e2e sentence and run."""
    sys.path.insert(0, str(HERE))
    import run
    import sentences

    real = sentences.holds
    flipped = []

    def wrong(node, env, p):
        value = real(node, env, p)
        if node[0] == "exists" and not flipped:
            flipped.append(node)
            return not value
        return value

    sentences.holds = wrong
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            run.main(["--workload", "e2e", "--seed", "1", "--seconds", "0",
                      "--trace", "0", "--quick"])
    finally:
        sentences.holds = real
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    if result["correct"] or result["failed"] < 1:
        raise AssertionError(f"a wrong expected verdict passed: {result}")
    if "# fail_ratio 0 " in out.getvalue():
        raise AssertionError("fail_ratio stayed 0 with a wrong verdict")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        check_result(run_quick(name, 0), spec["end_to_end"], f"{name} e2e")
        first = run_quick(name, 1)
        check_result(first, spec["per_layer"], f"{name} per-layer")
        if counts(run_quick(name, 1)) != counts(first):
            raise AssertionError(f"{name}: counts differ between two "
                                 "traced runs of one seed")
        print(f"selftest {name}: ok", flush=True)
    wrong_verdict_fails()
    print("selftest wrong verdict: fails as it should")
    return 0


if __name__ == "__main__":
    sys.exit(main())
