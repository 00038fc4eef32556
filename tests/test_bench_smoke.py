"""Smoke test of the benchmark contract: bench/run.py at --quick scale.

Each workload runs once untraced and once traced.  The run must exit 0,
end with a correct result line with no failed jobs, and print every metric
BENCHMARK.json declares for that mode.  This catches a refactor that drops
or renames a function the benchmark calls or the tracer wraps.
"""

import importlib.util
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


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sizes_instances_through_their_body():
    # The tracer counts the atoms of each translated sentence by walking
    # into the body of every node that has no parts; an Inst's body must
    # be its expansion, so the count is the expanded sentence's.
    from zinterp.formula import (
        LANG_STAR, Atom, Inst, Var, _scan, expand, parse, walk)
    from zinterp.interp import pell_interpretation, translate_with_trace

    spans = _load_spans()
    phi = parse("(exists (a b c) (and (= (+ a b) c) (| a c) (!= a b)"
                " (|* a (+ 1 1))))", LANG_STAR)
    out, trace = translate_with_trace(pell_interpretation(), phi)
    records = {rec.tag: rec for rec in trace.instantiations}
    stack, insts = [out], []
    while stack:
        node = stack.pop()
        if isinstance(node, Inst):
            insts.append(node)
        else:
            stack.extend(getattr(node, "parts", None) or
                         ([node.body] if hasattr(node, "body") else []))
    assert sorted(int(node.mark[1:]) for node in insts) == sorted(records)
    for node in insts:
        rec = records[int(node.mark[1:])]
        args = tuple(Var(n) for n in node.names)
        assert node.body == node.of.template(args, f"#{rec.tag}")[0]
        assert tuple(_scan(node.body)[1]) == rec.bound
    plain = expand(out)
    assert spans._count_atoms(out, Atom) == \
        sum(isinstance(node, Atom) for node in walk(plain)) > len(insts)
