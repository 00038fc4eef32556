"""Span tracing around the calls between zinterp's layers, from outside.

A Tracer replaces, for the length of a `with` block, the module attributes
and class methods through which the layers call each other (for example
`zinterp.harness.check_sat`, `zinterp.buchi.square_root_poly` and
`Poly.__mul__`) with wrappers that record one span per call: layer name,
start, end, parent span and job id.  The program's source is not touched:
a function is replaced in every zinterp module that holds it, so calls
made through `from .x import f` bindings are caught as well.

Spans live in flat arrays while the pass runs and are summarised and
written out after it ends.  A layer's self time is the sum of
its spans' durations minus the time their direct child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# Multiply buckets, by combined operand length.
MUL_SMALL = 16
MUL_LARGE = 256

# (layer name, module, attribute) of every function wrapped with a span.
SPAN_FUNCTIONS = (
    ("algebra.divrem", "zinterp.algebra", "poly_divrem"),
    ("algebra.compose", "zinterp.algebra", "poly_compose"),
    ("pell.pair", "zinterp.pell", "pell_pair"),
    ("pell.oracle", "zinterp.pell", "pell_enumerate_oracle"),
    ("buchi.sqrt", "zinterp.buchi", "square_root_poly"),
    ("buchi.kth_root", "zinterp.buchi", "poly_kth_root"),
    ("buchi.oracle", "zinterp.buchi", "buchi_search_oracle"),
    ("formula.parse", "zinterp.formula", "parse"),
    ("formula.check_sat", "zinterp.formula", "check_sat"),
    ("interp.translate", "zinterp.interp", "translate_with_trace"),
    ("harness.e2e", "zinterp.harness", "e2e_verify"),
    ("harness.synth", "zinterp.harness", "synth_frob_power"),
    ("harness.synth", "zinterp.harness", "synth_positive_power"),
    ("harness.synth", "zinterp.harness", "synth_ge_p"),
    ("harness.synth", "zinterp.harness", "synth_pair"),
    ("harness.synth", "zinterp.harness", "synth_nonzero"),
    ("harness.check_witness", "zinterp.harness", "check_witness"),
)

MUL_SPANS = ("algebra.mul.small", "algebra.mul.mid", "algebra.mul.large")

# Layers whose spans are summarised as calls and self time.
SPAN_LAYERS = (
    "algebra.divrem", "algebra.compose", "pell.pair", "buchi.sqrt",
    "buchi.kth_root", "formula.parse", "formula.check_sat",
    "interp.translate", "harness.synth",
)


def _count_atoms(phi, atom_type) -> int:
    """Atoms of a formula tree, without recursion (outputs nest deeply)."""
    count = 0
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, atom_type):
            count += 1
        elif hasattr(node, "parts"):
            stack.extend(node.parts)
        else:
            stack.append(node.body)
    return count


class Tracer:
    """Records spans and counts while active (`with tracer:`)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.layer = array("B")
        self.jobs = array("i")
        self.job = -1
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._poly_new = [0]
        self._relation = [0]
        self._outputs: list = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, fn, name: str, after=None):
        nid = self._id(name)
        start, end, parent = self.start, self.end, self.parent
        layer, jobs, stack = self.layer, self.jobs, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            layer.append(nid)
            jobs.append(self.job)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _mul(self, fn, poly_type):
        ids = [self._id(n) for n in MUL_SPANS]
        start, end, parent = self.start, self.end, self.parent
        layer, jobs, stack = self.layer, self.jobs, self._stack
        clock = time.perf_counter

        def mul(a, b):
            n = len(a.coeffs) + (len(b.coeffs) if type(b) is poly_type else 1)
            i = len(start)
            parent.append(stack[-1])
            layer.append(ids[0] if n < MUL_SMALL
                         else ids[1] if n < MUL_LARGE else ids[2])
            jobs.append(self.job)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(a, b)
            finally:
                end[i] = clock()
                stack.pop()

        return mul

    @staticmethod
    def _counted(fn, cell):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- after-call counters ----------------------------------------------

    def _after_sqrt(self, args, result):
        self.counts["buchi.sqrt.found"] += result is not None

    def _after_pell_oracle(self, args, result):
        p, max_y_degree = args[0], args[1]
        cases = p ** (max_y_degree + 1)
        if p == 2:
            cases *= p ** (max_y_degree + 2)
        self.counts["pell.oracle.candidates"] += cases

    def _after_buchi_oracle(self, args, result):
        self.counts["buchi.oracle.seeds"] += result.seeds_scanned

    def _after_translate(self, args, result):
        # Sized after the pass, so the walk stays out of the timings.
        self._outputs.append(result[0])

    def _after_e2e(self, args, result):
        self.counts["harness.clauses"] += len(result.clauses)
        self.counts["harness.clauses_false"] += sum(
            not c.ok for c in result.clauses
        )

    # -- installing --------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mname, module in list(sys.modules.items()):
            if mname != "zinterp" and not mname.startswith("zinterp."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _replace_method(self, cls, attr, replacement) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def __enter__(self):
        from zinterp.algebra import Poly
        from zinterp.formula import PolyStructure

        after = {
            "buchi.sqrt": self._after_sqrt,
            "pell.oracle": self._after_pell_oracle,
            "buchi.oracle": self._after_buchi_oracle,
            "interp.translate": self._after_translate,
            "harness.e2e": self._after_e2e,
        }
        for name, mname, attr in SPAN_FUNCTIONS:
            original = getattr(sys.modules[mname], attr)
            self._replace_everywhere(
                original, self._spanned(original, name, after.get(name))
            )
        mul = self._mul(Poly.__dict__["__mul__"], Poly)
        self._replace_method(Poly, "__mul__", mul)
        self._replace_method(Poly, "__rmul__", mul)
        self._replace_method(
            Poly, "__init__",
            self._counted(Poly.__dict__["__init__"], self._poly_new),
        )
        self._replace_method(
            PolyStructure, "relation",
            self._counted(PolyStructure.__dict__["relation"], self._relation),
        )
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- summarising -------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Calls, self seconds and counts per layer, as metric name -> value."""
        n = len(self.start)
        duration = array("d", map(float.__sub__, self.end, self.start))
        covered = array("d", bytes(8 * n))
        for i, up in enumerate(self.parent):
            if up >= 0:
                covered[up] += duration[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, nid in enumerate(self.layer):
            calls[nid] += 1
            own[nid] += duration[i] - covered[i]
        calls = Counter(dict(zip(self.names, calls)))
        self_s = Counter(dict(zip(self.names, own)))

        from zinterp.formula import bound_vars, print_formula

        out = {}
        for bucket, span in zip(("small", "mid", "large"), MUL_SPANS):
            out[f"algebra.mul.calls.{bucket}"] = calls[span]
            out[f"algebra.mul.self_s.{bucket}"] = self_s[span]
        out["algebra.poly_new.calls"] = self._poly_new[0]
        for name in SPAN_LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["formula.relation.calls"] = self._relation[0]
        out["buchi.sqrt.found"] = self.counts["buchi.sqrt.found"]
        out["pell.oracle.self_s"] = self_s["pell.oracle"]
        out["pell.oracle.candidates"] = self.counts["pell.oracle.candidates"]
        out["buchi.oracle.self_s"] = self_s["buchi.oracle"]
        out["buchi.oracle.seeds"] = self.counts["buchi.oracle.seeds"]
        out["interp.out_atoms"] = sum(self.output_atoms())
        out["interp.out_bound"] = sum(
            len(bound_vars(phi)) for phi in self._outputs
        )
        out["interp.out_chars"] = sum(
            len(print_formula(phi)) for phi in self._outputs
        )
        out["harness.e2e.self_s"] = self_s["harness.e2e"]
        out["harness.clauses"] = self.counts["harness.clauses"]
        out["harness.clauses_false"] = self.counts["harness.clauses_false"]
        out["harness.check_witness.self_s"] = self_s["harness.check_witness"]
        return out

    def output_atoms(self) -> list[int]:
        from zinterp.formula import Atom

        return [_count_atoms(phi, Atom) for phi in self._outputs]

    def write(self, path: Path) -> None:
        """One JSON header line, then the span arrays' raw bytes in the
        order the header lists them."""
        fields = [
            ("start", self.start), ("end", self.end),
            ("parent", self.parent), ("layer", self.layer),
            ("job", self.jobs),
        ]
        header = {
            "spans": len(self.start),
            "names": self.names,
            "fields": [[f, a.typecode, a.itemsize] for f, a in fields],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in fields:
                a.tofile(fh)
