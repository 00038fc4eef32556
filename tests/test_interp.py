"""Tests for formula builders, interpretations, translation, and bundles."""

import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import random_poly
from hypothesis import given, settings
from hypothesis import strategies as st

from zinterp.algebra import Poly, poly_divrem
from zinterp.formula import (
    And,
    App,
    Atom,
    Const,
    Exists,
    Inst,
    LANG_D,
    LANG_STAR,
    LANG_T,
    Lang,
    Or,
    PolyStructure,
    TRUE,
    Var,
    _scan,
    bound_vars,
    check_sat,
    expand,
    free_vars,
    parse,
    print_formula,
)
from zinterp.harness import FAMILIES, family_formula
from zinterp.interp import (
    InstRecord,
    Interpretation,
    OpenFormula,
    add_graph,
    char_at_least,
    char_is,
    compose,
    conic_atom,
    dispatch,
    divides_graph,
    divisibility_in_star,
    equal_graph,
    formula_library,
    frob_divides_graph,
    frob_powers_of_t,
    ge_p_chain,
    ge_p_full,
    identity_interpretation,
    load_bundle,
    nonzero,
    nonzero_difference,
    one_pair,
    outside_units,
    pell_domain,
    pell_interpretation,
    positive_powers_of_t,
    save_bundle,
    sym_frob_divides,
    translate,
    translate_open,
    translate_with_trace,
    unequal_graph,
    unit_offset_atom,
    zero_pair,
)
from zinterp.pell import pell_pair


def t_minus_one(p):
    return Poly.gen(p) - Poly.one(p)


def quotient(pair, p):
    q, r = poly_divrem(pair.x - Poly.one(p), t_minus_one(p))
    assert r == Poly.zero(p)
    return q


class TestBuilders:
    def test_conic_atom_text(self):
        text = print_formula(conic_atom("x", "y"))
        assert text == "(= (+ (* x x) (* y y)) (+ 1 (* (* t t) (* y y))))"

    def test_shifted_conic_text(self):
        text = print_formula(conic_atom("u", "v", shifted=True))
        assert text == "(= (* u u) (+ 1 (* (+ (* t t) (+ t t)) (* v v))))"

    def test_unit_offset_text(self):
        assert print_formula(unit_offset_atom("x", Var("z"))) == \
            "(= (+ x z) (+ 1 (* t z)))"

    def test_pell_domain_shape(self):
        phi = pell_domain()
        assert isinstance(phi, Exists)
        assert phi.names == ("z",)
        assert len(phi.body.parts) == 2
        assert free_vars(phi) == {"x", "y"}

    def test_pell_domain_satisfied(self):
        p = 17
        pair = pell_pair(3, p)
        phi = Exists(("x", "y"), pell_domain())
        witness = {"x": pair.x, "y": pair.y, "z": quotient(pair, p)}
        assert check_sat(phi, witness, p)

    def test_pell_domain_rejects_non_solution(self):
        p = 17
        phi = Exists(("x", "y"), pell_domain())
        t = Poly.gen(p)
        witness = {"x": t, "y": t, "z": Poly.zero(p)}
        assert not check_sat(phi, witness, p)

    def test_zero_one_pairs(self):
        assert print_formula(zero_pair()) == "(and (= x 1) (= y 0))"
        assert print_formula(one_pair()) == "(and (= x t) (= y 1))"

    def test_add_graph_shape(self):
        phi = add_graph()
        assert free_vars(phi) == {"x", "y", "u", "v", "f", "g"}
        assert bound_vars(phi) == {"z1", "z2"}
        assert len(phi.parts) == 4
        sum_x = print_formula(phi.parts[2])
        assert sum_x == \
            "(= (+ f (* y v)) (+ (* x u) (* (* t t) (* y v))))"
        assert print_formula(phi.parts[3]) == "(= g (+ (* x v) (* y u)))"

    def test_add_graph_satisfied(self):
        p = 17
        a, b, c = pell_pair(2, p), pell_pair(3, p), pell_pair(5, p)
        phi = Exists(("x", "y", "u", "v", "f", "g"), add_graph())
        witness = {
            "x": a.x, "y": a.y, "u": b.x, "v": b.y, "f": c.x, "g": c.y,
            "z1": quotient(a, p), "z2": quotient(b, p),
        }
        assert check_sat(phi, witness, p)
        witness["f"] = pell_pair(6, p).x
        assert not check_sat(phi, witness, p)

    def test_divides_graph_shape(self):
        phi = divides_graph()
        assert isinstance(phi, Exists)
        assert phi.names == ("z",)
        assert print_formula(phi.body.parts[2]) == "(= v (* y z))"

    def test_divides_graph_satisfied(self):
        p = 5
        a, b = pell_pair(2, p), pell_pair(6, p)
        q, r = poly_divrem(b.y, a.y)
        assert r == Poly.zero(p)
        phi = Exists(("x", "y", "u", "v"), divides_graph())
        witness = {
            "x": a.x, "y": a.y, "u": b.x, "v": b.y,
            "z": q, "z1": quotient(a, p), "z2": quotient(b, p),
        }
        assert check_sat(phi, witness, p)

    def test_nonzero_text(self):
        text = print_formula(nonzero())
        assert text == (
            "(exists (a b c) (= (* (+ (* t a) 1) (+ (* t b) 1)) "
            "(+ (* x c) (* (+ (* t a) 1) b))))"
        )

    def test_nonzero_satisfied_for_t(self):
        p = 5
        phi = Exists(("x",), nonzero())
        witness = {
            "x": Poly.gen(p), "a": Poly.zero(p),
            "b": Poly.one(p), "c": Poly.one(p),
        }
        assert check_sat(phi, witness, p)

    def test_nonzero_fails_for_zero(self, rng):
        p = 5
        phi = Exists(("x",), nonzero())
        for _ in range(25):
            witness = {
                "x": Poly.zero(p),
                "a": random_poly(rng, p, 3),
                "b": random_poly(rng, p, 3),
                "c": random_poly(rng, p, 3),
            }
            assert not check_sat(phi, witness, p)

    def test_nonzero_difference_text(self):
        text = print_formula(nonzero_difference())
        assert text == (
            "(exists (a b c) (= (+ (* (+ (* t a) 1) (+ (* t b) 1)) (* u c)) "
            "(+ (* x c) (* (+ (* t a) 1) b))))"
        )

    def test_suffix_keeps_bound_names_apart(self):
        phi = unequal_graph()
        bound = bound_vars(phi)
        assert {"a1", "b1", "c1", "a2", "b2", "c2", "z1", "z2"} == bound

    def test_collision_guard(self):
        with pytest.raises(ValueError):
            OpenFormula(("x", "y"), pell_domain()).template(
                (Var("z"), Var("y")), "")
        with pytest.raises(ValueError):
            OpenFormula(("x",), nonzero()).template((Var("a"),), "")
        with pytest.raises(ValueError):
            OpenFormula(("x", "y"), ge_p_chain()).template(
                (Var("u3"), Var("y")), "")

    def test_ge_p_chain_shape(self):
        phi = ge_p_chain()
        assert isinstance(phi, Exists)
        assert phi.names == tuple(f"u{n}" for n in range(1, 18)) + ("z",)
        parts = phi.body.parts
        assert len(parts) == 18
        assert print_formula(parts[0]) == \
            "(= (+ u3 u1) (+ (+ 1 1) (+ u2 u2)))"
        assert print_formula(parts[15]) == "(= (* x y) u1)"
        assert print_formula(parts[16]) == "(= (+ (+ (+ x y) u1) 1) u2)"
        assert print_formula(parts[17]) == "(= x (* y z))"

    def test_ge_p_full_shape(self):
        phi = Exists(("u", "v"), ge_p_full())
        assert isinstance(phi, Exists)
        assert phi.names == ("u", "v")
        parts = phi.body.parts
        assert len(parts) == 4
        chain_b = parts[2]
        pin = chain_b.body.parts[15]
        assert print_formula(pin) == "(= (* (* u x) (* t y)) u1b)"
        chain_c = parts[3]
        assert print_formula(chain_c.body.parts[15]) == "(= (* x y) u1c)"
        assert free_vars(phi) == {"x", "y"}

    def test_frob_divides_graph_shape(self):
        phi = frob_divides_graph()
        assert free_vars(phi) == {"x", "y", "u", "v"}
        inner = phi.parts[2]
        assert inner.names == ("u0", "v0")

    def test_frob_powers_shape(self):
        phi = frob_powers_of_t()
        assert phi.names == ("y", "h", "u", "v", "g")
        parts = phi.body.parts
        assert print_formula(parts[3]) == "(= u (+ 1 (* t g)))"
        assert print_formula(parts[4]) == "(= u (+ f 1))"

    def test_positive_powers_shape(self):
        phi = positive_powers_of_t()
        assert phi.names == ("h",)
        parts = phi.body.parts
        assert parts[0].names == ("y0", "h0", "u0", "v0", "g0")
        assert print_formula(parts[1]) == "(exists (w1) (= h (* f w1)))"
        assert print_formula(parts[2]) == "(exists (w2) (= f (* t w2)))"
        assert print_formula(parts[3]) == \
            "(exists (w3) (= (+ f w3) (+ 1 (* t w3))))"

    def test_star_builders_text(self):
        assert print_formula(sym_frob_divides()) == \
            "(or (|* x y) (|* y x))"
        assert print_formula(outside_units()) == \
            "(and (!= (+ x 1) 0) (!= x 0) (!= x 1))"

    def test_char_is_text(self):
        assert print_formula(char_is(1)) == "(= 1 0)"
        assert print_formula(char_is(3)) == "(= (+ 1 (+ 1 1)) 0)"
        with pytest.raises(ValueError):
            char_is(0)

    def test_char_is_semantics(self):
        assert check_sat(char_is(5), {}, 5)
        assert not check_sat(char_is(5), {}, 7)

    def test_char_at_least_shape(self):
        phi = char_at_least(7)
        assert phi.names == ("z1", "z2", "z3")
        parts = phi.body.parts
        assert print_formula(parts[0]) == "(= (+ z1 z1) 1)"
        assert print_formula(parts[1]) == "(= (+ z2 (+ z2 z2)) 1)"
        with pytest.raises(ValueError):
            char_at_least(2)

    def test_char_at_least_semantics(self):
        p = 7
        phi = char_at_least(p)
        inv = {2: 4, 3: 5, 5: 3}
        witness = {
            "z1": Poly.monomial(inv[2], 0, p),
            "z2": Poly.monomial(inv[3], 0, p),
            "z3": Poly.monomial(inv[5], 0, p),
        }
        assert check_sat(phi, witness, p)
        bad = dict(witness)
        bad["z1"] = Poly.one(p)
        assert not check_sat(phi, bad, p)

    def test_library_roundtrips(self):
        lib = formula_library()
        in_t = ["domain", "zero", "one", "add", "divides", "frob_divides",
                "equal", "unequal", "nonzero", "ge_p_chain", "ge_p",
                "frob_powers_of_t", "positive_powers_of_t"]
        for name in in_t:
            phi = lib[name]()
            closed = Exists(tuple(sorted(free_vars(phi))), phi)
            text = print_formula(closed)
            assert print_formula(parse(text, LANG_T)) == text
        for name in ["sym_frob_divides", "outside_units"]:
            phi = lib[name]()
            closed = Exists(tuple(sorted(free_vars(phi))), phi)
            text = print_formula(closed)
            assert print_formula(parse(text, LANG_STAR)) == text
        text = print_formula(lib["char_is"](5))
        assert print_formula(parse(text, LANG_T)) == text
        text = print_formula(lib["char_at_least"](5))
        assert print_formula(parse(text, LANG_T)) == text


class TestOpenFormula:
    def test_duplicate_params(self):
        with pytest.raises(ValueError):
            OpenFormula(("x", "x"), Atom("=", (Var("x"), Const("0"))))

    def test_bound_reuse(self):
        body = And((nonzero(), nonzero()))
        with pytest.raises(ValueError):
            OpenFormula(("x",), body)

    def test_bound_shadowing_param(self):
        with pytest.raises(ValueError):
            OpenFormula(("x", "y", "z"), pell_domain())

    def test_free_outside_params(self):
        with pytest.raises(ValueError):
            OpenFormula(("x",), pell_domain())

    def test_instantiate_tags_bound_names(self):
        of = OpenFormula(("x", "y"), pell_domain())
        phi, bound = of.template((Var("a"), Var("b")), "#7")
        assert isinstance(phi, Exists)
        assert phi.names == bound == ("z#7",)
        assert free_vars(phi) == {"a", "b"}

    def test_instantiate_accepts_terms(self):
        of = OpenFormula(("x", "y"), conic_atom("x", "y"))
        phi, _ = of.template((App("*", (Var("a"), Var("a"))), Var("b")), "")
        assert free_vars(phi) == {"a", "b"}

    def test_instantiate_arity_mismatch(self):
        of = OpenFormula(("x", "y"), conic_atom("x", "y"))
        with pytest.raises(ValueError):
            of.template((Var("a"),), "")

    def test_template_refuses_a_wrong_argument_count(self):
        # Too few arguments would leave a parameter free in the instance.
        of = OpenFormula(("x", "y"), conic_atom("x", "y"))
        for args in ((Var("a"),), (Var("a"), Var("b"), Var("c"))):
            with pytest.raises(ValueError, match=(
                    f"expected 2 arguments, got {len(args)}")):
                of.template(args, "#1")

    def test_instantiate_refuses_captured_argument(self):
        of = OpenFormula(("x", "y"), pell_domain())
        with pytest.raises(ValueError, match="collide"):
            of.template((Var("z"), Var("b")), "")
        phi, bound = of.template((Var("z"), Var("b")), "#1")
        assert bound == ("z#1",) and free_vars(phi) == {"z", "b"}


class TestInterpretation:
    def test_pell_interpretation_shape(self):
        I = pell_interpretation()
        assert I.dim == 2
        assert set(I.symbols) == {"0", "1", "+", "=", "|", "|*", "!="}
        assert I.symbols["+"].arity == 6
        assert I.symbols["|*"].arity == 4
        assert I.domain.arity == 2

    def test_missing_symbol_rejected(self):
        I = pell_interpretation()
        symbols = dict(I.symbols)
        del symbols["+"]
        with pytest.raises(ValueError):
            Interpretation("broken", LANG_STAR, LANG_T, 2, I.domain, symbols)

    def test_stray_symbol_rejected(self):
        I = pell_interpretation()
        symbols = dict(I.symbols)
        symbols["extra"] = I.symbols["0"]
        with pytest.raises(ValueError):
            Interpretation("broken", LANG_STAR, LANG_T, 2, I.domain, symbols)

    def test_wrong_arity_rejected(self):
        I = pell_interpretation()
        symbols = dict(I.symbols)
        symbols["0"] = I.symbols["="]
        with pytest.raises(ValueError):
            Interpretation("broken", LANG_STAR, LANG_T, 2, I.domain, symbols)

    def test_target_language_enforced(self):
        I = pell_interpretation()
        symbols = dict(I.symbols)
        symbols["="] = OpenFormula(
            ("x", "y", "u", "v"),
            And(tuple(
                OpenFormula(("x", "y"), sym_frob_divides()).template(
                    (Var(a), Var(b)), "")[0]
                for a, b in (("x", "u"), ("y", "v")))),
        )
        with pytest.raises(ValueError):
            Interpretation("broken", LANG_STAR, LANG_T, 2, I.domain, symbols)

    def test_translate_deep_conjunction_built_in_code(self):
        # Formulas built in code are not held to the parser's depth limit;
        # translation spends one frame per and/or level, like the other
        # walks, so a 600-level chain translates.
        n = Var("n")
        phi = Atom("=", (n, n))
        for _ in range(600):
            phi = And((Atom("=", (n, n)), phi))
        out = translate(pell_interpretation(), Exists(("n",), phi))
        assert isinstance(out, Exists)

    def test_identity_interpretation(self):
        I = identity_interpretation(LANG_STAR)
        assert I.dim == 1
        assert I.domain.body == TRUE
        assert print_formula(I.symbols["+"].body) == "(= y (+ x1 x2))"
        assert print_formula(I.symbols["|"].body) == "(| x1 x2)"

    def test_divisibility_interpretation(self):
        I = divisibility_in_star()
        assert I.dim == 1
        assert I.source_lang == LANG_D
        assert I.target_lang == LANG_STAR
        assert print_formula(I.symbols["|_p"].body) == \
            "(or (|* x y) (|* y x))"
        assert I.symbols["T"].arity == 1


class TestTranslate:
    def test_zero_sentence_structure(self):
        I = pell_interpretation()
        phi = parse("(exists (n) (= n 0))", LANG_STAR)
        out, trace = translate_with_trace(I, phi)
        expected = Exists(
            ("n.1", "n.2"),
            And((
                Exists(
                    ("z#1",),
                    And((
                        conic_atom("n.1", "n.2"),
                        unit_offset_atom("n.1", Var("z#1")),
                    )),
                ),
                And((
                    Atom("=", (Var("n.1"), Const("1"))),
                    Atom("=", (Var("n.2"), Const("0"))),
                )),
            )),
        )
        assert expand(out) == expected
        assert trace.variables == (("n", "n"),)
        assert trace.constants == ()
        assert [r.kind for r in trace.instantiations] == ["domain", "0"]
        assert trace.instantiations[0] == InstRecord(
            "domain", ("n",), 1, ("z#1",)
        )

    def test_zero_sentence_satisfied(self):
        I = pell_interpretation()
        phi = parse("(exists (n) (= n 0))", LANG_STAR)
        out = translate(I, phi)
        p = 17
        witness = {
            "n.1": Poly.one(p), "n.2": Poly.zero(p), "z#1": Poly.zero(p),
        }
        assert check_sat(out, witness, p)
        bad = dict(witness)
        bad["n.1"] = Poly.gen(p)
        assert not check_sat(out, bad, p)

    def test_nested_sum_introduces_two_tuples(self):
        I = pell_interpretation()
        phi = parse("(exists (n) (= n (+ (+ 1 1) 1)))", LANG_STAR)
        out, trace = translate_with_trace(I, phi)
        assert [r.bases for r in trace.instantiations if r.kind == "+"] \
            == [("c1", "c1", "w1"), ("w1", "c1", "n")]
        assert trace.constants == (("1", "c1"),)
        assert free_vars(out) == set()

    def test_nested_sum_satisfied(self):
        I = pell_interpretation()
        phi = parse("(exists (n) (= n (+ (+ 1 1) 1)))", LANG_STAR)
        out = translate(I, phi)
        p = 17
        one, two, three = (pell_pair(k, p) for k in (1, 2, 3))
        q1, q2, q3 = (quotient(pr, p) for pr in (one, two, three))
        witness = {
            "c1.1": one.x, "c1.2": one.y, "z#5": q1,
            "n.1": three.x, "n.2": three.y, "z#1": q3,
            "w1.1": two.x, "w1.2": two.y, "z#2": q2,
            "z1#3": q1, "z2#3": q1,
            "z1#4": q2, "z2#4": q1,
        }
        assert bound_vars(out) == set(witness)
        assert check_sat(out, witness, p)

    def test_constant_tuple_shared(self):
        I = pell_interpretation()
        phi = parse("(exists (n) (= n (+ 1 1)))", LANG_STAR)
        out, trace = translate_with_trace(I, phi)
        assert trace.constants == (("1", "c1"),)
        assert [r.bases for r in trace.instantiations if r.kind == "+"] \
            == [("c1", "c1", "n")]
        one_insts = [r for r in trace.instantiations if r.kind == "1"]
        assert len(one_insts) == 1

    def test_relation_atom_general_path(self):
        I = pell_interpretation()
        phi = parse("(exists (n) (and (| 1 n) (!= n 0)))", LANG_STAR)
        out, trace = translate_with_trace(I, phi)
        kinds = [r.kind for r in trace.instantiations]
        assert kinds.count("|") == 1
        assert kinds.count("!=") == 1
        assert trace.constants == (("1", "c1"), ("0", "c0"))
        assert free_vars(out) == set()

    def test_shadowed_source_variable(self):
        I = pell_interpretation()
        phi = parse(
            "(exists (n) (and (exists (n) (= n 0)) (= n 1)))", LANG_STAR
        )
        out, trace = translate_with_trace(I, phi)
        assert trace.variables == (("n", "n"), ("n", "n'"))
        assert "n'.1" in bound_vars(out)
        assert free_vars(out) == set()

    def test_equality_of_variables_uses_relation(self):
        I = pell_interpretation()
        phi = parse("(exists (a b) (= a b))", LANG_STAR)
        out, trace = translate_with_trace(I, phi)
        kinds = [r.kind for r in trace.instantiations]
        assert kinds == ["domain", "domain", "="]
        assert trace.instantiations[2].bases == ("a", "b")

    def test_deterministic(self):
        I = pell_interpretation()
        phi = parse("(exists (n) (and (| 1 n) (!= n 0)))", LANG_STAR)
        first = print_formula(translate(I, phi))
        second = print_formula(translate(pell_interpretation(), phi))
        assert first == second

    def test_open_sentence_rejected(self):
        I = pell_interpretation()
        phi = parse("(exists (n) (= n m))", LANG_STAR)
        with pytest.raises(ValueError):
            translate(I, phi)

    def test_wrong_language_rejected(self):
        I = pell_interpretation()
        phi = parse("(exists (n) (T n))", LANG_D)
        with pytest.raises(ValueError):
            translate(I, phi)

    def test_reserved_marks_rejected(self):
        I = pell_interpretation()
        phi = Exists(("a.b",), Atom("=", (Var("a.b"), Const("0"))))
        with pytest.raises(ValueError):
            translate(I, phi)

    def test_output_is_positive_existential(self):
        I = pell_interpretation()
        phi = parse("(exists (n) (and (| 1 n) (!= n 0)))", LANG_STAR)
        out = translate(I, phi)
        text = print_formula(out)
        assert print_formula(parse(text, LANG_T)) == text


class TestCompose:
    def test_dimensions_multiply(self):
        comp = compose(divisibility_in_star(), pell_interpretation())
        assert comp.dim == 2
        assert comp.source_lang == LANG_D
        assert comp.target_lang == LANG_T
        assert comp.symbols["+"].arity == 6
        assert comp.symbols["T"].arity == 2
        assert comp.symbols["|_p"].arity == 4
        assert comp.domain.arity == 2

    def test_language_mismatch(self):
        with pytest.raises(ValueError):
            compose(pell_interpretation(), divisibility_in_star())

    def test_identity_is_neutral_behaviorally(self):
        comp = compose(pell_interpretation(), identity_interpretation(LANG_T))
        base = pell_interpretation()
        assert comp.dim == base.dim
        for sym, of in base.symbols.items():
            assert comp.symbols[sym].arity == of.arity
        phi = parse("(exists (n) (= n 0))", LANG_STAR)
        out = translate(comp, phi)
        assert free_vars(out) == set()
        text = print_formula(out)
        assert print_formula(parse(text, LANG_T)) == text

    def test_composed_sentence_satisfiable(self):
        comp = compose(identity_interpretation(LANG_STAR),
                       pell_interpretation())
        phi = parse("(exists (n) (= n 0))", LANG_STAR)
        out = translate(comp, phi)
        assert free_vars(out) == set()
        assert bound_vars(out) == {"n.1", "n.2", "z#1#1", "z#1#2"}
        p = 17
        witness = {
            "n.1": Poly.one(p), "n.2": Poly.zero(p),
            "z#1#1": Poly.zero(p), "z#1#2": Poly.zero(p),
        }
        assert check_sat(out, witness, p)

    def test_composed_formulas_stay_in_target(self):
        comp = compose(divisibility_in_star(), pell_interpretation())
        for sym, of in comp.symbols.items():
            text = print_formula(of.body)
            closed = Exists(tuple(of.params), of.body)
            round_trip = print_formula(parse(print_formula(closed), LANG_T))
            assert round_trip == print_formula(closed)


class TestDispatch:
    def _tiny_pair(self):
        tiny = Lang("tiny", ("0",), (), (("=", 2),))
        one_dim = Interpretation(
            "tiny-1", tiny, LANG_STAR, 1,
            OpenFormula(("x1",), TRUE),
            {
                "0": OpenFormula(("x1",), Atom("=", (Var("x1"), Const("0")))),
                "=": OpenFormula(
                    ("x1", "x2"), Atom("=", (Var("x1"), Var("x2")))
                ),
            },
        )
        two_dim = Interpretation(
            "tiny-2", tiny, LANG_STAR, 2,
            OpenFormula(
                ("a", "b"), Atom("=", (Var("b"), Const("0")))
            ),
            {
                "0": OpenFormula(
                    ("a", "b"),
                    And((
                        Atom("=", (Var("a"), Const("0"))),
                        Atom("=", (Var("b"), Const("0"))),
                    )),
                ),
                "=": OpenFormula(
                    ("a", "b", "c", "d"), Atom("=", (Var("a"), Var("c")))
                ),
            },
        )
        return one_dim, two_dim

    def test_single_true_branch_passthrough(self):
        I = pell_interpretation()
        assert dispatch([(TRUE, I)]) is I

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dispatch([])

    def test_two_branch_structure(self):
        d = dispatch([
            (char_is(5), pell_interpretation()),
            (char_is(17), pell_interpretation()),
        ])
        assert d.dim == 2
        of = d.symbols["0"]
        assert of.params == ("x1", "x2")
        assert isinstance(of.body, Or)
        assert len(of.body.parts) == 2
        for branch, guard in zip(of.body.parts, (char_is(5), char_is(17))):
            assert isinstance(branch, And)
            assert len(branch.parts) == 2
            assert branch.parts[0] == guard

    def test_branch_bound_names_disjoint(self):
        d = dispatch([
            (char_is(5), pell_interpretation()),
            (char_is(17), pell_interpretation()),
        ])
        of = d.symbols["+"]
        first, second = of.body.parts
        assert "z1!1" in bound_vars(first)
        assert "z1!2" in bound_vars(second)
        assert not (bound_vars(first) & bound_vars(second))

    def test_guard_bound_names_renamed(self):
        one_dim, _ = self._tiny_pair()
        d = dispatch([
            (char_at_least(5), one_dim),
            (char_is(3), one_dim),
        ])
        of = d.symbols["0"]
        guard = of.body.parts[0].parts[0]
        assert guard.names == ("z1!g1", "z2!g1")

    def test_padding_to_common_dimension(self):
        one_dim, two_dim = self._tiny_pair()
        d = dispatch([(char_is(2), one_dim), (char_is(3), two_dim)])
        assert d.dim == 2
        of = d.symbols["="]
        assert of.params == ("x1", "x2", "x3", "x4")
        narrow = of.body.parts[0].parts[1]
        assert isinstance(narrow, And)
        assert print_formula(narrow.parts[0]) == "(= x1 x3)"
        pads = {print_formula(f) for f in narrow.parts[1:]}
        assert pads == {"(= x2 x1)", "(= x4 x3)"}
        wide = of.body.parts[1].parts[1]
        assert print_formula(wide) == "(= x1 x3)"

    @pytest.mark.parametrize("wide", [False, True])
    def test_matches_reference(self, wide):
        """Guards and branch formulas renamed by the template equal the
        reference walk's, with pads when the branch dimensions differ."""
        if wide:
            one_dim, two_dim = self._tiny_pair()
            branches = [(char_at_least(5), one_dim), (char_is(3), two_dim)]
        else:
            branches = [(char_is(5), pell_interpretation()),
                        (char_at_least(7), pell_interpretation())]
        d = dispatch(branches)
        assert d.domain.body == ref_dispatch_body(branches, lambda i: i.domain)
        for sym, of in d.symbols.items():
            want = ref_dispatch_body(branches, lambda i: i.symbols[sym])
            assert of.body == want
            assert print_formula(of.body) == print_formula(want)

    def test_shared_language_required(self):
        with pytest.raises(ValueError):
            dispatch([
                (TRUE, pell_interpretation()),
                (TRUE, divisibility_in_star()),
            ])

    def test_open_guard_rejected(self):
        with pytest.raises(ValueError):
            dispatch([
                (Atom("=", (Var("x"), Const("0"))), pell_interpretation()),
            ])


class TestBundles:
    def test_roundtrip(self, tmp_path):
        I = pell_interpretation()
        save_bundle(I, tmp_path / "pell")
        J = load_bundle(tmp_path / "pell")
        assert J.name == I.name
        assert J.dim == I.dim
        assert J.source_lang == I.source_lang
        assert J.target_lang == I.target_lang
        assert J.domain.params == I.domain.params
        assert print_formula(J.domain.body) == print_formula(I.domain.body)
        assert set(J.symbols) == set(I.symbols)
        for sym in I.symbols:
            assert J.symbols[sym].params == I.symbols[sym].params
            assert print_formula(J.symbols[sym].body) == \
                print_formula(I.symbols[sym].body)

    def test_deterministic_bytes(self, tmp_path):
        a = save_bundle(pell_interpretation(), tmp_path / "a")
        b = save_bundle(pell_interpretation(), tmp_path / "b")
        for name in sorted(x.name for x in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_star_bundle_roundtrip(self, tmp_path):
        I = divisibility_in_star()
        save_bundle(I, tmp_path / "star")
        J = load_bundle(tmp_path / "star")
        assert print_formula(J.symbols["|_p"].body) == \
            print_formula(I.symbols["|_p"].body)
        assert J.domain.body == TRUE

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.pop("symbols"), "manifest has no key 'symbols'"),
        (lambda m: m.update(dim=True), "manifest.dim is bool, not int"),
        (lambda m: m["source_lang"]["functions"].append(["*"]),
         "manifest.source_lang.functions[1] has 1 items, not 2"),
        (lambda m: m["target_lang"].update(constants="01t"),
         "manifest.target_lang.constants is not a list"),
        (lambda m: m["domain"]["params"].append(3),
         "manifest.domain.params[2] is int, not str"),
        (lambda m: m["symbols"]["+"].pop("file"),
         "manifest.symbols.+ has no key 'file'"),
    ])
    def test_malformed_manifest_is_refused(self, tmp_path, edit, message):
        path = save_bundle(pell_interpretation(), tmp_path / "pell")
        manifest = json.loads((path / "manifest.json").read_text())
        edit(manifest)
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_bundle(path)


# sha256 of the parameters, the bound names in binder order and the printed
# body of every library formula, and of the translator's output for one open
# formula, a dispatch and two compositions (criterion 8's among them).
# Witness synthesis returns its values in binder order and the CLI prints
# these texts, so a change to either is a change of output and must rewrite
# this table on purpose.
LIBRARY_DIGESTS = {
    "family nu":
        "5060f93b1532329e7c733749fe2ce52ae9aa6a255c17ed99a56b2eee99a18726",
    "family beta":
        "e6a24734ceb5e2c40eb3165a692c36ba96dd965db948136efbc6d055d712f8ea",
    "family phi":
        "998071d2c4a0122f19ae7e23134dbf740c5c1f9c6ce944681a9ed614afcf74d1",
    "family psi":
        "b385fbb33ed1e46f87d977056858b409c3bcaa2eb50f55ff77a99abbe43bb713",
    "family theta":
        "5467a72e7796420a66b5e2f08fcc447ea0beab7a1acbfaffb00e1560a7b16f2c",
    "pell-pairs domain":
        "02c264e68db4105bba40d392d82c091ef65f7f08ad899f4608f72406fb3ce565",
    "pell-pairs 0":
        "2ffdd71a9e876d93ff4c1f9f37fc5864e1a19e2d8444e66242d5c57905a99d03",
    "pell-pairs 1":
        "85b1d4b947a95507245956de462f9774d5a86b8a909473b44b5ede184d67fa52",
    "pell-pairs +":
        "49ba3bd7914abd8d5a93d6df7c2b785128697a8947f65bcd8966de36235e0e81",
    "pell-pairs =":
        "80e91032e55a8f29a4161b2740b36b5ec543624a0b8f5e3dd44f43d1e6414526",
    "pell-pairs |":
        "9f02b9151219931d6e31f2585bc0c80b767cf6591bd93c7a6ba54e5b8c845e74",
    "pell-pairs |*":
        "1c02508b771821414cdd3ab3969ddd4b526a8d14909da1edc4bd816dfa964fd2",
    "pell-pairs !=":
        "84400b872ae1a7ce93d08b282420ef1cdd0275c65f359a4f11e24feec0ea2a21",
    "divisibility-to-star domain":
        "d929758b12152c5668ef9cda1ffa8851e2b2b9d7229733975d897efc5c72d1fc",
    "divisibility-to-star 0":
        "f6dce138a35fe02257541f392d489ccef7b2b3dc7bfaefb30d3b2e48c28dad06",
    "divisibility-to-star 1":
        "854d6b0b2ab25d758770794a8bfd82cdd5bf61c4b70f8a681944f934237259f2",
    "divisibility-to-star +":
        "75c92c9f644de917b014531a4efb3a587ac2b4016bf6985fc90ca10e494c37e6",
    "divisibility-to-star =":
        "0aa15b2a1f94cfc9d4de419c9247b4d899fabe75a1e37d327473e0fc0a44c41e",
    "divisibility-to-star |":
        "f8f2a94eaaa1d66da480f66cec2d0ac60c8df8ac70682fb5d128802fbbc19400",
    "divisibility-to-star |_p":
        "4611d7072621b503beb793898114d7258431d3dedb6e6ac9815a0d2549dacf3e",
    "divisibility-to-star T":
        "2fecaaf3e334301fa27baa25fd3023b361a2794e8bb94bd4099dd9c2de7c0d31",
    "translate_open m n":
        "08f0e1659046b006c3535ee4f24f6ab31a35e1a451e8b2fdbc969635087d8965",
    "dispatch(pell-pairs|pell-pairs) domain":
        "6310fa3a24cb4d857f7edf7b2a6c7a73343b0217d839974280582c7a761dc499",
    "dispatch(pell-pairs|pell-pairs) 0":
        "52fbcc4df5de1009bbd93caac588d3793fc205bcfbc6458c73a79338019d845b",
    "dispatch(pell-pairs|pell-pairs) 1":
        "ecb1f23edbfd3ad353c17a9bbf7c37a8f23221737c2a6594b90e7273d368a64a",
    "dispatch(pell-pairs|pell-pairs) +":
        "14b3a8f6cc943106447b926f3786c768e99562e0990921e9f602baac9cacd820",
    "dispatch(pell-pairs|pell-pairs) =":
        "05417eeda59cb3ef7361533e9a929719f488738b630989f21c5e0bf7a96e10fa",
    "dispatch(pell-pairs|pell-pairs) |":
        "6aca27524cc76545414f381400fb0e43c03e7fba7ae1e4f47dbd92e651305cf4",
    "dispatch(pell-pairs|pell-pairs) |*":
        "a53718242faece69722d64d1f5407e7c7f27f9a8dc7f63f2526635ce23273692",
    "dispatch(pell-pairs|pell-pairs) !=":
        "2cb702eb6e8570e865038d7226ceed5fd09036e15e084b0580a27b0f04a197a9",
    "compose(divisibility-to-star,pell-pairs) domain":
        "6a7ceb337922093eb5a9b116a9c8599116a31eb854f73a85fe76e075cb6e59b6",
    "compose(divisibility-to-star,pell-pairs) 0":
        "79385f013c6570da3803167af44aeaa1fd5d882ecd211fce9dc1f7c8f5e86b8b",
    "compose(divisibility-to-star,pell-pairs) 1":
        "93b33e390377bb82e5abcbbf41cbef9dde47a6b0af7644d6fd13c23db9ecf06d",
    "compose(divisibility-to-star,pell-pairs) +":
        "e2ecb5df6bb7a8805c6142ca894fd6a5c887c7b29010c39b140600768c5be095",
    "compose(divisibility-to-star,pell-pairs) =":
        "320649fb4aaa7c56aae3ab4f255996771e7e9ed17534a613cff0d45756698db4",
    "compose(divisibility-to-star,pell-pairs) |":
        "ed1136c1cbd563edbb2fe79d1ee877cf78b9459752f628f09181b05a6bc1772f",
    "compose(divisibility-to-star,pell-pairs) |_p":
        "b33fb5676d81b32a9cb9a7a30b25a459b52821cbac0a9a1ae758fcc949bf7c2c",
    "compose(divisibility-to-star,pell-pairs) T":
        "7a568e29419b0f88b40d7885f104530e847fb8597b83a7937ba4f11542ba5618",
    "compose(identity(star),pell-pairs) domain":
        "058b5b1a0119f3538fc8a9129423954e8125b04fbb3379109f8a78082706c40b",
    "compose(identity(star),pell-pairs) 0":
        "6e6898456e118775264e8cfe9895ff90b1b7b57505e1794f8bf861b0e1c8d5ab",
    "compose(identity(star),pell-pairs) 1":
        "9dc23073272ff5cfb1b6d6dde494aee1bbfcc0728b4eb05726a097c9185864f4",
    "compose(identity(star),pell-pairs) +":
        "5ad1a2b50bf1a458bda7e05491f3212d52eac20855ee820cf12e68880e676a2b",
    "compose(identity(star),pell-pairs) =":
        "1a35e76a8c62af14ef8c06226b4e7c2ecb5abc81750d5bdfa114639431074be4",
    "compose(identity(star),pell-pairs) |":
        "2b6d118dc56785234bd5acbbf7527a1c9ef26d09335b316795a1e79bd1da64a9",
    "compose(identity(star),pell-pairs) |*":
        "05263fbe278b0bf746dbdbff88fc613cbaefb602ae02a7cf06009df9ca9a53a0",
    "compose(identity(star),pell-pairs) !=":
        "f8b1c37d15ab6ce689f9961aaeac78fa594ab978647acdeba5e7f8ef6d6ab5da",
}


def test_library_formulas_keep_their_text_and_binder_order():
    got = {f"family {f}": family_formula(f).of for f in FAMILIES}
    got["translate_open m n"] = _open_translation()
    criterion_8 = compose(identity_interpretation(LANG_STAR),
                          pell_interpretation())
    for interp in _library_interpretations() + [criterion_8]:
        got[f"{interp.name} domain"] = interp.domain
        got.update((f"{interp.name} {s}", of)
                   for s, of in interp.symbols.items())
    digests = {
        name: hashlib.sha256("\n".join((
            " ".join(of.params), " ".join(of.bound), print_formula(of.body),
        )).encode()).hexdigest()
        for name, of in got.items()
    }
    assert digests == LIBRARY_DIGESTS


def test_library_builders_take_no_names():
    # Library formulas have fixed names; one enters another only through
    # OpenFormula.template.  The guards take a count, not a name.
    for name, builder in formula_library().items():
        if name not in ("char_is", "char_at_least"):
            assert not inspect.signature(builder).parameters, name


def test_translated_sum_agrees_with_pell_arithmetic():
    """The translated sentence for 1 + 1 = n is satisfied exactly by the
    index-2 conic pair in characteristic 17 and 19."""
    I = pell_interpretation()
    phi = parse("(exists (n) (= (+ 1 1) n))", LANG_STAR)
    out, trace = translate_with_trace(I, phi)
    assert [r.kind for r in trace.instantiations] == \
        ["domain", "+", "domain", "1"]
    for p in (17, 19):
        one, two = pell_pair(1, p), pell_pair(2, p)
        q1, q2 = quotient(one, p), quotient(two, p)
        witness = {
            "c1.1": one.x, "c1.2": one.y, "z#3": q1,
            "n.1": two.x, "n.2": two.y, "z#1": q2,
            "z1#2": q1, "z2#2": q1,
        }
        assert bound_vars(out) == set(witness)
        assert check_sat(out, witness, p)


# -- differential test: instantiation against the recursive original -------------

def ref_term_vars(term):
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, Const):
        return set()
    out = set()
    for a in term.args:
        out |= ref_term_vars(a)
    return out


def ref_subst_term(term, mapping):
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, Const):
        return term
    return App(term.fn, tuple(ref_subst_term(a, mapping) for a in term.args))


def ref_template(phi, bound, mark, mapping):
    """The per-leaf recursive rename-and-substitute walk, verbatim."""
    new = tuple(b + mark for b in bound)
    incoming = set()
    for a in mapping.values():
        incoming |= ref_term_vars(a)
    clash = incoming & set(new)
    if clash:
        raise ValueError(
            f"argument variables {sorted(clash)} collide with bound names; "
            "pass a different mark"
        )
    names = dict(zip(bound, new))
    sub = {old: Var(n) for old, n in names.items()}
    sub.update(mapping)

    def rename(f):
        if isinstance(f, Atom):
            return Atom(f.rel, tuple(ref_subst_term(a, sub) for a in f.args))
        if isinstance(f, (And, Or)):
            parts = tuple(rename(g) for g in f.parts)
            return And(parts) if isinstance(f, And) else Or(parts)
        return Exists(tuple(names.get(n, n) for n in f.names), rename(f.body))

    return rename(phi), new


def ref_dispatch_body(branches, pick):
    """dispatch's merged body for one symbol, renamed by the reference walk:
    guards get !g<idx>, branch formulas !<idx> with parameters x1..xN
    element-major and padded coordinates pinned to the first."""
    full_dim = max(interp.dim for _, interp in branches)
    alternatives = []
    for idx, (guard, interp) in enumerate(branches, start=1):
        guard = ref_template(guard, tuple(_scan(guard)[1]), f"!g{idx}",
                                 {})[0]
        of, dim = pick(interp), interp.dim
        mapping = {}
        pads = []
        for e in range(len(of.params) // dim):
            for c in range(full_dim):
                coord = Var(f"x{e * full_dim + c + 1}")
                if c < dim:
                    mapping[of.params[e * dim + c]] = coord
                else:
                    pads.append(Atom("=", (coord, Var(f"x{e * full_dim + 1}"))))
        body = ref_template(of.body, of.bound, f"!{idx}", mapping)[0]
        if pads:
            body = And((body,) + tuple(pads))
        alternatives.append(And((guard, body)))
    return Or(tuple(alternatives))


def _library_interpretations():
    """The built-in interpretations, a two-branch dispatch of one and the
    composition of both."""
    return [
        pell_interpretation(),
        divisibility_in_star(),
        dispatch([(char_is(5), pell_interpretation()),
                  (char_at_least(7), pell_interpretation())]),
        compose(divisibility_in_star(), pell_interpretation()),
    ]


def _open_translation():
    return translate_open(pell_interpretation(), OpenFormula(("m", "n"), parse(
        "(exists (k) (and (= (+ m k) n) (!= k 0)))", LANG_STAR)))


def _library_open_formulas():
    out = [_open_translation()]
    for interp in _library_interpretations():
        out.append(interp.domain)
        out.extend(interp.symbols[s] for s in sorted(interp.symbols))
    return out


LIBRARY = _library_open_formulas()

_ARG_NAMES = ("a", "b", "w1.1", "z#1", "z1#1", "u#2", "x", "k.1#1")


def _arg_terms(depth):
    leaf = st.one_of(
        st.sampled_from(_ARG_NAMES).map(Var),
        st.sampled_from(("0", "1", "t")).map(Const),
    )
    if depth == 0:
        return leaf
    sub = _arg_terms(depth - 1)
    return st.one_of(
        leaf, st.builds(App, st.sampled_from(("+", "*")), st.tuples(sub, sub))
    )


@st.composite
def _instantiations(draw):
    of = draw(st.sampled_from(LIBRARY))
    args = draw(st.lists(_arg_terms(2), min_size=len(of.params),
                         max_size=len(of.params)))
    mark = draw(st.sampled_from(("", "#1", "#2", "!1", "#1#2")))
    return of, tuple(args), mark


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_instantiations())
def test_template_matches_reference(case):
    """The compiled template against the reference walk, refusals included."""
    of, args, mark = case
    mapping = dict(zip(of.params, args))
    got = _outcome(lambda: of.template(args, mark))
    want = _outcome(lambda: ref_template(of.body, of.bound, mark, mapping))
    assert got == want
    if isinstance(want, tuple):
        assert print_formula(got[0]) == print_formula(want[0])
        assert bound_vars(got[0]) == set(got[1])


def test_template_covers_every_library_formula():
    for idx, of in enumerate(LIBRARY):
        args = tuple(Var(f"v{i}") for i in range(len(of.params)))
        mapping = dict(zip(of.params, args))
        mark = f"#{idx}"
        got = of.template(args, mark)
        assert got == ref_template(of.body, of.bound, mark, mapping)
        assert of.template(args, f"#{idx}") == got
        assert free_vars(got[0]) <= {a.name for a in args}


def test_template_refusal_text_matches_reference():
    of = OpenFormula(("x", "y"), pell_domain())
    args = (App("+", (Var("z"), Const("1"))), Var("b"))
    want = _outcome(lambda: ref_template(
        of.body, of.bound, "", dict(zip(of.params, args))))
    assert want.startswith("argument variables ['z'] collide")
    assert _outcome(lambda: of.template(args, "")) == want
    assert _outcome(lambda: of.template(args, "")) == want


# -- injection: names reach the generated source only as string literals ---------

def _odd_interpretation():
    """The pair interpretation with a quote, a backslash, ! and # in every
    parameter and bound name, and a bound-name tail that would end a
    string literal written without repr."""
    I = pell_interpretation()

    def odd(of):
        params = tuple(p + "'\\" for p in of.params)
        mapping = {p: Var(q) for p, q in zip(of.params, params)}
        body = ref_template(of.body, of.bound, "'\\!#'+m+'", mapping)[0]
        return OpenFormula(params, body)

    return Interpretation(
        "odd-names", I.source_lang, I.target_lang, I.dim, odd(I.domain),
        {sym: odd(of) for sym, of in I.symbols.items()},
    )


def test_template_quotes_every_name(tmp_path):
    J = load_bundle(save_bundle(_odd_interpretation(), tmp_path / "odd"))
    for of in [J.domain, *J.symbols.values()]:
        assert all("'" in n and "\\" in n and "!#" in n for n in of.bound)
        args = tuple(Var(f"a'{i}\\") for i in range(len(of.params)))
        got = of.template(args, "#'+m+'\\")
        want = ref_template(of.body, of.bound, "#'+m+'\\",
                                dict(zip(of.params, args)))
        assert got == want
        assert print_formula(got[0]) == print_formula(want[0])


class _Holds(PolyStructure):
    """F_5[t] where every atom holds, so an evaluation reads every name."""

    def __init__(self):
        super().__init__(5)

    def relation(self, name, args):
        return True


def test_evaluator_quotes_every_name(tmp_path):
    J = load_bundle(save_bundle(_odd_interpretation(), tmp_path / "odd"))
    for of in [J.domain, *J.symbols.values()]:
        names = tuple(f"a'{i}\\" for i in range(len(of.params)))
        mark = "'+m+'\\"
        inst = Inst(of, names, mark)
        renamed = names + tuple(b + mark for b in of.bound)
        env = {n: Poly((i, 1), 5) for i, n in enumerate(renamed)}
        for ring in (PolyStructure(5), _Holds()):
            assert check_sat(Exists(renamed, inst), env, 5, ring) \
                == check_sat(Exists(renamed, expand(inst)), env, 5, ring)
        assert check_sat(Exists(renamed, inst), env, 5, _Holds())
        assert inst.bound == renamed[len(names):]
        del env[names[-1]]
        message = f"unassigned variable {re.escape(repr(names[-1]))}$"
        with pytest.raises(ValueError, match=message):
            of.evaluate(env, names, inst.bound, _Holds(), {})


# -- memory: compiling the evaluators adds no peak ---------------------------------

_EVALUATOR_PEAK = """
import resource
from zinterp.harness import FAMILIES, family_formula
from zinterp.interp import pell_interpretation

def peak_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

interp = pell_interpretation()
library = [interp.domain, *interp.symbols.values(),
           *(family_formula(family).of for family in FAMILIES)]
before = peak_kb()
for of in library:
    of.evaluate
print(peak_kb() - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KB")
def test_evaluators_compile_without_a_memory_peak():
    """Every library evaluator, the pair interpretation's and the synthesis
    families', compiled in a fresh process raises its peak RSS by under
    1 MB beyond building the library.  Each group of atoms is
    compiled on its own; |*'s 59 atoms compiled as one function make the
    compiler peak at 5.1 MB under tracemalloc."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = subprocess.run(
        [sys.executable, "-c", _EVALUATOR_PEAK], capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert probe.returncode == 0, probe.stderr
    assert int(probe.stdout) < 1024


# -- translation of formulas nested near the recursion limit -----------------

_TRANSLATE_NEAR_LIMIT = """
import sys
from zinterp.formula import And, Atom, Const, Exists, Var
from zinterp.interp import pell_interpretation, translate

interp = pell_interpretation()
for depth in map(int, sys.argv[1:]):
    phi = Atom("=", (Var("x"), Const("1")))
    for _ in range(depth):
        phi = And((phi,))
    try:
        translate(interp, Exists(("x",), phi))
        print(depth, "translated")
    except ValueError as exc:
        print(depth, "refused" if "nested too deeply" in str(exc) else exc)
    except RecursionError:
        print(depth, "RecursionError")
"""


def test_translate_near_the_recursion_limit_ends_in_value_error():
    """An and-chain under one exists that passes the closedness scan but is
    too deep for the translator's own walk is refused like the scan's
    overflow.  Run from a plain script, so the depths are those of a
    caller at the top of the stack: 990 once overflowed the translator."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = subprocess.run(
        [sys.executable, "-c", _TRANSLATE_NEAR_LIMIT, "985", "990", "995"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert probe.returncode == 0, probe.stderr
    outcome = dict(line.split(" ", 1) for line in probe.stdout.splitlines())
    assert outcome["985"] == "translated"
    assert outcome["990"] in ("translated", "refused")
    assert outcome["995"] == "refused"
