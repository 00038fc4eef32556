"""Tests for formula syntax, parsing, printing, evaluation, and utilities."""

import typing

import pytest

from zinterp.algebra import Poly, parse_poly, poly_divides, poly_divrem
from zinterp.formula import (
    TRUE,
    And,
    App,
    Atom,
    Const,
    Exists,
    IntStructure,
    LANG_D,
    LANG_RING,
    LANG_STAR,
    LANG_T,
    LANG_T_SEM,
    MAX_PARSE_DEPTH,
    Formula,
    Lang,
    Or,
    PolyStructure,
    Var,
    bound_vars,
    check_sat,
    conjoin,
    disjoin,
    eval_qf,
    free_vars,
    parse,
    print_formula,
    print_term,
    substitute,
    walk,
)
from zinterp.pell import pell_pair


# -- parsing -----------------------------------------------------------------

def test_parse_existential_square_sentence():
    phi = parse("(exists (y) (= (* y y) (+ 1 1)))", LANG_RING)
    expected = Exists(
        ("y",),
        Atom(
            "=",
            (
                App("*", (Var("y"), Var("y"))),
                App("+", (Const("1"), Const("1"))),
            ),
        ),
    )
    assert phi == expected


def test_parse_quoted_and_bare_relation_heads():
    phi = parse('(and (= x 1) (rel "|" x h))', LANG_STAR)
    assert phi == And(
        (
            Atom("=", (Var("x"), Const("1"))),
            Atom("|", (Var("x"), Var("h"))),
        )
    )
    # the printer always emits the bare head, and that form reparses equal
    text = print_formula(phi)
    assert text == "(and (= x 1) (| x h))"
    assert parse(text, LANG_STAR) == phi


def test_parse_resolves_constants_and_variables():
    phi = parse("(= (+ t 1) z)", LANG_T)
    atom = phi
    assert atom.args[0] == App("+", (Const("t"), Const("1")))
    assert atom.args[1] == Var("z")


def test_parse_errors_carry_positions():
    with pytest.raises(ValueError, match="unknown relation"):
        parse("(< x 1)", LANG_RING)
    with pytest.raises(ValueError, match="unknown function"):
        parse("(= (- x 1) 0)", LANG_RING)
    with pytest.raises(ValueError, match="position"):
        parse("(= x 1) extra", LANG_RING)
    with pytest.raises(ValueError, match="takes 2"):
        parse("(= x)", LANG_RING)
    with pytest.raises(ValueError, match="takes 2"):
        parse("(= (+ x) 1)", LANG_RING)
    with pytest.raises(ValueError, match="unexpected end"):
        parse("(and (= x 1)", LANG_RING)
    with pytest.raises(ValueError, match="unreadable"):
        parse('(rel "| x 1)', LANG_STAR)


def test_parse_rejects_symbols_as_variables():
    with pytest.raises(ValueError, match="cannot be a variable"):
        parse("(= + 1)", LANG_RING)
    with pytest.raises(ValueError, match="collides"):
        parse("(exists (t) (= t 1))", LANG_T)
    with pytest.raises(ValueError, match="collides"):
        parse("(exists (exists) (= 0 1))", LANG_RING)


def test_parse_rel_keyword_needs_quoted_name():
    with pytest.raises(ValueError, match="quoted relation name"):
        parse("(rel = x 1)", LANG_RING)


def test_parse_depth_limit_counts_formulas_and_terms():
    def ands(n):
        return "(and " * n + "(= 0 0)" + ")" * n

    def sums(n):
        return "(= " + "(+ 1 " * n + "0" + ")" * n + " 0)"

    # the atom's own parenthesis is one level
    for nest in (ands, sums):
        deepest = nest(MAX_PARSE_DEPTH - 1)
        assert print_formula(parse(deepest, LANG_RING)) == deepest
        with pytest.raises(ValueError, match="nesting deeper than"):
            parse(nest(MAX_PARSE_DEPTH), LANG_RING)


def test_print_parse_roundtrips():
    texts = [
        "(exists (y) (= (* y y) (+ 1 1)))",
        "(or (= x 0) (= x 1) (!= x t))",
        "(exists (a b c) (and (= (* a b) c) (| a c)))",
        "(and)",
        "(exists (z) (and (= z 1) (exists (z) (= z 0))))",
    ]
    for text in texts:
        phi = parse(text, LANG_T_SEM)
        assert parse(print_formula(phi), LANG_T_SEM) == phi
        assert print_formula(parse(print_formula(phi), LANG_T_SEM)) \
            == print_formula(phi)


def test_empty_connectives():
    assert parse("(and)", LANG_RING) == TRUE
    assert print_formula(TRUE) == "(and)"
    assert parse("(or)", LANG_RING) == Or(())


# -- languages ----------------------------------------------------------------

def test_language_rejects_duplicates_and_keywords():
    with pytest.raises(ValueError, match="duplicate"):
        Lang("bad", ("0", "0"), (), ())
    with pytest.raises(ValueError, match="reserved"):
        Lang("bad", ("exists",), (), ())
    with pytest.raises(ValueError, match="duplicate"):
        Lang("bad", ("0",), (("0", 2),), ())


def test_language_lookup_helpers():
    assert LANG_T.function_arity("+") == 2
    assert LANG_T.function_arity("|") is None
    assert LANG_STAR.relation_arity("|*") == 2
    assert LANG_D.relation_arity("T") == 1
    assert LANG_T.is_constant("t")
    assert not LANG_RING.is_constant("t")


# -- quantifier-free evaluation -------------------------------------------------

def test_eval_square_atom():
    phi = parse("(= (* x x) y)", LANG_T)
    assign = {
        "x": parse_poly("t + 1", 5),
        "y": parse_poly("t^2 + 2*t + 1", 5),
    }
    assert eval_qf(phi, assign, 5)
    assign["y"] = parse_poly("t^2 + 2*t + 2", 5)
    assert not eval_qf(phi, assign, 5)


def test_eval_divisibility_atom():
    # d = t - 1 divides g = t^3 - 1 over F_5 because g(1) = 0
    phi = parse("(| d g)", LANG_STAR)
    assign = {"d": parse_poly("t + 4", 5), "g": parse_poly("t^3 + 4", 5)}
    assert eval_qf(phi, assign, 5)
    assign["g"] = parse_poly("t^3", 5)
    assert not eval_qf(phi, assign, 5)


def test_eval_zero_divides_only_zero():
    phi = parse("(| d g)", LANG_STAR)
    zero = Poly.zero(5)
    assert eval_qf(phi, {"d": zero, "g": zero}, 5)
    assert not eval_qf(phi, {"d": zero, "g": Poly.one(5)}, 5)


def test_eval_frobenius_power_relation():
    phi = parse("(|* g f)", LANG_T_SEM)
    g = parse_poly("t + 1", 5)
    assert eval_qf(phi, {"g": g, "f": g ** 5}, 5)
    assert eval_qf(phi, {"g": g, "f": g ** 25}, 5)
    assert eval_qf(phi, {"g": g, "f": g}, 5)
    assert not eval_qf(phi, {"g": g, "f": g ** 3}, 5)
    assert not eval_qf(phi, {"g": g ** 5, "f": g}, 5)


def test_eval_inequality_relation():
    phi = parse("(!= x y)", LANG_STAR)
    one = Poly.one(5)
    assert eval_qf(phi, {"x": one, "y": Poly.gen(5)}, 5)
    assert not eval_qf(phi, {"x": one, "y": one}, 5)


def test_eval_reports_missing_pieces():
    phi = parse("(= x 1)", LANG_T)
    with pytest.raises(ValueError, match="unassigned variable"):
        eval_qf(phi, {}, 5)
    with pytest.raises(ValueError, match="no registered semantics"):
        eval_qf(parse("(T x)", LANG_D), {"x": Poly.gen(5)}, 5)


def test_eval_qf_rejects_quantifiers():
    phi = parse("(exists (x) (= x 1))", LANG_T)
    with pytest.raises(ValueError, match="quantifier-free"):
        eval_qf(phi, {}, 5)


def _random_matrix(rng, pool, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(pool)
    parts = tuple(
        _random_matrix(rng, pool, depth - 1) for _ in range(rng.randint(0, 3))
    )
    return And(parts) if rng.random() < 0.5 else Or(parts)


def _table_eval(phi, table):
    if isinstance(phi, Atom):
        return table[phi]
    if isinstance(phi, And):
        value = True
        for part in phi.parts:
            value = _table_eval(part, table) and value
        return value
    value = False
    for part in phi.parts:
        value = _table_eval(part, table) or value
    return value


def test_connectives_agree_with_truth_table(rng):
    """eval_qf on 500 random matrices matches a separate table evaluator."""
    names = ("a", "b", "c", "d")
    assign = {
        "a": parse_poly("t", 5),
        "b": parse_poly("t", 5),
        "c": parse_poly("t^2 + 1", 5),
        "d": parse_poly("2*t", 5),
    }
    semantics = {
        "=": lambda u, v: u == v,
        "!=": lambda u, v: u != v,
        "|": poly_divides,
    }
    pool = [
        Atom(rel, (Var(u), Var(v)))
        for rel in semantics
        for u in names
        for v in names
    ]
    table = {
        atom: semantics[atom.rel](
            assign[atom.args[0].name], assign[atom.args[1].name]
        )
        for atom in pool
    }
    for _ in range(500):
        matrix = _random_matrix(rng, pool, 3)
        assert eval_qf(matrix, assign, 5) == _table_eval(matrix, table)


# -- witness checking ------------------------------------------------------------

UNIT_WITH_QUOTIENT = (
    "(exists (x y z)"
    " (and (= (+ (* x x) (* y y)) (+ 1 (* (* t t) (* y y))))"
    " (= (+ x z) (+ 1 (* t z)))))"
)


def test_check_sat_unit_pair_with_derived_quotient():
    phi = parse(UNIT_WITH_QUOTIENT, LANG_T)
    pair = pell_pair(3, 17)
    t_minus_1 = parse_poly("t + 16", 17)
    z, rem = poly_divrem(pair.x - Poly.one(17), t_minus_1)
    assert rem.is_zero()
    witness = {"x": pair.x, "y": pair.y, "z": z}
    assert check_sat(phi, witness, 17)
    witness["z"] = z + Poly.one(17)
    assert not check_sat(phi, witness, 17)


def test_check_sat_counting_sentence():
    kappa_5 = parse("(= (+ 1 (+ 1 (+ 1 (+ 1 1)))) 0)", LANG_RING)
    assert check_sat(kappa_5, {}, 5)
    assert not check_sat(kappa_5, {}, 7)


def test_check_sat_requires_closed_formula():
    with pytest.raises(ValueError, match="not closed"):
        check_sat(parse("(= x 1)", LANG_T), {"x": Poly.one(5)}, 5)


def test_check_sat_requires_complete_witness():
    # the missing variable sits in a conjunct that short-circuit evaluation
    # would never reach, so completeness has to be checked up front
    phi = parse("(exists (x y) (and (= 0 1) (= y 0)))", LANG_T)
    with pytest.raises(ValueError, match="does not assign"):
        check_sat(phi, {"x": Poly.one(5)}, 5)


def test_check_sat_untaken_branch_still_needs_a_value():
    phi = parse("(exists (x) (or (= x 1) (= x 0)))", LANG_T)
    assert check_sat(phi, {"x": Poly.one(5)}, 5)
    assert check_sat(phi, {"x": Poly.zero(5)}, 5)
    assert not check_sat(phi, {"x": Poly.gen(5)}, 5)
    with pytest.raises(ValueError, match="does not assign"):
        check_sat(phi, {}, 5)


def test_check_sat_nested_binders():
    phi = parse(
        "(exists (x) (and (= x t) (exists (w) (= (* w x) 0))))", LANG_T
    )
    witness = {"x": Poly.gen(5), "w": Poly.zero(5)}
    assert check_sat(phi, witness, 5)


# -- structures -------------------------------------------------------------------

def test_poly_structure_constants_and_registration():
    s = PolyStructure(5)
    assert s.constant("0") == Poly.zero(5)
    assert s.constant("1") == Poly.one(5)
    assert s.constant("t") == Poly.gen(5)
    with pytest.raises(ValueError):
        s.constant("2")
    s.register_relation("T", lambda a: a.degree >= 1)
    assert s.relation("T", [Poly.gen(5)])
    assert not s.relation("T", [Poly.one(5)])


def test_poly_structure_char_zero_has_no_frobenius_relation():
    s = PolyStructure(0)
    assert s.relation("=", [Poly.one(0), Poly.one(0)])
    with pytest.raises(ValueError, match="no registered semantics"):
        s.relation("|*", [Poly.one(0), Poly.one(0)])


def test_int_structure_relations():
    s = IntStructure(17)
    assert s.relation("|*", [3, 51])
    assert s.relation("|*", [3, -51])
    assert s.relation("|*", [3, 3])
    assert not s.relation("|*", [3, 6])
    assert not s.relation("|*", [51, 3])
    assert s.relation("|*", [0, 0])
    assert not s.relation("|*", [0, 5])
    assert s.relation("|_p", [51, 3])
    assert s.relation("|_p", [3, 51])
    assert not s.relation("|_p", [3, 6])
    assert s.relation("T", [2])
    assert not any(s.relation("T", [k]) for k in (-1, 0, 1))
    assert s.relation("|", [3, 6])
    assert s.relation("|", [0, 0])
    assert not s.relation("|", [0, 3])
    assert s.relation("!=", [1, 2])
    with pytest.raises(ValueError):
        IntStructure(1)


def test_int_structure_evaluates_formulas():
    phi = parse("(exists (z) (and (T z) (|_p z 1)))", LANG_D)
    s = IntStructure(5)
    assert check_sat(phi, {"z": 25}, 5, structure=s)
    assert not check_sat(phi, {"z": 7}, 5, structure=s)


# -- utilities ---------------------------------------------------------------------

def test_substitute_constant_for_variable():
    phi = parse("(= x 1)", LANG_T)
    out = substitute(phi, {"x": Const("t")})
    assert out == parse("(= t 1)", LANG_T)
    assert print_formula(out) == "(= t 1)"


def test_substitute_respects_shadowing():
    phi = parse("(exists (x) (= x 1))", LANG_T)
    assert substitute(phi, {"x": Const("t")}) == phi


def test_substitute_avoids_capture():
    phi = parse("(exists (x) (= y (+ x 1)))", LANG_T)
    out = substitute(phi, {"y": Var("x")})
    assert free_vars(out) == {"x"}
    assert out.names == ("x_1",)
    assert print_formula(out) == "(exists (x_1) (= x (+ x_1 1)))"


def test_substitute_term_arguments():
    phi = parse("(= (+ x y) 0)", LANG_T)
    out = substitute(phi, {"x": App("*", (Var("y"), Const("t")))})
    assert print_formula(out) == "(= (+ (* y t) y) 0)"


def test_free_and_bound_variables():
    phi = parse(
        "(exists (u v) (and (= u x) (exists (w) (= (+ v w) y))))", LANG_T
    )
    assert free_vars(phi) == {"x", "y"}
    assert bound_vars(phi) == {"u", "v", "w"}
    assert print_term(App("+", (Var("v"), Var("w")))) == "(+ v w)"


def test_conjoin_and_disjoin():
    assert conjoin([]) == TRUE
    a = parse("(= x 1)", LANG_T)
    b = parse("(= y 0)", LANG_T)
    assert conjoin([a, b]) == And((a, b))
    assert conjoin([And((a, b)), a]) == And((a, b, a))
    assert disjoin([Or((a,)), b]) == Or((a, b))


def test_constructor_audit():
    """The formula union admits exactly the four positive constructors."""
    assert typing.get_args(Formula) == (Atom, And, Or, Exists)
    import zinterp.formula as module
    for forbidden in ("Not", "Neg", "Implies", "Forall", "ForAll"):
        assert not hasattr(module, forbidden)
    phi = parse(
        "(exists (a) (or (= a 0) (and (= a 1) (!= a t))))", LANG_T_SEM
    )
    assert all(isinstance(n, (Atom, And, Or, Exists)) for n in walk(phi))
