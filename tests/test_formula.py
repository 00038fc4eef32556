"""Tests for formula syntax, parsing, printing, evaluation, and utilities."""

import sys
import typing

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

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
    _scan,
    bound_vars,
    check_sat,
    eval_qf,
    expand,
    free_vars,
    parse,
    print_formula,
    term_vars,
    walk,
)
from zinterp.interp import (
    OpenFormula,
    pell_interpretation,
    translate_open,
)
from zinterp.pell import pell_pair

from conftest import SEED, FreshConstants


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
    with pytest.raises(ValueError,
                       match="^unreadable character '\"' at position 5$"):
        parse('(rel "| x 1)', LANG_STAR)
    with pytest.raises(ValueError,
                       match="^unreadable character '\"' at position 8$"):
        parse('(= "a"  " x)', LANG_STAR)


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

def test_poly_structure_constants_and_a_further_relation():
    s = PolyStructure(5)
    assert s.constant("0") == Poly.zero(5)
    assert s.constant("1") == Poly.one(5)
    assert s.constant("t") == Poly.gen(5)
    with pytest.raises(ValueError):
        s.constant("2")

    class WithT(PolyStructure):
        def relation(self, name, args):
            if name == "T":
                return args[0].degree >= 1
            return super().relation(name, args)

    with_t = WithT(5)
    assert eval_qf(Atom("T", (Const("t"),)), {}, 5, with_t)
    assert not eval_qf(Atom("T", (Const("1"),)), {}, 5, with_t)
    assert eval_qf(Atom("=", (Const("1"),) * 2), {}, 5, with_t)


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
    pairs = ((3, 51), (3, -867), (-3, 3), (0, 0), (3, 6), (51, 3), (0, 5),
             (5, 0))
    assert [s.p_power_exponent(a, b) for a, b in pairs] == \
        [1, 2, 0, 0, None, None, None, None]
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

def test_free_and_bound_variables():
    phi = parse(
        "(exists (u v) (and (= u x) (exists (w) (= (+ v w) y))))", LANG_T
    )
    assert free_vars(phi) == {"x", "y"}
    assert bound_vars(phi) == {"u", "v", "w"}
    assert print_formula(Atom("T", (App("+", (Var("v"), Var("w"))),))) \
        == "(T (+ v w))"


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


# -- differential tests: the walks against the recursive originals ----------------
#
# ref_* are the set-per-node recursive walks the accumulator walks replaced,
# kept verbatim as references.  Free names, bound names, printed text,
# truth values and error text must all agree.

def ref_walk(phi):
    yield phi
    if isinstance(phi, (And, Or)):
        for f in phi.parts:
            yield from ref_walk(f)
    elif isinstance(phi, Exists):
        yield from ref_walk(phi.body)


def ref_term_vars(term):
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, Const):
        return set()
    out = set()
    for a in term.args:
        out |= ref_term_vars(a)
    return out


def ref_free_vars(phi):
    if isinstance(phi, Atom):
        out = set()
        for a in phi.args:
            out |= ref_term_vars(a)
        return out
    if isinstance(phi, (And, Or)):
        out = set()
        for f in phi.parts:
            out |= ref_free_vars(f)
        return out
    if isinstance(phi, Exists):
        return ref_free_vars(phi.body) - set(phi.names)
    raise TypeError(f"not a formula: {phi!r}")


def ref_bound_vars(phi):
    out = set()
    for node in ref_walk(phi):
        if isinstance(node, Exists):
            out |= set(node.names)
    return out


def ref_print_term(term):
    if isinstance(term, (Var, Const)):
        return term.name
    inner = " ".join(ref_print_term(a) for a in term.args)
    return f"({term.fn} {inner})"


def ref_print_formula(phi):
    if isinstance(phi, Atom):
        if phi.args:
            inner = " ".join(ref_print_term(a) for a in phi.args)
            return f"({phi.rel} {inner})"
        return f"({phi.rel})"
    if isinstance(phi, And):
        inner = " ".join(ref_print_formula(f) for f in phi.parts)
        return f"(and {inner})" if phi.parts else "(and)"
    if isinstance(phi, Or):
        inner = " ".join(ref_print_formula(f) for f in phi.parts)
        return f"(or {inner})" if phi.parts else "(or)"
    if isinstance(phi, Exists):
        names = " ".join(phi.names)
        return f"(exists ({names}) {ref_print_formula(phi.body)})"
    raise TypeError(f"not a formula: {phi!r}")


def ref_eval_term(term, env, structure):
    if isinstance(term, Var):
        if term.name not in env:
            raise ValueError(f"unassigned variable {term.name!r}")
        return env[term.name]
    if isinstance(term, Const):
        return structure.constant(term.name)
    return structure.function(
        term.fn, [ref_eval_term(a, env, structure) for a in term.args]
    )


def ref_eval(phi, env, witness, structure):
    if isinstance(phi, Atom):
        args = [ref_eval_term(a, env, structure) for a in phi.args]
        return structure.relation(phi.rel, args)
    if isinstance(phi, And):
        return all(ref_eval(f, env, witness, structure) for f in phi.parts)
    if isinstance(phi, Or):
        return any(ref_eval(f, env, witness, structure) for f in phi.parts)
    if isinstance(phi, Exists):
        inner = dict(env)
        for name in phi.names:
            if name not in witness:
                raise ValueError(
                    f"witness does not assign bound variable {name!r}"
                )
            inner[name] = witness[name]
        return ref_eval(phi.body, inner, witness, structure)
    raise TypeError(f"not a formula: {phi!r}")


def ref_check_sat(phi, witness, structure):
    free = ref_free_vars(phi)
    if free:
        raise ValueError(f"formula is not closed; free: {sorted(free)}")
    unassigned = ref_bound_vars(phi) - set(witness)
    if unassigned:
        raise ValueError(
            f"witness does not assign bound variables {sorted(unassigned)}"
        )
    return ref_eval(phi, {}, witness, structure)


def ref_eval_qf(matrix, assignment, structure):
    if any(isinstance(f, Exists) for f in ref_walk(matrix)):
        raise ValueError("matrix must be quantifier-free")
    return ref_eval(matrix, dict(assignment), {}, structure)


def outcome(fn, *args):
    """("ok", result) or (exception type name, message)."""
    try:
        return "ok", fn(*args)
    except (ValueError, TypeError, AttributeError) as exc:
        return type(exc).__name__, str(exc)


_NAMES = ("a", "b", "x", "y")


def _terms(depth):
    leaf = st.one_of(
        st.sampled_from(_NAMES).map(Var),
        st.sampled_from(("0", "1")).map(Const),
    )
    if depth == 0:
        return leaf
    sub = _terms(depth - 1)
    app = st.builds(
        App, st.sampled_from(("+", "*")), st.tuples(sub, sub)
    )
    return st.one_of(leaf, app)


TERMS = _terms(4)


def _formulas(depth):
    atom = st.builds(
        Atom, st.sampled_from(("=", "!=", "|", "|*")), st.tuples(TERMS, TERMS)
    )
    if depth == 0:
        return atom
    sub = _formulas(depth - 1)
    parts = st.lists(sub, max_size=3).map(tuple)
    return st.one_of(
        atom,
        parts.map(And),
        parts.map(Or),
        st.builds(
            Exists,
            st.lists(st.sampled_from(_NAMES), min_size=1, max_size=2,
                     unique=True).map(tuple),
            sub,
        ),
    )


FORMULAS = _formulas(4)


@st.composite
def _sentences(draw):
    """A formula, usually closed by a binder over its free names, and a
    witness that may leave some bound names unassigned."""
    phi = draw(FORMULAS)
    free = sorted(ref_free_vars(phi))
    if free and draw(st.integers(0, 3)):
        phi = Exists(tuple(free), phi)
    keep = names = sorted(ref_bound_vars(phi))
    if names and not draw(st.integers(0, 3)):
        keep = draw(st.lists(st.sampled_from(names), unique=True))
    witness = {n: draw(st.integers(-4, 4)) for n in keep}
    return phi, witness


_DIFF = settings(max_examples=300, deadline=None, derandomize=True,
                 database=None)


@_DIFF
@given(term=TERMS)
def test_term_walks_match_reference(term):
    assert term_vars(term) == ref_term_vars(term)
    assert print_formula(Atom("T", (term,))) == f"(T {ref_print_term(term)})"


@_DIFF
@given(phi=FORMULAS)
def test_formula_walks_match_reference(phi):
    assert free_vars(phi) == ref_free_vars(phi)
    assert bound_vars(phi) == ref_bound_vars(phi)
    assert tuple(_scan(phi)[1]) == tuple(
        n for node in ref_walk(phi) if isinstance(node, Exists)
        for n in node.names)
    text = print_formula(phi)
    assert text == ref_print_formula(phi)
    assert parse(text, LANG_T_SEM) == phi
    assert print_formula(parse(text, LANG_T_SEM)) == text


@_DIFF
@given(case=_sentences())
def test_check_sat_matches_reference(case):
    phi, witness = case
    ints = IntStructure(3)
    assert outcome(check_sat, phi, witness, 3, ints) \
        == outcome(ref_check_sat, phi, witness, ints)
    polys = {n: Poly.const(v, 5) for n, v in witness.items()}
    ring = PolyStructure(5)
    assert outcome(check_sat, phi, polys, 5) \
        == outcome(ref_check_sat, phi, polys, ring)


@_DIFF
@given(phi=_formulas(3), values=st.dictionaries(
    st.sampled_from(_NAMES), st.integers(-4, 4)))
def test_eval_qf_matches_reference(phi, values):
    ints = IntStructure(3)
    assert outcome(eval_qf, phi, values, 3, ints) \
        == outcome(ref_eval_qf, phi, values, ints)


# -- the per-call memo of check_sat -------------------------------------------------

_MEMO_NAMES = ("a", "b", "c", "x", "y")


def _memo_terms(depth):
    leaf = st.one_of(
        st.sampled_from(_MEMO_NAMES).map(Var),
        st.sampled_from(("0", "1", "t")).map(Const),
    )
    if depth == 0:
        return leaf
    sub = _memo_terms(depth - 1)
    return st.one_of(
        leaf, st.builds(App, st.sampled_from(("+", "*")), st.tuples(sub, sub))
    )


def _memo_formulas(depth):
    atom = st.one_of(
        st.builds(Atom, st.sampled_from(("=", "!=", "|")),
                  st.tuples(MEMO_TERMS, MEMO_TERMS)),
        MEMO_TERMS.map(lambda s: Atom("=", (s, s))),
    )
    if depth == 0:
        return atom
    sub = _memo_formulas(depth - 1)
    parts = st.lists(sub, max_size=3).map(tuple)
    return st.one_of(
        atom, parts.map(And), parts.map(Or),
        st.builds(Exists, st.lists(st.sampled_from(_MEMO_NAMES), min_size=1,
                                   max_size=2, unique=True).map(tuple), sub),
    )


MEMO_TERMS = _memo_terms(3)
MEMO_FORMULAS = _memo_formulas(3)
_POOL = st.lists(st.lists(st.integers(0, 4), max_size=3), min_size=1,
                 max_size=3)


@st.composite
def _shared_value_sentences(draw):
    """A closed sentence and a witness drawn from a pool of one to three
    Poly objects, so several names usually hold the same object."""
    phi = draw(MEMO_FORMULAS)
    free = tuple(sorted(ref_free_vars(phi)))
    if free:
        phi = Exists(free, phi)
    pool = [Poly(c, 5) for c in draw(_POOL)]
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=len(_MEMO_NAMES), max_size=len(_MEMO_NAMES)))
    return phi, {n: pool[i] for n, i in zip(_MEMO_NAMES, picks)}


@seed(SEED)
@_DIFF
@given(case=_shared_value_sentences())
def test_memoized_check_sat_matches_memo_free_reference(case):
    phi, witness = case
    for structure in (PolyStructure(5), FreshConstants(5)):
        assert outcome(check_sat, phi, witness, 5, structure) \
            == outcome(ref_check_sat, phi, witness, structure)


def test_check_sat_applies_each_function_once_per_argument_objects():
    class Counting(PolyStructure):
        def __init__(self, p):
            super().__init__(p)
            self.calls = []

        def function(self, name, args):
            self.calls.append(name)
            return super().function(name, args)

    shared = Poly((1, 2), 5)
    phi = parse("(exists (x y z) (and (= (* x y) (* y x))"
                " (= (* x y) (+ (* x y) 0)) (= (* x z) (* x y))))", LANG_T)
    # x and y are one object; z is equal to it but another object
    witness = {"x": shared, "y": shared, "z": Poly((1, 2), 5)}
    ring = Counting(5)
    assert check_sat(phi, witness, 5, ring)
    assert ring.calls == ["*", "+", "*"]
    # the memo lives for one call only
    assert check_sat(phi, witness, 5, ring)
    assert eval_qf(phi.body, witness, 5, ring)
    assert eval_qf(phi.body, witness, 5, ring)
    assert ring.calls == ["*", "+", "*"] * 4


def test_memo_keys_on_every_argument_of_any_arity():
    class Picking(IntStructure):
        def function(self, name, args):
            if name == "third":
                return args[2]
            if name == "neg":
                return -args[0]
            return super().function(name, args)

    a, b, c = Var("a"), Var("b"), Var("c")
    phi = And((
        Atom("=", (App("third", (a, a, b)), b)),
        Atom("=", (App("third", (a, a, c)), c)),
        Atom("=", (App("neg", (a,)), App("neg", (App("neg", (b,)),)))),
    ))
    assert eval_qf(phi, {"a": 2, "b": -2, "c": 3}, 3, Picking(3))
    assert not eval_qf(phi, {"a": 2, "b": 2, "c": 3}, 3, Picking(3))


def test_walk_errors_match_reference():
    ints = IntStructure(3)
    zero, one = Const("0"), Const("1")
    false = Atom("=", (zero, one))
    true = Atom("=", (one, one))
    open_atom = Atom("=", (Var("x"), zero))
    untaken = Or((true, Exists(("z",), Atom("=", (Var("z"), zero)))))
    cases = [
        (open_atom, {}),
        (Exists(("y",), open_atom), {"y": 0}),
        (untaken, {}),
        (Exists(("z",), And((false, Exists(("w",), true)))), {"z": 1}),
        (And((false, Var("x"))), {}),
        (Or((true, 7)), {}),
        (Exists(("a",), Or((Atom("=", (Var("a"), zero)), Const("1")))),
         {"a": 0}),
    ]
    for phi, witness in cases:
        want = outcome(ref_check_sat, phi, witness, ints)
        assert want[0] != "ok"
        assert outcome(check_sat, phi, witness, 3, ints) == want
        assert outcome(free_vars, phi) == outcome(ref_free_vars, phi)
        assert outcome(print_formula, phi) == outcome(ref_print_formula, phi)
    assert outcome(check_sat, untaken, {}, 3, ints) == (
        "ValueError", "witness does not assign bound variables ['z']"
    )
    assert outcome(check_sat, open_atom, {}, 3, ints) == (
        "ValueError", "formula is not closed; free: ['x']"
    )
    # quantifier-free evaluation stops at the first false conjunct and the
    # first true disjunct, so a malformed later part is never reached
    for phi in (And((false, Var("x"))), Or((true, 7))):
        assert outcome(eval_qf, phi, {}, 3, ints) \
            == outcome(ref_eval_qf, phi, {}, ints)
        assert outcome(eval_qf, phi, {}, 3, ints)[0] == "ok"
    for phi in (And((true, Var("x"))), Or((false, 7))):
        assert outcome(eval_qf, phi, {}, 3, ints) \
            == outcome(ref_eval_qf, phi, {}, ints) \
            == ("TypeError", f"not a formula: {phi.parts[1]!r}")
    # applications and atoms without arguments
    for term in (App("+", ()), App("*", (App("+", ()), Var("x")))):
        assert print_formula(Atom("T", (term,))) \
            == ref_print_formula(Atom("T", (term,)))
    assert print_formula(Atom("T", (App("+", ()),))) == "(T (+ ))"
    assert print_formula(Atom("T", ())) == ref_print_formula(Atom("T", ())) \
        == "(T)"
    # a non-formula node anywhere is refused by the name walks
    bad = And((true, Exists(("v",), Var("v"))))
    for walk_fn in (free_vars, bound_vars, print_formula):
        assert outcome(walk_fn, bad) == ("TypeError", "not a formula: Var(name='v')")


# -- formulas nested deeper than the walks can recurse ---------------------------

def _and_chain(depth: int):
    phi = Atom("=", (Const("1"), Const("1")))
    for _ in range(depth):
        phi = And((phi,))
    return phi


_ENTRY_POINTS = {
    "check_sat": lambda phi: check_sat(phi, {}, 5),
    "eval_qf": lambda phi: eval_qf(phi, {}, 5),
    "free_vars": free_vars,
    "bound_vars": bound_vars,
    "print_formula": print_formula,
    "expand": expand,
    "translate_open": lambda phi: translate_open(pell_interpretation(),
                                                 OpenFormula((), phi)),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_deep_formula_refused_with_value_error(entry):
    run = _ENTRY_POINTS[entry]
    deep = _and_chain(max(1000, sys.getrecursionlimit()))
    limit = f"up to the recursion limit of {sys.getrecursionlimit()}"
    with pytest.raises(ValueError, match="formula nested too deeply") as exc:
        run(deep)
    assert limit in str(exc.value)
    # deeper than parse accepts, still well within the walks
    assert run(_and_chain(3 * MAX_PARSE_DEPTH // 2)) is not None


def test_walk_reaches_any_depth():
    nodes = list(walk(_and_chain(5000)))
    assert len(nodes) == 5001
    assert all(outer.parts[0] is inner for outer, inner in zip(nodes, nodes[1:]))


def test_open_formula_is_defined_beside_inst():
    """The package and interp name the one class formula.py defines."""
    import zinterp
    import zinterp.formula

    assert OpenFormula.__module__ == "zinterp.formula"
    assert zinterp.OpenFormula is OpenFormula is zinterp.formula.OpenFormula
