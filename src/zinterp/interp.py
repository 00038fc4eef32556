"""Interpretations: encode integer sentences as polynomial-ring sentences.

An Interpretation maps a source language into a target language: each source
element is represented by a dim-tuple of target elements cut out by a domain
formula, and every source symbol gets a target formula of matching arity.
translate() rewrites a closed positive-existential source sentence into a
closed positive-existential target sentence; compose() chains two
interpretations; dispatch() merges per-characteristic interpretations behind
guard sentences that test the characteristic.

The builders in this module construct the concrete formula families used by
the standard integers-to-polynomials interpretation: the Pell-pair domain
(solutions of X^2 - (t^2-1)Y^2 = 1 with X congruent to 1 mod t-1), graph
formulas for 0, 1, +, divisibility, the Frobenius-power relation, equality
and inequality, a positive nonzero test, chain formulas certifying f = g^(p^r)
through square sequences, definitions of the sets {t^(p^r)} and {t^k : k >= 1},
and the characteristic guards.  All target formulas stay inside the language
{0, 1, t, +, *, =}: subtraction is eliminated by moving terms across the
equality, never by a minus sign.  Library formulas have fixed names: a
builder takes no arguments and its free names are its parameters (x, y for
the domain, x, y, u, v for a binary graph), and one library formula enters
another only through OpenFormula.template, which renames its bound names by
a mark (the domain at (u, v) with mark "2" binds z2).  The atom helpers
conic_atom and unit_offset_atom bind nothing and take the terms they relate;
the guards char_is and char_at_least take a count.

Naming scheme for generated variables: a source variable n gets the tuple
base n, with coordinates n.1 ... n.dim; intermediate tuples are w1, w2, ...;
the shared tuple for a constant c is named c<c>; bound variables of an
instantiated library formula get a #k suffix, one fresh k per
instantiation.  The TranslationTrace of translate_with_trace gives the tuple
base of each source variable and constant, and one InstRecord (kind, tuple
bases, k, bound names) per instance in emission order; an intermediate tuple
is only the last base of its function's record.  Only tuple_names spells
coordinate names.  Counters are local to a translate call, so identical
inputs give identical outputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .algebra import is_prime
from .formula import (
    And,
    App,
    Atom,
    Const,
    Exists,
    Formula,
    Inst,
    LANG_D,
    LANG_STAR,
    LANG_T,
    Lang,
    Or,
    TRUE,
    Term,
    Var,
    _depth_limited,
    _evaluator,
    _scan,
    _substitute,
    expand,
    free_vars,
    parse,
    print_formula,
    term_vars,
    walk,
)


# Terms of the square sequence in a chain certificate.  The pinning argument
# that forces x = y^(p^r) needs seventeen.
GE_P_CHAIN_LENGTH = 17


# -- term shorthand -------------------------------------------------------------

T_CONST = Const("t")
ONE = Const("1")
ZERO = Const("0")


def _v(x) -> Term:
    return Var(x) if isinstance(x, str) else x


def _mul(a, b) -> Term:
    return App("*", (_v(a), _v(b)))


def _add(a, b) -> Term:
    return App("+", (_v(a), _v(b)))


def _eq(a, b) -> Formula:
    return Atom("=", (_v(a), _v(b)))


def _guard_bound_names(new, incoming) -> None:
    """Refuse argument variables (the names incoming) that are among the
    renamed bound names new."""
    clash = set(new).intersection(incoming)
    if clash:
        raise ValueError(
            f"argument variables {sorted(clash)} collide with bound names; "
            "pass a different mark"
        )


# -- formula builders -------------------------------------------------------------

def conic_atom(x, y, shifted=False) -> Formula:
    """The norm-one conic as an equation without subtraction.

    Plain form: x^2 - (t^2-1)y^2 = 1, written x*x + y*y = 1 + t^2*(y*y).
    Shifted form (t replaced by t+1): x^2 - ((t+1)^2-1)y^2 = 1, written
    x*x = 1 + (t^2+t+t)*(y*y).
    """
    x = _v(x)
    y = _v(y)
    if shifted:
        factor = _add(_mul(T_CONST, T_CONST), _add(T_CONST, T_CONST))
        return _eq(_mul(x, x), _add(ONE, _mul(factor, _mul(y, y))))
    lhs = _add(_mul(x, x), _mul(y, y))
    rhs = _add(ONE, _mul(_mul(T_CONST, T_CONST), _mul(y, y)))
    return _eq(lhs, rhs)


def unit_offset_atom(x, z) -> Formula:
    """x = 1 + (t-1)z without subtraction: x + z = 1 + t*z."""
    x = _v(x)
    z = _v(z)
    return _eq(_add(x, z), _add(ONE, _mul(T_CONST, z)))


def _at(of: OpenFormula, args: tuple, mark: str) -> Formula:
    """The instance of the library formula of at args (names or terms),
    built by OpenFormula.template with its bound names marked."""
    return of.template(tuple(map(_v, args)), mark)[0]


def pell_domain() -> Formula:
    """The domain formula: (x, y) solves the conic and x is 1 mod t-1."""
    body = And((conic_atom("x", "y"), unit_offset_atom("x", "z")))
    return Exists(("z",), body)


def _domains() -> tuple:
    """The domain at (x, y) and at (u, v), its bound z renamed z1 and z2."""
    domain = OpenFormula(("x", "y"), pell_domain())
    return _at(domain, ("x", "y"), "1"), _at(domain, ("u", "v"), "2")


def zero_pair() -> Formula:
    return And((_eq("x", ONE), _eq("y", ZERO)))


def one_pair() -> Formula:
    return And((_eq("x", T_CONST), _eq("y", ONE)))


def add_graph() -> Formula:
    """Graph of addition on encoded integers.

    f = xu + (t^2-1)yv becomes f + yv = xu + t^2*(yv); g = xv + yu is
    already subtraction-free.
    """
    sum_x = _eq(
        _add("f", _mul("y", "v")),
        _add(_mul("x", "u"), _mul(_mul(T_CONST, T_CONST), _mul("y", "v"))),
    )
    sum_y = _eq("g", _add(_mul("x", "v"), _mul("y", "u")))
    return And((*_domains(), sum_x, sum_y))


def divides_graph() -> Formula:
    """Graph of divisibility on encoded integers: v = yz for some z."""
    return Exists(("z",), And((*_domains(), _eq("v", _mul("y", "z")))))


def nonzero() -> Formula:
    """Positive test for x != 0: (ta+1)((t-1)b+1) = xc for some a, b, c.

    Written without subtraction as (ta+1)(tb+1) = xc + (ta+1)b.
    """
    ta1 = _add(_mul(T_CONST, "a"), ONE)
    tb1 = _add(_mul(T_CONST, "b"), ONE)
    body = _eq(_mul(ta1, tb1), _add(_mul("x", "c"), _mul(ta1, "b")))
    return Exists(("a", "b", "c"), body)


def nonzero_difference() -> Formula:
    """Positive test for x != u, the nonzero test applied to x - u.

    (ta+1)((t-1)b+1) = (x-u)c becomes (ta+1)(tb+1) + uc = xc + (ta+1)b.
    """
    ta1 = _add(_mul(T_CONST, "a"), ONE)
    tb1 = _add(_mul(T_CONST, "b"), ONE)
    body = _eq(
        _add(_mul(ta1, tb1), _mul("u", "c")),
        _add(_mul("x", "c"), _mul(ta1, "b")),
    )
    return Exists(("a", "b", "c"), body)


def ge_p_chain() -> Formula:
    """Chain certificate for x = y^(p^r) when x or y is non-constant.

    GE_P_CHAIN_LENGTH terms u_n with second difference 2 (u_{n+2} - 2u_{n+1}
    + u_n = 2, written u_{n+2} + u_n = 1+1 + u_{n+1}+u_{n+1}), pinned by
    xy = u_1, x + y = u_2 - u_1 - 1 (written x+y+u_1+1 = u_2), and y | x.
    """
    us = tuple(f"u{n}" for n in range(1, GE_P_CHAIN_LENGTH + 1))
    two = _add(ONE, ONE)
    parts = [
        _eq(_add(us[n + 2], us[n]), _add(two, _add(us[n + 1], us[n + 1])))
        for n in range(GE_P_CHAIN_LENGTH - 2)
    ]
    parts.append(_eq(_mul("x", "y"), us[0]))
    parts.append(_eq(_add(_add(_add("x", "y"), us[0]), ONE), us[1]))
    parts.append(_eq("x", _mul("y", "z")))
    return Exists(us + ("z",), And(tuple(parts)))


def ge_p_full() -> Formula:
    """Full certificate for x = y^(p^r), valid for constants too.

    The conic point (u, v), which the caller binds, and three chain
    certificates: u against t, ux against ty, and x against y.
    """
    chain = OpenFormula(("x", "y"), ge_p_chain())
    return And((
        conic_atom("u", "v"),
        _at(chain, ("u", T_CONST), "a"),
        _at(chain, (_mul("u", "x"), _mul(T_CONST, "y")), "b"),
        _at(chain, ("x", "y"), "c"),
    ))


def frob_divides_graph() -> Formula:
    """Graph of the power-divisibility relation on encoded integers.

    Holds for encoded (m, n) when n = (+-p^r) m, certified by the first
    coordinate of the second pair being a p-power of the first pair's.
    """
    ge_p = OpenFormula(("x", "y", "u", "v"), ge_p_full())
    return And((
        *_domains(),
        Exists(("u0", "v0"), _at(ge_p, ("u", "x", "u0", "v0"), "")),
    ))


def equal_graph() -> Formula:
    return And((*_domains(), _eq("x", "u"), _eq("y", "v")))


def unequal_graph() -> Formula:
    """Graph of inequality: some coordinate differs, witnessed positively."""
    differ = OpenFormula(("x", "u"), nonzero_difference())
    return And((
        *_domains(),
        Or((_at(differ, ("x", "u"), "1"), _at(differ, ("y", "v"), "2"))),
    ))


def frob_powers_of_t() -> Formula:
    """Defines {t^(p^r) : r >= 0} among polynomials f (odd characteristic).

    f lies on the conic with x-congruence, and f+1 lies on the shifted
    conic with its own congruence u = 1 + tg.
    """
    parts = (
        conic_atom("f", "y"),
        unit_offset_atom("f", "h"),
        conic_atom("u", "v", shifted=True),
        _eq("u", _add(ONE, _mul(T_CONST, "g"))),
        _eq("u", _add("f", ONE)),
    )
    return Exists(("y", "h", "u", "v", "g"), And(parts))


def positive_powers_of_t() -> Formula:
    """Defines {t^k : k >= 1}: f divides some t^(p^r), t divides f, and
    f is 1 at t = 1.  Divisibility a | b is spelled out as a quotient."""
    powers = OpenFormula(("f",), frob_powers_of_t())
    return Exists(("h",), And((
        _at(powers, ("h",), "0"),
        Exists(("w1",), _eq("h", _mul("f", "w1"))),
        Exists(("w2",), _eq("f", _mul(T_CONST, "w2"))),
        Exists(("w3",), unit_offset_atom("f", "w3")),
    )))


def sym_frob_divides() -> Formula:
    """Symmetrized power divisibility over the star language."""
    x, y = Var("x"), Var("y")
    return Or((Atom("|*", (x, y)), Atom("|*", (y, x))))


def outside_units() -> Formula:
    """x is not -1, 0, or 1, over the star language."""
    x = Var("x")
    return And((
        Atom("!=", (_add(x, ONE), ZERO)),
        Atom("!=", (x, ZERO)),
        Atom("!=", (x, ONE)),
    ))


def _sum_copies(term: Term, count: int) -> Term:
    """term + (term + ... + term), count copies nested to the right."""
    out = term
    for _ in range(count - 1):
        out = App("+", (term, out))
    return out


def char_is(n: int) -> Formula:
    """Guard sentence: 1 summed n times equals 0."""
    if n < 1:
        raise ValueError("the count must be at least 1")
    return _eq(_sum_copies(ONE, n), ZERO)


def char_at_least(p: int) -> Formula:
    """Guard sentence: every prime below p is invertible."""
    if p < 3:
        raise ValueError("the threshold must be at least 3")
    primes = [q for q in range(2, p) if is_prime(q)]
    names = tuple(f"z{j}" for j in range(1, len(primes) + 1))
    parts = tuple(
        _eq(_sum_copies(Var(name), q), ONE) for name, q in zip(names, primes)
    )
    return Exists(names, And(parts))


def formula_library() -> dict:
    """Named builders for every formula family used by the interpreter."""
    return {
        "domain": pell_domain,
        "zero": zero_pair,
        "one": one_pair,
        "add": add_graph,
        "divides": divides_graph,
        "frob_divides": frob_divides_graph,
        "equal": equal_graph,
        "unequal": unequal_graph,
        "nonzero": nonzero,
        "nonzero_difference": nonzero_difference,
        "ge_p_chain": ge_p_chain,
        "ge_p": ge_p_full,
        "frob_powers_of_t": frob_powers_of_t,
        "positive_powers_of_t": positive_powers_of_t,
        "sym_frob_divides": sym_frob_divides,
        "outside_units": outside_units,
        "char_is": char_is,
        "char_at_least": char_at_least,
    }


# -- interpretation objects --------------------------------------------------------

def _check_args(kind: str, name: str, arity, args: tuple, lang: Lang,
                where: str) -> None:
    """The symbol name, applied to args, must be in lang with that arity,
    and so must every symbol inside args."""
    if arity is None:
        raise ValueError(f"{where}: {kind} {name!r} not in language {lang.name}")
    if arity != len(args):
        raise ValueError(f"{where}: {kind} {name!r} arity mismatch")
    for a in args:
        if isinstance(a, App):
            _check_args("function", a.fn, lang.function_arity(a.fn), a.args,
                        lang, where)
        elif isinstance(a, Const) and not lang.is_constant(a.name):
            raise ValueError(
                f"{where}: constant {a.name!r} not in language {lang.name}"
            )


def _check_formula_lang(phi: Formula, lang: Lang, where: str) -> None:
    for node in walk(phi):
        if isinstance(node, Atom):
            _check_args("relation", node.rel, lang.relation_arity(node.rel),
                        node.args, lang, where)


@dataclass(frozen=True)
class OpenFormula:
    """A formula together with an ordered list of its free parameters.

    Bound names must be pairwise distinct and disjoint from the parameters,
    so that a flat witness map can address every quantifier unambiguously.
    bound keeps them in binder order, free the parameters the body reads.
    """

    params: tuple
    body: Formula
    bound: tuple = field(init=False, repr=False, compare=False)
    free: frozenset = field(init=False, repr=False, compare=False)

    @_depth_limited
    def __post_init__(self):
        if len(set(self.params)) != len(self.params):
            raise ValueError("duplicate parameter name")
        free, bound = _scan(self.body)
        object.__setattr__(self, "bound", tuple(bound))
        object.__setattr__(self, "free", frozenset(free))
        if len(set(bound)) != len(bound):
            raise ValueError("a bound name is reused inside the body")
        if set(bound) & set(self.params):
            raise ValueError("a bound name shadows a parameter")
        extra = free - set(self.params)
        if extra:
            raise ValueError(
                f"body has free variables outside params: {sorted(extra)}"
            )

    @property
    def arity(self) -> int:
        return len(self.params)

    def template(self, args: tuple, mark: str) -> tuple:
        """The one instantiation routine: the body with the terms args, one
        per parameter in parameter order, for the parameters and each bound
        name renamed to name + mark, paired with the renamed names in binder
        order.  The invariants above make capture avoidance needless, except
        for an argument that mentions a renamed name, which is refused, as
        is a wrong number of arguments."""
        if len(args) != len(self.params):
            raise ValueError(
                f"expected {len(self.params)} arguments, got {len(args)}"
            )
        new = tuple([b + mark for b in self.bound])
        _guard_bound_names(new, set().union(*map(term_vars, args)))
        sub = dict(zip(self.params, args))
        sub.update((b, Var(n)) for b, n in zip(self.bound, new))
        return _substitute(self.body, sub), new

    @cached_property
    def evaluate(self):
        """The evaluator of an instance, compiled on first use.
        evaluate(env, names, bound, structure, memo) is the truth of the
        instance template(names as Vars, mark) under env, where bound is
        that instance's Inst.bound (the renamed bound names), with the calls
        of formula._eval on it, in its order, made without building it."""
        return _evaluator(self.params, self.body, self.bound)

    @cached_property
    def print_format(self) -> str:
        """An instance's text as a str.format string, {i} for argument i and
        {m} for the mark, from holes printed "i" and "m" (no '"' otherwise)."""
        holes = tuple(Var(f'"{i}"') for i in range(len(self.params)))
        text = print_formula(self.template(holes, '"m"')[0])
        text = text.replace("{", "{{").replace("}", "}}")
        return re.sub(r'"(\d+|m)"', r"{\1}", text)


class Interpretation:
    """A dimension, a domain formula, and one formula per source symbol.

    An n-ary source relation's formula has n*dim parameters, an n-ary
    function's has (n+1)*dim (inputs then output), and a constant's has dim.
    """

    def __init__(self, name, source_lang, target_lang, dim, domain, symbols):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        expected = set(source_lang.constants)
        expected |= {n for n, _ in source_lang.functions}
        expected |= {n for n, _ in source_lang.relations}
        missing = expected - set(symbols)
        if missing:
            raise ValueError(f"symbols without a formula: {sorted(missing)}")
        stray = set(symbols) - expected
        if stray:
            raise ValueError(
                f"formulas for undeclared symbols: {sorted(stray)}"
            )
        if domain.arity != dim:
            raise ValueError("domain formula must have dim parameters")
        _check_formula_lang(domain.body, target_lang, f"{name} domain")
        for sym, of in symbols.items():
            want = dim * self._elements(source_lang, sym)
            if of.arity != want:
                raise ValueError(
                    f"formula for {sym!r} has {of.arity} parameters, "
                    f"expected {want}"
                )
            _check_formula_lang(of.body, target_lang, f"{name} symbol {sym}")
        self.name = name
        self.source_lang = source_lang
        self.target_lang = target_lang
        self.dim = dim
        self.domain = domain
        self.symbols = dict(symbols)

    @staticmethod
    def _elements(lang: Lang, sym: str) -> int:
        """How many source elements the symbol's formula relates."""
        if lang.is_constant(sym):
            return 1
        arity = lang.function_arity(sym)
        if arity is not None:
            return arity + 1
        arity = lang.relation_arity(sym)
        if arity is not None:
            return arity
        raise ValueError(f"{sym!r} is not a symbol of {lang.name}")


def pell_interpretation() -> Interpretation:
    """The standard interpretation of the star-language integers inside
    polynomial rings, with integers encoded as conic solution pairs."""
    symbols = {
        "0": OpenFormula(("x", "y"), zero_pair()),
        "1": OpenFormula(("x", "y"), one_pair()),
        "+": OpenFormula(("x", "y", "u", "v", "f", "g"), add_graph()),
        "=": OpenFormula(("x", "y", "u", "v"), equal_graph()),
        "|": OpenFormula(("x", "y", "u", "v"), divides_graph()),
        "|*": OpenFormula(("x", "y", "u", "v"), frob_divides_graph()),
        "!=": OpenFormula(("x", "y", "u", "v"), unequal_graph()),
    }
    domain = OpenFormula(("x", "y"), pell_domain())
    return Interpretation(
        "pell-pairs", LANG_STAR, LANG_T, 2, domain, symbols
    )


def identity_interpretation(lang: Lang) -> Interpretation:
    """The neutral interpretation of a language in itself, dimension 1."""
    symbols = {}
    for c in lang.constants:
        symbols[c] = OpenFormula(("x1",), _eq(Var("x1"), Const(c)))
    for fname, k in lang.functions:
        params = tuple(f"x{i}" for i in range(1, k + 1)) + ("y",)
        args = tuple(Var(f"x{i}") for i in range(1, k + 1))
        symbols[fname] = OpenFormula(params, _eq(Var("y"), App(fname, args)))
    for rname, k in lang.relations:
        params = tuple(f"x{i}" for i in range(1, k + 1))
        args = tuple(Var(p) for p in params)
        symbols[rname] = OpenFormula(params, Atom(rname, args))
    domain = OpenFormula(("x1",), TRUE)
    return Interpretation(
        f"identity({lang.name})", lang, lang, 1, domain, symbols
    )


def divisibility_in_star() -> Interpretation:
    """The divisibility language rewritten inside the star language,
    dimension 1: symmetrized power divisibility and the non-unit test
    become star formulas, everything else passes through."""
    symbols = {
        "0": OpenFormula(("x",), _eq(Var("x"), ZERO)),
        "1": OpenFormula(("x",), _eq(Var("x"), ONE)),
        "+": OpenFormula(
            ("x", "y", "s"), _eq(Var("s"), _add(Var("x"), Var("y")))
        ),
        "=": OpenFormula(("x", "y"), _eq(Var("x"), Var("y"))),
        "|": OpenFormula(("x", "y"), Atom("|", (Var("x"), Var("y")))),
        "|_p": OpenFormula(("x", "y"), sym_frob_divides()),
        "T": OpenFormula(("x",), outside_units()),
    }
    domain = OpenFormula(("x",), TRUE)
    return Interpretation(
        "divisibility-to-star", LANG_D, LANG_STAR, 1, domain, symbols
    )


# -- translation -----------------------------------------------------------------

RESERVED_MARKS = (".", "#", "'")


def tuple_names(base: str, dim: int) -> tuple:
    """The coordinate names of the dim-tuple with the given base."""
    return tuple([f"{base}.{i}" for i in range(1, dim + 1)])


@dataclass(frozen=True)
class InstRecord:
    """One library-formula instantiation inside a translation."""

    kind: str      # "domain" or a source symbol name
    bases: tuple   # tuple bases of the source elements related, in order
    tag: int
    bound: tuple   # bound names after the #tag rename, binder order


@dataclass(frozen=True)
class TranslationTrace:
    variables: tuple       # (source variable, tuple base)
    constants: tuple       # (constant symbol, tuple base)
    instantiations: tuple  # InstRecord, in emission order


class _Translator:
    def __init__(self, interp: Interpretation, source_names):
        self.interp = interp
        self.source_names = set(source_names)
        self.assigned = set()
        self.counter = 0
        self.fresh_counter = 0
        self.const_bases = {}
        self.coordinates = {}
        self.variables = []
        self.instantiations = []

    def tuple_names(self, base: str) -> tuple:
        """base's coordinate names, spelled once per translation."""
        names = self.coordinates.get(base)
        if names is None:
            names = self.coordinates[base] = tuple_names(base, self.interp.dim)
        return names

    def var_base(self, name: str) -> str:
        base = name
        while base in self.assigned:
            base += "'"
        self.assigned.add(base)
        self.variables.append((name, base))
        return base

    def fresh_base(self) -> str:
        while True:
            self.fresh_counter += 1
            base = f"w{self.fresh_counter}"
            if base not in self.assigned and base not in self.source_names:
                self.assigned.add(base)
                return base

    def const_base(self, cname: str) -> str:
        if cname in self.const_bases:
            return self.const_bases[cname]
        base = f"c{cname}"
        while base in self.assigned or base in self.source_names:
            base += "_"
        self.assigned.add(base)
        self.const_bases[cname] = base
        return base

    def inst(self, kind: str, of: OpenFormula, bases: tuple) -> Formula:
        """of instantiated at the coordinates of bases, recorded by base."""
        self.counter += 1
        names = tuple([n for base in bases for n in self.tuple_names(base)])
        inst = Inst(of, names, f"#{self.counter}")
        _guard_bound_names(inst.bound, names)
        self.instantiations.append(
            InstRecord(kind, bases, self.counter, inst.bound))
        return inst

    def domain_parts(self, base: str) -> list:
        if self.interp.domain.body == TRUE:
            return []
        return [self.inst("domain", self.interp.domain, (base,))]

    def symbol_inst(self, sym: str, bases: tuple) -> Formula:
        return self.inst(sym, self.interp.symbols[sym], bases)

    def term_bases(self, terms, env, parts, local) -> tuple:
        """The tuple bases of terms, each flattened in turn."""
        return tuple([self.flatten(t, env, parts, local) for t in terms])

    def flatten(self, term: Term, env, parts, local) -> str:
        """Reduce a term to a tuple base, innermost first, appending the
        constraining parts for any intermediate tuple introduced."""
        if isinstance(term, Var):
            return env[term.name]
        if isinstance(term, Const):
            return self.const_base(term.name)
        args = self.term_bases(term.args, env, parts, local)
        w = self.fresh_base()
        local.append(w)
        parts.extend(self.domain_parts(w))
        parts.append(self.symbol_inst(term.fn, args + (w,)))
        return w

    def block(self, bases, parts) -> Formula:
        """A tuple block: an Exists over the coordinates of bases, the
        conjunction of parts its body."""
        names = [n for base in bases for n in self.tuple_names(base)]
        return Exists(tuple(names), And(tuple(parts)))

    def apply(self, sym: str, terms, env, tail=()) -> Formula:
        """sym's instance at the bases of terms, then of tail, in a block
        over the intermediate tuples the terms introduce, if any."""
        parts, local = [], []
        bases = self.term_bases(terms, env, parts, local)
        parts.append(self.symbol_inst(sym, bases + tail))
        return self.block(local, parts) if local else parts[0]

    def atom(self, node: Atom, env) -> Formula:
        """An atom as one symbol application.  Equality between a variable
        and a constant or application is the top symbol's graph, written
        straight into the variable's tuple."""
        if node.rel == "=":
            a, b = node.args
            if isinstance(b, Var):
                a, b = b, a
            if isinstance(a, Var) and not isinstance(b, Var):
                sym, args = ((b.name, ()) if isinstance(b, Const)
                             else (b.fn, b.args))
                return self.apply(sym, args, env, (env[a.name],))
        return self.apply(node.rel, node.args, env)

    def go(self, phi: Formula, env) -> Formula:
        if isinstance(phi, Atom):
            return self.atom(phi, env)
        if isinstance(phi, (And, Or)):
            parts = []
            for f in phi.parts:
                parts.append(self.go(f, env))
            return type(phi)(tuple(parts))
        bases = [self.var_base(n) for n in phi.names]
        parts = [d for base in bases for d in self.domain_parts(base)]
        parts.append(self.go(phi.body, {**env, **dict(zip(phi.names, bases))}))
        return self.block(bases, parts)

    def hoist_constants(self, core: Formula) -> Formula:
        if not self.const_bases:
            return core
        parts = []
        for cname, base in self.const_bases.items():
            parts.extend(self.domain_parts(base))
            parts.append(self.symbol_inst(cname, (base,)))
        return self.block(self.const_bases.values(), parts + [core])

    def trace(self) -> TranslationTrace:
        return TranslationTrace(
            tuple(self.variables),
            tuple(self.const_bases.items()),
            tuple(self.instantiations),
        )


def _collect_names(names: set) -> set:
    for name in names:
        for mark in RESERVED_MARKS:
            if mark in name:
                raise ValueError(
                    f"variable name {name!r} uses the reserved mark "
                    f"{mark!r}"
                )
    return names


@_depth_limited
def translate_with_trace(interp: Interpretation, phi: Formula):
    """Translate a closed source sentence into a glue of Inst nodes, one per
    library instantiation (expand gives the plain tree); also return the
    trace recording every tuple and instantiation, for witness synthesis."""
    stray, bound = _scan(phi)
    if stray:
        raise ValueError(f"sentence is not closed; free: {sorted(stray)}")
    _check_formula_lang(phi, interp.source_lang, "translate input")
    tr = _Translator(interp, _collect_names(set(bound)))
    core = tr.go(phi, {})
    out = tr.hoist_constants(core)
    if free_vars(out):
        raise AssertionError("translation produced an open formula")
    return out, tr.trace()


def translate(interp: Interpretation, phi: Formula) -> Formula:
    out, _ = translate_with_trace(interp, phi)
    return out


@_depth_limited
def translate_open(interp: Interpretation, of: OpenFormula) -> OpenFormula:
    """Translate a formula with free parameters: each parameter expands to
    a tuple, relativized to the domain.  Used by compose."""
    _check_formula_lang(of.body, interp.source_lang, "translate_open input")
    names = _collect_names(set().union(*_scan(of.body)))
    tr = _Translator(interp, names | set(of.params))
    block = tr.go(Exists(of.params, of.body), {})
    return OpenFormula(block.names, expand(tr.hoist_constants(block.body)))


def compose(first: Interpretation, second: Interpretation) -> Interpretation:
    """Chain two interpretations; the result's dimension is the product."""
    if first.target_lang != second.source_lang:
        raise ValueError(
            f"language mismatch: {first.name} targets "
            f"{first.target_lang.name}, {second.name} reads "
            f"{second.source_lang.name}"
        )
    domain = translate_open(second, first.domain)
    symbols = {
        sym: translate_open(second, of)
        for sym, of in first.symbols.items()
    }
    return Interpretation(
        f"compose({first.name},{second.name})",
        first.source_lang,
        second.target_lang,
        first.dim * second.dim,
        domain,
        symbols,
    )


# -- characteristic dispatch --------------------------------------------------------

def _pad_and_rename(of: OpenFormula, dim: int, full_dim: int,
                    branch: int) -> tuple:
    """Canonicalize a branch formula: bound names suffixed with the branch
    index, parameters renamed to x1..xN element-major, missing coordinates
    padded with atoms pinning them to the element's first coordinate."""
    elements = len(of.params) // dim
    rows = [[Var(f"x{e * full_dim + c + 1}") for c in range(full_dim)]
            for e in range(elements)]
    body, _ = of.template(tuple(x for row in rows for x in row[:dim]),
                          f"!{branch}")
    pads = tuple(_eq(x, row[0]) for row in rows for x in row[dim:])
    if pads:
        body = And((body,) + pads)
    params = tuple(f"x{i}" for i in range(1, elements * full_dim + 1))
    return params, body


def dispatch(branches) -> Interpretation:
    """Merge guarded interpretations into one: every symbol formula becomes
    the disjunction over branches of (guard and branch formula)."""
    branches = list(branches)
    if not branches:
        raise ValueError("empty branch list")
    guards = [g for g, _ in branches]
    interps = [i for _, i in branches]
    src = interps[0].source_lang
    tgt = interps[0].target_lang
    for i in interps[1:]:
        if i.source_lang != src or i.target_lang != tgt:
            raise ValueError("branches must share source and target languages")
    for g in guards:
        if free_vars(g):
            raise ValueError("guard sentences must be closed")
        _check_formula_lang(g, tgt, "dispatch guard")
    if len(branches) == 1 and guards[0] == TRUE:
        return interps[0]
    full_dim = max(i.dim for i in interps)
    guards = [OpenFormula((), g).template((), f"!g{idx}")[0]
              for idx, g in enumerate(guards, start=1)]

    def merged(pick) -> OpenFormula:
        params = None
        alternatives = []
        for idx, (guard, interp) in enumerate(zip(guards, interps), start=1):
            p, body = _pad_and_rename(pick(interp), interp.dim, full_dim, idx)
            params = p if params is None or len(p) > len(params) else params
            alternatives.append(And((guard, body)))
        return OpenFormula(params, Or(tuple(alternatives)))

    domain = merged(lambda i: i.domain)
    symbols = {
        sym: merged(lambda i, s=sym: i.symbols[s])
        for sym in interps[0].symbols
    }
    name = "dispatch(" + "|".join(i.name for i in interps) + ")"
    return Interpretation(name, src, tgt, full_dim, domain, symbols)


# -- interpretation bundles ----------------------------------------------------------

def _lang_to_json(lang: Lang) -> dict:
    return {
        "name": lang.name,
        "constants": list(lang.constants),
        "functions": [[n, a] for n, a in lang.functions],
        "relations": [[n, a] for n, a in lang.relations],
    }


def _lang_from_json(data: dict) -> Lang:
    return Lang(
        data["name"],
        tuple(data["constants"]),
        tuple((n, a) for n, a in data["functions"]),
        tuple((n, a) for n, a in data["relations"]),
    )


def save_bundle(interp: Interpretation, path) -> Path:
    """Write an interpretation to a directory: manifest.json plus one
    s-expression file per formula."""
    # The codec's modules load here: no compiler or oracle path needs them.
    import json
    from pathlib import Path

    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    (path / "domain.sexp").write_text(
        print_formula(interp.domain.body) + "\n"
    )
    symbols = {}
    for idx, sym in enumerate(sorted(interp.symbols)):
        of = interp.symbols[sym]
        fname = f"symbol-{idx:02d}.sexp"
        (path / fname).write_text(print_formula(of.body) + "\n")
        symbols[sym] = {"file": fname, "params": list(of.params)}
    manifest = {
        "name": interp.name,
        "dim": interp.dim,
        "source_lang": _lang_to_json(interp.source_lang),
        "target_lang": _lang_to_json(interp.target_lang),
        "domain": {
            "file": "domain.sexp",
            "params": list(interp.domain.params),
        },
        "symbols": symbols,
    }
    (path / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return path


def load_bundle(path) -> Interpretation:
    import json
    from pathlib import Path

    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    source_lang = _lang_from_json(manifest["source_lang"])
    target_lang = _lang_from_json(manifest["target_lang"])

    def read_open(entry) -> OpenFormula:
        text = (path / entry["file"]).read_text()
        return OpenFormula(tuple(entry["params"]), parse(text, target_lang))

    symbols = {
        sym: read_open(entry)
        for sym, entry in manifest["symbols"].items()
    }
    return Interpretation(
        manifest["name"],
        source_lang,
        target_lang,
        manifest["dim"],
        read_open(manifest["domain"]),
        symbols,
    )
