"""Positive-existential formulas: syntax, s-expression parsing, evaluation.

The formula type has exactly four constructors: atoms, conjunction,
disjunction, and existential quantification.  Negation, implication, and
universal quantification do not exist as nodes, so everything built here is
positive-existential by construction.  Inequality, where needed, is an
ordinary relation symbol with registered semantics, not a negation.

Nodes are slots dataclasses, a half to a third as costly to build as frozen
ones, with the same == and hash.  They stay immutable by convention: no code
assigns a field of a built node, because one node may sit in many formulas
(TRUE, interp's T_CONST, ONE and ZERO, and the ground subterms of
instantiation templates such as (* t t)).  So an instance of a library
formula may share ground subterms with other instances.

Terms and formulas are written as s-expressions:

    (exists (y) (= (* y y) (+ 1 1)))
    (and (= x 1) (rel "|" x h))
    (or (!= x 0) (| x y))

Relation heads may appear bare, as in (= ...) or (| ...), or quoted through
the rel keyword; the printer always emits the bare form.  The keywords
exists, and, or, rel are reserved.  Text nested more than MAX_PARSE_DEPTH
parentheses deep is refused with ValueError.

Evaluation is parameterized by a structure: a universe with constant values,
function values, and relation callbacks.  PolyStructure evaluates over
F_p[t] (equality, divisibility, inequality, and the Frobenius-power
relation); IntStructure evaluates over the integers with the p-power
divisibility relation b = +-(p^r) * a as the |* semantics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

from .algebra import Poly, poly_divides
from .buchi import ge_p_check


# -- abstract syntax -----------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class Var:
    name: str


@dataclass(slots=True, unsafe_hash=True)
class Const:
    name: str


@dataclass(slots=True, unsafe_hash=True)
class App:
    fn: str
    args: tuple


Term = Union[Var, Const, App]


@dataclass(slots=True, unsafe_hash=True)
class Atom:
    rel: str
    args: tuple


@dataclass(slots=True, unsafe_hash=True)
class And:
    parts: tuple


@dataclass(slots=True, unsafe_hash=True)
class Or:
    parts: tuple


@dataclass(slots=True, unsafe_hash=True)
class Exists:
    names: tuple
    body: "Formula"


Formula = Union[Atom, And, Or, Exists]

TRUE = And(())

KEYWORDS = ("exists", "and", "or", "rel")


# -- languages -----------------------------------------------------------------

@dataclass(frozen=True)
class Lang:
    """Symbol table: constants, function symbols with arity, relation symbols
    with arity.  Stored as tuples of (name, arity) pairs to stay hashable."""

    name: str
    constants: tuple
    functions: tuple
    relations: tuple

    def __post_init__(self):
        names = list(self.constants)
        names += [n for n, _ in self.functions]
        names += [n for n, _ in self.relations]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate symbol in language {self.name}")
        for n in names:
            if n in KEYWORDS:
                raise ValueError(f"symbol {n!r} is a reserved keyword")

    def function_arity(self, name: str) -> Optional[int]:
        return dict(self.functions).get(name)

    def relation_arity(self, name: str) -> Optional[int]:
        return dict(self.relations).get(name)

    def is_constant(self, name: str) -> bool:
        return name in self.constants


LANG_RING = Lang("ring", ("0", "1"), (("+", 2), ("*", 2)), (("=", 2),))

LANG_T = Lang("t-ring", ("0", "1", "t"), (("+", 2), ("*", 2)), (("=", 2),))

# The same term language extended with the semantic relations used by
# checkers and the CLI; target formulas proper stay within LANG_T.
LANG_T_SEM = Lang(
    "t-ring-sem",
    ("0", "1", "t"),
    (("+", 2), ("*", 2)),
    (("=", 2), ("|", 2), ("!=", 2), ("|*", 2)),
)

LANG_STAR = Lang(
    "star",
    ("0", "1"),
    (("+", 2),),
    (("=", 2), ("|", 2), ("|*", 2), ("!=", 2)),
)

LANG_D = Lang(
    "divisibility",
    ("0", "1"),
    (("+", 2),),
    (("=", 2), ("|", 2), ("|_p", 2), ("T", 1)),
)


# -- parsing ---------------------------------------------------------------------

# Deepest parenthesis nesting parse accepts, formulas and terms together.
# Every walk recurses once per level: under the default recursion limit, an
# and chain under one exists translates up to 983 levels deep, and prints
# and scans (free_vars) up to 994 and 993.  Library formulas and translated
# sentences stay under 20 levels.
MAX_PARSE_DEPTH = 200

_TOKEN_RE = re.compile(r'\(|\)|"[^"]*"|[^\s()"]+')


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"unreadable character {ch!r} at position {pos}")
        tokens.append((m.group(0), pos))
        pos = m.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        if self.i >= len(self.tokens):
            raise ValueError("unexpected end of input")
        return self.tokens[self.i]

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, want):
        tok, pos = self.next()
        if tok != want:
            raise ValueError(f"expected {want!r} at position {pos}, got {tok!r}")
        return tok


def _parse_term(ts: _TokenStream, lang: Lang) -> Term:
    tok, pos = ts.next()
    if tok == ")":
        raise ValueError(f"unexpected ')' at position {pos}")
    if tok == "(":
        head, hpos = ts.next()
        arity = lang.function_arity(head)
        if arity is None:
            raise ValueError(
                f"unknown function symbol {head!r} at position {hpos}"
            )
        args = []
        while ts.peek()[0] != ")":
            args.append(_parse_term(ts, lang))
        ts.expect(")")
        if len(args) != arity:
            raise ValueError(
                f"function {head!r} at position {hpos} takes {arity} "
                f"arguments, got {len(args)}"
            )
        return App(head, tuple(args))
    if tok.startswith('"'):
        raise ValueError(f"string where a term was expected at position {pos}")
    if lang.is_constant(tok):
        return Const(tok)
    if tok in KEYWORDS or lang.function_arity(tok) is not None \
            or lang.relation_arity(tok) is not None:
        raise ValueError(f"symbol {tok!r} cannot be a variable (position {pos})")
    return Var(tok)


def _parse_formula(ts: _TokenStream, lang: Lang) -> Formula:
    ts.expect("(")
    head, hpos = ts.next()
    if head == "exists":
        ts.expect("(")
        names = []
        while ts.peek()[0] != ")":
            name, npos = ts.next()
            if name == "(" or name.startswith('"'):
                raise ValueError(f"bad bound variable at position {npos}")
            if name in KEYWORDS or lang.is_constant(name) \
                    or lang.function_arity(name) is not None \
                    or lang.relation_arity(name) is not None:
                raise ValueError(
                    f"bound name {name!r} collides with a symbol "
                    f"(position {npos})"
                )
            names.append(name)
        ts.expect(")")
        body = _parse_formula(ts, lang)
        ts.expect(")")
        return Exists(tuple(names), body)
    if head in ("and", "or"):
        parts = []
        while ts.peek()[0] != ")":
            parts.append(_parse_formula(ts, lang))
        ts.expect(")")
        return And(tuple(parts)) if head == "and" else Or(tuple(parts))
    if head == "rel":
        name_tok, npos = ts.next()
        if not name_tok.startswith('"'):
            raise ValueError(
                f"rel needs a quoted relation name at position {npos}"
            )
        rel = name_tok[1:-1]
    else:
        rel = head
    arity = lang.relation_arity(rel)
    if arity is None:
        raise ValueError(f"unknown relation {rel!r} at position {hpos}")
    args = []
    while ts.peek()[0] != ")":
        args.append(_parse_term(ts, lang))
    ts.expect(")")
    if len(args) != arity:
        raise ValueError(
            f"relation {rel!r} at position {hpos} takes {arity} "
            f"arguments, got {len(args)}"
        )
    return Atom(rel, tuple(args))


def _check_depth(tokens) -> None:
    depth = 0
    for tok, pos in tokens:
        if tok == "(":
            depth += 1
            if depth > MAX_PARSE_DEPTH:
                raise ValueError(
                    f"nesting deeper than {MAX_PARSE_DEPTH} levels "
                    f"at position {pos}"
                )
        elif tok == ")":
            depth -= 1


def parse(text: str, lang: Lang) -> Formula:
    tokens = _tokenize(text)
    _check_depth(tokens)
    ts = _TokenStream(tokens)
    out = _parse_formula(ts, lang)
    if ts.i != len(ts.tokens):
        tok, pos = ts.tokens[ts.i]
        raise ValueError(f"trailing input {tok!r} at position {pos}")
    return out


# The term walks take a tuple of terms (an Atom's or an App's args), so
# the Var and Const leaves are handled in the loop, without a call each.

def _print_terms(terms: tuple, out: list) -> None:
    """Append " " and the text of each term to out."""
    for a in terms:
        tp = type(a)
        if tp is Var or tp is Const:
            out += (" ", a.name)
        else:
            out += (" (", a.fn) if a.args else (" (", a.fn, " ")
            _print_terms(a.args, out)
            out.append(")")


def _print_formula(phi, out: list) -> None:
    tp = type(phi)
    if tp is Atom:
        out += ("(", phi.rel)
        _print_terms(phi.args, out)
    elif tp is And or tp is Or:
        out.append("(and" if tp is And else "(or")
        for f in phi.parts:
            out.append(" ")
            _print_formula(f, out)
    elif tp is Exists:
        out += ("(exists (", " ".join(phi.names), ") ")
        _print_formula(phi.body, out)
    else:
        raise TypeError(f"not a formula: {phi!r}")
    out.append(")")


def print_term(term: Term) -> str:
    out = []
    _print_terms((term,), out)
    return "".join(out)[1:]


def print_formula(phi: Formula) -> str:
    out = []
    _print_formula(phi, out)
    return "".join(out)


# -- structures ------------------------------------------------------------------

class PolyStructure:
    """F_p[t] (or Z[t] for p = 0) with the standard symbol meanings.

    Relations: exact equality, divisibility (zero divides only zero),
    inequality, and |* where (|* g f) holds when f = g^(p^r) for some r.
    Further relations can be registered as callbacks.
    """

    def __init__(self, p: int):
        self.p = p
        self._constants = {
            "0": Poly.zero(p), "1": Poly.one(p), "t": Poly.gen(p),
        }
        self._relations: dict[str, Callable] = {
            "=": lambda a, b: a == b,
            "|": lambda a, b: poly_divides(a, b),
            "!=": lambda a, b: a != b,
        }
        if p != 0:
            self._relations["|*"] = (
                lambda a, b: ge_p_check(b, a, p) is not None
            )

    def register_relation(self, name: str, fn: Callable) -> None:
        self._relations[name] = fn

    def constant(self, name: str):
        value = self._constants.get(name)
        if value is None:
            raise ValueError(f"no constant {name!r} in F_p[t]")
        return value

    def function(self, name: str, args):
        if name == "+":
            return args[0] + args[1]
        if name == "*":
            return args[0] * args[1]
        raise ValueError(f"no function {name!r} in F_p[t]")

    def relation(self, name: str, args) -> bool:
        fn = self._relations.get(name)
        if fn is None:
            raise ValueError(f"relation {name!r} has no registered semantics")
        return fn(*args)


class IntStructure:
    """The integers with 0, 1, +, =, divisibility, inequality, and the
    p-power divisibility |*: (|* a b) holds when b = +-(p^r) * a, r >= 0."""

    def __init__(self, p: int):
        if p < 2:
            raise ValueError("the integer structure carries a prime p")
        self.p = p

    def constant(self, name: str) -> int:
        if name == "0":
            return 0
        if name == "1":
            return 1
        raise ValueError(f"no constant {name!r} over the integers")

    def function(self, name: str, args) -> int:
        if name == "+":
            return args[0] + args[1]
        if name == "*":
            return args[0] * args[1]
        raise ValueError(f"no function {name!r} over the integers")

    def _p_power_divides(self, a: int, b: int) -> bool:
        if a == 0:
            return b == 0
        q, scale = abs(a), abs(b)
        while q <= scale:
            if q == scale:
                return True
            q *= self.p
        return False

    def relation(self, name: str, args) -> bool:
        if name == "=":
            return args[0] == args[1]
        if name == "!=":
            return args[0] != args[1]
        if name == "|":
            a, b = args
            return b == 0 if a == 0 else b % a == 0
        if name == "|*":
            return self._p_power_divides(args[0], args[1])
        if name == "|_p":
            return (self._p_power_divides(args[0], args[1])
                    or self._p_power_divides(args[1], args[0]))
        if name == "T":
            return args[0] not in (-1, 0, 1)
        raise ValueError(f"relation {name!r} has no registered semantics")


# -- evaluation ------------------------------------------------------------------

def _eval_terms(terms: tuple, env: Mapping, structure, memo: dict) -> list:
    values = []
    for a in terms:
        tp = type(a)
        if tp is Var:
            if a.name not in env:
                raise ValueError(f"unassigned variable {a.name!r}")
            values.append(env[a.name])
        elif tp is Const:
            values.append(structure.constant(a.name))
        else:
            args = _eval_terms(a.args, env, structure, memo)
            if len(args) == 2:  # + and *: a third of the cost of map(id, ...)
                key = (a.fn, id(args[0]), id(args[1]))
            else:
                key = (a.fn, *map(id, args))
            hit = memo.get(key)
            if hit is None:
                # args stay alive with the result, so no id in a key is
                # reused by a later value while the memo lives
                hit = memo[key] = (args, structure.function(a.fn, args))
            values.append(hit[1])
    return values


def _eval(phi: Formula, env: Mapping, structure, memo: dict) -> bool:
    """Truth of phi with every variable it mentions, free or bound, read
    from env.  Conjunctions and disjunctions stop at the first false or
    true part, so later parts are not evaluated.  memo maps
    (function, id of each argument value) to (argument values, result), so
    a function is applied once per distinct tuple of argument objects."""
    tp = type(phi)
    if tp is Atom:
        return structure.relation(
            phi.rel, _eval_terms(phi.args, env, structure, memo)
        )
    if tp is And:
        for f in phi.parts:
            if not _eval(f, env, structure, memo):
                return False
        return True
    if tp is Or:
        for f in phi.parts:
            if _eval(f, env, structure, memo):
                return True
        return False
    if tp is Exists:
        return _eval(phi.body, env, structure, memo)
    raise TypeError(f"not a formula: {phi!r}")


def eval_qf(matrix: Formula, assignment: Mapping, p: int,
            structure=None) -> bool:
    """Truth value of a quantifier-free formula under a total assignment.

    Each function is applied once per distinct tuple of argument objects:
    the values are memoized for the length of this call only and dropped
    when it returns, so nothing is cached across calls."""
    if structure is None:
        structure = PolyStructure(p)
    if any(isinstance(f, Exists) for f in walk(matrix)):
        raise ValueError("matrix must be quantifier-free")
    return _eval(matrix, dict(assignment), structure, {})


def check_sat(phi: Formula, witness: Mapping, p: int, structure=None) -> bool:
    """Does the closed formula hold with its existentials bound as in the
    witness?  Every bound variable must be assigned up front; disjunction
    branches are all evaluated with the same witness, so untaken branches
    need (any) values too.

    Each function is applied once per distinct tuple of argument objects
    (witness values shared between names count once): the values are
    memoized for the length of this call only and dropped when it returns,
    so nothing is cached across calls."""
    if structure is None:
        structure = PolyStructure(p)
    free, bound = _scan(phi)
    if free:
        raise ValueError(f"formula is not closed; free: {sorted(free)}")
    unassigned = {name for name in bound if name not in witness}
    if unassigned:
        raise ValueError(
            f"witness does not assign bound variables {sorted(unassigned)}"
        )
    # Closed and fully assigned: each variable takes its witness value.
    return _eval(phi, witness, structure, {})


# -- utilities --------------------------------------------------------------------

def walk(phi: Formula):
    yield phi
    if isinstance(phi, (And, Or)):
        for f in phi.parts:
            yield from walk(f)
    elif isinstance(phi, Exists):
        yield from walk(phi.body)


def _vars_into(terms: tuple, scope, out: set) -> None:
    """Add the variables of terms that are not in scope to out."""
    for a in terms:
        tp = type(a)
        if tp is Var:
            if a.name not in scope:
                out.add(a.name)
        elif tp is not Const:
            _vars_into(a.args, scope, out)


def _scan_formula(phi: Formula, scope: set, free: set, bound: set) -> None:
    tp = type(phi)
    if tp is Atom:
        _vars_into(phi.args, scope, free)
    elif tp is And or tp is Or:
        for f in phi.parts:
            _scan_formula(f, scope, free, bound)
    elif tp is Exists:
        names = phi.names
        bound.update(names)
        if scope.isdisjoint(names):
            entered = names
        else:  # shadowing: the outer binder stays in scope on the way out
            entered = [n for n in names if n not in scope]
        scope.update(entered)
        _scan_formula(phi.body, scope, free, bound)
        scope.difference_update(entered)
    else:
        raise TypeError(f"not a formula: {phi!r}")


def _scan(phi: Formula) -> tuple:
    """(free names, bound names) of phi, in one walk."""
    free = set()
    bound = set()
    _scan_formula(phi, set(), free, bound)
    return free, bound


def term_vars(term: Term) -> set:
    out = set()
    _vars_into((term,), (), out)
    return out


def free_vars(phi: Formula) -> set:
    return _scan(phi)[0]


def bound_vars(phi: Formula) -> set:
    return _scan(phi)[1]


def _template_source(params: tuple, body: Formula, bound: tuple) -> tuple:
    """Source of build(a, m), body's instantiation template (interp's
    OpenFormula.template), and its constants.  Each bound name and its Var
    are built once per call, every other node gets one local (so equal
    subterms are built once and nesting stays flat), and each subterm or
    atom without a variable is a constant k<j> shared by all instances.
    Names enter the source only through repr."""
    leaf = {p: f"a[{i}]" for i, p in enumerate(params)}
    slot = {n: f"b{j}" for j, n in enumerate(bound)}
    lines = ["def build(a, m):"]
    for j, name in enumerate(bound):
        leaf[name] = f"v{j}"
        lines += [f"    b{j} = {name!r} + m", f"    v{j} = Var(b{j})"]
    lines.append(f"    new = ({''.join(b + ', ' for b in slot.values())})")
    if params and bound:
        lines.append("    guard(new, *a)")
    consts = []
    built = {}

    def const(node) -> str:
        consts.append(node)
        return f"k{len(consts) - 1}"

    def emit(node):
        """The name holding node's instance, or None if node is ground."""
        tp = type(node)
        if tp is Var or tp is Const:
            return leaf[node.name] if tp is Var else None
        kids = (node.body,) if tp is Exists else \
            node.parts if tp is And or tp is Or else node.args
        refs = []
        for kid in kids:
            refs.append(emit(kid))
        if tp is not Exists and refs.count(None) == len(refs):
            return None
        refs = [r or const(k) for k, r in zip(kids, refs)]
        if tp is Exists:
            names = "".join(slot[n] + ", " for n in node.names)
            expr = f"Exists(({names}), {refs[0]})"
        else:
            head = "" if tp is And or tp is Or else \
                repr(node.fn if tp is App else node.rel) + ", "
            expr = f"{tp.__name__}({head}({''.join(r + ', ' for r in refs)}))"
        if expr not in built:
            built[expr] = f"n{len(built)}"
            lines.append(f"    {built[expr]} = {expr}")
        return built[expr]

    lines.append(f"    return {emit(body) or const(body)}, new")
    return "\n".join(lines) + "\n", consts
