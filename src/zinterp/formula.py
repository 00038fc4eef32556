"""Positive-existential formulas and library formulas: parsing, evaluation.

The formula type has exactly four constructors: atoms, conjunction,
disjunction, and existential quantification (Inst, an unexpanded instance
of a library formula, abbreviates a tree of them).  Negation, implication,
and universal quantification do not exist as nodes, so everything built
here is positive-existential by construction.  Inequality, where needed, is
an ordinary relation symbol with registered semantics, not a negation.

Nodes are slots dataclasses, a half to a third as costly to build as frozen
ones, with the same == and hash.  They stay immutable by convention: no code
assigns a field of a built node, because one node may sit in many formulas
(TRUE, interp's T_CONST, ONE and ZERO).  A library formula is an
OpenFormula; its one instantiation routine, OpenFormula.template, builds
every node afresh but shares the body's Const leaves and the arguments.

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

import functools
import re
import sys
from dataclasses import dataclass, field
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


@dataclass(slots=True, unsafe_hash=True)
class Inst:
    """The OpenFormula of, unexpanded, with the variable names[i] for its
    i-th parameter and each bound name b renamed to b + mark: the printer
    reads of per instance, and the evaluator runs of.evaluate, compiled once
    per library formula.  bound holds the renamed bound names in binder
    order, built once here; the scan and the evaluator read them, and it
    takes no part in ==, hash or repr.  body substitutes into of.body on
    each read (of.template)."""

    of: OpenFormula
    names: tuple
    mark: str
    bound: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        mark = self.mark
        self.bound = tuple([b + mark for b in self.of.bound])

    # The plain instance, built on each read.  bench/spans.py's atom count
    # walks through it, as into the body of any non-atom without parts.
    @property
    def body(self) -> "Formula":
        return self.of.template(tuple([Var(n) for n in self.names]),
                                self.mark)[0]


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
# Every walk but walk() recurses once per level: under the default limit, an
# and chain under one exists translates up to 983 levels deep, and prints
# and scans (free_vars) up to 994 and 993.  Library formulas and translated
# sentences stay under 20 levels.
MAX_PARSE_DEPTH = 200


def _depth_limited(fn):
    """fn with the recursion limit reported as a ValueError.  The walks
    recurse once per nesting level, so a formula built in code may nest
    only about sys.getrecursionlimit() levels deep (parse refuses text
    deeper than MAX_PARSE_DEPTH)."""
    @functools.wraps(fn)
    def limited(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise ValueError(
                "formula nested too deeply: its walks recurse once per level, "
                f"up to the recursion limit of {sys.getrecursionlimit()}"
            ) from None
    return limited


# Every character but whitespace starts a token; a lone '"' is one that has
# no closing quote.
_TOKEN_RE = re.compile(r'\(|\)|"[^"]*"|[^\s()"]+|"')


def _tokenize(text: str):
    tokens = [(m.group(0), m.start()) for m in _TOKEN_RE.finditer(text)]
    for tok, pos in tokens:
        if tok == '"':
            raise ValueError(f"unreadable character {tok!r} at position {pos}")
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


def _parse_args(ts: _TokenStream, lang: Lang, kind: str, name: str,
                arity: int, hpos: int) -> tuple:
    """The terms up to the closing ')' of an application of the kind
    ("function" or "relation") name at position hpos, arity of them."""
    args = []
    while ts.peek()[0] != ")":
        args.append(_parse_term(ts, lang))
    ts.expect(")")
    if len(args) != arity:
        raise ValueError(
            f"{kind} {name!r} at position {hpos} takes {arity} "
            f"arguments, got {len(args)}"
        )
    return tuple(args)


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
        return App(head, _parse_args(ts, lang, "function", head, arity, hpos))
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
    return Atom(rel, _parse_args(ts, lang, "relation", rel, arity, hpos))


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
    if tp is Inst:
        out.append(phi.of.print_format.format(*phi.names, m=phi.mark))
        return
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


@_depth_limited
def print_formula(phi: Formula) -> str:
    out = []
    _print_formula(phi, out)
    return "".join(out)


# -- structures ------------------------------------------------------------------

class PolyStructure:
    """F_p[t] (or Z[t] for p = 0) with the standard symbol meanings.

    Relations: exact equality, divisibility (zero divides only zero),
    inequality, and |* where (|* g f) holds when f = g^(p^r) for some r.
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
            self._relations["|*"] = lambda a, b: ge_p_check(b, a) is not None

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

    def p_power_exponent(self, a: int, b: int) -> Optional[int]:
        """The r >= 0 with |b| = p^r |a|, or None if there is none; a = b = 0
        gives 0."""
        if a == 0:
            return 0 if b == 0 else None
        q, scale, r = abs(a), abs(b), 0
        while q < scale:
            q *= self.p
            r += 1
        return r if q == scale else None

    def relation(self, name: str, args) -> bool:
        if name == "=":
            return args[0] == args[1]
        if name == "!=":
            return args[0] != args[1]
        if name == "|":
            a, b = args
            return b == 0 if a == 0 else b % a == 0
        if name == "|*":
            return self.p_power_exponent(args[0], args[1]) is not None
        if name == "|_p":
            return (self.p_power_exponent(args[0], args[1]) is not None
                    or self.p_power_exponent(args[1], args[0]) is not None)
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
    true part, so later parts are not evaluated.  An Inst runs its library
    formula's compiled evaluator (OpenFormula.evaluate), which makes
    the calls this walk makes on the expanded instance, in the same order,
    without building it.  memo maps (function, id of each argument value) to
    (argument values, result), so a function is applied once per distinct
    tuple of argument objects."""
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
    if tp is Inst:
        return phi.of.evaluate(env, phi.names, phi.bound, structure, memo)
    raise TypeError(f"not a formula: {phi!r}")


@_depth_limited
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


@_depth_limited
def check_sat(phi: Formula, witness: Mapping, p: int, structure=None) -> bool:
    """Does the closed formula hold with its existentials bound as in the
    witness?  Every bound variable must be assigned up front; disjunction
    branches are all evaluated with the same witness, so untaken branches
    need (any) values too.

    Each function is applied once per distinct tuple of argument objects
    (witness values shared between names count once): the values are
    memoized for the length of this call only and dropped when it returns,
    so nothing is cached across calls.  The result and every structure call
    are those of check_sat(expand(phi), ...): an Inst runs the compiled
    evaluator of its library formula.  A formula nested deeper than the
    recursion limit allows is refused with ValueError."""
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
    """Every node of phi in preorder, lazily, off an explicit stack, so any
    nesting depth is walked."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (And, Or)):
            stack += reversed(node.parts)
        elif isinstance(node, (Exists, Inst)):
            stack.append(node.body)


def _expand(phi: Formula) -> Formula:
    tp = type(phi)
    if tp is Inst:
        return phi.body
    if tp is And or tp is Or:
        return tp(tuple([_expand(f) for f in phi.parts]))
    if tp is Exists:
        return Exists(phi.names, _expand(phi.body))
    return phi


@_depth_limited
def expand(phi: Formula) -> Formula:
    """phi with every Inst replaced by its body: the plain tree."""
    return _expand(phi)


def _vars_into(terms: tuple, scope, out: set) -> None:
    """Add the variables of terms that are not in scope to out."""
    for a in terms:
        tp = type(a)
        if tp is Var:
            if a.name not in scope:
                out.add(a.name)
        elif tp is not Const:
            _vars_into(a.args, scope, out)


def _scan_formula(phi: Formula, scope: set, free: set, bound: list) -> None:
    tp = type(phi)
    if tp is Atom:
        _vars_into(phi.args, scope, free)
    elif tp is And or tp is Or:
        for f in phi.parts:
            _scan_formula(f, scope, free, bound)
    elif tp is Exists:
        names = phi.names
        bound.extend(names)
        if scope.isdisjoint(names):
            entered = names
        else:  # shadowing: the outer binder stays in scope on the way out
            entered = [n for n in names if n not in scope]
        scope.update(entered)
        _scan_formula(phi.body, scope, free, bound)
        scope.difference_update(entered)
    elif tp is Inst:  # arguments end in .i, which no bound name does
        of = phi.of
        bound.extend(phi.bound)
        free.update([n for p, n in zip(of.params, phi.names)
                     if p in of.free and n not in scope])
    else:
        raise TypeError(f"not a formula: {phi!r}")


def _scan(phi: Formula) -> tuple:
    """(free names, bound names) of phi, in one walk: a set and a list, the
    list in binder order (top-down, left to right, as walk yields them)."""
    free = set()
    bound = []
    _scan_formula(phi, set(), free, bound)
    return free, bound


def term_vars(term: Term) -> set:
    out = set()
    _vars_into((term,), (), out)
    return out


@_depth_limited
def free_vars(phi: Formula) -> set:
    return _scan(phi)[0]


@_depth_limited
def bound_vars(phi: Formula) -> set:
    return set(_scan(phi)[1])


def _substitute(phi, sub: Mapping):
    """phi (a formula or term without Inst nodes) with sub[n] for each Var
    named n in sub, and each bound name n renamed to sub[n].name, so sub
    maps every bound name of phi to a Var."""
    tp = type(phi)
    if tp is Var:
        return sub.get(phi.name, phi)
    if tp is Const:
        return phi
    if tp is App or tp is Atom:
        return tp(phi.fn if tp is App else phi.rel,
                  tuple([_substitute(a, sub) for a in phi.args]))
    if tp is And or tp is Or:
        return tp(tuple([_substitute(f, sub) for f in phi.parts]))
    return Exists(tuple([sub[n].name for n in phi.names]),
                  _substitute(phi.body, sub))


def _unassigned(name: str):
    raise ValueError(f"unassigned variable {name!r}")


def _apply(memo: dict, key: tuple, function, name: str, args: list) -> tuple:
    # args stay alive with the result, so no id in a key is reused by a
    # later value while the memo lives
    hit = memo[key] = (args, function(name, args))
    return hit


def _group_source(name: str, atoms: list, kind, leaf: dict) -> str:
    """Source of name(env, names, bound, structure, memo): the atoms
    evaluated in order as the parts of an And (kind), an Or, or alone (kind
    None, the relation's value returned as is).  It makes the calls _eval
    makes on their instance, in the same order: a variable is read from env
    at its first use (leaf[name] is the expression of its key there), a
    constant at each use, and an application goes through the memo.  A
    subterm without a constant is evaluated once per group: an atom is
    reached only after every earlier atom of the group, and a repeat would
    hit the memo."""
    lines = []
    held = {}  # subterms without a constant -> the local holding the value
    uses = {"r = structure.relation"}

    def value(node) -> tuple:
        """(local holding node's value, whether node has no constant)."""
        if node in held:
            return held[node], True
        tp = type(node)
        args = [] if tp is Var or tp is Const else [value(a) for a in node.args]
        v = f"v{len(lines)}"  # one line per local, so the names differ
        if tp is Var:
            key = leaf[node.name]
            lines.append(f"    try: {v} = env[{key}]\n"
                         f"    except KeyError: unassigned({key})")
            held[node] = v
            return v, True
        if tp is Const:
            uses.add("c = structure.constant")
            lines.append(f"    {v} = c({node.name!r})")
            return v, False
        uses.update(("f = structure.function", "get = memo.get"))
        ids = "".join(f" id({a})," for a, _ in args)
        values = ", ".join(a for a, _ in args)
        lines.append(f"    {v} = (get(k := ({node.fn!r},{ids})) or "
                     f"apply(memo, k, f, {node.fn!r}, [{values}]))[1]")
        pure = all(p for _, p in args)
        if pure:
            held[node] = v
        return v, pure

    for atom in atoms:
        call = f"r({atom.rel!r}, [{', '.join(value(a)[0] for a in atom.args)}])"
        if kind is None:
            lines.append(f"    return {call}")
        elif kind is And:
            lines.append(f"    if not {call}: return False")
        else:
            lines.append(f"    if {call}: return True")
    if kind is not None:
        lines.append(f"    return {kind is And}")
    head = [f"def {name}(env, names, bound, structure, memo):"]
    return "\n".join(head + ["    " + u for u in sorted(uses)] + lines) + "\n"


def _evaluator(params: tuple, body: Formula, bound: tuple):
    """body's evaluator (OpenFormula.evaluate), compiled: the
    function evaluate(env, names, bound, structure, memo), which is _eval of
    the instance with the variable names[i] for parameter i and bound[j]
    for the j-th of body's bound names (Inst.bound, the renamed names in
    binder order), under env, without building it.  Each run of
    consecutive atoms in a conjunction or disjunction (an exists is
    transparent) is one group function, compiled on its own, and evaluate
    is the and/or skeleton over the group calls: under tracemalloc, the 59
    atoms of the largest library body (|*) compiled as one function make
    the compiler peak at 5.1 MB, its largest group (18 atoms) at 1.5 MB.
    Names enter the source only through repr."""
    leaf = {p: f"names[{i}]" for i, p in enumerate(params)}
    leaf.update((b, f"bound[{j}]") for j, b in enumerate(bound))
    scope = {"unassigned": _unassigned, "apply": _apply}
    groups = []

    def group(atoms: list, kind) -> str:
        name = f"g{len(groups)}"
        groups.append(name)
        source = _group_source(name, atoms, kind, leaf)
        exec(compile(source, "<library evaluator>", "exec"), scope)
        return f"{name}(env, names, bound, structure, memo)"

    def skeleton(node) -> str:
        while type(node) is Exists:
            node = node.body
        tp = type(node)
        if tp is Atom:
            return group([node], None)
        if tp is not And and tp is not Or:
            raise TypeError(f"not a formula: {node!r}")
        calls, run = [], []
        for part in node.parts:
            while type(part) is Exists:
                part = part.body
            if type(part) is Atom:
                run.append(part)
                continue
            if run:
                calls.append(group(run, tp))
                run = []
            calls.append(skeleton(part))
        if run:
            calls.append(group(run, tp))
        if not calls:
            return str(tp is And)
        return "(" + (" and " if tp is And else " or ").join(calls) + ")"

    source = ("def evaluate(env, names, bound, structure, memo):\n"
              f"    return {skeleton(body)}\n")
    exec(compile(source, "<library evaluator>", "exec"), scope)
    return scope["evaluate"]


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
        clash = set().union(*map(term_vars, args)).intersection(new)
        if clash:
            raise ValueError(
                f"argument variables {sorted(clash)} collide with bound "
                "names; pass a different mark"
            )
        sub = dict(zip(self.params, args))
        sub.update((b, Var(n)) for b, n in zip(self.bound, new))
        return _substitute(self.body, sub), new

    @functools.cached_property
    def evaluate(self):
        """The evaluator of an instance, compiled on first use.
        evaluate(env, names, bound, structure, memo) is the truth of the
        instance template(names as Vars, mark) under env, where bound is
        that instance's Inst.bound (the renamed bound names), with the calls
        of _eval on it, in its order, made without building it."""
        return _evaluator(self.params, self.body, self.bound)

    @functools.cached_property
    def print_format(self) -> str:
        """An instance's text as a str.format string, {i} for argument i and
        {m} for the mark, from holes printed "i" and "m" (no '"' otherwise)."""
        holes = tuple(Var(f'"{i}"') for i in range(len(self.params)))
        text = print_formula(self.template(holes, '"m"')[0])
        text = text.replace("{", "{{").replace("}", "}}")
        return re.sub(r'"(\d+|m)"', r"{\1}", text)
