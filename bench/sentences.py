"""Random closed star-language sentences and their integer truth.

A sentence is a nested tuple:

    ("exists", names, body)       one block of existential variables
    ("and", parts) / ("or", parts)
    (rel, left, right)            rel in =, |, |*, !=
    terms: a variable name, "0", "1", or ("+", left, right)

`text` prints it as the s-expression the compiler parses, and `holds`
decides it over the integers under an assignment.  The evaluator is the
benchmark's own ground truth and does not import the program under test.

`sentence_batch` draws a batch whose make-up is fixed: nesting shapes and
variable counts cycle, and each sentence deals its relations and term
shapes from its own decks of shuffled copies of each kind.  Seeds then
change which atom sits where and which witness is drawn, but hardly how
much compiling each sentence takes, so timings of different seeds compare.
"""

from __future__ import annotations

import random

RELATIONS = ("=", "|", "|*", "!=")
NAMES = ("a", "b", "c")
WITNESS_RANGE = (-3, 3)

# Body shapes: 0 is a bare atom, n > 0 a connective over n atoms, a tuple
# a connective over the shapes it lists.  Depths 0 to 2.
SHAPES = (0, 2, 3, (2, 0), (2, 2), (3, 2))
# Term shapes: variable, constant, a sum of two leaves, a sum whose left
# side is itself a sum.
TERM_SHAPES = ("var", "const", "sum", "sum2")
# Sentences per full cycle of shapes times variable counts.
CYCLE = len(SHAPES) * len(NAMES)


def _atoms_in(shape) -> int:
    if shape == 0:
        return 1
    if isinstance(shape, int):
        return shape
    return sum(_atoms_in(s) for s in shape)


def _deck(rng: random.Random, items, size: int) -> list:
    """size items: shuffled copies of items, one after another, cut."""
    deck = []
    while len(deck) < size:
        block = list(items)
        rng.shuffle(block)
        deck.extend(block)
    return deck[:size]


def _leaf(rng: random.Random, names):
    return rng.choice(names) if rng.random() < 0.8 else rng.choice("01")


def _term(rng: random.Random, names, shape: str):
    if shape == "var":
        return rng.choice(names)
    if shape == "const":
        return rng.choice("01")
    if shape == "sum":
        return ("+", _leaf(rng, names), _leaf(rng, names))
    return ("+", ("+", _leaf(rng, names), _leaf(rng, names)),
            _leaf(rng, names))


def _body(rng: random.Random, shape, atom):
    if shape == 0:
        return atom()
    op = rng.choice(("and", "or"))
    if isinstance(shape, int):
        return (op, tuple(atom() for _ in range(shape)))
    return (op, tuple(_body(rng, s, atom) for s in shape))


def sentence_batch(rng: random.Random, cycles: int) -> list:
    """[(sentence, witness)]: cycles * CYCLE sentences with 1-3 existential
    variables, and/or nesting to depth 2, and integer witnesses drawn from
    WITNESS_RANGE."""
    out = []
    for i in range(cycles * CYCLE):
        shape = SHAPES[i % len(SHAPES)]
        names = NAMES[:1 + (i // len(SHAPES)) % len(NAMES)]
        n_atoms = _atoms_in(shape)
        relations = _deck(rng, RELATIONS, n_atoms)
        terms = _deck(rng, TERM_SHAPES, 2 * n_atoms)

        def atom():
            return (relations.pop(), _term(rng, names, terms.pop()),
                    _term(rng, names, terms.pop()))

        body = _body(rng, shape, atom)
        witness = {n: rng.randint(*WITNESS_RANGE) for n in names}
        out.append((("exists", names, body), witness))
    return out


def text(node) -> str:
    if isinstance(node, str):
        return node
    head = node[0]
    if head == "exists":
        return f"(exists ({' '.join(node[1])}) {text(node[2])})"
    if head in ("and", "or"):
        return f"({head} {' '.join(text(f) for f in node[1])})"
    return f"({head} {text(node[1])} {text(node[2])})"


def _value(term, env) -> int:
    if isinstance(term, tuple):
        return _value(term[1], env) + _value(term[2], env)
    if term in ("0", "1"):
        return int(term)
    return env[term]


def _p_power_multiple(a: int, b: int, p: int) -> bool:
    """b = +-(p^r) * a for some r >= 0."""
    if a == 0:
        return b == 0
    a, b = abs(a), abs(b)
    while a < b:
        a *= p
    return a == b


def holds(node, env, p: int) -> bool:
    """Truth over the integers, existentials bound as in env."""
    head = node[0]
    if head == "exists":
        return holds(node[2], env, p)
    if head == "and":
        return all(holds(f, env, p) for f in node[1])
    if head == "or":
        return any(holds(f, env, p) for f in node[1])
    a, b = _value(node[1], env), _value(node[2], env)
    if head == "=":
        return a == b
    if head == "!=":
        return a != b
    if head == "|":
        return b == 0 if a == 0 else b % a == 0
    if head == "|*":
        return _p_power_multiple(a, b, p)
    raise ValueError(f"unknown relation {head!r}")


def relation_counts(node, counts: dict) -> None:
    """Add the atoms of node, by relation, into counts."""
    head = node[0]
    if head == "exists":
        relation_counts(node[2], counts)
    elif head in ("and", "or"):
        for f in node[1]:
            relation_counts(f, counts)
    else:
        counts[head] = counts.get(head, 0) + 1
