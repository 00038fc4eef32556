"""Witness synthesis, semantic ground truth, and end-to-end verification.

Every formula family in the library is backed here by a synthesizer that
builds an explicit witness from the defining data (an integer index, a
target polynomial, a Frobenius exponent).  The tests decide each family's
set directly, with no formula evaluation, and drive both against check_sat
to confirm that the formulas define exactly what they should at desk scale.

Family sentences and pair-encoded clauses are checked as Insts of their
formula.OpenFormula, so check_sat runs its compiled evaluator and
OpenFormula.bound is the one binder order: a synthesizer returns its values
in that order, and _bind pairs them with those names, refusing a count
mismatch.  Adding a family takes one FAMILIES entry and one synthesizer.

e2e_verify ties the pipeline together: it translates a closed sentence of
the star language through the standard pair encoding, converts an integer
witness into polynomial values for every bound variable of the output, and
reports pass or fail for each instantiated clause.  relation_instance does
the same for one clause.  Both build their witnesses only through
_clause_witness, from a map of tuple bases to integers and a list of clause
records.  Synthesis failures are reported, never raised; only work past
SYNTH_DEGREE_CAP raises FeasibilityError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Optional

from .algebra import (
    Poly,
    _frob_scale,
    frob_family,
    frob_pow,
    poly_divrem,
)
from .formula import (
    Exists,
    Inst,
    IntStructure,
    LANG_STAR,
    OpenFormula,
    check_sat,
    parse,
    print_formula,
)
from .interp import (
    GE_P_CHAIN_LENGTH,
    InstRecord,
    frob_powers_of_t,
    ge_p_full,
    nonzero,
    pell_domain,
    pell_interpretation,
    positive_powers_of_t,
    translate_with_trace,
    tuple_names,
)
from .pell import (
    _by_t_minus_one,
    _offset_quotient,
    pell_pairs_with_quotients,
)


# Synthesis refuses to build polynomials of degree above SYNTH_DEGREE_CAP.
# Witnesses grow as deg(base) * p^r for the Frobenius-power certificates,
# checked here, and as |n| for pairs, checked in pell.py.  phi at p = 17,
# r = 4 (degree 83,521) takes 0.02 s to synthesize and 0.8 s to check;
# r = 5 is past the cap.

# Family name -> builder of the closed sentence its witnesses satisfy.
FAMILIES = {
    "nu": lambda: Exists(("x",), nonzero()),
    "beta": lambda: Exists(("x", "y"), Exists(("u", "v"), ge_p_full())),
    "phi": lambda: Exists(("f",), frob_powers_of_t()),
    "psi": lambda: Exists(("f",), positive_powers_of_t()),
    "theta": lambda: Exists(("x", "y"), pell_domain()),
}


@dataclass(frozen=True)
class Witness:
    """A full assignment for one formula family's bound variables."""

    family: str
    p: int
    assignment: dict


@lru_cache(maxsize=None)
def family_formula(family: str) -> Inst:
    """The closed sentence a family witness is checked against, as the Inst
    of a parameterless OpenFormula, built once per family: .of.bound is its
    binder order, and check_sat runs .of.evaluate, compiled on first use."""
    if family not in FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; choose from {tuple(FAMILIES)}"
        )
    return Inst(OpenFormula((), FAMILIES[family]()), (), "")


def _bind(what: str, names: tuple, values) -> dict:
    """names paired with values, in order; the counts must agree."""
    if len(names) != len(values):
        raise ValueError(
            f"{what}: {len(values)} values for {len(names)} bound names"
        )
    return dict(zip(names, values))


@lru_cache(maxsize=None)
def _interpretation():
    """The standard pair interpretation, built once; this module only reads
    it."""
    return pell_interpretation()


def _witness(family: str, p: int, values: list) -> Witness:
    return Witness(family, p,
                   _bind(family, family_formula(family).of.bound, values))


def check_witness(w: Witness) -> bool:
    """Exact-coverage check followed by satisfaction."""
    phi = family_formula(w.family)
    need = set(phi.of.bound)
    got = set(w.assignment)
    if need != got:
        raise ValueError(
            "assignment must cover exactly the bound variables; "
            f"missing {sorted(need - got)}, extra {sorted(got - need)}"
        )
    return check_sat(phi, w.assignment, w.p)


# -- per-family synthesis -----------------------------------------------------------

def _nonzero_values(f: Poly, p: int) -> list:
    """Values (a, b, c) of the nonzero certificate for f != 0.

    Factor f = t^alpha (t-1)^beta G with G coprime to t(t-1); then the two
    Bezout identities t*u + ((t-1)^beta G)*v = 1 and
    (t-1)*s + (t^alpha G)*r = 1 give a = -u, b = -s, c = G*v*r.  Against a
    linear factor t - x with cofactor h = (t - x) q + h(x), r = h(x)^-1 and
    s = -r q solve (t - x) s + h r = 1: the unique pair with deg r < 1,
    which poly_extgcd also returns.  t^alpha is f's run of zero low
    coefficients; beta and q come from _by_t_minus_one.
    """
    if f.is_zero():
        raise ValueError("no witness: the target is zero")
    cs = list(f.data)
    alpha = next(i for i, c in enumerate(cs) if c)
    g1 = cs[alpha:]  # (t-1)^beta G, whose value at 0 is g1[0]
    gamma, (q, c) = g1, _by_t_minus_one(g1)
    while not c % p:
        gamma, (q, c) = q, _by_t_minus_one(q)
    q, c = _by_t_minus_one([0] * alpha + gamma)
    v, r = pow(g1[0], -1, p), pow(c, -1, p)
    return [Poly([v * a % p for a in g1[1:]], p),
            Poly([r * b % p for b in q], p),
            Poly([v * r * g % p for g in gamma], p)]


def synth_nonzero(f: Poly, p: int) -> Witness:
    """Witness certifying f != 0."""
    if p == 0:
        raise ValueError("the nonzero witness needs a prime modulus, got p = 0")
    return _witness("nu", p, [f] + _nonzero_values(f, p))


def synth_pair(n: int, p: int) -> Witness:
    """Domain witness (x, y, z) for the pair encoding the integer n."""
    pairs, quot = pell_pairs_with_quotients((n,), p)
    return _witness("theta", p, [pairs[n].x, pairs[n].y, quot[n]])


def _ge_p_values(g: Poly, r: int, p: int) -> list:
    """Values for the full power certificate's bound variables beyond the
    two related elements, in binder order: the conic point (u, v), then the
    three chains (GE_P_CHAIN_LENGTH sequence terms and a quotient each) for
    bases t, t*g, and g.  The largest has degree about deg(t*g) * p^r.
    Each chain's terms (i + base)^(p^r + 1) come from one frob_family call,
    which lays them out block by block, with no product, for a base of
    degree below p^r."""
    q = _frob_scale(p, r, max(len(g.data), 1))
    t = Poly.gen(p)
    one = Poly.one(p)
    out = [Poly.monomial(1, q, p), (t * t - one) ** ((q - 1) // 2)]
    for base in (t, t * g, g):
        out += frob_family(base, r, range(GE_P_CHAIN_LENGTH))
        out.append(base ** (q - 1))
    return out


def synth_ge_p(g: Poly, r: int, p: int) -> Witness:
    """Witness for the full certificate of g^(p^r) against g.

    The sequence values are (i - 1 + base)^(p^r + 1), built by
    algebra.frob_family; their second difference is 2 in any odd
    characteristic, and the three pin equations hold identically for
    x = y^(p^r).
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("odd characteristic required")
    if r < 0:
        raise ValueError("the Frobenius exponent must be nonnegative")
    rest = _ge_p_values(g, r, p)
    return _witness("beta", p, [frob_pow(g, r), g] + rest)


def synth_frob_power(r: int, p: int) -> Witness:
    """Witness that t^(p^r) lies in the Frobenius-power set, r >= 0.

    With q = p^r and s^2 = t^2 - 1, the q-th power map is additive and fixes
    F_p, so the pair of index q is (t + s)^q = t^q + s (s^2)^((q-1)/2):
    x = t^q and y = (t^2 - 1)^((q-1)/2).  Its offset quotient is
    z = (t^q - 1)/(t - 1) = 1 + t + ... + t^(q-1), and y(t + 1) is
    ((t + 1)^2 - 1)^((q-1)/2) = (t^2 + 2t)^((q-1)/2).
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("odd characteristic required")
    if r < 0:
        raise ValueError("the Frobenius exponent must be nonnegative")
    q = _frob_scale(p, r)
    x = Poly.monomial(1, q, p)
    return _witness("phi", p, [
        x,
        Poly((-1, 0, 1), p) ** ((q - 1) // 2),
        Poly((1,) * q, p),
        x + 1,
        Poly((0, 2, 1), p) ** ((q - 1) // 2),
        Poly.monomial(1, q - 1, p),
    ])


def synth_positive_power(k: int, r: int, p: int) -> Witness:
    """Witness that t^k lies in the positive-power set, via t^k | t^(p^r).

    Requires 1 <= k <= p^r so the quotient t^(p^r - k) exists.  The
    Frobenius-power witness for t^(p^r) fills the nested certificate.
    """
    inner = list(synth_frob_power(r, p).assignment.values())
    q = _frob_scale(p, r)
    if not 1 <= k <= q:
        raise ValueError(f"k must satisfy 1 <= k <= {q}")
    f = Poly.monomial(1, k, p)
    return _witness("psi", p, [f] + inner + [
        Poly.monomial(1, q - k, p),
        Poly.monomial(1, k - 1, p),
        _offset_quotient(f),
    ])


# -- end-to-end verification ---------------------------------------------------------

@dataclass(frozen=True)
class ClauseReport:
    kind: str
    values: tuple
    ok: bool


@dataclass(frozen=True)
class E2EReport:
    sentence: str
    p: int
    ok: bool
    clauses: tuple = ()
    error: str = ""
    formula_text: str = ""
    witness: Optional[dict] = field(default=None, repr=False)


def _clause_values(kind: str, ms: list, ints: IntStructure, zero: Poly,
                   pairs: dict, quot: dict, names: tuple) -> tuple:
    """(semantic truth, bound name -> value) for one clause of the standard
    pair interpretation whose bound names, in binder order, are names; kind
    is "domain" or a symbol of the pair interpretation, ints and zero are
    the integers and the zero of F_p, and pairs and quot come from
    pell_pairs_with_quotients.  Binders with no witness, in a false clause
    or an untaken disjunct, get zeros."""

    def padded(values):
        return values + [zero] * (len(names) - len(values))

    if kind == "domain":
        ok, values = True, [quot[ms[0]]]
    elif kind in ("0", "1"):
        ok, values = ms[0] == int(kind), []
    elif kind == "+":
        ok, values = ms[0] + ms[1] == ms[2], [quot[ms[0]], quot[ms[1]]]
    elif kind == "=":
        ok, values = ms[0] == ms[1], [quot[ms[0]], quot[ms[1]]]
    elif kind == "|":
        a, b = ms
        ok = ints.relation("|", (a, b))
        z = poly_divrem(pairs[b].y, pairs[a].y)[0] if ok and a else zero
        values = [z, quot[a], quot[b]]
    elif kind == "|*":
        a, b = ms
        r = ints.p_power_exponent(a, b)
        ok, values = r is not None, [quot[a], quot[b]]
        values = (values + _ge_p_values(pairs[a].x, r, ints.p) if ok
                  else padded(values))
    else:  # "!="
        a, b = ms
        ok, values = a != b, [quot[a], quot[b]]
        if pairs[a].x != pairs[b].x:
            values += _nonzero_values(pairs[a].x - pairs[b].x, ints.p)
        elif pairs[a].y != pairs[b].y:
            cert = _nonzero_values(pairs[a].y - pairs[b].y, ints.p)
            values += [zero] * len(cert) + cert
        values = padded(values)
    return ok, _bind(kind, names, values)


def _refuse_the_integers(p: int) -> None:
    """The clause witnesses of != and |* live over F_p, so p = 0 is refused
    by name; pell_pairs_with_quotients refuses p = 2 and composite p."""
    if p == 0:
        raise ValueError("the clause witnesses need a prime modulus, got 0")


def _clause_witness(values: Mapping, records, p: int) -> tuple:
    """(witness, ClauseReports) for InstRecords of the standard pair
    interpretation whose tuple bases values maps to integers: each base's
    pair under tuple_names, then each clause's bound values."""
    pairs, quot = pell_pairs_with_quotients(values.values(), p)
    dim = _interpretation().dim
    witness = {}
    for base, m in values.items():
        witness.update(zip(tuple_names(base, dim), (pairs[m].x, pairs[m].y)))
    ints, zero = IntStructure(p), Poly.zero(p)
    reports = []
    for rec in records:
        ms = [values[b] for b in rec.bases]
        ok, bound = _clause_values(rec.kind, ms, ints, zero, pairs, quot,
                                   rec.bound)
        witness.update(bound)
        reports.append(ClauseReport(rec.kind, tuple(ms), ok))
    return witness, tuple(reports)


def relation_instance(kind: str, ints, p: int):
    """One pair-encoded clause as a closed formula plus a full witness.

    kind is a star-language symbol or "domain"; ints are the integers the
    clause speaks about, operands first and function value last.  Returns
    (truth, formula, witness): truth is the direct semantic verdict, the
    formula the Inst of kind's OpenFormula on the coordinates m<i>.1, m<i>.2
    under one exists, and the witness covers every bound variable of the
    formula whenever the clause is true (placeholder zeros otherwise).
    The tuple bases m0, m1, ... and one record go to _clause_witness.
    """
    interp = _interpretation()
    of = interp.domain if kind == "domain" else interp.symbols.get(kind)
    if of is None:
        raise ValueError(f"no clause synthesis for symbol {kind!r}")
    if 2 * len(ints) != len(of.params):
        raise ValueError(
            f"symbol {kind!r} speaks about {len(of.params) // 2} integers, "
            f"got {len(ints)}"
        )
    _refuse_the_integers(p)
    bases = tuple(f"m{i}" for i in range(len(ints)))
    coords = tuple(n for base in bases for n in tuple_names(base, interp.dim))
    inst = Inst(of, coords, "")
    witness, (report,) = _clause_witness(
        dict(zip(bases, ints)), [InstRecord(kind, bases, 0, inst.bound)], p)
    return report.ok, Exists(coords, inst), witness


def e2e_verify(sentence, int_witness: Mapping, p: int) -> E2EReport:
    """Translate a closed star-language sentence through the standard pair
    interpretation, build the polynomial witness from an integer witness
    (one integer per source variable), and check satisfaction.

    Source variables take the witness's integers and constants their own.
    A binder takes the entry named by its tuple base when there is one, and
    its source name's entry otherwise: a binder that shadows n has the
    base n' (as TranslationTrace.variables spells it), so
    (exists (n) (and (= n 1) (exists (n) (= n (+ 1 1))))) verifies with
    n=1, n'=2, while n=2 alone gives both binders 2.
    A fresh tuple is the last base of one function record, emitted after
    its arguments' records, so one pass derives it: for a function symbol's
    record whose last base has no value yet, that value is the function of
    the other bases' values.  Those values and the trace's records go to
    _clause_witness.

    The report carries one line per instantiated clause with its semantic
    truth value.  Under a source-level disjunction the untaken branch's
    clauses may read as failed while the sentence still verifies; the
    overall flag is the satisfaction check of the full translated sentence.
    """
    _refuse_the_integers(p)
    phi = parse(sentence, LANG_STAR) if isinstance(sentence, str) else sentence
    text = print_formula(phi)
    interp = _interpretation()
    out, trace = translate_with_trace(interp, phi)
    formula_text = print_formula(out)

    values = {}
    for cname, base in trace.constants:
        values[base] = int(cname)
    keys = [(base if base in int_witness else src, base)
            for src, base in trace.variables]
    missing = sorted({key for key, _ in keys if key not in int_witness})
    if missing:
        return E2EReport(
            text, p, False,
            error=f"integer witness missing variables {missing}",
            formula_text=formula_text,
        )
    for key, base in keys:
        values[base] = int(int_witness[key])
    ints = IntStructure(p)
    for rec in trace.instantiations:
        *args, last = rec.bases
        if (interp.source_lang.function_arity(rec.kind) is not None
                and last not in values):
            values[last] = ints.function(rec.kind, [values[b] for b in args])

    witness, clauses = _clause_witness(values, trace.instantiations, p)
    return E2EReport(
        text, p, check_sat(out, witness, p), clauses,
        formula_text=formula_text, witness=witness,
    )
