"""Soundness gates: a library formula holds exactly where its relation does.

Each gate sweeps candidates, fills every bound name with the value the
formula forces (computed here from the candidate, never by a synthesizer)
and asks check_sat.  Where a forced value fails to exist, as a quotient
with a remainder or a root of a non-square, the gate still evaluates the
formula at the quotient (or at zero) and expects a refusal, since no value
could satisfy it there.  The verdicts must equal ground truth that these
tests compute in the integers.

|* and beta are not gated: their chain certificate is not yet sound.
"""

from itertools import product

import pytest

from zinterp.algebra import Poly, poly_divrem
from zinterp.buchi import square_root_poly
from zinterp.formula import Exists, Inst, check_sat
from zinterp.interp import OpenFormula, frob_powers_of_t, pell_interpretation
from zinterp.pell import pell_pair


def _holds(of: OpenFormula, values: dict, p: int) -> bool:
    """check_sat of of's instance at its own parameter names, with values
    covering its parameters and every bound name."""
    return check_sat(Exists(of.params, Inst(of, of.params, "")), values, p)


def _offset_quotient(x: Poly) -> Poly:
    """(x - 1) div (t - 1), the remainder dropped."""
    p = x.modulus
    return poly_divrem(x - Poly.one(p), Poly((-1, 1), p))[0]


@pytest.mark.parametrize("p, d", [(3, 3), (5, 2), (7, 1)])
def test_the_domain_accepts_exactly_the_pell_pairs(p, d):
    """Over the box deg x <= d + 1, deg y <= d.  Where x(1) = 1, z is
    forced by x + z = 1 + tz and the formula's verdict is exact.  Where
    x(1) is not 1 no z satisfies that atom, so those candidates are
    rejected; the gate still evaluates the ones with x(1) = -1, where the
    conic's solutions (-x_n, y_n) lie, so that a weakened unit-offset atom
    shows."""
    domain = pell_interpretation().domain
    accepted = set()
    for xs in product(range(p), repeat=d + 2):
        at_one = sum(xs) % p
        if at_one not in (1, p - 1):
            continue
        x = Poly(xs, p)
        z = _offset_quotient(x)
        for ys in product(range(p), repeat=d + 1):
            if _holds(domain, {"x": x, "y": Poly(ys, p), "z": z}, p):
                assert at_one == 1, (xs, ys)
                accepted.add((xs, ys))
    pairs = {pell_pair(n, p) for n in range(-d - 1, d + 2)}
    assert accepted == {
        (tuple(pair.x.coeff(k) for k in range(d + 2)),
         tuple(pair.y.coeff(k) for k in range(d + 1)))
        for pair in pairs
    }


@pytest.mark.parametrize("p", [3, 5, 17])
def test_divisibility_holds_exactly_when_a_divides_b(p):
    """z1 and z2 are the offset quotients of the pairs' x, and v = yz forces
    z = v div y (any z when y = 0, so z = 0 decides)."""
    divides = pell_interpretation().symbols["|"]
    pairs = {n: pell_pair(n, p) for n in range(-20, 21)}
    for a, b in product(pairs, repeat=2):
        x, y, u, v = pairs[a].x, pairs[a].y, pairs[b].x, pairs[b].y
        z = poly_divrem(v, y)[0] if not y.is_zero() else Poly.zero(p)
        values = {"x": x, "y": y, "u": u, "v": v, "z": z,
                  "z1": _offset_quotient(x), "z2": _offset_quotient(u)}
        truth = b == 0 if a == 0 else b % a == 0
        assert _holds(divides, values, p) == truth, (a, b)


INTEGER_RELATIONS = {
    "0": lambda a: a == 0,
    "1": lambda a: a == 1,
    "=": lambda a, b: a == b,
    "+": lambda a, b, c: a + b == c,
}


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("sym", sorted(INTEGER_RELATIONS))
def test_symbol_holds_exactly_when_the_integer_relation_does(sym, p):
    """The bound names, z1 and z2 of the operands' domains for = and +,
    are forced to the offset quotients of the first two operands' x, so
    one evaluation decides each index tuple."""
    of = pell_interpretation().symbols[sym]
    relation = INTEGER_RELATIONS[sym]
    pairs = {n: pell_pair(n, p) for n in range(-4, 5)}
    for ns in product(pairs, repeat=len(of.params) // 2):
        values = dict(zip(of.params, (c for n in ns
                                      for c in (pairs[n].x, pairs[n].y))))
        values.update(zip(of.bound, (_offset_quotient(pairs[n].x)
                                     for n in ns)))
        assert _holds(of, values, p) == relation(*ns), ns


@pytest.mark.parametrize("p", [3, 5, 7])
def test_frobenius_powers_of_t_are_exactly_the_p_power_indices(p):
    """f = x_n for a Pell index n.  u = f + 1, g = f div t and
    h = (f - 1) div (t - 1) are forced, y is forced up to sign, and v is
    a square root of (u^2 - 1) / (t^2 + 2t) when that is an exact square
    (zero otherwise).  The passing indices are exactly +-p^r."""
    of = OpenFormula(("f",), frob_powers_of_t())
    t, one = Poly.gen(p), Poly.one(p)
    p_powers = {p ** r for r in range(5)}
    for n in range(-60, 61):
        pair = pell_pair(n, p)
        u = pair.x + one
        q, rem = poly_divrem(u * u - one, Poly((0, 2, 1), p))
        v = square_root_poly(q) if rem.is_zero() else None
        values = {"f": pair.x, "y": pair.y, "h": _offset_quotient(pair.x),
                  "u": u, "g": poly_divrem(pair.x, t)[0],
                  "v": v if v is not None else Poly.zero(p)}
        assert _holds(of, values, p) == (abs(n) in p_powers), n
