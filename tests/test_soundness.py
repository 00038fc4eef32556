"""Soundness gates: a library formula holds exactly where its relation does.

Each gate sweeps candidates, fills every bound name with the value the
formula forces (computed here from the candidate, never by a synthesizer)
and asks check_sat.  Where a forced value fails to exist, as a quotient
with a remainder or a root of a non-square, the gate still evaluates the
formula at the quotient (or at zero) and expects a refusal, since no value
could satisfy it there.  The verdicts must equal ground truth that these
tests compute in the integers.

Gated here: the pair domain, the symbols 0, 1, =, +, | and != of the pair
interpretation, the sets phi (Frobenius powers of t) and psi (positive
powers of t), and the nonzero test nu.  For nu and != the gate checks both
directions apart: nonzero values and distinct indices hold with Bezout
certificates built here, and zero and equal ones are refused over a full
box of certificates.  |* and beta are not gated: their chain certificate
is not yet sound.
"""

from itertools import product

import pytest

from zinterp.algebra import Poly, poly_divrem, poly_extgcd
from zinterp.buchi import square_root_poly
from zinterp.formula import Exists, Inst, check_sat
from zinterp.interp import (OpenFormula, frob_powers_of_t, nonzero,
                            pell_interpretation, positive_powers_of_t)
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


def _frob_power_values(pair) -> dict:
    """The values frob_powers_of_t forces at f = pair.x, keyed by its bound
    names: y is the pair's y (forced up to sign), h = (f - 1) div (t - 1),
    u = f + 1, g = f div t, and v a square root of (u^2 - 1) / (t^2 + 2t)
    when that is an exact square (zero otherwise)."""
    p = pair.p
    one = Poly.one(p)
    u = pair.x + one
    q, rem = poly_divrem(u * u - one, Poly((0, 2, 1), p))
    v = square_root_poly(q) if rem.is_zero() else None
    return {"y": pair.y, "h": _offset_quotient(pair.x), "u": u,
            "g": poly_divrem(pair.x, Poly.gen(p))[0],
            "v": v if v is not None else Poly.zero(p)}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_frobenius_powers_of_t_are_exactly_the_p_power_indices(p):
    """f = x_n for a Pell index n, with the other names forced (see
    _frob_power_values).  The passing indices are exactly +-p^r."""
    of = OpenFormula(("f",), frob_powers_of_t())
    p_powers = {p ** r for r in range(5)}
    for n in range(-60, 61):
        pair = pell_pair(n, p)
        values = {"f": pair.x, **_frob_power_values(pair)}
        assert _holds(of, values, p) == (abs(n) in p_powers), n


@pytest.mark.parametrize("p, d", [(3, 3), (5, 2)])
def test_positive_powers_of_t_are_exactly_the_monomials(p, d):
    """Over the box deg f <= d, with h = t^(p^r) for r <= 2 and the
    Frobenius-power names of h forced (positive_powers_of_t instantiates
    frob_powers_of_t at h with mark "0"), w1 = h div f, w2 = f div t and
    w3 = (f - 1) div (t - 1), remainders dropped.  Each quotient is forced
    where it exists, so the accepted set is exactly {t^k : 1 <= k <= d}."""
    of = OpenFormula(("f",), positive_powers_of_t())
    t = Poly.gen(p)
    powers = []
    for r in range(3):
        pair = pell_pair(p ** r, p)
        forced = _frob_power_values(pair)
        powers.append((pair.x, {name + "0": forced[name] for name in forced}))
    accepted = set()
    for cs in product(range(p), repeat=d + 1):
        f = Poly(cs, p)
        for h, forced in powers:
            values = {"f": f, "h": h, **forced,
                      "w1": Poly.zero(p) if f.is_zero()
                      else poly_divrem(h, f)[0],
                      "w2": poly_divrem(f, t)[0], "w3": _offset_quotient(f)}
            if _holds(of, values, p):
                accepted.add(f)
    assert accepted == {Poly.monomial(1, k, p) for k in range(1, d + 1)}


def _nonzero_certificate(f: Poly) -> tuple:
    """(a, b, c) with (ta + 1)((t - 1)b + 1) = fc, for f != 0, by Bezout:
    with f = t^alpha f1 and f1(0) != 0, u t + v f1 = 1 gives a = -u and
    ta + 1 = v f1, and s (t - 1) + r t^alpha = 1 gives b = -s and
    (t - 1)b + 1 = r t^alpha, so c = v r."""
    p = f.modulus
    t, one = Poly.gen(p), Poly.one(p)
    alpha = next(i for i, c in enumerate(f.data) if c)
    f1 = poly_divrem(f, Poly.monomial(1, alpha, p))[0]
    _, u, v = poly_extgcd(t, f1)
    _, s, r = poly_extgcd(t - one, Poly.monomial(1, alpha, p))
    return -u, -s, v * r


@pytest.mark.parametrize("p, d", [(3, 2), (5, 1)])
def test_nonzero_holds_exactly_off_zero(p, d):
    """Over every x of degree <= d: a nonzero x holds at the certificate
    _nonzero_certificate builds, and x = 0 is refused at every (a, b, c)
    of degree <= 1, since (ta + 1)((t - 1)b + 1) is never zero."""
    of = OpenFormula(("x",), nonzero())
    box = [Poly((c0, c1), p) for c0 in range(p) for c1 in range(p)]
    for cs in product(range(p), repeat=d + 1):
        x = Poly(cs, p)
        if not x.is_zero():
            cert = dict(zip("abc", _nonzero_certificate(x)))
            assert _holds(of, {"x": x, **cert}, p), cs
            continue
        for cert in product(box, repeat=3):
            assert not _holds(of, {"x": x, **dict(zip("abc", cert))}, p), cert


@pytest.mark.parametrize("p", [3, 5, 7])
def test_unequal_holds_on_distinct_indices_with_bezout_certificates(p):
    """For a != b, the disjunct of a coordinate that differs holds with the
    certificate _nonzero_certificate builds, the other disjunct at zeros."""
    of = pell_interpretation().symbols["!="]
    zero = Poly.zero(p)
    pairs = {n: pell_pair(n, p) for n in range(-4, 5)}
    for a, b in product(pairs, repeat=2):
        if a == b:
            continue
        (x, y), (u, v) = (pairs[a].x, pairs[a].y), (pairs[b].x, pairs[b].y)
        cert = [zero] * 6
        if x != u:
            cert[:3] = _nonzero_certificate(x - u)
        else:
            cert[3:] = _nonzero_certificate(y - v)
        values = {"x": x, "y": y, "u": u, "v": v,
                  "z1": _offset_quotient(x), "z2": _offset_quotient(u),
                  **dict(zip(("a1", "b1", "c1", "a2", "b2", "c2"), cert))}
        assert _holds(of, values, p), (a, b)


def test_unequal_refuses_equal_indices_over_a_full_box():
    """For a = b, each disjunct is refused at every (a_i, b_i, c_i) of
    degree <= 1 over F_3, the other disjunct at zeros: (ta + 1)((t - 1)b
    + 1) is never zero, so no certificate shows a zero difference."""
    p = 3
    of = pell_interpretation().symbols["!="]
    zero = Poly.zero(p)
    box = [Poly((c0, c1), p) for c0 in range(p) for c1 in range(p)]
    for n in range(-4, 5):
        pair = pell_pair(n, p)
        z = _offset_quotient(pair.x)
        base = {"x": pair.x, "y": pair.y, "u": pair.x, "v": pair.y,
                "z1": z, "z2": z}
        for taken, other in (("1", "2"), ("2", "1")):
            for cert in product(box, repeat=3):
                values = {**base,
                          **{name + other: zero for name in "abc"},
                          **{name + taken: c for name, c in zip("abc", cert)}}
                assert not _holds(of, values, p), (n, taken, cert)
