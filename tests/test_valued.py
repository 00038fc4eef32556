"""Truncated series, valuations, and Newton polygon laws."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zinterp.algebra import INTEGER_MUL_WORK_LIMIT, FeasibilityError, Poly
from zinterp.valued import (
    LaurentTrunc,
    NewtonPolygon,
    PrecisionError,
    ValCoeff,
    format_series,
    hull_uncertainty,
    lower_hull,
    newton_polygon,
    norm_one_monomial,
    parse_series,
    polygon_sum,
    reflect,
    series_mul,
    theta_series,
)


def S(data, p=5, q_prec=8, **kw):
    return LaurentTrunc.from_dict(data, p, q_prec, **kw)


# -- coefficients -------------------------------------------------------------


def test_valcoeff_basics():
    c = ValCoeff.make("q^2 + 1", 5, 8)
    assert c.valuation() == 0
    assert ValCoeff.make("q^3", 5, 8).valuation() == 3
    z = ValCoeff((), 5, 8, exact=True)
    assert z.is_exact_zero() and z.valuation() is None
    masked = ValCoeff((0, 0, 0, 0, 0, 0, 0, 0, 1), 5, 8, exact=False)
    assert masked.is_zero_at_precision() and not masked.is_exact_zero()


def test_valcoeff_arith_precision():
    a = ValCoeff.make("q", 5, 8)
    b = ValCoeff.make("q^7 + 4*q", 5, 6)
    s = a + b
    assert s.prec == 6
    # exact inputs keep an exact sum even past the precision index ...
    assert s.exact and s.qcoeffs == (0,) * 7 + (1,)
    # ... but forcing the shared precision masks it honestly
    assert s.at_precision(6).is_zero_at_precision()
    assert not s.at_precision(6).exact
    prod = ValCoeff.make("q^5 + 1", 5, 8) * ValCoeff.make("q^5 + 1", 5, 8)
    assert prod.qcoeffs == (1, 0, 0, 0, 0, 2)  # q^10 truncated away
    assert not prod.exact


def _schoolbook_add(x, y):
    """ValCoeff.__add__ before it went through Poly."""
    a, b = x.qcoeffs, y.qcoeffs
    if len(a) < len(b):
        a, b = b, a
    cs = list(a)
    for i, c in enumerate(b):
        cs[i] = (cs[i] + c) % x.p
    return ValCoeff(tuple(cs), x.p, min(x.prec, y.prec), x.exact and y.exact)


def _schoolbook_mul(x, y):
    """ValCoeff.__mul__ before it went through Poly."""
    prec = min(x.prec, y.prec)
    if not x.qcoeffs or not y.qcoeffs:
        return ValCoeff((), x.p, prec, x.is_exact_zero() or y.is_exact_zero())
    n = len(x.qcoeffs) + len(y.qcoeffs) - 1
    cs = [0] * n
    for i, a in enumerate(x.qcoeffs):
        if a:
            for j, b in enumerate(y.qcoeffs):
                cs[i + j] += a * b
    return ValCoeff(tuple(cs), x.p, prec, x.exact and y.exact and n <= prec)


def _random_valcoeff(rng, p):
    size = rng.choice([0, 1, 2, rng.randint(3, 30)])
    exact = rng.random() < 0.6
    return ValCoeff(tuple(rng.randrange(p) for _ in range(size)), p,
                    rng.randint(1, 20), exact)


def test_valcoeff_arith_matches_schoolbook(rng):
    # Both operations go through Poly; the copies above are the hand-written
    # F_p convolution and sum they replaced.  Long operands reach the
    # packed multiply, zeros and masked values the exactness rules.
    for _ in range(600):
        p = rng.choice([2, 3, 5, 17, 101])
        x, y = _random_valcoeff(rng, p), _random_valcoeff(rng, p)
        for got, want in ((x + y, _schoolbook_add(x, y)),
                          (x * y, _schoolbook_mul(x, y))):
            assert (got.qcoeffs, got.prec, got.exact) \
                == (want.qcoeffs, want.prec, want.exact), (x, y)


# -- multiplication and reflection ---------------------------------------------


def test_series_mul_example():
    h = S({1: 1, 0: "q"}, q_prec=3)  # t + q
    g = S({1: 1, 0: "-q"}, q_prec=3)  # t - q
    prod = series_mul(h, g)
    assert prod.n_min == 0 and prod.n_max == 2
    assert prod.coeff(2).qcoeffs == (1,)
    assert prod.coeff(1).is_exact_zero()
    assert prod.coeff(0).qcoeffs == (0, 0, 4)  # -q^2


def test_series_mul_open_tail_window():
    h = theta_series(5, 4, 20)  # upper tail open
    g = S({0: 1, 1: 1}, q_prec=20)
    prod = series_mul(h, g)
    assert (prod.n_min, prod.n_max) == (1, 4)
    assert not prod.hi_exact and prod.lo_exact
    narrow = S({0: 1, 1: 1, 2: 1}, lo_exact=False, hi_exact=False)
    wide = S({n: 1 for n in range(6)})
    with pytest.raises(PrecisionError):
        series_mul(narrow, wide)


def test_series_mul_refuses_work_past_the_cap():
    # 1,025 by 1,025 coefficients passes 2^20; by one coefficient it does not
    h = S({0: 1, 1024: 1})
    assert len(h.coeffs) ** 2 > INTEGER_MUL_WORK_LIMIT
    with pytest.raises(FeasibilityError, match="above the cap 1048576"):
        series_mul(h, reflect(h))
    prod = series_mul(h, S({2: 1}))
    assert (prod.n_min, prod.n_max) == (2, 1026)


def test_series_mul_refuses_long_q_expansions_past_the_cap():
    # two coefficients of 2,048 q-terms by one of 2,048: 2^23, the cap
    long = "q^2047"
    h = S({0: long, 1: long}, q_prec=4096)
    g = S({0: long}, q_prec=4096)
    assert series_mul(h, g).coeff(0).qcoeffs == (0,) * 4094 + (1,)
    with pytest.raises(FeasibilityError, match="above the cap 8388608"):
        series_mul(h, S({0: "q^2048"}, q_prec=4096))


def _series_mul_by_windows(h, g):
    """series_mul's product as it read before exact zeros were skipped: one
    ValCoeff product and sum for every pair of window exponents."""
    prec = min(h.q_prec, g.q_prec)
    lo = max([h.n_min + g.n_min]
             + ([h.n_min + g.n_max] if not h.lo_exact else [])
             + ([g.n_min + h.n_max] if not g.lo_exact else []))
    hi = min([h.n_max + g.n_max]
             + ([h.n_max + g.n_min] if not h.hi_exact else [])
             + ([g.n_max + h.n_min] if not g.hi_exact else []))
    if lo > hi:
        raise PrecisionError("product window is empty")
    out = []
    for d in range(lo, hi + 1):
        acc = ValCoeff((), h.p, prec, exact=True)
        for u in range(max(h.n_min, d - g.n_max), min(h.n_max, d - g.n_min) + 1):
            acc = acc + h.coeff(u) * g.coeff(d - u)
        out.append(acc)
    return LaurentTrunc(lo, tuple(out), h.p, prec, h.lo_exact and g.lo_exact,
                        h.hi_exact and g.hi_exact)


def _mixed_series(rng, p):
    """A window of exact zeros, zeros known only at precision, and exact
    and inexact nonzero coefficients, with random tails."""
    q_prec = rng.randint(1, 6)
    lo = rng.randint(-6, 6)
    cs = []
    for _ in range(rng.randint(1, 12)):
        kind = rng.randrange(4)
        if kind == 0:
            cs.append(ValCoeff((), p, q_prec, exact=True))
        elif kind == 1:
            cs.append(ValCoeff((), p, q_prec, exact=False))
        else:
            qcs = [rng.randrange(p) for _ in range(rng.randint(1, 8))]
            cs.append(ValCoeff(qcs, p, q_prec, exact=kind == 2))
    return LaurentTrunc(lo, tuple(cs), p, q_prec, rng.random() < 0.7,
                        rng.random() < 0.7)


def test_series_mul_matches_the_window_loop():
    import random
    rng = random.Random(33)
    compared = 0
    for _ in range(3000):
        p = rng.choice((2, 3, 5, 7))
        h, g = _mixed_series(rng, p), _mixed_series(rng, p)
        try:
            want = _series_mul_by_windows(h, g)
        except PrecisionError:
            with pytest.raises(PrecisionError):
                series_mul(h, g)
            continue
        assert series_mul(h, g) == want
        compared += 1
    assert compared > 2000


def test_reflect_involution():
    h = S({-2: "q", 0: 3, 1: "q^2"})
    assert reflect(reflect(h)) == h
    r = reflect(h)
    assert r.coeff(2).qcoeffs == (0, 1)
    assert r.coeff(0).qcoeffs == (3,)


# -- hulls ---------------------------------------------------------------------


def test_hull_frozen_examples():
    h = S({-1: "q^2", 0: 1, 1: "q", 2: "q^5"})
    assert newton_polygon(h).vertices == (
        (-1, Fraction(2)), (0, Fraction(0)), (1, Fraction(1)), (2, Fraction(5)),
    )
    g = S({-1: "q^3", 0: 1, 2: "q", 1: "q^4"})
    # the (1, 4) point lies above the hull edge from (0,0) to (2,1)
    assert newton_polygon(g).vertices == (
        (-1, Fraction(3)), (0, Fraction(0)), (2, Fraction(1)),
    )


def test_hull_trivial_valuation_mode():
    # Q=1 gives the trivial valuation; a polynomial's hull is a flat segment
    h = LaurentTrunc.from_dict({0: 1, 1: 1, 2: 1}, 5, 1)
    assert newton_polygon(h).vertices == ((0, Fraction(0)), (2, Fraction(0)))


def test_lower_hull_collinear_dropped():
    assert lower_hull([(0, 0), (1, 1), (2, 2)]).vertices == (
        (0, Fraction(0)), (2, Fraction(2)),
    )
    assert lower_hull([(0, 0), (1, 1), (2, 0)]).vertices == (
        (0, Fraction(0)), (2, Fraction(0)),
    )


def test_newton_polygon_zero_series_errors():
    # exactly zero: a plain ValueError that names the zero series
    z = LaurentTrunc.from_dict({}, 5, 4, window=(0, 2))
    with pytest.raises(ValueError, match="series is zero") as err:
        newton_polygon(z)
    assert not isinstance(err.value, PrecisionError)
    # zero only at precision, or only inside the window: PrecisionError
    masked = LaurentTrunc.from_dict({1: "0?"}, 5, 4, window=(0, 2))
    open_tail = LaurentTrunc.from_dict({}, 5, 4, window=(0, 2), hi_exact=False)
    for h in (masked, open_tail):
        with pytest.raises(PrecisionError, match="no visible support"):
            newton_polygon(h)


def test_polygon_validation():
    with pytest.raises(ValueError):
        NewtonPolygon(((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        NewtonPolygon(((0, 0), (1, 1), (2, 2)))  # collinear, not strictly convex


def test_polygon_sum_examples():
    a = NewtonPolygon(((0, 0), (1, 0)))
    b = NewtonPolygon(((-1, 1), (1, 0)))
    assert polygon_sum(a, b).vertices == (
        (-1, Fraction(1)), (1, Fraction(0)), (2, Fraction(0)),
    )
    point = NewtonPolygon(((0, 0),))
    assert polygon_sum(a, point) == a
    assert polygon_sum(point, b) == b


def _edge_merge_sum(a: NewtonPolygon, b: NewtonPolygon) -> NewtonPolygon:
    """Reference Minkowski sum: the start vertices add, then the edges of
    both polygons follow by ascending slope, equal slopes joined."""
    def edges(polygon):
        vs = polygon.vertices
        return [(n1 - n0, v1 - v0) for (n0, v0), (n1, v1) in zip(vs, vs[1:])]

    verts = [(a.vertices[0][0] + b.vertices[0][0],
              a.vertices[0][1] + b.vertices[0][1])]
    last = None
    for dn, dv in sorted(edges(a) + edges(b), key=lambda e: e[1] / e[0]):
        n, v = verts[-1]
        if dv / dn == last:
            verts[-1] = (n + dn, v + dv)
        else:
            verts.append((n + dn, v + dv))
        last = dv / dn
    return NewtonPolygon(tuple(verts))


def _random_hull(rng) -> NewtonPolygon:
    lo = rng.randint(-6, 3)
    return lower_hull(
        (rng.randint(lo, lo + 8), Fraction(rng.randint(0, 30), rng.randint(1, 3)))
        for _ in range(rng.randint(1, 9))
    )


def test_polygon_sum_matches_the_edge_merge(rng):
    for _ in range(2000):
        a, b = _random_hull(rng), _random_hull(rng)
        assert polygon_sum(a, b) == _edge_merge_sum(a, b), (a, b)


def test_theta_series_hull():
    th = theta_series(5, 4, 20)
    assert newton_polygon(th).vertices == (
        (1, Fraction(1)), (2, Fraction(4)), (3, Fraction(9)), (4, Fraction(16)),
    )
    assert hull_uncertainty(th) == ()
    collapsed = theta_series(5, 5, 20)  # q^25 masked at precision 20
    assert newton_polygon(collapsed).vertices[-1] == (4, Fraction(16))
    assert hull_uncertainty(collapsed) == (5,)


def test_hull_uncertainty_flagging():
    flagged = S({0: 1, 3: "0?"}, q_prec=5)
    assert hull_uncertainty(flagged) == (3,)
    fine = S({0: 1, 1: "0?", 3: "q"}, q_prec=5)
    assert hull_uncertainty(fine) == ()


def _random_series(rng, p, q_prec, max_val):
    lo = rng.randint(-4, 2)
    hi = lo + rng.randint(0, 5)
    data = {}
    for n in range(lo, hi + 1):
        if rng.random() < 0.25 and n not in (lo, hi):
            continue  # exact zero coefficient inside the window
        v = rng.randint(0, max_val)
        qcs = [0] * v + [rng.randint(1, p - 1)]
        for _ in range(rng.randint(0, 2)):
            qcs.append(rng.randint(0, p - 1))
        data[n] = ValCoeff(tuple(qcs), p, q_prec, exact=True)
    return LaurentTrunc.from_dict(data, p, q_prec, window=(lo, hi))


def test_hull_additivity_random(rng):
    for _ in range(200):
        h = _random_series(rng, 5, 64, 20)
        g = _random_series(rng, 5, 64, 20)
        prod = series_mul(h, g)
        assert hull_uncertainty(prod) == ()
        assert newton_polygon(prod) == polygon_sum(
            newton_polygon(h), newton_polygon(g)
        )


def _min_form(polygon, s) -> Fraction:
    """N(s) = min over the polygon's vertices of (v + n*s)."""
    return min(v + n * Fraction(s) for n, v in polygon.vertices)


def test_min_form_additivity_sampled_slopes(rng):
    for _ in range(60):
        h = _random_series(rng, 5, 64, 20)
        g = _random_series(rng, 5, 64, 20)
        nh, ng = newton_polygon(h), newton_polygon(g)
        nprod = newton_polygon(series_mul(h, g))
        for s in (-1, 0, 1, Fraction(1, 2)):
            assert _min_form(nprod, s) == _min_form(nh, s) + _min_form(ng, s)


def test_reflection_laws(rng):
    for _ in range(50):
        h = _random_series(rng, 5, 64, 20)
        nh = newton_polygon(h)
        assert newton_polygon(reflect(h)) == nh.reflect()
        for s in (-2, 0, 3):
            assert _min_form(nh.reflect(), s) == _min_form(nh, -s)


# -- norm-one monomial recognition ----------------------------------------------


def test_norm_one_examples():
    assert norm_one_monomial(S({1: 1})) == (1, 1)
    assert norm_one_monomial(S({-2: -1})) == (-1, -2)
    assert norm_one_monomial(S({0: 1})) == (1, 0)


def test_norm_one_precondition_fails():
    with pytest.raises(ValueError, match="not 1 at truncation"):
        norm_one_monomial(S({0: 1, 1: 1}))


def test_norm_one_inconclusive_char2():
    # (1+q^2)^2 = 1 + q^4 = 1 at precision 4 over F_2, yet 1+q^2 is not +-1
    h = LaurentTrunc.from_dict({0: "q^2 + 1"}, 2, 4)
    with pytest.raises(PrecisionError, match="not \\+-1"):
        norm_one_monomial(h)


def test_norm_one_masked_tail_is_at_precision():
    h = S({1: 1, 2: "0?"}, q_prec=6)
    assert norm_one_monomial(h) == (1, 1)


# -- text format -----------------------------------------------------------------


def test_series_roundtrip():
    h = S({-2: "q + 1", 0: "0?", 3: 2}, q_prec=6)
    assert parse_series(format_series(h)) == h
    th = theta_series(5, 4, 20)
    assert parse_series(format_series(th)) == th
    assert "open=hi" in format_series(th)


def test_parse_series_errors():
    for bad in ["{}", "{1: q}", "{1 q} @ p=5 Q=3", "1: q @ p=5 Q=3",
                "{0: 1, 0: 2} @ p=5 Q=3"]:
        with pytest.raises(ValueError):
            parse_series(bad)


@pytest.mark.parametrize("meta, message", [
    ("p=5 Q=3 p=7", "'p' appears twice"),
    ("p=5 Q=3 Q=9", "'Q' appears twice"),
    ("p=5 Q=3 open=hi open=lo", "'open' appears twice"),
    ("p=5 Q=3 junk", "unknown series metadata 'junk'"),
    ("p=5 Q=3 R=2", "unknown series metadata 'R=2'"),
    ("p=5 Q=3 open=sideways", "'open' is 'sideways'"),
    ("p=5 Q=3 open=", "'open' is ''"),
    ("p=five Q=3", "'p' and 'Q' must be integers: 'p=five Q=3'"),
])
def test_parse_series_refuses_malformed_metadata(meta, message):
    """A repeated key, an unknown key or bare token, and an open= value other
    than lo, hi or both are refused, naming the key, not read past."""
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_series(f"{{0: 1, 2: q}} @ {meta}")


# -- series text round-trips (property-based) -------------------------------------


@st.composite
def _text_series(draw):
    """A window of exact zeros, zeros at precision and q-expansions that may
    run past Q (so are known modulo q^Q only), with either tail open."""
    p = draw(st.sampled_from((2, 3, 5, 17)))
    q_prec = draw(st.integers(1, 4))
    coeff = st.one_of(
        st.just(ValCoeff((), p, q_prec, exact=True)),
        st.just(ValCoeff((), p, q_prec, exact=False)),
        st.lists(st.integers(0, p - 1), max_size=q_prec + 2).map(
            lambda cs: ValCoeff.make(cs, p, q_prec)),
    )
    coeffs = draw(st.lists(coeff, min_size=1, max_size=5))
    return LaurentTrunc(draw(st.integers(-3, 3)), tuple(coeffs), p, q_prec,
                        draw(st.booleans()), draw(st.booleans()))


def _known(h, n):
    """What h says about exponent n: its expansion modulo q^Q and whether a
    zero is exact, or that n lies beyond an open end."""
    try:
        c = h.coeff(n)
    except PrecisionError:
        return "unknown"
    return c.qcoeffs, c.is_exact_zero()


@settings(max_examples=300)
@given(h=_text_series())
def test_series_text_round_trips(h):
    # The text has no mark for a truncated nonzero coefficient, so one reads
    # back exact; its expansion modulo q^Q is kept.
    g = parse_series(format_series(h))
    assert (g.p, g.q_prec, g.lo_exact, g.hi_exact) == (
        h.p, h.q_prec, h.lo_exact, h.hi_exact)
    for n in range(h.n_min - 2, h.n_max + 3):
        assert _known(g, n) == _known(h, n), n


def test_series_text_keeps_open_ends_and_the_zero_series():
    zero = ValCoeff((), 2, 4, exact=True)
    h = LaurentTrunc(1, (ValCoeff.make("q^2 + 1", 2, 4), zero, zero), 2, 4,
                     hi_exact=False)
    assert format_series(h) == "{1: q^2 + 1, 3: 0} @ p=2 Q=4 open=hi"
    assert parse_series(format_series(h)).coeff(2).is_exact_zero()
    g = parse_series("{} @ p=5 Q=1")
    assert all(g.coeff(n).is_exact_zero() for n in range(-3, 4))
    assert format_series(g) == "{} @ p=5 Q=1"
    for tail in ("lo", "hi", "both"):
        with pytest.raises(ValueError, match="no entries"):
            parse_series(f"{{}} @ p=5 Q=1 open={tail}")
