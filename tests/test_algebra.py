"""Polynomial core: frozen examples, random cross-checks, ring axioms."""

import ast
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zinterp
from zinterp.algebra import (
    INTEGER_MUL_WORK_LIMIT,
    NEG_INFINITY,
    PRODUCT_DEGREE_CAP,
    FeasibilityError,
    Poly,
    format_poly,
    frob_family,
    frob_pow,
    is_prime,
    kth_roots_mod,
    parse_poly,
    poly_compose,
    poly_divides,
    poly_divrem,
    poly_extgcd,
    poly_shift,
    times_t,
    _kronecker_mul,
    _schoolbook_mul,
)
from conftest import random_poly

PRIMES = [2, 3, 5, 7, 17]


# -- frozen examples ---------------------------------------------------------


def test_mul_example_f3():
    a = Poly([1, 1], 3)  # t + 1
    b = Poly([2, 1], 3)  # t + 2
    assert a * b == Poly([2, 0, 1], 3)  # t^2 + 2


def test_divrem_example_f5():
    q, r = poly_divrem(Poly([1, 0, 1], 5), Poly([-1, 1], 5))
    assert q == Poly([1, 1], 5)
    assert r == Poly([2], 5)


def test_extgcd_example_f5():
    a, b = Poly([0, 1], 5), Poly([-1, 1], 5)
    g, u, v = poly_extgcd(a, b)
    assert g == Poly.one(5)
    assert u == Poly([1], 5)
    assert v == Poly([-1], 5)  # -1 stored as 4
    assert u * a + v * b == g


def test_compose_shift_example_f7():
    x2 = Poly([-1, 0, 2], 7)  # 2t^2 - 1
    assert poly_shift(x2) == Poly([1, 4, 2], 7)  # 2t^2 + 4t + 1
    assert poly_shift(x2) != x2 + 1


def test_frob_pow_example_f5():
    x2 = Poly([-1, 0, 2], 5)
    got = frob_pow(x2, 1)
    assert got == x2**5
    assert got == Poly([4] + [0] * 9 + [2], 5)  # 2t^10 + 4


def test_zero_degree_sentinel():
    z = Poly.zero(5)
    assert z.degree == NEG_INFINITY
    assert z.degree < 0
    assert Poly.one(5).degree == 0
    with pytest.raises(ValueError):
        z.leading_coeff()


def test_modulus_validation():
    with pytest.raises(ValueError):
        Poly([1], 4)
    with pytest.raises(ValueError):
        Poly([1], -3)
    with pytest.raises(ValueError):
        Poly([1], 5) + Poly([1], 7)
    # a prime, refused before trial division, which would take minutes
    with pytest.raises(ValueError, match=r"at or above the cap 2\^32"):
        Poly([1], 2**61 - 1)


def test_products_past_the_caps_are_refused():
    half = Poly.monomial(1, PRODUCT_DEGREE_CAP // 2, 17)
    assert (half * half).degree == PRODUCT_DEGREE_CAP
    with pytest.raises(FeasibilityError, match="degree 200003, above the cap"):
        half * Poly.monomial(1, PRODUCT_DEGREE_CAP // 2 + 1, 17)
    side = int(INTEGER_MUL_WORK_LIMIT ** 0.5)
    dense = Poly([1] * side, 0)
    assert (dense * dense).degree == 2 * side - 2
    with pytest.raises(FeasibilityError, match="over Z\\[t\\]"):
        dense * Poly([1] * (side + 1), 0)


def test_int_coercion_in_operators():
    f = Poly.gen(5)
    assert f + 1 == Poly([1, 1], 5)
    assert 2 * f == Poly([0, 2], 5)
    assert (f + 1) - 1 == f


# -- randomized cross-checks -------------------------------------------------


def test_divrem_roundtrip_random(rng):
    for p in PRIMES:
        for _ in range(1000):
            a = random_poly(rng, p, 8)
            b = random_poly(rng, p, 5, nonzero=True)
            q, r = poly_divrem(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree


def test_divrem_integer_monic(rng):
    for _ in range(200):
        a = random_poly(rng, 0, 8)
        b = random_poly(rng, 0, 4) + Poly.monomial(1, 5, 0)  # monic degree 5
        q, r = poly_divrem(a, b)
        assert q * b + r == a
    with pytest.raises(ValueError):
        poly_divrem(Poly([1, 1], 0), Poly([1, 2], 0))


def test_extgcd_random(rng):
    for p in [3, 5, 17]:
        for _ in range(300):
            a = random_poly(rng, p, 6)
            b = random_poly(rng, p, 6)
            if a.is_zero() and b.is_zero():
                continue
            g, u, v = poly_extgcd(a, b)
            assert u * a + v * b == g
            assert g.leading_coeff() == 1
            assert poly_divides(g, a) and poly_divides(g, b)


def _binary_pow(f, e):
    """f^e by square-and-multiply, with no Frobenius: the reference for
    Poly.__pow__ and frob_pow."""
    result, base = Poly.one(f.modulus), f
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


def test_frob_pow_matches_repeated_mul(rng):
    for p in [2, 3]:
        for r in [0, 1, 2]:
            for _ in range(40):
                f = random_poly(rng, p, 3)
                assert frob_pow(f, r) == _binary_pow(f, p**r)


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("p", [3, 5, 17, 131, 257])
def test_frob_family_matches_the_product(rng, p, r):
    """Blocks laid out for deg v < q and products for deg v >= q, on both
    sides of q at every (p, r) small enough to multiply, with zero and
    constant v and the n that zero the constant coefficient of n + v."""
    q = p**r
    degrees = [0, 1, 2] + [d for d in (q - 1, q, q + 1)
                           if d > 2 and d * q <= 100_000]
    vs = [Poly.zero(p), Poly.const(rng.randrange(1, p), p)]
    for d in degrees:
        vs += [Poly([rng.randrange(p) for _ in range(d)] + [1], p),
               Poly([0] + [rng.randrange(p) for _ in range(d - 1)] + [p - 1],
                    p) if d else Poly.one(p)]
    for v in vs:
        c0 = v.coeff(0)
        ns = list(range(-2, 5)) + [-c0, p - c0, 2 * p - c0, p]
        got = frob_family(v, r, ns)
        assert len(got) == len(ns)
        for n, term in zip(ns, got):
            s = v + n
            want = frob_pow(s, r) * s
            assert (term.data, term.modulus) == (want.data, want.modulus), \
                (p, r, v, n)


@pytest.mark.parametrize("p", [2, 3, 5, 17])
def test_pow_matches_binary_powering(rng, p):
    top = {2: 6, 3: 4, 5: 3, 17: 2}[p]
    exponents = set(range(p + 2))
    for k in range(1, top + 1):
        exponents |= {p**k - 1, p**k, p**k + 1, (p**k - 1) // 2}
    fs = [Poly.zero(p), Poly.one(p), Poly.gen(p)]
    fs += [random_poly(rng, p, rng.randint(0, 4)) for _ in range(6)]
    for f in fs:
        for e in sorted(exponents):
            assert f**e == _binary_pow(f, e), (p, f, e)


def test_kronecker_equals_schoolbook(rng):
    for p in [2, 5, 17]:
        for _ in range(60):
            a = tuple(rng.randrange(p) for _ in range(rng.randint(1, 80)))
            b = tuple(rng.randrange(p) for _ in range(rng.randint(1, 80)))
            school = [c % p for c in _schoolbook_mul(a, b)]
            assert list(_kronecker_mul(a, b, p)) == school


# (p, shortest, longest operand): slots of 1, 2, 4 and 8 bytes, then one
# wider than 8 bytes, which takes the byte-packing fallback.
_SLOT_CASES = [
    (2, 1, 100), (5, 1, 15), (17, 16, 200), (257, 1, 50),
    (65537, 1, 50), (2**31 - 1, 8, 40),
]


def test_kronecker_slot_widths(rng):
    for p, lo, hi in _SLOT_CASES:
        top = (p - 1,) * hi
        cases = [(top, top), (top[:lo], top)]
        for _ in range(20):
            cases.append(tuple(
                tuple(rng.randrange(p) for _ in range(rng.randint(lo, hi)))
                for _ in range(2)
            ))
        for a, b in cases:
            school = [c % p for c in _schoolbook_mul(a, b)]
            assert list(_kronecker_mul(a, b, p)) == school, (p, len(a), len(b))


# -- byte-lane kernels against per-coefficient references --------------------

def _ref_trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _ref_sum(a, b, p, sign=1):
    """a + sign*b over F_p, one coefficient at a time."""
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _ref_trim([(x + sign * y) % p for x, y in zip(a, b)])


def _ref_mul(a, b, p):
    """a*b over F_p through slots one byte wider than any convolution sum,
    each slot read and reduced on its own."""
    if not a or not b:
        return ()
    w = ((p - 1) ** 2 * min(len(a), len(b))).bit_length() // 8 + 1
    n = len(a) + len(b) - 1

    def pack(cs):
        return int.from_bytes(
            b"".join(c.to_bytes(w, "little") for c in cs), "little")

    raw = (pack(a) * pack(b)).to_bytes(w * n, "little")
    return _ref_trim([int.from_bytes(raw[i * w:(i + 1) * w], "little") % p
                      for i in range(n)])


def _lane_width(p, shortest):
    """The product slot width in bytes for operands at least this long."""
    return max(1, (((p - 1) ** 2 * shortest).bit_length() + 7) // 8)


# Sums take byte lanes up to p = 127 (2(p - 1) <= 255), 131 falls back.
_SUM_PRIMES = [2, 3, 5, 17, 127, 131, 257, 65537, 2**31 - 1]

# (p, shortest, longest operand, slot width, lanes?): small primes at their
# slot widths; per slot width, the largest prime whose products take the
# lanes (width * (p - 1) <= 255) and the next prime, whose products of that
# width fall back to the array path; then primes too large for any lane.
_LANE_EDGES = [
    (2, 1, 200, 1, True), (2, 256, 600, 2, True), (3, 1, 80, 1, True),
    (5, 1, 80, 1, True), (17, 257, 400, 3, True),
    (13, 1, 40, 1, True), (17, 1, 40, 2, True),
    (127, 1, 4, 2, True), (131, 1, 3, 2, False),
    (83, 10, 60, 3, True), (89, 9, 60, 3, False),
    (61, 4661, 4700, 4, True), (67, 3852, 3900, 4, False),
    (257, 1, 50, 3, False), (65537, 1, 50, 5, False),
    (2**31 - 1, 8, 40, 9, False),
]


def test_lane_edges_have_the_widths_they_name():
    for p, lo, _, width, lanes in _LANE_EDGES:
        assert _lane_width(p, lo) == width, (p, lo)
        assert (width * (p - 1) <= 255) == lanes, p


def _lane_cases(rng, p, lo, hi, count):
    top = (p - 1,) * hi
    cases = [(top, top), (top[:lo], top), (top, top[:lo])]
    for _ in range(count):
        # canonical operands: the last coefficient is nonzero
        cases.append(tuple(
            tuple([rng.randrange(p) for _ in range(rng.randint(lo, hi) - 1)]
                  + [rng.randrange(1, p)])
            for _ in range(2)
        ))
    return cases


def test_lane_products_match_reference(rng):
    for p, lo, hi, _, _ in _LANE_EDGES:
        for a, b in _lane_cases(rng, p, lo, hi, 2 if lo > 1000 else 12):
            ref = _ref_mul(a, b, p)
            got = _kronecker_mul(a, b, p)
            assert type(got) is (bytes if p <= 251 else tuple), p
            assert tuple(got) == ref, (p, len(a), len(b))
            product = (Poly(a, p) * Poly(b, p)).coeffs
            assert product == ref, (p, len(a), len(b))


def test_lane_products_of_constants_at_the_width_two_edge():
    # Every product of two nonzero constants at 127 (lanes) and 131 (array):
    # some slots at 131 have two translated lanes adding past 255.
    for p in (127, 131):
        for x in range(1, p):
            for y in range(1, p):
                got = _kronecker_mul((x,), (y,), p)
                assert tuple(got) == (x * y % p,), (p, x, y)


def test_lane_sums_match_reference(rng):
    # short and long operands: lengths 0, 7, 23, 24, 48 and random up to 72
    n = 24
    for p in _SUM_PRIMES:
        top = [p - 1] * 2 * n
        cases = [(top, top), (top, top[:7]), (top[:7], top), ([], top),
                 (top[:n - 1], top[:n - 1]), (top[:n], top[:n])]
        for _ in range(30):
            a = [rng.randrange(p) for _ in range(rng.randint(0, 3 * n))]
            b = [rng.randrange(p) for _ in range(rng.randint(0, 3 * n))]
            # -a with its k lowest coefficients redrawn: a + c cancels
            # from the top down, to zero when k = 0
            k = rng.randint(0, len(a))
            c = [rng.randrange(p) for _ in range(k)] + [-x % p for x in a[k:]]
            cases += [(a, b), (a, c), (a, a), (a, a[:k] + b[k:len(a)])]
        for a, b in cases:
            fa, fb = Poly(a, p), Poly(b, p)
            a, b = fa.coeffs, fb.coeffs
            assert (fa + fb).coeffs == _ref_sum(a, b, p), (p, a, b)
            assert (fa - fb).coeffs == _ref_sum(a, b, p, -1), (p, a, b)
            assert (-fa).coeffs == _ref_sum((), a, p, -1), (p, a)
            assert (fa * fb).coeffs == _ref_mul(a, b, p), (p, a, b)
            for r in (fa + fb, fa - fb, -fa):
                assert type(r.coeffs) is tuple
                assert all(type(x) is int for x in r.coeffs)


def test_mul_threshold_crossing(rng):
    # same result on either side of the fast-path threshold
    for p in [5, 17]:
        a = random_poly(rng, p, 120, nonzero=True)
        b = random_poly(rng, p, 90, nonzero=True)
        big = a * b
        assert big.coeffs == tuple(
            c % p for c in _schoolbook_mul(a.coeffs, b.coeffs)
        )


# -- ring axioms (property-based) --------------------------------------------


def _polys(p, max_deg=6):
    return st.lists(
        st.integers(min_value=0, max_value=max(p - 1, 9)),
        min_size=0,
        max_size=max_deg + 1,
    ).map(lambda cs: Poly(cs, p))


@settings(max_examples=200, deadline=None)
@given(a=_polys(5), b=_polys(5), c=_polys(5))
def test_ring_axioms_f5(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero(5) == a
    assert a * Poly.one(5) == a
    assert a - a == Poly.zero(5)


@settings(max_examples=100, deadline=None)
@given(a=_polys(0), b=_polys(0))
def test_evaluation_is_ring_hom_z(a, b):
    for x in (-2, 0, 1, 3):
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
        assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


def _assert_canonical(r, p):
    """r is stored as the checking constructor would store it."""
    assert type(r.coeffs) is tuple and r.modulus == p
    assert all(type(c) is int for c in r.coeffs)
    if p:
        assert all(0 <= c < p for c in r.coeffs)
    assert not r.coeffs or r.coeffs[-1] != 0
    assert r.coeffs == Poly(list(r.coeffs), p).coeffs


@st.composite
def _canonical_cases(draw):
    """(p, a, b, c): random a and b, and c = -a with its k lowest
    coefficients replaced, so a + c cancels from the top down."""
    p = draw(st.sampled_from((0, 2, 3, 5, 17)))
    lo, hi = (0, p - 1) if p else (-9, 9)
    coeffs = st.lists(st.integers(lo, hi), max_size=8)
    a = Poly(draw(coeffs), p)
    b = Poly(draw(coeffs), p)
    k = draw(st.integers(0, len(a.coeffs)))
    low = draw(st.lists(st.integers(lo, hi), min_size=k, max_size=k))
    c = Poly(low + [-x for x in a.coeffs[k:]], p)
    return p, a, b, c


@settings(max_examples=300, deadline=None)
@given(case=_canonical_cases(), e=st.integers(0, 3))
def test_results_are_canonical(case, e):
    p, a, b, c = case
    results = [
        a + b, a - b, b - a, -a, a * b, a ** e,
        a + (-a), a - a, a + c, c + a, a - (-c), a + 3, 3 - a, a * 0,
        poly_compose(a, b), poly_shift(a),
    ]
    if b.coeffs and (p or b.coeffs[-1] in (1, -1)):
        results.extend(divmod(a, b))
    if p:
        results.append(frob_pow(a, 1))
        if len(b.coeffs) == 2:
            results.append(poly_compose(c, b))
    for r in results:
        _assert_canonical(r, p)


# -- storage: every operation against per-coefficient references ------------

# Moduli on both sides of each storage and kernel edge: bytes up to 251, the
# sum lanes up to 127 (131 adds per coefficient), tuples for 257 and Z.
_STORAGE_PRIMES = [2, 3, 17, 127, 131, 251, 257, 0]
# Operand lengths on both sides of _KRONECKER_MIN_PRODUCT (25) and, at
# p <= 7, of _KRONECKER_MIN_PRODUCT_SMALL_P (4).
_PRODUCT_SHAPES = [(1, 1), (1, 3), (2, 2), (1, 4), (3, 8), (4, 6), (5, 5),
                   (1, 24), (1, 25), (2, 13), (6, 7), (20, 31)]


def _ref_trimmed(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _ref_red(cs, p):
    return _ref_trimmed([c % p for c in cs] if p else cs)


def _ref_add(a, b, p, sign=1):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _ref_red([x + sign * y for x, y in zip(a, b)], p)


def _ref_conv(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_red(out, p)


def _ref_divmod(a, b, p):
    """Long division one coefficient at a time (b's lead a unit)."""
    rem, lead = list(a), b[-1]
    inv = pow(lead, -1, p) if p else lead
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        q = rem[i + len(b) - 1] * inv
        quot[i] = q % p if p else q
        for j, y in enumerate(b):
            rem[i + j] -= quot[i] * y
    return _ref_red(quot, p), _ref_red(rem[:len(b) - 1], p)


def _ref_compose(f, g, p):
    acc = ()
    for c in reversed(f):
        acc = _ref_add(_ref_conv(acc, g, p), (c,), p)
    return acc


def _storage_of(cs, p):
    return bytes(cs) if 2 <= p <= 251 else tuple(cs)


def _check_result(r, ref, p, what):
    """r is canonical for p, reads as ref, and equals and hashes like the
    same polynomial built by Poly(...) and by Poly._raw(...)."""
    assert r.modulus == p, what
    assert type(r.data) is (bytes if 2 <= p <= 251 else tuple), (p, what)
    assert not r.data or r.data[-1] != 0, (p, what)
    assert type(r.coeffs) is tuple, (p, what)
    assert all(type(c) is int for c in r.coeffs), (p, what)
    assert r.coeffs == ref, (p, what, r.coeffs, ref)
    built, raw = Poly(list(ref), p), Poly._raw(_storage_of(ref, p), p)
    assert r == built and built == raw and raw == r, (p, what)
    assert hash(r) == hash(built) == hash(raw), (p, what)


def _random_coeffs(rng, p, n):
    if not n:
        return []
    if not p:
        return [rng.randint(-9, 9) for _ in range(n - 1)] + [rng.choice((-1, 1))]
    return [rng.randrange(p) for _ in range(n - 1)] + [rng.randrange(1, p)]


@pytest.mark.parametrize("p", [2, 3, 17, 251])
def test_scalar_products_match_schoolbook(rng, p):
    # a one-coefficient operand, on either side, takes one translate
    for n in (1, 2, 3, 30, 300):
        for _ in range(8):
            f = Poly(_random_coeffs(rng, p, n), p)
            c = rng.randrange(1, p)
            ref = tuple(x % p for x in _schoolbook_mul(f.coeffs, (c,)))
            for r in (f * Poly((c,), p), Poly((c,), p) * f, f * c, c * f):
                _check_result(r, ref, p, f"{n} coefficients times {c}")


@pytest.mark.parametrize("p", [3, 17, 131, 257, 65537, 2**31 - 1])
def test_squares_match_products_of_equal_copies(rng, p):
    # f * f packs f once and squares the integer, in each packing branch:
    # byte lanes (3, 17), array slots (131, 257, 65537) and wide bytes
    # (2^31 - 1).  It equals the product by an equal polynomial with other
    # storage, on both sides of the Kronecker threshold and up to a few
    # thousand coefficients, and the schoolbook reference up to 300.  (One
    # coefficient is a scalar product, and CPython shares one-byte bytes.)
    for n in (2, 3, 4, 5, 6, 24, 25, 26, 300, 2500):
        f = Poly(_random_coeffs(rng, p, n), p)
        other = Poly(list(f.data), p)
        assert other.data is not f.data
        square = f * f
        assert square == f * other, (p, n)
        if n <= 300:
            ref = _ref_red(_schoolbook_mul(f.coeffs, f.coeffs), p)
        else:
            ref = _ref_mul(f.coeffs, f.coeffs, p)
        _check_result(square, ref, p, f"the square of {n} coefficients")


@pytest.mark.parametrize("p", _STORAGE_PRIMES)
def test_storage_matches_reference_at_every_edge(rng, p):
    shapes = _PRODUCT_SHAPES + [(0, 3), (3, 0), (0, 0)]
    shapes += [(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(12)]
    for n, m in shapes:
        a, b = _random_coeffs(rng, p, n), _random_coeffs(rng, p, m)
        # the top of c cancels against a's, so a + c trims from the top
        k = rng.randint(0, n)
        c = _random_coeffs(rng, p, k) + [-x for x in a[k:]]
        fa, fb, fc = Poly(a, p), Poly(b, p), Poly(c, p)
        ra, rb, rc = _ref_red(a, p), _ref_red(b, p), _ref_red(c, p)
        for f, ref in ((fa, ra), (fb, rb), (fc, rc)):
            _check_result(f, ref, p, "Poly(...)")
        checks = [
            (fa + fb, _ref_add(ra, rb, p), "+"),
            (fa + fc, _ref_add(ra, rc, p), "+ cancelling"),
            (fa - fb, _ref_add(ra, rb, p, -1), "-"),
            (fb - fa, _ref_add(rb, ra, p, -1), "- reversed"),
            (fa - fa, (), "- itself"),
            (-fa, _ref_add((), ra, p, -1), "unary -"),
            (fa * fb, _ref_conv(ra, rb, p), "*"),
            (fb * fa, _ref_conv(rb, ra, p), "* reversed"),
            (fa + 1, _ref_add(ra, (1,), p), "+ int"),
            (2 * fa, _ref_conv((2,), ra, p), "int *"),
            (times_t(fa), (0,) + ra if ra else (), "times_t"),
        ]
        if m <= 12:
            acc = (1,)
            for e in range(4):
                checks.append((fb ** e, acc, f"** {e}"))
                acc = _ref_conv(acc, rb, p)
        if rb:
            q, r = divmod(fa, fb)
            rq, rr = _ref_divmod(ra, rb, p)
            checks += [(q, rq, "divmod quotient"), (r, rr, "divmod remainder")]
        if n <= 20:
            for inner in (_random_coeffs(rng, p, 2), _random_coeffs(rng, p, 3)):
                g = Poly(inner, p)
                checks.append((poly_compose(fa, g),
                               _ref_compose(ra, _ref_red(inner, p), p),
                               f"compose with {len(inner)} coefficients"))
        if p:
            for r in (1, 2) if p ** 2 * n <= 20000 else (1,):
                q = p ** r
                spread = [0] * ((len(ra) - 1) * q + 1) if ra else []
                spread[::q] = ra
                checks.append((frob_pow(fa, r), tuple(spread), f"frob_pow {r}"))
            if p <= 17 and m <= 3:
                acc = (1,)
                for _ in range(p + 1):
                    acc = _ref_conv(acc, rb, p)
                checks.append((fb ** (p + 1), acc, f"** {p + 1}"))
        for result, ref, what in checks:
            _check_result(result, ref, p, what)
        assert (fa == fb) == (ra == rb) and (fa != fb) == (ra != rb)


def test_storage_is_built_in_algebra_alone():
    """No module but algebra.py builds a polynomial's storage: none imports
    _stored or _trimmed, or reads Poly._raw."""
    private = {"_stored", "_trimmed"}
    for path in sorted(Path(zinterp.__file__).parent.glob("*.py")):
        if path.name == "algebra.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = (path.name, getattr(node, "lineno", None))
            if isinstance(node, ast.ImportFrom):
                assert not {a.name for a in node.names} & private, where
            elif isinstance(node, ast.Attribute):
                assert node.attr not in private, where
                assert not (node.attr == "_raw"
                            and isinstance(node.value, ast.Name)
                            and node.value.id == "Poly"), where


def test_compose_is_hom(rng):
    for p in [5, 7]:
        for _ in range(50):
            f = random_poly(rng, p, 4)
            g = random_poly(rng, p, 4)
            h = random_poly(rng, p, 3)
            assert poly_compose(f * g, h) == poly_compose(f, h) * poly_compose(g, h)
            assert poly_compose(f + g, h) == poly_compose(f, h) + poly_compose(g, h)


def _horner_linear(cs, a, b, p):
    """Coefficients of f(a*t + b) by Horner's rule on plain lists."""
    acc = []
    for c in reversed(cs):
        shifted = [0] + [a * x for x in acc]
        scaled = [b * x for x in acc] + [0]
        acc = [(x + y) % p for x, y in zip(shifted, scaled)]
        acc[0] = (acc[0] + c) % p
    while acc and acc[-1] == 0:
        acc.pop()
    return tuple(acc)


def test_compose_linear_matches_horner(rng):
    for p in [2, 3, 5, 17]:
        lengths = [0, 1, p, p + 1, p * p, p * p + 1, p**3]
        for n in lengths:
            cs = [rng.randrange(p) for _ in range(n)]
            inner = [(rng.randrange(p), rng.randrange(1, p))]
            if n < p**3:
                inner += [(1, 1), (0, rng.randrange(1, p)), (p - 1, 1)]
            for b, a in inner:
                got = poly_compose(Poly(cs, p), Poly([b, a], p))
                assert got.coeffs == _horner_linear(cs, a, b, p), (p, n, a, b)
        f = Poly([rng.randrange(p) for _ in range(p * p + 2)], p)
        assert poly_shift(f).coeffs == _horner_linear(f.coeffs, 1, 1, p)


def test_shift_over_integers():
    f = Poly([3, -2, 0, 5, 1], 0)
    want = tuple(
        sum(c * comb(i, j) for i, c in enumerate(f.coeffs))
        for j in range(5)
    )
    assert poly_shift(f).coeffs == want
    assert poly_shift(Poly.zero(0)) == Poly.zero(0)


# -- scalar helpers ----------------------------------------------------------


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    assert not is_prime(1) and not is_prime(0)


def test_kth_roots_mod():
    assert kth_roots_mod(2, 2, 17) == (6, 11)
    for c in kth_roots_mod(8, 3, 17):
        assert pow(c, 3, 17) == 8
    assert kth_roots_mod(0, 5, 7) == (0,)


def test_kth_roots_mod_cached_on_reduced_residue():
    roots = kth_roots_mod(2, 2, 17)
    assert kth_roots_mod(19, 2, 17) is roots
    assert kth_roots_mod(-15, 2, 17) is roots
    assert kth_roots_mod(2, 2, 19) == ()
    with pytest.raises(ValueError):
        kth_roots_mod(2, 2, 0)


# -- text format -------------------------------------------------------------


def test_format_examples():
    assert format_poly(Poly([0, 2, 0, 4], 5)) == "4*t^3 + 2*t"
    assert format_poly(Poly([4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2], 5)) == "2*t^10 + 4"
    assert format_poly(Poly([0, -3, 0, 4], 0)) == "4*t^3 - 3*t"
    assert format_poly(Poly.zero(3)) == "0"
    assert format_poly(Poly([1, 1], 5)) == "t + 1"
    assert format_poly(Poly([0, 1], 5, ), var="q") == "q"


def test_parse_both_formats():
    assert parse_poly("[4,0,1]", 5) == Poly([4, 0, 1], 5)
    assert parse_poly("[]", 5) == Poly.zero(5)
    assert parse_poly("t^2 + 4", 5) == Poly([4, 0, 1], 5)
    assert parse_poly("4*t^3 + 2*t", 5) == Poly([0, 2, 0, 4], 5)
    assert parse_poly("2t", 5) == Poly([0, 2], 5)
    assert parse_poly("-t + 4", 5) == Poly([4, -1], 5)
    assert parse_poly("0", 7) == Poly.zero(7)
    assert parse_poly("q^4", 5, var="q") == Poly([0, 0, 0, 0, 1], 5)


def test_parse_errors():
    for bad in ["", "t + * 2", "u^2", "[1,2", "3**t"]:
        with pytest.raises(ValueError):
            parse_poly(bad, 5)


def test_parse_format_roundtrip(rng):
    for p in [0, 2, 5, 17]:
        for _ in range(200):
            f = random_poly(rng, p, 7)
            assert parse_poly(format_poly(f), p) == f
            assert parse_poly(str(list(f.coeffs)) if f.coeffs else "[]", p) == f


# -- polynomial text round-trips (property-based) ---------------------------------


@st.composite
def _text_polys(draw):
    """A polynomial over F_p, p in {0, 2, 3, 17, 257}, signed over Z."""
    p = draw(st.sampled_from((0, 2, 3, 17, 257)))
    lo, hi = (-300, 300) if p == 0 else (0, p - 1)
    return Poly(draw(st.lists(st.integers(lo, hi), max_size=10)), p)


@settings(max_examples=300)
@given(f=_text_polys(), var=st.sampled_from(("t", "q", "x1")))
def test_poly_text_round_trips(f, var):
    assert parse_poly(format_poly(f, var), f.modulus, var) == f
