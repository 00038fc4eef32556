"""Tests for Pell pair generation, addition, recognition, and the oracle."""

import itertools
import math

import pytest

from zinterp import pell
from zinterp.algebra import FeasibilityError, Poly, format_poly, poly_divrem
from zinterp.pell import (
    INTEGER_INDEX_LIMIT,
    PellPair,
    STEP_LIMIT,
    SYNTH_DEGREE_CAP,
    _conic_solutions_for_y,
    _offset_quotient,
    _pair_by_digits,
    pell_add,
    pell_enumerate_oracle,
    pell_family,
    pell_index_recognize,
    pell_pair,
    pell_pairs_with_quotients,
    pell_verify,
)

from conftest import random_poly


def pair_tuple(n, p):
    pr = pell_pair(n, p)
    return (format_poly(pr.x), format_poly(pr.y))


# -- generation ---------------------------------------------------------------

def test_base_pairs():
    for p in (0, 3, 5, 17):
        assert pair_tuple(0, p) == ("1", "0")
        assert pair_tuple(1, p) == ("t", "1")
    assert pair_tuple(0, 2) == ("1", "0")
    assert pair_tuple(1, 2) == ("0", "1")


def test_small_indices_integer_coefficients():
    assert pair_tuple(2, 0) == ("2*t^2 - 1", "2*t")
    assert pair_tuple(3, 0) == ("4*t^3 - 3*t", "4*t^2 - 1")
    assert pair_tuple(-1, 0) == ("t", "-1")
    assert pair_tuple(-3, 0) == ("4*t^3 - 3*t", "-4*t^2 + 1")


def test_small_indices_mod_5():
    assert pair_tuple(3, 5) == ("4*t^3 + 2*t", "4*t^2 + 4")


def test_char2_small_indices():
    expect = {
        0: ("1", "0"),
        1: ("0", "1"),
        2: ("1", "t"),
        3: ("t", "t^2 + 1"),
        -1: ("t", "1"),
        -2: ("t^2 + 1", "t"),
        -3: ("t^3", "t^2 + 1"),
    }
    for n, want in expect.items():
        assert pair_tuple(n, 2) == want


def test_index_past_degree_cap_refused():
    for n, p in ((SYNTH_DEGREE_CAP + 1, 5), (-SYNTH_DEGREE_CAP - 1, 3),
                 (10 ** 12, 2), (-10 ** 12, 0)):
        with pytest.raises(FeasibilityError, match="above the cap"):
            pell_pair(n, p)
    with pytest.raises(ValueError, match="modulus"):
        pell_pair(10 ** 12, 4)


def test_degree_formulas():
    for p in (0, 3, 5):
        for n in range(-12, 13):
            pr = pell_pair(n, p)
            assert pr.x.degree == abs(n)
            if n != 0:
                assert pr.y.degree == abs(n) - 1
    # char 2: deg y_n = n - 1 for n >= 1 and deg x_{-n} = n
    for n in range(1, 13):
        assert pell_pair(n, 2).y.degree == n - 1
        assert pell_pair(-n, 2).x.degree == n


def test_pell_pair_refuses_a_composite_modulus():
    with pytest.raises(ValueError):
        pell_pair(1, 6)


def _pair_by_steps(n_abs, p):
    """The index-n_abs pair by n_abs products with the fundamental unit:
    (x, y) -> (t x + (t^2 - 1) y, x + t y), or (y, x + t y) in char 2."""
    t = Poly.gen(p)
    x, y = Poly.one(p), Poly.zero(p)
    for _ in range(n_abs):
        if p == 2:
            x, y = y, x + t * y
        else:
            x, y = t * x + (t * t - 1) * y, x + t * y
    return x, y


def test_digits_match_stepwise_at_digit_boundaries():
    for p in (2, 3, 5):
        ns = {100, 137}
        for k in (1, 2, 3):
            ns |= {p ** k - 1, p ** k, p ** k + 1}
        for n in sorted(ns):
            assert _pair_by_digits(n, p) == _pair_by_steps(n, p), (p, n)


def _doubling_reference(n_abs, p):
    """The index-n_abs pair by binary doubling through the bilinear
    index-addition laws, independent of the Frobenius: the construction
    pell_pair used before the base-p digits."""
    t = Poly.gen(p)
    one = Poly.one(p)
    if p == 2:
        def add(a, b):
            yy = a[1] * b[1]
            return (a[0] * b[0] + yy, a[0] * b[1] + b[0] * a[1] + t * yy)
        base = (Poly.zero(p), one)
    else:
        t2m1 = t * t - one

        def add(a, b):
            return (a[0] * b[0] + t2m1 * (a[1] * b[1]),
                    a[0] * b[1] + b[0] * a[1])
        base = (t, one)
    acc = (one, Poly.zero(p))
    for bit in bin(n_abs)[2:]:
        acc = add(acc, acc)
        if bit == "1":
            acc = add(acc, base)
    return acc


@pytest.mark.parametrize("p", [3, 19, 2, 0])
def test_digits_match_binary_doubling(p):
    """pell_pair at n = m p^r (m 2^r over Z[t]) against doubling, and every
    pair on the curve: the digit path's lift and digit products are checked
    by arithmetic they do not share."""
    t = Poly.gen(p)
    for r in (0, 1, 2):
        for m in range(31):
            n = m * (p or 2) ** r
            x, y = _doubling_reference(n, p)
            neg = (x + t * y, y) if p == 2 else (x, -y)
            for k, want in ((n, (x, y)), (-n, neg)):
                got = pell_pair(k, p)
                assert (got.x, got.y) == want, (p, k)
                assert pell_verify(got.x, got.y), (p, k)


@pytest.mark.parametrize("ns, p", [((100000, -100000), 65537),
                                   ((99991,), 100003)])
def test_large_digits_match_binary_doubling(ns, p):
    """At a large p a digit can be near p, so its pair must come from
    doubling, not from a table of steps: pell_pair against the doubling
    reference, which satisfies the defining equation."""
    x, y = _doubling_reference(abs(ns[0]), p)
    assert pell_verify(x, y)
    for n in ns:
        got = pell_pair(n, p)
        assert (got.x, got.y) == ((x, y) if n > 0 else (x, -y)), n


def test_integer_index_limit():
    refusal = f"above the cap {INTEGER_INDEX_LIMIT} over"
    for n in (INTEGER_INDEX_LIMIT + 1, -INTEGER_INDEX_LIMIT - 1):
        with pytest.raises(FeasibilityError, match=refusal):
            pell_pair(n, 0)
        with pytest.raises(FeasibilityError, match=refusal):
            pell_pairs_with_quotients([1, n], 0)
    assert pell_pair(INTEGER_INDEX_LIMIT + 1, 3).x.degree == (
        INTEGER_INDEX_LIMIT + 1)
    # pell_verify's products at the index limit stay within the Z[t] cap
    pair = pell_pair(INTEGER_INDEX_LIMIT, 0)
    assert pell_verify(pair.x, pair.y)


@pytest.mark.parametrize("p", [3, 5, 17])
def test_offset_quotient_matches_division(rng, p):
    t1 = Poly((p - 1, 1), p)
    xs = [Poly.zero(p), Poly.one(p), Poly.gen(p)]
    for _ in range(40):
        z = random_poly(rng, p, rng.randint(0, 30))
        xs += [Poly.one(p) + t1 * z, random_poly(rng, p, rng.randint(0, 30))]
    refused = 0
    for x in xs:
        q, rem = poly_divrem(x - Poly.one(p), t1)
        if rem.is_zero():
            assert _offset_quotient(x) == q
        else:
            refused += 1
            with pytest.raises(ValueError, match="not 1 at t = 1"):
                _offset_quotient(x)
    assert refused >= 10


@pytest.mark.parametrize("p", [0, 3, 17])
def test_one_walk_matches_pell_pair_and_division(p):
    ms = range(-70, 71)  # past STEP_LIMIT, so both paths are read off
    pairs, quot = pell_pairs_with_quotients(list(ms) + [5, -5], p)
    assert set(pairs) == set(quot) == set(ms)
    t = Poly.gen(p)
    for m in ms:
        assert pairs[m] == pell_pair(m, p)
        assert quot[m] == _offset_quotient(pell_pair(m, p).x)
        assert pairs[m].x == 1 + (t - 1) * quot[m]
        # n and -n share their objects, which check_sat's memo keys on
        assert pairs[m].x is pairs[-m].x and quot[m] is quot[-m]
    assert pell_pairs_with_quotients([], p) == ({}, {})


def test_one_walk_refusals():
    with pytest.raises(FeasibilityError, match="above the cap"):
        pell_pairs_with_quotients([1, -SYNTH_DEGREE_CAP - 1], 17)
    with pytest.raises(ValueError, match="conic form"):
        pell_pairs_with_quotients([1], 2)
    with pytest.raises(ValueError, match="modulus"):
        pell_pairs_with_quotients([1], 9)


def test_integer_pairs_reduce_to_mod_p_pairs():
    for p in (3, 5, 17):
        for n in range(-20, 21):
            z = pell_pair(n, 0)
            q = pell_pair(n, p)
            assert Poly(z.x.coeffs, p) == q.x
            assert Poly(z.y.coeffs, p) == q.y


# -- verification ---------------------------------------------------------------

def test_verify_identity_and_counterexample():
    assert pell_verify(Poly.one(5), Poly.zero(5))
    assert not pell_verify(Poly.gen(5), Poly.gen(5))


def test_verify_generated_pairs():
    for p in (3, 5, 7, 17):
        for n in range(-50, 51):
            pr = pell_pair(n, p)
            assert pell_verify(pr.x, pr.y)
    for n in range(-50, 51):
        pr = pell_pair(n, 2)
        assert pell_verify(pr.x, pr.y)


def test_verify_modulus_mismatch():
    with pytest.raises(ValueError):
        pell_verify(Poly.one(5), Poly.zero(7))


# -- index addition ---------------------------------------------------------------

def test_add_one_plus_one():
    a = pell_pair(1, 5)
    s = pell_add(a, a)
    assert s.n == 2
    assert (format_poly(s.x), format_poly(s.y)) == ("2*t^2 + 4", "2*t")
    assert s == pell_pair(2, 5)


def test_add_neutral_and_inverse():
    for p in (3, 7):
        e = pell_pair(0, p)
        for n in (-5, 0, 4, 11):
            a = pell_pair(n, p)
            assert pell_add(a, e) == a
            back = pell_add(a, pell_pair(-n, p))
            assert (back.x, back.y) == (Poly.one(p), Poly.zero(p))


def test_add_matches_generation(rng):
    for _ in range(60):
        p = rng.choice([3, 5, 0])
        m, n = rng.randint(-30, 30), rng.randint(-30, 30)
        got = pell_add(pell_pair(m, p), pell_pair(n, p))
        want = pell_pair(m + n, p)
        assert (got.n, got.x, got.y) == (want.n, want.x, want.y)


def test_add_rejects_char2_and_mixed():
    a = pell_pair(1, 2)
    with pytest.raises(ValueError):
        pell_add(a, a)
    for pair in ((a, pell_pair(1, 3)), (pell_pair(1, 3), a)):
        with pytest.raises(ValueError, match="conic form only"):
            pell_add(*pair)
    with pytest.raises(ValueError):
        pell_add(pell_pair(1, 3), pell_pair(1, 5))


def test_modulus_two_is_the_only_form_switch():
    # The offset quotients refuse the char-2 form with the text the CLI
    # prints, and the oracle refuses a composite modulus before it estimates
    # the sweep, however small.
    with pytest.raises(ValueError, match="the pair domain uses the conic form"):
        pell_pairs_with_quotients([1], 2)
    for p in (1000, 4):
        with pytest.raises(ValueError, match=f"or a prime, got {p}"):
            pell_enumerate_oracle(p, 0)


# -- index recognition ---------------------------------------------------------------

def test_recognize_examples():
    assert pell_index_recognize(Poly.gen(5), Poly.one(5)) == 1
    assert pell_index_recognize(Poly.one(5), Poly.zero(5)) == 0
    assert pell_index_recognize(-Poly.gen(5), Poly.one(5)) is None
    # (-1, 0) solves the conic but is no power pair, except in char 2
    for p in (0, 3):
        assert pell_index_recognize(-Poly.one(p), Poly.zero(p)) is None
    assert pell_index_recognize(-Poly.one(2), Poly.zero(2)) == 0


def test_recognize_roundtrip_and_rejections():
    for p in (0, 3, 5, 17):
        for n in range(-10, 11):
            pr = pell_pair(n, p)
            assert pell_index_recognize(pr.x, pr.y) == n
            if n != 0:
                assert pell_index_recognize(-pr.x, pr.y) is None


def test_recognize_char2_roundtrip():
    for n in range(-10, 11):
        pr = pell_pair(n, 2)
        assert pell_index_recognize(pr.x, pr.y) == n


def test_recognize_raises_off_conic():
    with pytest.raises(ValueError, match="not a solution"):
        pell_index_recognize(Poly.gen(5), Poly.gen(5))


# -- enumeration oracle ---------------------------------------------------------------

def as_text_set(S):
    return sorted((format_poly(x), format_poly(y)) for x, y in S)


def test_oracle_p3_d1_frozen():
    got = pell_enumerate_oracle(3, 1)
    assert as_text_set(got) == [
        ("1", "0"), ("2", "0"),
        ("2*t", "1"), ("2*t", "2"),
        ("2*t^2 + 2", "2*t"), ("2*t^2 + 2", "t"),
        ("t", "1"), ("t", "2"),
        ("t^2 + 1", "2*t"), ("t^2 + 1", "t"),
    ]
    expected = set()
    for n in range(-2, 3):
        pr = pell_pair(n, 3)
        expected.add((pr.x, pr.y))
        expected.add((-pr.x, pr.y))
    assert got == frozenset(expected)


def test_oracle_p5_d0_frozen():
    got = pell_enumerate_oracle(5, 0)
    assert as_text_set(got) == [
        ("1", "0"), ("4", "0"),
        ("4*t", "1"), ("4*t", "4"),
        ("t", "1"), ("t", "4"),
    ]


def test_oracle_cap_counts_the_sieve_tables():
    # p^3 > 10^7 table steps at any degree: p = 509, D = 0 once took 19 s
    for p, max_deg in ((223, 0), (257, 1), (509, 0)):
        with pytest.raises(FeasibilityError, match=f"at p = {p} exceeds"):
            pell_enumerate_oracle(p, max_deg)


def test_oracle_cap_counts_the_work():
    # Inside the old candidate cap, these swept for 3.8, 7.3 and 32.5 s.
    for p, max_deg in ((3, 11), (5, 9), (3, 13)):
        with pytest.raises(FeasibilityError, match=f"at p = {p} exceeds"):
            pell_enumerate_oracle(p, max_deg)
    # The cases the acceptance criteria and the tests sweep stay inside.
    for p, max_deg in ((3, 4), (5, 5), (7, 4), (2, 4), (3, 10), (211, 0)):
        assert pell._oracle_work(p, max_deg) <= pell.ORACLE_WORK_LIMIT
    for p in (2, 3, 5, 17):
        works = [pell._oracle_work(p, d) for d in range(70)]
        assert works == sorted(works)


@pytest.mark.parametrize("p, max_deg", [(5, 7), (7, 6), (11, 5), (13, 4),
                                        (17, 4), (19, 4)])
def test_oracle_at_the_cap_edge_equals_the_family(p, max_deg):
    # the largest bound the cap admits at p, and one past it
    assert pell_enumerate_oracle(p, max_deg) == pell_family(p, max_deg)
    with pytest.raises(FeasibilityError, match=f"at p = {p} exceeds"):
        pell_enumerate_oracle(p, max_deg + 1)


def test_oracle_char2_frozen():
    got = pell_enumerate_oracle(2, 2)
    expected = set()
    for n in range(-3, 4):
        pr = pell_pair(n, 2)
        expected.add((pr.x, pr.y))
    assert got == frozenset(expected)
    assert len(got) == 7


def _unsieved_oracle(p, max_deg):
    """The conic sweep without the point-value sieve: every y goes through
    the exact square-root test, as the oracle did before the sieve."""
    found = set()
    for coeffs in itertools.product(range(p), repeat=max_deg + 1):
        found.update(_conic_solutions_for_y(Poly(coeffs, p)))
    return frozenset(found)


@pytest.mark.parametrize("p, max_deg",
                         [(3, 0), (13, 0), (5, 1), (13, 1), (3, 3), (5, 3),
                          (7, 2), (7, 3), (11, 1), (3, 4), (5, 4)])
def test_oracle_equals_unsieved_reference(p, max_deg):
    # D = 0 has no tail prefix and (13, 0) no extension point; (7, 3) has
    # a prefix of two coefficients and (3, 4), (5, 4) of three.
    assert pell_enumerate_oracle(p, max_deg) == _unsieved_oracle(p, max_deg)


def _fp2(p):
    """F_(p^2) = F_p[i]/(i^2 - n), n the least non-residue: its multiply
    on pairs (a, b) = a + b i, and its set of squares."""
    n = min(set(range(1, p)) - {x * x % p for x in range(p)})

    def mul(x, y):
        return ((x[0] * y[0] + n * x[1] * y[1]) % p,
                (x[0] * y[1] + x[1] * y[0]) % p)

    field = [(a, b) for a in range(p) for b in range(p)]
    return mul, {mul(x, x) for x in field}


@pytest.mark.parametrize("p, max_deg", [(5, 0), (3, 2), (5, 3), (7, 2),
                                        (7, 3), (11, 1), (13, 1)])
def test_oracle_sieve_passes_exactly_the_square_valued_ys(
        monkeypatch, p, max_deg):
    # y reaches the exact square-root test iff u = 1 + (t^2 - 1) y^2 takes a
    # square or zero of F_p at every a in F_p, and a square of F_(p^2) at
    # each extension point the sieve uses: one per conjugate pair, taken in
    # the order b = 1, 2, ..., a = 0..p-1, until there are
    # ceil((max_deg + 1) log2 p) points with a^2 != 1 in all.
    reached = []

    def recording(y):
        reached.append(y)
        return _conic_solutions_for_y(y)

    monkeypatch.setattr(pell, "_conic_solutions_for_y", recording)
    pell_enumerate_oracle(p, max_deg)
    mul, fp2_squares = _fp2(p)
    fp_squares = {x * x % p for x in range(p)}
    wanted = math.ceil((max_deg + 1) * math.log2(p)) - (p - 2)
    classes = [(a, b) for b in range(1, (p + 1) // 2) for a in range(p)]
    extension = classes[:max(wanted, 0)]

    def u_at(y, alpha):
        value = (0, 0)
        for c in reversed(y.coeffs):
            value = mul(value, alpha)
            value = ((value[0] + c) % p, value[1])
        g = mul(alpha, alpha)
        v = mul(((g[0] - 1) % p, g[1]), mul(value, value))
        return ((v[0] + 1) % p, v[1])

    ys = [Poly(cs, p) for cs in itertools.product(range(p), repeat=max_deg + 1)]
    expected = [
        y for y in ys
        if all((1 + (a * a - 1) * y.evaluate(a) ** 2) % p in fp_squares
               for a in range(p))
        and all(u_at(y, alpha) in fp2_squares for alpha in extension)
    ]
    assert len(reached) == len(set(reached))
    assert set(reached) == set(expected)


def _summed_rows(p, max_deg, alpha, mul, squares, size):
    """One sieve point's row table by direct sums, as the sieve built it
    before its walks: p terms per mask, p masks per row, and two products
    per value 1 + (alpha^2 - 1) z^2."""
    field = [(a, b) for b in range(size // p) for a in range(p)]
    power = (1, 0)
    for _ in range(max_deg):
        power = mul(power, alpha)
    g = mul(alpha, alpha)
    g = ((g[0] - 1) % p, g[1])
    square_at = [(v[0] + 1) % p + p * v[1] in squares
                 for v in (mul(g, mul(z, z)) for z in field)]
    masks = [sum(1 << c for c in range(p) if square_at[(a + c) % p + p * b])
             for a, b in field]
    br, bi = power
    lasts = range(p) if max_deg else (0,)
    return [sum(masks[(a + c * br) % p + p * ((b + c * bi) % p)] << c * p
                for c in lasts)
            for a, b in field]


@pytest.mark.parametrize("p, max_deg", [(3, 0), (5, 1), (7, 4), (13, 1),
                                        (5, 7)])
def test_point_rows_equal_the_summed_tables(p, max_deg):
    # At every sieve point the oracle uses, and at alpha = 0 over F_(p^2)
    # too, the walked row table equals the one summed term by term.
    # alpha = 0 is a sieve point at every odd p, as 0^2 != 1; for D >= 1
    # every prefix value there is 0, so only row 0 is read and compared.
    mul, _ = _fp2(p)
    field = [(a, b) for b in range(p) for a in range(p)]
    squared = [mul(z, z) for z in field]
    fp_squares = {a for a, _ in squared[:p]}
    fp2_squares = {a + p * b for a, b in squared}
    wanted = (p ** (max_deg + 1) - 1).bit_length() - (p - 2)
    classes = [(a, b) for b in range(1, (p + 1) // 2) for a in range(p)]
    points = [((a, 0), squared[:p], fp_squares)
              for a in range(p) if (a * a - 1) % p]
    points += [(alpha, squared, fp2_squares)
               for alpha in classes[:max(wanted, 0)]]
    assert points[0][0] == (0, 0)
    points.append(((0, 0), squared, fp2_squares))
    for alpha, point_squared, squares in points:
        got = pell._point_rows(p, mul, point_squared, squares, alpha, max_deg)
        want = _summed_rows(p, max_deg, alpha, mul, squares,
                            len(point_squared))
        if alpha == (0, 0) and max_deg:
            got, want = got[:1], want[:1]
        assert got == want, alpha


def _brute_force_char2(max_deg):
    """The char-2 sweep over every x with deg x <= max_deg + 1, as the
    oracle did before it solved for x."""
    t, one = Poly.gen(2), Poly.one(2)
    found = set()
    for y_coeffs in itertools.product(range(2), repeat=max_deg + 1):
        y = Poly(y_coeffs, 2)
        for x_coeffs in itertools.product(range(2), repeat=max_deg + 2):
            x = Poly(x_coeffs, 2)
            if x * x + t * x * y + y * y == one:
                found.add((x, y))
    return frozenset(found)


@pytest.mark.parametrize("max_deg", range(5))
def test_char2_oracle_equals_brute_force(max_deg):
    assert pell_enumerate_oracle(2, max_deg) == _brute_force_char2(max_deg)


def test_char2_candidates_pass_the_exact_check(monkeypatch):
    # A wrong candidate from the linear solve must not reach the result.
    solve = pell._char2_candidates
    monkeypatch.setattr(pell, "_char2_candidates",
                        lambda y: solve(y) + [y, y << 1 | 1])
    assert pell_enumerate_oracle(2, 3) == _brute_force_char2(3)


@pytest.mark.parametrize("p", [2, 5])
def test_oracle_rejects_negative_degree_bound(p):
    with pytest.raises(ValueError, match="degree bound"):
        pell_enumerate_oracle(p, -1)


def test_oracle_feasibility_guard():
    with pytest.raises(FeasibilityError):
        pell_enumerate_oracle(17, 10)


def test_pair_type_fields():
    pr = pell_pair(4, 7)
    assert isinstance(pr, PellPair)
    assert pr.p == 7 and pr.n == 4


# -- the conic oracle's coefficient loop against its Poly-level original ---------

@pytest.mark.parametrize("p", [3, 5, 7])
def test_conic_candidate_matches_reference(rng, monkeypatch, p):
    seen = []
    monkeypatch.setattr(pell, "square_root_poly", lambda u: seen.append(u))
    t, one = Poly.gen(p), Poly.one(p)
    t2m1 = t * t - one
    ys = [Poly.zero(p), one, Poly.const(p - 1, p), t]
    ys += [random_poly(rng, p, rng.randint(0, 6)) for _ in range(60)]
    for y in ys:
        assert _conic_solutions_for_y(y) == []
        u = seen.pop()
        assert u == one + t2m1 * (y * y), y
        assert u.coeffs == Poly(list(u.coeffs), p).coeffs


def test_conic_candidate_solutions():
    p = 5
    pair = pell_pair(3, p)
    sols = _conic_solutions_for_y(pair.y)
    assert {x for x, _ in sols} == {pair.x, -pair.x}
    assert all(y == pair.y for _, y in sols)
    assert _conic_solutions_for_y(Poly.gen(p)) == []
