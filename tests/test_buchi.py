"""Tests for square-sequence families, polynomial roots, and the seed sweep."""

import itertools

import pytest

from zinterp import buchi
from zinterp.algebra import FeasibilityError, Poly, frob_pow, kth_roots_mod
from zinterp.buchi import (
    BuchiSeq,
    _extend_all_squares,
    _match_family,
    buchi_generate,
    buchi_search_oracle,
    ge_p_check,
    poly_kth_root,
    second_differences_equal_two,
    square_root_poly,
)

from conftest import random_poly


def poly_of(coeffs, p):
    return Poly(tuple(coeffs), p)


# -- generation ----------------------------------------------------------------

def test_generate_squares_of_integers():
    seq = buchi_generate(Poly.zero(17), 0, 5, 17)
    assert [t.coeffs for t in seq.terms] == [(1,), (4,), (9,), (16,), (8,)]
    assert seq.valid and seq.length == 5


def test_generate_linear_shift():
    seq = buchi_generate(Poly.gen(17), 0, 17, 17)
    assert seq.terms[0] == poly_of([1, 2, 1], 17)
    assert seq.valid


def test_generate_with_frobenius_power():
    seq = buchi_generate(Poly.gen(17), 1, 17, 17)
    assert seq.valid
    assert seq.terms[0].degree == 18
    assert seq.terms[0] == frob_pow(Poly((1, 1), 17), 1) * Poly((1, 1), 17)


def test_second_difference_identity_grid(rng):
    for p in (17, 19, 23):
        for r in (0, 1):
            for _ in range(6):
                v = random_poly(rng, p, 3)
                seq = buchi_generate(v, r, 17, p)
                assert seq.valid
                assert second_differences_equal_two(seq.terms)


def test_generate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        buchi_generate(Poly.gen(2), 0, 5, 2)
    with pytest.raises(ValueError):
        buchi_generate(Poly.gen(17), 0, 5, 19)
    with pytest.raises(ValueError):
        buchi_generate(Poly.gen(17), -1, 5, 17)


# -- Frobenius-power order -------------------------------------------------------

def test_ge_p_check_examples():
    assert ge_p_check(poly_of([0, 0, 1], 2), Poly.gen(2)) == 1
    assert ge_p_check(Poly.gen(5), Poly.gen(5)) == 0
    assert ge_p_check(poly_of([0, 0, 0, 1], 3), Poly.gen(3)) == 1
    assert ge_p_check(poly_of([0, 0, 0, 1], 2), Poly.gen(2)) is None


def test_ge_p_check_constants_and_zero():
    assert ge_p_check(Poly.const(3, 5), Poly.const(3, 5)) == 0
    assert ge_p_check(Poly.const(2, 5), Poly.const(3, 5)) is None
    assert ge_p_check(Poly.zero(5), Poly.zero(5)) == 0
    assert ge_p_check(Poly.gen(5), Poly.zero(5)) is None


def test_ge_p_check_transitive_with_added_exponents(rng):
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        h = random_poly(rng, p, 3, nonzero=True) + Poly.gen(p)
        if h.degree < 1:
            continue
        r1, r2 = rng.randrange(3), rng.randrange(3)
        g = frob_pow(h, r2)
        f = frob_pow(g, r1)
        assert ge_p_check(g, h) == r2
        assert ge_p_check(f, h) == r1 + r2


def test_ge_p_check_validates_moduli():
    with pytest.raises(ValueError):
        ge_p_check(Poly.gen(5), Poly.gen(7))
    with pytest.raises(ValueError):
        ge_p_check(Poly.gen(0), Poly.gen(0))


# -- root extraction -------------------------------------------------------------

def test_square_root_examples():
    assert square_root_poly(poly_of([1, 2, 1], 17)) == poly_of([1, 1], 17)
    assert square_root_poly(Poly.gen(17)) is None
    assert square_root_poly(Poly.zero(17)) == Poly.zero(17)


def test_square_root_normalization():
    p = 7
    s = poly_of([3, 5], p)
    root = square_root_poly(s * s)
    assert root in (s, -s)
    assert 1 <= root.leading_coeff() <= (p - 1) // 2


def test_square_root_of_generated_term():
    p, r = 17, 1
    v = poly_of([2, 1], p)
    seq = buchi_generate(v, r, 3, p)
    base = Poly.const(3, p) + v
    w = base ** ((p ** r + 1) // 2)
    got = square_root_poly(seq.terms[2])
    assert got in (w, -w)


def test_square_root_random_roundtrip(rng):
    hits = 0
    for _ in range(200):
        p = rng.choice([3, 5, 17])
        s = random_poly(rng, p, 4)
        root = square_root_poly(s * s)
        assert root is not None and root * root == s * s
        if s.coeffs:
            hits += 1
            assert root in (s, -s)
    assert hits > 150


def test_square_root_rejects_nonsquares(rng):
    p = 5
    missed = 0
    for _ in range(100):
        f = random_poly(rng, p, 5, nonzero=True)
        root = square_root_poly(f)
        if root is None:
            missed += 1
            s = square_root_poly(f * f)
            assert s is not None
    assert missed > 50


def test_square_root_needs_odd_prime():
    with pytest.raises(ValueError):
        square_root_poly(Poly.gen(2))
    with pytest.raises(ValueError):
        square_root_poly(Poly.gen(0))


def test_kth_root_examples():
    assert poly_kth_root(Poly.monomial(1, 18, 17), 18) == Poly.gen(17)
    # 6^18 = 6^2 = 2 mod 17, so 2*t^18 has the root 6t
    assert poly_kth_root(Poly.monomial(2, 18, 17), 18) == Poly.monomial(6, 1, 17)
    # 3 is a quadratic non-residue mod 17 and 18th powers are the squares
    assert poly_kth_root(Poly.monomial(3, 18, 17), 18) is None
    assert poly_kth_root(Poly.monomial(1, 19, 17), 18) is None
    assert poly_kth_root(poly_of([1, 3, 3, 1], 7), 3) == poly_of([1, 1], 7)
    assert poly_kth_root(Poly.gen(7), 3) is None
    assert poly_kth_root(Poly.zero(7), 4) == Poly.zero(7)


def test_kth_root_random_roundtrip(rng):
    for _ in range(100):
        p = rng.choice([5, 7, 17])
        k = rng.choice([2, 3, 4, 6])
        if k % p == 0:
            continue
        g = random_poly(rng, p, 3, nonzero=True)
        root = poly_kth_root(g ** k, k)
        assert root is not None
        assert root ** k == g ** k


def test_kth_root_keeps_true_powers(rng):
    cases = [(p, k) for p in [3, 5, 7, 13, 17] for k in [2, 3] if k != p]
    cases.append((17, 18))
    for p, k in cases:
        for _ in range(40):
            s = random_poly(rng, p, 4 if k < 18 else 2, nonzero=True)
            # vanish at a few points of F_p, so some values are zero
            for a in rng.sample(range(p), rng.randint(0, 2)):
                s = s * Poly((-a, 1), p)
            f = s ** k
            root = poly_kth_root(f, k)
            assert root is not None and root ** k == f


def _is_square_brute(f, p):
    m = f.degree // 2
    return any(
        Poly(cs, p) * Poly(cs, p) == f
        for cs in itertools.product(range(p), repeat=m + 1)
    )


def test_square_descent_rejects_nonsquares(rng):
    rejected = 0
    for _ in range(150):
        p = rng.choice([3, 5, 7])
        f = random_poly(rng, p, 2 * rng.randint(1, 2), nonzero=True)
        if f.degree % 2:
            continue
        root = poly_kth_root(f, 2)
        if _is_square_brute(f, p):
            assert root is not None and root * root == f
        else:
            rejected += 1
            assert root is None, f
    assert rejected > 50


def test_kth_root_index_divisible_by_characteristic():
    with pytest.raises(ValueError):
        poly_kth_root(Poly.gen(5), 10)


# -- search oracle ----------------------------------------------------------------

def test_oracle_rejects_wrong_modulus_and_big_degree():
    with pytest.raises(ValueError):
        buchi_search_oracle(19, 0)
    with pytest.raises(FeasibilityError):
        buchi_search_oracle(17, 3)


def test_oracle_constant_seeds():
    report = buchi_search_oracle(17, 0)
    assert report.seeds_scanned == 289
    assert report.retained == ()
    assert report.constant_families == 17


def test_oracle_degree_one_sweep():
    report = buchi_search_oracle(17, 1)
    assert report.seeds_scanned == 83521
    assert len(report.retained) == 272
    assert report.constant_families == 17
    assert report.flagged == ()
    for fam in report.retained:
        assert fam.matched
        assert fam.r == 0
        assert fam.v.degree == 1
        regen = buchi_generate(fam.v, fam.r, 17, 17)
        full = _extend_all_squares_reference(fam.u1, fam.u2, 17, 17)
        assert full is not None and regen.terms == tuple(full)


def test_oracle_seeded_positive_is_retained():
    seq = buchi_generate(Poly.gen(17), 0, 2, 17)
    report = buchi_search_oracle(17, 1)
    assert any(
        fam.u1 == seq.terms[0] and fam.u2 == seq.terms[1]
        for fam in report.retained
    )


def _unsieved_oracle(p, d):
    """The seed sweep without the point-value sieve: every seed pair goes
    through the exact extension, as the oracle did before the sieve.  It
    keeps the whole extended sequence, tests constancy on every term and
    matches families by comparing all p terms."""
    scanned = 0
    seen = set()
    constants = set()
    families = {}
    seeds = [Poly(cs, p) for cs in itertools.product(range(p), repeat=d + 1)]
    for s1 in seeds:
        u1 = s1 * s1
        for s2 in seeds:
            u2 = s2 * s2
            scanned += 1
            key = (u1.coeffs, u2.coeffs)
            if key in seen:
                continue
            seen.add(key)
            terms = _extend_all_squares_reference(u1, u2, p, p)
            if terms is None:
                continue
            if all(len(t.coeffs) <= 1 for t in terms):
                constants.add(key)
                continue
            match = _match_family_by_roots(terms, p)
            v, r = (None, None) if match is None else match
            families[key] = buchi.BuchiFamily(u1, u2, v, r)
    retained = tuple(families[k] for k in sorted(families))
    return buchi.BuchiOracleReport(p, d, scanned, retained, len(constants))


def _record_survivors(monkeypatch):
    """The non-constant seed squares the sieve lets through, in the order
    the oracle hands them to the matcher, and those it hands on to the
    exact extension."""
    matched, extended = [], []

    def match(u1, u2):
        matched.append((u1.coeffs, u2.coeffs))
        return _match_family(u1, u2)

    def extend(u1, u2, length):
        extended.append((u1.coeffs, u2.coeffs))
        return _extend_all_squares(u1, u2, length)

    monkeypatch.setattr(buchi, "_match_family", match)
    monkeypatch.setattr(buchi, "_extend_all_squares", extend)
    return matched, extended


@pytest.mark.parametrize("d", [0, 1])
def test_oracle_equals_unsieved_reference(d):
    assert buchi_search_oracle(17, d) == _unsieved_oracle(17, d)


def test_oracle_sieve_passes_exactly_the_square_valued_seeds(monkeypatch):
    # A seed survives the sieve iff every term u_3..u_17 takes a square or
    # zero value at every point of F_17: the sieve is neither weaker nor
    # stronger than the point test it stands for.  Constant survivors are
    # counted, the others handed to the matcher.
    p = 17
    matched, extended = _record_survivors(monkeypatch)
    report = buchi_search_oracle(p, 1)
    squares = {x * x % p for x in range(p)}
    pair_ok = {}
    for x, y in itertools.product(range(p), repeat=2):
        u1, u2 = x * x, y * y
        pair_ok[x, y] = all(
            (u1 + (n - 1) * (u2 - u1) + (n - 1) * (n - 2)) % p in squares
            for n in range(3, p + 1)
        )
    seeds = [Poly(cs, p) for cs in itertools.product(range(p), repeat=2)]
    values = [[s.evaluate(a) for a in range(p)] for s in seeds]
    expected = {
        ((s1 * s1).coeffs, (s2 * s2).coeffs)
        for s1, v1 in zip(seeds, values)
        for s2, v2 in zip(seeds, values)
        if all(pair_ok[x, y] for x, y in zip(v1, v2))
    }
    constant = {k for k in expected if len(k[0]) <= 1 and len(k[1]) <= 1}
    assert len(matched) == len(set(matched))
    assert set(matched) == expected - constant
    assert report.constant_families == len(constant)
    assert len(expected) == 289
    # every non-constant survivor is a generated family
    assert extended == []


def test_sieve_table_rows_at_17():
    # Row x of the p = 17 table is {+-(x + 1), +-(x - 1)}: the fact behind
    # the oracle docstring's argument that every survivor at d <= 4 is a
    # constant or a trivial family.  One seed per value y, at one point,
    # reads the row off the module's own table.
    p = 17
    masks = buchi._sieve_masks([[y] for y in range(p)], p)[0]
    for x in range(p):
        row = {y for y in range(p) if masks[x] >> y & 1}
        assert row == {(s * (x + e)) % p for s in (1, -1) for e in (1, -1)}


def test_oracle_generates_two_terms_per_family(monkeypatch):
    lengths = []

    def recording(v, r, length, p):
        lengths.append(length)
        return buchi_generate(v, r, length, p)

    monkeypatch.setattr(buchi, "buchi_generate", recording)
    report = buchi_search_oracle(17, 1)
    assert len(lengths) >= len(report.retained) == 272
    assert set(lengths) == {2}


def test_oracle_degree_two_sweep(monkeypatch):
    # 4,913 = 4,896 + 17: the sieve passes only seeds of real families and
    # constants.  An independent brute force over all 24,137,569 pairs and
    # 17 points finds the same 4,913 seed squares (19,648 pairs) with every
    # value square or zero.
    p = 17
    matched, extended = _record_survivors(monkeypatch)
    report = buchi_search_oracle(p, 2)
    assert len(matched) == len(set(matched)) == 4896
    assert extended == []
    assert report.seeds_scanned == 24137569
    assert report.constant_families == 17
    assert len(report.retained) == 4896
    assert report.flagged == ()
    expected = {
        (Poly(cs, p), 0)
        for cs in itertools.product(range(p), repeat=3)
        if cs[1] or cs[2]
    }
    assert {(fam.v, fam.r) for fam in report.retained} == expected


def test_oracle_extends_what_the_matcher_cannot_explain(monkeypatch):
    # With no family matched, every non-constant survivor goes through the
    # exact extension, passes it, and is retained flagged.
    _, extended = _record_survivors(monkeypatch)
    monkeypatch.setattr(buchi, "_match_family", lambda u1, u2: None)
    report = buchi_search_oracle(17, 1)
    assert len(extended) == len(report.retained) == len(report.flagged) == 272
    assert report.constant_families == 17


def test_oracle_rejects_negative_degree_bound():
    with pytest.raises(ValueError, match="seed degree bound"):
        buchi_search_oracle(17, -1)


def test_no_false_rejects_on_seeded_positives(rng):
    count = 0
    while count < 100:
        r = rng.choice([0, 1])
        v = random_poly(rng, 17, 3)
        if not isinstance(v.degree, int) or v.degree < 1:
            continue
        count += 1
        seq = buchi_generate(v, r, 17, 17)
        u1, u2 = seq.terms[:2]
        assert _extend_all_squares(u1, u2, 17)
        assert tuple(_extend_all_squares_reference(u1, u2, 17, 17)) \
            == seq.terms
        assert _match_family(u1, u2) == (v, r)


def _match_family_by_roots(terms, p):
    """The root-and-unit matcher: each (p^r + 1)-th root of u1, times each
    (p^r + 1)-th root of unity, minus 1, as the candidate v."""
    u1 = terms[0]
    d1 = u1.degree
    if not isinstance(d1, int) or d1 == 0:
        return None
    r = 0
    while p ** r + 1 <= d1:
        k = p ** r + 1
        w = poly_kth_root(u1, k) if d1 % k == 0 else None
        if w is not None:
            for unit in kth_roots_mod(1, k, p):
                v = Poly.const(unit, p) * w - Poly.one(p)
                if list(buchi_generate(v, r, len(terms), p).terms) == terms:
                    return v, r
        r += 1
    return None


def test_match_family_equals_root_and_unit_matcher(rng):
    # Seeds of real families, the same with the second seed perturbed, and
    # the same scaled by a square unit: the linear solve for v on two seeds
    # decides as the roots of u1 adjusted by every unit do on the whole
    # recurrence extension of those seeds.
    matched = unmatched = 0
    for _ in range(1500):
        p = rng.choice([3, 5, 7, 11, 17])
        r = rng.choice([0, 0, 1, 1, 2]) if p < 11 else rng.choice([0, 1])
        v = random_poly(rng, p, rng.randint(1, 5))
        u1, u2 = buchi_generate(v, r, 2, p).terms
        kind = rng.choice(["real", "perturbed", "scaled"])
        if kind == "perturbed":
            u2 += random_poly(rng, p, rng.randint(0, 3), nonzero=True)
        elif kind == "scaled":
            c = Poly.const(rng.randint(2, p - 1) ** 2, p)
            u1, u2 = c * u1, c * u2
        terms = _extend_reference(u1, u2, rng.randint(2, p), p)
        match = _match_family(u1, u2)
        assert match == _match_family_by_roots(terms, p), (p, r, v, kind)
        if kind == "real" and v.degree >= 1:
            assert match == (v, r)
        matched += match is not None
        unmatched += match is None
    assert matched > 500 and unmatched > 500


def test_sequence_type_flags_invalid():
    bad = BuchiSeq((Poly.one(17), Poly.one(17), Poly.one(17)), 17, False)
    assert not second_differences_equal_two(bad.terms)


# -- coefficient-level loops against their Poly-level originals -----------------

def _extend_reference(u1, u2, length, p, keep=lambda u: True):
    """u1, u2 and the terms after them by u_{n+2} = 2u_{n+1} - u_n + 2, up
    to length terms; None at the first term that keep refuses."""
    two = Poly.const(2, p)
    terms = [u1, u2]
    while len(terms) < length:
        nxt = terms[-1] + terms[-1] - terms[-2] + two
        if not keep(nxt):
            return None
        terms.append(nxt)
    return terms


def _extend_all_squares_reference(u1, u2, length, p):
    return _extend_reference(
        u1, u2, length, p, lambda u: buchi.square_root_poly(u) is not None)


def _second_differences_reference(terms, p):
    two = Poly.const(2, p)
    return all(
        terms[i + 2] - terms[i + 1] - terms[i + 1] + terms[i] == two
        for i in range(len(terms) - 2)
    )


def _second_differences_by_lists(terms, p):
    """The same test on coefficient lists: u_(n+2) - 2 u_(n+1) + u_n
    reduced mod p is the constant 2."""
    cs = [list(u.coeffs) for u in terms]
    for a, b, c in zip(cs, cs[1:], cs[2:]):
        n = max(len(a), len(b), len(c), 1)
        a, b, c = (v + [0] * (n - len(v)) for v in (a, b, c))
        d = [(z - 2 * y + x) % p for x, y, z in zip(a, b, c)]
        if d != [2] + [0] * (n - 1):
            return False
    return True


def _seed_pairs(rng, p):
    """Zero, constants, random squares, random non-squares and the seeds
    of generated families."""
    small = [Poly.zero(p), Poly.one(p), Poly.const(p - 1, p)]
    pairs = [(a, b) for a in small for b in small]
    for _ in range(40):
        s1, s2 = random_poly(rng, p, 2), random_poly(rng, p, 2)
        pairs.append((s1 * s1, s2 * s2))
        pairs.append((random_poly(rng, p, 4), random_poly(rng, p, 4)))
    for _ in range(10):
        seq = buchi_generate(random_poly(rng, p, 2), rng.choice([0, 1]), 2, p)
        pairs.append(seq.terms)
    return pairs


@pytest.mark.parametrize("p", [5, 17])
def test_extend_all_squares_matches_reference(rng, p):
    for u1, u2 in _seed_pairs(rng, p):
        assert (_extend_all_squares(u1, u2, p)
                == (_extend_all_squares_reference(u1, u2, p, p) is not None)
                ), (u1, u2)


@pytest.mark.parametrize("p", [5, 17])
def test_extension_recurrence_matches_reference(rng, monkeypatch, p):
    # With every term accepted as a square, the terms handed to the square
    # test are the whole recurrence, including terms whose top coefficients
    # cancel, each in canonical form.
    tested = []
    monkeypatch.setattr(buchi, "square_root_poly",
                        lambda u: tested.append(u) or u)
    for u1, u2 in _seed_pairs(rng, p):
        tested.clear()
        assert _extend_all_squares(u1, u2, 6)
        assert tested == _extend_reference(u1, u2, 6, p)[2:], (u1, u2)
        assert all(t == Poly(list(t.coeffs), p) for t in tested)


@pytest.mark.parametrize("p", [3, 5, 17, 257])
def test_second_differences_matches_reference(rng, p):
    cases = []
    for u1, u2 in _seed_pairs(rng, p):
        seq = _extend_all_squares_reference(u1, u2, 5, p)
        if seq is not None:
            cases.append(tuple(seq))
            bumped = list(seq)
            bumped[rng.randrange(len(seq))] += Poly.monomial(1, rng.randrange(3), p)
            cases.append(tuple(bumped))
        cases.append((u1, u2, u1 + u2))
        cases.append((u1, u2, u2 + u2 - u1 + 2))
    for terms in cases:
        got = second_differences_equal_two(terms)
        assert got == _second_differences_reference(terms, p), terms
        assert got == _second_differences_by_lists(terms, p), terms
    assert any(second_differences_equal_two(t) for t in cases)
