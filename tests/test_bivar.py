"""Tests for bivariate truncations, collapse, kernel factors, hyperbola maps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zinterp.bivar import (
    BiTrunc,
    _linear_subst,
    collapse_diagonal,
    format_bipoly,
    from_hyperbola,
    kernel_factor,
    parse_bipoly,
    to_hyperbola,
)
from zinterp.valued import series_mul

from conftest import SEED
import math
import random


def random_bitrunc(rng, p, bound, density=0.6):
    entries = {}
    for m in range(bound + 1):
        for n in range(bound + 1 - m):
            if rng.random() < density:
                entries[(m, n)] = rng.randrange(p)
    return BiTrunc.from_dict(entries, p, bound)


# -- construction and arithmetic ----------------------------------------------

def test_entries_reduced_sorted_and_bounded():
    f = BiTrunc(5, 3, ((1, 0, 7), (0, 0, 5), (1, 0, 5)))
    assert f.entries == ((1, 0, 2),)
    with pytest.raises(ValueError):
        BiTrunc(5, 1, ((1, 1, 1),))
    with pytest.raises(ValueError):
        BiTrunc(5, 2, ((-1, 0, 1),))
    with pytest.raises(ValueError):
        BiTrunc(0, 2, ((1, 0, 1),))


def test_mul_exact_bounds_add():
    p = 5
    f = parse_bipoly("t + u", p, 1)
    g = parse_bipoly("t - u", p, 1)
    prod = f * g
    assert prod.bound == 2 and prod.exact
    assert prod.as_dict() == {(2, 0): 1, (0, 2): 4}


def test_mul_inexact_caps_at_window():
    p = 5
    f = BiTrunc(p, 2, ((0, 0, 1), (2, 0, 1)), exact=False)
    g = parse_bipoly("t^2 + 1", p, 2)
    prod = f * g
    assert prod.bound == 2 and not prod.exact
    # the t^4 coefficient is beyond the guaranteed window and is dropped
    assert prod.as_dict() == {(0, 0): 1, (2, 0): 2}


def test_add_bound_rules():
    p = 3
    a = parse_bipoly("t^2", p, 4)
    b = parse_bipoly("u", p, 1)
    assert (a + b).bound == 4 and (a + b).exact
    c = BiTrunc(p, 2, ((0, 0, 1),), exact=False)
    s = a + c
    assert s.bound == 2 and not s.exact


# -- collapse ------------------------------------------------------------------

def test_collapse_kernel_generator_is_zero():
    for p in (2, 3, 5, 17):
        h = collapse_diagonal(BiTrunc.kernel_generator(p))
        assert h.support() == []
        assert h.unknown_exponents() == []
        assert h.n_min == -2 and h.n_max == 2


def test_collapse_frozen_examples():
    p = 7
    h = collapse_diagonal(parse_bipoly("t^2*u", p, 3))
    assert h.support() == [(1, 0)]
    assert h.coeff(1).qcoeffs == (1,)

    g = collapse_diagonal(parse_bipoly("t^2 + u^2", p, 2))
    assert g.support() == [(-2, 0), (2, 0)]


def test_collapse_marks_inexact_windows():
    f = BiTrunc(5, 3, ((1, 0, 1),), exact=False)
    h = collapse_diagonal(f)
    assert not h.lo_exact and not h.hi_exact
    assert h.n_min == -3 and h.n_max == 3


def test_collapse_is_multiplicative(rng):
    for _ in range(100):
        p = rng.choice([3, 5, 7])
        f = random_bitrunc(rng, p, rng.randrange(4))
        g = random_bitrunc(rng, p, rng.randrange(4))
        assert collapse_diagonal(f * g) == series_mul(
            collapse_diagonal(f), collapse_diagonal(g)
        )


# -- kernel factorization ------------------------------------------------------

def test_kernel_factor_of_generator_is_one():
    F = kernel_factor(BiTrunc.kernel_generator(5))
    assert F.as_dict() == {(0, 0): 1}
    assert F.bound == 0 and F.exact


def test_kernel_factor_frozen_example():
    # t^2*u - t = t * (tu - 1)
    f = parse_bipoly("t^2*u - t", 5, 3)
    F = kernel_factor(f)
    assert F.as_dict() == {(1, 0): 1}
    assert F.bound == 1


def test_kernel_factor_rejects_nonvanishing_collapse():
    with pytest.raises(ValueError, match="diagonals"):
        kernel_factor(parse_bipoly("t", 5, 2))
    with pytest.raises(ValueError, match="diagonals \\[0\\]"):
        kernel_factor(parse_bipoly("t*u", 5, 2))


def test_kernel_factor_roundtrip_random(rng):
    for _ in range(200):
        p = rng.choice([3, 5, 7, 17])
        G = random_bitrunc(rng, p, rng.randrange(7))
        f = BiTrunc.kernel_generator(p) * G
        F = kernel_factor(f)
        assert F.as_dict() == G.as_dict()
        assert F.exact
        assert (BiTrunc.kernel_generator(p) * F).as_dict() == f.as_dict()


def test_kernel_factor_inexact_window():
    rng = random.Random(SEED + 1)
    p = 5
    G = random_bitrunc(rng, p, 4, density=1.0)
    f = BiTrunc.kernel_generator(p) * G
    blurred = BiTrunc(p, f.bound, f.entries, exact=False)
    F = kernel_factor(blurred)
    assert not F.exact
    assert F.bound == f.bound - 2
    assert F.as_dict() == G.as_dict()


def ref_kernel_factor(f):
    """The recursion over every (m, n) with m + n <= f.bound."""
    sums = {}
    for m, n, c in f.entries:
        sums[m - n] = (sums.get(m - n, 0) + c) % f.p
    if any(sums.values()):
        raise ValueError("collapse does not vanish")
    cs = f.as_dict()
    gamma = {}
    for s in range(f.bound + 1):
        for m in range(s + 1):
            n = s - m
            g = (gamma.get((m - 1, n - 1), 0) - cs.get((m, n), 0)) % f.p
            if g:
                gamma[(m, n)] = g
    out_bound = max(f.bound - 2, 0)
    if f.exact and any(m + n > out_bound for m, n in gamma):
        raise ValueError("factor escapes the degree bound")
    kept = {k: v for k, v in gamma.items() if k[0] + k[1] <= out_bound}
    return BiTrunc.from_dict(kept, f.p, out_bound, f.exact)


def _kernel_outcome(fn, f):
    try:
        return fn(f)
    except ValueError as exc:
        return str(exc).split(" (")[0]


def test_kernel_factor_matches_full_walk(rng):
    # multiples of tu - 1, some marked inexact, and arbitrary truncations
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        G = random_bitrunc(rng, p, rng.randrange(6), rng.random())
        f = BiTrunc.kernel_generator(p) * G
        if rng.random() < 0.3:
            f = random_bitrunc(rng, p, rng.randrange(4), rng.random())
        f = BiTrunc(p, f.bound + rng.randrange(3), f.entries,
                    rng.random() < 0.7)
        assert _kernel_outcome(kernel_factor, f) \
            == _kernel_outcome(ref_kernel_factor, f)


# -- hyperbola coordinates -----------------------------------------------------

def test_pell_conic_maps_to_hyperbola_odd():
    p = 5
    conic = parse_bipoly("t^2 - u^2 - 1", p, 2)
    assert to_hyperbola(conic).as_dict() == {(1, 1): 1, (0, 0): p - 1}


def test_pell_conic_maps_to_hyperbola_char2():
    conic = parse_bipoly("u^2 + t*u + 1", 2, 2)
    assert to_hyperbola(conic).as_dict() == {(1, 1): 1, (0, 0): 1}


def test_hyperbola_roundtrip_random(rng):
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7])
        f = random_bitrunc(rng, p, 8)
        assert from_hyperbola(to_hyperbola(f)).as_dict() == f.as_dict()
        assert to_hyperbola(from_hyperbola(f)).as_dict() == f.as_dict()
        assert to_hyperbola(f).bound == 8 and to_hyperbola(f).exact


def negate_second(f: BiTrunc) -> BiTrunc:
    """u -> -u.  In hyperbola coordinates this is exactly the z/w swap."""
    return BiTrunc(
        f.p, f.bound,
        tuple((m, n, c if n % 2 == 0 else -c) for m, n, c in f.entries),
        f.exact,
    )


def swap_vars(f: BiTrunc) -> BiTrunc:
    return BiTrunc(
        f.p, f.bound, tuple((n, m, c) for m, n, c in f.entries), f.exact
    )


def test_negating_second_variable_swaps_hyperbola_coords(rng):
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        f = random_bitrunc(rng, p, 6)
        assert to_hyperbola(negate_second(f)) == swap_vars(to_hyperbola(f))


def ref_linear_subst(f, first, second):
    """The binomial expansion of each (a z + b w)^m (c z + d w)^n."""
    a, b = first
    c, d = second
    p = f.p
    acc = {}
    for m, n, coeff in f.entries:
        left = [math.comb(m, i) * pow(a, i, p) * pow(b, m - i, p) % p
                for i in range(m + 1)]
        right = [math.comb(n, k) * pow(c, k, p) * pow(d, n - k, p) % p
                 for k in range(n + 1)]
        for i, lc in enumerate(left):
            for k, rc in enumerate(right):
                key = (i + k, (m - i) + (n - k))
                acc[key] = acc.get(key, 0) + coeff * lc * rc
    return BiTrunc.from_dict(acc, p, f.bound, f.exact)


def test_linear_subst_matches_binomial_expansion(rng):
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11])
        f = random_bitrunc(rng, p, rng.randrange(10), rng.random())
        if rng.random() < 0.3:
            f = BiTrunc(p, f.bound, f.entries, exact=False)
        first = (rng.randrange(p), rng.randrange(p))
        second = (rng.randrange(p), rng.randrange(p))
        assert _linear_subst(f, first, second) \
            == ref_linear_subst(f, first, second)


# -- text format ---------------------------------------------------------------

def test_parse_bipoly():
    f = parse_bipoly("2*t^2*u - t + 3", 7, 3)
    assert f.as_dict() == {(2, 1): 2, (1, 0): 6, (0, 0): 3}
    g = parse_bipoly("u^2*t", 5, 3)
    assert g.as_dict() == {(1, 2): 1}


def test_parse_bipoly_errors():
    with pytest.raises(ValueError, match="unknown variable"):
        parse_bipoly("x + 1", 5, 2)
    with pytest.raises(ValueError, match="bad factor"):
        parse_bipoly("t^", 5, 2)
    with pytest.raises(ValueError):
        parse_bipoly("", 5, 2)
    with pytest.raises(ValueError):
        parse_bipoly("t + + u", 5, 2)


def test_format_parse_roundtrip(rng):
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        f = random_bitrunc(rng, p, 5)
        text = format_bipoly(f)
        assert parse_bipoly(text, p, 5).as_dict() == f.as_dict()
    assert format_bipoly(BiTrunc.zero(5, 2)) == "0"
    assert format_bipoly(parse_bipoly("t*u - 1", 5, 2)) == "t*u + 4"


# -- text round-trips (property-based) ----------------------------------------------


@st.composite
def _text_bipolys(draw):
    p = draw(st.sampled_from((2, 3, 5, 17, 257)))
    bound = draw(st.integers(0, 6))
    terms = draw(st.lists(st.tuples(st.integers(0, bound), st.integers(0, bound),
                                    st.integers(0, p - 1)), max_size=8))
    return BiTrunc.from_dict({(m, n): c for m, n, c in terms if m + n <= bound},
                             p, bound)


@settings(max_examples=300)
@given(f=_text_bipolys())
def test_bipoly_text_round_trips(f):
    assert parse_bipoly(format_bipoly(f), f.p, f.bound) == f
