"""Square sequences with constant second difference, and Frobenius-power order.

A sequence u_1, u_2, ... of polynomials over F_p satisfying
u_{n+2} - 2u_{n+1} + u_n = 2 consists of consecutive values of a quadratic;
the interesting families are u_n = (n + v)^(p^r + 1), which are squares of
(n + v)^((p^r + 1)/2) for odd p.  This module generates those families,
checks the defining second-difference identity symbolically, extracts
polynomial square roots and k-th roots by coefficient matching, decides the
Frobenius-power order (is f = g^(p^r)?), and runs a desk-scale search oracle
that sweeps all square seed pairs and matches every surviving family back to
a generated one.

The oracle sieves seeds before any root extraction, on two facts: a square
in F_p[t] takes a square or zero value at every point a of F_p; and with
u1 = s1^2, u2 = s2^2 the terms are u1 + (n - 1)(u2 - u1) + (n - 1)(n - 2),
so u_n(a) depends only on the pair (s1(a), s2(a)): one p x p table serves
every point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .algebra import (
    FeasibilityError,
    Poly,
    _trimmed,
    frob_pow,
    kth_roots_mod,
)

SEARCH_DEGREE_CAP = 2


@dataclass(frozen=True)
class BuchiSeq:
    """Finite sequence u_1..u_M over F_p, flagged valid when the second
    differences all equal 2."""

    terms: tuple[Poly, ...]
    p: int
    valid: bool

    @property
    def length(self) -> int:
        return len(self.terms)


def _next_term(prev: tuple[int, ...], cur: tuple[int, ...],
               p: int) -> tuple[int, ...]:
    """Coefficients of 2*cur - prev + 2 over F_p, from canonical coefficient
    tuples: the term after prev, cur in a sequence whose second differences
    are 2."""
    n = max(len(prev), len(cur), 1)
    prev += (0,) * (n - len(prev))
    cur += (0,) * (n - len(cur))
    cs = [(y + y - x) % p for x, y in zip(prev, cur)]
    cs[0] = (cs[0] + 2) % p
    return _trimmed(cs)


def second_differences_equal_two(terms: tuple[Poly, ...], p: int) -> bool:
    return all(
        c.coeffs == _next_term(a.coeffs, b.coeffs, p)
        for a, b, c in zip(terms, terms[1:], terms[2:])
    )


def buchi_generate(v: Poly, r: int, length: int, p: int) -> BuchiSeq:
    """The family u_n = (n + v)^(p^r + 1) for n = 1..length.

    Each term is computed as frob_pow(n + v, r) * (n + v), which is the same
    polynomial as the power but linear in the output size.  The returned
    sequence carries the result of an exact second-difference check.
    """
    if p < 3:
        raise ValueError("square-sequence families need an odd prime modulus")
    if v.modulus != p:
        raise ValueError("v must be a polynomial over F_p")
    if r < 0:
        raise ValueError("Frobenius exponent must be nonnegative")
    if length < 1:
        raise ValueError(f"sequence length must be at least 1, got {length}")
    terms = []
    for n in range(1, length + 1):
        base = Poly.const(n, p) + v
        terms.append(frob_pow(base, r) * base)
    terms = tuple(terms)
    return BuchiSeq(terms, p, second_differences_equal_two(terms, p))


def ge_p_check(f: Poly, g: Poly, p: Optional[int] = None) -> Optional[int]:
    """Least r >= 0 with f = g^(p^r), or None if no such r exists.

    Over F_p the p-th power map fixes constants, so for deg g = 0 the answer
    is 0 or nothing; for deg g >= 1 the degree ratio pins down the only
    candidate r, which is then checked exactly.
    """
    if p is None:
        p = f.modulus
    if f.modulus != p or g.modulus != p:
        raise ValueError("moduli disagree")
    if p == 0:
        raise ValueError("Frobenius-power order needs a prime modulus")
    if f == g:
        return 0
    dg = g.degree
    if not isinstance(dg, int) or dg == 0:
        return None
    df = f.degree
    if not isinstance(df, int) or df % dg:
        return None
    ratio, r = df // dg, 0
    while ratio > 1:
        if ratio % p:
            return None
        ratio //= p
        r += 1
    return r if r > 0 and frob_pow(g, r) == f else None


# The residue prefilter evaluates at most this many points of F_p: any
# subset keeps it sound, and a scan of all of a large field would cost more
# than the descent it saves.
_PREFILTER_POINTS = 64


def _has_nonresidue_value(coeffs: tuple[int, ...], k: int, p: int) -> bool:
    """Whether some f(a), a in F_p, is nonzero and not a k-th power.

    A k-th power g^k takes k-th power values at every point, and a unit v
    is a k-th power exactly when v^((p-1)/gcd(k, p-1)) = 1.
    """
    e = (p - 1) // math.gcd(k, p - 1)
    if e == p - 1:
        return False  # every unit is a k-th power
    rev = coeffs[::-1]
    # Horner inline rather than Poly.evaluate: this loop runs for every
    # candidate of the brute-force oracles.
    for a in range(min(p, _PREFILTER_POINTS)):
        v = 0
        for c in rev:
            v = (v * a + c) % p
        if v and pow(v, e, p) != 1:
            return True
    return False


def _square_root_descent(coeffs: tuple[int, ...], lc: int, p: int) -> list[int]:
    """The s = sum g_i t^i with leading coefficient lc whose square matches
    the top half of the coefficients of f = coeffs, deg f = 2m.

    The coefficient of t^(2m-j) in s^2 is 2*lc*g_(m-j) plus products of
    coefficients already found, so each g_(m-j) costs O(j) operations.
    """
    m = (len(coeffs) - 1) // 2
    g = [0] * (m + 1)
    g[m] = lc
    inv = pow(2 * lc, -1, p)
    for j in range(1, m + 1):
        top = 2 * m - j
        cross = sum(g[i] * g[top - i] for i in range(m - j + 1, m))
        g[m - j] = (coeffs[top] - cross) * inv % p
    return g


def poly_kth_root(f: Poly, k: int) -> Optional[Poly]:
    """A polynomial g with g^k = f, or None.

    Requires a prime modulus not dividing k, so the leading coefficient of
    the candidate root enters the top cross term with an invertible factor
    k * lc^(k-1) and coefficients can be matched from the top degree down.
    First f is rejected when one of its values on F_p is a unit but not a
    k-th power.  For k = 2 the descent matches coefficients of the square
    directly, O(m^2) operations for a root of degree m; other k recompute
    the candidate's k-th power at each step.  The lowest coefficients are
    not pinned by the descent, so the candidate is verified exactly before
    being returned.
    """
    p = f.modulus
    if p == 0:
        raise ValueError("root extraction needs a prime modulus")
    if k < 1:
        raise ValueError("root index must be positive")
    if k % p == 0:
        raise ValueError(f"root index {k} is divisible by the characteristic")
    if not f.coeffs:
        return Poly.zero(p)
    df = f.degree
    if df % k or _has_nonresidue_value(f.coeffs, k, p):
        return None
    m = df // k
    for lc in kth_roots_mod(f.leading_coeff(), k, p):
        if k == 2:
            cand = Poly._raw(tuple(_square_root_descent(f.coeffs, lc, p)), p)
            if cand * cand == f:
                return cand
            continue
        g = [0] * (m + 1)
        g[m] = lc
        inv_top = pow(k * pow(lc, k - 1, p) % p, -1, p)
        for j in range(1, m + 1):
            partial = Poly(tuple(g), p) ** k
            delta = (f.coeff(k * m - j) - partial.coeff(k * m - j)) % p
            g[m - j] = delta * inv_top % p
        cand = Poly(tuple(g), p)
        if cand ** k == f:
            return cand
    return None


def square_root_poly(u: Poly) -> Optional[Poly]:
    """s with s^2 = u over F_p (p odd), leading coefficient normalized into
    the half-system 1..(p-1)/2, or None when u is not a square."""
    p = u.modulus
    if p == 0 or p == 2:
        raise ValueError("square roots are extracted over F_p with p odd")
    s = poly_kth_root(u, 2)
    if s is None or not s.coeffs:
        return s
    if s.leading_coeff() > (p - 1) // 2:
        s = -s
    return s


# -- search oracle -------------------------------------------------------------

@dataclass(frozen=True)
class BuchiFamily:
    """A retained search family: its square seeds and, when the family
    matches a generated one, the parameters (v, r) it matches."""

    u1: Poly
    u2: Poly
    v: Optional[Poly]
    r: Optional[int]

    @property
    def matched(self) -> bool:
        return self.v is not None


@dataclass(frozen=True)
class BuchiOracleReport:
    p: int
    degree_bound: int
    seeds_scanned: int
    retained: tuple[BuchiFamily, ...]
    constant_families: int

    @property
    def flagged(self) -> tuple[BuchiFamily, ...]:
        return tuple(f for f in self.retained if not f.matched)


def _extend_all_squares(u1: Poly, u2: Poly, length: int, p: int):
    """Follow u_{n+2} = 2u_{n+1} - u_n + 2 from (u1, u2); return the full
    term list if every term is a square, else None (early exit)."""
    terms = [u1, u2]
    prev, cur = u1.coeffs, u2.coeffs
    while len(terms) < length:
        prev, cur = cur, _next_term(prev, cur, p)
        nxt = Poly._raw(cur, p)
        if square_root_poly(nxt) is None:
            return None
        terms.append(nxt)
    return terms


def _match_family(terms: list[Poly], p: int) -> Optional[tuple[Poly, int]]:
    """Find (v, r) with terms[n-1] = (n + v)^(p^r + 1), if any.

    The first term pins deg v via deg u1 = (p^r + 1) deg v, so only finitely
    many r are possible; each candidate root of u1 is adjusted by the
    (p^r + 1)-th roots of unity.  Every such v matches u1, so only a v that
    also matches the second term has its whole sequence built and compared.
    """
    u1 = terms[0]
    d1 = u1.degree
    if not isinstance(d1, int) or d1 == 0:
        return None
    r = 0
    while True:
        k = p ** r + 1
        if k > d1:
            return None
        if d1 % k == 0:
            w = poly_kth_root(u1, k)
            if w is not None:
                for unit in kth_roots_mod(1, k, p):
                    v = Poly.const(unit, p) * w - Poly.one(p)
                    two = Poly.const(2, p) + v
                    if len(terms) > 1 and frob_pow(two, r) * two != terms[1]:
                        continue
                    seq = buchi_generate(v, r, len(terms), p)
                    if list(seq.terms) == terms:
                        return v, r
        r += 1


def _sieve_masks(values: list[list[int]], p: int) -> list[list[int]]:
    """masks[a][x]: the bitset of seed indices j for which u_3(a)..u_p(a)
    are all squares or zero when s1(a) = x and s2(a) = values[j][a]."""
    squares = {x * x % p for x in range(p)}
    table = [[all((x * x + (n - 1) * (y * y - x * x) + (n - 1) * (n - 2)) % p
                  in squares for n in range(3, p + 1)) for y in range(p)]
             for x in range(p)]
    at_value = [[0] * p for _ in range(p)]
    for j, point_values in enumerate(values):
        for a, y in enumerate(point_values):
            at_value[a][y] |= 1 << j
    # The sets at_value[a][y] are disjoint over y, so their sum is their union.
    return [[sum(at_a[y] for y in range(p) if table[x][y]) for x in range(p)]
            for at_a in at_value]


def buchi_search_oracle(p: int, d: int) -> BuchiOracleReport:
    """Sweep every seed pair u1 = s1^2, u2 = s2^2 with deg s_i <= d over F_p,
    keep the seeds whose recurrence extension stays square through p terms
    with some nonconstant term, and match each survivor to a generated
    family.  Families the matcher cannot explain are retained unmatched
    (see BuchiOracleReport.flagged) for manual review rather than asserted
    away.

    Seeds are first sieved by their values on F_p (see the module
    docstring); only the survivors go through the exact extension.

    Restricted to p = 17: it is the smallest modulus where the length-17
    all-squares condition is the meaningful one.  Deduplication is by the
    seed squares themselves, so sign choices of s1, s2 collapse.
    """
    if d < 0:
        raise ValueError(f"seed degree bound must be nonnegative, got {d}")
    if p != 17:
        raise ValueError("the seed sweep is specified for p = 17 only")
    if d > SEARCH_DEGREE_CAP:
        raise FeasibilityError(
            f"seed degree {d} exceeds the sweep cap {SEARCH_DEGREE_CAP}"
        )
    seeds = [Poly(cs, p) for cs in itertools.product(range(p), repeat=d + 1)]
    values = [[s.evaluate(a) for a in range(p)] for s in seeds]
    masks = _sieve_masks(values, p)
    squares = [s * s for s in seeds]
    seen = set()
    constants = 0
    families = {}
    for i, point_values in enumerate(values):
        survivors = -1
        for a, x in enumerate(point_values):
            survivors &= masks[a][x]
        while survivors:
            low = survivors & -survivors
            survivors ^= low
            u1, u2 = squares[i], squares[low.bit_length() - 1]
            key = (u1.coeffs, u2.coeffs)
            if key in seen:
                continue
            seen.add(key)
            terms = _extend_all_squares(u1, u2, p, p)
            if terms is None:
                continue
            if all(len(t.coeffs) <= 1 for t in terms):
                constants += 1
                continue
            v, r = _match_family(terms, p) or (None, None)
            families[key] = BuchiFamily(u1, u2, v, r)
    return BuchiOracleReport(
        p, d, len(seeds) ** 2, tuple(families[k] for k in sorted(families)),
        constants,
    )
