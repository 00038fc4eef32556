"""Square sequences with constant second difference, and Frobenius-power order.

A sequence u_1, u_2, ... of polynomials over F_p satisfying
u_{n+2} - 2u_{n+1} + u_n = 2 consists of consecutive values of a quadratic;
the interesting families are u_n = (n + v)^(p^r + 1), which are squares of
(n + v)^((p^r + 1)/2) for odd p.  Frobenius is additive and fixes F_p, so
(n + v)^(p^r) = n + v^(p^r) and u_n = (n + v)(n + v^(p^r)) is indeed a
quadratic in n.  This module generates those families,
checks the defining second-difference identity symbolically, extracts
polynomial square roots and k-th roots by coefficient matching, decides the
Frobenius-power order (is f = g^(p^r)?), and runs a desk-scale search oracle
that sweeps all square seed pairs and matches every surviving family back to
a generated one.

The oracle sieves seeds before any root extraction, on two facts: a square
in F_p[t] takes a square or zero value at every point a of F_p; and with
u1 = s1^2, u2 = s2^2 the terms are u1 + (n - 1)(u2 - u1) + (n - 1)(n - 2),
so u_n(a) depends only on the pair (s1(a), s2(a)): one p x p table serves
every point.  The same formula shows that u1 and u2 fix the sequence, so
the oracle reads everything off them; only a survivor that is neither
constant nor a generated family gets the exact square test of u_3..u_p.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .algebra import (
    SYNTH_DEGREE_CAP,
    FeasibilityError,
    Poly,
    _frob_scale,
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


def second_differences_equal_two(terms: tuple[Poly, ...]) -> bool:
    return all(c == b + b - a + 2
               for a, b, c in zip(terms, terms[1:], terms[2:]))


def buchi_generate(v: Poly, r: int, length: int, p: int) -> BuchiSeq:
    """The family u_n = (n + v)^(p^r + 1) for n = 1..length.

    Each term is computed as frob_pow(n + v, r) * (n + v), which is the same
    polynomial as the power but linear in the output size.  The returned
    sequence carries the result of an exact second-difference check.
    A Frobenius scale p^r * max(deg v, 1) or a length past SYNTH_DEGREE_CAP
    raises FeasibilityError before anything is built.
    """
    if p < 3:
        raise ValueError("square-sequence families need an odd prime modulus")
    if v.modulus != p:
        raise ValueError("v must be a polynomial over F_p")
    if r < 0:
        raise ValueError("Frobenius exponent must be nonnegative")
    if length < 1:
        raise ValueError(f"sequence length must be at least 1, got {length}")
    _frob_scale(p, r, max(v.degree, 1))
    if length > SYNTH_DEGREE_CAP:
        raise FeasibilityError(
            f"sequence length {length} is above the cap {SYNTH_DEGREE_CAP}"
        )
    terms = []
    for n in range(1, length + 1):
        base = Poly.const(n, p) + v
        terms.append(frob_pow(base, r) * base)
    terms = tuple(terms)
    return BuchiSeq(terms, p, second_differences_equal_two(terms))


def ge_p_check(f: Poly, g: Poly) -> Optional[int]:
    """Least r >= 0 with f = g^(p^r), p the modulus f and g share, or None
    if no such r exists.

    Over F_p the p-th power map fixes constants, so for deg g = 0 the answer
    is 0 or nothing; for deg g >= 1 the degree ratio pins down the only
    candidate r, which is then checked exactly.
    """
    p = f.modulus
    if g.modulus != p:
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


def _square_root_descent(coeffs, lc: int, p: int) -> list[int]:
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
    For k = 2 the descent matches coefficients of the square directly,
    O(m^2) operations for a root of degree m; other k recompute the
    candidate's k-th power at each step.  The lowest coefficients are not
    pinned by the descent, so the candidate is verified exactly before
    being returned.

    One candidate decides.  Starting from lc * z with z^k = 1 instead of lc
    multiplies every coefficient of the descent by z (induction on the
    step: the cross terms are unchanged and the pivot 1/(k lc^(k-1)) gains
    the factor z^(1-k) = z), so every candidate has the same k-th power.
    No value test runs first: the callers pass sieved or known squares.
    """
    p = f.modulus
    if p == 0:
        raise ValueError("root extraction needs a prime modulus")
    if k < 1:
        raise ValueError("root index must be positive")
    if k % p == 0:
        raise ValueError(f"root index {k} is divisible by the characteristic")
    if not f.data:
        return Poly.zero(p)
    df = f.degree
    lcs = kth_roots_mod(f.leading_coeff(), k, p)
    if df % k or not lcs:
        return None
    lc, m = lcs[0], df // k
    if k == 2:
        cand = Poly(_square_root_descent(f.data, lc, p), p)
        return cand if cand * cand == f else None
    g = [0] * (m + 1)
    g[m] = lc
    inv_top = pow(k * pow(lc, k - 1, p) % p, -1, p)
    for j in range(1, m + 1):
        partial = Poly(tuple(g), p) ** k
        delta = (f.coeff(k * m - j) - partial.coeff(k * m - j)) % p
        g[m - j] = delta * inv_top % p
    cand = Poly(tuple(g), p)
    return cand if cand ** k == f else None


def square_root_poly(u: Poly) -> Optional[Poly]:
    """s with s^2 = u over F_p (p odd), leading coefficient normalized into
    the half-system 1..(p-1)/2, or None when u is not a square."""
    p = u.modulus
    if p == 0 or p == 2:
        raise ValueError("square roots are extracted over F_p with p odd")
    s = poly_kth_root(u, 2)
    if s is None or not s.data:
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


def _extend_all_squares(u1: Poly, u2: Poly, length: int) -> bool:
    """Are all of u_3..u_length squares, where u_{n+2} = 2u_{n+1} - u_n + 2?
    Stops at the first non-square and keeps no terms, as the seeds (u1, u2)
    fix them all.  The oracle needs it only for unmatched survivors."""
    prev, cur = u1, u2
    for _ in range(length - 2):
        prev, cur = cur, cur + cur - prev + 2
        if square_root_poly(cur) is None:
            return False
    return True


def _match_family(u1: Poly, u2: Poly) -> Optional[tuple[Poly, int]]:
    """Find (v, r) with u_n = (n + v)^(p^r + 1) for the sequence u_{n+2} =
    2u_{n+1} - u_n + 2 seeded by (u1, u2), if any (p odd).

    deg u1 = (p^r + 1) m with m = deg v, so only finitely many r are
    possible.  As u_n = (n + v)(n + v^(p^r)), D = u2 - u1 - 3 = v + v^(p^r),
    which is linear in v: with q = p^r, D_i = v_i + [q | i] v_(i/q), so
    D_0 = 2 v_0 and D_i = 2 v_i when r = 0.  Solving from the bottom up shows
    the map injective for odd p, so each r has one candidate, read off the
    first m + 1 coefficients of D.

    Two terms decide.  The family obeys the same recurrence (its second
    difference is 2, see the module docstring), and a sequence with that
    recurrence is fixed by its first two terms; so the candidate matches the
    whole sequence exactly when buchi_generate(v, r, 2, p) gives (u1, u2).
    """
    p, d1 = u1.modulus, u1.degree
    if not isinstance(d1, int) or d1 == 0:
        return None
    dc = (u2 - u1 - Poly.const(3, p)).data
    half = pow(2, -1, p)
    r, q = 0, 1
    while q < d1:
        if d1 % (q + 1) == 0:
            v = []
            for i, c in enumerate(dc[:d1 // (q + 1) + 1]):
                if i == 0 or r == 0:
                    v.append(c * half % p)
                elif i % q:
                    v.append(c)
                else:
                    v.append((c - v[i // q]) % p)
            v = Poly(v, p)
            if buchi_generate(v, r, 2, p).terms == (u1, u2):
                return v, r
        r, q = r + 1, q * p
    return None


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
    docstring).  A survivor is constant when both seeds are: the
    non-constant part of u_n is u1' + (n - 1)(u2' - u1'), where ' drops
    the constant term, and that is zero for every n exactly when it is zero
    at n = 1 and n = 2.  Only an unmatched non-constant survivor gets the
    exact extension: a constant one's terms are its point values, which
    the sieve table tested for n = 3..p, and a matched one's terms are
    ((n + v)^((p^r + 1)/2))^2.

    Restricted to p = 17: it is the smallest modulus where the length-17
    all-squares condition is the meaningful one.  Deduplication is by the
    seed squares themselves, so sign choices of s1, s2 collapse.

    Why SEARCH_DEGREE_CAP stays at 2: at p = 17 the sieve table's row for
    s1(a) = x is exactly {+-(x + 1), +-(x - 1)}, so at each of the 17
    points s2 agrees with one of +-(s1 + 1), +-(s1 - 1), and with one of
    those four at 5 or more points.  For d <= 4 that forces equality, so
    every survivor is a constant or the trivial family (+-s1 - 1, 0), and a
    d = 3 sweep (289 times the d = 2 seed pairs) would only confirm it.
    See Pasten, Pheidas and Vidaux, "A survey on Buchi's problem: new
    presentations and open problems", Zap. Nauchn. Sem. POMI 377, 2010.
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
            key = (u1.data, u2.data)
            if key in seen:
                continue
            seen.add(key)
            if len(u1.data) <= 1 and len(u2.data) <= 1:
                constants += 1
                continue
            match = _match_family(u1, u2)
            if match is None and not _extend_all_squares(u1, u2, p):
                continue
            v, r = match or (None, None)
            families[key] = BuchiFamily(u1, u2, v, r)
    retained = tuple(families[k] for k in sorted(families))
    return BuchiOracleReport(p, d, len(seeds) ** 2, retained, constants)
