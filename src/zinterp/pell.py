"""Polynomial Pell pairs in both characteristics, with a brute-force oracle.

The conic X^2 - (t^2 - 1) Y^2 = 1 over F_p[t] (p odd, or integer
coefficients for p = 0) has the fundamental solution (t, 1).  Writing
s^2 = t^2 - 1, multiplying x + y s by t + s gives

    (t x + (t^2 - 1) y) + (x + t y) s,

which is the step recurrence used here; powers of t + s enumerate the full
solution family up to sign.  In characteristic 2 that conic degenerates and
the right form is X^2 + t X Y + Y^2 = 1: with a root alpha of
Z^2 = t Z + 1, multiplying x + y alpha by alpha gives y + (x + t y) alpha,
and by alpha^(-1) = t + alpha gives (t x + y) + x alpha, the two char-2
step directions.  The modulus picks the form: p = 2 gets the char-2 conic,
every other p the first one, and no function takes a separate form option.

Large indices use the Frobenius, additive and fixing F_p: (x + y s)^p =
x(t^p) + y(t^p) (t^2 - 1)^((p-1)/2) s, and (x + y alpha)^2 = x^2 + y^2 +
t y^2 alpha in char 2.  So the index is read by Horner over its base-p
digits, each a p-th power lift (a coefficient spread and a product by a
small factor) and a small power; Z[t] has no Frobenius and squares instead.

The conic oracle sieves each y before root extraction, on two facts: a
square in F_p[t] takes a square or zero value at every point a of F_p, and
at every point alpha of F_(p^2) it takes a square of F_(p^2), since
u = s^2 gives u(alpha) = s(alpha)^2; and u = 1 + (t^2 - 1) y^2 has the value
u(alpha) = 1 + (alpha^2 - 1) y(alpha)^2, which depends on the constant
coefficient c0 of y only through c0 + tail(alpha), tail = y - c0.  Every
element of F_p is a square in F_(p^2), so F_p points are tested against the
squares of F_p; and u has coefficients in F_p, so u(alpha^p) = u(alpha)^p
and one point of each conjugate pair decides for both.

The char-2 oracle solves for x instead of sweeping it: over F_2 the map
x -> x^2 + t y x is linear, because Frobenius is additive, and its kernel
is {0, t y}, because x (x + t y) = 0 in the domain F_2[t].
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Optional

from .algebra import (SYNTH_DEGREE_CAP, FeasibilityError, Poly, _check_modulus,
                      frob_pow, times_t)
from .buchi import square_root_poly

STEP_LIMIT = 64
# The index cap over Z[t], where coefficients have about 1.27 n bits and
# products are schoolbook: pell_pair(n, 0) takes 0.16 s at n = 1000 and
# 1.7 s at n = 2000 (2-core Xeon, CPython 3.11).
INTEGER_INDEX_LIMIT = 1000
# The oracle's cap on the steps _oracle_work counts, about 0.14 us each on
# the same machine, so a sweep at the cap runs for about 1.4 s.
ORACLE_WORK_LIMIT = 10 ** 7


@dataclass(frozen=True)
class PellPair:
    """Solution pair with its index: the n-th power of the fundamental unit."""

    n: int
    x: Poly
    y: Poly

    @property
    def p(self) -> int:
        return self.x.modulus


def _raw_add_conic(a, b, t2m1):
    xa, ya = a
    xb, yb = b
    return (xa * xb + t2m1 * (ya * yb), xa * yb + xb * ya)


def _steps(pair):
    """pair, then pair times the fundamental unit again and again: the one
    step walk behind pell_pair and pell_pairs_with_quotients.  A conic step
    is y' = x + t y, x' = t y' - y, so it takes shifts and additions only."""
    x, y = pair
    if x.modulus == 2:
        while True:
            yield x, y
            x, y = y, x + times_t(y)
    while True:
        yield x, y
        y_next = x + times_t(y)
        x, y = times_t(y_next) - y, y_next


def _pair_by_digits(n_abs: int, p: int):
    """(x_n, y_n), n = n_abs, by Horner over the base-p digits of n (see the
    module docstring): lift the pair of the leading digits to its p-th power
    and multiply by the pair of the next digit d, by d steps when d <= 2,
    else by the bilinear law with (x_d, y_d), the lift's factor
    c = (t^2 - 1)^((p-1)/2) folded in: four big-by-small products.  Best of
    41, 2-core Xeon, CPython 3.11, against steps for every d: p = 17,
    n = 1000 0.54 against 2.9 ms, p = 13, n = 2196 0.96 against 4.4 ms;
    against the law for every d: p = 3, n = 1000 0.32 against 0.70 ms.
    Z[t] has binary digits and squares to lift; n < p is plain stepping.
    """
    digits = []
    while n_abs >= (p or 2):
        n_abs, d = divmod(n_abs, p or 2)
        digits.append(d)
    small = list(itertools.islice(_steps((Poly.one(p), Poly.zero(p))),
                                  max(digits + [n_abs]) + 1))
    acc = small[n_abs]
    if not digits:
        return acc
    t2m1 = Poly((-1, 0, 1), p)
    if not p:
        lift = lambda a: _raw_add_conic(a, a, t2m1)
    elif p == 2:
        lift = lambda a: (frob_pow(a[0] + a[1], 1), times_t(frob_pow(a[1], 1)))
    else:
        c = t2m1 ** ((p - 1) // 2)
        lift = lambda a: (frob_pow(a[0], 1), frob_pow(a[1], 1) * c)
    for d in reversed(digits):
        if d <= 2:
            acc = next(itertools.islice(_steps(lift(acc)), d, None))
        else:
            x, y = frob_pow(acc[0], 1), frob_pow(acc[1], 1)
            xd, yd = small[d]
            acc = (x * xd + y * (c * t2m1 * yd), x * yd + y * (c * xd))
    return acc


def _pair_by_steps(n_abs: int, p: int):
    walk = _steps((Poly.one(p), Poly.zero(p)))
    return next(itertools.islice(walk, n_abs, None))


def _check_index(n: int, p: int) -> None:
    cap = SYNTH_DEGREE_CAP if p else INTEGER_INDEX_LIMIT
    if abs(n) > cap:
        raise FeasibilityError(
            f"pair index {n} would build degree {abs(n)}, above the cap "
            f"{cap}{'' if p else ' over Z[t]'}"
        )


def pell_pair(n: int, p: int) -> PellPair:
    """The index-n solution pair over F_p[t] (or Z[t] when p = 0).

    Index 0 is (1, 0) and index 1 the fundamental pair; negative indices
    invert: (x, -y) in the conic form, (x + t y, y) in char 2.  Indices
    past SYNTH_DEGREE_CAP (INTEGER_INDEX_LIMIT when p = 0) raise
    FeasibilityError.
    """
    _check_modulus(p)
    _check_index(n, p)
    x, y = _pair_by_digits(abs(n), p)
    if n < 0:
        x, y = (x + times_t(y), y) if p == 2 else (x, -y)
    return PellPair(n, x, y)


def _offset_quotient(x: Poly) -> Poly:
    """The z with x = 1 + (t-1)z; requires x(1) = 1.  The coefficient of
    t^i in (t-1)z is z_(i-1) - z_i, so z_k sums the coefficients of x above
    t^k, and the constant term x_0 - z_0 = 1 asks x(1) = 1."""
    p, cs = x.modulus, x.data
    z = list(itertools.accumulate(reversed(cs[1:])))[::-1]
    total = sum(cs)
    if (total % p if p else total) != 1:
        raise ValueError("no quotient: the argument is not 1 at t = 1")
    return Poly(z, p)


def pell_pairs_with_quotients(ns, p: int) -> tuple[dict, dict]:
    """pell_pair(n, p) and its offset quotient z (x_n = 1 + (t-1) z_n) for
    each distinct n in ns, conic form.

    Indices up to STEP_LIMIT in absolute value are read off one step walk
    to the largest of them, larger ones are built by base-p digits (see
    _pair_by_digits), and every z is read off its x (see _offset_quotient).
    n and -n share the objects x and z; indices refused by pell_pair raise
    FeasibilityError before anything is built.
    """
    _check_modulus(p)
    if p == 2:
        raise ValueError("the pair domain uses the conic form; p must be odd")
    by_abs = {}
    for n in set(ns):
        _check_index(n, p)
        by_abs.setdefault(abs(n), []).append(n)
    pairs, quot = {}, {}

    def record(k, x, y):
        z = _offset_quotient(x)
        for n in by_abs[k]:
            pairs[n] = PellPair(n, x, -y if n < 0 else y)
            quot[n] = z

    top = max((k for k in by_abs if k <= STEP_LIMIT), default=-1)
    steps = _steps((Poly.one(p), Poly.zero(p)))
    for k, (x, y) in enumerate(itertools.islice(steps, top + 1)):
        if k in by_abs:
            record(k, x, y)
    for k in by_abs:
        if k > STEP_LIMIT:
            record(k, *_pair_by_digits(k, p))
    return pairs, quot


def pell_verify(x: Poly, y: Poly) -> bool:
    """Exact check of the defining equation for (x, y): the char-2 form at
    modulus 2, the conic otherwise."""
    if x.modulus != y.modulus:
        raise ValueError("moduli disagree")
    p = x.modulus
    t = Poly.gen(p)
    one = Poly.one(p)
    if p == 2:
        return x * x + t * x * y + y * y == one
    return x * x - (t * t - one) * (y * y) == one


def pell_add(a: PellPair, b: PellPair) -> PellPair:
    """Index addition through the bilinear law

        x_{m+n} = x_m x_n + (t^2 - 1) y_m y_n,
        y_{m+n} = x_m y_n + x_n y_m.

    Stated for the conic form only.
    """
    if a.p == 2 or b.p == 2:
        raise ValueError("index addition is defined for the conic form only")
    if a.p != b.p:
        raise ValueError("moduli disagree")
    p = a.p
    t = Poly.gen(p)
    t2m1 = t * t - Poly.one(p)
    x, y = _raw_add_conic((a.x, a.y), (b.x, b.y), t2m1)
    return PellPair(a.n + b.n, x, y)


def pell_index_recognize(x: Poly, y: Poly) -> Optional[int]:
    """The unique n with (x, y) = pell_pair(n), or None for the (-x_n, y_n)
    solutions that are not power pairs.

    Conic form: deg x determines |n|; x(1) = 1 holds for every power pair
    and fails on its negative, which settles the sign of x; the sign of n
    comes from comparing y against both candidates.  Raises if (x, y) is
    not a solution at all.
    """
    if x.modulus != y.modulus:
        raise ValueError("moduli disagree")
    p = x.modulus
    if not pell_verify(x, y):
        raise ValueError("not a solution of the Pell equation")
    if p == 2:
        if not y.data:
            return 0
        n_abs = y.degree + 1
        for cand_n in (n_abs, -n_abs):
            cand = pell_pair(cand_n, p)
            if cand.x == x and cand.y == y:
                return cand_n
        return None
    if not y.data:
        return 0 if x == Poly.one(p) else None
    if x.evaluate(1) != 1:
        return None
    n_abs = x.degree
    cand = pell_pair(n_abs, p)
    if cand.x != x:
        return None
    if cand.y == y:
        return n_abs
    if cand.y == -y:
        return -n_abs
    return None


def _conic_solutions_for_y(y: Poly):
    """The pairs (+-s, y) with s^2 = 1 + (t^2 - 1) y^2, over F_p, p odd.

    With w = y^2, the coefficient of t^i in u = t^2 w - w + 1 is
    w_(i-2) - w_i, plus 1 at i = 0.
    """
    p, w = y.modulus, (y * y).data
    cs = [x - c for x, c in itertools.zip_longest(
        (0, 0, *w), w, fillvalue=0)] if w else [0]
    cs[0] += 1
    u = Poly(cs, p)
    s = square_root_poly(u)
    if s is None:
        return []
    return [(s, y), (-s, y)]


def _oracle_conic(p: int, max_deg: int) -> list:
    """All conic solutions with deg y <= max_deg, sweeping y = c0 + tail.

    The sieve points (see the module docstring) are every a in F_p with
    a^2 != 1, tested against the squares of F_p, then points a + b i of
    F_(p^2) = F_p[i]/(i^2 - n), n the least non-residue, one per conjugate
    pair (b = 1..(p-1)/2, a = 0..p-1, in that order), tested against the
    squares of F_(p^2).  Extension points are added until there are
    ceil((max_deg + 1) log2 p) points in all, or none are left: each point
    passes about half of the non-square values, so that many leave about one
    false y of the p^(max_deg + 1).

    The tail splits into a prefix c1..c(D-1) and a last coefficient cD.  Per
    point and prefix value w, a table row gives, for each cD, the bitset of
    the c0 whose value u(alpha) = 1 + (alpha^2 - 1)(c0 + w + cD alpha^D)^2
    is a square or zero; each tail costs one lookup per point, and only the
    y in the AND of its rows go through root extraction.
    """
    n = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)

    def mul(x, y):
        return ((x[0] * y[0] + n * x[1] * y[1]) % p,
                (x[0] * y[1] + x[1] * y[0]) % p)

    rational = [(a, 0) for a in range(p) if (a * a - 1) % p]
    wanted = (p ** (max_deg + 1) - 1).bit_length() - len(rational)
    extension = [(k % p, 1 + k // p)
                 for k in range(min(wanted, p * (p - 1) // 2))]
    field = [(a, b) for b in range(p if extension else 1) for a in range(p)]
    squared = [a + p * b for a, b in (mul(x, x) for x in field)]
    points = ([(alpha, p, set(squared[:p])) for alpha in rational]
              + [(alpha, p * p, set(squared)) for alpha in extension])
    lasts = range(p) if max_deg else (0,)
    tables = []
    for alpha, size, squares in points:
        pows = [(1, 0)]
        for _ in range(max_deg):
            pows.append(mul(pows[-1], alpha))
        g = mul(alpha, alpha)
        g = ((g[0] - 1) % p, g[1])
        square_at = [(v[0] + 1) % p + p * v[1] in squares
                     for v in (mul(g, mul(z, z)) for z in field[:size])]
        masks = [sum(1 << c for c in range(p)
                     if square_at[(a + c) % p + p * b])
                 for a, b in field[:size]]
        br, bi = pows[max_deg]
        rows = [[masks[(a + c * br) % p + p * ((b + c * bi) % p)]
                 for c in lasts]
                for a, b in field[:size]]
        tables.append((rows, [w[0] for w in pows[1:max_deg]],
                       [w[1] for w in pows[1:max_deg]]))
    found = []
    for prefix in itertools.product(range(p), repeat=max(max_deg - 1, 0)):
        survivors = [(1 << p) - 1] * len(lasts)
        for rows, re_pows, im_pows in tables:
            a = sum(map(operator.mul, prefix, re_pows)) % p
            b = sum(map(operator.mul, prefix, im_pows)) % p
            survivors = list(map(operator.and_, survivors, rows[a + p * b]))
        for last, bits in zip(lasts, survivors):
            while bits:
                c0 = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                # when D = 0, last is a 0 that Poly trims
                y = Poly((c0,) + prefix + (last,), p)
                found.extend(_conic_solutions_for_y(y))
    return found


def _char2_candidates(y: int) -> list:
    """The x with x^2 + t y x = y^2 + 1 over F_2, as coefficient bitmasks.

    The map x -> x^2 + t y x is F_2-linear (Frobenius is additive), so the
    columns t^(2j) + t^(j+1) y for deg x <= deg y + 1 are reduced to an
    echelon basis, each tracking the combination of unknowns behind it, and
    y^2 + 1 is reduced against it.  The kernel is {0, t y}, as
    x (x + t y) = 0 in the domain F_2[t], so the solutions are x0 and
    x0 + t y, or none.
    """
    basis = {}
    for j in range(y.bit_length() + 1):
        col, comb = (1 << 2 * j) ^ (y << j + 1), 1 << j
        while col:
            top = col.bit_length() - 1
            if top not in basis:
                basis[top] = (col, comb)
                break
            col ^= basis[top][0]
            comb ^= basis[top][1]
    rhs = int(format(y, "b"), 4) ^ 1  # y^2 + 1: bit i of y moves to 2i
    x = 0
    while rhs:
        top = rhs.bit_length() - 1
        if top not in basis:
            return []
        rhs ^= basis[top][0]
        x ^= basis[top][1]
    return [x, x ^ y << 1] if y else [x]


def _oracle_char2(p: int, max_deg: int) -> list:
    """Char-2 sweep: for each y, solve for x (see _char2_candidates).

    The degree cap deg x <= deg y + 1 is forced by the equation: if
    deg x > deg y + 1, the leading term of x^2 dominates t x y + y^2 + 1
    and cannot cancel.  Each candidate passes the exact check before it is
    kept.
    """
    t = Poly.gen(p)
    one = Poly.one(p)
    found = []
    for y_mask in range(1 << max_deg + 1):
        y = Poly([y_mask >> i & 1 for i in range(max_deg + 1)], p)
        for x_mask in _char2_candidates(y_mask):
            x = Poly([x_mask >> i & 1 for i in range(x_mask.bit_length())], p)
            if x * x + t * x * y + y * y == one:
                found.append((x, y))
    return found


def _oracle_work(p: int, max_deg: int) -> float:
    """The steps pell_enumerate_oracle(p, max_deg) takes, estimated.  Char
    2: 4 (D + 2) per y, to solve for x.  Conic (see _oracle_conic): size *
    (p + lasts) per sieve point of size p or p^2 for the tables, lasts + 10
    per point and tail prefix for the lookups, and 20 (D + 2) per root
    extraction of a y, which passes each point with chance (p + 1) / 2p.
    A bound past 64 is estimated at 64, and p past 215 by the tables alone,
    both over the cap already, so no huge power is formed."""
    d = min(max_deg, 64)
    if p == 2:
        return 2 ** (d + 1) * 4 * (d + 2)
    lasts, rational = (p if d else 1), p - 2
    tables = rational * p * (p + lasts)
    if tables > ORACLE_WORK_LIMIT:
        return tables
    extension = min(max((p ** (d + 1) - 1).bit_length() - rational, 0),
                    p * (p - 1) // 2)
    points = rational + extension
    return (tables + extension * p * p * (p + lasts)
            + p ** max(d - 1, 0) * points * (lasts + 10)
            + p ** (d + 1) * ((p + 1) / (2 * p)) ** points * 20 * (d + 2))


def pell_enumerate_oracle(p: int, max_y_degree: int) -> frozenset:
    """Every solution pair with deg y <= max_y_degree, by brute force.

    Conic form: sweep y and test 1 + (t^2 - 1) y^2 for a polynomial square
    root, after a sieve on its values at points of F_p and F_(p^2) (see
    _oracle_conic).  Char 2: sweep y and solve the F_2-linear equation
    x^2 + t y x = y^2 + 1 for x, whose solutions differ by the kernel
    {0, t y} (see _char2_candidates), with deg x capped at deg y + 1 by the
    leading-term argument documented on _oracle_char2.  Independent of
    pell_pair, so the two can be compared as generator versus oracle.
    """
    if p < 2:
        raise ValueError("the oracle sweeps a finite field; p must be prime")
    if max_y_degree < 0:
        raise ValueError(
            f"degree bound on y must be nonnegative, got {max_y_degree}"
        )
    _check_modulus(p)
    if _oracle_work(p, max_y_degree) > ORACLE_WORK_LIMIT:
        raise FeasibilityError(
            f"degree bound {max_y_degree} at p = {p} exceeds the sweep "
            f"limit of {ORACLE_WORK_LIMIT} steps"
        )
    sweep = _oracle_char2 if p == 2 else _oracle_conic
    return frozenset(sweep(p, max_y_degree))


def pell_family(p: int, max_y_degree: int) -> set:
    """Every solution with deg y <= max_y_degree, generated from the indexed
    pairs: (+-x_n, y_n) in the conic form, (x_n, y_n) in char 2, over all
    indices n.  The set pell_enumerate_oracle must return."""
    expected = set()
    for n in itertools.count():
        pos = pell_pair(n, p)
        if pos.y.degree > max_y_degree:
            return expected
        neg = pell_pair(-n, p)
        for pair in (pos, neg):
            expected.add((pair.x, pair.y))
            if p != 2:
                expected.add((-pair.x, pair.y))
