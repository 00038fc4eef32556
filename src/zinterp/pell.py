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
A digit's pair comes from binary doubling in O(log p) products, so at a
large p such as 65537, where a digit d can be near p, none takes d steps.

The conic oracle sieves each y before root extraction, on two facts: a
square in F_p[t] takes a square or zero value at every point a of F_p, and
at every point alpha of F_(p^2) it takes a square of F_(p^2), since
u = s^2 gives u(alpha) = s(alpha)^2; and u = 1 + (t^2 - 1) y^2 has the value
u(alpha) = 1 + (alpha^2 - 1) y(alpha)^2, which depends on the constant
coefficient c0 of y only through c0 + tail(alpha), tail = y - c0.  Every
element of F_p is a square in F_(p^2), so F_p points are tested against the
squares of F_p; and u has coefficients in F_p, so u(alpha^p) = u(alpha)^p
and one point of each conjugate pair decides for both.  The sweep ANDs
the points' verdicts on all y that share a tail prefix c1..c(D-1) at once:
each prefix gets one packed int per point, a bit for each pair (c0, cD),
and each point is one lookup and one AND per prefix (see _oracle_conic).
A point's table of packed ints is built by walks, not sums: shifting c0
by one shifts the bits of the c0 mask by one, and adding alpha^D to the
prefix value shifts the packed int by p bits; for alpha != 0 the orbits
of that step have p elements, since p alpha^D = 0 (see _point_rows).

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


def _walk(pair, k: int):
    """pair times the fundamental unit k times, by k steps."""
    return next(itertools.islice(_steps(pair), k, None))


def _pair_by_bits(n_abs: int, p: int):
    """(x_n, y_n), n = n_abs >= 1, in the conic form by Horner over the
    binary digits of n, in O(log n) products: double, by x_(2m) = 2 x_m^2 - 1
    and y_(2m) = 2 x_m y_m on the conic, then step once for a 1."""
    one = Poly.one(p)
    x, y = Poly.gen(p), one
    for bit in bin(n_abs)[3:]:
        xx, xy = x * x, x * y
        x, y = xx + xx - one, xy + xy
        if bit == "1":
            y_next = x + times_t(y)
            x, y = times_t(y_next) - y, y_next
    return x, y


def _lift_factor(p: int) -> Poly:
    """c = (t^2 - 1)^m, m = (p-1)/2, the factor of the p-th power lift, in
    O(p) from its binomial coefficients: t^(2k) has (-1)^(m-k) C(m, k), and
    C(m, k+1) = C(m, k) (m - k) / (k + 1), where k + 1 < p is invertible."""
    m = (p - 1) // 2
    cs, b = [0] * (2 * m + 1), (-1) ** m
    for k in range(m + 1):
        cs[2 * k] = b
        b = -b * (m - k) * pow(k + 1, -1, p) % p
    return Poly(cs, p)


def _pair_by_digits(n_abs: int, p: int):
    """(x_n, y_n), n = n_abs, by Horner over the base-p digits of n (see the
    module docstring): lift the pair of the leading digits to its p-th power
    and multiply by the pair of the next digit d, by d steps when d <= 2,
    else by the bilinear law with (x_d, y_d), the lift's factor
    c = (t^2 - 1)^((p-1)/2) folded in: four big-by-small products.  Best of
    41, 2-core Xeon, CPython 3.11, against steps for every d: p = 17,
    n = 1000 0.54 against 2.9 ms, p = 13, n = 2196 0.96 against 4.4 ms;
    against the law for every d: p = 3, n = 1000 0.32 against 0.70 ms.
    The pairs of a leading digit above 2 and of each d > 2 come from
    doubling, and so does the whole pair over Z[t], which has no Frobenius.
    """
    unit = (Poly.one(p), Poly.zero(p))
    if not p:
        return _pair_by_bits(n_abs, p) if n_abs else unit
    digits = []
    while n_abs >= p:
        n_abs, d = divmod(n_abs, p)
        digits.append(d)
    acc = _walk(unit, n_abs) if n_abs <= 2 else _pair_by_bits(n_abs, p)
    if not digits:
        return acc
    if p == 2:
        lift = lambda a: (frob_pow(a[0] + a[1], 1), times_t(frob_pow(a[1], 1)))
    else:
        c = _lift_factor(p)
        ct2m1 = c * Poly((-1, 0, 1), p)
        lift = lambda a: (frob_pow(a[0], 1), frob_pow(a[1], 1) * c)
    for d in reversed(digits):
        if d <= 2:
            acc = _walk(lift(acc), d)
        else:
            x, y = frob_pow(acc[0], 1), frob_pow(acc[1], 1)
            xd, yd = _pair_by_bits(d, p)
            acc = (x * xd + y * (ct2m1 * yd), x * yd + y * (c * xd))
    return acc


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


def _by_t_minus_one(cs) -> tuple:
    """(q, c) with cs = (t - 1) q + c over Z, cs coefficients constant first:
    the coefficient of t^i in (t - 1) q is q_(i-1) - q_i, so q_k sums cs
    above t^k, and c = cs(1).  q is a list; neither is reduced mod p."""
    sums = list(itertools.accumulate(reversed(cs))) or [0]
    c = sums.pop()
    return sums[::-1], c


def _offset_quotient(x: Poly) -> Poly:
    """The z with x = 1 + (t-1)z; requires x(1) = 1 (see _by_t_minus_one)."""
    p = x.modulus
    z, c = _by_t_minus_one(x.data)
    if (c % p if p else c) != 1:
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
    t2m1 = Poly((-1, 0, 1), p)
    return PellPair(a.n + b.n, a.x * b.x + t2m1 * (a.y * b.y),
                    a.x * b.y + b.x * a.y)


def pell_index_recognize(x: Poly, y: Poly) -> Optional[int]:
    """The unique n with (x, y) = pell_pair(n), or None for the (-x_n, y_n)
    solutions that are not power pairs.

    y_n has |n| coefficients in both forms, so (x, y) is compared with the
    pairs of index |n| and -|n|.  Outside characteristic 2, x(1) = 1 holds
    for every power pair and fails on its negative, which is refused before
    any pair is built.  Raises if (x, y) is not a solution at all.
    """
    if x.modulus != y.modulus:
        raise ValueError("moduli disagree")
    p = x.modulus
    if not pell_verify(x, y):
        raise ValueError("not a solution of the Pell equation")
    if p != 2 and x.evaluate(1) != 1:
        return None
    n_abs = len(y.data)
    for n in (n_abs, -n_abs):
        cand = pell_pair(n, p)
        if cand.x == x and cand.y == y:
            return n
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


def _point_rows(p: int, mul, squared: list, squares: set, alpha,
                max_deg: int) -> list:
    """The row table of the sieve point alpha (see _oracle_conic).

    Entry a + p b, for v = a + b i, is the int whose bit cD p + c0 is set
    when u(alpha) = 1 + g (v + c0 + cD alpha^D)^2 is a square or zero, with
    g = alpha^2 - 1 and D = max_deg (one last, cD = 0, when D = 0).  The
    field is F_p or F_(p^2), as squared lists z^2 for z = 0..p-1 or for
    every z = a + b i by index a + p b; squares is the set of its square
    values, each encoded as a + p b.  mul multiplies in F_(p^2).

    mask(v), bit c set when 1 + g (v + c)^2 is a square or zero, walks
    along a: mask(v + 1) = (mask(v) >> 1) | (square_at(v) << (p - 1)).  For
    alpha != 0 the rows walk the orbits of v -> v + alpha^D, of p elements
    each, as p alpha^D = 0: row(v + alpha^D) = (row(v) >> p) |
    (mask(v) << (p - 1) p).  So a point costs about 3 size steps.  At
    alpha = 0 every prefix value is 0, so the sieve reads row 0 only; the
    walk along v -> v + 0 gives it its mask repeated p times.
    """
    size = len(squared)
    g = mul(alpha, alpha)
    g = ((g[0] - 1) % p, g[1])
    square_at = [(v[0] + 1) % p + p * v[1] in squares
                 for v in (mul(g, z2) for z2 in squared)]
    masks, top = [], p - 1
    for b in range(0, size, p):
        mask = sum(square_at[b + c] << c for c in range(p))
        for a in range(b, b + p):
            masks.append(mask)
            mask = mask >> 1 | square_at[a] << top
    if not max_deg:
        return masks
    step = alpha
    for _ in range(max_deg - 1):
        step = mul(step, alpha)
    sr, si = step
    # each orbit meets b = 0 once when si != 0, and a = 0 once otherwise
    starts = ([(a, 0) for a in range(p)] if si
              else [(0, b) for b in range(size // p)])
    rows, top = [0] * size, (p - 1) * p
    for a, b in starts:
        orbit = [(a + c * sr) % p + p * ((b + c * si) % p) for c in range(p)]
        row = sum(masks[k] << c * p for c, k in enumerate(orbit))
        for k in orbit:
            rows[k] = row
            row = row >> p | masks[k] << top
    return rows


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
    point and prefix value w, a table row is one int whose bit cD p + c0 is
    set when u(alpha) = 1 + (alpha^2 - 1)(c0 + w + cD alpha^D)^2 is a
    square or zero.  A point's rows are built in about 3 steps per row by
    walking a and the orbits of v -> v + alpha^D (see _point_rows), with
    each z^2 read from one table shared by all points.  Per point, the
    value w = A + B i of every prefix, in itertools.product order, is built
    one coefficient at a time as the integer A + m B with A, B summed
    unreduced (m exceeds both), and one table of size m^2 reduces it to its
    row; so a point costs one lookup and one AND per prefix, each a map
    over all prefixes at once.  Only the y in the AND of all rows go
    through root extraction: by prefix, then cD, then c0, read off each set
    bit k as divmod(k, p) = (cD, c0).
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
    squared = [mul(z, z) for z in field]
    fp_squared = squared[:p]
    fp_squares = {a for a, _ in fp_squared}
    fp2_squares = {a + p * b for a, b in squared}
    points = ([(alpha, fp_squared, fp_squares) for alpha in rational]
              + [(alpha, squared, fp2_squares) for alpha in extension])
    lasts = p if max_deg else 1
    width = max(max_deg - 1, 0)
    m = width * (p - 1) + 1
    mod_p = [a % p + p * (b % p) for b in range(m) for a in range(m)]
    survivors = [(1 << p * lasts) - 1] * p ** width
    for alpha, point_squared, squares in points:
        rows = _point_rows(p, mul, point_squared, squares, alpha, max_deg)
        index, power = [0], alpha
        for _ in range(width):
            r, i = power
            grown = [0] * (len(index) * p)
            for c in range(p):
                grown[c::p] = map((c * r % p + m * (c * i % p)).__add__, index)
            index = grown
            power = mul(power, alpha)
        survivors = list(map(operator.and_, survivors,
                             map(rows.__getitem__,
                                 map(mod_p.__getitem__, index))))
    found = []
    prefixes = itertools.product(range(p), repeat=width)
    for prefix, bits in itertools.compress(zip(prefixes, survivors), survivors):
        while bits:
            k = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            last, c0 = divmod(k, p)
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
    both over the cap already, so no huge power is formed.  Two terms
    overcount and are kept so that the cap refuses the same inputs as when
    each counted step was a Python step: the table term, since _point_rows
    builds a point's rows by walks in about 3 size steps, not size * p; and
    the lookup term, since the sieve takes a point's lookups for all
    prefixes in one C-level map."""
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
