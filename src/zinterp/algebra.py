"""Exact univariate polynomial arithmetic over prime fields and the integers.

A polynomial is a dense, ascending sequence of coefficients: ``coeffs[i]`` is
the coefficient of ``t^i``, the zero polynomial is empty, and the leading
coefficient of a nonzero polynomial is always nonzero.  The coefficient ring is
selected by the ``modulus`` attribute: a prime ``p`` gives the field of ``p``
elements with coefficients stored reduced to ``range(p)``, and ``0`` gives the
ring of integers with arbitrary Python ints.

The storage, ``Poly.data``, is ``bytes``, one residue per byte, for
2 <= p <= 251 and a tuple of ints otherwise; ``coeffs`` builds a tuple from
it on each read, so code in this package reads ``data``.  Bytes of residues
compare and sort as tuples of the same ints do.  The storage format is
private to this module, with ``_raw``, ``_stored`` and ``_trimmed``: other
modules build a polynomial with ``Poly(...)``, the ring operations,
``frob_pow`` or ``times_t``, and may read ``data`` as a sequence of ints.

The degree of the zero polynomial is the sentinel ``NEG_INFINITY`` (never -1),
so degree comparisons behave correctly without special-casing.

Everything here is exact; there are no floats anywhere in this package's core.

``Poly(coeffs, modulus)`` checks the modulus and reduces and trims whatever
it is given.  The ring operations, whose results are canonical by
construction, return through the trusted constructor ``Poly._raw(data, p)``
instead.  Its contract: data is the storage of p (``_stored``), each entry
in ``range(p)`` when p is a prime (any int when p is 0), with no trailing
zero, and p is already a valid modulus; nothing is checked.  A product is
never trimmed, since the product of two leading coefficients is nonzero
over a field and over Z; a sum or difference is trimmed only when both
operands have the same length, since otherwise the longer operand's
leading coefficient survives.  Build tuples and bytes from lists, not from
generator expressions: on long vectors the generator form is slower and
was seen to raise peak memory.

Over a prime field the kernels work on the bytes storage as it is and
reduce mod p with ``bytes.translate``, not one Python ``%`` per
coefficient.  For p <= 128, where 2(p - 1) <= 255, a sum or difference
adds the two storages as big integers with no carry between bytes
(negating the subtrahend by a table) and reduces with one translate;
negation is one translate for every p <= 251, and so is a product with
a one-coefficient operand c (by the table v -> v * c mod p).  Other
products are Kronecker substitution: each coefficient gets a slot of w
bytes, wide enough that no convolution sum carries into the next slot,
and Python's bignum multiply does the convolution (Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", JSC 44,
2009).
When w(p - 1) <= 255, lane k of the product (every w-th byte) is
translated by v -> v * 256^k mod p, the w lanes are added with no carry,
and one more translate reduces the sum.  Otherwise (always for p > 128)
the product is read through an ``array`` of 1-, 2-, 4- or 8-byte slots
and reduced coefficient by coefficient, or through per-coefficient bytes
beyond 8 bytes.  Below ``_KRONECKER_MIN_PRODUCT`` (the length product;
``_KRONECKER_MIN_PRODUCT_SMALL_P`` for p <= 7) the fixed cost of the
substitution loses to schoolbook convolution, which the integers always
take and the tests use as the reference.
Composition with a linear inner polynomial is a Taylor shift done with
additions only, one base-p digit of the exponent at a time, since
(t + b)^(p^k) = t^(p^k) + b over F_p (von zur Gathen and Gerhard, "Fast
algorithms for Taylor shifts and certain difference equations", ISSAC 1997).
"""

from __future__ import annotations

import re
import sys
from array import array
from functools import lru_cache
from typing import Iterable

NEG_INFINITY = float("-inf")

# Operand length products from which Kronecker substitution beats schoolbook
# (best of 15, products 2-64).  One-byte slots need no packing: it wins from
# 4 on at p = 5 and 7 (2x2 at p = 5: 2.6 against 2.8 us; 8x8: 1.5 against
# 6.0 us), and for p <= 7 every slot below 25 is one byte, as (p-1)^2 * 4 <=
# 255.  Two lanes, as at p = 17, cost about 3 us: it wins from about 25 on
# (5x5: 5.0 against 5.3 us; 3x3: 3.0 against 2.1 us).
_KRONECKER_MIN_PRODUCT = 25
_KRONECKER_MIN_PRODUCT_SMALL_P = 4

# Largest p with 2(p - 1) <= 255: a sum of two residues fits in one byte, so
# sums and differences add the bytes storages with no carry.
_SUM_LANE_MAX_P = 128
# Largest prime whose residues fit in one byte: the moduli stored as bytes.
_BYTES_MAX_P = 251

# (slot width in bytes, array type code), narrowest first.  Packing reads
# slots as little-endian integers, so other byte orders take the byte path.
_SLOTS = (
    tuple(sorted({array(code).itemsize: code for code in "BHILQ"}.items()))
    if sys.byteorder == "little" else ()
)


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic primality by trial division (moduli here are small)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _check_modulus(p: int) -> None:
    if p == 0:
        return
    if p < 2 or not is_prime(p):
        raise ValueError(f"modulus must be 0 (integers) or a prime, got {p}")


class FeasibilityError(ValueError):
    """A brute-force sweep was asked to cover more cases than the guard allows,
    or a construction to build past SYNTH_DEGREE_CAP."""


# Largest degree a construction builds: pell_pair refuses |n| past it (the
# pair has degree |n|), synthesis the larger Frobenius-power certificates,
# buchi_generate its Frobenius scale and its length.
SYNTH_DEGREE_CAP = 100_000


def _frob_scale(p: int, r: int, base_degree: int = 1) -> int:
    """p^r, once base_degree * p^r is known to be within SYNTH_DEGREE_CAP.
    The power grows one factor at a time, so a huge r fails at once."""
    q = 1
    for _ in range(r):
        q *= p
        if base_degree * q > SYNTH_DEGREE_CAP:
            raise FeasibilityError(
                f"the result would have degree {base_degree * q} or more, "
                f"above the cap {SYNTH_DEGREE_CAP}"
            )
    return q


def kth_roots_mod(a: int, k: int, p: int) -> tuple[int, ...]:
    """All k-th roots of a modulo the prime p, ascending.

    Brute force over the field; the moduli used by the oracles are tiny.
    Answers are cached on (a mod p, k, p), hence the immutable tuple.
    """
    _check_modulus(p)
    if p == 0:
        raise ValueError("k-th roots modulo 0 are not defined")
    return _kth_roots(a % p, k, p)


@lru_cache(maxsize=1024)
def _kth_roots(a: int, k: int, p: int) -> tuple[int, ...]:
    return tuple([c for c in range(p) if pow(c, k, p) == a])


@lru_cache(maxsize=None)
def _lane(p: int, c: int) -> bytes:
    """The bytes.translate table of byte v -> v*c mod p: c = 1 reduces a
    byte, c = p - 1 negates a residue, c = 256^k mod p reduces byte k of a
    little-endian slot, and any other residue c multiplies by c."""
    return bytes([v * c % p for v in range(256)])


@lru_cache(maxsize=None)
def _lanes(p: int, width: int) -> tuple[bytes, ...]:
    """The tables of byte k = 0 .. width - 1 of a little-endian slot:
    v -> v * 256^k mod p."""
    return tuple([_lane(p, pow(256, k, p)) for k in range(width)])


class _Tables(dict):
    """p -> _lane(p, c mod p), made on first use; a read costs a third of a
    call to _lane.  _REDUCE reduces a byte, _NEGATE negates a residue."""

    def __init__(self, c: int):
        self.c = c

    def __missing__(self, p: int) -> bytes:
        table = self[p] = _lane(p, self.c % p)
        return table


_REDUCE, _NEGATE = _Tables(1), _Tables(-1)


def _stored(cs, p: int):
    """Canonical coefficients (any iterable of ints) as the storage of p."""
    return bytes(cs) if 0 < p <= _BYTES_MAX_P else tuple(cs)


def _trimmed(cs: list[int], p: int):
    """cs without its trailing zeros (shortened in place), stored for p."""
    while cs and not cs[-1]:
        cs.pop()
    return _stored(cs, p)


class Poly:
    """Dense univariate polynomial over F_p (modulus p) or Z (modulus 0).

    Immutable.  Arithmetic operators accept plain ints, coercing them to
    constant polynomials with the same modulus.
    """

    __slots__ = ("data", "modulus")

    def __init__(self, coeffs: Iterable[int] = (), modulus: int = 0):
        _check_modulus(modulus)
        if 0 < modulus <= _BYTES_MAX_P:
            if type(coeffs) is not list and type(coeffs) is not tuple:
                coeffs = list(coeffs)
            try:
                # entries in range(256), the usual case: one translate
                data = bytes(coeffs).translate(_REDUCE[modulus])
            except (TypeError, ValueError):
                data = bytes([c % modulus for c in coeffs])
            data = data.rstrip(b"\0")
        else:
            data = _trimmed([c % modulus for c in coeffs] if modulus
                            else list(coeffs), modulus)
        _set_data(self, data)
        _set_modulus(self, modulus)

    @staticmethod
    def _raw(data, p: int) -> "Poly":
        """A polynomial from its canonical storage, with no checks: see the
        module docstring for the contract."""
        f = object.__new__(Poly)
        _set_data(f, data)
        _set_modulus(f, p)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "Poly":
        return cls((), p)

    @classmethod
    def one(cls, p: int) -> "Poly":
        return cls((1,), p)

    @classmethod
    def const(cls, c: int, p: int) -> "Poly":
        return cls((c,), p)

    @classmethod
    def gen(cls, p: int) -> "Poly":
        """The generator t."""
        return cls((0, 1), p)

    @classmethod
    def monomial(cls, c: int, k: int, p: int) -> "Poly":
        """c * t^k."""
        return cls((0,) * k + (c,), p)

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The coefficients as a tuple of ints, whatever the storage."""
        data = self.data
        return data if type(data) is tuple else tuple(data)

    @property
    def degree(self):
        """Degree, with NEG_INFINITY (not -1) for the zero polynomial."""
        return len(self.data) - 1 if self.data else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.data

    def leading_coeff(self) -> int:
        if not self.data:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.data[-1]

    def coeff(self, k: int) -> int:
        return self.data[k] if 0 <= k < len(self.data) else 0

    def _same_ring(self, other: "Poly") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"mixed moduli: {self.modulus} and {other.modulus}"
            )

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.modulus != self.modulus:
                self._same_ring(other)
            return other
        if isinstance(other, int):
            return Poly((other,), self.modulus)
        return NotImplemented

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        a, b = self.data, other.data
        if len(a) < len(b):
            a, b = b, a
        p = self.modulus
        if 0 < p <= _SUM_LANE_MAX_P:
            # no byte of the sum carries, as 2(p - 1) <= 255
            s = (int.from_bytes(a, "little") + int.from_bytes(b, "little")
                 ).to_bytes(len(a), "little").translate(_REDUCE[p])
            return Poly._raw(s.rstrip(b"\0") if len(a) == len(b) else s, p)
        cs = [(x + y) % p if p else x + y for x, y in zip(a, b)]
        cs += a[len(b):]
        return Poly._raw(_trimmed(cs, p), p)

    __radd__ = __add__

    def __neg__(self):
        p = self.modulus
        if 0 < p <= _BYTES_MAX_P:
            return Poly._raw(self.data.translate(_NEGATE[p]), p)
        return Poly._raw(tuple([-c % p if p else -c for c in self.data]), p)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        a, b = self.data, other.data
        p = self.modulus
        if not 0 < p <= _SUM_LANE_MAX_P:
            return self + -other
        # a plus the negated b, as in __add__
        s = (int.from_bytes(a, "little")
             + int.from_bytes(b.translate(_NEGATE[p]), "little")
             ).to_bytes(max(len(a), len(b)), "little").translate(_REDUCE[p])
        return Poly._raw(s.rstrip(b"\0") if len(a) == len(b) else s, p)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        a, b = self.data, other.data
        p = self.modulus
        if not a or not b:
            return Poly._raw(a[:0], p)  # the empty storage of p
        if not p:
            return Poly._raw(tuple(_schoolbook_mul(a, b)), p)
        if p <= _BYTES_MAX_P and (len(a) == 1 or len(b) == 1):
            # a scalar times bytes storage: one translate, and over a prime
            # field no product of nonzero residues is zero, so none to trim
            if len(a) == 1:
                a, b = b, a
            return Poly._raw(a.translate(_lane(p, b[0])), p)
        if len(a) * len(b) >= (_KRONECKER_MIN_PRODUCT_SMALL_P if p <= 7
                               else _KRONECKER_MIN_PRODUCT):
            return Poly._raw(_kronecker_mul(a, b, p), p)
        cs = [c % p for c in _schoolbook_mul(a, b)]
        return Poly._raw(bytes(cs) if p <= _BYTES_MAX_P else tuple(cs), p)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        """self^e; over F_p with e >= p, Horner over the base-p digits of e,
        f^e = frob(f^(e // p)) f^(e % p), so each digit costs a coefficient
        spread and one product by a small power.  Binary powering otherwise."""
        if e < 0:
            raise ValueError("negative exponent")
        p = self.modulus
        if p and e >= p:
            high = frob_pow(self ** (e // p), 1)
            return high * self ** (e % p) if e % p else high
        result = Poly._raw(_stored((1,), p), p)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return poly_divrem(self, other)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly((other,), self.modulus)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.modulus == other.modulus and self.data == other.data

    def __hash__(self):
        return hash((self.data, self.modulus))

    # -- evaluation and composition ----------------------------------------

    def evaluate(self, x: int) -> int:
        """Value at the scalar x (reduced when the modulus is a prime)."""
        acc = 0
        p = self.modulus
        for c in reversed(self.data):
            acc = acc * x + c
            if p:
                acc %= p
        return acc

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({list(self.data)!r}, {self.modulus})"


# The slots' own setters, which skip the immutability guard in __setattr__
# at half the cost of object.__setattr__.
_set_data = Poly.data.__set__
_set_modulus = Poly.modulus.__set__


def _schoolbook_mul(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] += ai * bj
    return res


def _spread(cs, width: int) -> int:
    """Residues below 256 as one little-endian integer, one per width bytes."""
    if width == 1:
        return int.from_bytes(cs, "little")
    buf = bytearray(width * len(cs))
    buf[::width] = cs
    return int.from_bytes(buf, "little")


def _kronecker_mul(a, b, p: int):
    """The storage of a*b over F_p, from two nonempty storages (or tuples)."""
    # slot width chosen so convolution sums never carry between slots
    bound = (p - 1) * (p - 1) * min(len(a), len(b))
    width = max(1, (bound.bit_length() + 7) // 8)
    n = len(a) + len(b) - 1
    if width * (p - 1) <= 255:
        # Byte lanes: slot i is sum_k raw[i*width + k] * 256^k, so it is
        # congruent mod p to the sum over k of lane k translated by
        # v -> v * 256^k mod p.  Each translated lane is below p, so the
        # width lane sums are at most width * (p - 1) <= 255: adding the
        # lanes as integers never carries, and one last translate reduces.
        raw = (_spread(a, width) * _spread(b, width)).to_bytes(
            width * n, "little")
        lanes = _lanes(p, width)
        if width > 1:
            acc = 0
            for k, lane in enumerate(lanes):
                acc += int.from_bytes(raw[k::width].translate(lane), "little")
            raw = acc.to_bytes(n, "little")
        return raw.translate(lanes[0])
    for slot, code in _SLOTS:
        if slot >= width:
            if p <= _BYTES_MAX_P:
                abig, bbig = _spread(a, slot), _spread(b, slot)
            else:
                abig = int.from_bytes(array(code, a).tobytes(), "little")
                bbig = int.from_bytes(array(code, b).tobytes(), "little")
            raw = (abig * bbig).to_bytes(slot * n, "little")
            return _stored([c % p for c in memoryview(raw).cast(code)], p)
    abig = int.from_bytes(
        b"".join(c.to_bytes(width, "little") for c in a), "little"
    )
    bbig = int.from_bytes(
        b"".join(c.to_bytes(width, "little") for c in b), "little"
    )
    raw = (abig * bbig).to_bytes(width * n, "little")
    return _stored([
        int.from_bytes(raw[i * width : (i + 1) * width], "little") % p
        for i in range(n)
    ], p)


def poly_divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with deg r < deg b.

    Over a prime field any nonzero divisor works; over the integers the
    divisor's leading coefficient must be a unit (+-1) so the division is
    exact at every step.
    """
    a._same_ring(b)
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    p = a.modulus
    lb = b.leading_coeff()
    if p:
        inv = pow(lb, -1, p)
    elif lb in (1, -1):
        inv = lb
    else:
        raise ValueError("integer division requires a monic (unit-lead) divisor")
    rem = list(a.data)
    bcs = b.data
    db = len(bcs) - 1
    if len(rem) <= db:
        return Poly.zero(p), a
    quot = [0] * (len(rem) - db)
    for i in range(len(rem) - db - 1, -1, -1):
        c = rem[i + db]
        if c:
            q = c * inv % p if p else c * inv
            quot[i] = q
            for j, bc in enumerate(bcs):
                rem[i + j] -= q * bc
                if p:
                    rem[i + j] %= p
    return Poly._raw(_stored(quot, p), p), Poly._raw(_trimmed(rem[:db], p), p)


def poly_divides(a: Poly, b: Poly) -> bool:
    """Whether a divides b (with 0 | b exactly when b = 0)."""
    a._same_ring(b)
    if a.is_zero():
        return b.is_zero()
    if b.is_zero():
        return True
    if a.modulus == 0 and a.leading_coeff() not in (1, -1):
        raise ValueError("integer divisibility needs a unit-lead divisor")
    return poly_divrem(b, a)[1].is_zero()


def poly_extgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, u, v) with u*a + v*b = g, g the monic gcd.  Prime fields only."""
    a._same_ring(b)
    if a.modulus == 0:
        raise ValueError("extended gcd requires field coefficients")
    p = a.modulus
    r0, r1 = a, b
    u0, u1 = Poly.one(p), Poly.zero(p)
    v0, v1 = Poly.zero(p), Poly.one(p)
    while not r1.is_zero():
        q, r = poly_divrem(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    lead_inv = Poly.const(pow(r0.leading_coeff(), -1, p), p)
    return lead_inv * r0, lead_inv * u0, lead_inv * v0


def poly_compose(f: Poly, g: Poly) -> Poly:
    """f(g(t)).

    Over F_p with g = a*t + b, a != 0, this is a Taylor shift: f(t + b) by
    additions only, one base-p digit at a time (see _taylor_shift), then
    coefficient i scaled by a^i, in O(n p log_p n) field operations for n
    coefficients (von zur Gathen and Gerhard, "Fast algorithms for Taylor
    shifts and certain difference equations", ISSAC 1997).  Otherwise,
    Horner's scheme in the polynomial ring.
    """
    f._same_ring(g)
    p = f.modulus
    if p and len(g.data) == 2:
        b, a = g.data
        cs = _taylor_shift(list(f.data), b, p)
        if a != 1:
            scale = 1
            for i, c in enumerate(cs):
                cs[i] = c * scale % p
                scale = scale * a % p
        return Poly._raw(_trimmed(cs, p), p)
    acc = Poly.zero(p)
    for c in reversed(f.data):
        acc = acc * g + c
    return acc


def _taylor_shift(cs: list[int], b: int, p: int) -> list[int]:
    """Turn the coefficient list cs of f, in place, into that of f(t + b)
    over F_p, with trailing zeros left from padding.

    As (t + b)^(p^k) = t^(p^k) + b^(p^k) = t^(p^k) + b, the shift acts on
    each base-p digit of the exponent on its own.  On level m = p^k every
    block of p*m coefficients is p chunks of m: the coefficients of T^0 ..
    T^(p-1) with T = t^m.  The classic p-term shift T -> T + b, chunk_j +=
    b * chunk_(j+1) over a triangle of index pairs, then needs additions
    only.  The top level may have fewer than p chunks per block.
    """
    n = len(cs)
    top = 1
    while top * p < n:
        top *= p
    cs += [0] * (-n % top)
    size = len(cs)
    m = 1
    while b and m < size:
        chunks = min(p, size // m)
        width = chunks * m
        few_blocks = size // width <= m
        for i in range(chunks - 1):
            for j in range(chunks - 2, i - 1, -1):
                lo, hi = j * m, (j + 1) * m
                if few_blocks:
                    # one contiguous slice per block
                    for s in range(0, size, width):
                        cs[s + lo : s + hi] = [
                            (x + b * y) % p
                            for x, y in zip(cs[s + lo : s + hi],
                                            cs[s + hi : s + hi + m])
                        ]
                else:
                    # one strided slice per offset within the chunk
                    for r in range(m):
                        cs[lo + r :: width] = [
                            (x + b * y) % p
                            for x, y in zip(cs[lo + r :: width],
                                            cs[hi + r :: width])
                        ]
        m *= p
    return cs


def poly_shift(f: Poly) -> Poly:
    """f(t+1): a Taylor shift over F_p (see poly_compose), Horner over Z."""
    return poly_compose(f, Poly((1, 1), f.modulus))


def frob_pow(f: Poly, r: int) -> Poly:
    """f^(p^r) over F_p, by coefficient spreading.

    Over the prime field the Frobenius fixes every scalar, so the p-th power
    just sends t^i to t^(i*p); r successive applications multiply exponents
    by p^r.  Linear time, no multiplications.
    """
    if f.modulus == 0:
        raise ValueError("Frobenius powers require a prime modulus")
    if r < 0:
        raise ValueError("negative Frobenius exponent")
    if r == 0 or f.is_zero():
        return f
    p, data = f.modulus, f.data
    n = (len(data) - 1) * p**r + 1
    cs = bytearray(n) if type(data) is bytes else [0] * n
    cs[::p**r] = data
    return Poly._raw(_stored(cs, p), p)


def times_t(f: Poly) -> Poly:
    """t f, by shifting the coefficients."""
    data = f.data
    zero = b"\0" if type(data) is bytes else (0,)
    return Poly._raw(zero + data, f.modulus) if data else f


# -- text format ------------------------------------------------------------

def signed_terms(s: str):
    """Split a sum on its + and - signs, yielding (sign, term text) pairs;
    a leading sign belongs to the first term."""
    pieces = re.split(r"([+-])", s)
    if pieces[0]:
        pieces.insert(0, "+")
    else:
        del pieces[0]
    for sign, term in zip(pieces[::2], pieces[1::2]):
        yield (-1 if sign == "-" else 1), term.strip()


def parse_exponent(text: str) -> int:
    """An exponent read from polynomial or series text, refused with
    ValueError when its absolute value passes SYNTH_DEGREE_CAP, before
    anything dense is built from it."""
    k = int(text)
    if abs(k) > SYNTH_DEGREE_CAP:
        raise ValueError(
            f"exponent {k} is above the cap {SYNTH_DEGREE_CAP} in absolute value"
        )
    return k


_TERM_RE = re.compile(
    r"^(?:(?P<coeff>\d+)\s*\*?\s*)?(?:(?P<var>[A-Za-z]\w*)(?:\^(?P<exp>\d+))?)?$"
)


def parse_poly(text: str, p: int, var: str = "t") -> Poly:
    """Parse either a coefficient list ``[c0,c1,...]`` or a symbolic sum.

    Symbolic terms look like ``4*t^3``, ``2t``, ``t^2``, ``t``, or ``7``;
    terms are joined by ``+`` and ``-``.  The variable name is configurable
    so the same syntax serves both t-polynomials and q-expansions.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"unterminated coefficient list: {text!r}")
        inner = s[1:-1].strip()
        if not inner:
            return Poly.zero(p)
        return Poly([int(c) for c in inner.split(",")], p)
    coeffs: dict[int, int] = {}
    for sign, term in signed_terms(s):
        m = _TERM_RE.match(term)
        if not m or not term:
            raise ValueError(f"bad polynomial term {term!r} in {text!r}")
        coeff_s, var_s, exp_s = m.group("coeff"), m.group("var"), m.group("exp")
        if coeff_s is None and var_s is None:
            raise ValueError(f"bad polynomial term {term!r} in {text!r}")
        if var_s is not None and var_s != var:
            raise ValueError(
                f"unexpected variable {var_s!r} (want {var!r}) in {text!r}"
            )
        c = sign * (int(coeff_s) if coeff_s is not None else 1)
        k = 0 if var_s is None else (
            parse_exponent(exp_s) if exp_s is not None else 1)
        coeffs[k] = coeffs.get(k, 0) + c
    deg = max(coeffs) if coeffs else 0
    return Poly([coeffs.get(k, 0) for k in range(deg + 1)], p)


def format_poly(f: Poly, var: str = "t") -> str:
    """Symbolic text, descending powers: ``4*t^3 + 2*t``; zero prints ``0``."""
    if f.is_zero():
        return "0"
    parts: list[str] = []
    cs = f.data
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if c == 0:
            continue
        neg = c < 0
        mag = -c if neg else c
        if k == 0:
            body = str(mag)
        else:
            power = var if k == 1 else f"{var}^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)
