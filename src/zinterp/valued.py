"""Truncated Laurent series over F_p[[q]] and their Newton polygons.

A series here is a finite window of exponents of t, each carrying a
coefficient in F_p[[q]] known modulo q^Q.  The coefficient valuation is the
order in q, so the points (n, v(c_n)) determine a lower convex hull: the
Newton polygon of the series.  In min-plus form the polygon is the function

    N(s) = min over support of ( v(c_n) + n*s ),

which encodes the same data as the classical max-plus log-norm polygon
pi(x) = max(n*x + log|c_n|) via pi(x) = -N(-x / log p) * log p; everything
below works with the exact min-plus form and rational slopes, never floats.

Precision honesty: a coefficient whose stored expansion reduces to 0 modulo
q^Q is "zero at precision Q", which is weaker than exact zero.  Hull queries
flag the exponents where such a coefficient could still cut the hull.  With
Q = 1 the coefficients carry the trivial valuation (0 or unknown/infinity)
and the machinery degenerates to plain polynomial supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from typing import Iterable, Mapping, Optional, Union

from .algebra import (PRODUCT_DEGREE_CAP, SYNTH_DEGREE_CAP, FeasibilityError,
                      Poly, PrecisionError, _check_modulus, format_poly,
                      parse_exponent, parse_poly)


@dataclass(frozen=True)
class ValCoeff:
    """An element of F_p[[q]]: known modulo q^prec, or exactly (exact=True).

    qcoeffs is ascending in q with trailing zeros stripped; inexact values
    store nothing at or above index prec.
    """

    qcoeffs: tuple[int, ...]
    p: int
    prec: int
    exact: bool = False

    def __post_init__(self):
        _check_modulus(self.p)
        if self.p == 0:
            raise ValueError("series coefficients need a prime modulus")
        if self.prec < 1:
            raise ValueError("precision must be >= 1")
        cs = [c % self.p for c in self.qcoeffs]
        if not self.exact:
            cs = cs[: self.prec]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "qcoeffs", tuple(cs))

    @classmethod
    def make(cls, value, p: int, prec: int) -> "ValCoeff":
        """Coerce an int, coefficient list, Poly in q, or text to a ValCoeff;
        a ValCoeff already at p and prec is returned as it is."""
        if isinstance(value, ValCoeff):
            if value.p == p and value.prec == prec:
                return value
            return cls(value.qcoeffs, p, prec, value.exact)
        if isinstance(value, Poly):
            return cls(value.coeffs, p, prec, True)
        if isinstance(value, int):
            return cls((value,), p, prec, True)
        if isinstance(value, str):
            if value.strip() == "0?":
                return cls((), p, prec, exact=False)
            return cls(parse_poly(value, p, var="q").coeffs, p, prec, True)
        return cls(tuple(value), p, prec, True)

    def valuation(self) -> Optional[int]:
        """Order in q of the known part, or None when nothing is visible.

        None means "exactly zero" for exact values and ">= prec" otherwise.
        """
        return next(compress(count(), self.qcoeffs), None)

    def is_exact_zero(self) -> bool:
        return self.exact and not self.qcoeffs

    def is_zero_at_precision(self) -> bool:
        return not self.qcoeffs

    def at_precision(self, prec: int) -> "ValCoeff":
        exact = self.exact and len(self.qcoeffs) <= prec
        if prec == self.prec and exact == self.exact:
            return self
        return ValCoeff(self.qcoeffs[:prec] if not exact else self.qcoeffs,
                        self.p, prec, exact)

    def format(self) -> str:
        if not self.qcoeffs:
            return "0" if self.exact else "0?"
        return format_poly(Poly(self.qcoeffs, self.p), var="q")


CoeffLike = Union[int, "ValCoeff", Poly, str, tuple, list]


@dataclass(frozen=True)
class LaurentTrunc:
    """A window of a Laurent series in t with ValCoeff coefficients.

    coeffs[i] belongs to exponent n_min + i.  lo_exact / hi_exact record
    whether the series is known to have no support below / above the window
    (an open tail makes operation windows shrink honestly).
    """

    n_min: int
    coeffs: tuple[ValCoeff, ...]
    p: int
    q_prec: int
    lo_exact: bool = True
    hi_exact: bool = True

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a series window must be nonempty")
        norm = tuple(c.at_precision(self.q_prec) for c in self.coeffs)
        if any(c.p != self.p for c in norm):
            raise ValueError("mixed moduli in coefficients")
        object.__setattr__(self, "coeffs", norm)

    @classmethod
    def from_dict(
        cls,
        data: Mapping[int, CoeffLike],
        p: int,
        q_prec: int,
        lo_exact: bool = True,
        hi_exact: bool = True,
        window: Optional[tuple[int, int]] = None,
    ) -> "LaurentTrunc":
        if not data and window is None:
            raise ValueError("empty series needs an explicit window")
        lo = min(data) if window is None else window[0]
        hi = max(data) if window is None else window[1]
        zero = ValCoeff((), p, q_prec, exact=True)
        cs = [
            ValCoeff.make(data[n], p, q_prec) if n in data else zero
            for n in range(lo, hi + 1)
        ]
        return cls(lo, tuple(cs), p, q_prec, lo_exact, hi_exact)

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.coeffs) - 1

    def coeff(self, n: int) -> ValCoeff:
        if not (self.n_min <= n <= self.n_max):
            if (n < self.n_min and self.lo_exact) or (
                n > self.n_max and self.hi_exact
            ):
                return ValCoeff((), self.p, self.q_prec, exact=True)
            raise PrecisionError(f"exponent {n} lies outside the known window")
        return self.coeffs[n - self.n_min]

    def support(self) -> list[tuple[int, int]]:
        """(exponent, valuation) for every coefficient with visible support."""
        out = []
        for i, c in enumerate(self.coeffs):
            v = c.valuation()
            if v is not None:
                out.append((self.n_min + i, v))
        return out

    def unknown_exponents(self) -> list[int]:
        """Exponents whose coefficient is zero at precision but not exactly."""
        return [
            self.n_min + i
            for i, c in enumerate(self.coeffs)
            if c.is_zero_at_precision() and not c.is_exact_zero()
        ]

    def is_one_at_precision(self) -> bool:
        for i, c in enumerate(self.coeffs):
            want_one = self.n_min + i == 0
            if want_one:
                if c.qcoeffs != (1,):
                    return False
            elif not c.is_zero_at_precision():
                return False
        return self.n_min <= 0 <= self.n_max


def series_mul(h: LaurentTrunc, g: LaurentTrunc) -> LaurentTrunc:
    """Product, restricted to the window where every contribution is known.

    With both tails exact the window is the full support bound
    [h.lo+g.lo, h.hi+g.hi]; each open tail cuts the corresponding side down
    to what the finite windows determine completely.  Open tails on
    opposite sides (h's lower and g's upper, or the reverse) determine no
    coefficient and raise PrecisionError.

    Each series is one Poly in q, coefficient i cut at the precision and
    placed at q^(i*k), k long enough for any pair product, so one product
    gives every coefficient in its own slot.  A coefficient is exact when
    every pair reaching it, a factor exactly zero left out, has exact
    factors of lengths la, lb with la + lb - 1 <= prec: each factor marks
    height min(la - 1, cut), or cut when inexact, and one integer product
    counts the pairs by height sum.  A packed length past
    PRODUCT_DEGREE_CAP raises FeasibilityError before anything is packed.
    """
    if h.p != g.p:
        raise ValueError("mixed moduli")
    if (not h.lo_exact and not g.hi_exact) or (
            not h.hi_exact and not g.lo_exact):
        raise PrecisionError("open ends on opposite sides determine no "
                             "product coefficient")
    prec = min(h.q_prec, g.q_prec)
    lo = max(h.n_min + (g.n_min if h.lo_exact else g.n_max),
             g.n_min + (h.n_min if g.lo_exact else h.n_max))
    hi = min(h.n_max + (g.n_max if h.hi_exact else g.n_min),
             g.n_max + (h.n_max if g.hi_exact else h.n_min))
    if lo > hi:
        raise PrecisionError("product window is empty at these truncations")
    hq = [c.qcoeffs[:prec] for c in h.coeffs]
    gq = [c.qcoeffs[:prec] for c in g.coeffs]
    k = max(max(map(len, hq)) + max(map(len, gq)) - 1, 1)
    cut = min(prec, k)
    slot = 2 * cut + 1
    length = (len(hq) + len(gq) - 1) * max(k, slot)
    if length > PRODUCT_DEGREE_CAP:
        raise FeasibilityError(f"a packed series product of length {length} "
                               f"is above the cap {PRODUCT_DEGREE_CAP}")
    values = (_packed(hq, k, h.p) * _packed(gq, k, h.p)).data
    width = (min(len(hq), len(gq)).bit_length() + 7) // 8
    marks = (_marks(h, cut, slot, width) * _marks(g, cut, slot, width)
             ).to_bytes(length * width, "little")
    blank = bytes((cut + 1) * width)
    out = []
    for m in range(lo - h.n_min - g.n_min, hi - h.n_min - g.n_min + 1):
        at = (m * slot + cut) * width
        out.append(ValCoeff(tuple(values[m * k:m * k + cut]), h.p, prec,
                            marks[at:at + len(blank)] == blank))
    return LaurentTrunc(lo, tuple(out), h.p, prec, h.lo_exact and g.lo_exact,
                        h.hi_exact and g.hi_exact)


def _packed(qs: list[tuple[int, ...]], k: int, p: int) -> Poly:
    """The q-expansions qs as one polynomial, qs[i] at q^(i*k)."""
    cs = [0] * (len(qs) * k)
    for i, q in enumerate(qs):
        cs[i * k:i * k + len(q)] = q
    return Poly(cs, p)


def _marks(h: LaurentTrunc, cut: int, slot: int, width: int) -> int:
    """A count of one, in width bytes, at position i*slot + height for each
    coefficient i of h not exactly zero: min(len - 1, cut) when exact, cut
    when not."""
    buf = bytearray(len(h.coeffs) * slot * width)
    for i, c in enumerate(h.coeffs):
        if not c.is_exact_zero():
            height = min(len(c.qcoeffs) - 1, cut) if c.exact else cut
            buf[(i * slot + height) * width] = 1
    return int.from_bytes(buf, "little")


def reflect(h: LaurentTrunc) -> LaurentTrunc:
    """The substitution t -> 1/t: coefficient of t^n moves to t^(-n)."""
    return LaurentTrunc(
        -h.n_max,
        tuple(reversed(h.coeffs)),
        h.p,
        h.q_prec,
        lo_exact=h.hi_exact,
        hi_exact=h.lo_exact,
    )


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of (exponent, valuation) points; slopes increase."""

    vertices: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        vs = tuple((n, Fraction(v)) for n, v in self.vertices)
        if not vs:
            raise ValueError("a polygon needs at least one vertex")
        for (n0, v0), (n1, v1) in zip(vs, vs[1:]):
            if n1 <= n0:
                raise ValueError("vertex abscissae must increase")
        slopes = [
            Fraction(v1 - v0, n1 - n0) for (n0, v0), (n1, v1) in zip(vs, vs[1:])
        ]
        for s0, s1 in zip(slopes, slopes[1:]):
            if s1 <= s0:
                raise ValueError("polygon must be strictly convex")
        object.__setattr__(self, "vertices", vs)

    def value_at(self, n) -> Optional[Fraction]:
        """Hull height at abscissa n, or None (+infinity) outside the span."""
        n = Fraction(n)
        if n < self.vertices[0][0] or n > self.vertices[-1][0]:
            return None
        for (n0, v0), (n1, v1) in zip(self.vertices, self.vertices[1:]):
            if n0 <= n <= n1:
                return v0 + Fraction(v1 - v0, n1 - n0) * (n - n0)
        return self.vertices[-1][1]

    def reflect(self) -> "NewtonPolygon":
        return NewtonPolygon(tuple((-n, v) for n, v in reversed(self.vertices)))


def lower_hull(points: Iterable[tuple[int, int]]) -> NewtonPolygon:
    """Monotone-chain lower hull of (n, v) points: the lowest point at each
    abscissa counts, and collinear middle points are dropped."""
    best: dict[int, Fraction] = {}
    for n, v in points:
        v = Fraction(v)
        if n not in best or v < best[n]:
            best[n] = v
    if not best:
        raise ValueError("no support points")
    pts = sorted(best.items())
    hull: list[tuple[int, Fraction]] = []
    for n, v in pts:
        while len(hull) >= 2:
            (n0, v0), (n1, v1) = hull[-2], hull[-1]
            # pop the middle point unless the path bends strictly upward:
            # slope(n0,n1) >= slope(n1,n) means (n1,v1) is not a hull vertex
            if (v1 - v0) * (n - n1) >= (v - v1) * (n1 - n0):
                hull.pop()
            else:
                break
        hull.append((n, v))
    return NewtonPolygon(tuple(hull))


def newton_polygon(h: LaurentTrunc) -> NewtonPolygon:
    """Hull of the stored window's visible support.

    Raises ValueError on the exact zero series, PrecisionError on one zero
    only at precision.  Use hull_uncertainty to learn which masked exponents
    could still cut the hull at this precision.
    """
    pts = h.support()
    if not pts:
        if h.lo_exact and h.hi_exact and not h.unknown_exponents():
            raise ValueError("the series is zero, so it has no Newton polygon")
        raise PrecisionError("series has no visible support at this precision")
    return lower_hull(pts)


def hull_uncertainty(h: LaurentTrunc) -> tuple[int, ...]:
    """Exponents where a zero-at-precision coefficient could cut the hull."""
    pts = h.support()
    if not pts:
        return tuple(h.unknown_exponents())
    hull = lower_hull(pts)
    out = []
    for n in h.unknown_exponents():
        height = hull.value_at(n)
        if height is None or height > h.q_prec:
            out.append(n)
    return tuple(out)


def polygon_sum(a: NewtonPolygon, b: NewtonPolygon) -> NewtonPolygon:
    """Minkowski sum: every vertex of it is a vertex of a plus one of b."""
    return lower_hull((n0 + n1, v0 + v1)
                      for n0, v0 in a.vertices for n1, v1 in b.vertices)


def theta_series(p: int, n_max: int, q_prec: int) -> LaurentTrunc:
    """The q-square series: coefficient q^(n*n) at t^n for n = 1..n_max.

    Terms with n*n >= q_prec collapse to zero at precision; the upper tail is
    open (the true series continues past the window), the lower tail exact.
    An n_max or a largest q-exponent past SYNTH_DEGREE_CAP raises
    FeasibilityError before anything is built.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    if n_max > SYNTH_DEGREE_CAP:
        raise FeasibilityError(
            f"n_max {n_max} is above the cap {SYNTH_DEGREE_CAP}"
        )
    top = min(n_max, math.isqrt(max(q_prec - 1, 0)))
    if top * top > SYNTH_DEGREE_CAP:
        raise FeasibilityError(
            f"coefficient q^{top * top} is above the cap {SYNTH_DEGREE_CAP}"
        )
    cs = []
    for n in range(1, n_max + 1):
        if n * n < q_prec:
            cs.append(ValCoeff((0,) * (n * n) + (1,), p, q_prec, exact=True))
        else:
            cs.append(ValCoeff((), p, q_prec, exact=False))
    return LaurentTrunc(1, tuple(cs), p, q_prec, lo_exact=True, hi_exact=False)


def norm_one_monomial(h: LaurentTrunc) -> tuple[int, int]:
    """Given h with h(t)*h(1/t) = 1 at the working truncation, read off
    the sign and exponent with h = sign * t^n to precision Q.

    Raises ValueError when the norm-one precondition visibly fails, and
    PrecisionError when the truncation cannot pin the answer down.
    """
    prod = series_mul(h, reflect(h))
    if not prod.is_one_at_precision():
        raise ValueError("series times its reflection is not 1 at truncation")
    pts = h.support()
    if not pts:
        raise PrecisionError("inconclusive at this precision: no visible support")
    if len(pts) > 1:
        raise PrecisionError(
            f"inconclusive at precision {h.q_prec}: support at "
            f"{sorted(n for n, _ in pts)} despite norm-one precondition"
        )
    n = pts[0][0]
    c = h.coeff(n)
    if c.qcoeffs == (1,):
        return 1, n
    if c.qcoeffs == (h.p - 1,):
        return -1, n
    raise PrecisionError(
        f"inconclusive at precision {h.q_prec}: principal coefficient "
        f"{c.format()} is not +-1"
    )


# -- text format --------------------------------------------------------------


def format_series(h: LaurentTrunc) -> str:
    """``{n: coeff, ...} @ p=P Q=N [open=lo|hi|both]`` with q-expansions;
    exact zeros are left out, except at an open end, which its entry marks."""
    last = len(h.coeffs) - 1
    items = [f"{h.n_min + i}: {c.format()}" for i, c in enumerate(h.coeffs)
             if not c.is_exact_zero() or (i == 0 and not h.lo_exact)
             or (i == last and not h.hi_exact)]
    body = "{" + ", ".join(items) + "}"
    tail = ""
    if not h.lo_exact and not h.hi_exact:
        tail = " open=both"
    elif not h.lo_exact:
        tail = " open=lo"
    elif not h.hi_exact:
        tail = " open=hi"
    return f"{body} @ p={h.p} Q={h.q_prec}{tail}"


def parse_series(text: str) -> LaurentTrunc:
    """The series format_series prints; ``{}`` with closed tails is zero."""
    body, _, meta = text.partition("@")
    body = body.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"series must be wrapped in braces: {text!r}")
    meta_parts = {}
    for kv in meta.split():
        key, eq, value = kv.partition("=")
        if not eq or key not in ("p", "Q", "open"):
            raise ValueError(f"unknown series metadata {kv!r}")
        if key in meta_parts:
            raise ValueError(f"series metadata {key!r} appears twice")
        meta_parts[key] = value
    if "p" not in meta_parts or "Q" not in meta_parts:
        raise ValueError("series text needs '@ p=... Q=...'")
    try:
        p, q_prec = int(meta_parts["p"]), int(meta_parts["Q"])
    except ValueError:
        raise ValueError("series metadata 'p' and 'Q' must be integers: "
                         f"{meta.strip()!r}") from None
    open_part = meta_parts.get("open")
    if open_part not in (None, "lo", "hi", "both"):
        raise ValueError(
            f"series metadata 'open' is {open_part!r}, not lo, hi or both")
    lo_exact = open_part not in ("lo", "both")
    hi_exact = open_part not in ("hi", "both")
    data: dict[int, ValCoeff] = {}
    inner = body[1:-1].strip()
    if inner:
        for chunk in inner.split(","):
            expo, _, coeff = chunk.partition(":")
            if not _:
                raise ValueError(f"bad series entry {chunk!r}")
            expo, coeff = parse_exponent(expo), coeff.strip()
            if expo in data:
                raise ValueError(f"series exponent {expo} appears twice")
            if coeff == "0?":
                data[expo] = ValCoeff((), p, q_prec, exact=False)
            else:
                data[expo] = ValCoeff.make(coeff, p, q_prec)
    if not data and not (lo_exact and hi_exact):
        raise ValueError("series has no entries")
    return LaurentTrunc.from_dict(data, p, q_prec, lo_exact, hi_exact,
                                  None if data else (0, 0))
