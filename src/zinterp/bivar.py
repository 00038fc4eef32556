"""Bivariate truncations, the diagonal collapse, and hyperbola coordinates.

BiTrunc holds a polynomial (or the total-degree-D truncation of a series) in
two variables over F_p.  Three pieces of machinery live here:

* collapse: substitute the second variable by the inverse of the first,
  t^m u^n -> t^(m-n), summing along diagonals into a Laurent window;
* kernel factorization: any truncation whose collapse vanishes is (tu - 1)
  times an explicit factor, found by a one-line recursion down the diagonals;
* the linear change of coordinates moving the Pell conic presentation to the
  hyperbola zw = 1 presentation, in both characteristics, together with its
  inverse and the sign/swap correspondence.

Truncation honesty: every operation on inexact inputs (exact=False marks a
window of something longer) reports the exact sub-window it can guarantee by
shrinking the result's degree bound rather than ever guessing a coefficient.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .algebra import (SYNTH_DEGREE_CAP, FeasibilityError, Poly,
                      _check_modulus, parse_exponent, signed_terms)
from .valued import LaurentTrunc, ValCoeff


@dataclass(frozen=True)
class BiTrunc:
    """Total-degree-bounded polynomial over F_p in two variables.

    entries are (m, n, coeff) with coeff nonzero mod p, sorted; exact=False
    declares the data to be a truncation (support above the bound unknown).
    """

    p: int
    bound: int
    entries: tuple[tuple[int, int, int], ...]
    exact: bool = True

    def __post_init__(self):
        _check_modulus(self.p)
        if self.p == 0:
            raise ValueError("bivariate truncations need a prime modulus")
        if self.bound < 0:
            raise ValueError("degree bound must be >= 0")
        if self.bound > SYNTH_DEGREE_CAP:
            raise FeasibilityError(
                f"degree bound {self.bound} is above the cap {SYNTH_DEGREE_CAP}"
            )
        acc: dict[tuple[int, int], int] = {}
        for m, n, c in self.entries:
            if m < 0 or n < 0:
                raise ValueError("exponents must be nonnegative")
            if m + n > self.bound:
                raise ValueError(
                    f"term t^{m} u^{n} exceeds the degree bound {self.bound}"
                )
            acc[(m, n)] = (acc.get((m, n), 0) + c) % self.p
        cleaned = tuple(
            (m, n, c) for (m, n), c in sorted(acc.items()) if c
        )
        object.__setattr__(self, "entries", cleaned)

    @classmethod
    def from_dict(
        cls, data: Mapping[tuple[int, int], int], p: int, bound: int,
        exact: bool = True,
    ) -> "BiTrunc":
        return cls(p, bound, tuple((m, n, c) for (m, n), c in data.items()),
                   exact)

    @classmethod
    def zero(cls, p: int, bound: int) -> "BiTrunc":
        return cls(p, bound, ())

    @classmethod
    def kernel_generator(cls, p: int) -> "BiTrunc":
        """t*u - 1."""
        return cls(p, 2, ((0, 0, -1), (1, 1, 1)))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(m, n): c for m, n, c in self.entries}

    def coeff(self, m: int, n: int) -> int:
        return self.as_dict().get((m, n), 0)

    def __add__(self, other: "BiTrunc") -> "BiTrunc":
        if self.p != other.p:
            raise ValueError("mixed moduli")
        exact = self.exact and other.exact
        if exact:
            bound = max(self.bound, other.bound)
        else:
            bound = min(b for b, ex in ((self.bound, self.exact),
                                        (other.bound, other.exact)) if not ex)
        acc = self.as_dict()
        for (m, n), c in other.as_dict().items():
            acc[(m, n)] = acc.get((m, n), 0) + c
        acc = {k: v for k, v in acc.items() if k[0] + k[1] <= bound}
        return BiTrunc.from_dict(acc, self.p, bound, exact)

    def __neg__(self) -> "BiTrunc":
        return BiTrunc(self.p, self.bound,
                       tuple((m, n, -c) for m, n, c in self.entries), self.exact)

    def __sub__(self, other: "BiTrunc") -> "BiTrunc":
        return self + (-other)

    def __mul__(self, other: "BiTrunc") -> "BiTrunc":
        if self.p != other.p:
            raise ValueError("mixed moduli")
        exact = self.exact and other.exact
        if exact:
            bound = self.bound + other.bound
        else:
            caps = [b for b, ex in
                    ((self.bound, self.exact), (other.bound, other.exact))
                    if not ex]
            bound = min(caps)
        acc: dict[tuple[int, int], int] = {}
        for m0, n0, c0 in self.entries:
            for m1, n1, c1 in other.entries:
                m, n = m0 + m1, n0 + n1
                if m + n <= bound:
                    acc[(m, n)] = acc.get((m, n), 0) + c0 * c1
        return BiTrunc.from_dict(acc, self.p, bound, exact)


def collapse_diagonal(f: BiTrunc) -> LaurentTrunc:
    """Substitute u = 1/t: each stored t^m u^n lands on exponent m - n.

    The output carries the trivial valuation (precision 1).  For an inexact
    input this is the collapse of the stored window only, and the result's
    tails are marked open accordingly.
    """
    sums: dict[int, int] = {}
    for m, n, c in f.entries:
        d = m - n
        sums[d] = (sums.get(d, 0) + c) % f.p
    data = {
        d: ValCoeff((c,), f.p, 1, exact=True) for d, c in sums.items() if c
    }
    return LaurentTrunc.from_dict(
        data, f.p, 1,
        lo_exact=f.exact, hi_exact=f.exact,
        window=(-f.bound, f.bound),
    )


def kernel_factor(f: BiTrunc) -> BiTrunc:
    """The factor F with f = (tu - 1) * F, for f whose collapse vanishes.

    The recursion gamma[m][n] = gamma[m-1][n-1] - c[m][n] (zero off the
    quadrant) produces the factor directly.  It moves along one diagonal
    m - n = d at a time, so only diagonals holding entries are walked, from
    their first entry to their last: gamma is zero before the first, and
    past the last it is minus the diagonal's sum, which vanishes.  So every
    term of the factor lies at least two degrees below an entry of f, and
    within f.bound - 2.  For an inexact input the guarantee, like the
    returned bound, drops to f.bound - 2.
    """
    diagonals: dict[int, dict[int, int]] = {}
    for m, n, c in f.entries:
        diagonals.setdefault(m - n, {})[n] = c
    bad = sorted(d for d, cs in diagonals.items() if sum(cs.values()) % f.p)
    if bad:
        raise ValueError(
            f"collapse does not vanish (nonzero on diagonals {bad}); "
            "no kernel factorization exists"
        )
    gamma: dict[tuple[int, int], int] = {}
    for d, cs in diagonals.items():
        g = 0
        for n in range(min(cs), max(cs)):
            g = (g - cs.get(n, 0)) % f.p
            if g:
                gamma[(n + d, n)] = g
    return BiTrunc.from_dict(gamma, f.p, max(f.bound - 2, 0), f.exact)


def _linear_subst(
    f: BiTrunc, first: tuple[int, int], second: tuple[int, int]
) -> BiTrunc:
    """Substitute var1 -> a*z + b*w, var2 -> c*z + d*w (exact, degree kept).

    Each t^m u^n becomes (b + a X)^m (d + c X)^n in one variable X, on the
    F_p multiply path; its coefficient of X^j is that of z^j w^(m+n-j).
    """
    a, b = first
    c, d = second
    p = f.p
    acc: dict[tuple[int, int], int] = {}
    for m, n, coeff in f.entries:
        image = Poly((b, a), p) ** m * Poly((d, c), p) ** n
        for j, cj in enumerate(image.data):
            if cj:
                key = (j, m + n - j)
                acc[key] = acc.get(key, 0) + coeff * cj
    return BiTrunc.from_dict(acc, p, f.bound, f.exact)


def to_hyperbola(f: BiTrunc) -> BiTrunc:
    """Move Pell-conic coordinates (t, u) to hyperbola coordinates (z, w).

    Odd characteristic: t -> (z+w)/2, u -> (z-w)/2, which carries
    t^2 - u^2 - 1 to zw - 1.  Characteristic 2: t -> z + w, u -> z, which
    carries u^2 + tu + 1 to zw + 1.  Linear in both cases, so the degree
    bound and exactness are preserved.
    """
    if f.p == 2:
        return _linear_subst(f, (1, 1), (1, 0))
    half = pow(2, -1, f.p)
    return _linear_subst(f, (half, half), (half, -half))


def from_hyperbola(f: BiTrunc) -> BiTrunc:
    """Inverse of to_hyperbola: odd p: z -> t+u, w -> t-u; p=2: z -> u, w -> t+u."""
    if f.p == 2:
        return _linear_subst(f, (0, 1), (1, 1))
    return _linear_subst(f, (1, 1), (1, -1))


# -- text format --------------------------------------------------------------

_BIFACTOR_RE = re.compile(r"^(?:(\d+)|([A-Za-z]\w*)(?:\^(\d+))?)$")


def parse_bipoly(text: str, p: int, bound: int) -> BiTrunc:
    """Parse sums of terms like ``2*t^2*u - t + 3`` into a BiTrunc."""
    s = text.strip()
    if not s:
        raise ValueError("empty bivariate polynomial text")
    acc: dict[tuple[int, int], int] = {}
    for coeff, term in signed_terms(s):
        if not term:
            raise ValueError(f"bad term in {text!r}")
        powers = {"t": 0, "u": 0}
        for factor in term.split("*"):
            m = _BIFACTOR_RE.match(factor.strip())
            if not m:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            if m.group(1) is not None:
                coeff *= int(m.group(1))
            else:
                var = m.group(2)
                if var not in powers:
                    raise ValueError(f"unknown variable {var!r} in {text!r}")
                powers[var] += parse_exponent(m.group(3)) if m.group(3) else 1
        key = (powers["t"], powers["u"])
        acc[key] = acc.get(key, 0) + coeff
    return BiTrunc.from_dict(acc, p, bound)


def format_bipoly(f: BiTrunc) -> str:
    if not f.entries:
        return "0"
    parts = []
    for m, n, c in sorted(f.entries, key=lambda e: (-(e[0] + e[1]), -e[0])):
        pieces = []
        for var, k in (("t", m), ("u", n)):
            if k == 1:
                pieces.append(var)
            elif k > 1:
                pieces.append(f"{var}^{k}")
        if not pieces or c != 1:
            pieces.insert(0, str(c))
        body = "*".join(pieces)
        parts.append(body if not parts else f"+ {body}")
    return " ".join(parts)
