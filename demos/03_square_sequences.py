"""Sequences of polynomial squares with second differences all equal to 2.

Over F_p, the family u_n = (n + v)^(p^r + 1) consists entirely of squares
and satisfies u_{n+2} = 2 u_{n+1} - u_n + 2.  The module generates these,
and the search oracle sweeps every low-degree pair of square seeds to
confirm no other nonconstant family survives the recurrence.
"""

from zinterp.algebra import Poly, format_poly
from zinterp.buchi import buchi_generate, buchi_search_oracle, ge_p_check

p = 17
v = Poly.gen(p)

seq = buchi_generate(v, 0, 6, p)
print(f"u_n = (n + t)^2 over F_{p}, first {seq.length} terms:")
for i, term in enumerate(seq.terms, start=1):
    print(f"  u_{i} = {format_poly(term)}")
print("second differences all equal 2:", seq.valid)

print()
f = Poly.monomial(1, p, p) + Poly.one(p)
g = Poly.gen(p) + Poly.one(p)
print(f"power-of-Frobenius check: {format_poly(f)} = ({format_poly(g)})^(p^r)?")
print("  r =", ge_p_check(f, g))

print()
print("seed sweep, constant seeds only (degree bound 0)")
report = buchi_search_oracle(p, 0)
print(f"  scanned {report.seeds_scanned} seed pairs,"
      f" {report.constant_families} constant families,"
      f" {len(report.retained)} nonconstant survivors,"
      f" {len(report.flagged)} unexplained")
assert report.flagged == ()
print("  every survivor is a generated family (none at this degree)")
