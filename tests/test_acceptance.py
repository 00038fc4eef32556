"""Package-level acceptance gates.

One test per numbered criterion.  Each runs its full stated scale, asserts
exact results (set equality, zero failures) plus the wall-clock budget
where one applies, and prints a single CRITERION summary line
(bypassing output capture, so it shows in any pytest run).
"""

import itertools
import time

from zinterp.algebra import Poly, frob_pow, poly_divrem, poly_shift
from zinterp.bivar import BiTrunc, collapse_diagonal, from_hyperbola, kernel_factor, to_hyperbola
from zinterp.buchi import buchi_generate, buchi_search_oracle
from zinterp.formula import LANG_STAR, bound_vars, check_sat, eval_qf, parse
from zinterp.harness import (
    check_witness,
    e2e_verify,
    relation_instance,
    synth_frob_power,
    synth_ge_p,
    synth_nonzero,
    synth_pair,
    synth_positive_power,
)
from zinterp.interp import (
    char_is,
    compose,
    dispatch,
    identity_interpretation,
    pell_interpretation,
    translate_with_trace,
)
from zinterp.pell import MODE_CHAR2, pell_add, pell_enumerate_oracle, pell_pair
from zinterp.valued import (
    LaurentTrunc,
    ValCoeff,
    hull_uncertainty,
    newton_polygon,
    polygon_sum,
    reflect,
    series_mul,
    theta_series,
)


def _report(capsys, num, label, elapsed, budget=None):
    timing = f"{elapsed:.1f}s" + (f" < {budget:.0f}s" if budget else "")
    with capsys.disabled():
        print(f"CRITERION {num} PASS {label} ({timing})")


def test_criterion_1_pell_identity_suite(capsys):
    primes = (3, 5, 7, 17, 19)
    span = range(-30, 31)
    start = time.monotonic()
    for p in primes:
        pairs = {n: pell_pair(n, p) for n in range(-60, 61)}
        powers = set()
        q = 1
        while q <= 30:
            powers.add(q)
            q *= p
        for n in span:
            pr = pairs[n]
            assert pr.x.degree == abs(n)
            if n != 0:
                assert pr.y.degree == abs(n) - 1
            shifted_adds_one = poly_shift(pr.x) == pr.x + Poly.one(p)
            assert shifted_adds_one == (abs(n) in powers), (p, n)
            assert pr.x.evaluate(1) % p == 1 % p
        for m in span:
            for n in span:
                got = pell_add(pairs[m], pairs[n])
                want = pairs[m + n]
                assert (got.x, got.y) == (want.x, want.y)
                ym, yn = pairs[m].y, pairs[n].y
                if ym.is_zero():
                    y_div = yn.is_zero()
                else:
                    y_div = poly_divrem(yn, ym)[1].is_zero()
                idx_div = (n % m == 0) if m != 0 else (n == 0)
                assert y_div == idx_div, (p, m, n)
        for m in span:
            for r in (0, 1, 2):
                assert pell_pair(m * p ** r, p).x == frob_pow(pairs[m].x, r)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(capsys, 1, "pell identity suite |m|,|n|<=30 over 5 primes", elapsed, 60.0)


def _expected_family(p, max_y_degree, mode=None):
    expected = set()
    n = 0
    while True:
        pos = pell_pair(n, p, mode)
        if pos.y.degree > max_y_degree:
            return expected
        neg = pell_pair(-n, p, mode)
        for pair in (pos, neg):
            expected.add((pair.x, pair.y))
            if pair.mode != MODE_CHAR2:
                expected.add((-pair.x, pair.y))
        n += 1


def test_criterion_2_pell_oracle_set_equality(capsys):
    frozen_sizes = {(3, 4): 22, (5, 5): 26, (7, 4): 22, (2, 4): 11}
    start = time.monotonic()
    for (p, max_deg), size in frozen_sizes.items():
        got = pell_enumerate_oracle(p, max_deg)
        assert got == frozenset(_expected_family(p, max_deg))
        assert len(got) == size
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(capsys, 2, "pell enumeration equals the generated family", elapsed, 300.0)


def test_criterion_3_buchi_oracle_sweep(capsys):
    p = 17
    start = time.monotonic()
    report = buchi_search_oracle(p, 1)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    assert report.seeds_scanned == 83521
    assert report.constant_families == 17
    assert report.flagged == ()
    assert len(report.retained) == 272
    seen = set()
    for family in report.retained:
        assert family.matched
        regen = buchi_generate(family.v, family.r, 2, p)
        assert regen.terms == (family.u1, family.u2)
        seen.add((family.v, family.r))
    nonconstant = {
        Poly((c0, c1), p) for c0 in range(p) for c1 in range(1, p)
    }
    assert seen == {(v, 0) for v in nonconstant}
    controls = [Poly.gen(p), Poly((1, 1), p), Poly((4, 3), p), Poly((16, 16), p)]
    for v in controls:
        assert (v, 0) in seen
    _report(capsys, 3, "square-sequence sweep matches the generated families",
            elapsed, 600.0)


def test_criterion_4_formula_semantics_agreement(rng, capsys):
    counts = {}
    start = time.monotonic()

    for p in (5, 17, 19):
        n = 0
        while n < 100:
            coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 7))]
            f = Poly(coeffs, p)
            if f.is_zero():
                continue
            assert check_witness(synth_nonzero(f, p))
            n += 1
        counts[("nonzero", p)] = n

    for p in (17, 19):
        n = 0
        for _ in range(50):
            g = Poly([rng.randrange(p) for _ in range(rng.randint(1, 3))], p)
            for r in (0, 1):
                assert check_witness(synth_ge_p(g, r, p))
                n += 1
        counts[("power-certificate", p)] = n

    for p, r_max in ((5, 4), (17, 3), (19, 3)):
        for r in range(r_max + 1):
            assert check_witness(synth_frob_power(r, p))
        counts[("frob-powers", p)] = r_max + 1

    for p, grid in ((5, (1, 2, 3)), (17, (1, 2)), (19, (1, 2))):
        n = 0
        for r in grid:
            for k in range(1, p ** r + 1):
                if n >= 100:
                    break
                assert check_witness(synth_positive_power(k, r, p))
                n += 1
        counts[("positive-powers", p)] = n

    def agree(kind, ints, p):
        truth, phi, witness = relation_instance(kind, ints, p)
        assert truth, (kind, ints, p)
        assert check_sat(phi, witness, p), (kind, ints, p)

    for p in (5, 17, 19):
        for n in range(-50, 51):
            agree("domain", (n,), p)
        counts[("domain", p)] = 101

        for _ in range(100):
            a, b = rng.randint(-25, 25), rng.randint(-25, 25)
            agree("+", (a, b, a + b), p)
        counts[("add", p)] = 100

        agree("|", (0, 0), p)
        for _ in range(99):
            a = rng.choice([-1, 1]) * rng.randint(1, 10)
            agree("|", (a, a * rng.randint(-10, 10)), p)
        counts[("divides", p)] = 100

        for _ in range(100):
            a = rng.choice([-1, 1]) * rng.randint(0, 5)
            r = rng.randint(0, 1)
            b = rng.choice([-1, 1]) * (p ** r) * a
            agree("|*", (a, b), p)
        counts[("frob-divides", p)] = 100

        for _ in range(100):
            a = rng.randint(-30, 30)
            b = rng.randint(-30, 30)
            while b == a:
                b = rng.randint(-30, 30)
            agree("!=", (a, b), p)
        counts[("unequal", p)] = 100

    elapsed = time.monotonic() - start
    assert all(c > 0 for c in counts.values())
    total = sum(counts.values())
    _report(capsys, 4, f"formula/semantics agreement, {total} instances, 0 failures",
            elapsed)


def _random_series(rng, p, q_prec, max_val):
    lo = rng.randint(-4, 2)
    hi = lo + rng.randint(0, 5)
    data = {}
    for n in range(lo, hi + 1):
        if rng.random() < 0.25 and n not in (lo, hi):
            continue
        v = rng.randint(0, max_val)
        qcs = [0] * v + [rng.randint(1, p - 1)]
        for _ in range(rng.randint(0, 2)):
            qcs.append(rng.randint(0, p - 1))
        data[n] = ValCoeff(tuple(qcs), p, q_prec, exact=True)
    return LaurentTrunc.from_dict(data, p, q_prec, window=(lo, hi))


def test_criterion_5_newton_polygon_suite(rng, capsys):
    start = time.monotonic()
    for _ in range(200):
        h = _random_series(rng, 5, 64, 20)
        g = _random_series(rng, 5, 64, 20)
        prod = series_mul(h, g)
        assert hull_uncertainty(prod) == ()
        assert newton_polygon(prod) == polygon_sum(
            newton_polygon(h), newton_polygon(g)
        )
        assert newton_polygon(reflect(h)) == newton_polygon(h).reflect()
    for n_max in range(1, 7):
        th = theta_series(5, n_max, 64)
        vertices = set(newton_polygon(th).vertices)
        for point in th.support():
            assert point in vertices, (n_max, point)
    elapsed = time.monotonic() - start
    _report(capsys, 5, "hull additivity, reflection, and square-series vertices",
            elapsed)


def _random_bitrunc(rng, p, bound, density=0.6):
    entries = {}
    for m in range(bound + 1):
        for n in range(bound + 1 - m):
            if rng.random() < density:
                entries[(m, n)] = rng.randrange(p)
    return BiTrunc.from_dict(entries, p, bound)


def test_criterion_6_bivar_suite(rng, capsys):
    start = time.monotonic()
    for _ in range(200):
        p = rng.choice([3, 5, 7, 17])
        cofactor = _random_bitrunc(rng, p, rng.randrange(7))
        f = BiTrunc.kernel_generator(p) * cofactor
        assert kernel_factor(f).as_dict() == cofactor.as_dict()
    for _ in range(200):
        p = rng.choice([3, 5, 7, 17])
        f = _random_bitrunc(rng, p, 8)
        assert from_hyperbola(to_hyperbola(f)).as_dict() == f.as_dict()
        assert to_hyperbola(from_hyperbola(f)).as_dict() == f.as_dict()
    for p in (2, 3, 5, 17):
        collapsed = collapse_diagonal(BiTrunc.kernel_generator(p))
        assert collapsed.support() == []
        assert collapsed.unknown_exponents() == []
    elapsed = time.monotonic() - start
    _report(capsys, 6, "kernel factor and hyperbola roundtrips, collapse vanishes",
            elapsed)


def test_criterion_7_end_to_end_compile_demo(capsys):
    cases = (
        ("(exists (n) (= (+ 1 1) n))", {"n": 2}),
        ("(exists (n) (and (| 1 n) (!= n 0)))", {"n": 3}),
    )
    start = time.monotonic()
    for sentence, ints in cases:
        reports = {}
        for p in (17, 19):
            first = e2e_verify(sentence, ints, p)
            second = e2e_verify(sentence, ints, p)
            assert first == second
            assert first.ok and not first.error
            assert all(c.ok for c in first.clauses)
            reports[p] = first
        assert reports[17].formula_text == reports[19].formula_text
    elapsed = time.monotonic() - start
    _report(capsys, 7, "end-to-end demo verifies with characteristic-free text",
            elapsed)


def test_criterion_8_guarded_dispatch_selects(capsys):
    branch_a = pell_interpretation()
    branch_b = compose(identity_interpretation(LANG_STAR), pell_interpretation())
    disp = dispatch([(char_is(5), branch_a), (char_is(17), branch_b)])
    sentence = parse("(exists (n) (= (+ 1 1) n))", LANG_STAR)
    start = time.monotonic()

    for p, live in ((5, "!1"), (17, "!2")):
        assert eval_qf(char_is(5), {}, p) == (p == 5)
        assert eval_qf(char_is(17), {}, p) == (p == 17)
        out, trace = translate_with_trace(disp, sentence)
        one = Poly.one(p)
        tm1 = Poly.gen(p) - one

        def quot(m):
            q, rem = poly_divrem(pell_pair(m, p).x - one, tm1)
            assert rem.is_zero()
            return q

        q1, q2 = quot(1), quot(2)
        per_record = (
            {"!1": [q2], "!2": [q2]},
            {"!1": [q1, q1], "!2": [q1, q1, q2, q1, q1]},
            {"!1": [q1], "!2": [q1]},
            {"!1": [], "!2": [q1]},
        )
        assert [r.kind for r in trace.instantiations] == ["domain", "+", "domain", "1"]

        def witness_for(branch):
            witness = {
                "n.1": pell_pair(2, p).x, "n.2": pell_pair(2, p).y,
                "c1.1": pell_pair(1, p).x, "c1.2": pell_pair(1, p).y,
            }
            for values, record in zip(per_record, trace.instantiations):
                feeds = {m: iter(values[m]) for m in ("!1", "!2")}
                for name in record.bound:
                    marker = "!1" if "!1" in name else "!2"
                    value = next(feeds[marker])
                    witness[name] = value if marker == branch else Poly.zero(p)
            return witness

        right = witness_for(live)
        wrong = witness_for("!2" if live == "!1" else "!1")
        assert set(right) == bound_vars(out)
        assert check_sat(out, right, p)
        assert not check_sat(out, wrong, p)
    elapsed = time.monotonic() - start
    _report(capsys, 8, "two-branch guarded dispatch selects by characteristic",
            elapsed)
