"""Tests for witness synthesis, semantic checks, and e2e verification."""

import hashlib

import pytest
from conftest import SEED, FreshConstants, random_poly
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from zinterp.algebra import (
    SYNTH_DEGREE_CAP,
    FeasibilityError,
    Poly,
    format_poly,
    poly_compose,
    poly_divrem,
    poly_extgcd,
)
from zinterp import formula
from zinterp.buchi import ge_p_check
from zinterp.formula import (
    LANG_STAR,
    And,
    App,
    Atom,
    Const,
    Exists,
    Inst,
    IntStructure,
    Or,
    PolyStructure,
    Var,
    _scan,
    bound_vars,
    check_sat,
    eval_qf,
    expand,
    free_vars,
    parse,
    print_formula,
    term_vars,
    walk,
)
from zinterp.harness import (
    E2EReport,
    FAMILIES,
    Witness,
    _bind,
    _nonzero_values,
    check_witness,
    e2e_verify,
    family_formula,
    relation_instance,
    synth_frob_power,
    synth_ge_p,
    synth_nonzero,
    synth_pair,
    synth_positive_power,
)
from zinterp.interp import (
    InstRecord,
    OpenFormula,
    _collect_names,
    _Translator,
    nonzero,
    pell_interpretation,
    translate_with_trace,
    tuple_names,
)
from zinterp.pell import (
    STEP_LIMIT,
    pell_enumerate_oracle,
    pell_index_recognize,
    pell_pair,
    pell_pairs_with_quotients,
)


# -- ground truth for the power-set families, decided from the coefficients --

def is_frob_power_of_t(f: Poly, p: int) -> bool:
    """Membership in {t^(p^r) : r >= 0}."""
    d = f.degree
    if not isinstance(d, int) or d < 1:
        return False
    coeffs = f.coeffs
    if coeffs[-1] != 1 or any(coeffs[:-1]):
        return False
    while d > 1 and d % p == 0:
        d //= p
    return d == 1


def is_positive_power_of_t(f: Poly) -> bool:
    """Membership in {t^k : k >= 1}: a monic monomial of positive degree."""
    d = f.degree
    if not isinstance(d, int) or d < 1:
        return False
    return f.coeffs[-1] == 1 and not any(f.coeffs[:-1])


class TestPairFamily:
    def test_zero_and_one_frozen(self):
        w = synth_pair(0, 17).assignment
        p17 = 17
        assert w["x"] == Poly.one(p17)
        assert w["y"] == Poly.zero(p17)
        assert w["z"] == Poly.zero(p17)
        w = synth_pair(1, 17).assignment
        assert w["x"] == Poly.gen(p17)
        assert w["y"] == Poly.one(p17)
        assert w["z"] == Poly.one(p17)

    def test_small_grid_satisfies_domain(self):
        for p in (5, 17):
            for n in range(-6, 7):
                assert check_witness(synth_pair(n, p))

    def test_char_two_rejected(self):
        with pytest.raises(ValueError):
            synth_pair(1, 2)

    def test_decode_inverts_synthesis(self):
        for p in (17, 19):
            for n in range(-50, 51):
                w = synth_pair(n, p).assignment
                assert pell_index_recognize(w["x"], w["y"]) == n

    def test_decode_rejects_off_conic(self):
        p = 17
        with pytest.raises(ValueError):
            pell_index_recognize(Poly.gen(p), Poly.gen(p))


class TestNonzeroFamily:
    def test_frozen_generator_example(self):
        p = 5
        w = synth_nonzero(Poly.gen(p), p).assignment
        assert w["a"] == Poly.zero(p)
        assert w["b"] == Poly.one(p)
        assert w["c"] == Poly.one(p)

    def test_frozen_unit_example(self):
        p = 5
        w = synth_nonzero(Poly.one(p), p).assignment
        assert w["a"] == Poly.zero(p)
        assert w["b"] == Poly.zero(p)
        assert w["c"] == Poly.one(p)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            synth_nonzero(Poly.zero(5), 5)

    def test_random_targets_all_verify(self, rng):
        matrix = nonzero().body
        for p in (2, 5, 17):
            for _ in range(100):
                f = random_poly(rng, p, 8, nonzero=True)
                w = synth_nonzero(f, p)
                assert check_witness(w)
                assert eval_qf(matrix, w.assignment, p)

    def test_closed_form_bezout_matches_extgcd(self, rng):
        def strip_factor(f, d):
            """(k, g) with f = d^k * g and d not dividing g."""
            k = 0
            while True:
                q, r = poly_divrem(f, d)
                if not r.is_zero() or q.is_zero():
                    return k, f
                k, f = k + 1, q

        def ref_values(f, p):
            t = Poly.gen(p)
            tm1 = t - Poly.one(p)
            alpha, g1 = strip_factor(f, t)
            beta, gamma = strip_factor(g1, tm1)
            gcd1, u, v = poly_extgcd(t, tm1 ** beta * gamma)
            gcd2, s, r = poly_extgcd(tm1, t ** alpha * gamma)
            assert gcd1 == gcd2 == Poly.one(p)
            return [-u, -s, gamma * v * r]

        for p in (2, 3, 5, 17, 257):
            t = Poly.gen(p)
            targets = [Poly.const(c, p) for c in range(1, min(p, 20))]
            for _ in range(60):
                g = random_poly(rng, p, rng.randrange(7), nonzero=True)
                alpha, beta = rng.randrange(4), rng.randrange(4)
                targets.append(t ** alpha * (t - 1) ** beta * g)
            for f in targets:
                assert _nonzero_values(f, p) == ref_values(f, p)


class TestPowerCertificate:
    def test_shifted_example(self):
        w = synth_ge_p(Poly((1, 1), 17), 1, 17)
        assert check_witness(w)
        assert ge_p_check(w.assignment["x"], w.assignment["y"]) == 1

    def test_exponent_zero(self):
        p = 17
        w = synth_ge_p(Poly.gen(p) + Poly.one(p), 0, p)
        assert w.assignment["u"] == Poly.gen(p)
        assert w.assignment["v"] == Poly.one(p)
        assert check_witness(w)

    def test_constant_base(self):
        p = 17
        w = synth_ge_p(Poly.monomial(3, 0, p), 1, p)
        assert check_witness(w)

    def test_zero_base(self):
        p = 17
        w = synth_ge_p(Poly.zero(p), 1, p)
        assert check_witness(w)

    def test_even_characteristic_rejected(self):
        with pytest.raises(ValueError):
            synth_ge_p(Poly.gen(2), 1, 2)

    def test_grid(self):
        for p in (17, 19):
            for r in (0, 1):
                for coeffs in ((0, 1), (1, 1), (2,), (3, 0, 1)):
                    w = synth_ge_p(Poly(coeffs, p), r, p)
                    assert check_witness(w)


class TestPowerSets:
    def test_frob_power_witnesses(self):
        for p in (5, 17):
            for r in (0, 1, 2):
                w = synth_frob_power(r, p)
                assert w.assignment["f"] == Poly.monomial(1, p ** r, p)
                assert check_witness(w)
                assert is_frob_power_of_t(w.assignment["f"], p)

    def test_frob_power_closed_form_matches_the_pair_walk(self):
        for p in (3, 5, 7, 11, 13, 17):
            t, one = Poly.gen(p), Poly.one(p)
            for r in (0, 1, 2, 3):
                q = p ** r
                pairs, quot = pell_pairs_with_quotients((q,), p)
                x, y = pairs[q].x, pairs[q].y
                want = [x, y, quot[q], x + one, poly_compose(y, t + one),
                        Poly.monomial(1, q - 1, p)]
                got = list(synth_frob_power(r, p).assignment.values())
                assert got == want, (p, r)

    def test_positive_power_frozen_example(self):
        p = 5
        w = synth_positive_power(3, 1, p).assignment
        assert w["f"] == Poly.monomial(1, 3, p)
        assert w["h"] == Poly.monomial(1, 5, p)
        assert w["w1"] == Poly.monomial(1, 2, p)
        assert w["w2"] == Poly.monomial(1, 2, p)
        assert w["w3"] == Poly((1, 1, 1), p)

    def test_positive_power_witnesses(self):
        for p in (5, 17):
            q = p
            for k in range(1, q + 1):
                assert check_witness(synth_positive_power(k, 1, p))

    def test_positive_power_base_element(self):
        w = synth_positive_power(1, 1, 5)
        assert w.assignment["h"] == Poly.monomial(1, 5, 5)
        assert check_witness(w)

    def test_positive_power_range_errors(self):
        with pytest.raises(ValueError):
            synth_positive_power(6, 1, 5)
        with pytest.raises(ValueError):
            synth_positive_power(0, 1, 5)

    def test_membership_predicates(self):
        p = 5
        assert is_frob_power_of_t(Poly.monomial(1, 25, p), p)
        assert not is_frob_power_of_t(Poly.monomial(1, 10, p), p)
        assert is_frob_power_of_t(Poly.gen(p), p)
        assert not is_frob_power_of_t(Poly.one(p), p)
        assert not is_frob_power_of_t(Poly.monomial(2, 5, p), p)
        assert is_positive_power_of_t(Poly.monomial(1, 4, p))
        assert is_positive_power_of_t(Poly.gen(p))
        assert not is_positive_power_of_t(Poly.monomial(2, 1, p))
        assert not is_positive_power_of_t(Poly.one(p))


class TestSemanticCheck:
    """The ground truth the formula families are checked against: integer
    relations in the integer structure, the polynomial ones decided from
    coefficients or the Frobenius certificate, with no formula evaluation."""

    def test_power_divisibility_integers(self):
        ints = IntStructure(17)
        assert ints.relation("|*", (3, 51))
        assert not ints.relation("|*", (3, 6))
        assert ints.relation("|*", (3, -51))
        assert ints.relation("|_p", (51, 3))
        assert ints.relation("T", (2,))
        assert not ints.relation("T", (-1,))

    def test_plain_integer_relations(self):
        ints = IntStructure(17)
        assert ints.function("+", (1, 1)) == 2
        assert ints.function("+", (1, 1)) != 3
        assert ints.relation("|", (3, 6))
        assert ints.relation("!=", (0, 1))

    def test_polynomial_relations(self):
        p = 5
        assert is_frob_power_of_t(Poly.monomial(1, 25, p), p)
        assert not is_frob_power_of_t(Poly.monomial(1, 10, p), p)
        assert is_positive_power_of_t(Poly.monomial(1, 4, p))
        g = Poly((1, 1), p)
        assert ge_p_check(g * g * g * g * g, g) is not None
        assert ge_p_check(g * g, g) is None

    def test_decode(self):
        pair = pell_pair(7, 17)
        assert pell_index_recognize(pair.x, pair.y) == 7


class TestWitnessType:
    def test_coverage_enforced(self):
        w = synth_pair(2, 17)
        trimmed = dict(w.assignment)
        del trimmed["z"]
        with pytest.raises(ValueError):
            check_witness(Witness("theta", 17, trimmed))
        padded = dict(w.assignment)
        padded["extra"] = Poly.zero(17)
        with pytest.raises(ValueError):
            check_witness(Witness("theta", 17, padded))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family_formula("sigma")

    def test_every_family_binds_in_binder_order(self):
        samples = {
            "nu": lambda: synth_nonzero(Poly((2, 0, 1), 5), 5),
            "beta": lambda: synth_ge_p(Poly((1, 1), 5), 1, 5),
            "phi": lambda: synth_frob_power(1, 5),
            "psi": lambda: synth_positive_power(3, 1, 5),
            "theta": lambda: synth_pair(-3, 5),
        }
        assert set(samples) == set(FAMILIES)
        for family in FAMILIES:
            w = samples[family]()
            assert w.family == family
            want = tuple(_scan(family_formula(family))[1])
            assert tuple(w.assignment) == want, family
            assert check_witness(w), family

    def test_bind_refuses_count_mismatch(self):
        names = ("a", "b", "c")
        assert _bind("nu", names, [1, 2, 3]) == {"a": 1, "b": 2, "c": 3}
        for values in ([1, 2], [1, 2, 3, 4]):
            want = f"nu: {len(values)} values for 3 bound names"
            with pytest.raises(ValueError, match=want):
                _bind("nu", names, values)


class TestRelationInstance:
    def test_true_instances_satisfy(self):
        cases = [
            ("domain", (5,)), ("0", (0,)), ("1", (1,)),
            ("+", (3, 4, 7)), ("=", (6, 6)), ("|", (3, 12)),
            ("|*", (3, 51)), ("!=", (2, 5)), ("|", (0, 0)),
        ]
        for kind, ints in cases:
            ok, phi, witness = relation_instance(kind, ints, 17)
            assert ok, (kind, ints)
            assert check_sat(phi, witness, 17), (kind, ints)

    def test_false_instance_reported(self):
        ok, phi, witness = relation_instance("+", (1, 1, 3), 17)
        assert not ok
        assert not check_sat(phi, witness, 17)

    def test_witness_covers_bound_names(self):
        _, phi, witness = relation_instance("+", (2, 3, 5), 17)
        coords = {f"m{i}.{j}" for i in range(3) for j in (1, 2)}
        assert set(witness) == coords | bound_vars(phi)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            relation_instance("+", (1, 2), 17)

    def test_refusals_come_before_any_pair_is_built(self):
        # An index past the degree cap would raise FeasibilityError if the
        # pairs were built first.
        with pytest.raises(ValueError, match="speaks about 3 integers, got 2"):
            relation_instance("+", (10**6, 1), 17)
        for kind in ("<", "|_p"):
            with pytest.raises(ValueError, match=f"symbol {kind!r}$"):
                relation_instance(kind, (10**6, 1), 17)
        with pytest.raises(ValueError, match="prime modulus, got 0$"):
            relation_instance("domain", (10**6,), 0)


class TestEndToEnd:
    def test_sum_sentence(self):
        report = e2e_verify("(exists (n) (= (+ 1 1) n))", {"n": 2}, 17)
        assert report.ok
        assert all(c.ok for c in report.clauses)
        kinds = [c.kind for c in report.clauses]
        assert kinds == ["domain", "+", "domain", "1"]
        plus = report.clauses[1]
        assert plus.values == (1, 1, 2)

    def test_sum_sentence_formula_text_char_independent(self):
        a = e2e_verify("(exists (n) (= (+ 1 1) n))", {"n": 2}, 17)
        b = e2e_verify("(exists (n) (= (+ 1 1) n))", {"n": 2}, 19)
        assert a.ok and b.ok
        assert a.formula_text == b.formula_text

    def test_divide_and_differ_sentence(self):
        sentence = "(exists (n) (and (| 1 n) (!= n 0)))"
        for p in (17, 19):
            report = e2e_verify(sentence, {"n": 3}, p)
            assert report.ok
            assert all(c.ok for c in report.clauses)

    def test_unsatisfiable_sentence_reported(self):
        report = e2e_verify("(exists (n) (!= n n))", {"n": 0}, 17)
        assert not report.ok
        failed = [c for c in report.clauses if not c.ok]
        assert any(c.kind == "!=" for c in failed)

    def test_wrong_witness_fails_cleanly(self):
        report = e2e_verify("(exists (n) (= (+ 1 1) n))", {"n": 3}, 17)
        assert not report.ok
        plus = [c for c in report.clauses if c.kind == "+"][0]
        assert not plus.ok

    def test_missing_witness_reported(self):
        report = e2e_verify("(exists (n) (= n 0))", {}, 17)
        assert not report.ok
        assert "missing" in report.error

    def test_negative_value(self):
        report = e2e_verify(
            "(exists (n m) (= (+ n m) 0))", {"n": 3, "m": -3}, 17
        )
        assert report.ok

    def test_power_divisibility_sentence(self):
        report = e2e_verify(
            "(exists (n m) (and (|* n m) (!= m 0)))",
            {"n": 3, "m": 51}, 17,
        )
        assert report.ok
        assert all(c.ok for c in report.clauses)

    def test_witness_covers_every_bound_variable(self):
        from zinterp.formula import LANG_STAR, parse
        from zinterp.interp import pell_interpretation, translate
        sentence = "(exists (n) (and (| 1 n) (!= n 0)))"
        report = e2e_verify(sentence, {"n": 3}, 17)
        out = translate(
            pell_interpretation(), parse(sentence, LANG_STAR)
        )
        assert set(report.witness) == bound_vars(out)

    def test_shadowing_binder_reads_its_tuple_base(self):
        # The inner n has the tuple base n'; its entry is read under that
        # name, and the source name n stands in when it is not given.
        sentence = "(exists (n) (and (= n 1) (exists (n) (= n (+ 1 1)))))"
        report = e2e_verify(sentence, {"n": 1, "n'": 2}, 7)
        assert report.ok and report.error == ""
        assert all(c.ok for c in report.clauses)
        assert [c.values for c in report.clauses if c.kind == "+"] \
            == [(1, 1, 2)]
        for witness in ({"n": 1}, {"n": 2}):
            assert not e2e_verify(sentence, witness, 7).ok
        assert "missing variables ['n']" in \
            e2e_verify(sentence, {"n'": 2}, 7).error

    def test_deterministic(self):
        a = e2e_verify("(exists (n) (= (+ 1 1) n))", {"n": 2}, 17)
        b = e2e_verify("(exists (n) (= (+ 1 1) n))", {"n": 2}, 17)
        assert a == b


class TestDomainSoundness:
    def test_bounded_sweep_decodes(self):
        """Every bounded-degree conic solution meeting the congruence is a
        generated power pair: the domain formula is exact at this scale."""
        p = 5
        one = Poly.one(p)
        tm1 = Poly.gen(p) - one
        decoded = set()
        for x, y in pell_enumerate_oracle(p, 3):
            _, rem = poly_divrem(x - one, tm1)
            if not rem.is_zero():
                continue
            n = pell_index_recognize(x, y)
            assert n is not None
            decoded.add(n)
        assert decoded == set(range(-4, 5))


def test_degree_cap_refuses_oversized_synthesis():
    t = Poly.gen(17)
    over = [
        lambda: synth_frob_power(5, 17),
        lambda: synth_frob_power(10 ** 9, 3),
        lambda: synth_positive_power(1, 10 ** 9, 5),
        lambda: synth_ge_p(t, 5, 17),
        lambda: synth_ge_p(Poly.zero(17), 10 ** 9, 17),
        lambda: synth_pair(SYNTH_DEGREE_CAP + 1, 17),
        lambda: synth_pair(-SYNTH_DEGREE_CAP - 1, 17),
        lambda: e2e_verify("(exists (a b) (|* a b))", {"a": 1, "b": 17 ** 5}, 17),
        lambda: relation_instance("=", (SYNTH_DEGREE_CAP + 1,) * 2, 17),
    ]
    for call in over:
        with pytest.raises(FeasibilityError, match="above the cap"):
            call()


def test_degree_cap_admits_largest_benchmarked_jobs():
    assert check_witness(synth_frob_power(3, 17))
    assert check_witness(synth_ge_p(Poly((1, 2, 3, 4), 7), 2, 7))
    assert synth_pair(SYNTH_DEGREE_CAP, 3).assignment["x"].degree == SYNTH_DEGREE_CAP


# -- e2e report digest --------------------------------------------------------------

# Fixed star sentences with integer witnesses: every relation, nested and
# shadowing binders, taken and untaken disjuncts, true and false verdicts.
E2E_BATCH = (
    ("(exists (n) (= (+ 1 1) n))", {"n": 2}),
    ("(exists (n) (and (| 1 n) (!= n 0)))", {"n": 3}),
    ("(exists (n) (= (+ n n) (+ 1 1)))", {"n": 1}),
    ("(exists (a b) (|* a b))", {"a": 2, "b": 34}),
    ("(exists (a b) (|* a b))", {"a": -1, "b": 3}),
    ("(exists (a b) (|* a b))", {"a": 1, "b": -19}),
    ("(exists (a b) (= a b))", {"a": 1}),
    ("(exists (a b) (or (|* a b) (= a (+ b 1))))", {"a": 4, "b": 3}),
    ("(exists (a b c) (and (= (+ a b) c) (| a c) (!= a b)))",
     {"a": 2, "b": -4, "c": -2}),
    ("(exists (a) (exists (a) (= a 0)))", {"a": 0}),
    ("(exists (a b) (and (= (+ a b) 1) (!= a b)))", {"a": 3, "b": -2}),
    ("(exists (x) (or (= x 0) (and (| x 1) (!= x 1))))", {"x": -1}),
    ("(exists (u v) (and (= (+ (+ u v) 1) (+ v u)) (| u v)))",
     {"u": 0, "v": 5}),
    ("(exists (m) (and (!= m 1) (exists (k) (= (+ m k) 0))))",
     {"m": 1, "k": -1}),
)


# sha256 over every report field (witness values printed, names sorted);
# fixed by the formula layer's recursive walks and unchanged since.
E2E_BATCH_DIGEST = (
    "17207a651f20bf6cf6f3b2dc1714c704bcebf43b0ad4f78f70f0c14efc525ee6"
)


def test_e2e_reports_pinned_by_digest():
    h = hashlib.sha256()
    for sentence, ints in E2E_BATCH:
        for p in (17, 19):
            r = e2e_verify(sentence, ints, p)
            lines = [r.sentence, str(r.p), str(r.ok), r.error, r.formula_text]
            # the empty fourth field keeps the digest as it was pinned
            lines += [f"{c.kind} {c.values} {c.ok} " for c in r.clauses]
            lines += [f"{name} = {format_poly(v)}"
                      for name, v in sorted((r.witness or {}).items())]
            h.update("\n".join(lines).encode() + b"\0")
    assert h.hexdigest() == E2E_BATCH_DIGEST


# -- translated sentences as instances, against their expansion ------------------
#
# The translator emits Inst nodes and expand gives the plain tree.  The
# printer, the scan and check_sat must read both alike.

class _ExpandingTranslator(_Translator):
    """Reference translator: each library instance is expanded where it is
    emitted."""

    def inst(self, kind, of, bases):
        self.counter += 1
        names = [n for base in bases for n in self.tuple_names(base)]
        out, bound = of.template(tuple([Var(n) for n in names]),
                                 f"#{self.counter}")
        self.instantiations.append(InstRecord(kind, bases, self.counter, bound))
        return out


def ref_translate(interp, phi):
    names = _collect_names(set().union(*_scan(phi)))
    tr = _ExpandingTranslator(interp, names)
    return tr.hoist_constants(tr.go(phi, {})), tr.trace()


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return f"ValueError: {exc}"


def _check_against_expansion(sentence, ints, pick):
    """Every reading of the translated sentence equals its expansion's;
    pick(names) chooses the witness name to perturb and to drop."""
    interp = pell_interpretation()
    phi = parse(sentence, LANG_STAR)
    out, trace = translate_with_trace(interp, phi)
    plain = expand(out)
    assert (plain, trace) == ref_translate(interp, phi)
    assert print_formula(out) == print_formula(plain)
    assert _scan(out) == _scan(plain)
    for p in (17, 19):
        witness = e2e_verify(phi, ints, p).witness
        if witness is None:  # the integer witness misses a variable
            continue
        assert check_sat(out, witness, p) == check_sat(plain, witness, p)
        name = pick(sorted(witness))
        bumped = {**witness, name: witness[name] + Poly.one(p)}
        assert check_sat(out, bumped, p) == check_sat(plain, bumped, p)
        dropped = {n: v for n, v in witness.items() if n != name}
        refusal = _outcome(lambda: check_sat(out, dropped, p))
        assert refusal.startswith("ValueError: witness does not assign")
        assert refusal == _outcome(lambda: check_sat(plain, dropped, p))


@pytest.mark.parametrize("sentence, ints", E2E_BATCH)
def test_instances_read_like_their_expansion(sentence, ints, rng):
    _check_against_expansion(sentence, ints, rng.choice)


@pytest.mark.parametrize("sentence, ints", E2E_BATCH)
def test_records_name_the_coordinates_of_their_instances(sentence, ints):
    interp = pell_interpretation()
    out, trace = translate_with_trace(interp, parse(sentence, LANG_STAR))
    records = {rec.tag: rec for rec in trace.instantiations}
    stack, insts = [out], []
    while stack:  # the glue above the instances; their bodies are plain
        node = stack.pop()
        if isinstance(node, Inst):
            insts.append(node)
        else:
            stack.extend(node.parts if isinstance(node, (And, Or))
                         else [node.body])
    assert sorted(int(node.mark[1:]) for node in insts) == sorted(records)
    for node in insts:
        rec = records[int(node.mark[1:])]
        assert node.names == tuple(
            n for base in rec.bases for n in tuple_names(base, interp.dim))


def _spelled_scan(phi):
    """(free names, bound names in binder order) of phi, each instance's
    renamed bound names spelled here as b + mark."""
    free, bound = set(), []

    def go(node, scope):
        if isinstance(node, Inst):
            of = node.of
            bound.extend(b + node.mark for b in of.bound)
            free.update(n for p, n in zip(of.params, node.names)
                        if p in of.free and n not in scope)
        elif isinstance(node, Atom):
            free.update(n for a in node.args for n in term_vars(a)
                        if n not in scope)
        elif isinstance(node, (And, Or)):
            for part in node.parts:
                go(part, scope)
        else:
            bound.extend(node.names)
            go(node.body, scope | set(node.names))

    go(phi, frozenset())
    return free, bound


@pytest.mark.parametrize("sentence, ints", E2E_BATCH)
def test_each_instance_spells_its_bound_names_once(sentence, ints):
    # The record, the scan and the evaluator all read the one tuple the
    # Inst built; the scan's names are those spelled out afresh.
    out, trace = translate_with_trace(pell_interpretation(),
                                      parse(sentence, LANG_STAR))
    records = {f"#{rec.tag}": rec for rec in trace.instantiations}
    insts = [node for node in walk(out) if isinstance(node, Inst)]
    assert sorted(node.mark for node in insts) == sorted(records)
    for node in insts:
        assert records[node.mark].bound is node.bound
    for phi in (out, out.body):  # closed, and open under the top binder
        free, bound = _spelled_scan(phi)
        assert _scan(phi) == (free, bound)
        assert (free_vars(phi), bound_vars(phi)) == (free, set(bound))


_STAR_LEAVES = st.sampled_from(("a", "b", "0", "1"))
_STAR_TERMS = st.one_of(
    _STAR_LEAVES,
    st.tuples(_STAR_LEAVES, _STAR_LEAVES).map("(+ {0[0]} {0[1]})".format),
)
_STAR_ATOMS = st.tuples(st.sampled_from(("=", "|", "|*", "!=")),
                        _STAR_TERMS, _STAR_TERMS).map("({0[0]} {0[1]} {0[2]})"
                                                      .format)
_STAR_BODIES = st.recursive(
    _STAR_ATOMS,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(("and", "or")),
                  st.lists(sub, min_size=1, max_size=3))
        .map(lambda c: f"({c[0]} {' '.join(c[1])})"),
        sub.map("(exists (a) {})".format),
    ),
    max_leaves=4,
)


@seed(SEED)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(body=_STAR_BODIES, a=st.integers(-3, 3), b=st.integers(-3, 3),
       k=st.integers(0, 10 ** 6))
def test_random_sentences_read_like_their_expansion(body, a, b, k):
    _check_against_expansion(f"(exists (a b) {body})", {"a": a, "b": b},
                             lambda names: names[k % len(names)])


# -- the compiled evaluator of an Inst, call by call against its expansion --------

class Recording:
    """A structure with each constant, function and relation call logged,
    arguments included."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def constant(self, name):
        self.calls.append(("constant", name))
        return self.inner.constant(name)

    def function(self, name, args):
        self.calls.append(("function", name, tuple(args)))
        return self.inner.function(name, args)

    def relation(self, name, args):
        self.calls.append(("relation", name, tuple(args)))
        return self.inner.relation(name, args)


def _recorded(run, phi, env, p, inner):
    """(outcome, calls) of run(phi, env, p, structure) over a recording
    structure."""
    ring = Recording(inner)
    try:
        outcome = ("ok", run(phi, env, p, ring))
    except ValueError as exc:
        outcome = ("ValueError", str(exc))
    return outcome, ring.calls


def _same_calls(run, phi, env, p, make):
    """The formula and its expansion: same outcome, same calls in the same
    order, over a fresh structure each."""
    got = _recorded(run, phi, env, p, make())
    assert got == _recorded(run, expand(phi), env, p, make())
    return got[0]


@pytest.mark.parametrize("sentence, ints", E2E_BATCH)
def test_compiled_instances_make_the_calls_of_their_expansion(
        sentence, ints, rng):
    interp = pell_interpretation()
    out = translate_with_trace(interp, parse(sentence, LANG_STAR))[0]
    cases = [(17, PolyStructure), (19, PolyStructure), (5, FreshConstants)]
    for p, make in cases:
        witness = e2e_verify(sentence, ints, p).witness
        if witness is None:  # the integer witness misses a variable
            continue
        name = rng.choice(sorted(witness))
        bumped = {**witness, name: witness[name] + Poly.one(p)}
        for env in (witness, bumped):
            _same_calls(check_sat, out, env, p, lambda: make(p))


class Median(IntStructure):
    """The integers with a 3-ary median function."""

    def function(self, name, args):
        if name == "mid":
            return sorted(args)[1]
        return super().function(name, args)


def test_compiled_instance_of_any_arity_and_structure():
    a, b, c, w = Var("a"), Var("b"), Var("c"), Var("w")
    mid = App("mid", (a, b, c))
    # the or's second part reads t, which the integers lack
    of = OpenFormula(("a", "b", "c"), Exists(("w",), And((
        Atom("=", (mid, w)),
        Or((Atom("=", (w, a)),
            Atom("=", (Const("t"), App("+", (w, Const("1"))))))),
        Atom("|", (App("mid", (c, App("+", (w, Const("0"))), a)), mid)),
    ))))
    outcomes = []
    for names in (("x", "y", "z"), ("x", "y", "x")):
        phi = Exists(("x", "y", "z", "w#1"), Inst(of, names, "#1"))
        for values in ((2, 5, 2, 2), (1, 1, 7, 1), (1, 4, 7, 4),
                       (1, 4, 7, 5), (0, 0, 0, 0)):
            env = dict(zip(("x", "y", "z", "w#1"), values))
            outcomes.append(_same_calls(check_sat, phi, env, 3,
                                        lambda: Median(3)))
    assert ("ok", True) in outcomes and ("ok", False) in outcomes
    assert ("ValueError", "no constant 't' over the integers") in outcomes
    # an argument the evaluation reaches but env lacks; none is bound here
    flat = OpenFormula(("a", "b"), And((Atom("=", (a, Const("1"))),
                                        Atom("=", (b, Const("0"))))))
    inst = Inst(flat, ("x", "y"), "")
    assert _same_calls(eval_qf, inst, {"x": 1}, 3, lambda: Median(3)) \
        == ("ValueError", "unassigned variable 'y'")
    assert _same_calls(eval_qf, inst, {"x": 0}, 3, lambda: Median(3)) \
        == ("ok", False)


# -- library formulas as Insts of their OpenFormula, against their expansion ------
#
# family_formula and relation_instance hand check_sat the Inst of a library
# formula, which runs its compiled evaluator; expand gives the plain tree
# that the generic walk reads.

_FAMILY_SAMPLES = {
    "nu": lambda p: synth_nonzero(Poly((2, 0, 1), p), p),
    "beta": lambda p: synth_ge_p(Poly((1, 1), p), 1, p),
    "phi": lambda p: synth_frob_power(1, p),
    "psi": lambda p: synth_positive_power(3, 1, p),
    "theta": lambda p: synth_pair(-3, p),
}


def _clause_cases(p):
    """(kind, integers, truth) for every kind of the pair interpretation and
    the domain, true and false."""
    return [
        ("domain", (5,), True), ("domain", (-3,), True),
        ("0", (0,), True), ("0", (2,), False),
        ("1", (1,), True), ("1", (0,), False),
        ("+", (3, 4, 7), True), ("+", (1, 1, 3), False),
        ("=", (6, 6), True), ("=", (2, 5), False),
        ("|", (3, 12), True), ("|", (0, 0), True), ("|", (3, 7), False),
        ("|*", (3, -3 * p), True), ("|*", (2, 6), False),
        ("!=", (2, 5), True), ("!=", (4, 4), False),
    ]


def _reads_like_its_expansion(phi, witness, p, names) -> list:
    """check_sat on phi and on expand(phi) agree on the witness and on each
    copy with one of names bumped by 1, and refuse alike when names[0] is
    missing; returns the verdicts, the witness's first."""
    plain = expand(phi)
    verdicts = []
    for name in (None, *names):
        env = witness if name is None else {
            **witness, name: witness[name] + Poly.one(p)}
        verdicts.append(check_sat(phi, env, p))
        assert verdicts[-1] == check_sat(plain, env, p), name
    dropped = {n: v for n, v in witness.items() if n != names[0]}
    refusal = _outcome(lambda: check_sat(phi, dropped, p))
    assert refusal.startswith("ValueError: witness does not assign")
    assert refusal == _outcome(lambda: check_sat(plain, dropped, p))
    return verdicts


@pytest.mark.parametrize("p", [5, 17, 19])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_inst_reads_like_its_expansion(family, p):
    phi = family_formula(family)
    assert isinstance(phi, Inst) and phi.of.params == ()
    w = _FAMILY_SAMPLES[family](p)
    assert tuple(w.assignment) == phi.of.bound
    verdicts = _reads_like_its_expansion(phi, w.assignment, p,
                                         phi.of.bound)
    assert verdicts[0] and not all(verdicts)


@pytest.mark.parametrize("p", [5, 17, 19])
def test_clause_inst_reads_like_its_expansion(p):
    interp = pell_interpretation()
    assert {k for k, _, _ in _clause_cases(p)} == {"domain", *interp.symbols}
    for kind, ints, truth in _clause_cases(p):
        ok, phi, witness = relation_instance(kind, ints, p)
        assert ok == truth, (kind, ints)
        assert isinstance(phi.body, Inst) and phi.body.names == phi.names
        verdicts = _reads_like_its_expansion(phi, witness, p, sorted(witness))
        assert verdicts[0] == truth, (kind, ints)


def test_library_formulas_skip_the_generic_term_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("the generic term walk ran")

    monkeypatch.setattr(formula, "_eval_terms", refuse)
    for family, make in _FAMILY_SAMPLES.items():
        assert check_witness(make(17)), family
    for kind, ints, truth in _clause_cases(17):
        if truth:
            _, phi, witness = relation_instance(kind, ints, 17)
            assert check_sat(phi, witness, 17), kind
    with pytest.raises(AssertionError, match="generic term walk"):
        check_sat(expand(phi), witness, 17)


# -- differential e2e across primes: the interpretation is uniform in p ------------
#
# Random closed star sentences with integer witnesses, decided by a test-local
# integer evaluator; at every odd prime up to 23 the translated sentence must
# verify exactly when the integer sentence holds, and read the same.

_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)

_D_LEAVES = st.sampled_from(("a", "b", "c", "d", "0", "1"))
_D_TERMS = st.recursive(_D_LEAVES, lambda sub: st.tuples(
    st.just("+"), sub, sub), max_leaves=3)
_D_ATOMS = st.one_of(
    st.tuples(st.sampled_from(("=", "|", "|*", "!=")), _D_TERMS, _D_TERMS),
    st.tuples(st.just("|*"), *[st.sampled_from(("a", "b", "c"))] * 2),
)
_D_BODIES = st.recursive(_D_ATOMS, lambda sub: st.one_of(
    st.tuples(st.sampled_from(("and", "or")),
              st.lists(sub, min_size=1, max_size=3).map(tuple)),
    st.tuples(st.just("exists"), sub),
), max_leaves=5)


def _render(node, scope: dict, fresh: list) -> str:
    """Star-language text of a generated node; each exists binds d afresh,
    as d1, d2, ..., and a d outside every exists reads as a."""
    if isinstance(node, str):
        return scope.get(node, node)
    head = node[0]
    if head == "exists":
        fresh.append(f"d{len(fresh) + 1}")
        inner = _render(node[1], {**scope, "d": fresh[-1]}, fresh)
        return f"(exists ({fresh[-1]}) {inner})"
    if head in ("and", "or"):
        return f"({head} {' '.join(_render(f, scope, fresh) for f in node[1])})"
    return f"({head} {_render(node[1], scope, fresh)} " \
           f"{_render(node[2], scope, fresh)})"


def _p_power_multiple(a: int, b: int, p: int) -> bool:
    """b = +-(p^r) a for some r >= 0."""
    if a == 0:
        return b == 0
    while abs(b) > abs(a) and b % p == 0:
        b //= p
    return abs(b) == abs(a)


def _int_truth(node, env: dict, p: int, scope: dict, fresh):
    """The generated node over the integers, its variables read from env
    and renamed as _render renamed them, fresh yielding the exists names in
    order; the |* relation is taken at p."""
    if isinstance(node, str):
        return int(node) if node in ("0", "1") else env[scope.get(node, node)]
    head = node[0]
    if head == "+":
        return sum(_int_truth(t, env, p, scope, fresh) for t in node[1:])
    if head == "exists":
        return _int_truth(node[1], env, p, {**scope, "d": next(fresh)}, fresh)
    if head in ("and", "or"):
        # every part is read, so each exists takes its name in order
        parts = [_int_truth(f, env, p, scope, fresh) for f in node[1]]
        return all(parts) if head == "and" else any(parts)
    a = _int_truth(node[1], env, p, scope, fresh)
    b = _int_truth(node[2], env, p, scope, fresh)
    if head == "=":
        return a == b
    if head == "!=":
        return a != b
    if head == "|":
        return b == 0 if a == 0 else b % a == 0
    return _p_power_multiple(a, b, p)


def _first_star_pair(node):
    """The arguments of the first |* atom between two of a, b and c, or
    None."""
    head = node[0]
    if head == "|*" and node[1] != node[2] and {node[1], node[2]} <= {
            "a", "b", "c"}:
        return node[1], node[2]
    if head in ("and", "or", "exists"):
        for f in (node[1] if head != "exists" else (node[1],)):
            pair = _first_star_pair(f)
            if pair:
                return pair
    return None


# Values on both sides of the one-walk limit of the pair synthesis.
_D_VALUES = st.one_of(
    st.integers(-4, 4),
    st.integers(STEP_LIMIT - 2, STEP_LIMIT + 2).flatmap(
        lambda n: st.sampled_from((n, -n))),
)


@seed(SEED)
@settings(max_examples=100)
@given(body=_D_BODIES, values=st.lists(_D_VALUES, min_size=9, max_size=9),
       star=st.tuples(st.booleans(), st.sampled_from(_ODD_PRIMES),
                      st.integers(0, 2), st.sampled_from((1, -1))))
def test_e2e_agrees_with_the_integers_at_every_odd_prime(body, values, star):
    fresh = []
    sentence = f"(exists (a b c) {_render(body, {'d': 'a'}, fresh)})"
    names = ("a", "b", "c", *fresh)
    env = {name: values[i % len(values)] for i, name in enumerate(names)}
    pair = _first_star_pair(body)
    use, q, r, sign = star
    if use and pair:
        # a |* witness m = +-(q^r) n, which random values rarely give
        x, y = pair
        while r and abs(env[x]) * q ** r > 2000:
            r -= 1
        env[y] = sign * q ** r * env[x]
    texts = set()
    for p in _ODD_PRIMES:
        truth = _int_truth(body, env, p, {"d": "a"}, iter(fresh))
        report = e2e_verify(sentence, env, p)
        assert not report.error, (sentence, env, p)
        assert report.ok == truth, (sentence, env, p)
        texts.add(report.formula_text)
    assert len(texts) == 1
