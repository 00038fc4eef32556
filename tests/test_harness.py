"""Tests for witness synthesis, semantic checks, and e2e verification."""

import hashlib
import itertools

import pytest
from conftest import SEED, random_poly
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from zinterp.algebra import (
    FeasibilityError,
    Poly,
    format_poly,
    poly_compose,
    poly_divrem,
    poly_extgcd,
)
from zinterp.buchi import ge_p_check
from zinterp.formula import (
    LANG_STAR,
    Var,
    _scan,
    bound_vars,
    check_sat,
    eval_qf,
    expand,
    parse,
    print_formula,
)
from zinterp.harness import (
    E2EReport,
    FAMILIES,
    SYNTH_DEGREE_CAP,
    Witness,
    _bind,
    _nonzero_values,
    _strip_factor,
    check_witness,
    decode_pair,
    e2e_verify,
    family_formula,
    is_frob_power_of_t,
    is_positive_power_of_t,
    relation_instance,
    semantic_check,
    synth_frob_power,
    synth_ge_p,
    synth_nonzero,
    synth_pair,
    synth_positive_power,
)
from zinterp.interp import (
    InstRecord,
    _collect_names,
    _ordered_bound,
    _Translator,
    nonzero,
    pell_interpretation,
    translate_with_trace,
)
from zinterp.pell import (
    pell_enumerate_oracle,
    pell_pair,
    pell_pairs_with_quotients,
)


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
                assert decode_pair(w["x"], w["y"]) == n

    def test_decode_rejects_off_conic(self):
        p = 17
        with pytest.raises(ValueError):
            decode_pair(Poly.gen(p), Poly.gen(p))


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
        matrix = nonzero("x").body
        for p in (2, 5, 17):
            for _ in range(100):
                f = random_poly(rng, p, 8, nonzero=True)
                w = synth_nonzero(f, p)
                assert check_witness(w)
                assert eval_qf(matrix, w.assignment, p)

    def test_closed_form_bezout_matches_extgcd(self, rng):
        def ref_values(f, p):
            t = Poly.gen(p)
            tm1 = t - Poly.one(p)
            alpha, g1 = _strip_factor(f, t)
            beta, gamma = _strip_factor(g1, tm1)
            gcd1, u, v = poly_extgcd(t, tm1 ** beta * gamma)
            gcd2, s, r = poly_extgcd(tm1, t ** alpha * gamma)
            assert gcd1 == gcd2 == Poly.one(p)
            return [-u, -s, gamma * v * r]

        for p in (2, 3, 5, 17):
            t = Poly.gen(p)
            targets = [Poly.const(c, p) for c in range(1, p)]
            for _ in range(60):
                g = random_poly(rng, p, rng.randrange(7), nonzero=True)
                alpha, beta = rng.randrange(4), rng.randrange(4)
                targets.append(t ** alpha * (t - 1) ** beta * g)
            for f in targets:
                assert _nonzero_values(f, p) == ref_values(f, p)

    def test_soundness_random_samples(self, rng):
        matrix = nonzero("x").body
        for p in (5, 17):
            for _ in range(200):
                assignment = {
                    "x": random_poly(rng, p, 3),
                    "a": random_poly(rng, p, 3),
                    "b": random_poly(rng, p, 3),
                    "c": random_poly(rng, p, 3),
                }
                if eval_qf(matrix, assignment, p):
                    assert not assignment["x"].is_zero()

    def test_soundness_zero_target_exhaustive(self):
        """No witness of degree <= 1 certifies the zero target over F_5.

        The product (ta+1)((t-1)b+1) is never the zero polynomial, so the
        matrix with x = 0 forces a contradiction; the sweep confirms it
        on the full bounded grid.
        """
        p = 5
        matrix = nonzero("x").body
        zero = Poly.zero(p)
        polys = [Poly((c0, c1), p) for c0 in range(p) for c1 in range(p)]
        for a, b, c in itertools.product(polys, repeat=3):
            assignment = {"x": zero, "a": a, "b": b, "c": c}
            assert not eval_qf(matrix, assignment, p)


class TestPowerCertificate:
    def test_shifted_example(self):
        w = synth_ge_p(Poly((1, 1), 17), 1, 17)
        assert check_witness(w)
        assert ge_p_check(w.assignment["x"], w.assignment["y"], 17) == 1

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
    def test_power_divisibility_integers(self):
        assert semantic_check("|*", (3, 51), 17)
        assert not semantic_check("|*", (3, 6), 17)
        assert semantic_check("|*", (3, -51), 17)
        assert semantic_check("|_p", (51, 3), 17)
        assert semantic_check("T", (2,), 17)
        assert not semantic_check("T", (-1,), 17)

    def test_plain_integer_relations(self):
        assert semantic_check("+", (1, 1, 2), 17)
        assert not semantic_check("+", (1, 1, 3), 17)
        assert semantic_check("|", (3, 6), 17)
        assert semantic_check("!=", (0, 1), 17)

    def test_polynomial_relations(self):
        p = 5
        assert semantic_check("F", (Poly.monomial(1, 25, p),), p)
        assert not semantic_check("F", (Poly.monomial(1, 10, p),), p)
        assert semantic_check("P", (Poly.monomial(1, 4, p),), p)
        g = Poly((1, 1), p)
        assert semantic_check("ge_p", (g * g * g * g * g, g), p)
        assert not semantic_check("ge_p", (g * g, g), p)

    def test_decode(self):
        pair = pell_pair(7, 17)
        assert semantic_check("theta_decode", (pair.x, pair.y), 17) == 7


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
            want = _ordered_bound(family_formula(family))
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
            n = decode_pair(x, y)
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
            lines += [f"{c.kind} {c.values} {c.ok} {c.note}" for c in r.clauses]
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

    def inst(self, kind, of, names):
        self.counter += 1
        out, bound = of.template(tuple([Var(n) for n in names]),
                                 f"#{self.counter}")
        self.instantiations.append(InstRecord(kind, names, self.counter, bound))
        return out


def ref_translate(interp, phi):
    tr = _ExpandingTranslator(interp, _collect_names(phi))
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
