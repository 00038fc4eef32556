"""The three workloads: fixed job lists with ground truth made here.

Each workload turns a seed into a list of jobs.  A job calls the program
(through the `zinterp` module it is handed, so a tracer's wrappers are
seen) and checks the result against an expectation computed up front by
this file's own arithmetic, never by the code under test.

- oracle: the brute-force oracles on exhaustive inputs.  Many tiny
  operands; root extraction dominates; no formula work.  Seed unused.
- e2e: random closed star sentences with integer witnesses, compiled and
  verified at p = 17 and p = 19.  The compiler path: substitution and
  translation dominate, arithmetic is a small share.
- synth: witness synthesis and checking for the five formula families on
  a fixed (family, p, r) grid with seeded operands.  Few, huge operands:
  Horner steps in poly_compose and large multiplies dominate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import sentences


@dataclass(frozen=True)
class Job:
    label: str
    call: Callable  # zinterp module -> program output
    check: Callable  # program output -> matches ground truth


# -- coefficient-list arithmetic for ground truth ------------------------------

def _trim(cs, p: int) -> tuple:
    cs = [c % p for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _add(a, b, p: int) -> tuple:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)], p)


def _neg(a, p: int) -> tuple:
    return _trim([-c for c in a], p)


def _times_t(a, p: int) -> tuple:
    return _trim((0,) + tuple(a), p) if a else ()


def _conic_step(x, y, p):
    """(t x + (t^2 - 1) y, x + t y)."""
    t2m1_y = _add(_times_t(_times_t(y, p), p), _neg(y, p), p)
    return _add(_times_t(x, p), t2m1_y, p), _add(x, _times_t(y, p), p)


def pell_pair_lists(n: int, p: int):
    """Index-n solution of x^2 - (t^2 - 1) y^2 = 1 by the step recurrence."""
    x, y = (1,), ()
    for _ in range(abs(n)):
        x, y = _conic_step(x, y, p)
    return (x, _neg(y, p)) if n < 0 else (x, y)


def pell_family(p: int, max_y_degree: int) -> set:
    """Every solution with deg y <= max_y_degree, generated from indices:
    (+-x_n, +-y_n) for odd p; (x_n, y_n) and (x_n + t y_n, y_n) for p = 2,
    where the char-2 conic is x^2 + t x y + y^2 = 1."""
    out = set()
    if p == 2:
        x, y = (1,), ()
        while len(y) - 1 <= max_y_degree:
            out.add((x, y))
            out.add((_add(x, _times_t(y, p), p), y))
            x, y = y, _add(x, _times_t(y, p), p)
        return out
    x, y = (1,), ()
    while len(y) - 1 <= max_y_degree:
        for sx in (x, _neg(x, p)):
            for sy in (y, _neg(y, p)):
                out.add((sx, sy))
        x, y = _conic_step(x, y, p)
    return out


def _monomial(k: int) -> tuple:
    return (0,) * k + (1,)


def _spread(g, q: int) -> tuple:
    """g(t^q): the coefficients of g^(p^r) over F_p when q = p^r."""
    out = [0] * ((len(g) - 1) * q + 1)
    for i, c in enumerate(g):
        out[i * q] = c
    return tuple(out)


def _random_poly(rng: random.Random, p: int, degree: int) -> tuple:
    # Dense (no zero coefficient): the multiply paths skip zeros, so
    # sparse operands would make a job's cost depend on the seed.
    return tuple(rng.randrange(1, p) for _ in range(degree + 1))


# -- oracle ---------------------------------------------------------------------

# (p, bound on deg y, solution count): the acceptance criteria's cases and
# frozen sizes, and the Buchi sweep's frozen counts.
PELL_ORACLE_CASES = ((3, 4, 22), (5, 5, 26), (7, 4, 22), (2, 4, 11))
BUCHI_EXPECTED = {"seeds": 83521, "constant": 17, "retained": 272}


def _pell_oracle_job(p: int, d: int, size: int) -> Job:
    expected = frozenset(pell_family(p, d))

    def check(found) -> bool:
        got = frozenset((x.coeffs, y.coeffs) for x, y in found)
        return got == expected and len(got) == size

    return Job(f"pell_oracle p={p} D={d}",
               lambda z: z.pell_enumerate_oracle(p, d), check)


def _buchi_check(report) -> bool:
    return (report.seeds_scanned == BUCHI_EXPECTED["seeds"]
            and report.constant_families == BUCHI_EXPECTED["constant"]
            and len(report.retained) == BUCHI_EXPECTED["retained"]
            and not report.flagged)


def oracle_jobs(seed: int, quick: bool):
    del seed  # exhaustive inputs
    cases = PELL_ORACLE_CASES[::3] if quick else PELL_ORACLE_CASES
    jobs = [_pell_oracle_job(p, d, size) for p, d, size in cases]
    if not quick:
        jobs.append(Job("buchi_oracle p=17 d=1",
                        lambda z: z.buchi_search_oracle(17, 1), _buchi_check))
    return jobs, {}


# -- e2e ------------------------------------------------------------------------

E2E_CYCLES = 10  # of sentences.CYCLE sentences each
E2E_PRIMES = (17, 19)


def _e2e_job(sentence, witness: dict, p: int) -> Job:
    source = sentences.text(sentence)
    truth = sentences.holds(sentence, witness, p)

    def check(report) -> bool:
        return not report.error and report.ok == truth

    return Job(f"e2e p={p} {source} {witness}",
               lambda z: z.e2e_verify(source, witness, p), check)


def e2e_jobs(seed: int, quick: bool):
    rng = random.Random(seed)
    jobs = []
    relations: dict = {}
    true = 0
    for sentence, witness in sentences.sentence_batch(
            rng, 1 if quick else E2E_CYCLES):
        sentences.relation_counts(sentence, relations)
        for p in E2E_PRIMES:
            jobs.append(_e2e_job(sentence, witness, p))
            true += sentences.holds(sentence, witness, p)
    mix = {
        "true_share": round(true / len(jobs), 4),
        "relations": dict(sorted(relations.items())),
    }
    return jobs, mix


# -- synth ----------------------------------------------------------------------

SYNTH_PRIMES = (5, 7, 11, 13, 17)
# Per prime, the size classes of the seeded jobs: beta base degrees,
# theta index magnitudes, nu target degrees.  The seed picks values inside
# each class (coefficients, signs, k), so every seed costs about the same.
BETA_DEGREES = (1, 3)
THETA_INDICES = (10, 40, 70, 100, 130)
NU_DEGREES = (5, 10, 20, 30, 45, 60)


def _synth_job(label: str, make, targets: dict) -> Job:
    """make(z) builds the witness; targets maps bound names to the
    coefficient tuples they must hold."""

    def call(z):
        witness = make(z)
        return witness, z.check_witness(witness)

    def check(out) -> bool:
        witness, satisfied = out
        return satisfied is True and all(
            witness.assignment[name].coeffs == coeffs
            for name, coeffs in targets.items()
        )

    return Job(label, call, check)


def synth_jobs(seed: int, quick: bool):
    rng = random.Random(seed)
    top_r = 2 if quick else 3
    jobs = []
    for p in SYNTH_PRIMES:
        for r in range(1, top_r + 1):
            jobs.append(_synth_job(
                f"phi p={p} r={r}",
                lambda z, r=r, p=p: z.synth_frob_power(r, p),
                {"f": _monomial(p ** r)},
            ))
        for r in (1, 2):
            k = rng.randint(1, p ** r)
            jobs.append(_synth_job(
                f"psi p={p} r={r} k={k}",
                lambda z, k=k, r=r, p=p: z.synth_positive_power(k, r, p),
                {"f": _monomial(k)},
            ))
            for degree in BETA_DEGREES:
                g = _random_poly(rng, p, degree)
                jobs.append(_synth_job(
                    f"beta p={p} r={r} g={list(g)}",
                    lambda z, g=g, r=r, p=p: z.synth_ge_p(z.Poly(g, p), r, p),
                    {"x": _spread(g, p ** r), "y": g},
                ))
        for size in THETA_INDICES:
            n = rng.choice((size, -size))
            x, y = pell_pair_lists(n, p)
            jobs.append(_synth_job(
                f"theta p={p} n={n}",
                lambda z, n=n, p=p: z.synth_pair(n, p),
                {"x": x, "y": y},
            ))
        for degree in NU_DEGREES:
            f = _random_poly(rng, p, degree)
            jobs.append(_synth_job(
                f"nu p={p} deg={degree}",
                lambda z, f=f, p=p: z.synth_nonzero(z.Poly(f, p), p),
                {"x": f},
            ))
    return jobs, {}


WORKLOADS = {"oracle": oracle_jobs, "e2e": e2e_jobs, "synth": synth_jobs}
