"""Stdout and exit code of a fixed list of command lines, pinned by sha256.

Each line of cli_digest.txt reads `<exit code> <sha256 of stdout> <argv>`,
the argv as JSON.  Command lines run in this process through cli.main; an
argv that names a demos/ script runs that script in a fresh process.  The
list covers pell gen, verify and oracle (both spellings) at p = 0, 2, 3, 5
and 17, pell oracle (both spellings) at eight bounds at p = 7, 11, 13, 19
and 23, buchi gen and oracle, up to d = 2 at p = 17, synth for every
family, e2e, e2e at 7 and 19 on sentences whose fresh tuples hold sums (on
both sides of =, inside |, |* and !=, nested, of constants only, and under
a shadowed variable), compile through both built-in interpretations on
sentences using every symbol of their source languages, check, newton and
bivar, pell gen and verify, synth and e2e at the primes 7, 19, 131, 251
and 257, compile --export and --output and synth --formula-out, demo and
the demos.  A command line that writes files runs in an empty temporary
working directory under relative paths, and its digest field appends
`+<path>:<sha256>` for each file it wrote, in path order.  An intended
output change rewrites the file with

    PYTHONPATH=src python tests/test_cli_digest.py > tests/cli_digest.txt

and names the lines that moved in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from zinterp.algebra import format_poly
from zinterp.cli import main
from zinterp.pell import pell_pair

ROOT = Path(__file__).resolve().parents[1]
DIGEST_FILE = Path(__file__).with_name("cli_digest.txt")


def _pell_argvs() -> list:
    out = []
    for p in (0, 2, 3, 5, 17):
        for n in (-100, -7, -3, -1, 0, 1, 2, 5, 12, 70, 100):
            out.append(("pell", "gen", "-n", str(n), "-p", str(p)))
        for n in (-4, 0, 3, 9):
            pair = pell_pair(n, p)
            x, y = format_poly(pair.x), format_poly(pair.y)
            out.append(("pell", "verify", "-x", x, "-y", y, "-p", str(p)))
            out.append(("pell", "verify", "-x", format_poly(-pair.x),
                        "-y", y, "-p", str(p)))
        out.append(("pell", "verify", "-x", "t", "-y", "t", "-p", str(p)))
        bounds = {0: (0,), 2: (-1, 0, 1, 2, 4, 100000000),
                  3: (-1, 0, 1, 2, 4, 13), 5: (0, 1, 3, 9), 17: (0, 1, 10)}
        for d in bounds[p]:
            for spelling in (("pell", "oracle"), ("oracle", "pell")):
                out.append((*spelling, "-p", str(p), "-D", str(d)))
    for p in ("1000", "4", "1"):
        for spelling in (("pell", "oracle"), ("oracle", "pell")):
            out.append((*spelling, "-p", p, "-D", "0"))
    for p, d in _ORACLE_WIDE_PRIMES:
        for spelling in (("pell", "oracle"), ("oracle", "pell")):
            out.append((*spelling, "-p", p, "-D", d))
    return out


# Pell oracle sweeps at further primes: (13, 1) and (23, 3) sieve at F_p
# points alone, the others add F_(p^2) points, and (7, 6), (11, 5) and
# (19, 4) come within a factor 2.5 of the work cap.
_ORACLE_WIDE_PRIMES = (("7", "3"), ("7", "4"), ("7", "6"), ("11", "5"),
                       ("13", "1"), ("13", "4"), ("19", "4"), ("23", "3"))


def _buchi_argvs() -> list:
    out = [
        ("buchi", "gen", "-v", "t", "-r", "1", "-M", "5", "-p", "5"),
        ("buchi", "gen", "-v", "t^2 + 1", "-r", "2", "-M", "4", "-p", "3"),
        ("buchi", "gen", "-v", "t", "-r", "0", "-M", "6", "-p", "17"),
        ("buchi", "gen", "-v", "2*t + 3", "-r", "1", "-M", "3", "-p", "17"),
        ("buchi", "gen", "-v", "t", "-r", "1", "-M", "3", "-p", "2"),
        ("buchi", "gen", "-v", "t", "-r", "1", "-M", "3", "-p", "0"),
    ]
    for d, p in (("0", "17"), ("1", "17"), ("-1", "17"), ("0", "5")):
        for spelling in (("buchi", "oracle"), ("oracle", "buchi")):
            out.append((*spelling, "-d", d, "-p", p))
    out.append(("buchi", "oracle", "-d", "2", "-p", "17"))
    return out


def _synth_argvs() -> list:
    out = []
    for p in ("0", "2", "3", "5", "17"):
        out += [
            ("synth", "--family", "nu", "--target", "t", "-p", p),
            ("synth", "--family", "nu", "--target", "t^3 + t + 1", "-p", p),
            ("synth", "--family", "beta", "--base", "t + 1", "-r", "1",
             "-p", p),
            ("synth", "--family", "phi", "-r", "0", "-p", p),
            ("synth", "--family", "phi", "-r", "2", "-p", p),
            ("synth", "--family", "psi", "-k", "1", "-r", "1", "-p", p),
            ("synth", "--family", "psi", "-k", "2", "-r", "1", "-p", p),
            ("synth", "--family", "theta", "-n", "-4", "-p", p),
            ("synth", "--family", "theta", "-n", "3", "-p", p),
        ]
    return out


def _e2e_argvs() -> list:
    out = []
    for sentence, witness in (
        ("(exists (n) (= (+ 1 1) n))", "n=2"),
        ("(exists (n) (= (+ 1 1) n))", "n=3"),
        ("(exists (n) (and (| 1 n) (!= n 0)))", "n=3"),
        ("(exists (a b) (|* a b))", "a=1,b=17"),
        ("(exists (n m) (and (= (+ n n) m) (| n m) (!= m 1)))", "n=2,m=4"),
        ("(exists (n) (= (* n n) 6))", "n=2"),
    ):
        for p in ("2", "3", "5", "17", "19"):
            out.append(("e2e", "--sentence", sentence, "--witness", witness,
                        "-p", p))
    for sentence, witness in _DERIVED_SENTENCES:
        for p in ("7", "19"):
            out.append(("e2e", "--sentence", sentence, "--witness", witness,
                        "-p", p))
    return out


# Sentences whose translation derives the integer of a fresh tuple (the
# value of a sum) in every position a sum can take.
_DERIVED_SENTENCES = (
    ("(exists (a b) (= (+ a 1) (+ b b)))", "a=3,b=2"),
    ("(exists (a b) (= (+ a 1) (+ b b)))", "a=2,b=2"),
    ("(exists (a b) (| (+ a 1) (+ b a)))", "a=1,b=3"),
    ("(exists (a b) (|* (+ a a) (+ b 1)))", "a=1,b=13"),
    ("(exists (a b) (!= (+ a 1) (+ b b)))", "a=-3,b=2"),
    ("(exists (a b c) (= c (+ (+ a b) (+ a 1))))", "a=1,b=2,c=5"),
    ("(exists (a b) (| a (+ (+ a b) (+ b a))))", "a=2,b=-1"),
    ("(exists (n) (= (+ (+ 1 1) 1) n))", "n=3"),
    ("(exists (n) (and (= n n) (!= (+ 1 1) (+ 1 0))))", "n=0"),
    ("(exists (n) (exists (n) (= n (+ 1 1))))", "n=2"),
)


# Every star symbol (0, 1, +, =, |, |*, !=) and every divisibility symbol
# (0, 1, +, =, |, |_p, T) occurs in some sentence below.
_STAR_SENTENCES = (
    "(exists (n) (= n 0))",
    "(exists (n m) (and (= (+ n 1) m) (| n m) (|* n m) (!= m 0)))",
    "(exists (a b) (or (= (+ a (+ b 1)) 0) (and (|* a b) (= a b))))",
    "(exists (n) (and (= n n) (!= n 1)))",
)
_DIVISIBILITY_SENTENCES = (
    "(exists (x y) (and (= (+ x 1) y) (| x y) (|_p x y) (T y) (= x 0)))",
    "(exists (x) (or (T (+ x x)) (|_p 1 x)))",
)


def _compile_argvs() -> list:
    out = [("compile", "--interp", "pell", "--sentence", s)
           for s in _STAR_SENTENCES]
    out += [("compile", "--interp", "divisibility", "--sentence", s)
            for s in _DIVISIBILITY_SENTENCES]
    out += [
        ("compile", "--interp", "pell", "--sentence", "(= n 0)"),
        ("compile", "--interp", "pell", "--sentence", "(exists (n) (|_p n n))"),
        ("compile", "--interp", "divisibility", "--sentence",
         "(exists (n) (|* n n))"),
        ("compile", "--interp", "pell"),
    ]
    return out


def _check_argvs() -> list:
    out = []
    for p in ("7", "19", "131", "251", "257"):
        out += [
            ("check", "--formula", "(= (+ 1 1) 0)", "-p", p),
            ("check", "--formula",
             "(= (* (+ t 1) (+ t 1)) (+ (* t t) (+ (+ t t) 1)))", "-p", p),
            ("check", "--formula", "(exists (x) (= (* x x) (* t t)))",
             "--witness", "x = t", "-p", p),
            ("check", "--formula", "(exists (x y) (= (* x y) (+ t 1)))",
             "--witness", "x = t + 1\ny = 1", "-p", p),
            ("check", "--lang", "star", "--formula", "(exists (x y) (|* x y))",
             "--witness", f"x = t\ny = t^{p}", "-p", p),
            ("check", "--formula", "(exists (x) (= x t))", "-p", p),
        ]
    return out


def _newton_bivar_argvs() -> list:
    out = []
    for p in ("7", "19"):
        out.append(("newton", "theta", "-p", p, "--n-max", "4",
                    "--q-prec", "12"))
    out += [
        ("newton", "hull", "--series", "{0: 1, 1: q^2, 2: q} @ p=5 Q=10"),
        ("newton", "hull", "--series", "{0: 1, 2: q^3, 5: q^0} @ p=7 Q=6"),
        ("newton", "hull", "--series", "{} @ p=5 Q=1"),
        ("newton", "monomial", "--series", "{3: q^0} @ p=5 Q=10"),
        ("newton", "monomial", "--series", "{3: q^0, 4: q} @ p=19 Q=10"),
    ]
    for p in ("5", "7", "19"):
        out += [
            ("bivar", "collapse", "--poly", "t*u - 1", "-p", p, "-D", "6"),
            ("bivar", "collapse", "--poly", "t^2 + u^2 + t*u", "-p", p,
             "-D", "5"),
            ("bivar", "kernel", "--poly", "t^2*u - t", "-p", p, "-D", "3"),
            ("bivar", "kernel", "--poly", "t + 1", "-p", p, "-D", "3"),
            ("bivar", "hyperbola", "--poly", "t^2*u + 1", "-p", p, "-D", "6"),
            ("bivar", "hyperbola", "--poly", "t*u", "-p", p, "-D", "6",
             "--inverse"),
        ]
    return out


def _wide_prime_argvs() -> list:
    out = []
    for p in ("7", "19", "131", "251", "257"):
        for n in (-9, 0, 1, 5, 70):
            out.append(("pell", "gen", "-n", str(n), "-p", p))
        pair = pell_pair(3, int(p))
        x, y = format_poly(pair.x), format_poly(pair.y)
        out += [
            ("pell", "verify", "-x", x, "-y", y, "-p", p),
            ("pell", "verify", "-x", format_poly(-pair.x), "-y", y, "-p", p),
            ("synth", "--family", "nu", "--target", "t^3 + t + 1", "-p", p),
            ("synth", "--family", "beta", "--base", "t + 1", "-r", "1",
             "-p", p),
            ("synth", "--family", "phi", "-r", "1", "-p", p),
            ("synth", "--family", "psi", "-k", "2", "-r", "1", "-p", p),
            ("synth", "--family", "theta", "-n", "-4", "-p", p),
        ]
    for p in ("0", "7", "131", "251", "257"):
        out += [
            ("e2e", "--sentence", "(exists (n) (= (+ 1 1) n))",
             "--witness", "n=2", "-p", p),
            ("e2e", "--sentence",
             "(exists (n m) (and (= (+ n n) m) (| n m) (!= m 1)))",
             "--witness", "n=2,m=4", "-p", p),
            ("e2e", "--sentence", "(exists (a b) (|* a b))",
             "--witness", "a=2,b=-2", "-p", p),
        ]
    return out


# Command lines that write files, each into its own temporary directory.
_FILE_ARGVS = (
    ("compile", "--interp", "pell", "--export", "bundle"),
    ("compile", "--interp", "divisibility", "--export", "bundle"),
    ("compile", "--interp", "pell", "--export", "bundle", "--sentence",
     _STAR_SENTENCES[1]),
    ("compile", "--interp", "pell", "--sentence", _STAR_SENTENCES[1],
     "--output", "out.sexp"),
    ("compile", "--interp", "divisibility", "--sentence",
     _DIVISIBILITY_SENTENCES[0], "--output", "out.sexp"),
    ("compile", "--interp", "pell", "--sentence", _STAR_SENTENCES[0],
     "--output", "missing/out.sexp"),
    ("synth", "--family", "phi", "-r", "1", "-p", "5",
     "--formula-out", "phi.sexp"),
    ("synth", "--family", "theta", "-n", "3", "-p", "7",
     "--formula-out", "theta.sexp"),
    ("synth", "--family", "beta", "--base", "t + 1", "-r", "1", "-p", "3",
     "-o", "witness.txt", "--formula-out", "beta.sexp"),
)


def argvs() -> list:
    """The command lines the digest file pins, in its order."""
    demos = sorted(f"demos/{path.name}" for path in (ROOT / "demos").glob("*.py"))
    return (_pell_argvs() + _buchi_argvs() + _synth_argvs() + _e2e_argvs()
            + _compile_argvs() + _check_argvs() + _newton_bivar_argvs()
            + _wide_prime_argvs() + list(_FILE_ARGVS) + [("demo",)]
            + [(name,) for name in demos])


def run_argv(argv) -> tuple[int, str]:
    """(exit code, digest field) of one pinned command line."""
    if argv[0].startswith("demos/"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / argv[0])], capture_output=True,
            timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        written = sorted(path for path in Path().rglob("*") if path.is_file())
        files = [f"+{path.as_posix()}:"
                 f"{hashlib.sha256(path.read_bytes()).hexdigest()}"
                 for path in written]
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return code, digest + "".join(files)


def _pinned() -> list:
    lines = DIGEST_FILE.read_text().splitlines()
    return [(json.loads(argv), int(code), digest)
            for code, digest, argv in (ln.split(" ", 2) for ln in lines)]


def test_digest_file_lists_the_command_lines():
    assert [tuple(argv) for argv, _, _ in _pinned()] == argvs()


@pytest.mark.parametrize("argv, code, digest", [
    pytest.param(*line, id=" ".join(line[0])) for line in _pinned()])
def test_stdout_matches_digest(argv, code, digest):
    assert run_argv(argv) == (code, digest)


if __name__ == "__main__":
    for argv in argvs():
        code, digest = run_argv(argv)
        print(code, digest, json.dumps(argv))
