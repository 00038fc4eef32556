"""Tests for the command-line interface: outputs, exit codes, determinism."""

import contextlib
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import zinterp
from zinterp.cli import main
from zinterp.formula import print_formula
from zinterp.interp import char_is


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _Late(Exception):
    pass


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise _Late inside the block once it has run for seconds."""
    def late(signum, frame):
        raise _Late(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, late)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestPellCommands:
    def test_gen_frozen_line(self, capsys):
        code, out, _ = run(capsys, "pell", "gen", "-n", "3", "-p", "5")
        assert code == 0
        assert out.splitlines()[0] == "x = 4*t^3 + 2*t, y = 4*t^2 + 4"
        assert out.splitlines()[1].startswith("#RESULT pell-gen")

    def test_gen_char_two(self, capsys):
        code, out, _ = run(capsys, "pell", "gen", "-n", "1", "-p", "2")
        assert code == 0
        assert out.splitlines()[0] == "x = 0, y = 1"

    def test_gen_at_a_large_prime_within_the_fuzz_alarm(self, capsys):
        """A digit near p = 65537 is built by doubling, not by a table of
        about p steps, so the pair of index 100000 takes seconds."""
        with _deadline(5):
            code, out, _ = run(capsys, "pell", "gen", "-n", "100000",
                               "-p", "65537")
        assert code == 0
        assert out.splitlines()[1].startswith("#RESULT pell-gen")

    def test_gen_modulus_cap_exits_2(self, capsys):
        # 2^61 - 1 is prime, and trial division would take minutes
        with _deadline(5):
            code, out, err = run(capsys, "pell", "gen", "-n", "1",
                                 "-p", "2305843009213693951")
        assert code == 2
        assert out == "#RESULT pell-gen status=error code=2\n"
        assert "at or above the cap 2^32" in err

    @pytest.mark.parametrize("n", ["3000000", "-3000000", "100001"])
    def test_gen_degree_cap_exits_3(self, capsys, n):
        code, out, err = run(capsys, "pell", "gen", "-n", n, "-p", "5")
        assert code == 3
        assert out == "#RESULT pell-gen status=error code=3\n"
        assert "above the cap 100000" in err

    def test_gen_integer_index_limit_exits_3(self, capsys):
        code, out, err = run(capsys, "pell", "gen", "-n", "1001", "-p", "0")
        assert code == 3
        assert out == "#RESULT pell-gen status=error code=3\n"
        assert "above the cap 1000 over Z[t]" in err

    def test_verify_accepts_generated_pair(self, capsys):
        code, out, _ = run(
            capsys, "pell", "verify",
            "-x", "4*t^3 + 2*t", "-y", "4*t^2 + 4", "-p", "5",
        )
        assert code == 0
        assert out.splitlines()[0] == "verified index=3"

    def test_verify_rejects_off_conic(self, capsys):
        code, out, _ = run(capsys, "pell", "verify", "-x", "t", "-y", "t", "-p", "5")
        assert code == 1
        assert "falsified" in out

    def test_oracle_matches_family(self, capsys):
        code, out, _ = run(capsys, "pell", "oracle", "-p", "3", "-D", "1")
        assert code == 0
        assert "solutions: 10" in out
        assert "family match: yes" in out

    def test_oracle_guard_exit(self, capsys):
        code, _, err = run(capsys, "pell", "oracle", "-p", "17", "-D", "10")
        assert code == 3
        assert "error:" in err

    def test_oracle_front_is_same_command(self, capsys):
        _, direct, _ = run(capsys, "pell", "oracle", "-p", "3", "-D", "1")
        _, fronted, _ = run(capsys, "oracle", "pell", "-p", "3", "-D", "1")
        assert direct == fronted

    @pytest.mark.parametrize("p", ["5", "2"])
    def test_oracle_negative_degree_bound_exits_2(self, capsys, p):
        code, out, err = run(capsys, "pell", "oracle", "-p", p, "-D", "-1")
        assert code == 2
        assert out == "#RESULT pell-oracle status=error code=2\n"
        assert "degree bound on y must be nonnegative, got -1" in err


    # The cap is decided before p^(D+1), a number of about D digits, is formed.
    @pytest.mark.parametrize("spelling", [("pell", "oracle"), ("oracle", "pell")])
    @pytest.mark.parametrize("p", ["2", "3", "5"])
    @pytest.mark.parametrize("bound", ["1000000", "100000000"])
    def test_oracle_huge_degree_bound_exits_3(self, capsys, spelling, p, bound):
        with _deadline(10):
            code, out, err = run(capsys, *spelling, "-p", p, "-D", bound)
        assert code == 3
        assert out == "#RESULT pell-oracle status=error code=3\n"
        assert f"degree bound {bound} at p = {p} exceeds the sweep limit" in err

    # The cap estimates the sweep's work; these once ran for 3.8 to 32.5 s.
    @pytest.mark.parametrize("spelling", [("pell", "oracle"), ("oracle", "pell")])
    @pytest.mark.parametrize("p, bound", [("3", "11"), ("5", "9"), ("3", "13")])
    def test_oracle_slow_sweep_exits_3(self, capsys, spelling, p, bound):
        with _deadline(1):
            code, out, err = run(capsys, *spelling, "-p", p, "-D", bound)
        assert code == 3
        assert out == "#RESULT pell-oracle status=error code=3\n"
        assert f"degree bound {bound} at p = {p} exceeds the sweep limit" in err

    # The modulus is checked before the sweep's work is estimated.
    @pytest.mark.parametrize("spelling", [("pell", "oracle"), ("oracle", "pell")])
    def test_oracle_composite_modulus_exits_2(self, capsys, spelling):
        code, out, err = run(capsys, *spelling, "-p", "1000", "-D", "0")
        assert code == 2
        assert out == "#RESULT pell-oracle status=error code=2\n"
        assert "modulus must be 0 (integers) or a prime, got 1000" in err

    @pytest.mark.parametrize("argv", [
        ("pell", "gen", "-n", "1", "-p", "2"),
        ("pell", "verify", "-x", "0", "-y", "1", "-p", "2"),
        ("pell", "oracle", "-p", "2", "-D", "1"),
        ("oracle", "pell", "-p", "2", "-D", "1"),
    ])
    def test_char2_flag_is_gone(self, capsys, argv):
        # The form follows from -p alone, so there is no flag to repeat it.
        assert run(capsys, *argv)[0] == 0
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--char2"])
        assert excinfo.value.code == 2
        # argparse refuses unrecognized arguments at the top level
        assert capsys.readouterr().out == "#RESULT zinterp status=error code=2\n"

    def test_verify_integer_product_cap_exits_3(self, capsys):
        dense = " + ".join(f"{k % 7 + 1}*t^{k}" for k in range(3000))
        with _deadline(5):
            code, out, err = run(capsys, "pell", "verify", "-x", dense,
                                 "-y", dense, "-p", "0")
        assert code == 3
        assert out == "#RESULT pell-verify status=error code=3\n"
        assert "a product of 3000 by 3000 coefficients over Z[t]" in err

    def test_verify_exponent_cap_exits_2(self, capsys):
        code, out, err = run(
            capsys, "pell", "verify", "-x", "t^100000000", "-y", "1", "-p", "5",
        )
        assert code == 2
        assert out == "#RESULT pell-verify status=error code=2\n"
        assert "exponent 100000000 is above the cap 100000" in err


class TestNewtonCommands:
    def test_hull_vertices(self, capsys):
        code, out, _ = run(
            capsys, "newton", "hull",
            "--series", "{0: 1, 1: q^2, 2: q} @ p=5 Q=10",
        )
        assert code == 0
        assert out.splitlines()[0] == "vertices: (0, 0) (2, 1)"

    def test_theta_support_on_hull(self, capsys):
        code, out, _ = run(
            capsys, "newton", "theta", "-p", "5", "--n-max", "4", "--q-prec", "20",
        )
        assert code == 0
        assert "vertices: (1, 1) (2, 4) (3, 9) (4, 16)" in out

    def test_hull_exponent_cap_exits_2(self, capsys):
        code, out, err = run(
            capsys, "newton", "hull",
            "--series", "{0: 1, 100000000000: q} @ p=5 Q=40",
        )
        assert code == 2
        assert out == "#RESULT newton-hull status=error code=2\n"
        assert "exponent 100000000000 is above the cap 100000" in err

    def test_hull_of_the_zero_series_exits_2(self, capsys):
        code, out, err = run(capsys, "newton", "hull", "--series", "{} @ p=5 Q=1")
        assert code == 2
        assert out == "#RESULT newton-hull status=error code=2\n"
        assert "the series is zero" in err
        # zero only at precision is a precision limit, not an input error
        code, out, err = run(
            capsys, "newton", "hull", "--series", "{0: 0?} @ p=5 Q=1")
        assert code == 3
        assert out == "#RESULT newton-hull status=error code=3\n"
        assert "no visible support at this precision" in err

    @pytest.mark.parametrize("meta, key", [
        ("p=5 Q=3 p=7", "'p' appears twice"),
        ("p=5 Q=3 Q=9 junk", "'Q' appears twice"),
        ("p=5 Q=3 junk", "'junk'"),
        ("p=5 Q=3 open=sideways", "'open' is 'sideways'"),
    ])
    def test_hull_malformed_metadata_exits_2(self, capsys, meta, key):
        code, out, err = run(capsys, "newton", "hull",
                             "--series", f"{{0: 1, 2: q}} @ {meta}")
        assert code == 2
        assert out == "#RESULT newton-hull status=error code=2\n"
        assert key in err

    @pytest.mark.parametrize("n_max, q_prec", [
        ("100000000", "10"),  # n_max itself
        ("100000", "1000000000000"),  # the largest q-exponent, q^(n^2)
    ])
    def test_theta_cap_exits_3(self, capsys, n_max, q_prec):
        code, out, err = run(
            capsys, "newton", "theta", "-p", "5",
            "--n-max", n_max, "--q-prec", q_prec,
        )
        assert code == 3
        assert out == "#RESULT newton-theta status=error code=3\n"
        assert "above the cap 100000" in err

    def test_monomial_reads_off(self, capsys):
        code, out, _ = run(
            capsys, "newton", "monomial", "--series", "{3: q^0} @ p=5 Q=10",
        )
        assert code == 0
        assert "sign=1 exponent=3" in out

    def test_monomial_rejects_non_unit(self, capsys):
        code, out, _ = run(
            capsys, "newton", "monomial",
            "--series", "{0: 1, 3: q^0} @ p=5 Q=10",
        )
        assert code == 1
        assert "falsified" in out

    def test_monomial_precision_error_is_inconclusive(self, capsys):
        code, out, err = run(
            capsys, "newton", "monomial",
            "--series", "{3: 1 + q^5} @ p=2 Q=10",
        )
        assert code == 3
        assert "falsified" not in out
        assert "error: inconclusive" in err


    def test_monomial_open_ends_on_opposite_sides_exit_3(self, capsys):
        # t^3 + t^2 agrees with the series, and times its reflection is not 1
        code, out, err = run(capsys, "newton", "monomial",
                             "--series", "{3: 1} @ p=5 Q=2 open=lo")
        assert code == 3
        assert out == "#RESULT newton-monomial status=error code=3\n"
        assert "open ends on opposite sides" in err

    def test_monomial_series_product_cap_exits_3(self, capsys):
        # h times its reflection would pack 400,001 slots of 3
        with _deadline(5):
            code, out, err = run(
                capsys, "newton", "monomial",
                "--series", "{-100000: 1, 100000: 1} @ p=5 Q=1",
            )
        assert code == 3
        assert out == "#RESULT newton-monomial status=error code=3\n"
        assert "above the cap 200002" in err

    def test_monomial_sparse_series_at_the_window_cap(self, capsys):
        # 1,024 window coefficients, two nonzero: all 1,024 are packed
        with _deadline(5):
            code, out, _ = run(capsys, "newton", "monomial",
                               "--series", "{-512: 1, 511: 1} @ p=5 Q=1")
        assert code == 1
        assert "falsified" in out

    @pytest.mark.parametrize("entries, q_prec, code", [
        # a dense window at Q = 1: 2n - 1 slots of 3, at most 200,002
        ([f"{n}: 1" for n in range(33334)], 1, 1),
        ([f"{n}: 1" for n in range(33335)], 1, 3),
        # 16 coefficients of q^top: 31 slots of 4top + 3
        ([f"{n}: q^1612" for n in range(16)], 100000, 1),
        ([f"{n}: q^1613" for n in range(16)], 100000, 3),
        ([f"{n}: q^99999" for n in range(16)], 100000, 3),
        # past the former pair and q-term caps, within this one
        ([f"{n}: {n % 4 + 1} + q" for n in range(257)], 4, 1),
        ([f"{n}: q^181" for n in range(16)], 100000, 1),
        # sparse, but all 2,001 slots of the window, 163 wide, are packed
        (["0: q^40", "1000: q^40"], 100000, 3),
    ], ids=["dense-edge", "dense-past", "long-edge", "long-past", "long-huge",
            "dense-257", "long-181", "sparse-long"])
    def test_monomial_at_the_packed_cap(self, capsys, entries, q_prec, code):
        series = f"{{{', '.join(entries)}}} @ p=5 Q={q_prec}"
        with _deadline(5):
            got, out, err = run(capsys, "newton", "monomial",
                                "--series", series)
        assert got == code
        if code == 3:
            assert out == "#RESULT newton-monomial status=error code=3\n"
            assert "above the cap 200002" in err
        else:
            assert "falsified" in out


class TestBivarCommands:
    def test_kernel_factor(self, capsys):
        code, out, _ = run(
            capsys, "bivar", "kernel", "--poly", "t^2*u - t", "-p", "5", "-D", "3",
        )
        assert code == 0
        assert out.splitlines()[0] == "t"

    def test_kernel_refuses_non_multiple(self, capsys):
        code, out, _ = run(
            capsys, "bivar", "kernel", "--poly", "t + 1", "-p", "5", "-D", "3",
        )
        assert code == 1

    def test_hyperbola_roundtrip(self, capsys):
        _, fwd, _ = run(
            capsys, "bivar", "hyperbola", "--poly", "t*u", "-p", "5", "-D", "4",
        )
        image = fwd.splitlines()[0]
        _, back, _ = run(
            capsys, "bivar", "hyperbola", "--poly", image, "-p", "5", "-D", "4",
            "--inverse",
        )
        assert back.splitlines()[0] == "t*u"


    # Bounds within the cap: kernel and hyperbola work grows with the
    # input's support and the exponents' digits, not with bound^2 or m*n.
    @pytest.mark.parametrize("argv, first", [
        (("kernel", "--poly", "t*u-1"), "1"),
        (("hyperbola", "--poly", "t^50000*u^50000"),
         "t^100000 + 4*t^93750*u^6250 + 2*t^68750*u^31250"
         " + 3*t^62500*u^37500 + 3*t^37500*u^62500 + 2*t^31250*u^68750"
         " + 4*t^6250*u^93750 + u^100000"),
    ])
    def test_large_bound_within_time_limit(self, argv, first):
        src = str(Path(zinterp.__file__).resolve().parents[1])
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys; from zinterp.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "bivar", *argv, "-p", "5", "-D", "100000"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.splitlines()[0] == first

    def test_degree_bound_cap_exits_3(self, capsys):
        code, out, err = run(
            capsys, "bivar", "collapse", "--poly", "t*u - 1", "-p", "5",
            "-D", "100000000",
        )
        assert code == 3
        assert out == "#RESULT bivar-collapse status=error code=3\n"
        assert "degree bound 100000000 is above the cap 100000" in err

    def test_exponent_cap_exits_2(self, capsys):
        code, out, err = run(
            capsys, "bivar", "collapse", "--poly", "t^100000000*u", "-p", "5",
            "-D", "10",
        )
        assert code == 2
        assert out == "#RESULT bivar-collapse status=error code=2\n"
        assert "exponent 100000000 is above the cap 100000" in err


class TestBuchiCommands:
    def test_gen_valid_sequence(self, capsys):
        code, out, _ = run(
            capsys, "buchi", "gen", "-v", "t", "-r", "1", "-M", "5", "-p", "5",
        )
        assert code == 0
        assert out.splitlines()[0] == "u_1 = t^6 + t^5 + t + 1"
        assert "status=ok" in out.splitlines()[-1]

    def test_gen_rejects_bad_length(self, capsys):
        for length in ("0", "-3"):
            code, out, err = run(
                capsys, "buchi", "gen", "-v", "t", "-r", "1", "-M", length,
                "-p", "5",
            )
            assert code == 2, length
            assert out == "#RESULT buchi-gen status=error code=2\n"
            assert "length must be at least 1" in err

    @pytest.mark.parametrize("r, length, cap", [
        ("9", "3", "the cap 100000"),
        ("0", "100000000", "the cap 100000"),
        # 100,000 terms of 83,523 coefficients each, about 8.4 GB
        ("4", "100000", "the size cap 524288"),
    ], ids=["frobenius-scale", "length", "size"])
    def test_gen_degree_cap_exits_3(self, capsys, r, length, cap):
        with _deadline(5):
            code, out, err = run(
                capsys, "buchi", "gen", "-v", "t", "-r", r, "-M", length,
                "-p", "17",
            )
        assert code == 3
        assert out == "#RESULT buchi-gen status=error code=3\n"
        assert f"above {cap}" in err

    def test_gen_at_the_size_cap_within_the_fuzz_alarm(self, capsys):
        # 64 * (8,191 + 1) * deg(t + 1) = 2^19, the size cap exactly; one
        # more term is refused
        with _deadline(5):
            code, out, _ = run(
                capsys, "buchi", "gen", "-v", "t + 1", "-r", "1", "-M", "64",
                "-p", "8191",
            )
        assert code == 0
        assert out.splitlines()[-1] \
            == "#RESULT buchi-gen p=8191 r=1 length=64 status=ok"
        code, out, _ = run(capsys, "buchi", "gen", "-v", "t + 1", "-r", "1",
                           "-M", "65", "-p", "8191")
        assert code == 3

    def test_oracle_degree_zero_sweep(self, capsys):
        code, out, _ = run(capsys, "buchi", "oracle", "-d", "0")
        assert code == 0
        assert "seeds scanned: 289" in out
        assert "constant families: 17" in out
        assert "flagged=0" in out

    def test_oracle_negative_degree_bound_exits_2(self, capsys):
        code, out, err = run(capsys, "buchi", "oracle", "-d", "-1")
        assert code == 2
        assert out == "#RESULT buchi-oracle status=error code=2\n"
        assert "seed degree bound must be nonnegative, got -1" in err


class TestCompileCommand:
    def test_builtin_translation(self, capsys):
        code, out, _ = run(
            capsys, "compile", "--interp", "pell",
            "--sentence", "(exists (n) (= n 0))",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("(exists (n.1 n.2)")

    def test_bundle_roundtrip(self, capsys, tmp_path):
        bundle = tmp_path / "bundle"
        sentence = "(exists (n) (= n 0))"
        code, _, _ = run(
            capsys, "compile", "--interp", "pell", "--export", str(bundle),
        )
        assert code == 0
        _, direct, _ = run(capsys, "compile", "--interp", "pell", "--sentence", sentence)
        _, loaded, _ = run(
            capsys, "compile", "--interp", str(bundle), "--sentence", sentence,
        )
        assert direct.splitlines()[0] == loaded.splitlines()[0]

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "translated.sexp"
        code, _, _ = run(
            capsys, "compile", "--interp", "pell",
            "--sentence", "(exists (n) (= n 0))", "-o", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().startswith("(exists (n.1 n.2)")

    def test_sentence_required_without_export(self, capsys):
        code, _, err = run(capsys, "compile", "--interp", "pell")
        assert code == 2
        assert "sentence" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.clear(), "manifest has no key 'name'"),
        (lambda m: m.update(dim="2"), "manifest.dim is str, not int"),
    ])
    def test_malformed_manifest_exits_2(self, capsys, tmp_path, edit,
                                        message):
        bundle = tmp_path / "bundle"
        run(capsys, "compile", "--interp", "pell", "--export", str(bundle))
        manifest = json.loads((bundle / "manifest.json").read_text())
        edit(manifest)
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        code, out, err = run(capsys, "compile", "--interp", str(bundle),
                             "--sentence", "(exists (n) (= n 0))")
        assert code == 2
        assert out == "#RESULT compile status=error code=2\n"
        assert message in err

    def test_missing_bundle(self, capsys):
        code, _, _ = run(
            capsys, "compile", "--interp", "/nonexistent/bundle",
            "--sentence", "(exists (n) (= n 0))",
        )
        assert code == 2


class TestCheckCommand:
    def test_char_formula_false_in_other_characteristic(self, capsys, tmp_path):
        path = tmp_path / "kappa5.sexp"
        path.write_text(print_formula(char_is(5)) + "\n")
        code, out, _ = run(capsys, "check", "--formula", str(path), "-p", "7")
        assert code == 1
        assert "falsified" in out
        code, out, _ = run(capsys, "check", "--formula", str(path), "-p", "5")
        assert code == 0
        assert "verified" in out

    def test_quantified_needs_witness(self, capsys):
        code, _, err = run(
            capsys, "check", "--formula", "(exists (x) (= x 0))", "-p", "5",
        )
        assert code == 2
        assert "witness" in err

    @pytest.mark.parametrize("witness", [(), ("--witness", "x = t")],
                             ids=["bare", "witness"])
    def test_free_variable_is_not_closed(self, capsys, witness):
        code, out, err = run(capsys, "check", "--formula",
                             "(= (* x x) (* t t))", *witness, "-p", "5")
        assert (code, out) == (2, "#RESULT check status=error code=2\n")
        assert "not closed" in err

    def test_witness_file(self, capsys, tmp_path):
        witness = tmp_path / "w.txt"
        witness.write_text("x = t^2\n# comment line\ny = [0,0,1]\n")
        code, out, _ = run(
            capsys, "check",
            "--formula", "(exists (x y) (= x y))",
            "--witness", str(witness), "-p", "5",
        )
        assert code == 0
        assert "verified" in out

    @pytest.mark.parametrize("text, message", [
        ("x = t\nx = 1\n", "error: witness names 'x' more than once\n"),
        ("x = t\n = 1\n", "error: witness entry has an empty name\n"),
    ], ids=["repeated", "empty"])
    def test_witness_file_names_each_variable_once(self, capsys, tmp_path,
                                                   text, message):
        witness = tmp_path / "w.txt"
        witness.write_text(text)
        code, out, err = run(
            capsys, "check", "--formula", "(exists (x) (= x t))",
            "--witness", str(witness), "-p", "5",
        )
        assert (code, out, err) == (
            2, "#RESULT check status=error code=2\n", message)

    @pytest.mark.parametrize("text", [
        "(and " * 1200 + "(= 0 0)" + ")" * 1200,
        "(= " + "(+ 1 " * 1200 + "0" + ")" * 1200 + " 0)",
    ], ids=["and-chain", "term-chain"])
    def test_deep_nesting_exits_2(self, capsys, text):
        code, out, err = run(capsys, "check", "-p", "5", "--formula", text)
        assert code == 2
        assert out == "#RESULT check status=error code=2\n"
        assert "nesting deeper than" in err

    @pytest.mark.parametrize("formula, code", [
        ("(exists (x) (= (* x x) (* x x)))", 0),
        ("(exists (x) (= (* (* x x) (* x x)) (* (* x x) (* x x))))", 3),
    ], ids=["square", "fourth-power"])
    def test_products_at_the_degree_cap(self, capsys, formula, code):
        with _deadline(5):
            got, out, err = run(capsys, "check", "--formula", formula,
                                "--witness", "x = t^100000", "-p", "17")
        assert got == code
        if code:
            assert out == "#RESULT check status=error code=3\n"
            assert "degree 400000, above the cap 200002" in err
        else:
            assert "verified" in out


class TestSynthCommand:
    def test_theta_feeds_check(self, capsys, tmp_path):
        witness = tmp_path / "w.txt"
        formula = tmp_path / "f.sexp"
        code, out, _ = run(
            capsys, "synth", "--family", "theta", "-n", "2", "-p", "17",
            "-o", str(witness), "--formula-out", str(formula),
        )
        assert code == 0
        assert "status=ok" in out
        code, out, _ = run(
            capsys, "check", "--formula", str(formula),
            "--witness", str(witness), "-p", "17",
        )
        assert code == 0

    def test_all_families_verify(self, capsys):
        invocations = (
            ("synth", "--family", "nu", "--target", "t^2 + 1", "-p", "5"),
            ("synth", "--family", "beta", "--base", "t + 1", "-r", "1", "-p", "17"),
            ("synth", "--family", "phi", "-r", "2", "-p", "5"),
            ("synth", "--family", "psi", "-k", "3", "-r", "1", "-p", "5"),
            ("synth", "--family", "theta", "-n", "-4", "-p", "17"),
        )
        for argv in invocations:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            assert "status=ok" in out

    def test_nonzero_refuses_the_integers_by_name(self, capsys):
        code, out, err = run(capsys, "synth", "--family", "nu",
                             "--target", "t", "-p", "0")
        assert code == 2
        assert out == "#RESULT synth status=error code=2\n"
        assert err == ("error: the nonzero witness needs a prime modulus, "
                       "got p = 0\n")

    def test_positive_power_checks_the_characteristic_first(self, capsys):
        code, out, err = run(capsys, "synth", "--family", "psi",
                             "-k", "1", "-r", "1", "-p", "0")
        assert code == 2
        assert out == "#RESULT synth status=error code=2\n"
        assert err == "error: odd characteristic required\n"

    def test_missing_family_argument(self, capsys):
        code, _, err = run(capsys, "synth", "--family", "nu", "-p", "5")
        assert code == 2
        assert "target" in err

    @pytest.mark.parametrize("argv", [
        ("--family", "phi", "-r", "5", "-p", "17"),
        ("--family", "phi", "-r", "1000000000", "-p", "3"),
        ("--family", "psi", "-k", "3", "-r", "9", "-p", "5"),
        ("--family", "beta", "--base", "t + 1", "-r", "5", "-p", "17"),
        ("--family", "beta", "--base", "1", "-r", "1000000000", "-p", "17"),
        ("--family", "theta", "-n", "-1000001", "-p", "17"),
    ], ids=["phi", "phi-huge-r", "psi", "beta", "beta-constant", "theta"])
    def test_degree_cap_exits_3(self, capsys, argv):
        code, out, err = run(capsys, "synth", *argv)
        assert code == 3
        assert out == "#RESULT synth status=error code=3\n"
        assert "above the cap" in err


class TestE2ECommand:
    def test_degree_cap_exits_3(self, capsys):
        code, out, err = run(
            capsys, "e2e", "--sentence", "(exists (a b) (|* a b))",
            "--witness", "a=1,b=1419857", "-p", "17",
        )
        assert code == 3
        assert out == "#RESULT e2e status=error code=3\n"
        assert "above the cap" in err

    def test_verifies_sum(self, capsys):
        code, out, _ = run(
            capsys, "e2e", "--sentence", "(exists (n) (= (+ 1 1) n))",
            "--witness", "n=2", "-p", "17",
        )
        assert code == 0
        assert "verified" in out
        assert out.count("#RESULT clause") == 4

    def test_sentence_from_file(self, capsys, tmp_path):
        path = tmp_path / "s.sexp"
        path.write_text("(exists (n) (and (| 1 n) (!= n 0)))\n")
        code, out, _ = run(
            capsys, "e2e", "--sentence", str(path), "--witness", "n=3", "-p", "19",
        )
        assert code == 0

    def test_wrong_witness_falsifies(self, capsys):
        code, out, _ = run(
            capsys, "e2e", "--sentence", "(exists (n) (= (+ 1 1) n))",
            "--witness", "n=3", "-p", "17",
        )
        assert code == 1
        assert "falsified" in out

    def test_missing_variable_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "e2e", "--sentence", "(exists (n) (= (+ 1 1) n))",
            "--witness", "m=2", "-p", "17",
        )
        assert code == 2

    @pytest.mark.parametrize("witness, message", [
        ("n=3, n=2", "error: witness names 'n' more than once\n"),
        ("=2", "error: witness entry has an empty name\n"),
    ], ids=["repeated", "empty"])
    def test_witness_names_each_variable_once(self, capsys, witness, message):
        code, out, err = run(
            capsys, "e2e", "--sentence", "(exists (n) (= (+ 1 1) n))",
            "--witness", witness, "-p", "17",
        )
        assert (code, out, err) == (
            2, "#RESULT e2e status=error code=2\n", message)

    def test_witness_names_a_shadowing_binder_by_its_base(self, capsys):
        code, out, _ = run(
            capsys, "e2e", "--sentence",
            "(exists (n) (and (= n 1) (exists (n) (= n (+ 1 1)))))",
            "--witness", "n=1, n'=2", "-p", "7",
        )
        assert code == 0
        assert "#RESULT clause kind=+ values=1,1,2 status=ok" in out
        assert out.endswith("verified\n#RESULT e2e p=7 clauses=6 status=ok\n")

    def test_char_two_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "e2e", "--sentence", "(exists (n) (= n 1))",
            "--witness", "n=1", "-p", "2",
        )
        assert code == 2
        assert out == "#RESULT e2e status=error code=2\n"
        assert "the pair domain uses the conic form; p must be odd" in err

    def test_the_integers_are_refused_by_name(self, capsys):
        code, out, err = run(
            capsys, "e2e", "--sentence", "(exists (n) (= n 1))",
            "--witness", "n=1", "-p", "0",
        )
        assert code == 2
        assert out == "#RESULT e2e status=error code=2\n"
        assert err == ("error: the clause witnesses need a prime modulus, "
                       "got 0\n")

    def test_byte_identical_runs(self, capsys):
        argv = (
            "e2e", "--sentence", "(exists (n) (= (+ 1 1) n))",
            "--witness", "n=2", "-p", "17",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestDemoAndUsage:
    def test_demo_passes(self, capsys):
        code, out, _ = run(capsys, "demo")
        assert code == 0
        assert out.count("identical across characteristics: yes") == 2
        assert out.splitlines()[-1] == "#RESULT demo status=ok"

    def test_unknown_subcommand_usage_exit(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["nosuch"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == "#RESULT zinterp status=error code=2\n"

    @pytest.mark.parametrize("argv, name", [
        (("pell", "gen", "-p", "5"), "pell-gen"),
        (("oracle", "buchi", "-d", "x"), "buchi-oracle"),
        (("newton",), "newton"),
    ])
    def test_usage_error_prints_result_line(self, capsys, argv, name):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == f"#RESULT {name} status=error code=2\n"
        assert "usage:" in err

    def test_help_prints_no_result_line(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pell", "gen", "--help"])
        assert excinfo.value.code == 0
        assert "#RESULT" not in capsys.readouterr().out

    @pytest.mark.parametrize("demo", sorted(
        p.name for p in (Path(__file__).resolve().parents[1] / "demos")
        .glob("*.py")))
    def test_demo_script_runs(self, demo):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "demos" / demo)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout

    def test_import_leaves_multiprocessing_out(self):
        # Every sweep runs in-process; importing multiprocessing would only
        # add to the start-up time of every command.
        src = str(Path(zinterp.__file__).resolve().parents[1])
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, zinterp, zinterp.cli; "
             "print('multiprocessing' in sys.modules)"],
            capture_output=True, text=True, check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert probe.stdout == "False\n"

    def test_cold_start_leaves_the_analytic_layers_out(self):
        # The benchmark's set-up probe and a compiler-side command read
        # neither bivar nor valued, nor the bundle codec's json; a fresh
        # process loads them only when a name from them is touched.
        src = str(Path(zinterp.__file__).resolve().parents[1])
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "before = set(sys.modules)\n"
             "import zinterp, zinterp.cli\n"
             "zinterp.pell_interpretation()\n"
             "zinterp.formula_library()\n"
             "zinterp.cli.main(['pell', 'gen', '-n', '3', '-p', '5'])\n"
             "deferred = {'zinterp.bivar', 'zinterp.valued', 'fractions',\n"
             "            'decimal', 'json'}\n"
             "print(sorted(deferred & (set(sys.modules) - before)))\n"
             "zinterp.BiTrunc\n"
             "print('zinterp.bivar' in sys.modules)"],
            capture_output=True, text=True, check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert probe.stdout.splitlines()[-2:] == ["[]", "True"]

    def test_lazy_exports_are_the_submodules_names(self):
        from zinterp import algebra, bivar, valued

        assert valued.PrecisionError is algebra.PrecisionError
        for module, names in (
            (bivar, ("BiTrunc", "collapse_diagonal", "kernel_factor")),
            (valued, ("LaurentTrunc", "NewtonPolygon", "newton_polygon",
                      "polygon_sum", "theta_series")),
        ):
            for name in names:
                assert name in zinterp.__all__
                assert getattr(zinterp, name) is getattr(module, name)
        star = {}
        exec("from zinterp import *", star)
        assert set(zinterp.__all__) <= set(star)
        with pytest.raises(AttributeError, match="no_such_name"):
            zinterp.no_such_name

    def test_runtime_imports_are_standard_library(self):
        # The runtime promises the standard library only; numpy may be
        # installed beside it, so an accidental import would go unnoticed.
        # Modules loaded before zinterp (site hooks) are not its imports.
        src = str(Path(zinterp.__file__).resolve().parents[1])
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "before = set(sys.modules)\n"
             "import zinterp\n"
             "zinterp.pell_enumerate_oracle(5, 2)\n"
             "zinterp.pell_enumerate_oracle(2, 2)\n"
             "zinterp.buchi_search_oracle(17, 0)\n"
             "print(sorted(m for m in set(sys.modules) - before\n"
             "             if m.split('.')[0] not in\n"
             "             {'zinterp', *sys.stdlib_module_names}))"],
            capture_output=True, text=True, check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert probe.stdout == "[]\n"


# -- fuzzed command lines ---------------------------------------------------------

# One valid command line per command, spelling and bivar/synth variant.
_FUZZ_BASES = (
    ("pell", "gen", "-n", "3", "-p", "5"),
    ("pell", "verify", "-x", "4*t^3 + 2*t", "-y", "4*t^2 + 4", "-p", "5"),
    ("pell", "oracle", "-p", "3", "-D", "1"),
    ("oracle", "pell", "-p", "2", "-D", "1"),
    ("newton", "hull", "--series", "{0: 1, 1: q^2, 2: q} @ p=5 Q=10"),
    ("newton", "theta", "-p", "5", "--n-max", "4", "--q-prec", "20"),
    ("newton", "monomial", "--series", "{3: q^0} @ p=5 Q=10"),
    ("bivar", "collapse", "--poly", "t*u - 1", "-p", "5", "-D", "6"),
    ("bivar", "kernel", "--poly", "t*u - 1", "-p", "5", "-D", "6"),
    ("bivar", "hyperbola", "--poly", "t^2*u + 1", "-p", "5", "-D", "6"),
    ("bivar", "hyperbola", "--poly", "t*u", "-p", "2", "-D", "6", "--inverse"),
    ("buchi", "gen", "-v", "t", "-r", "1", "-M", "5", "-p", "5"),
    ("buchi", "oracle", "-d", "0", "-p", "5"),
    ("oracle", "buchi", "-d", "0", "-p", "3"),
    ("compile", "--interp", "pell", "--sentence", "(exists (n) (= n 0))"),
    ("check", "--formula", "(exists (x) (= (* x x) (* t t)))", "-p", "5"),
    ("synth", "--family", "theta", "-n", "3", "-p", "5"),
    ("synth", "--family", "beta", "--base", "t + 1", "-r", "1", "-p", "3"),
    ("e2e", "--sentence", "(exists (a b) (|* a b))", "--witness", "a=1,b=17",
     "-p", "17"),
)
# Fixed command lines at the edge of a cap and one step past it, run after
# the fuzzed ones and never mutated: the Pell oracle's work estimate at p =
# 2, 3 and 5, the degree bound of bivar, theta's n_max and q-exponent, and
# the packed length of monomial's series product.
_CAP_EDGES = (
    ("pell", "oracle", "-p", "2", "-D", "16"),
    ("pell", "oracle", "-p", "2", "-D", "17"),
    ("pell", "oracle", "-p", "3", "-D", "10"),
    ("pell", "oracle", "-p", "3", "-D", "11"),
    ("pell", "oracle", "-p", "5", "-D", "7"),
    ("pell", "oracle", "-p", "5", "-D", "8"),
    ("bivar", "collapse", "--poly", "t*u - 1", "-p", "5", "-D", "100000"),
    ("bivar", "collapse", "--poly", "t*u - 1", "-p", "5", "-D", "100001"),
    ("bivar", "kernel", "--poly", "t*u - 1", "-p", "5", "-D", "100000"),
    ("bivar", "kernel", "--poly", "t*u - 1", "-p", "5", "-D", "100001"),
    ("bivar", "hyperbola", "--poly", "t^50000*u^50000", "-p", "65537",
     "-D", "100000"),
    ("bivar", "hyperbola", "--poly", "t^50000*u^50000", "-p", "65537",
     "-D", "100001"),
    ("newton", "theta", "-p", "5", "--n-max", "100000", "--q-prec", "100000"),
    ("newton", "theta", "-p", "5", "--n-max", "100001", "--q-prec", "100000"),
    ("newton", "theta", "-p", "5", "--n-max", "100000", "--q-prec", "100489"),
    ("newton", "theta", "-p", "5", "--n-max", "100000", "--q-prec", "100490"),
    ("newton", "monomial", "--series",
     "{" + ", ".join(f"{n}: q^1612" for n in range(16)) + "} @ p=5 Q=100000"),
    ("newton", "monomial", "--series",
     "{" + ", ".join(f"{n}: q^1613" for n in range(16)) + "} @ p=5 Q=100000"),
)
_NUMERIC_FLAGS = ("-n", "-p", "-D", "-d", "-r", "-M", "-k", "--n-max",
                  "--q-prec")
# The F_p kernels leave their byte-lane paths between these primes.
_BYTE_LANE_EDGES = ("127", "128", "131", "251", "256", "257")
# -p values: those edges, primes whose base-p digits can be near p, and a
# prime past the modulus cap.
_P_EDGES = _BYTE_LANE_EDGES + ("65537", "100003", "2305843009213693951")
_HUGE = ("1000000", "100000000", "-100000000", str(10 ** 30))
_ODD_NUMBERS = ("0", "1", "2", "4", "-1", "x", "", "1e3")
_ODD_TEXT = ("t^", "t^100000000", "(", ")", "", "t*u*v", "1/0", "t^-1",
             "{0: q} @ p=4 Q=3", "(exists (x) (= x))",
             "a=10000000000000000000000", "[1,2,", "\u00fc")


def _fuzzed_argvs(rng, count: int) -> list:
    """Each base with each numeric value replaced by each huge value (and
    each -p value by each byte-lane edge and large prime), then count bases
    with one to three random edits: a value replaced, a token dropped or a
    flag put in, then the fixed cap edges."""
    out = []
    for base in _FUZZ_BASES:
        for i, tok in enumerate(base):
            if tok in _NUMERIC_FLAGS:
                for v in _HUGE + (_P_EDGES if tok == "-p" else ()):
                    out.append(base[:i + 1] + (v,) + base[i + 2:])
    for _ in range(count):
        argv = list(rng.choice(_FUZZ_BASES))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(argv))
            edit = rng.randrange(4)
            flag = argv[i - 1] if i else ""
            if edit == 0 and flag in _NUMERIC_FLAGS:
                argv[i] = rng.choice(_BYTE_LANE_EDGES + _HUGE + _ODD_NUMBERS)
            elif edit == 1 and flag.startswith("-"):
                argv[i] = rng.choice(_ODD_TEXT)
            elif edit == 2:
                del argv[i]
            else:
                argv.insert(i, rng.choice(_NUMERIC_FLAGS + ("--inverse", "--lang")))
        out.append(tuple(argv))
    return out + list(_CAP_EDGES)


def test_fuzzed_command_lines_exit_with_a_code_and_a_result_line(capsys, rng):
    """A few hundred mutated command lines, run in this process, each under a
    5 s alarm: every one exits 0-3 with no traceback, and exits 2 and 3 print
    their #RESULT error line."""
    faults = []
    for argv in _fuzzed_argvs(rng, 200):
        try:
            with _deadline(5):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
        except Exception as exc:
            capsys.readouterr()
            faults.append((argv, f"{type(exc).__name__}: {exc}"[:200]))
            continue
        out, err = capsys.readouterr()
        if code not in (0, 1, 2, 3) or "Traceback" in err:
            faults.append((argv, code, err[-200:]))
        elif code in (2, 3) and not re.search(
                rf"^#RESULT \S+ status=error code={code}$", out, re.M):
            faults.append((argv, code, "no #RESULT error line"))
    assert not faults


@pytest.mark.parametrize("argv", _CAP_EDGES[1::2], ids=" ".join)
def test_one_step_past_each_cap_edge_exits_3(capsys, argv):
    """_CAP_EDGES pairs each edge with the line one step past it, and the
    second of each pair is refused before any work."""
    with _deadline(1):
        code, out, _ = run(capsys, *argv)
    assert code == 3
    assert out.endswith("status=error code=3\n")
