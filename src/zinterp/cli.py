"""Command-line entry point exposing the whole package.

Subcommands: pell, newton, bivar, buchi, compile, check, synth, e2e,
oracle, demo.  Exit codes: 0 when the requested check verifies (or the
command is pure generation), 1 when a check falsifies, 2 on usage or
input errors, 3 when a feasibility guard or precision bound refuses the
computation.  Every command ends with a machine-readable summary line
prefixed ``#RESULT``; on exits 2 and 3, usage errors included, it reads
``#RESULT <command> status=error code=<exit code>``.  Output is
deterministic: identical invocations produce identical bytes.
"""

import argparse
import sys
from pathlib import Path

from .algebra import FeasibilityError, PrecisionError, format_poly, parse_poly
from .buchi import buchi_generate, buchi_search_oracle
from .formula import (
    LANG_STAR,
    LANG_T,
    LANG_T_SEM,
    bound_vars,
    check_sat,
    eval_qf,
    free_vars,
    parse,
    print_formula,
)
from .harness import (
    FAMILIES,
    check_witness,
    e2e_verify,
    family_formula,
    synth_frob_power,
    synth_ge_p,
    synth_nonzero,
    synth_pair,
    synth_positive_power,
)
from .interp import (
    divisibility_in_star,
    load_bundle,
    pell_interpretation,
    save_bundle,
    translate,
)
from .pell import (
    pell_enumerate_oracle,
    pell_family,
    pell_index_recognize,
    pell_pair,
    pell_verify,
)

CHECK_LANGS = {"t-ring": LANG_T, "t-ring-sem": LANG_T_SEM, "star": LANG_STAR}

DEMO_CASES = (
    ("(exists (n) (= (+ 1 1) n))", {"n": 2}),
    ("(exists (n) (and (| 1 n) (!= n 0)))", {"n": 3}),
)


def _read_text_arg(value: str) -> str:
    """Accept either a file path or literal text for formula-ish arguments."""
    path = Path(value)
    try:
        if path.is_file():
            return path.read_text()
    except OSError:
        pass
    return value


def _add_witness_entry(witness: dict, name: str, value) -> None:
    """Record one witness entry, refusing an empty or a repeated name."""
    if not name:
        raise ValueError("witness entry has an empty name")
    if name in witness:
        raise ValueError(f"witness names {name!r} more than once")
    witness[name] = value


def _parse_poly_witness(text: str, p: int) -> dict:
    """Witness files: one ``name = polynomial`` per line, # comments allowed."""
    witness = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, poly_text = line.partition("=")
        if not sep:
            raise ValueError(f"witness line {lineno} is not 'name = poly': {raw!r}")
        _add_witness_entry(witness, name.strip(),
                           parse_poly(poly_text.strip(), p))
    return witness


def _parse_int_witness(text: str) -> dict:
    """Inline integer witnesses: ``n=2`` pairs joined by commas or spaces."""
    witness = {}
    for chunk in text.replace(",", " ").split():
        name, sep, value = chunk.partition("=")
        if not sep:
            raise ValueError(f"witness entry is not 'name=int': {chunk!r}")
        _add_witness_entry(witness, name, int(value))
    return witness


def _fraction_text(v) -> str:
    return str(int(v)) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _points_text(points) -> str:
    return " ".join(f"({n}, {_fraction_text(v)})" for n, v in points)


# -- pell ----------------------------------------------------------------------

def cmd_pell_gen(args) -> int:
    pair = pell_pair(args.n, args.p)
    print(f"x = {format_poly(pair.x)}, y = {format_poly(pair.y)}")
    print(f"#RESULT pell-gen n={args.n} p={args.p} status=ok")
    return 0


def cmd_pell_verify(args) -> int:
    x = parse_poly(args.x, args.p)
    y = parse_poly(args.y, args.p)
    ok = pell_verify(x, y)
    index_note = ""
    if ok:
        index = pell_index_recognize(x, y)
        if index is not None:
            index_note = f" index={index}"
    print(("verified" if ok else "falsified") + index_note)
    print(f"#RESULT pell-verify p={args.p} status={'ok' if ok else 'fail'}")
    return 0 if ok else 1


def cmd_pell_oracle(args) -> int:
    found = pell_enumerate_oracle(args.p, args.D)
    expected = pell_family(args.p, args.D)
    for x, y in sorted(found, key=lambda s: (s[1].data, s[0].data)):
        print(f"x = {format_poly(x)}, y = {format_poly(y)}")
    match = found == frozenset(expected)
    print(f"solutions: {len(found)}")
    print("family match: " + ("yes" if match else "NO"))
    print(
        f"#RESULT pell-oracle p={args.p} D={args.D} count={len(found)} "
        f"match={'yes' if match else 'no'} status={'ok' if match else 'fail'}"
    )
    return 0 if match else 1


# -- newton ----------------------------------------------------------------------
# The newton and bivar handlers import the analytic layers themselves, so the
# other commands start without loading them.

def cmd_newton_hull(args) -> int:
    from .valued import hull_uncertainty, newton_polygon, parse_series

    h = parse_series(_read_text_arg(args.series))
    polygon = newton_polygon(h)
    print("vertices: " + _points_text(polygon.vertices))
    uncertain = hull_uncertainty(h)
    if uncertain:
        print("uncertain abscissae: " + " ".join(str(n) for n in uncertain))
    print(
        f"#RESULT newton-hull vertices={len(polygon.vertices)} "
        f"uncertain={len(uncertain)} status=ok"
    )
    return 0


def cmd_newton_theta(args) -> int:
    from .valued import format_series, newton_polygon, theta_series

    h = theta_series(args.p, args.n_max, args.q_prec)
    polygon = newton_polygon(h)
    print(format_series(h))
    print("vertices: " + _points_text(polygon.vertices))
    vertex_set = set(polygon.vertices)
    support = [(n, v) for n, v in h.support()]
    missing = [pt for pt in support if (pt[0], pt[1]) not in vertex_set]
    ok = not missing
    if missing:
        print("support points off the hull: " + _points_text(missing))
    print(
        f"#RESULT newton-theta p={args.p} n_max={args.n_max} Q={args.q_prec} "
        f"support={len(support)} status={'ok' if ok else 'fail'}"
    )
    return 0 if ok else 1


def cmd_newton_monomial(args) -> int:
    from .valued import norm_one_monomial, parse_series

    h = parse_series(_read_text_arg(args.series))
    try:
        sign, n = norm_one_monomial(h)
    except (FeasibilityError, PrecisionError):
        raise
    except ValueError as exc:
        print(f"falsified: {exc}")
        print("#RESULT newton-monomial status=fail")
        return 1
    text = f"{'-' if sign < 0 else ''}t^{n}"
    print(f"monomial to precision Q={h.q_prec}: {text}")
    print(f"#RESULT newton-monomial sign={sign} exponent={n} status=ok")
    return 0


# -- bivar ----------------------------------------------------------------------

def cmd_bivar_collapse(args) -> int:
    from .bivar import collapse_diagonal, parse_bipoly
    from .valued import format_series

    f = parse_bipoly(args.poly, args.p, args.bound)
    print(format_series(collapse_diagonal(f)))
    print(f"#RESULT bivar-collapse p={args.p} status=ok")
    return 0


def cmd_bivar_kernel(args) -> int:
    from .bivar import format_bipoly, kernel_factor, parse_bipoly

    f = parse_bipoly(args.poly, args.p, args.bound)
    try:
        g = kernel_factor(f)
    except ValueError as exc:
        print(f"falsified: {exc}")
        print("#RESULT bivar-kernel status=fail")
        return 1
    print(format_bipoly(g))
    print(f"#RESULT bivar-kernel p={args.p} status=ok")
    return 0


def cmd_bivar_hyperbola(args) -> int:
    from .bivar import format_bipoly, from_hyperbola, parse_bipoly, to_hyperbola

    f = parse_bipoly(args.poly, args.p, args.bound)
    g = from_hyperbola(f) if args.inverse else to_hyperbola(f)
    print(format_bipoly(g))
    direction = "from" if args.inverse else "to"
    print(f"#RESULT bivar-hyperbola direction={direction} status=ok")
    return 0


# -- buchi ----------------------------------------------------------------------

def cmd_buchi_gen(args) -> int:
    v = parse_poly(args.v, args.p)
    seq = buchi_generate(v, args.r, args.M, args.p)
    for i, term in enumerate(seq.terms, start=1):
        print(f"u_{i} = {format_poly(term)}")
    print(
        f"#RESULT buchi-gen p={args.p} r={args.r} length={seq.length} "
        f"status={'ok' if seq.valid else 'fail'}"
    )
    return 0 if seq.valid else 1


def cmd_buchi_oracle(args) -> int:
    report = buchi_search_oracle(args.p, args.d)
    print(f"seeds scanned: {report.seeds_scanned}")
    print(f"retained nonconstant families: {len(report.retained)}")
    print(f"constant families: {report.constant_families}")
    for family in report.retained:
        if family.matched:
            print(f"matched: v = {format_poly(family.v)}, r = {family.r}")
        else:
            print(
                f"UNEXPLAINED: u1 = {format_poly(family.u1)}, "
                f"u2 = {format_poly(family.u2)}"
            )
    flagged = len(report.flagged)
    print(
        f"#RESULT buchi-oracle p={args.p} d={args.d} "
        f"scanned={report.seeds_scanned} retained={len(report.retained)} "
        f"constants={report.constant_families} flagged={flagged} "
        f"status={'ok' if flagged == 0 else 'fail'}"
    )
    return 0 if flagged == 0 else 1


# -- compile ----------------------------------------------------------------------

def _resolve_interp(ref: str):
    if ref == "pell":
        return pell_interpretation()
    if ref == "divisibility":
        return divisibility_in_star()
    return load_bundle(ref)


def cmd_compile(args) -> int:
    interp = _resolve_interp(args.interp)
    if args.export:
        path = save_bundle(interp, args.export)
        print(f"bundle written: {path}")
        if not args.sentence:
            print(f"#RESULT compile interp={interp.name} status=ok")
            return 0
    if not args.sentence:
        raise ValueError("compile needs --sentence (or --export DIR)")
    text = _read_text_arg(args.sentence)
    phi = parse(text, interp.source_lang)
    rendered = print_formula(translate(interp, phi))
    if args.output:
        Path(args.output).write_text(rendered + "\n")
        print(f"translated formula written: {args.output}")
    else:
        print(rendered)
    print(f"#RESULT compile interp={interp.name} status=ok")
    return 0


# -- check ----------------------------------------------------------------------

def cmd_check(args) -> int:
    lang = CHECK_LANGS[args.lang]
    phi = parse(_read_text_arg(args.formula), lang)
    if args.witness:
        witness = _parse_poly_witness(_read_text_arg(args.witness), args.p)
        ok = check_sat(phi, witness, args.p)
    else:
        if bound_vars(phi) or free_vars(phi):
            raise ValueError(
                "formula has variables; supply --witness FILE"
            )
        ok = eval_qf(phi, {}, args.p)
    print("verified" if ok else "falsified")
    print(f"#RESULT check p={args.p} status={'ok' if ok else 'fail'}")
    return 0 if ok else 1


# -- synth ----------------------------------------------------------------------

def cmd_synth(args) -> int:
    p = args.p
    family = args.family
    if family == "theta":
        if args.n is None:
            raise ValueError("family theta needs -n INDEX")
        witness = synth_pair(args.n, p)
    elif family == "nu":
        if args.target is None:
            raise ValueError("family nu needs --target POLY")
        witness = synth_nonzero(parse_poly(args.target, p), p)
    elif family == "beta":
        if args.base is None:
            raise ValueError("family beta needs --base POLY")
        witness = synth_ge_p(parse_poly(args.base, p), args.r, p)
    elif family == "phi":
        witness = synth_frob_power(args.r, p)
    else:
        witness = synth_positive_power(args.k, args.r, p)
    ok = check_witness(witness)
    lines = [
        f"{name} = {format_poly(witness.assignment[name])}"
        for name in sorted(witness.assignment)
    ]
    body = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(body)
        print(f"witness written: {args.output}")
    else:
        print(body, end="")
    if args.formula_out:
        Path(args.formula_out).write_text(
            print_formula(family_formula(family)) + "\n"
        )
        print(f"formula written: {args.formula_out}")
    print(
        f"#RESULT synth family={family} p={p} vars={len(witness.assignment)} "
        f"status={'ok' if ok else 'fail'}"
    )
    return 0 if ok else 1


# -- e2e and demo ----------------------------------------------------------------------

def _print_e2e_report(report) -> None:
    for clause in report.clauses:
        values = ",".join(str(v) for v in clause.values)
        status = "ok" if clause.ok else "fail"
        print(f"#RESULT clause kind={clause.kind} values={values} status={status}")
    print("verified" if report.ok else "falsified")


def cmd_e2e(args) -> int:
    sentence = _read_text_arg(args.sentence)
    ints = _parse_int_witness(args.witness)
    report = e2e_verify(sentence, ints, args.p)
    if report.error:
        raise ValueError(report.error)
    print(f"sentence: {report.sentence}")
    print(f"translated: {report.formula_text}")
    _print_e2e_report(report)
    print(
        f"#RESULT e2e p={args.p} clauses={len(report.clauses)} "
        f"status={'ok' if report.ok else 'fail'}"
    )
    return 0 if report.ok else 1


def cmd_demo(args) -> int:
    all_ok = True
    for sentence, ints in DEMO_CASES:
        witness_text = ", ".join(f"{k}={v}" for k, v in ints.items())
        print(f"sentence: {sentence}")
        print(f"witness: {witness_text}")
        texts = []
        for p in (17, 19):
            report = e2e_verify(sentence, ints, p)
            if report.error:
                raise ValueError(report.error)
            texts.append(report.formula_text)
            print(f"over characteristic {p}:")
            _print_e2e_report(report)
            all_ok = all_ok and report.ok
        uniform = texts[0] == texts[1]
        all_ok = all_ok and uniform
        print(f"translated: {texts[0]}")
        print(
            "formula text identical across characteristics: "
            + ("yes" if uniform else "NO")
        )
        print()
    print(f"#RESULT demo status={'ok' if all_ok else 'fail'}")
    return 0 if all_ok else 1


# -- parser ----------------------------------------------------------------------

def _add_pell_oracle_args(sub) -> None:
    sub.add_argument("-p", type=int, required=True, help="characteristic")
    sub.add_argument("-D", type=int, required=True, help="max degree of y")
    sub.set_defaults(handler=cmd_pell_oracle)


def _add_buchi_oracle_args(sub) -> None:
    sub.add_argument("-d", type=int, required=True, help="seed degree bound")
    sub.add_argument("-p", type=int, default=17, help="characteristic (17)")
    sub.set_defaults(handler=cmd_buchi_oracle)


def _result_name(handler) -> str:
    """The name in handler's #RESULT lines: pell-gen for cmd_pell_gen."""
    return handler.__name__[len("cmd_"):].replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end with a #RESULT line too."""

    def error(self, message):
        handler = self.get_default("handler")
        name = _result_name(handler) if handler else self.prog.split()[-1]
        print(f"#RESULT {name} status=error code=2")
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zinterp",
        description="Pell pairs, Newton polygons, square sequences, and a "
        "positive-existential formula compiler over F_p[t].",
    )
    top = parser.add_subparsers(dest="subcommand", required=True)

    pell = top.add_parser("pell", help="Pell pair generation and enumeration")
    pell_sub = pell.add_subparsers(dest="action", required=True)
    gen = pell_sub.add_parser("gen", help="print the n-th solution pair")
    gen.add_argument("-n", type=int, required=True)
    gen.add_argument("-p", type=int, required=True)
    gen.set_defaults(handler=cmd_pell_gen)
    verify = pell_sub.add_parser("verify", help="check a claimed solution pair")
    verify.add_argument("-x", required=True, help="polynomial text")
    verify.add_argument("-y", required=True, help="polynomial text")
    verify.add_argument("-p", type=int, required=True)
    verify.set_defaults(handler=cmd_pell_verify)
    _add_pell_oracle_args(pell_sub.add_parser(
        "oracle", help="enumerate all bounded-degree solutions"))

    newton = top.add_parser("newton", help="Newton polygons of truncated series")
    newton_sub = newton.add_subparsers(dest="action", required=True)
    hull = newton_sub.add_parser("hull", help="lower hull of a series")
    hull.add_argument("--series", required=True, help="series text or file")
    hull.set_defaults(handler=cmd_newton_hull)
    theta = newton_sub.add_parser("theta", help="square-exponent series hull")
    theta.add_argument("-p", type=int, required=True)
    theta.add_argument("--n-max", type=int, required=True)
    theta.add_argument("--q-prec", type=int, required=True)
    theta.set_defaults(handler=cmd_newton_theta)
    monomial = newton_sub.add_parser(
        "monomial", help="read off a norm-one monomial at precision")
    monomial.add_argument("--series", required=True)
    monomial.set_defaults(handler=cmd_newton_monomial)

    bivar = top.add_parser("bivar", help="two-variable truncation debug tools")
    bivar_sub = bivar.add_subparsers(dest="action", required=True)
    for name, handler, extra in (
        ("collapse", cmd_bivar_collapse, False),
        ("kernel", cmd_bivar_kernel, False),
        ("hyperbola", cmd_bivar_hyperbola, True),
    ):
        sub = bivar_sub.add_parser(name)
        sub.add_argument("--poly", required=True, help="bivariate polynomial text")
        sub.add_argument("-p", type=int, required=True)
        sub.add_argument("-D", "--bound", type=int, required=True, dest="bound")
        if extra:
            sub.add_argument("--inverse", action="store_true")
        sub.set_defaults(handler=handler)

    buchi = top.add_parser("buchi", help="square sequences and the seed sweep")
    buchi_sub = buchi.add_subparsers(dest="action", required=True)
    bgen = buchi_sub.add_parser("gen", help="generate a square sequence")
    bgen.add_argument("-v", required=True, help="offset polynomial text")
    bgen.add_argument("-r", type=int, required=True)
    bgen.add_argument("-M", type=int, required=True, help="sequence length")
    bgen.add_argument("-p", type=int, required=True)
    bgen.set_defaults(handler=cmd_buchi_gen)
    _add_buchi_oracle_args(buchi_sub.add_parser(
        "oracle", help="sweep square seed pairs"))

    compile_p = top.add_parser("compile", help="translate a sentence through an interpretation")
    compile_p.add_argument("--interp", required=True,
                           help="bundle directory, or builtin: pell, divisibility")
    compile_p.add_argument("--sentence", help="sentence text or file")
    compile_p.add_argument("--export", help="write the interpretation bundle here")
    compile_p.add_argument("-o", "--output", dest="output")
    compile_p.set_defaults(handler=cmd_compile)

    check = top.add_parser("check", help="evaluate a formula, with or without witness")
    check.add_argument("--formula", required=True, help="formula text or file")
    check.add_argument("--witness", help="witness file: 'name = poly' lines")
    check.add_argument("-p", type=int, required=True)
    check.add_argument("--lang", choices=sorted(CHECK_LANGS), default="t-ring")
    check.set_defaults(handler=cmd_check)

    synth = top.add_parser("synth", help="synthesize a verified witness")
    synth.add_argument("--family", required=True,
                       choices=FAMILIES)
    synth.add_argument("-p", type=int, required=True)
    synth.add_argument("-n", type=int, default=None, help="pair index (theta)")
    synth.add_argument("--target", default=None, help="nonzero target poly (nu)")
    synth.add_argument("--base", default=None, help="base poly (beta)")
    synth.add_argument("-r", type=int, default=1, help="power exponent (beta, phi, psi)")
    synth.add_argument("-k", type=int, default=1, help="positive power (psi)")
    synth.add_argument("-o", "--output", dest="output")
    synth.add_argument("--formula-out", dest="formula_out")
    synth.set_defaults(handler=cmd_synth)

    e2e = top.add_parser("e2e", help="translate and verify clause by clause")
    e2e.add_argument("--sentence", required=True, help="sentence text or file")
    e2e.add_argument("--witness", required=True,
                     help="integer witness: 'n=2, m=3'; a binder that shadows "
                          "n reads n' (its tuple base) when given, else n")
    e2e.add_argument("-p", type=int, required=True)
    e2e.set_defaults(handler=cmd_e2e)

    oracle = top.add_parser("oracle", help="brute-force oracles")
    oracle_sub = oracle.add_subparsers(dest="kind", required=True)
    _add_pell_oracle_args(oracle_sub.add_parser("pell"))
    _add_buchi_oracle_args(oracle_sub.add_parser("buchi"))

    demo = top.add_parser("demo", help="scripted end-to-end pipeline")
    demo.set_defaults(handler=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        code = 3 if isinstance(exc, (FeasibilityError, PrecisionError)) else 2
        print(f"error: {exc}", file=sys.stderr)
        print(f"#RESULT {_result_name(args.handler)} status=error code={code}")
        return code


if __name__ == "__main__":
    sys.exit(main())
