"""Exact arithmetic over F_p[t] and a positive-existential formula compiler.

The package builds up from dense polynomial arithmetic to the pieces that
make integers definable inside polynomial rings: Pell solution pairs and
their identity suite, Newton polygons of truncated series, all-square
sequences, a small first-order formula language with interpretations
between structures, and a harness that synthesizes and checks witnesses
end to end.  Everything is exact; brute-force oracles confirm each family
at desk scale.
"""

from .algebra import (
    FeasibilityError,
    Poly,
    format_poly,
    frob_pow,
    parse_poly,
    poly_compose,
    poly_divrem,
    poly_extgcd,
    poly_shift,
)
from .buchi import buchi_generate, buchi_search_oracle, ge_p_check
from .formula import (
    LANG_D,
    LANG_STAR,
    LANG_T,
    check_sat,
    eval_qf,
    expand,
    parse,
    print_formula,
)
from .harness import (
    Witness,
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
from .interp import (
    Interpretation,
    OpenFormula,
    compose,
    dispatch,
    formula_library,
    load_bundle,
    pell_interpretation,
    save_bundle,
    translate,
    translate_with_trace,
)
from .pell import (
    PellPair,
    pell_add,
    pell_enumerate_oracle,
    pell_index_recognize,
    pell_pair,
    pell_verify,
)

__version__ = "0.1.0"

# The analytic layers load on first access (PEP 562): no compiler or
# oracle command reads them, so a fresh process does not pay for them.
_LAZY = {
    "BiTrunc": "bivar",
    "collapse_diagonal": "bivar",
    "kernel_factor": "bivar",
    "LaurentTrunc": "valued",
    "NewtonPolygon": "valued",
    "newton_polygon": "valued",
    "polygon_sum": "valued",
    "theta_series": "valued",
}

__all__ = [
    "FeasibilityError",
    "Poly",
    "format_poly",
    "frob_pow",
    "parse_poly",
    "poly_compose",
    "poly_divrem",
    "poly_extgcd",
    "poly_shift",
    "buchi_generate",
    "buchi_search_oracle",
    "ge_p_check",
    "LANG_D",
    "LANG_STAR",
    "LANG_T",
    "check_sat",
    "eval_qf",
    "expand",
    "parse",
    "print_formula",
    "Witness",
    "check_witness",
    "e2e_verify",
    "family_formula",
    "relation_instance",
    "synth_frob_power",
    "synth_ge_p",
    "synth_nonzero",
    "synth_pair",
    "synth_positive_power",
    "Interpretation",
    "OpenFormula",
    "compose",
    "dispatch",
    "formula_library",
    "load_bundle",
    "pell_interpretation",
    "save_bundle",
    "translate",
    "translate_with_trace",
    "PellPair",
    "pell_add",
    "pell_enumerate_oracle",
    "pell_index_recognize",
    "pell_pair",
    "pell_verify",
] + list(_LAZY)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
