"""Workbench for first-order Goedel logics.

Exact evaluation over arbitrary truth-value sets, symbolic
classification of those sets into axiomatizability classes, Hilbert
proof checking, propositional decision for G_m and LC, a Herbrand
prover for prenex formulas that decides each level propositionally, and
the fragment-reduction formula transformers.

Each public name below is loaded from its module on first use, so
``import goedel_logics`` loads none of the modules.
"""

import importlib

_EXPORTS = {
    "formula": """App Atom Bot And Or Imp Forall Exists Formula GoedelError Neg
        Term Top Var alpha_eq free_vars is_crisp is_prenex normalize parse
        parse_term print_formula print_term signature substitute""",
    "goedelset": """Cantor Classification GoedelSet Interval Point SeqDown SeqUp
        cb_kernel classify embed_into_perfect finite_elements make_set gm_values
        member parse_set print_set sample_finite saturate_above_kernel_inf
        unit_interval v_down v_m v_up""",
    "semantics": """ConstTail FiniteInterpretation Harmonic OmegaInterpretation
        entails_bruteforce eval_omega evaluate lift_w load_interpretation
        dump_interpretation map_h one_entails_bruteforce saturate_transfer
        value_set""",
    "decide": "decide_Gm decide_LC",
    "proofkit": """Builder CheckResult Derivation Step check format_derivation
        match_axiom parse_derivation soundness_sample""",
    "herbrand": """Certificate HerbrandProblem certificate_from_json prove_prenex
        reassemble verify_certificate verify_trace""",
    "transforms": """InadmissibleShiftError ReductionOutput forall_free_shift
        prenex_crisp prenex_crisp_report relativize_dneg to_Ag to_Ah
        to_bot_free""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
