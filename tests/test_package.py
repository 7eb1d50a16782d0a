"""The package namespace: every public name loads from its module on
first use, and ``import goedel_logics`` alone loads none of them."""

import importlib

import pytest

import goedel_logics

# the names the package exports, by the module that defines them
EXPORTED = {
    "formula": """App Atom Bot And Or Imp Forall Exists Formula Neg Term Top Var
        alpha_eq free_vars is_crisp is_prenex normalize parse parse_term
        print_formula print_term signature substitute""",
    "goedelset": """Cantor Classification GoedelSet Interval Point SeqDown SeqUp
        cb_kernel classify embed_into_perfect finite_elements make_set gm_values
        member parse_set print_set sample_finite saturate_above_kernel_inf
        unit_interval v_down v_m v_up""",
    "semantics": """ConstTail FiniteInterpretation Harmonic OmegaInterpretation
        entails_bruteforce eval_omega evaluate lift_w load_interpretation
        dump_interpretation map_h one_entails_bruteforce saturate_transfer value_set""",
    "decide": "decide_Gm decide_LC",
    "proofkit": """Builder CheckResult Derivation Step check format_derivation
        match_axiom parse_derivation soundness_sample""",
    "herbrand": """Certificate HerbrandProblem certificate_from_json prove_prenex
        reassemble verify_certificate verify_trace""",
    "transforms": """InadmissibleShiftError ReductionOutput forall_free_shift
        prenex_crisp prenex_crisp_report relativize_dneg to_Ag to_Ah to_bot_free""",
}


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_each_name_is_its_modules_object(module):
    mod = importlib.import_module(f"goedel_logics.{module}")
    for name in EXPORTED[module].split():
        assert getattr(goedel_logics, name) is getattr(mod, name), name
        assert name in goedel_logics.__all__


def test_star_import_binds_exactly_all():
    ns: dict = {}
    exec("from goedel_logics import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(goedel_logics.__all__)
    assert len(set(goedel_logics.__all__)) == len(goedel_logics.__all__)
    assert ns["GoedelError"] is goedel_logics.formula.GoedelError


def test_every_error_but_the_budget_is_a_goedel_error():
    from goedel_logics.decide import BudgetError
    from goedel_logics.formula import GoedelError
    for module in EXPORTED:
        mod = importlib.import_module(f"goedel_logics.{module}")
        errors = [obj for name, obj in vars(mod).items() if name.endswith("Error")
                  and obj.__module__ == mod.__name__]
        assert errors, module
        for error in errors:
            assert issubclass(error, GoedelError) is (error is not BudgetError), error


def test_unknown_names_raise():
    with pytest.raises(ImportError):
        from goedel_logics import nosuch  # noqa: F401
    with pytest.raises(AttributeError):
        goedel_logics.nosuch


def test_submodules_still_import_by_name():
    from goedel_logics import decide, herbrand, semantics
    assert decide.__name__ == "goedel_logics.decide"
    assert herbrand.BUDGET is decide.BUDGET
    assert semantics is importlib.import_module("goedel_logics.semantics")
    assert goedel_logics.__version__ == "0.1.0"
