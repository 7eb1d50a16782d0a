"""Property tests: LC, decided as G_{n+2}, against the pinned-order walk,
G_m's gap-free walk against the product loop over all of V_m^n, and the
compiled rank programs against the reference tree walk."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from goedel_logics.decide import (
    DecideError, QuantifierError, compile_prop, decide_Gm, decide_LC,
)
from goedel_logics.formula import Atom, Bot, And, Or, Imp, atoms, parse, print_formula
from goedel_logics.goedelset import gm_values
from helpers import eval_prop, reference_decide_LC, reference_first_countermodel

LETTERS = [Atom(f"A{i}") for i in range(1, 6)]

formulas = st.recursive(
    st.sampled_from(LETTERS + [Bot()]),
    lambda sub: st.builds(And, sub, sub) | st.builds(Or, sub, sub)
    | st.builds(Imp, sub, sub),
    max_leaves=10)

rank_vectors = st.integers(1, 6).flatmap(lambda top: st.tuples(
    st.just(top), st.lists(st.integers(0, top), min_size=5, max_size=5)))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(formulas)
def test_lc_matches_gm_n_plus_2(f):
    r = decide_LC(f)
    assert r.valid == reference_decide_LC(f).valid
    g = decide_Gm(f, len(atoms(f)) + 2)
    assert (r.countermodel, r.value) == (g.countermodel, g.value)
    if not r.valid:
        assert set(r.countermodel) == set(atoms(f))
        assert all(0 <= v <= 1 for v in r.countermodel.values())
        assert eval_prop(f, r.countermodel) == r.value < 1


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(formulas, st.integers(2, 8))
def test_gm_matches_the_product_oracle(f, m):
    letters = sorted(atoms(f), key=print_formula)
    prog = compile_prop(f, {a: i for i, a in enumerate(letters)})
    found = reference_first_countermodel(prog, m, len(letters))
    r = decide_Gm(f, m)
    if found is None:
        assert r.valid and r.countermodel is None and r.value is None
    else:
        values = gm_values(m)
        assert not r.valid
        assert r.countermodel == {a: values[x] for a, x in zip(letters, found)}
        assert r.value == values[prog(found, m - 1)]


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(formulas, rank_vectors)
def test_compiled_program_matches_eval_prop(f, top_ranks):
    top, ranks = top_ranks
    prog = compile_prop(f, {a: i for i, a in enumerate(LETTERS)})
    valuation = {a: Fraction(r, top) for a, r in zip(LETTERS, ranks)}
    assert Fraction(prog(ranks, top), top) == eval_prop(f, valuation)


@pytest.mark.parametrize("text, error", [
    ("A1 & (forall x. P(x))", QuantifierError),
    ("A1 -> A2", DecideError),  # A2 unassigned
])
def test_compile_rejects_what_eval_prop_rejects(text, error):
    f = parse(text)
    with pytest.raises(error):
        eval_prop(f, {Atom("A1"): Fraction(0)})
    with pytest.raises(error):
        compile_prop(f, {Atom("A1"): 0})
