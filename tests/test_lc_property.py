"""Property tests: the weak-order LC decision against the n+2 reduction."""

from hypothesis import given, settings, strategies as st

from goedel_logics.decide import decide_Gm, decide_LC, eval_prop
from goedel_logics.formula import Atom, Bot, And, Or, Imp, atoms

LETTERS = [Atom(f"A{i}") for i in range(1, 6)]

formulas = st.recursive(
    st.sampled_from(LETTERS + [Bot()]),
    lambda sub: st.builds(And, sub, sub) | st.builds(Or, sub, sub)
    | st.builds(Imp, sub, sub),
    max_leaves=10)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(formulas)
def test_lc_matches_gm_n_plus_2(f):
    r = decide_LC(f)
    assert r.valid == decide_Gm(f, len(atoms(f)) + 2).valid
    if not r.valid:
        assert set(r.countermodel) == set(atoms(f))
        assert all(0 <= v <= 1 for v in r.countermodel.values())
        assert eval_prop(f, r.countermodel) == r.value < 1
