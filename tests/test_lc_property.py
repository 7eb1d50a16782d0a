"""Property tests: LC, decided as G_{n+2}, against the pinned-order walk,
G_m's gap-free walk against the product loop over all of V_m^n, and the
compiled rank programs against the reference tree walk."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from goedel_logics.decide import (
    DecideError, QuantifierError, compile_prop, decide_Gm, decide_LC,
)
from goedel_logics.formula import (
    BOT, Atom, Bot, And, Or, Imp, Neg, atoms, is_neg, parse, print_formula,
)
from goedel_logics.goedelset import gm_values, v_m
from goedel_logics.herbrand import _Slots
from goedel_logics.semantics import one_entails_bruteforce
from helpers import (
    eval_prop, reference_compile_prop, reference_decide_LC, reference_first_countermodel,
)

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


def _operand(rng, letters, depth):
    # an atom, bot, a negation or a compound formula, equally often
    kind = rng.randrange(4 if depth else 2)
    if kind == 0 and letters:
        return rng.choice(letters)
    if kind < 2:
        return BOT
    if kind == 2:
        return Neg(_operand(rng, letters, depth - 1))
    return rng.choice((And, Or, Imp))(_operand(rng, letters, depth - 1),
                                      _operand(rng, letters, depth - 1))


def _shape(f):
    return "neg" if is_neg(f) else "compound" if isinstance(f, (And, Or, Imp)) else type(f)


def _shapes(f, seen):
    if isinstance(f, (And, Or, Imp)):
        seen.add((type(f), _shape(f.left), _shape(f.right)))
        _shapes(f.left, seen)
        _shapes(f.right, seen)


def test_operand_shapes_match_the_per_node_compiler():
    # compile_prop's closures read atom operands in place; at every point of
    # range(m)^n they give the rank of the per-node compiler and of
    # eval_prop, with atoms looked up by value or, as the prover's slots
    # are, by identity, and 1-entailment, whose search joins the premise's
    # program to the conclusion's, finds the product loop's first point
    rng = random.Random(30)
    seen: set = set()
    for n in range(5):
        letters = [Atom(f"A{j}") for j in range(n)]
        index = {a: j for j, a in enumerate(letters)}
        slots = _Slots()
        slots.by_id.update({id(a): j for a, j in index.items()})
        for m in range(2, 8):
            top, values = m - 1, gm_values(m)
            fs = [_operand(rng, letters, 3) for _ in range(20)]
            for f in fs:
                _shapes(f, seen)
                progs = compile_prop(f, index), compile_prop(f, slots)
                want = reference_compile_prop(f, index)
                for ranks in product(range(m), repeat=n):
                    r = want(ranks, top)
                    assert [p(ranks, top) for p in progs] == [r, r], (print_formula(f), ranks)
                    assert eval_prop(f, dict(zip(letters, map(values.__getitem__, ranks)))) \
                        == values[r]
            for h, g in zip(fs, fs[1:]):
                read = sorted({*atoms(h), *atoms(g)}, key=print_formula)
                at = {a: j for j, a in enumerate(read)}
                rh, rg = reference_compile_prop(h, at), reference_compile_prop(g, at)
                first = next((p for p in product(range(m), repeat=len(read))
                              if rh(p, top) == top and rg(p, top) < top), None)
                res = one_entails_bruteforce([h], g, v_m(m), 1)
                assert res.holds == (first is None)
                if first is not None:
                    assert res.countermodel.predicates == {
                        a.pred: {(): values[x]} for a, x in zip(read, first)}
    assert len(seen) == 3 * 4 * 4  # each connective with every pair of operand shapes


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
