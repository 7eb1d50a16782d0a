"""Property tests: the rank-compiled entailment search against the
reference search over evaluate, and omega interpretations with constant
tails against finite evaluation."""

import itertools

from hypothesis import example, given, settings, strategies as st

from goedel_logics.formula import (
    App, Atom, Bot, And, Or, Imp, Forall, Exists, Var, free_vars, parse,
)
from goedel_logics.goedelset import finite_elements, unit_interval, v_m
from goedel_logics.semantics import (
    ONE, ConstTail, FiniteInterpretation, OmegaInterpretation,
    _joint_signature, dump_interpretation,
    entails_bruteforce, eval_omega, evaluate, one_entails_bruteforce,
)

from helpers import random_interpretation, reference_entails

# the reference evaluates every interpretation, so instances stay small
SPACE_CAP = 600


def connectives(sub):
    return st.builds(And, sub, sub) | st.builds(Or, sub, sub) | st.builds(Imp, sub, sub)


def closed(formulas):
    """Close a formula by quantifying its free variables."""
    @st.composite
    def close(draw):
        f = draw(formulas)
        for v in sorted(free_vars(f)):
            f = draw(st.sampled_from([Forall, Exists]))(v, f)
        return f
    return close()


terms = st.recursive(st.sampled_from([Var("x"), Var("y"), App("c"), App("d")]),
                     lambda t: st.builds(lambda a: App("f", (a,)), t), max_leaves=3)
atoms = (st.sampled_from([Atom("A"), Atom("B"), Bot()])
         | st.builds(lambda t: Atom("P", (t,)), terms)
         | st.builds(lambda s, t: Atom("R", (s, t)), terms, terms))
quantifiers = st.sampled_from([Forall, Exists])
formulas = closed(st.recursive(
    atoms, lambda sub: connectives(sub)
    | st.builds(lambda q, v, b: q(v, b), quantifiers, st.sampled_from("xy"), sub),
    max_leaves=5))


def reference_space(preds, funcs, m: int, size: int) -> int:
    """The interpretations reference_entails evaluates over universe sizes
    1..size into m truth values."""
    return sum(m ** sum(n ** k for k in preds.values())
               * n ** sum(n ** k for k in funcs.values()) for n in range(1, size + 1))


@settings(max_examples=250, deadline=None, database=None, derandomize=True)
@given(st.lists(formulas, max_size=2), formulas, st.integers(2, 6),
       st.integers(1, 3), st.booleans())
# countermodels of size 2: in the first, the first function table has
# the least one; in the others, a later table beats the first table's,
# the last two where the search evaluates only gap-free points
@example([], parse("forall x. (P(x) -> P(f(x)))"), 3, 2, False)
@example([], parse("forall x. (P(f(x)) -> P(x))"), 2, 2, True)
@example([parse("P(c())")], parse("P(f(c()))"), 5, 2, False)
@example([parse("P(c())")], parse("P(f(c()))"), 6, 2, True)
# the probe finds a countermodel at the largest size, but the least one
# lies at size 1 (the first two) or, at size 2, in a later function table
# than the probe's (the last three: c = u1 and d = u0)
@example([], parse("(forall x. P(x)) | ~(forall x. P(x))"), 3, 3, False)
@example([], parse("P(c()) | ~P(d())"), 3, 3, False)
@example([parse("exists x. R(x, c())")], parse("R(d(), d())"), 3, 3, True)
@example([parse("P(c())")], parse("P(d())"), 3, 2, False)
@example([parse("P(c())")], parse("P(d())"), 3, 2, True)
def test_compiled_search_matches_reference(premises, conclusion, m, size, one):
    V = v_m(m)
    preds, funcs = _joint_signature(premises + [conclusion])
    while size > 1 and reference_space(preds, funcs, m, size) > SPACE_CAP:
        size -= 1
    search = one_entails_bruteforce if one else entails_bruteforce
    got = search(premises, conclusion, V, size)
    want = reference_entails(premises, conclusion, V, size, one)
    assert got.holds == want.holds
    if got.holds:
        return
    assert dump_interpretation(got.countermodel) == dump_interpretation(want.countermodel)
    I = got.countermodel
    I.validate()
    prem = [evaluate(p, I) for p in premises]
    concl = evaluate(conclusion, I)
    if one:
        assert all(v == ONE for v in prem) and concl < ONE
    else:
        assert min(prem, default=ONE) > concl


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(formulas, st.integers(1, 3), st.randoms(use_true_random=False), st.data())
def test_cloning_an_element_keeps_every_value(f, size, rng, data):
    # the fact the entailment probe rests on: a clone of element a, with
    # every table read through the collapse map that sends it to a, gives
    # every closed formula its value, so a countermodel over size elements
    # is one over size + 1
    I = random_interpretation(rng, v_m(5), size, {"A": 0, "B": 0, "P": 1, "R": 2},
                              {"c": 0, "d": 0, "f": 1})
    a = data.draw(st.sampled_from(I.universe))
    universe = I.universe + ("clone",)
    collapse = {**{u: u for u in I.universe}, "clone": a}

    def through(table: dict, arity: int) -> dict:
        return {key: table[tuple(map(collapse.get, key))]
                for key in itertools.product(universe, repeat=arity)}

    J = FiniteInterpretation(
        universe, I.truth_set,
        {p: through(t, len(next(iter(t)))) for p, t in I.predicates.items()},
        {g: through(t, len(next(iter(t)))) for g, t in I.functions.items()})
    J.validate()
    assert evaluate(f, J) == evaluate(f, I)


# one variable name: a nested quantifier rebinds x, so no quantifier body
# over the tail mentions another tail variable, as eval_omega requires
omega_terms = st.sampled_from([Var("x"), App("c")])
omega_formulas = closed(st.recursive(
    st.sampled_from([Atom("A"), Bot()])
    | st.builds(lambda t: Atom("P", (t,)), omega_terms)
    | st.builds(lambda s, t: Atom("R", (s, t)), omega_terms, omega_terms),
    lambda sub: connectives(sub) | st.builds(lambda q, b: q("x", b), quantifiers, sub),
    max_leaves=6))
VALUES = finite_elements(v_m(5))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(omega_formulas, st.integers(1, 2), st.data())
def test_constant_tail_matches_one_tail_element(f, n_prefix, data):
    # every tail element looks alike, so quantifiers over the prefix and
    # the tail see exactly the values of the prefix plus one tail element t
    prefix = tuple(f"u{i}" for i in range(n_prefix))
    universe = prefix + ("t",)
    value = st.sampled_from(VALUES)
    finite = {"A": {(): data.draw(value)},
              "P": {(u,): data.draw(value) for u in universe},
              "R": {(u, w): data.draw(value) for u in universe for w in universe}}
    c = {(): data.draw(st.sampled_from(prefix))}

    def star(key):
        return tuple("*" if u == "t" else u for u in key)

    omega = OmegaInterpretation(
        prefix, unit_interval(),
        {p: {k: v for k, v in t.items() if "t" not in k} for p, t in finite.items()},
        {p: {star(k): ConstTail(v) for k, v in t.items() if "t" in k}
         for p, t in finite.items() if p != "A"},
        {"c": c})
    omega.validate()
    I = FiniteInterpretation(universe, unit_interval(), finite, {"c": c})
    assert eval_omega(f, omega) == evaluate(f, I)
