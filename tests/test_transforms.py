"""Formula reductions: shapes, freshness, and desk-scale semantics."""

import random
from fractions import Fraction as F

import pytest

from goedel_logics.formula import (
    App, Atom, Bot, And, Or, Imp, Forall, Exists, Neg, Var, alpha_eq,
    free_vars, is_crisp, is_prenex, normalize, parse, print_formula,
    signature, subformulas, substitute,
)
from goedel_logics.goedelset import parse_set, unit_interval, v_m, v_down, sample_finite
from goedel_logics.semantics import FiniteInterpretation, evaluate
from goedel_logics.transforms import (
    InadmissibleShiftError, NotClosedError, ShapeError, double_negate_atoms,
    forall_free_shift, prenex_crisp, prenex_crisp_report, relativize_dneg,
    to_Ag, to_Ah, to_bot_free,
)

from helpers import random_closed_formula, random_interpretation


# --- the leveled-ordering reduction ------------------------------------------


def test_ag_output_shape():
    out = to_Ag(parse("forall v. Q1(v)"))
    f = out.formula
    assert not free_vars(f)
    assert isinstance(f, Imp)
    assert isinstance(f.right, Or)
    a_prime = f.right.left
    assert is_crisp(a_prime)
    # the trailing disjunct is exists u P(u)
    tail = f.right.right
    assert isinstance(tail, Exists) and isinstance(tail.body, Atom)
    assert tail.body.pred == "P"


def test_ag_relativizes_and_double_negates():
    out = to_Ag(parse("forall v. Q1(v)"))
    a_prime = out.formula.right.left
    # forall v ((exists w ~~L(w,v)) -> ~~Q1(v))
    assert isinstance(a_prime, Forall)
    body = a_prime.body
    assert isinstance(body, Imp)
    assert isinstance(body.left, Exists)
    assert print_formula(body.right).startswith("~~Q1")


def test_ag_freshness():
    f = parse("forall v. (P(v) & L(v,v))")  # clashes with the fresh names
    out = to_Ag(f)
    preds, funcs = signature(f)
    assert not (set(out.fresh_predicates) & set(preds))
    assert not (set(out.fresh_functions) & set(funcs))
    # output still provides a P-like fresh symbol distinct from the input's P
    assert any(name.startswith("P") and name != "P" for name in out.fresh_predicates)


def test_ag_requires_closed():
    with pytest.raises(NotClosedError):
        to_Ag(parse("Q1(v)"))


def test_ag_desk_scale_instance():
    """A finite-model-false sentence gets antecedent 1 and consequent < 1
    under a hand-built leveled interpretation over a finite piece of the
    harmonic set {1/k}.

    A = forall v Q1(v) fails classically on the level indices {e0, e1}
    with Q1(e1) false.  Level e0 holds the two constants (P-values 1/4
    and 1/2), level e1 holds an element strictly P-between them plus the
    upper constant again (covering the diagonal pairs of the density
    condition), level e2 is empty, and the successor saturates at e2.
    """
    out = to_Ag(parse("forall v. Q1(v)"))
    names = {**out.fresh_predicates, **out.fresh_functions}
    assert set(names) == {"P", "L", "Leq", "zero", "s", "c1", "c2"}
    U = ("e0", "e1", "e2")
    V = parse_set("{0,1/4,1/3,1/2,1}")
    one, zero = F(1), F(0)
    levels = {("e0", "e0"): one, ("e1", "e0"): one,   # level e0 = {e0, e1}
              ("e2", "e1"): one, ("e1", "e1"): one}   # level e1 = {e2, e1}
    order = {("e0", "e0"): one, ("e0", "e1"): one, ("e0", "e2"): one,
             ("e1", "e1"): one, ("e1", "e2"): one, ("e2", "e2"): one}
    import itertools
    preds = {
        "P": {("e0",): F(1, 4), ("e1",): F(1, 2), ("e2",): F(1, 3)},
        "L": {pair: levels.get(pair, zero)
              for pair in itertools.product(U, repeat=2)},
        "Leq": {pair: order.get(pair, zero)
                for pair in itertools.product(U, repeat=2)},
        "Q1": {("e0",): one, ("e1",): zero, ("e2",): one},
    }
    funcs = {
        "zero": {(): "e0"},
        "s": {("e0",): "e1", ("e1",): "e2", ("e2",): "e2"},
        "c1": {(): "e1"},
        "c2": {(): "e0"},
    }
    I = FiniteInterpretation(U, V, preds, funcs)
    I.validate()
    antecedent, consequent = out.formula.left, out.formula.right
    assert evaluate(antecedent, I) == 1
    assert evaluate(consequent, I) == F(1, 2)
    assert evaluate(out.formula, I) < 1


def test_ah_output_shape():
    out = to_Ah(parse("forall v. Q1(v)"))
    f = out.formula
    assert not free_vars(f)
    assert out.fresh_predicates == {"P": 2, "L": 3, "Q": 1, "Leq": 2}
    assert out.fresh_functions == {"zero": 0, "s": 1}
    # consequent has exactly the three disjuncts
    cons = f.right
    assert isinstance(cons, Or) and isinstance(cons.left, Or)
    a_prime, p_part, q_part = cons.left.left, cons.left.right, cons.right
    assert is_crisp(a_prime)
    assert isinstance(p_part, Exists) and isinstance(p_part.body, Exists)
    assert isinstance(q_part, Exists) and isinstance(q_part.body, Atom)


def test_ah_membership_atoms_triple_negated_l():
    out = to_Ah(parse("forall v. Q1(v)"))
    l_atoms = [g for g in subformulas(out.formula)
               if isinstance(g, Atom) and g.pred == "L"]
    assert l_atoms and all(len(a.args) == 3 for a in l_atoms)
    # every L occurrence sits under a double negation
    a_prime = out.formula.right.left.left
    assert is_crisp(a_prime)


# --- bot-free ----------------------------------------------------------------


def test_bot_free_shape():
    out = to_bot_free(parse("~P(c())"))
    assert all(not isinstance(g, Bot) for g in subformulas(out))
    assert isinstance(out, Imp)
    guard, body = out.left, out.right
    assert isinstance(guard, Forall)
    assert print_formula(body) == "P(c()) -> B0"


def test_bot_free_no_predicates_degenerates():
    out = to_bot_free(parse("bot -> bot"))
    assert all(not isinstance(g, Bot) for g in subformulas(out))
    assert print_formula(out) == "B0 -> B0"


def test_bot_free_substituting_back_recovers_value():
    # eval(A, I) == 1 iff eval(A*, I + b := 0) == 1, and in fact the
    # values agree exactly once the guard evaluates to 1
    rng = random.Random(17)
    for _ in range(300):
        f = random_closed_formula(rng, 3)
        out = to_bot_free(f)
        I = random_interpretation(rng, v_m(4), rng.randint(1, 2),
                                  {"A": 0, "B": 0, "P": 1}, {"c": 0})
        preds = dict(I.predicates)
        preds["B0"] = {(): F(0)}
        J = FiniteInterpretation(I.universe, I.truth_set, preds, I.functions)
        assert evaluate(f, I) == evaluate(out, J)


def test_bot_free_output_reparses():
    # the fresh letter is a predicate the parser accepts, renamed on a clash
    for text in ("~P(c())", "bot -> bot", "~(P(c()) & Q(c()))",
                 "forall x. (B0(x) -> bot)"):
        out = to_bot_free(parse(text))
        assert parse(print_formula(out)) == normalize(out)
    assert "B01" in print_formula(to_bot_free(parse("forall x. (B0(x) -> bot)")))


def test_bot_free_guard_order_deterministic():
    out1 = to_bot_free(parse("~(P(c()) & Q(c()))"))
    out2 = to_bot_free(parse("~(Q(c()) & P(c()))"))
    assert print_formula(out1.left) == print_formula(out2.left)


# --- forall-free shift ---------------------------------------------------------


def test_forall_free_shift_basic():
    out = forall_free_shift(parse("(forall x. A(x)) -> B"))
    assert print_formula(out) == "exists x1. A(x1) -> B"


def test_forall_free_shift_prefix():
    out = forall_free_shift(parse("(forall x. forall y. R(x,y)) -> B"))
    assert print_formula(out) == "exists x1. exists x2. R(x1,x2) -> B"
    assert not any(isinstance(g, Forall) for g in subformulas(out))


def test_forall_free_shift_shape_errors():
    with pytest.raises(ShapeError):
        forall_free_shift(parse("A -> B"))
    with pytest.raises(ShapeError):
        forall_free_shift(parse("(forall x. (A(x) & (forall y. B(y)))) -> C"))
    with pytest.raises(ShapeError):
        forall_free_shift(parse("(forall x. A(x)) -> forall y. B(y)"))


def _forall_free(rng, depth, names):
    """A random forall-free formula whose variables come from names."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Bot(), Atom("A"), Atom("P", (Var(rng.choice(names)),)),
                           Atom("R", (Var(rng.choice(names)), App("c")))])
    if rng.random() < 0.25:
        return Exists(rng.choice(names), _forall_free(rng, depth - 1, names))
    op = rng.choice([And, Or, Imp])
    return op(_forall_free(rng, depth - 1, names), _forall_free(rng, depth - 1, names))


def test_forall_free_shift_keeps_free_variables():
    # the consequent's free variables stay free: a bound name that is
    # also free in the consequent must not capture it
    out = forall_free_shift(parse("(forall x. P(x)) -> Q(x)"))
    assert print_formula(out) == "exists x1. P(x1) -> Q(x)"
    for text in ("(forall x. forall y. P(x,y)) -> Q(x)",
                 "(forall x. forall x1. P(x,x1)) -> Q(x)",
                 "(forall x. forall x_1. P(x,x_1)) -> Q(x)"):
        out = forall_free_shift(parse(text))
        assert print_formula(out) == "exists x1. exists x2. P(x1,x2) -> Q(x)", text
    rng = random.Random(41)
    names = ["x", "y", "x1", "x2"]
    for _ in range(3000):
        antecedent = _forall_free(rng, 3, names)
        for _ in range(rng.randint(1, 3)):
            antecedent = Forall(rng.choice(names), antecedent)
        f = Imp(antecedent, _forall_free(rng, 3, names))
        assert free_vars(forall_free_shift(f)) == free_vars(f), print_formula(f)


def test_forall_free_shift_direction_valid_pointwise():
    # exists x (A(x) -> B)  ->  ((forall x A(x)) -> B) everywhere
    rng = random.Random(19)
    shifted = parse("(exists x. (A(x) -> B)) -> ((forall x. A(x)) -> B)")
    for _ in range(200):
        I = random_interpretation(rng, v_m(3), rng.randint(1, 2), {"A": 1, "B": 0})
        assert evaluate(shifted, I) == 1


def test_forall_free_shift_converse_finite_equality_omega_divergence():
    # Over finite universes the antecedent's infimum is attained, which
    # forces pointwise equality of the two sides (brute force confirms:
    # no finite divergence exists at this scale).  Divergence needs a
    # non-attained infimum, witnessed by a harmonic omega tail.
    rng = random.Random(23)
    orig = parse("(forall x. A(x)) -> B")
    shifted = parse("exists x. (A(x) -> B)")
    for _ in range(500):
        I = random_interpretation(rng, v_m(3), rng.randint(1, 2), {"A": 1, "B": 0})
        assert evaluate(orig, I) == evaluate(shifted, I)

    from goedel_logics.semantics import Harmonic, OmegaInterpretation, eval_omega
    I = OmegaInterpretation((), unit_interval(),
                            {"B": {(): F(0)}},
                            {"A": {("*",): Harmonic(F(0), 1, 0)}})
    I.validate()
    assert eval_omega(orig, I) == 1       # inf A = 0 = B, not attained
    assert eval_omega(shifted, I) == 0    # every A(x) -> B collapses to 0


# --- prenexification -----------------------------------------------------------


def test_prenex_admissible_equivalences():
    out, used = prenex_crisp_report(parse("exists x. (A(x) -> forall y. A(y))"))
    assert is_prenex(out)
    assert print_formula(out) == "exists x1. forall x2. A(x1) -> A(x2)"
    assert used == ("consequent-forall",)


def test_prenex_rejects_s3():
    with pytest.raises(InadmissibleShiftError) as e:
        prenex_crisp(parse("(forall x. P(x)) -> Q"))
    assert e.value.shift == "S_3"


def test_prenex_rejects_s2():
    with pytest.raises(InadmissibleShiftError) as e:
        prenex_crisp(parse("Q -> exists x. P(x)"))
    assert e.value.shift == "S_2"


def test_prenex_crisp_shifts_allowed():
    out, used = prenex_crisp_report(parse("~~P(c()) -> exists y. ~~Q(y)"))
    assert is_prenex(out)
    assert used == ("crisp-consequent-exists",)
    out2, used2 = prenex_crisp_report(parse("(forall x. ~~P(x)) -> ~~Q(c())"))
    assert is_prenex(out2)
    assert used2 == ("crisp-antecedent-forall",)


def test_prenex_value_preserved_random():
    # every shift family used is a pointwise equivalence, so values match
    rng = random.Random(29)
    checked = 0
    for _ in range(1000):
        f = random_closed_formula(rng, 3)
        try:
            out = prenex_crisp(f)
        except InadmissibleShiftError:
            continue
        checked += 1
        I = random_interpretation(rng, v_m(4), rng.randint(1, 2),
                                  {"A": 0, "B": 0, "P": 1}, {"c": 0})
        assert is_prenex(out)
        assert evaluate(out, I) == evaluate(f, I)
    assert checked > 200


def test_prenex_nested_connectives():
    out = prenex_crisp(parse("(exists x. P(x)) & (forall y. Q(y))"))
    assert is_prenex(out)
    out2 = prenex_crisp(parse("((exists x. P(x)) -> Q(c())) | (forall z. R(z))"))
    assert is_prenex(out2)


# --- relativization -------------------------------------------------------------


def test_relativize_dneg_crisp():
    rng = random.Random(37)
    guard = lambda v: Exists("w", Neg(Neg(Atom("L", (Var("w"), Var(v))))))
    for _ in range(200):
        f = random_closed_formula(rng, 4)
        out = relativize_dneg(f, guard)
        assert is_crisp(out)


def test_double_negate_atoms():
    out = double_negate_atoms(parse("P(c()) & Q(c())"))
    assert print_formula(out) == "~~P(c()) & ~~Q(c())"


def test_prenex_forall_to_exists_conditional_needs_s3():
    # (forall x P(x)) -> exists y P(y) has no admissible-shift prenex
    # derivation: the antecedent pull is S_3, the consequent pull is S_2,
    # and P is not crisp, so the operation rejects it (the two sides are
    # validity-equivalent, but that is not the operation's contract).
    with pytest.raises(InadmissibleShiftError):
        prenex_crisp(parse("(forall x. P(x)) -> exists y. P(y)"))


def test_crisp_formulas_are_two_valued():
    # crisp formulas only ever take the values 0 and 1, which is what
    # licenses the classical conditional shifts on them
    rng = random.Random(41)
    guard = lambda v: Neg(Neg(Atom("R", (Var(v),))))
    for _ in range(200):
        f = relativize_dneg(random_closed_formula(rng, 3), guard)
        I = random_interpretation(rng, v_m(4), rng.randint(1, 2),
                                  {"A": 0, "B": 0, "P": 1, "R": 1}, {"c": 0})
        assert evaluate(f, I) in (F(0), F(1))
