"""Evaluation laws, entailment search, value-map lifting, omega tails."""

import itertools
import json
import random
import re
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from goedel_logics.decide import BudgetError
from goedel_logics.formula import And, Atom, Imp, Or, parse
from goedel_logics.goedelset import (
    Cantor, EmptyKernelError, Interval, SeqDown, SeqUp, finite_elements,
    holds_harmonic_tail, make_set, parse_set, Point, unit_interval, v_down, v_m, v_up,
)
from goedel_logics.semantics import (
    ClosedFormulaRequiredError, ConstTail,
    FiniteInterpretation, Harmonic, OmegaInterpretation, TailRestrictionError,
    TailValueError, entails_bruteforce, eval_omega, evaluate, lift_w,
    load_interpretation, dump_interpretation, map_h, one_entails_bruteforce,
    _certify_tail, saturate_transfer, stable_order, tail_value, value_set,
)

from helpers import (
    pinned_orders, random_closed_formula, random_interpretation, reference_certify_tail,
)

V3 = v_m(3)
V4 = v_m(4)
U01 = unit_interval()


def prop_interp(values: dict[str, F], V=U01) -> FiniteInterpretation:
    return FiniteInterpretation(("u0",), V, {p: {(): v} for p, v in values.items()})


def test_conditional_case_split():
    I = prop_interp({"A": F(3, 10), "B": F(7, 10)})
    assert evaluate(parse("A -> B"), I) == 1
    assert evaluate(parse("B -> A"), I) == F(3, 10)
    assert evaluate(parse("~A"), I) == 0
    assert evaluate(parse("~ ~A"), I) == 1


def test_linearity_valid_over_finite_sets():
    lin = parse("(A -> B) | (B -> A)")
    r = entails_bruteforce([], lin, V4, 1)
    assert r.holds


def test_residuation_exhaustive_v5():
    # (a -> b) equals the largest x in V with min(x, a) <= b, exactly
    values = finite_elements(v_m(5))
    for a in values:
        for b in values:
            I = prop_interp({"A": a, "B": b}, v_m(5))
            got = evaluate(parse("A -> B"), I)
            want = max(x for x in values if min(x, a) <= b)
            assert got == want


def test_quantifiers_min_max():
    I = FiniteInterpretation(("u0", "u1"), U01,
                             {"P": {("u0",): F(1, 3), ("u1",): F(2, 3)}})
    assert evaluate(parse("forall x. P(x)"), I) == F(1, 3)
    assert evaluate(parse("exists x. P(x)"), I) == F(2, 3)


def test_unassigned_symbol_error():
    from goedel_logics.semantics import UnassignedSymbolError
    I = prop_interp({"A": F(1, 2)})
    with pytest.raises(UnassignedSymbolError):
        evaluate(parse("Missing"), I)


def test_entails_modus_ponens_and_closedness():
    r = entails_bruteforce([parse("A"), parse("A -> B")], parse("B"), V3, 1)
    assert r.holds
    with pytest.raises(ClosedFormulaRequiredError):
        entails_bruteforce([parse("A(x)")], parse("A(x)"), V3, 1)


def test_entails_fin3_countermodel_over_v4():
    fin3 = parse("(top -> A1) | (A1 -> A2) | (A2 -> bot)")
    assert entails_bruteforce([], fin3, V3, 1).holds
    r = entails_bruteforce([], fin3, V4, 1)
    assert not r.holds
    assert evaluate(fin3, r.countermodel) < 1


def test_budget_error():
    # a conclusion that holds at every size: its 2,187 function tables of
    # size 3 pass the budget
    f = parse("P(f(g(c()))) | Q(c(),c())")
    with pytest.raises(BudgetError, match="universe size 3, function table"):
        entails_bruteforce([], Imp(f, f), V4, 3, budget=1000)


def test_budget_error_before_counting_huge_universes():
    # each size is charged its slots before its atoms are indexed, so a
    # conclusion that holds at every size stops at the first size whose
    # slots pass the budget, not at size 3000
    start = time.perf_counter()
    with pytest.raises(BudgetError) as e:
        entails_bruteforce([], parse("R(c(),c()) -> R(c(),c())"), V3, 3000, budget=10 ** 5)
    assert str(e.value) == ("universe size 65, 4226 slots: "
                            "102050 points charged exceed the budget of 100000")
    # 2^30 slots at size 2 are charged, not built
    p30 = parse("P(x,x,x,x,x,x,x,x,x,x,x,x,x,x,x,x,x,x,x,x,x,x,x,x,x,x,x,x,x,x)"
                .replace("x", "c()"))
    with pytest.raises(BudgetError, match="universe size 2, 1073741825 slots"):
        entails_bruteforce([], Imp(p30, p30), V3, 2)
    assert time.perf_counter() - start < 5


def test_probe_builds_only_what_its_atoms_read():
    # a probe of 200,000 elements charges their slots but builds only the
    # element P(c()) reads, so the conclusion holds at once; a
    # quantified conclusion is not probed at 600 elements, as each table
    # there would ground 360,000 instances before its search charged a
    # point, and the ordered search gives its own budget error
    f = parse("(forall x. forall y. (P(x) & P(y))) -> P(c())")
    tracemalloc.start()
    try:
        assert entails_bruteforce([], parse("P(c()) -> P(c())"), V3, 2 * 10 ** 5).holds
        with pytest.raises(BudgetError) as e:
            entails_bruteforce([], f, V3, 600, budget=10 ** 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value) == ("universe size 7, function table 2, 6 of 7 letters placed: "
                            "10003 points charged exceed the budget of 10000")
    assert peak < 10 ** 6


def test_argument_free_formulas_search_size_one_only():
    # no value depends on the universe, so only size 1 is searched and
    # counted: a huge max_universe is neither slow nor over the budget
    start = time.perf_counter()
    for text in ("bot -> bot", "forall x. A -> A"):
        assert entails_bruteforce([], parse(text), V3, 10 ** 8).holds
    assert time.perf_counter() - start < 1
    # a countermodel is the reference's, which it finds at size 1
    from helpers import reference_entails
    premises, conclusion = [parse("exists x. B")], parse("forall y. A")
    got = entails_bruteforce(premises, conclusion, V3, 10 ** 8)
    want = reference_entails(premises, conclusion, V3, 3)
    assert not got.holds
    assert dump_interpretation(got.countermodel) == dump_interpretation(want.countermodel)


def test_search_memory_stays_flat_in_the_tables():
    # 1,024 function tables at size 2: one search runs per table, so only
    # one table's compiled programs are alive at a time
    f = parse("(" + " & ".join(f"P(c{i}())" for i in range(10)) + ") -> P(c0())")
    tracemalloc.start()
    try:
        assert entails_bruteforce([], f, v_m(2), 2).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


def test_budget_bound_is_exact():
    # P(c()) over V3: size 1 charges its 2 slots, its one function table
    # and the 3 points of P's one letter, and there finds the countermodel
    f = parse("P(c()) | ~P(c())")
    assert entails_bruteforce([], f, V3, 2, budget=6).holds is False
    with pytest.raises(BudgetError) as e:
        entails_bruteforce([], f, V3, 2, budget=5)
    assert str(e.value) == ("universe size 1, function table 1, 0 of 1 letter placed: "
                            "6 points charged exceed the budget of 5")
    # over V_6 the sizes 1..6 of a conclusion that holds charge 17,205
    # points in all: each size s its s slots, one table and its s letters'
    # pinned weak orders with at most 6 classes; size 6 alone charges
    # 14,778, past a tenth of either budget, so the probe gives way
    g, V6 = parse("forall x. (P(x) -> P(x))"), v_m(6)
    assert sum(s + 1 + pinned_orders(s, 6) for s in range(1, 7)) == 17205
    assert entails_bruteforce([], g, V6, 6, budget=17205).holds
    with pytest.raises(BudgetError) as e:
        entails_bruteforce([], g, V6, 6, budget=17204)
    assert str(e.value) == ("universe size 6, function table 1, 5 of 6 letters placed: "
                            "17205 points charged exceed the budget of 17204")
    # the probe may charge a tenth of the budget: up to size 1000 it
    # charges P(c()) -> P(c()) 1,000 + 1 slots, one table and 3 points,
    # so 10,050 holds, and one point less leaves it to the ordered search,
    # which spends the budget by size 63
    h = parse("P(c()) -> P(c())")
    assert entails_bruteforce([], h, V3, 1000, budget=10050).holds
    with pytest.raises(BudgetError) as e:
        entails_bruteforce([], h, V3, 1000, budget=10049)
    assert str(e.value) == ("universe size 63, function table 40, 0 of 1 letter placed: "
                            "10051 points charged exceed the budget of 10049")


def test_renamings_are_one_table_per_renaming_of_the_elements():
    # a table's restricted-growth form names its elements in order of
    # first use; each table of constants has exactly one such form
    from goedel_logics.semantics import _renamings

    def first_use(table):
        names: dict = {}
        return tuple(names.setdefault(i, len(names)) for i in table)

    for n in range(5):
        for size in range(1, 5):
            tables = list(_renamings(n, size))
            assert len(set(tables)) == len(tables) and tables == sorted(tables)
            assert set(tables) == {first_use(t) for t in
                                   itertools.product(range(size), repeat=n)}


def test_a_tables_letters_are_bounded_by_the_points_charged():
    # nothing refuses a function table on its letter count: 40 letters'
    # conjunction has its countermodel at size 1 within a budget of 99, and
    # a goal that cannot be pruned stops once its charge passes the budget
    conj = " & ".join(f"A{j}" for j in range(40))
    res = entails_bruteforce([], parse(conj), V3, 1, budget=99)
    assert not res.holds
    assert {name: t[()] for name, t in res.countermodel.predicates.items()} == {
        f"A{j}": 0 for j in range(40)}
    with pytest.raises(BudgetError) as e:
        entails_bruteforce([], parse(f"({conj}) -> A0"), V3, 1, budget=99)
    assert str(e.value) == ("universe size 1, function table 1, 39 of 40 letters placed: "
                            "101 points charged exceed the budget of 99")


@pytest.mark.parametrize("search", [entails_bruteforce, one_entails_bruteforce])
@pytest.mark.parametrize("bound", [0, -1])
def test_empty_universe_bound_is_an_error(search, bound):
    # searching no universe at all must not answer "holds"
    with pytest.raises(ValueError, match="max_universe"):
        search([], parse("A | ~A"), V3, bound)


def test_large_universe_keeps_grounding_shallow():
    # a vacuous quantifier grounds to its body, so 1200 universe sizes
    # neither nest 1200 deep nor take long
    assert entails_bruteforce([], parse("exists x. (A -> A)"), V3, 1200).holds


def test_quantifier_instances_join_as_balanced_tree():
    # n instances of a body nest about log2(n) deep, not n deep
    from goedel_logics.semantics import _grounder

    def depth(g):
        if isinstance(g, (And, Or, Imp)):
            return 1 + max(depth(g.left), depth(g.right))
        return 0

    ground = _grounder(1000, {}, ())
    assert depth(ground(parse("forall x. P(x)"), {})) == 10
    assert depth(ground(parse("(exists x. P(x)) -> A"), {})) == 11
    # f(u_i) = u_(i+1 mod 30): the first instance is R(u0, f(u0)) = R(u0, u1)
    ground = _grounder(30, {"f": 0}, [(i + 1) % 30 for i in range(30)])
    g = ground(parse("forall x. exists y. R(x, f(y))"), {})
    assert depth(g) == 10
    while not isinstance(g, Atom):
        g = g.left
    assert g == parse("R(u0(), u1())")


def test_one_entailment_reflexive():
    assert one_entails_bruteforce([parse("A")], parse("A"), V3, 1).holds


def test_entails_agreement_prop13_sample():
    rng = random.Random(13)
    for _ in range(200):
        n_prem = rng.randint(0, 2)
        prems = [random_closed_formula(rng, 3) for _ in range(n_prem)]
        goal = random_closed_formula(rng, 3)
        a = entails_bruteforce(prems, goal, V3, 2).holds
        b = one_entails_bruteforce(prems, goal, V3, 2).holds
        assert a == b


def test_lift_w_identity_and_all_one():
    I = prop_interp({"A": F(1, 4), "B": F(1, 2)})
    low = lift_w(I, F(9, 10))
    assert low.predicates == I.predicates
    high = lift_w(I, F(1, 8))
    assert all(v == 1 for t in high.predicates.values() for v in t.values())


def test_lift_w_case_split_random():
    # for w outside Val: value unchanged when below w, 1 otherwise
    rng = random.Random(12)
    for _ in range(300):
        f = random_closed_formula(rng, 3)
        I = random_interpretation(rng, v_m(4), rng.randint(1, 2),
                                  {"A": 0, "B": 0, "P": 1}, {"c": 0})
        vals = sorted(value_set([f], I))
        # pick w strictly between two adjacent values (not in Val)
        idx = rng.randrange(len(vals) - 1)
        w = (vals[idx] + vals[idx + 1]) / 2
        v = evaluate(f, I)
        vw = evaluate(f, lift_w(I, w))
        assert vw == (v if v < w else F(1))


def test_map_h_equality_random():
    rng = random.Random(3)
    for _ in range(300):
        f = random_closed_formula(rng, 3)
        I = random_interpretation(rng, V3, rng.randint(1, 2),
                                  {"A": 0, "B": 0, "P": 1}, {"c": 0})
        # doubling-compressing map into {0} + [1/2,1]
        h = {F(0): F(0), F(1, 2): F(3, 4), F(1): F(1)}
        target = parse_set("{0} + [1/2,1]")
        J = map_h(I, h, target)
        assert evaluate(f, J) == h[evaluate(f, I)]


def test_map_h_rejects_non_monotone():
    I = prop_interp({"A": F(1, 2)})
    with pytest.raises(ValueError):
        map_h(I, {F(0): F(0), F(1, 2): F(1, 2), F(3, 4): F(1, 2), F(1): F(1)})


def test_order_pattern_determines_value_one():
    # same relative order of atom tables => same satisfaction
    rng = random.Random(9)
    f = parse("(P(c()) -> Q(c())) | (Q(c()) -> R(c()))")
    for _ in range(200):
        vals = sorted(rng.sample(range(0, 30), 3))
        table1 = {"P": F(vals[0], 30), "Q": F(vals[1], 30), "R": F(vals[2], 30)}
        vals2 = sorted(rng.sample(range(0, 60), 3))
        table2 = {"P": F(vals2[0], 60), "Q": F(vals2[1], 60), "R": F(vals2[2], 60)}
        I1 = FiniteInterpretation(("u0",), U01,
                                  {p: {("u0",): v} for p, v in table1.items()},
                                  {"c": {(): "u0"}})
        I2 = FiniteInterpretation(("u0",), U01,
                                  {p: {("u0",): v} for p, v in table2.items()},
                                  {"c": {(): "u0"}})
        assert (evaluate(f, I1) == 1) == (evaluate(f, I2) == 1)


# --- omega interpretations ---------------------------------------------------


def harmonic_down_interp(V) -> OmegaInterpretation:
    I = OmegaInterpretation((), V, {}, {"A": {("*",): Harmonic(F(0), 1, 0)}})
    I.validate()
    return I


def test_c_up_gets_zero():
    c_up = parse("exists x. (A(x) -> forall y. A(y))")
    for V in (v_down(), U01):
        assert eval_omega(c_up, harmonic_down_interp(V)) == 0


def test_c_down_still_one_over_v_up():
    c_down = parse("exists x. ((exists y. A(y)) -> A(x))")
    I = OmegaInterpretation((), v_up(), {}, {"A": {("*",): Harmonic(F(1), -1, 0)}})
    I.validate()
    assert eval_omega(parse("exists y. A(y)"), I) == 1  # sup not attained
    assert eval_omega(c_down, I) == 1                   # not a countermodel


def test_constant_tail_sup():
    I = OmegaInterpretation(("u0",), U01, {"A": {("u0",): F(1, 4)}},
                            {"A": {("*",): ConstTail(F(1, 2))}})
    I.validate()
    assert eval_omega(parse("exists x. A(x)"), I) == F(1, 2)


def test_iso0_omega_countermodel():
    iso = parse("(forall x. ~~A(x)) -> ~~(forall x. A(x))")
    I = harmonic_down_interp(U01)
    assert eval_omega(parse("forall x. ~~A(x)"), I) == 1
    assert eval_omega(parse("~~(forall x. A(x))"), I) == 0
    assert eval_omega(iso, I) == 0


def test_tail_validation_rejects_out_of_set():
    with pytest.raises(TailValueError):
        harmonic_down_interp(parse_set("{0} + [1/2,1]"))
    with pytest.raises(TailValueError):
        I = OmegaInterpretation((), U01, {},
                                {"A": {("*",): Harmonic(F(1, 2), 1, 0)}})
        I.validate()
    # k + offset would be 0 at k = -offset, inside the probed values or
    # (offset -100) beyond them
    for offset in (-1, -100):
        I = OmegaInterpretation((), U01, {},
                                {"A": {("*",): Harmonic(F(1, 2), 1, offset)}})
        with pytest.raises(TailValueError, match="offset"):
            I.validate()


def test_a_tail_limit_outside_the_unit_interval_is_a_tail_error():
    # the first 64 values lie in [0,1], but the limits do not
    for d in (Harmonic(F(101, 100), -1, 0), Harmonic(F(-1, 100), 1, 0)):
        I = OmegaInterpretation((), U01, {}, {"A": {("*",): d}})
        with pytest.raises(TailValueError, match=r"^harmonic tail leaves \[0,1\]$"):
            I.validate()


def test_a_tail_is_checked_exactly_only_before_an_atom_holds_it():
    # [0,1/4] holds 1/m from m = 4 on, so only 1/2 and 1/3 are checked
    # exactly for the tail 1/(k + 1)
    _certify_tail(Harmonic(F(0), 1, 1), parse_set("{1/2,1/3} + [0,1/4] + {1}"))
    with pytest.raises(TailValueError, match="tail value 1/3 not in the set"):
        _certify_tail(Harmonic(F(0), 1, 1), parse_set("{1/2} + [0,1/4] + {1}"))
    # an atom must hold the tail from k = 65 on: at most 64 values are
    # checked exactly
    d = Harmonic(F(0), 1, 0)
    points = [Point(tail_value(d, k)) for k in range(1, 66)]
    _certify_tail(d, make_set(points + [Interval(F(0), F(1, 65))]))
    with pytest.raises(TailValueError, match="cannot certify"):
        _certify_tail(d, make_set(points + [Interval(F(0), F(1, 66))]))


def _random_tail_case(rng: random.Random):
    """A (descriptor, set) pair near the edges of _certify_tail: limits in
    and just outside [0,1], offsets around 0 and 64, and sets that hold
    the tail's first values as points, an interval from some k on, and
    sequences with integer or fractional scales."""
    limits = [F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 100), F(99, 100),
              F(101, 100), F(-1, 100)]
    limit = rng.choice(limits)
    if rng.random() < 0.1:
        d = ConstTail(rng.choice(limits + [F(1, 4)]))
    else:
        inward = -1 if limit > F(1, 2) else 1
        d = Harmonic(limit, inward if rng.random() < 0.8 else -inward,
                     rng.choice([-1, 0, 0, 1, 1, 2, 5, 30, 62, 63, 64, 65, 100]))

    def value(k):
        return tail_value(d, k) if isinstance(d, ConstTail) or k + d.offset > 0 else None

    atoms = [Point(F(0)), Point(F(1))]
    if rng.random() < 0.8 and 0 <= limit <= 1:
        atoms.append(Point(limit))
    count = rng.choice([0, 1, 2, 3, 5, 10, 20]) if rng.random() < 0.85 else rng.choice([63, 64, 65])
    skip = rng.randint(1, count) if count and rng.random() < 0.2 else None
    atoms += [Point(v) for k in range(1, count + 1)
              if k != skip and (v := value(k)) is not None and 0 <= v <= 1]
    if rng.random() < 0.6:
        edge = value(rng.choice([1, 2, 3, 6, 11, 21, 64, 65, 66, 80]))
        if edge is not None:
            edge += rng.choice([0, 0, 0, F(1, 10 ** 4), -F(1, 10 ** 4)])
            start = limit + rng.choice([0, 0, 0, F(1, 10 ** 3), -F(1, 10 ** 3)])
            lo, hi = max(min(start, edge), F(0)), min(max(start, edge), F(1))
            if lo < hi:
                atoms.append(Interval(lo, hi))
    if rng.random() < 0.3:
        seq = rng.choice([SeqDown, SeqUp])
        q = limit if 0 <= limit <= 1 and rng.random() < 0.8 else rng.choice(limits[:7])
        atoms.append(seq(q, rng.choice([F(1), F(2), F(3), F(1, 2), F(3, 2)])))
    if rng.random() < 0.2:
        atoms.append(rng.choice([Cantor(F(0), F(1)), Interval(F(1, 2), F(3, 4))]))
    return d, make_set(atoms)


def _certify_outcome(certify, d, V):
    try:
        certify(d, V)
    except TailValueError as e:
        return "TailValueError", str(e)
    except ValueError as e:
        return "ValueError", str(e)
    return "ok", None


def test_tail_certification_matches_the_reference():
    rng = random.Random(2727)
    cases = []
    while len(cases) < 10_000:
        d, V = _random_tail_case(rng)
        # the set's own descriptor and its neighbours one offset away
        cases += [(d, V)] if isinstance(d, ConstTail) else \
            [(Harmonic(d.limit, d.sign, d.offset + i), V) for i in (-1, 0, 1)]
    seen: dict[str, int] = {}
    late_starts = 0
    for d, V in cases:
        want = _certify_outcome(reference_certify_tail, d, V)
        got = _certify_outcome(_certify_tail, d, V)
        if want[0] == "ValueError":
            # the reference's bare error from member, for a limit outside
            # [0,1] whose first 64 values lie inside
            assert not 0 <= d.limit <= 1, (d, V)
            assert got == ("TailValueError", "harmonic tail leaves [0,1]"), (d, V)
        else:
            assert got == want, (d, V)
        if got[0] == "ok" and isinstance(d, Harmonic) \
                and not holds_harmonic_tail(V, d.limit, d.sign, tail_value(d, 1)):
            late_starts += 1
        kind = re.sub(r"-?\d+(/\d+)?", "#", got[1] or "ok")
        seen[want[0] + ": " + kind] = seen.get(want[0] + ": " + kind, 0) + 1
    # every outcome shows up, and many tails are held only from some k > 1
    assert len(seen) == 8 and min(seen.values()) >= 50, seen
    assert late_starts >= 300, late_starts


def test_tail_coupling_rejected():
    I = OmegaInterpretation((), U01, {},
                            {"R": {("*", "*"): ConstTail(F(1, 2))}},
                            successors=frozenset({"s"}))
    I.validate()
    # R(x, x) touches one tail element: fine; R(x, s(x)) couples two
    assert eval_omega(parse("forall x. R(x,x)"), I) == F(1, 2)
    with pytest.raises(TailRestrictionError):
        eval_omega(parse("forall x. R(x,s(x))"), I)


def test_nested_tail_quantifier_rejected():
    I = harmonic_down_interp(U01)
    with pytest.raises(TailRestrictionError):
        eval_omega(parse("exists x. forall y. (A(y) -> A(x))"), I)


def test_successor_shifts_descriptor():
    I = OmegaInterpretation((), v_up(), {}, {"A": {("*",): Harmonic(F(1), -1, 0)}},
                            successors=frozenset({"s"}))
    I.validate()
    assert eval_omega(parse("forall x. (A(x) -> A(s(x)))"), I) == 1
    assert eval_omega(parse("forall x. (A(s(x)) -> A(x))"), I) == 0


def test_admissible_shift_corpus_omega_and_finite():
    shifts = [
        "(forall x. (A(x) & B)) -> ((forall x. A(x)) & B)",
        "((forall x. A(x)) & B) -> forall x. (A(x) & B)",
        "((exists x. A(x)) & B) -> exists x. (A(x) & B)",
        "(exists x. (A(x) & B)) -> ((exists x. A(x)) & B)",
        "((forall x. A(x)) | B) -> forall x. (A(x) | B)",
        "(forall x. (A(x) | B)) -> ((forall x. A(x)) | B)",
        "((exists x. A(x)) | B) -> exists x. (A(x) | B)",
        "(exists x. (A(x) | B)) -> ((exists x. A(x)) | B)",
        "(B -> forall x. A(x)) -> forall x. (B -> A(x))",
        "(forall x. (B -> A(x))) -> (B -> forall x. A(x))",
        "(exists x. (B -> A(x))) -> (B -> exists x. A(x))",
        "(exists x. (A(x) -> B)) -> ((forall x. A(x)) -> B)",
        "((exists x. A(x)) -> B) -> forall x. (A(x) -> B)",
        "(forall x. (A(x) -> B)) -> ((exists x. A(x)) -> B)",
    ]
    omegas = []
    for d in (Harmonic(F(0), 1, 0), Harmonic(F(1), -1, 0), ConstTail(F(2, 5)),
              Harmonic(F(1, 2), 1, 1), Harmonic(F(1, 2), -1, 1)):
        for b in (F(0), F(1, 3), F(1, 2), F(1)):
            I = OmegaInterpretation(("u0",), U01,
                                    {"A": {("u0",): F(1, 4)}, "B": {(): b}},
                                    {"A": {("*",): d}})
            I.validate()
            omegas.append(I)
    rng = random.Random(42)
    finites = [random_interpretation(rng, v_m(4), size, {"A": 1, "B": 0})
               for size in (1, 2, 3) for _ in range(10)]
    for text in shifts:
        f = parse(text)
        for I in omegas:
            assert eval_omega(f, I) == 1, text
        for I in finites:
            assert evaluate(f, I) == 1, text


def test_stable_order_cases():
    a, b = Harmonic(F(0), 1, 0), Harmonic(F(0), 1, 3)
    k, cmp_ = stable_order(a, b, 1)
    assert cmp_ == 1  # smaller offset, larger values
    k, cmp_ = stable_order(Harmonic(F(1, 3), 1, 0), ConstTail(F(1, 2)), 1)
    assert cmp_ == -1
    assert all(tail_value(Harmonic(F(1, 3), 1, 0), i) < F(1, 2) for i in range(k, k + 50))
    k, cmp_ = stable_order(Harmonic(F(1, 2), -1, 0), Harmonic(F(1, 2), 1, 5), 1)
    assert cmp_ == -1
    assert stable_order(ConstTail(F(1, 2)), ConstTail(F(1, 2)), 1)[1] == 0


def test_interpretation_json_roundtrip():
    I = FiniteInterpretation(("u0", "u1"), v_m(3),
                             {"P": {("u0",): F(1, 2), ("u1",): F(1)}},
                             {"f": {("u0",): "u1", ("u1",): "u1"}})
    data = json.loads(json.dumps(dump_interpretation(I)))
    J = load_interpretation(data)
    assert isinstance(J, FiniteInterpretation)
    assert evaluate(parse("forall x. P(f(x))"), J) == 1

    W = OmegaInterpretation(("u0",), U01, {"A": {("u0",): F(1, 4)}},
                            {"A": {("*",): Harmonic(F(0), 1, 0)}},
                            successors=frozenset({"s"}))
    W.validate()
    data = json.loads(json.dumps(dump_interpretation(W)))
    J = load_interpretation(data)
    assert isinstance(J, OmegaInterpretation)
    assert eval_omega(parse("exists x. (A(x) -> forall y. A(y))"), J) == 0


def test_a_universe_names_each_element_once():
    from goedel_logics.semantics import InterpretationFormatError
    for extra in ({}, {"tail": {"P/1": {"kind": "const", "value": "1"}}}):
        data = {"universe": ["a", "b", "a"], "truth_set": "[0,1]",
                "predicates": {"P/1": {"a": "1", "b": "0"}}, **extra}
        with pytest.raises(InterpretationFormatError,
                           match="\"universe\" names the element 'a' twice"):
            load_interpretation(data)


def test_saturate_transfer_needs_a_perfect_kernel():
    I = prop_interp({"A": F(1, 2)}, v_down())
    with pytest.raises(EmptyKernelError, match="the perfect kernel is empty"):
        saturate_transfer(I, v_down(), [parse("A")])


def test_json_spec_shape():
    data = {
        "universe": ["u0", "u1"],
        "truth_set": "{0} + [1/2,1]",
        "predicates": {"P/1": {"u0": "1/2", "u1": "1"}},
        "functions": {"f/1": {"u0": "u1", "u1": "u1"}},
    }
    I = load_interpretation(data)
    assert evaluate(parse("exists x. P(x)"), I) == 1
    data["tail"] = {"P/1": {"kind": "harmonic", "limit": "1", "sign": "-", "offset": 1}}
    data["truth_set"] = "[0,1]"
    J = load_interpretation(data)
    assert eval_omega(parse("exists x. P(x)"), J) == 1


def test_symbolic_tail_matches_concrete_pointwise():
    # the descriptor computed for a generic tail element must agree with
    # concrete evaluation at every index beyond its stability point
    from goedel_logics.semantics import _sym_omega, _eval_omega, tail_value
    from goedel_logics.formula import Atom, Bot, And, Or, Imp, Var
    rng = random.Random(404)
    descriptors = [Harmonic(F(0), 1, 0), Harmonic(F(1), -1, 0),
                   Harmonic(F(1, 3), 1, 2), Harmonic(F(2, 3), -1, 1),
                   ConstTail(F(1, 3)), ConstTail(F(1)), ConstTail(F(0))]

    def body(depth):
        if depth == 0 or rng.random() < 0.3:
            r = rng.random()
            if r < 0.1:
                return Bot()
            if r < 0.55:
                return Atom("A", (Var("x"),))
            return Atom(rng.choice(("B", "C")))
        op = rng.choice([And, Or, Imp])
        return op(body(depth - 1), body(depth - 1))

    for _ in range(400):
        d = rng.choice(descriptors)
        I = OmegaInterpretation(
            (), U01,
            {"B": {(): F(rng.randint(0, 4), 4)}, "C": {(): F(rng.randint(0, 4), 4)}},
            {"A": {("*",): d}})
        I.validate()
        f = body(3)
        desc, start = _sym_omega(f, I, {}, "x")
        for k in range(start, start + 40):
            assert tail_value(desc, k) == _eval_omega(f, I, {"x": ("tail", k)})


def test_fold_budget_guards_extreme_crossovers():
    # nearly-equal limits push the stability index past the fold budget
    I = OmegaInterpretation((), U01,
                            {"B": {(): F(1, 10 ** 9)}},
                            {"A": {("*",): Harmonic(F(0), 1, 0)}})
    I.validate()
    with pytest.raises(BudgetError):
        eval_omega(parse("forall x. (A(x) | B)"), I)
