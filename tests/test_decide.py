"""Propositional decision procedures for G_m and LC."""

import random
import tracemalloc
from fractions import Fraction as F

import pytest

from goedel_logics.decide import (
    BudgetError, QuantifierError, classes, compile_goal, compile_prop, decide_Gm,
    decide_LC, first_countermodel, read_goal,
)
from goedel_logics.formula import Atom, Bot, And, Or, Imp, Top, atoms, parse, print_formula
from goedel_logics.goedelset import gm_values
from goedel_logics.semantics import FiniteInterpretation, evaluate
from goedel_logics.goedelset import gm_values, unit_interval
from helpers import (
    ROOT, class_ranks, eval_prop, extend, pinned_orders, reference_decide_LC, reference_extend,
    reference_first_countermodel, reference_walk, representative,
)


def test_gm_values():
    assert gm_values(2) == [0, 1]
    assert gm_values(3) == [0, F(1, 2), 1]
    assert gm_values(4) == [0, F(1, 2), F(2, 3), 1]
    assert len(gm_values(7)) == 7


def test_linearity_valid_everywhere():
    lin = parse("(A -> B) | (B -> A)")
    for m in range(2, 7):
        assert decide_Gm(lin, m).valid
    assert decide_LC(lin).valid


def test_fin3_separates_g3_from_g4():
    fin3 = parse("(top -> A1) | (A1 -> A2) | (A2 -> bot)")
    assert decide_Gm(fin3, 3).valid
    r = decide_Gm(fin3, 4)
    assert not r.valid
    assert r.value == F(2, 3)
    assert r.countermodel[Atom("A1")] == F(2, 3)


def test_peirce_separates_g2_from_g3():
    peirce = parse("((A -> B) -> A) -> A")
    assert decide_Gm(peirce, 2).valid
    r = decide_Gm(peirce, 3)
    assert not r.valid


def test_weak_excluded_middle_lc_valid():
    assert decide_LC(parse("~A | ~~A")).valid


def test_excluded_middle_lc_countermodel():
    r = decide_LC(parse("A | ~A"))
    assert not r.valid
    assert 0 < r.countermodel[Atom("A")] < 1


def test_quantifier_rejected():
    with pytest.raises(QuantifierError):
        decide_Gm(parse("forall x. P(x)"), 3)


def test_budget_error():
    # nothing refuses 10 letters up front: the first point the walk charges
    # falsifies their disjunction, and a goal that cannot be pruned spends
    # the budget
    f = parse("A1 | A2 | A3 | A4 | A5 | A6 | A7 | A8 | A9 | A10")
    assert decide_Gm(f, 5, budget=3).countermodel == {a: 0 for a in atoms(f)}
    with pytest.raises(BudgetError):
        decide_Gm(parse("(A1 & A2 & A3 & A4 & A5 & A6 & A7 & A8 & A9 & A10) -> A1"), 5,
                  budget=1000)


def test_lc_budget_counts_pinned_weak_orders():
    # 6 letters under a goal that cannot be pruned are charged exactly
    # their 18731 pinned weak orders, not the (6+2)^6 of the finite reduction
    assert [pinned_orders(n) for n in range(1, 9)] == \
        [3, 11, 51, 299, 2163, 18731, 189171, 2183339]
    f = parse("(A1 & A2 & A3 & A4 & A5 & A6) -> A1")
    assert decide_LC(f, budget=18731).valid
    with pytest.raises(BudgetError):
        decide_LC(f, budget=18730)


def test_gm_budget_counts_order_types_not_valuations():
    # the 6-cycle has 18,731 order types in G20, not 20^6 valuations
    cycle = parse("(A1 -> A2) | (A2 -> A3) | (A3 -> A4) | (A4 -> A5) | (A5 -> A6) | (A6 -> A1)")
    assert decide_Gm(cycle, 20).valid
    assert pinned_orders(6, 20) == pinned_orders(6) == 18731
    # V_m is never built: one letter has three order types whatever m is
    r = decide_Gm(parse("A"), 10 ** 12)
    assert r.countermodel == {Atom("A"): 0} and r.value == 0
    assert decide_Gm(parse("A | (A -> bot)"), 10 ** 12).countermodel == {Atom("A"): F(1, 2)}
    # the budget bounds the points charged, not the letters: the first
    # point falsifies 40 letters' conjunction, and is charged with the two
    # other ranks of the last letter's loop
    conj = parse(" & ".join(f"A{j}" for j in range(40)))
    r = decide_LC(conj, budget=3)
    assert r.countermodel == {a: 0 for a in atoms(conj)} and r.value == 0
    letters, parts = read_goal(conj)
    assert first_countermodel(compile_goal(parts, letters)[0], 42, 40) == ((0,) * 40, 3)
    # a loop over the last letter is charged before it runs
    with pytest.raises(BudgetError) as e:
        decide_LC(parse("A"), budget=2)
    assert str(e.value) == "LC, 0 of 1 letter placed: 3 points charged exceed the budget of 2"


def test_a_walk_thousands_of_letters_deep_keeps_no_candidate_lists():
    # a walk 4,000 letters deep keeps each placed letter's candidates as a
    # lazy iterator; a list per letter would hold ~n^2 / 2 ranks (300 MB)
    parts = [f"A{j}" for j in range(4000)]
    while len(parts) > 1:
        parts = [f"({' | '.join(parts[i:i + 2])})" for i in range(0, len(parts), 2)]
    f = parse(parts[0])
    tracemalloc.start()
    try:
        r = decide_LC(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not r.valid and set(r.countermodel.values()) == {0}
    assert peak < 16 * 2 ** 20


def _random_formula(rng, depth, leaves):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    op = rng.choice([And, Or, Imp])
    return op(_random_formula(rng, depth - 1, leaves),
              _random_formula(rng, depth - 1, leaves))


LEAVES = [Atom("A"), Atom("B"), Atom("C"), Bot()]


def test_validity_antitone_in_m():
    # valid in G_{m+1} implies valid in G_m
    rng = random.Random(21)
    for _ in range(1000):
        f = _random_formula(rng, rng.randint(1, 4), LEAVES)
        verdicts = {m: decide_Gm(f, m).valid for m in (2, 3, 4, 5)}
        for m in (2, 3, 4):
            if verdicts[m + 1]:
                assert verdicts[m]


def test_lc_below_every_gm():
    rng = random.Random(22)
    for _ in range(1000):
        f = _random_formula(rng, rng.randint(1, 4), LEAVES)
        if decide_LC(f).valid:
            for m in range(2, 7):
                assert decide_Gm(f, m).valid


def test_countermodels_reevaluate_below_one():
    rng = random.Random(23)
    checked = 0
    for _ in range(500):
        f = _random_formula(rng, rng.randint(1, 4), LEAVES)
        r = decide_LC(f)
        if r.valid:
            continue
        checked += 1
        assert eval_prop(f, r.countermodel) == r.value < 1
        # cross-module oracle: rebuild as a finite interpretation
        I = FiniteInterpretation(
            ("u0",), unit_interval(),
            {print_formula(a): {(): v} for a, v in r.countermodel.items()})
        renamed = _rename_atoms(f)
        assert evaluate(renamed, I) < 1
    assert checked > 100


def _rename_atoms(f):
    # countermodel keys are atoms; evaluate() wants predicate tables
    if isinstance(f, Atom):
        return Atom(print_formula(f))
    if isinstance(f, Bot):
        return f
    return type(f)(_rename_atoms(f.left), _rename_atoms(f.right))


def test_letter_order_is_the_sorted_printed_atoms():
    # letters are named by print_raw, which on an atom gives print_formula's
    # text, so their order (and with it the first countermodel) is the
    # order of the printed atoms
    for text in ("B | A10 | A2 | ~C | A1", "R(f(c()), d()) -> P(c()) | P(f(c())) & Q",
                 "P(g(c(), c())) | P(c()) | A | R(d(), c())"):
        f = parse(text)
        by_name = {print_formula(a): a for a in atoms(f)}
        assert read_goal(f)[0] == [by_name[name] for name in sorted(by_name)]


def test_read_goal_reads_letters_and_root_disjuncts_in_one_walk():
    # the leaves of the top |-tree, left to right, each with the largest
    # slot it reads; a root that is not a | is one disjunct, and atoms
    # under a quantifier are letters too
    f = parse("(B | A & C) | (forall x. P(x)) | ~(A | B) | top")
    letters, parts = read_goal(f)
    assert letters == [Atom("A"), Atom("B"), Atom("C"), parse("P(x)")]
    assert [(print_formula(g), last) for g, last in parts] == [
        ("B", 1), ("A & C", 2), ("forall x1. P(x1)", 3), ("~(A | B)", 1), ("top", 0)]
    f = parse("A & (B | C)")
    abc = [Atom("A"), Atom("B"), Atom("C")]
    assert read_goal(f) == (abc, [(f, 2)])
    # so a non-| root has no separate path: its one disjunct is never ready
    goal, ready = compile_goal(read_goal(f)[1], abc)
    assert ready == [None, None] and goal((1, 0, 2), 2) == 1


def test_first_countermodel_is_lexicographic():
    r = decide_Gm(parse("A & B"), 3)
    assert not r.valid
    assert r.countermodel == {Atom("A"): F(0), Atom("B"): F(0)}


def test_fin5_countermodel_in_g6():
    fin5 = parse("top -> A1 | (A1 -> A2) | (A2 -> A3) | (A3 -> A4) | ~A4")
    assert decide_Gm(fin5, 5).valid
    r = decide_Gm(fin5, 6)
    assert not r.valid
    assert r.value == F(4, 5)
    assert r.countermodel == {Atom("A1"): F(4, 5), Atom("A2"): F(3, 4),
                              Atom("A3"): F(2, 3), Atom("A4"): F(1, 2)}
    # as a root |, the walk prunes on its disjuncts: A1 alone is ready at
    # the first letter, and the countermodel needs it one below top
    bare = parse("A1 | (A1 -> A2) | (A2 -> A3) | (A3 -> A4) | ~A4")
    assert decide_Gm(bare, 5).valid
    assert (decide_Gm(bare, 6).countermodel, decide_Gm(bare, 6).value) == (r.countermodel, r.value)


def test_first_countermodel_matches_the_product_oracle():
    # the gap-free walk returns the product loop's first falsifying point
    # for every goal; "late" ones lie past the first m points or are None
    rng = random.Random(26)
    cases = late = 0
    for n in range(7):
        letters = [Atom(f"A{j}") for j in range(n)]
        index = {a: j for j, a in enumerate(letters)}
        leaves = letters + [Bot()]
        for m in range(2, 9):
            if m ** n > 50000:
                continue
            for _ in range(60):
                goal = compile_prop(_random_formula(rng, rng.randint(1, 6), leaves), index)
                want = reference_first_countermodel(goal, m, n)
                assert first_countermodel(goal, m, n)[0] == want, (m, n)
                cases += 1
                late += want is None or any(want[:-1])
    assert cases >= 2000 and late >= 800


def _disjunction(rng, letters):
    # a | of 2-6 random disjuncts, each over a few of the letters, so that
    # many read only early slots; one in ten is the letter-free top
    parts = []
    for _ in range(rng.randint(2, 6)):
        if rng.random() < 0.1:
            parts.append(Top())
            continue
        leaves = rng.sample(letters, rng.randint(1, min(3, len(letters)))) + [Bot()]
        parts.append(_random_formula(rng, rng.randint(1, 3), leaves))
    f = parts.pop()
    while parts:
        f = Or(parts.pop(), f) if rng.random() < 0.5 else Or(f, parts.pop())
    return f


def test_pruned_walk_matches_the_product_oracle():
    # skipping the prefixes on which a placed disjunct is top keeps the
    # product loop's first falsifying point
    rng = random.Random(18)
    cases = pruned = found = 0
    for n in range(2, 7):
        letters = [Atom(f"A{j}") for j in range(n)]
        for m in range(2, 9):
            if m ** n > 20000:
                continue
            for _ in range(40):
                read, parts = read_goal(_disjunction(rng, letters))
                goal, ready = compile_goal(parts, read)
                want = reference_first_countermodel(goal, m, len(read))
                assert first_countermodel(goal, m, len(read), ready)[0] == want, (m, n)
                cases += 1
                pruned += any(ready)
                found += want is not None
    assert cases >= 1200 and pruned >= cases // 2 and found >= cases // 4
    # a letter-free disjunct that is top closes the walk at the first letter
    f = Or(Imp(Bot(), Bot()), parse("A0 & A1 & A2"))
    goal, ready = compile_goal(read_goal(f)[1], [Atom(f"A{j}") for j in range(3)])
    assert ready[0] is not None and ready[1] is None
    assert first_countermodel(goal, 5, 3, ready)[0] is None


def test_pruned_decisions_match_the_oracles():
    # decide_LC and decide_Gm prune on the root disjuncts; their verdicts are
    # reference_decide_LC's and their countermodels the product loop's first
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(2, 5)
        f = _disjunction(rng, [Atom(f"A{j}") for j in range(n)])
        letters = sorted(atoms(f), key=print_formula)
        prog = compile_prop(f, {a: i for i, a in enumerate(letters)})
        assert decide_LC(f).valid == reference_decide_LC(f).valid
        for m in (2, 3, 4, 5, 7, len(letters) + 2):
            r = decide_LC(f) if m == len(letters) + 2 else decide_Gm(f, m)
            want = reference_first_countermodel(prog, m, len(letters))
            assert r.valid == (want is None)
            if want is not None:
                values = gm_values(m)
                assert r.countermodel == {a: values[x] for a, x in zip(letters, want)}
                assert eval_prop(f, r.countermodel) == r.value == values[prog(want, m - 1)] < 1


def _cycle(n):
    return parse(" | ".join(f"(A{j} -> A{j % n + 1})" for j in range(1, n + 1)))


def test_valid_cycles_follow_only_descending_prefixes():
    # every disjunct of the n-cycle but the last is ready one letter after
    # its antecedent, so only strictly descending prefixes stay open
    f = _cycle(8)
    letters = sorted(atoms(f), key=print_formula)
    prog, ready = compile_goal(read_goal(f)[1], letters)
    calls = 0

    def goal(ranks, top):
        nonlocal calls
        calls += 1
        return prog(ranks, top)
    assert first_countermodel(goal, 10, 8, ready)[0] is None
    assert calls <= 100
    # the budget counts the points the walk charges, so the 9- and
    # 12-cycles are valid under the default budget
    assert decide_LC(_cycle(9)).valid and decide_LC(_cycle(12)).valid
    # an & root is not pruned: it is charged every order type, and runs
    # until the budget is spent
    with pytest.raises(BudgetError, match="LC, 8 of 9 letters placed: 100006 points charged"):
        decide_LC(And(_cycle(9), parse("A1 -> A1")), budget=10 ** 5)


def test_gap_free_walk_evaluates_one_point_per_order():
    # a valid 5-letter formula: one call per pinned weak order with at
    # most m classes at every m, each charged
    f = parse("(A1 -> A2) | (A2 -> A3) | (A3 -> A4) | (A4 -> A5) | (A5 -> A1)")
    prog = compile_prop(f, {Atom(f"A{j}"): j - 1 for j in range(1, 6)})
    for m, want in [(2, 32), (3, 243), (4, 813), (5, 1563), (6, 2043), (7, 2163), (8, 2163)]:
        calls = 0

        def goal(ranks, top):
            nonlocal calls
            calls += 1
            return prog(ranks, top)
        assert first_countermodel(goal, m, 5) == (None, want), m
        assert calls == pinned_orders(5, m) == want, m
    # pruned at its root disjuncts, the G4 search is charged 49, not 813
    with pytest.raises(BudgetError, match="49 points charged exceed the budget of 48"):
        decide_Gm(f, 4, budget=48)
    assert decide_Gm(f, 4, budget=49).valid


def test_search_is_charged_exactly_what_it_visits():
    # an unprunable valid goal is charged exactly its pinned weak orders
    # with at most m classes, and a budget one below that raises
    for n in range(1, 6):
        f = parse(" & ".join(f"A{j}" for j in range(1, n + 1)) + " -> A1")
        letters, parts = read_goal(f)
        goal, ready = compile_goal(parts, letters)
        for m in range(2, 9):
            want = pinned_orders(n, m)
            assert first_countermodel(goal, m, n, ready, want) == (None, want), (n, m)
            with pytest.raises(BudgetError):
                first_countermodel(goal, m, n, ready, want - 1)
            assert decide_Gm(f, m, budget=want).valid
    # the charge runs on from spent: the pruned 5-cycle adds its 49 in G4
    letters, parts = read_goal(_cycle(5))
    goal, ready = compile_goal(parts, letters)
    assert first_countermodel(goal, 4, 5, ready, 10 ** 6, 1000) == (None, 1049)
    # a countermodel ends the charge at the loop that finds it
    letters, parts = read_goal(parse("A1 & A2 & A3"))
    goal, ready = compile_goal(parts, letters)
    assert first_countermodel(goal, 5, 3, ready) == ((0, 0, 0), 3)


def test_start_at_or_before_the_first_countermodel_changes_nothing():
    # resuming at any start point no later than the first countermodel
    # returns that countermodel, charged no more points than a full walk
    rng = random.Random(25)
    cases = tight = 0
    for n in range(2, 7):
        letters = [Atom(f"A{j}") for j in range(n)]
        for m in range(2, 9):
            if m ** n > 20000:
                continue
            for _ in range(30):
                read, parts = read_goal(_disjunction(rng, letters))
                goal, ready = compile_goal(parts, read)
                want, spent = first_countermodel(goal, m, len(read), ready)
                for _ in range(5):
                    size = rng.randint(0, max(len(read) - 1, 0))
                    start = tuple(rng.randrange(m) for _ in range(size))
                    if want is not None and start > want[:size]:
                        # a point before want: its prefix, one rank lowered
                        start = want[:size]
                        if size and rng.random() < 0.5 and max(start):
                            i = rng.choice([i for i, r in enumerate(start) if r])
                            start = start[:i] + (rng.randrange(start[i]),) + start[i + 1:]
                    got, charged = first_countermodel(goal, m, len(read), ready, start=start)
                    assert got == want and charged <= spent, (m, n, start)
                    cases += 1
                    tight += want is not None and start == want[:size] and size > 0
    assert cases >= 3000 and tight >= 500
    with pytest.raises(ValueError, match="at most n - 1 letters"):
        first_countermodel(lambda ranks, top: 0, 3, 2, start=(0, 0))


def _walk_outcome(walk, *args):
    try:
        return walk(*args)
    except BudgetError as e:
        return str(e)


def test_walk_loop_matches_the_recursive_reference():
    # the walk keeps its own stack of letters; its answers, its charges and
    # its budget messages are those of the walk that recursed once per
    # letter, from the first point and resumed at a start
    rng = random.Random(28)
    cases = stopped = resumed = found = valid = 0
    for n in range(8):
        letters = [Atom(f"A{j}") for j in range(n)]
        for m in range(2, 8):
            for _ in range(24):
                f = _disjunction(rng, letters) if n else rng.choice([Bot(), Top()])
                read, parts = read_goal(f)
                goal, ready = compile_goal(parts, read)
                size = rng.randint(0, len(read) - 1) if len(read) > 1 else 0
                start = tuple(rng.randrange(m) for _ in range(size)) if rng.random() < 0.75 else ()
                spent = rng.randrange(100)
                args = [goal, m, len(read), ready, 20_000, spent, "walk", start]
                want = _walk_outcome(reference_walk, *args)
                assert _walk_outcome(first_countermodel, *args) == want, (m, n, start)
                if rng.random() < 0.5:
                    # a budget the walk passes on its way
                    charged = 20_000 if isinstance(want, str) else want[1]
                    args[4] = rng.randint(max(spent - 1, 0), charged)
                    want = _walk_outcome(reference_walk, *args)
                    assert _walk_outcome(first_countermodel, *args) == want, (m, n, start, args[4])
                cases += 1
                stopped += isinstance(want, str)
                resumed += bool(start)
                found += not isinstance(want, str) and want[0] is not None
                valid += not isinstance(want, str) and want[0] is None
    assert cases == 1152 and min(stopped, resumed, valid) >= 300 and found >= 150


def test_order_type_enumeration_counts():
    # 3 atoms: 13 weak orders, each with 0/1 gluing flags, minus the
    # impossible single-block glued-both-ways cases: 51 pinned weak orders
    names = ("A", "B", "C")
    orders = [ROOT]
    for _ in names:
        orders = [child for o in orders for child in extend(o)]
    reps = {tuple(sorted(representative(classes(o, names)).items())) for o in orders}
    assert len(orders) == len(reps) == pinned_orders(3) == 51  # no duplicates
    # an order is its top rank and each letter's class index
    for o in orders:
        c = classes(o, names)
        assert o == (len(c) - 1,) + tuple(class_ranks(c)[name] for name in names)


def test_extend_matches_the_class_insertion_reference():
    # children in the same order as inserting the name into the classes
    names = ["C1", "C2", "C3", "C4"]
    for n_admissible in (None, 3, 4):
        orders = [ROOT]
        for name in names:
            for o in orders:
                got = [classes(child, names) for child in extend(o, n_admissible)]
                assert got == reference_extend(classes(o, names), name, n_admissible)
            orders = [child for o in orders for child in extend(o, n_admissible)]


def test_lc_agrees_with_gm_n_plus_2_random():
    # the paper's finite reduction against the pinned-order walk: LC =
    # G_{n+2} for n atoms
    rng = random.Random(24)
    for _ in range(1500):
        f = _random_formula(rng, rng.randint(1, 4), LEAVES)
        assert reference_decide_LC(f).valid == decide_Gm(f, len(atoms(f)) + 2).valid


def test_decide_agrees_with_interpretation_enumeration():
    # two independent exhaustive paths: propositional valuations vs
    # interpretation tables driven through the semantics module
    from goedel_logics.semantics import entails_bruteforce
    from goedel_logics.goedelset import v_m
    rng = random.Random(25)
    zero_ary = [Atom("A"), Atom("B"), Bot()]
    for _ in range(300):
        f = _random_formula(rng, rng.randint(1, 4), zero_ary)
        for m in (2, 3, 4):
            assert decide_Gm(f, m).valid == entails_bruteforce([], f, v_m(m), 1).holds
