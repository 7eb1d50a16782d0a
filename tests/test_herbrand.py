"""Herbrand forms, the prover, certificates and traces."""

import dataclasses
import inspect
import itertools
import random
import signal
import sys
from fractions import Fraction as F

import pytest

from goedel_logics import herbrand
from goedel_logics.formula import (
    App, ArityConflictError, Atom, Exists, Forall, Or, Var, alpha_eq, balanced, parse,
    prefix_and_matrix, print_formula, print_raw,
)
from goedel_logics.goedelset import v_m
from goedel_logics.semantics import entails_bruteforce
from goedel_logics.decide import (
    BOT_MARK, BUDGET, TOP_MARK, BudgetError, classes, compile_prop, decide_Gm, decide_LC,
    first_countermodel,
)
from goedel_logics.herbrand import (
    Certificate, HerbrandProblem, NotPrenexError, Trace, TraceConstructionError,
    certificate_from_json, finite_bound, match_instance, prove_prenex, reassemble,
    verify_certificate, verify_trace,
)
from helpers import (
    ROOT, eval_prop, extend, open_order_refutes, random_closed_formula, random_prenex,
    reference_instances, reference_problem, reference_prove_prenex, representative, restrict,
)

C_DOWN_PRENEX = parse("exists x. forall y. (A(y) -> A(x))")
TRIVIAL = parse("exists x. exists y. (P(x) -> P(y))")


def test_herbrand_form_c_down():
    p = HerbrandProblem(C_DOWN_PRENEX)
    assert print_formula(p.existential_form) == "exists x1. A(f1(x1)) -> A(x1)"
    assert p.skolem_symbols == (("f1", 1),)


def test_herbrand_form_leading_universal():
    p = HerbrandProblem(parse("forall y. exists x. R(x,y)"))
    assert print_formula(p.existential_form) == "exists x1. R(x1,c1())"
    assert p.skolem_symbols == (("c1", 0),)


def test_herbrand_form_pure_existential_unchanged():
    p = HerbrandProblem(parse("exists x. P(x)"))
    assert alpha_eq(p.skolem_matrix, parse("P(x1)"))
    # the universe holds the one constant c0 and no padding symbol, so the
    # base is the one atom P(c0())
    assert p.hu_functions == {"c0": 0} and p.base_length == 1
    assert [print_raw(a) for a in p.base(5)] == ["P(c0())"]
    # a k-ary predicate has |constants|^k base atoms
    p = HerbrandProblem(parse("forall x. forall y. forall z. exists w. (S(x,y,z) | R(w,x) -> A)"))
    assert p.hu_functions == {"c1": 0, "c2": 0, "c3": 0}
    assert p.base_length == len(p.base(100)) == 27 + 9 + 1


def _time_out(signum, frame):
    raise TimeoutError("base() did not return within 5 s")


@pytest.mark.parametrize("text, wrong", [
    ("exists x. P(x)", 2),
    # 7 is passed between two blocks of the 37 atoms, never met at the end of one
    ("forall x. forall y. forall z. exists w. (S(x,y,z) | R(w,x) -> A)", 7),
])
def test_a_wrong_base_length_is_an_internal_error_not_a_hang(text, wrong):
    p = HerbrandProblem(parse(text))
    p.base_length = wrong
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.alarm(5)  # a regression to the endless loop fails, not hangs
    try:
        with pytest.raises(RuntimeError, match=f"not at base_length {wrong}"):
            p.base(100)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_herbrand_form_rejects_non_prenex():
    with pytest.raises(NotPrenexError):
        HerbrandProblem(parse("exists x. (A(x) -> forall y. A(y))"))
    with pytest.raises(NotPrenexError):
        HerbrandProblem(parse("P(x)"))


def test_base_enumeration_order():
    p = HerbrandProblem(C_DOWN_PRENEX)
    names = [print_raw(a) for a in p.base(4)]
    assert names == ["A(c0())", "A(f1(c0()))", "A(f1(f1(c0())))",
                     "A(f1(f1(f1(c0()))))"]
    # non-repetitive even when asked incrementally
    again = [print_raw(a) for a in p.base(6)]
    assert again[:4] == names and len(set(again)) == 6


def test_instances_need_all_atoms_inside():
    p = HerbrandProblem(C_DOWN_PRENEX)
    assert p.new_instances(1) == []
    inst = p.new_instances(2)
    assert len(inst) == 1
    combo, ground = inst[0]
    assert print_formula(ground) == "A(f1(c0())) -> A(c0())"
    assert combo == (App("c0"),)


def test_extend_counts_and_prune():
    kids = extend(ROOT)
    assert len(kids) == 3  # 2k-1 with k = 2
    four = extend(kids[1])
    assert len(four) == 5  # k = 3
    pruned = extend(kids[1], n_admissible=3)
    assert len(pruned) == 3  # the two gap children would make 4 classes


def test_extension_restricted_to_parent():
    root = classes(ROOT, [])
    assert root == ((BOT_MARK,), (TOP_MARK,))
    for k in extend(ROOT):
        assert restrict(classes(k, ["C1"]), {BOT_MARK, TOP_MARK}) == root


def test_representative_values():
    c = ((BOT_MARK,), ("C1",), (TOP_MARK,))
    assert representative(c)["C1"] == F(1, 2)
    c2 = ((BOT_MARK, "C1"), (TOP_MARK,))
    assert representative(c2)["C1"] == 0
    assert representative(c2)[TOP_MARK] == 1


def test_representative_agreement_with_all_fulfilling_valuations():
    # the single-representative check agrees with exhaustive small grids:
    # any valuation fulfilling the constraint makes the same instances 1
    p = HerbrandProblem(C_DOWN_PRENEX)
    rng = random.Random(6)
    frontier = [ROOT]
    atom_of = {}
    instances = []
    for level in range(1, 5):
        atom = p.base(level)[level - 1]
        atom_of[print_raw(atom)] = atom
        frontier = [k for o in frontier for k in extend(o)]
        instances += p.new_instances(level)
        index = {a: j for j, a in enumerate(p.base(level), 1)}
        programs = [compile_prop(g, index) for _, g in instances]
        sample = frontier if len(frontier) <= 40 else rng.sample(frontier, 40)
        for o in sample:
            verdicts = [prog(o, o[0]) == o[0] for prog in programs]
            for val in _fulfilling_valuations(classes(o, list(atom_of))):
                by_atom = {atom_of[name]: v for name, v in val.items() if name in atom_of}
                got = [eval_prop(g, by_atom) == 1 for _, g in instances]
                assert got == verdicts


def _fulfilling_valuations(c):
    """All valuations over uniform grids with <= len(c)+2 values that
    fulfill the constraint (same class -> equal, lower class -> less)."""
    k = len(c)
    for extra in range(0, 3):
        n_values = k + extra
        grid = [F(i, n_values - 1) for i in range(n_values)]
        for positions in itertools.combinations(range(1, n_values - 1), k - 2):
            chosen = [grid[0]] + [grid[i] for i in positions] + [grid[-1]]
            val = {}
            for cls, v in zip(c, chosen):
                for name in cls:
                    val[name] = v
            yield val


def test_prove_trivial_identity():
    res = prove_prenex(TRIVIAL, "uncountable", 4)
    assert res.status == "valid"
    assert res.level_reached <= 2
    assert [print_formula(d) for d in res.certificate.disjuncts] == \
        ["P(c0()) -> P(c0())"]
    assert verify_certificate(res.certificate)


def test_prove_c_down_finite_mode():
    res = prove_prenex(C_DOWN_PRENEX, "finite:3", 8)
    assert res.status == "valid"
    assert verify_certificate(res.certificate)


def test_prove_c_down_uncountable_unknown():
    res = prove_prenex(C_DOWN_PRENEX, "uncountable", 6)
    assert res.status == "unknown"
    assert res.level_reached == 6
    assert res.certificate is None
    # the open branch explains itself: every instance stays below 1
    assert open_order_refutes(res)


THREE_QUANTIFIER = parse("exists x. forall y. exists z. ((A(y) -> B(x)) & (B(z) -> A(y)))")


def test_first_open_branch_answers_unknown_within_budget():
    # the breadth-first tree needs more than its 200,000 nodes to finish
    # level 8; the search of level 8 stops at its first countermodel
    with pytest.raises(BudgetError, match="budget of 200000 nodes"):
        reference_prove_prenex(THREE_QUANTIFIER, "uncountable", 8)
    res = prove_prenex(THREE_QUANTIFIER, "uncountable", 8)
    assert (res.status, res.level_reached) == ("unknown", 8)
    assert open_order_refutes(res)
    deep = prove_prenex(THREE_QUANTIFIER, "uncountable", 12)
    assert (deep.status, deep.level_reached) == ("unknown", 12)
    assert open_order_refutes(deep)


def test_budget_error_names_points_charged_and_level():
    # one budget of points runs across the levels' searches, each charged
    # only the points its walk visits from the last level's countermodel on
    with pytest.raises(BudgetError) as e:
        prove_prenex(THREE_QUANTIFIER, "uncountable", 8, budget=20)
    assert str(e.value) == ("Herbrand level 6, 5 of 6 letters placed: "
                            "22 points charged exceed the budget of 20")
    assert prove_prenex(THREE_QUANTIFIER, "uncountable", 8, budget=30).status == "unknown"


def test_chain_levels_resume_the_last_countermodel():
    # each level of the chain starts where the last one stopped, so level L
    # is charged about L points, not the L^2/2 of a walk from the first point
    # (1,333,702 in all up to level 200)
    res = prove_prenex(C_DOWN_PRENEX, "uncountable", 200, budget=20302)
    assert (res.status, res.level_reached) == ("unknown", 200)
    with pytest.raises(BudgetError, match="Herbrand level 200, 199 of 200 letters placed: "
                                          "20302 points charged exceed the budget of 20301"):
        prove_prenex(C_DOWN_PRENEX, "uncountable", 200, budget=20301)
    # every base atom is named without a recursive print: C_j is A(f1^(j-1)(c0()))
    assert res.open_order[:2] == (("A(c0())", BOT_MARK), ("A(f1(c0()))",))
    assert res.open_order[-2:] == ((f"A({'f1(' * 199}c0(){')' * 199})",), (TOP_MARK,))
    assert len(res.open_order) == 201  # bot = C_1 < C_2 < ... < C_200 < top
    deep = prove_prenex(C_DOWN_PRENEX, "uncountable", 400)
    assert (deep.status, deep.level_reached, len(deep.open_order)) == ("unknown", 400, 401)


def test_levels_past_the_letter_guard_answer_unknown():
    # level L searches L letters, and only the points charged bound the
    # walk: levels past 21 letters, the bit length of the default budget,
    # answer "unknown" as the lower ones do
    assert (1 << 21) <= BUDGET < (1 << 22)
    for f, level in ((THREE_QUANTIFIER, 24), (C_DOWN_PRENEX, 100)):
        res = prove_prenex(f, "uncountable", level)
        assert (res.status, res.level_reached) == ("unknown", level)
        assert open_order_refutes(res)


def test_deep_walk_takes_no_frame_per_letter():
    # the chain opens one level per base atom, and level L's walk places L
    # letters from its own stack, so a recursion limit far below the level
    # (lowered here to keep it quick) still answers "unknown"
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        res = prove_prenex(C_DOWN_PRENEX, "uncountable", 400)
    finally:
        sys.setrecursionlimit(old)
    assert (res.status, res.level_reached, len(res.open_order)) == ("unknown", 400, 401)


def test_finite_herbrand_base_gives_invalid_or_valid():
    # with no function symbol taking an argument the base ends, and a
    # branch open at its last atom is a countermodel order
    for text, mode, level in (("A | ~A", "uncountable", 1), ("A | ~A", "finite:3", 1),
                              ("exists x. (A -> B)", "uncountable", 2),
                              ("exists x. (A -> B)", "finite:3", 2),
                              ("exists x. bot", "uncountable", 0),
                              ("exists x. bot", "finite:3", 0),
                              ("exists x. (P(x) | ~P(x))", "uncountable", 1),
                              ("forall x. forall y. exists z. (R(x,z) -> R(z,y))",
                               "uncountable", 4)):
        p = HerbrandProblem(parse(text))
        assert len(p.base(level + 5)) == level == p.base_length
        res = prove_prenex(parse(text), mode, 8)
        assert (res.status, res.level_reached, res.certificate) == ("invalid", level, None)
        assert open_order_refutes(res), (text, mode)
    # two classes make A | ~A classical, over a letter or the base P(c0())
    assert prove_prenex(parse("A | ~A"), "finite:2", 8).status == "valid"
    assert prove_prenex(parse("exists x. (P(x) | ~P(x))"), "finite:2", 8).status == "valid"
    res = prove_prenex(parse("forall x. forall y. exists z. (R(x,z) -> R(z,y))"), "finite:2", 8)
    assert (res.status, res.level_reached) == ("valid", 4)
    # at a bound below the base's end the answer stays unknown
    assert prove_prenex(parse("exists x. (A -> B)"), "uncountable", 1).status == "unknown"
    for mode in ("uncountable", "finite:3"):
        res = prove_prenex(parse("forall x. (A -> B) | (B -> A)"), mode, 8)
        assert (res.status, res.level_reached) == ("valid", 2)
        assert verify_certificate(res.certificate)


def _forall_exists(rng):
    """A random function-free closed prenex formula whose universals all
    come before its existentials: its Herbrand universe is its constants."""
    n = rng.randint(1, 3)
    f = random_prenex(rng, n, ["P", "Q"][:rng.randint(1, 2)], rng.randint(2, 5))
    prefix, matrix = prefix_and_matrix(f)
    universals = rng.randint(0, n)
    for i, (_, var) in reversed(list(enumerate(prefix))):
        matrix = (Forall if i < universals else Exists)(var, matrix)
    return matrix


def test_function_free_forall_exists_formulas_are_decided():
    # with constants alone the levels end with the base: the verdict at the
    # base's last level is validity over the universes of at most
    # |constants| elements, in V_n for finite:n and in V_{atoms+2}, which
    # realizes every order of the atoms, for uncountable mode; a base of 7
    # atoms takes the brute force seconds, so the bases here hold at most 6
    rng = random.Random(28)
    verdicts = {"valid": 0, "invalid": 0}
    wide = 0  # formulas over two constants or more
    for _ in range(600):
        f = _forall_exists(rng)
        p = HerbrandProblem(f)
        constants = [name for name, k in p.hu_functions.items() if k == 0]
        assert len(constants) == len(p.hu_functions)
        assert p.base_length == sum(len(constants) ** k for k in p.predicates.values())
        if p.base_length > 6:
            continue
        wide += len(constants) > 1
        for mode in ("uncountable", "finite:2", "finite:3"):
            res = prove_prenex(f, mode, p.base_length)
            n = finite_bound(mode) or p.base_length + 2
            holds = entails_bruteforce([], f, v_m(n), len(constants)).holds
            assert res.status == ("valid" if holds else "invalid"), (print_formula(f), mode)
            if res.status == "invalid":
                assert res.level_reached == p.base_length and open_order_refutes(res)
            verdicts[res.status] += 1
    assert min(verdicts.values()) >= 700 and wide >= 100


def test_prover_is_deterministic():
    a = prove_prenex(C_DOWN_PRENEX, "finite:3", 8)
    b = prove_prenex(C_DOWN_PRENEX, "finite:3", 8)
    assert a.certificate.dumps() == b.certificate.dumps()


def test_finite_mode_subsumes_uncountable():
    # every uncountable-mode proof also closes in finite mode at the level
    corpus = [TRIVIAL,
              parse("exists x. exists y. ((P(x) & Q(x)) -> (P(y) | Q(y)))"),
              parse("forall x. (P(x) -> P(x))"),
              parse("forall x. exists y. (P(x) -> P(y))")]
    for f in corpus:
        u = prove_prenex(f, "uncountable", 5)
        if u.status != "valid":
            continue
        fin = prove_prenex(f, "finite:4", 5)
        assert fin.status == "valid"
        assert fin.level_reached <= u.level_reached


def test_extension_coherence():
    # children's representative valuations restricted to the parent's
    # atoms fulfill the parent constraint
    p = HerbrandProblem(C_DOWN_PRENEX)
    names = [print_raw(a) for a in p.base(2)]
    for order in extend(ROOT):
        parent = classes(order, names)
        for child in extend(order):
            rep = representative(classes(child, names))
            for x in _names(parent):
                for y in _names(parent):
                    px = _class_index(parent, x)
                    py = _class_index(parent, y)
                    assert (px <= py) == (rep[x] <= rep[y])


def _names(c):
    return [n for cls in c for n in cls]


def _class_index(c, name):
    for i, cls in enumerate(c):
        if name in cls:
            return i
    raise KeyError(name)


def test_certificate_json_roundtrip():
    res = prove_prenex(C_DOWN_PRENEX, "finite:3", 8)
    text = res.certificate.dumps()
    cert = certificate_from_json(text)
    assert verify_certificate(cert)
    assert [print_formula(d) for d in cert.disjuncts] == \
        [print_formula(d) for d in res.certificate.disjuncts]
    assert cert.dumps() == text
    assert certificate_from_json(text) == res.certificate


def test_forged_certificate_rejected():
    # an instance of the matrix whose disjunction is not valid
    bad = Certificate(C_DOWN_PRENEX, "uncountable", (parse("A(f1(c0())) -> A(c0())"),))
    assert not verify_certificate(bad)


def test_long_disjunction_verifies():
    # the disjunction is joined as a balanced tree, not a 1,200-deep chain
    cert = Certificate(TRIVIAL, "uncountable", (parse("P(c0()) -> P(c0())"),) * 1200)
    assert verify_certificate(cert)


def test_certificate_past_the_budgets_bit_length_verifies():
    # 25 disjuncts read 25 letters, more than the default budget's bit
    # length; nothing refuses them up front, and the walk prunes at once
    terms = ["c0()"]
    while len(terms) < 25:
        terms.append(f"f({terms[-1]})")
    cert = Certificate(parse("exists x. (P(f(x)) -> P(f(x)))"), "uncountable",
                       tuple(parse(f"P(f({t})) -> P(f({t}))") for t in terms))
    assert verify_certificate(cert)
    assert verify_certificate(certificate_from_json(cert.dumps()))


def test_non_instance_disjunct_rejected():
    # a valid disjunct that is no instance of the Herbrand matrix
    forged = Certificate(C_DOWN_PRENEX, "uncountable", (parse("B -> B"),))
    assert not verify_certificate(forged)
    assert not verify_certificate(certificate_from_json(forged.to_json()))
    with pytest.raises(NotPrenexError):
        verify_certificate(Certificate(parse("A(x)"), "uncountable", (parse("A(x)"),)))


def test_disjunct_with_a_free_variable_rejected():
    # a disjunct must be a ground instance: P(y) | ~P(y) matches the matrix
    # with x1 := y, and P(x1) | ~P(x1) with x1 := x1, but neither is ground
    f = parse("exists x. P(x) | ~P(x)")
    assert verify_certificate(Certificate(f, "finite:2", (parse("P(c0()) | ~P(c0())"),)))
    for text in ("P(y) | ~P(y)", "P(x1) | ~P(x1)"):
        cert = Certificate(f, "finite:2", (parse(text),))
        assert not verify_certificate(cert), text
        assert not verify_certificate(certificate_from_json(cert.dumps())), text
        with pytest.raises(TraceConstructionError, match="not a ground instance"):
            match_instance(HerbrandProblem(f), parse(text))


def test_match_instance_and_mismatch():
    p = HerbrandProblem(C_DOWN_PRENEX)
    combo = match_instance(p, parse("A(f1(c0())) -> A(c0())"))
    assert combo == (App("c0"),)
    with pytest.raises(TraceConstructionError):
        match_instance(p, parse("A(c0()) -> A(f1(c0()))"))


def test_reassemble_trivial_two_exists():
    res = prove_prenex(TRIVIAL, "uncountable", 4)
    tr = reassemble(res.certificate)
    rules = [s.rule for s in tr.steps if s.kind == "rule"]
    assert rules == [5, 5]
    assert alpha_eq(tr.final, TRIVIAL)
    assert verify_trace(tr, res.certificate)


def test_reassemble_c_down_chain():
    res = prove_prenex(C_DOWN_PRENEX, "finite:3", 8)
    tr = reassemble(res.certificate)
    rules = [s.rule for s in tr.steps if s.kind == "rule"]
    assert 4 in rules and 5 in rules and 3 in rules  # re-quantification + contraction
    assert alpha_eq(tr.final, C_DOWN_PRENEX)
    assert verify_trace(tr, res.certificate)
    # deskolemization happened outermost-first
    desks = [s for s in tr.steps if s.kind == "deskolem"]
    sizes = [sum(1 for _ in _iter_term(s.term)) for s in desks]
    assert sizes == sorted(sizes, reverse=True)


def _iter_term(t):
    yield t
    if hasattr(t, "args"):
        for a in t.args:
            yield from _iter_term(a)


def test_reassemble_duplicate_disjuncts_contract():
    # hand-build a certificate with a duplicated disjunct
    res = prove_prenex(TRIVIAL, "uncountable", 4)
    cert = res.certificate
    dup = Certificate(cert.formula, cert.mode, cert.disjuncts + cert.disjuncts)
    tr = reassemble(dup)
    rules = [s.rule for s in tr.steps if s.kind == "rule"]
    assert 3 in rules
    assert alpha_eq(tr.final, TRIVIAL)
    assert verify_trace(tr, dup)


def test_reassemble_rejects_foreign_formula():
    res = prove_prenex(TRIVIAL, "uncountable", 4)
    with pytest.raises(TraceConstructionError):
        reassemble(res.certificate, C_DOWN_PRENEX)
    # an empty certificate has nothing to reassemble
    with pytest.raises(TraceConstructionError):
        reassemble(Certificate(parse("exists x. (P(x) -> P(x))"), "uncountable", ()))


def test_reassemble_round_trip_random_prenex():
    # every certificate that verifies reassembles into a trace that verifies
    rng = random.Random(2024)
    traced = 0
    for i in range(300):
        f = random_prenex(rng, 2 + i % 3, ["P", "Q"], rng.randint(2, 4))
        for mode in ("uncountable", "finite:3"):
            try:
                res = prove_prenex(f, mode, 5, budget=20000)
            except BudgetError:
                continue
            if res.status == "valid" and verify_certificate(res.certificate):
                tr = reassemble(res.certificate)
                assert alpha_eq(tr.final, f), print_formula(f)
                assert verify_trace(tr, res.certificate), print_formula(f)
                traced += 1
    assert traced >= 100


PINNED = parse("forall x1. exists x2. forall x3. "
               "Q(x3) | Q(x2) | (Q(x3) -> Q(x1) & A) | (Q(x3) -> Q(x2))")


def test_reassemble_leading_universal_in_two_disjuncts():
    # the Skolem constant of the leading universal occurs in both
    # disjuncts; its forall is introduced once, after they are contracted
    res = prove_prenex(PINNED, "finite:3", 8)
    assert res.status == "valid" and res.level_reached == 4
    assert len(res.certificate.disjuncts) == 2 and verify_certificate(res.certificate)
    tr = reassemble(res.certificate)
    assert [(s.rule, s.at) for s in tr.steps if s.kind == "rule"] == [
        (4, 1), (5, 1), (4, 0), (5, 0), (3, 1), (4, 0)]
    assert alpha_eq(tr.final, PINNED)
    assert verify_trace(tr, res.certificate)


def test_verify_trace_rejects_mutations():
    res = prove_prenex(PINNED, "finite:3", 8)
    cert = res.certificate
    steps = reassemble(cert).steps
    eigen = [s.var for s in steps if s.kind == "deskolem"]
    mutants = [steps[:i] + steps[i + 1:] for i in range(len(steps))]  # a dropped step
    for i, s in enumerate(steps):
        if s.kind != "rule":
            continue
        changed = [dataclasses.replace(s, rule=r) for r in (3, 4, 5, 6, 7) if r != s.rule]
        if s.rule == 4:
            changed += [dataclasses.replace(s, var=v) for v in eigen if v != s.var]
        if s.rule != 3:  # dropping either of two equal disjuncts is the same step
            changed += [dataclasses.replace(s, at=a)
                        for a in range(len(steps[i - 1].parts)) if a != s.at]
        mutants += [steps[:i] + (m,) + steps[i + 1:] for m in changed]
    assert len(mutants) > 25
    for steps in mutants:
        assert not verify_trace(Trace(steps), cert)


def test_mixed_prefix_reassembly():
    f = parse("forall x. exists y. (P(x) -> P(y))")
    res = prove_prenex(f, "uncountable", 4)
    assert res.status == "valid"
    tr = reassemble(res.certificate)
    assert alpha_eq(tr.final, f)
    assert verify_trace(tr, res.certificate)


def test_certificate_soundness_sampled():
    # valid certificates' formulas evaluate to 1 under random finite
    # interpretations of the claimed class
    from goedel_logics.goedelset import v_m, unit_interval, sample_finite
    from goedel_logics.semantics import evaluate
    from helpers import random_interpretation
    rng = random.Random(31)
    res = prove_prenex(C_DOWN_PRENEX, "finite:3", 8)
    for _ in range(200):
        I = random_interpretation(rng, v_m(3), rng.randint(1, 3), {"A": 1})
        assert evaluate(C_DOWN_PRENEX, I) == 1
    res_t = prove_prenex(TRIVIAL, "uncountable", 4)
    for _ in range(200):
        V = sample_finite(unit_interval(), rng.randint(2, 6))
        I = random_interpretation(rng, V, rng.randint(1, 3), {"P": 1})
        assert evaluate(TRIVIAL, I) == 1


def test_valid_certificate_formula_holds_under_omega_witnesses():
    # uncountable-mode theorems stay 1 under the omega corpus, for the
    # formulas the tail evaluator's one-generic-variable shape covers
    # (TRIVIAL itself nests two generic tail quantifiers and is exempt)
    from goedel_logics.semantics import Harmonic, OmegaInterpretation, eval_omega
    from goedel_logics.goedelset import unit_interval, v_down
    from fractions import Fraction as F
    for text in ["forall x. (P(x) -> P(x))",
                 "exists x. (P(x) -> P(x))",
                 "forall x. ((P(x) & P(x)) -> P(x))"]:
        f = parse(text)
        res = prove_prenex(f, "uncountable", 4)
        assert res.status == "valid"
        assert verify_certificate(res.certificate)
        for V, d in ((unit_interval(), Harmonic(F(0), 1, 0)),
                     (v_down(), Harmonic(F(0), 1, 0)),
                     (unit_interval(), Harmonic(F(1, 2), -1, 1))):
            I = OmegaInterpretation((), V, {}, {"P": {("*",): d}})
            I.validate()
            assert eval_omega(f, I) == 1


def test_certificate_atoms_lie_in_the_base_reached():
    # every atom of the disjunction is one of C_1..C_level_reached
    from goedel_logics.formula import atoms as formula_atoms
    for f, mode in ((C_DOWN_PRENEX, "finite:3"), (TRIVIAL, "uncountable")):
        res = prove_prenex(f, mode, 8)
        base = set(res.problem.base(res.level_reached))
        for d in res.certificate.disjuncts:
            assert set(formula_atoms(d)) <= base


def test_vacuous_quantifier_still_proves():
    # a bound variable absent from the matrix gets the smallest term
    f = parse("exists x. (P -> P)")
    res = prove_prenex(f, "uncountable", 3)
    assert res.status == "valid"
    assert verify_certificate(res.certificate)
    tr = reassemble(res.certificate)
    assert alpha_eq(tr.final, f)
    assert verify_trace(tr, res.certificate)
    g = parse("forall x. exists y. (Q(x) -> Q(x))")
    res2 = prove_prenex(g, "uncountable", 3)
    assert res2.status == "valid"
    assert verify_trace(reassemble(res2.certificate), res2.certificate)


def test_finite_mode_certificate_implies_finite_validity():
    # an independent cross-check: finite(3) certificates come with
    # brute-force validity over the three-valued set at desk scale
    from goedel_logics.semantics import entails_bruteforce
    from goedel_logics.goedelset import v_m
    res = prove_prenex(C_DOWN_PRENEX, "finite:3", 8)
    assert res.status == "valid"
    assert entails_bruteforce([], C_DOWN_PRENEX, v_m(3), 2).holds
    disjunction = res.certificate.disjuncts[0]
    for d in res.certificate.disjuncts[1:]:
        disjunction = Or(disjunction, d)
    assert entails_bruteforce([], disjunction, v_m(3), 1).holds


def test_matrix_level_disjunction_not_oversplit():
    # the matrix itself contains a top-level |, which must not confuse
    # the trace verifier's disjunct accounting (regression)
    f = parse("forall x. forall y. ((P(x) -> P(y)) | (P(y) -> P(x)))")
    res = prove_prenex(f, "uncountable", 6)
    assert res.status == "valid"
    assert verify_certificate(res.certificate)
    tr = reassemble(res.certificate)
    rules = [s.rule for s in tr.steps if s.kind == "rule"]
    assert rules == [4, 4]
    assert verify_trace(tr, res.certificate)


def test_dual_chain_only_finite_mode():
    # the mirrored chain formula is provable in every finite-valued mode
    # but not over an uncountable set at desk levels
    f = parse("exists x. forall y. (A(x) -> A(y))")
    fin = prove_prenex(f, "finite:3", 8)
    assert fin.status == "valid"
    assert verify_certificate(fin.certificate)
    assert verify_trace(reassemble(fin.certificate), fin.certificate)
    unk = prove_prenex(f, "uncountable", 6)
    assert unk.status == "unknown"



PRENEX_CORPUS = [
    C_DOWN_PRENEX, TRIVIAL,
    parse("exists x. forall y. (A(x) -> A(y))"),
    parse("exists x. forall y. exists z. ((A(y) -> B(x)) & (B(z) -> A(y)))"),
    parse("exists x. forall y. (P(x) | Q(y) -> (P(x) -> A) | (P(x) | Q(y)) | Q(y))"),
    parse("forall x. exists y. (P(x) -> P(y))"),
    parse("forall x. forall y. ((P(x) -> P(y)) | (P(y) -> P(x)))"),
    parse("exists x. exists y. ((P(x) & Q(x)) -> (P(y) | Q(y)))"),
    parse("exists x. (P -> P)"),
    parse("forall x. exists y. (Q(x) -> Q(x))"),
    parse("exists x. (bot -> bot)"),
    parse("exists x. bot"),
    parse("forall x. (A -> B) | (B -> A)"),
]


def _outcome(prover, f, mode, max_level, budget):
    """The prover's result, or None when it ran out of budget."""
    try:
        return prover(f, mode, max_level, budget)
    except BudgetError:
        return None


def _check_against_reference(f, mode, max_level, budget):
    """The prover's status and level equal the breadth-first reference
    tree's whenever both finish within the budget (points for the prover,
    nodes for the tree).  Every certificate verifies and holds instances of
    the Herbrand matrix alone; an open order refutes every instance."""
    want = _outcome(reference_prove_prenex, f, mode, max_level, budget)
    res = _outcome(prove_prenex, f, mode, max_level, budget)
    if res is None:
        return None, False
    if want is not None:
        assert (res.status, res.level_reached) == (want.status, want.level_reached), (
            print_formula(f), mode, max_level, budget)
    if res.status == "valid":
        assert verify_certificate(res.certificate), print_formula(f)
        for d in res.certificate.disjuncts:
            match_instance(res.problem, d)
    else:
        assert open_order_refutes(res), print_formula(f)
    return res.status, want is not None


def test_new_instances_are_the_full_product_restricted():
    # the instances new at a level are the reference product's instances
    # that contain C_level, with the first constant for absent variables,
    # in the product's order
    from goedel_logics.formula import atoms, free_vars
    for f in PRENEX_CORPUS[:10]:
        p = HerbrandProblem(f)
        filler = p.terms_up_to(1)[0]
        absent = [v not in free_vars(p.skolem_matrix) for v in p.existential_vars]
        for level in range(0, 6):
            if p.base_length is not None and level > p.base_length:
                assert p.new_instances(level) == []
                break
            want = [(combo, g) for combo, g in reference_instances(p, level)
                    if (level == 0 or p.base(level)[-1] in atoms(g))
                    and all(t == filler for t, a in zip(combo, absent) if a)]
            assert p.new_instances(level) == want, (print_formula(f), level)


def test_prover_matches_reference_on_corpus():
    for f in PRENEX_CORPUS:
        for mode in ("uncountable", "finite:2", "finite:3", "finite:5"):
            for max_level in (0, 3, 6):
                _check_against_reference(f, mode, max_level, 30_000)


MODES = ["uncountable", "finite:2", "finite:3", "finite:4", "finite:5"]


def test_prover_matches_reference_on_random_prenex():
    # status and level are those of the tree that checks every instance at
    # every node
    rng = random.Random(61)
    closed = compared = 0
    for _ in range(200):
        f = random_prenex(rng, rng.randint(1, 3), ["P", "Q"][:rng.randint(1, 2)],
                          rng.randint(2, 5))
        args = (f, rng.choice(MODES), rng.randint(0, 6), rng.choice([40, 400, 4000]))
        status, both = _check_against_reference(*args)
        closed += status == "valid"
        compared += both
    assert closed >= 40 and compared >= 100


def test_valid_at_a_level_is_the_decision_of_its_disjunction():
    # by the Herbrand theorem for prenex formulas: valid at level L exactly
    # when the disjunction of every instance up to L is valid (LC in
    # uncountable mode, G_n in finite:n) and the one up to L - 1 is not
    rng = random.Random(83)

    def valid_up_to(problem, level, n):
        grounds = [g for _, g in reference_instances(problem, level)]
        if not grounds:
            return False
        disjunction = balanced(Or, grounds)
        return (decide_LC(disjunction) if n is None else decide_Gm(disjunction, n)).valid

    closed = 0
    for i in range(150):
        f = random_prenex(rng, rng.randint(1, 3), ["P", "Q"][:rng.randint(1, 2)],
                          rng.randint(2, 5))
        mode = MODES[i % len(MODES)]
        res = prove_prenex(f, mode, rng.randint(0, 5))
        level, n = res.level_reached, finite_bound(mode)
        for k in range(level + 1):
            want = res.status == "valid" and k == level
            assert valid_up_to(res.problem, k, n) == want, (print_formula(f), mode, k)
        closed += res.status == "valid"
    assert closed >= 30


def _problem_fields(p):
    return {"original": p.original, "matrix": p.matrix, "skolem_matrix": p.skolem_matrix,
            "prefix": p.prefix, "universal_terms": p.universal_terms,
            "hu_functions": p.hu_functions, "predicates": p.predicates,
            "base_length": p.base_length}


def _built_or_error(build, f):
    try:
        return build(f)
    except (NotPrenexError, ArityConflictError) as e:
        return type(e), str(e)


def test_one_pass_problem_equals_the_reference_construction():
    # HerbrandProblem reads the formula in one pass; every field, and every
    # error and its message, is that of normalize, prefix_and_matrix,
    # signature and substitute
    x, y = Var("x"), Var("y")
    cases = [parse(text) for text in (
        "forall x. exists x. P(x)",                      # a shadowed binder
        "exists x. forall x. forall y. P(x)",
        "forall y. forall z. exists x. P(x)",            # universals absent from the matrix
        "forall u. exists x. forall v. (A -> B | P(x))",
        "A | ~A", "exists x. (A -> B)", "exists x. bot",  # 0-ary letters
        # constants alone: 3^3 + 3^2 + 3^0 base atoms
        "forall x. forall y. forall z. exists w. (S(x, y, z) | R(w, x) -> A)",
        "forall x. exists y. (R(f(x), c1()) -> R(y, f(c1())))",
        "forall x. exists y. forall z. (Q(g(x, y), z) | (Q(c(), z) -> P(y)))",
        "P(x)", "forall x. P(y)", "exists x. (P(x) -> forall y. P(y))",  # open, not prenex
        "exists x. (P(x) -> forall y. P(z))",
    )]
    cases += [Exists("x", Or(Atom("P", (x,)), Atom("P", (x, x)))),  # arity conflicts
              Forall("x", Or(Atom("P", (App("f", (x,)),)), Atom("P", (App("f", (x, x)),)))),
              Forall("y", Or(Atom("P", (y,)), Atom("P", (x, y))))]  # open and a conflict
    rng = random.Random(17)
    cases += [random_prenex(rng, rng.randint(1, 4), ["P", "Q"], rng.randint(1, 5))
              for _ in range(300)]
    cases += [random_closed_formula(rng, 4) for _ in range(200)]
    errors = 0
    for f in cases:
        want = _built_or_error(reference_problem, f)
        got = _built_or_error(lambda g: _problem_fields(HerbrandProblem(g)), f)
        assert got == want, print_raw(f)
        errors += isinstance(want, tuple)
    assert errors >= 50


def _answer(f, mode, max_level):
    try:
        res = prove_prenex(f, mode, max_level)
    except BudgetError:
        return None
    cert = res.certificate.dumps() if res.certificate else None
    return res.status, res.level_reached, cert, res.open_order


def test_resuming_changes_no_answer(monkeypatch):
    # each level's walk starts at the last level's countermodel; a walk from
    # the first point at every level gives byte-identical answers
    rng = random.Random(2025)
    cases = [(random_prenex(rng, rng.randint(1, 3), ["P", "Q"][:rng.randint(1, 2)],
                            rng.randint(2, 5)), MODES[i % len(MODES)], i % 8)
             for i in range(1500)]
    resumed = [_answer(*case) for case in cases]
    monkeypatch.setattr(herbrand, "first_countermodel",
                        lambda *args, start: first_countermodel(*args))
    fresh = [_answer(*case) for case in cases]
    assert resumed == fresh
    statuses = [a[0] for a in resumed if a is not None]
    assert statuses.count("valid") >= 300 and statuses.count("unknown") >= 300
