"""Hilbert proof checking: corpus acceptance, mutations, soundness."""

import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from goedel_logics import proofkit
from goedel_logics.formula import (
    App, Atom, Bot, And, Or, Imp, Forall, Exists, FormulaError, Neg, Var, parse,
    print_formula,
)
from goedel_logics.proofkit import (
    Builder, CheckResult, Derivation, ProofError, Step, check, format_derivation,
    match_axiom, parse_derivation, soundness_sample, system_axioms,
)
from goedel_logics.goedelset import v_m

from corpus import CORPUS, P_c, P_x, Q_c, Q_x, d_modus_ponens
from helpers import reference_split_bindings, reference_step_line

V3, V4 = v_m(3), v_m(4)


# --- axiom matching ----------------------------------------------------------


def test_match_lin_instance():
    cand = parse("(P(c()) -> Q(c())) | (Q(c()) -> P(c()))")
    assert match_axiom("LIN", cand, {"A": P_c, "B": Q_c}, "H")
    assert not match_axiom("LIN", cand, {"A": Q_c, "B": P_c}, "H")


def test_match_qs_freshness_side_condition():
    from goedel_logics.proofkit import SideConditionError
    with pytest.raises(SideConditionError):
        match_axiom("QS", parse("top"), {"A": P_x, "C": Q_x, "x": "x"}, "H")


def test_match_fin3():
    cand = parse("(top -> P(c())) | (P(c()) -> Q(c())) | (Q(c()) -> bot)")
    assert match_axiom("FIN", cand, {"A1": P_c, "A2": Q_c}, "H3")


def test_match_i11_builds_substitution():
    cand = parse("(forall x. P(x)) -> P(c())")
    assert match_axiom("I11", cand, {"A": P_x, "x": "x", "t": App("c")}, "H")


def test_match_alpha_equivalence():
    cand = parse("(forall y. P(y)) -> P(c())")
    assert match_axiom("I11", cand, {"A": P_x, "x": "x", "t": App("c")}, "H")


def test_axioms_by_system():
    assert "LIN" not in system_axioms("IL")
    assert "ISO_0" in system_axioms("H0")
    assert "FIN" in system_axioms("H4")
    assert "ISO_0" not in system_axioms("H4")
    # n in H<n> is at least 2, in ASCII digits that int() takes
    for system in ("H1", "H\u0663", "H" + "9" * 5000):
        with pytest.raises(ProofError):
            system_axioms(system)
        r = check(replace(d_modus_ponens(), system=system))
        assert not r.accepted and r.step is None and r.reason.startswith("unknown system")


# each schema pinned against the paper, with A := P(x), B := Q(y), C := R,
# x := x, t := c() and A1, A2, A3 := P(c()), Q(c()), R: premises, conclusion
SCHEMA_INSTANCES = [
    ("H", "I1", ["P(x)", "P(x) -> Q(y)"], "Q(y)"),
    ("H", "I2", ["P(x) -> Q(y)", "Q(y) -> R"], "P(x) -> R"),
    ("IL", "I3a", [], "P(x) | P(x) -> P(x)"),
    ("IL", "I3b", [], "P(x) -> P(x) & P(x)"),
    ("IL", "I4a", [], "P(x) -> P(x) | Q(y)"),
    ("IL", "I4b", [], "P(x) & Q(y) -> P(x)"),
    ("IL", "I5a", [], "P(x) | Q(y) -> Q(y) | P(x)"),
    ("IL", "I5b", [], "P(x) & Q(y) -> Q(y) & P(x)"),
    ("H", "I6", ["P(x) -> Q(y)"], "R | P(x) -> R | Q(y)"),
    ("H", "I7", ["P(x) & Q(y) -> R"], "P(x) -> Q(y) -> R"),
    ("H", "I8", ["P(x) -> Q(y) -> R"], "P(x) & Q(y) -> R"),
    ("IL", "I9", [], "bot -> P(x)"),
    ("H", "I10", ["Q(y) -> P(x)"], "Q(y) -> forall x1. P(x1)"),
    ("IL", "I11", [], "(forall x1. P(x1)) -> P(c())"),
    ("IL", "I12", [], "P(c()) -> exists x1. P(x1)"),
    ("H", "I13", ["P(x) -> Q(y)"], "(exists x1. P(x1)) -> Q(y)"),
    ("H", "QS", [], "(forall x1. R | P(x1)) -> R | (forall x2. P(x2))"),
    ("H", "LIN", [], "(P(x) -> Q(y)) | (Q(y) -> P(x))"),
    ("H0", "ISO_0", [], "(forall x1. ~~P(x1)) -> ~~(forall x2. P(x2))"),
    ("H2", "FIN", [], "(top -> P(c())) | ~P(c())"),
    ("H3", "FIN", [], "(top -> P(c())) | (P(c()) -> Q(c())) | ~Q(c())"),
    ("H4", "FIN", [], "(top -> P(c())) | (P(c()) -> Q(c())) | (Q(c()) -> R) | ~R"),
]


@pytest.mark.parametrize("system, name, premises, conclusion", SCHEMA_INSTANCES)
def test_schema_instance_is_the_papers_formula(system, name, premises, conclusion):
    b = {"A": P_x, "B": parse("Q(y)"), "C": parse("R"), "x": "x", "t": App("c"),
         "A1": P_c, "A2": Q_c, "A3": parse("R")}
    have_premises, have = proofkit._schemas(system)[name](b)
    assert [print_formula(p) for p in have_premises] == premises
    assert print_formula(have) == conclusion
    if not premises:
        assert print_formula(system_axioms(system)[name](b)) == conclusion


def test_every_schema_is_pinned():
    pinned = {name for _, name, _, _ in SCHEMA_INSTANCES}
    assert pinned == set(proofkit._schemas("H0")) | {"FIN"}


def test_fin_is_read_from_the_bindings_lazily_in_n():
    system = "H" + "9" * 30
    assert "FIN" in system_axioms(system)
    assert check(replace(d_modus_ponens(), system=system)).accepted
    fin = Step(parse("(top -> P(c())) | (P(c()) -> Q(c())) | ~Q(c())"), "axiom", "FIN", (),
               (("A1", P_c), ("A2", Q_c)))
    r = check(Derivation(system, (), (fin,)))
    assert (r.accepted, r.step, r.reason) == (False, 1, "missing formula binding A3")


@pytest.mark.parametrize("value", ["P(x)", "", "forall"])
def test_a_variable_binding_is_a_variable_name(value):
    d = parse_derivation("system: H\n1. (forall y. P(x)) -> P(x) ; "
                         f"axiom I11 [A := P(x), x := {value}, t := c()]\n")
    r = check(d)
    assert (r.accepted, r.step, r.reason) == (False, 1, "binding x is not a variable")


# --- corpus ------------------------------------------------------------------


def test_corpus_accepted():
    for name, d in CORPUS:
        r = check(d)
        assert r.accepted, f"{name}: step {r.step}: {r.reason}"


def test_corpus_soundness_sampled():
    # brute-force inf(premises) <= conclusion over V3 and V4, |U| <= 2.
    # FIN(3) is only valid for three truth values, so H3 derivations are
    # sampled over V3 alone; ISO_0 holds over every finite set.
    for name, d in CORPUS:
        sets = (V3,) if d.system == "H3" else (V3, V4)
        for V in sets:
            r = soundness_sample(d, V, 2)
            assert r.holds, f"{name} violates soundness over {V}"


def test_check_is_deterministic():
    for name, d in CORPUS:
        assert check(d).accepted == check(d).accepted


# --- mutations ---------------------------------------------------------------


def _mutations() -> list[tuple[str, Derivation]]:
    out = []
    base = d_modus_ponens()

    def alter(name, steps=None, premises=None, system=None, src=base):
        out.append((name, Derivation(system or src.system,
                                     premises if premises is not None else src.premises,
                                     tuple(steps if steps is not None else src.steps))))

    s = base.steps
    # 1 wrong citation pair
    alter("cite-same-step-twice",
          steps=[s[0], s[1], replace(s[2], cites=(1, 1))])
    # 2 forward citation
    alter("forward-citation",
          steps=[s[0], replace(s[2], cites=(1, 3)), s[1]])
    # 3 self citation
    alter("self-citation",
          steps=[s[0], s[1], replace(s[2], cites=(1, 3))])
    # 4 conclusion differs from rule output
    alter("conclusion-mismatch",
          steps=[s[0], s[1], replace(s[2], formula=P_c)])
    # 5 premise formula not among premises
    alter("alien-premise", steps=[replace(s[0], formula=Q_c), s[1], s[2]])
    # 6 missing binding
    alter("binding-incomplete",
          steps=[s[0], s[1], replace(s[2], bindings=(("A", P_c),))])
    # 7 wrong binding values
    alter("wrong-binding",
          steps=[s[0], s[1], replace(s[2], bindings=(("A", Q_c), ("B", P_c)))])
    # 8 unknown rule name
    alter("unknown-rule", steps=[s[0], s[1], replace(s[2], name="I99")])
    # 9 unknown axiom name
    b = Builder("H")
    b.axiom("I9", A=P_c)
    d9 = b.done()
    alter("unknown-axiom", steps=[replace(d9.steps[0], name="I77")], src=d9)
    # 10 axiom formula not an instance
    alter("not-an-instance", steps=[replace(d9.steps[0], formula=Q_c)], src=d9)
    # 11 axiom outside the system: ISO_0 in H
    b = Builder("H0")
    b.axiom("ISO_0", A=P_x, x="x")
    d11 = b.done()
    alter("iso0-in-h", system="H", src=d11)
    # 12 FIN in plain H
    b = Builder("H3")
    b.axiom("FIN", A1=P_c, A2=Q_c)
    alter("fin-in-h", system="H", src=b.done())
    # 13 LIN in IL
    b = Builder("H")
    b.axiom("LIN", A=P_c, B=Q_c)
    alter("lin-in-il", system="IL", src=b.done())
    # 14 broken eigenvariable in I10: x free in B
    bad = Step(Imp(Q_x, Forall("x", P_x)), "rule", "I10", (1,),
               (("A", P_x), ("B", Q_x), ("x", "x")))
    alter("i10-eigenvariable",
          steps=[Step(Imp(Q_x, P_x), "premise"), bad],
          premises=(Imp(Q_x, P_x),))
    # 15 broken eigenvariable in I13
    bad13 = Step(Imp(Exists("x", P_x), Q_x), "rule", "I13", (1,),
                 (("A", P_x), ("B", Q_x), ("x", "x")))
    alter("i13-eigenvariable",
          steps=[Step(Imp(P_x, Q_x), "premise"), bad13],
          premises=(Imp(P_x, Q_x),))
    # 16 QS side condition broken at the axiom step
    bad_qs = Step(Imp(Forall("x", Or(Q_x, P_x)), Or(Q_x, Forall("x", P_x))),
                  "axiom", "QS", (), (("A", P_x), ("C", Q_x), ("x", "x")))
    alter("qs-free-variable", steps=[bad_qs])
    # 17 wrong substitution in I11
    bad_i11 = Step(Imp(Forall("x", P_x), Q_c), "axiom", "I11", (),
                   (("A", P_x), ("x", "x"), ("t", App("c"))))
    alter("i11-wrong-instance", steps=[bad_i11])
    # 18 swapped citations of a two-premise rule
    alter("swapped-citations",
          steps=[s[0], s[1], replace(s[2], cites=(2, 1))])
    # 19 rule with wrong citation count
    alter("citation-count", steps=[s[0], s[1], replace(s[2], cites=(1,))])
    # 20 tampered intermediate formula breaks the citing step
    d20 = d_modus_ponens()
    alter("tampered-step",
          steps=[d20.steps[0], replace(d20.steps[1], formula=Imp(Q_c, P_c),
                                       kind="axiom", name="I9",
                                       bindings=(("A", P_c),)), d20.steps[2]])
    return out


def test_twenty_mutations_rejected():
    muts = _mutations()
    assert len(muts) == 20
    for name, d in muts:
        r = check(d)
        assert not r.accepted, f"mutation {name} was accepted"


def test_rejection_reports_step_and_reason():
    base = d_modus_ponens()
    bad = Derivation(base.system, base.premises,
                     (base.steps[0], base.steps[1],
                      replace(base.steps[2], cites=(1, 1))))
    r = check(bad)
    assert r.step == 3 and r.reason


# --- soundness harness catches a corrupted checker ----------------------------


def test_soundness_sample_flags_bogus_derivation():
    # hand-assemble an unsound "derivation" and bypass check()
    b = Builder("H", [Or(P_c, Q_c)])
    b.premise(Or(P_c, Q_c))
    steps = b.steps + [Step(P_c, "rule", "I1", (1, 1), (("A", P_c), ("B", P_c)))]
    d = Derivation("H", (Or(P_c, Q_c),), tuple(steps))
    from goedel_logics.semantics import entails_bruteforce
    r = entails_bruteforce(list(d.premises), d.conclusion, V3, 2)
    assert not r.holds  # the meta-test harness would catch this conclusion


# --- proof files ---------------------------------------------------------------


PROOF_TEXT = """
# modus ponens from two premises
system: H
1. P(c()) ; premise
2. P(c()) -> Q(c()) ; premise
3. Q(c()) ; rule I1 1,2 [A := P(c()), B := Q(c())]
"""


def test_parse_derivation_text():
    d = parse_derivation(PROOF_TEXT)
    assert d.system == "H"
    assert check(d).accepted
    assert print_formula(d.conclusion) == "Q(c())"


def test_format_parse_roundtrip():
    for name, d in CORPUS:
        text = format_derivation(d)
        d2 = parse_derivation(text)
        r = check(d2)
        assert r.accepted, f"{name} reparse: step {r.step}: {r.reason}"
        assert print_formula(d2.conclusion) == print_formula(d.conclusion)
        # formulas are written with their own bound names, so the file
        # gives back d's very step formulas, not renamed copies
        assert [s.formula for s in d2.steps] == [s.formula for s in d.steps], name


def test_parse_derivation_rejects_bad_numbering():
    with pytest.raises(ProofError):
        parse_derivation("system: H\n2. P(c()) ; premise\n")


def test_axiom_binding_with_terms_roundtrip():
    text = """system: H
1. (forall x. P(x)) -> P(c()) ; axiom I11 [A := P(x), x := x, t := c()]
"""
    d = parse_derivation(text)
    assert check(d).accepted


# --- the proof-file parser: memo and fuzzing -----------------------------------


DEMO_PROOFS = sorted((Path(__file__).parent.parent / "demos" / "proofs").glob("*.proof"))
PROOF_TEXTS = ([p.read_text() for p in DEMO_PROOFS]
               + [format_derivation(d) for _, d in CORPUS]
               + [format_derivation(d) for _, d in _mutations()])


def test_memo_shares_asts_without_changing_derivations(monkeypatch):
    memoized = [parse_derivation(text) for text in PROOF_TEXTS]
    # each formula text parsed on its own, without a memo
    monkeypatch.setattr(proofkit.ParseMemo, "parse", lambda memo, text: parse(text))
    separate = [parse_derivation(text) for text in PROOF_TEXTS]
    assert len(PROOF_TEXTS) == len(DEMO_PROOFS) + len(CORPUS) + 20
    for d, e in zip(memoized, separate):
        assert d == e
        assert check(d) == check(e)
    # repeated binding texts share one AST within a derivation
    shift = memoized[[p.name for p in DEMO_PROOFS].index("neg_forall_shift_h0.proof")]
    a2, a3 = (dict(shift.steps[i].bindings)["A"] for i in (1, 2))
    assert a2 is a3
    # 2. (P(x) -> ~P(x)) & (P(x) -> ~P(x)) -> P(x) -> ~P(x) ; axiom I4b [A := P(x) -> ~P(x), ...]
    # the binding, both groups of the step formula and its right side
    # (which runs to the end of the text) are one AST
    step = shift.steps[1].formula
    assert step.left.left is step.left.right is step.right is a2


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(st.text(alphabet="(),a :=", max_size=40))
def test_split_bindings_matches_the_character_loop(text):
    assert proofkit._split_bindings(text) == reference_split_bindings(text)


# digits, the marks a step line is read by, and blanks that str.isspace
# knows, some of them line breaks to str.splitlines
LINE_CHARS = "0123456789.;#P(x)~ \t\x0b\x1f\x85\xa0\u3000"


def test_step_line_matches_the_pattern_on_fuzzed_lines():
    rng = random.Random(29)
    seen = 0
    while seen < 100_000:
        text = rng.choice(["", "1.", "12. ", "3.\t"]) + "".join(
            rng.choices(LINE_CHARS, k=rng.randint(0, 20)))
        for line in text.splitlines():
            for cut in (line, line.strip()):
                assert proofkit._step_line(cut) == reference_step_line(cut), repr(cut)
            seen += 1


ROOT = Path(__file__).parent.parent
BENCH_PROOFS = sorted((ROOT / "bench" / "data" / "proofs").glob("*.proof"))
LONG_PROOFS = ("neg_forall_shift_h0.proof", "weak_excluded_middle.proof")


def neighbour_mutations(text: str) -> list[str]:
    """text with one step's formula text replaced by a neighbouring step's,
    once for every step."""
    lines = text.splitlines()
    at = [i for i, line in enumerate(lines) if reference_step_line(line)]
    out = []
    for j, i in enumerate(at):
        num, _, just = reference_step_line(lines[i])
        other = reference_step_line(lines[at[j - 1] if j else at[1]])[1]
        out.append("\n".join(lines[:i] + [f"{num}. {other} ; {just}"] + lines[i + 1:]))
    return out


# one body under both quantifiers and under two bound names, so the table
# holds each of them on it
ONE_BODY = """system: H
1. (forall x. P(x)) -> P(c()) ; axiom I11 [A := P(x), x := x, t := c()]
2. P(c()) -> exists x. P(x) ; axiom I12 [A := P(x), x := x, t := c()]
3. (forall y. P(x)) -> P(x) ; axiom I11 [A := P(x), x := y, t := c()]
"""


def test_check_by_identity_equals_the_check_without_a_table():
    texts = [p.read_text() for p in DEMO_PROOFS + BENCH_PROOFS] + [ONE_BODY]
    texts += [m for p in DEMO_PROOFS if p.name in LONG_PROOFS
              for m in neighbour_mutations(p.read_text())]
    assert len(texts) == 3 + 14 + 1 + 98 + 61
    results = []
    for text in texts:
        for system in ("IL", "H", "H0", "H3"):
            d = parse_derivation(text, system)
            bare = Derivation(d.system, d.premises, d.steps)
            assert d.nodes and not bare.nodes
            results.append(check(d))
            assert results[-1] == check(bare)
    # the mutations are rejected at many steps and for many reasons
    assert len({(r.step, r.reason) for r in results}) > 150
    # the table is no part of a derivation's value
    assert d == bare and repr(d) == repr(bare)


INSERTS = ["[", "]", ":=", ",", "(", ")", ";", ".", " ", "\n", "#", "~", "->",
           "A := ", "x := ", "t := ", "x := P(x)", "t := Q", "A := x",
           "rule I1 ", "axiom LIN ", "premise", "system: H3\n",
           "9" * 30, "1," * 40, "7" * 5000, "forall x. ", "\x00", "\u00e9"]
edits = st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 3),
                           st.sampled_from([""] + INSERTS)),
                 min_size=1, max_size=4)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(PROOF_TEXTS), edits)
def test_mangled_proof_files_get_a_verdict_or_a_typed_error(text, changes):
    for where, drop, insert in changes:
        i = where % (len(text) + 1)
        text = text[:i] + insert + text[i + drop:]
    try:
        d = parse_derivation(text)
    except (ProofError, FormulaError, ValueError):
        return
    assert isinstance(d, Derivation)
    assert isinstance(check(d), CheckResult)
