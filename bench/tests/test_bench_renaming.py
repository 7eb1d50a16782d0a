"""Per-pass renaming, and the relativization check of the A^g / A^h outputs."""

import checks
import renaming
import workloads as W

T = renaming.tag(12)


def test_tag_has_a_fixed_width():
    assert T == "X0012_"
    assert len(renaming.tag(0)) == len(renaming.tag(9999)) == len(renaming.tag(123456))


def test_formula_tags_predicates_only():
    text = "forall x. (A(x, c()) -> Bq1 | ~AB) & top & bot"
    assert renaming.formula(text, T) == \
        "forall x. (X0012_A(x, c()) -> X0012_Bq1 | ~X0012_AB) & top & bot"
    assert renaming.strip(renaming.formula(text, T)) == text


def test_tags_keep_the_sorted_order_of_names():
    names = ["A", "AB", "A1", "B", "Q", "P_2"]
    tagged = [renaming.formula(n, T) for n in names]
    assert sorted(range(6), key=tagged.__getitem__) == sorted(range(6), key=names.__getitem__)


def test_proof_keeps_axioms_schema_letters_and_system():
    text = ("system: H0\n"
            "1. P(c()) -> Q(c()) ; premise\n"
            "2. (forall x1. P(x1)) -> P(c()) ; axiom I11 [A := P(x), t := c(), x := x]\n"
            "3. Q(c()) ; rule I1 1,2 [A := P(c()), B := Q(c())]\n")
    got = renaming.proof(text, T)
    assert got == ("system: H0\n"
                   "1. X0012_P(c()) -> X0012_Q(c()) ; premise\n"
                   "2. (forall x1. X0012_P(x1)) -> X0012_P(c()) ; axiom I11 "
                   "[A := X0012_P(x), t := c(), x := x]\n"
                   "3. X0012_Q(c()) ; rule I1 1,2 [A := X0012_P(c()), B := X0012_Q(c())]\n")
    assert renaming.strip(got) == text


def test_every_request_strips_back():
    for name in W.NAMES:
        for it in W.generate(name, W.DEFAULT_SEED):
            req = W.materialize(it)
            assert renaming.strip(renaming.request(req, T)) == req


# a small output of the A^g shape for the input exists x. A(x): fresh
# P/1, L/2 and Leq/2, the input relativized by exists w. ~~L(w, x)
F = "exists x. A(x)"
ANTECEDENT = "~~L(c1(), c1()) & Leq(c1(), c1())"
G = f"{ANTECEDENT} -> (exists y. ((exists w. ~~L(w, y)) & ~~A(y))) | (exists u. P(u))"


def relativized(g, f=F, kind="ag"):
    it = {"op": "transform", "args": {"formula": f, "kind": kind},
          "expect": {"property": "relativized"}}
    return checks.check(it, {"rejected": False, "formula": g})


def test_relativized_output_passes():
    assert relativized(G) is None


def test_relativized_output_is_checked_against_the_tagged_input():
    it = {"op": "transform", "args": {"formula": F, "kind": "ag"},
          "expect": {"property": "relativized"}}
    tagged = G.replace("~~A(y)", f"~~{T}A(y)")
    assert checks.check(it, {"rejected": False, "formula": tagged}, T) is None
    assert checks.check(it, {"rejected": False, "formula": G}, T) is not None


def test_relativized_output_mistakes_are_caught():
    assert "relativized" in relativized(G.replace("~~A(y)", "A(y)"))
    assert "relativized" in relativized(G.replace("exists w. ~~L(w, y)", "exists w. L(w, y)"))
    assert "relativized" in relativized(G.replace("~~L(w, y)", "~~L(w, c1())"))
    assert "arities" in relativized(G.replace("Leq(c1(), c1())", "Leq(c1())"))
    assert "arities" in relativized(G, kind="ah")
    assert "antecedent" in relativized(G.replace(ANTECEDENT, ANTECEDENT + " & A(c1())"))
    assert "free variables" in relativized(G.replace("P(u)", "P(v)"))
