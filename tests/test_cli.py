"""Command-line interface: exit codes, output shapes, JSON round-trips."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import goedel_logics
from goedel_logics import decide, goedelset, herbrand, proofkit, semantics, transforms
from goedel_logics.cli import build_parser, main
from goedel_logics.formula import GoedelError, ParseError, parse
from goedel_logics.herbrand import certificate_from_json, prove_prenex, verify_certificate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_ok_and_error(capsys):
    code, out, _ = run(capsys, "parse", "exists x. (A(x) -> forall y. A(y))")
    assert code == 0 and "exists" in out
    code, _, err = run(capsys, "parse", "A ->")
    assert code == 3 and "error" in err
    # a formula cut short is reported at the end of the input
    for text, at in (("", "1:1"), ("A &", "1:4"), ("A -> ", "1:5"), ("~", "1:2")):
        assert run(capsys, "parse", text) == (3, "", f"error: {at}: unexpected end of input\n")


def test_budget_error_names_one_letter(capsys):
    assert run(capsys, "decide", "--budget", "2", "--logic", "LC", "A") == (
        2, "", "error: LC, 0 of 1 letter placed: 3 points charged exceed the budget of 2\n")


def test_classify_text_and_json(capsys):
    code, out, _ = run(capsys, "classify", "{0} + [1/2,1]")
    assert code == 0
    assert "0 isolated" in out and "H_0" in out
    code, out, _ = run(capsys, "--json", "classify", "{0} + [1/2,1]")
    data = json.loads(out)
    assert data["verdict"] == "H0" and data["schema"] == "goedel-workbench/1"


def test_decide_exit_codes(capsys):
    fin3 = "(top -> A1) | (A1 -> A2) | (A2 -> bot)"
    code, out, _ = run(capsys, "decide", "--logic", "G3", fin3)
    assert code == 0 and out.strip() == "valid"
    code, out, _ = run(capsys, "decide", "--logic", "G4", fin3)
    assert code == 1 and "countermodel" in out
    code, out, _ = run(capsys, "--json", "decide", "--logic", "G4", fin3)
    data = json.loads(out)
    assert data["result"] == "countermodel"
    assert data["countermodel"]["A1"] == "2/3"
    code, out, _ = run(capsys, "decide", "--logic", "g3", fin3)
    assert code == 0 and out.strip() == "valid"
    # one shape for --logic: LC, or G and the decimal digits of m >= 2
    for logic in ("G", "Gx", "G" + "9" * 5000, "G+3", "G 3", "G1", "G-5", "L", "LC3", "",
                  "G\u0663"):
        code, out, err = run(capsys, "decide", "--logic", logic, fin3)
        assert (code, out) == (3, ""), logic
        assert err == f'error: "logic" must be "LC" or "G<m>" with m >= 2, not {logic!r}\n'


def test_decide_lc(capsys):
    code, out, _ = run(capsys, "decide", "--logic", "LC", "~A | ~~A")
    assert code == 0
    code, out, _ = run(capsys, "decide", "--logic", "LC", "A | ~A")
    assert code == 1


def test_decide_huge_input_exits_on_the_budget(capsys, tmp_path):
    # nothing refuses a goal on its letter count: a balanced disjunction of
    # 4,000 letters is falsified by the first point the walk charges
    parts = [f"A{j}" for j in range(4000)]
    while len(parts) > 1:
        parts = [f"({' | '.join(parts[i:i + 2])})" for i in range(0, len(parts), 2)]
    path = tmp_path / "f.txt"
    path.write_text(parts[0])
    code, out, err = run(capsys, "decide", "--logic", "LC", f"@{path}")
    zeros = ", ".join(f"A{j}=0" for j in sorted(range(4000), key=str))
    assert (code, out, err) == (1, f"countermodel: {{{zeros}}} (value 0)\n", "")
    # a goal that cannot be pruned stops only when its charge passes the budget
    goal = "(" + " & ".join(f"A{j}" for j in range(40)) + ") -> A0"
    assert run(capsys, "decide", "--logic", "LC", "--budget", "1000", goal) == (
        2, "", "error: LC, 39 of 40 letters placed: 1002 points charged exceed the budget "
               "of 1000\n")


def test_decide_exit_codes_follow_the_walk_not_the_letter_count(capsys):
    # 22 letters pass the default budget's bit length, and each of these
    # answers as its walk does: quantifiers are an input error, the first
    # point falsifies the disjunction, and (A -> A) prunes every point
    bs = " | ".join(f"B{j}" for j in range(1, 22))
    code, out, err = run(capsys, "decide", "--logic", "LC", f"forall x. (P(x) | {bs})")
    assert (code, out) == (3, "") and "formula is not quantifier-free" in err
    assert run(capsys, "decide", "--logic", "G5", "--budget", "10", "A1 | A2 | A3 | A4") == (
        1, "countermodel: {A1=0, A2=0, A3=0, A4=0} (value 0)\n", "")
    assert run(capsys, "decide", "--logic", "LC", f"(A -> A) | {bs}") == (0, "valid\n", "")


def test_decide_long_chains_evaluate_shallowly(capsys, tmp_path):
    # the root disjuncts are read with a stack and joined as a balanced
    # tree, so a 3,000-disjunct chain nests about 12 calls deep, not 3,000
    chain = tmp_path / "chain.txt"
    chain.write_text(" | ".join(["A"] * 3000))
    for logic in ("G5", "LC"):
        assert run(capsys, "decide", "--logic", logic, f"@{chain}") == (
            1, "countermodel: {A=0} (value 0)\n", ""), logic
    # the same holds for each ready program of the walk: here the 1,000
    # copies of (A1 -> A2) are ready at the second letter
    cycles = tmp_path / "cycles.txt"
    cycles.write_text(" | ".join(["(A1 -> A2) | (A2 -> A3) | (A3 -> A1)"] * 1000))
    for logic in ("G5", "LC"):
        assert run(capsys, "decide", "--logic", logic, f"@{cycles}") == (0, "valid\n", ""), logic


def test_prove_and_verify_roundtrip(capsys, tmp_path):
    cert_file = tmp_path / "cert.json"
    code, out, _ = run(capsys, "prove", "--mode", "finite:3", "--max-level", "8",
                       "--out", str(cert_file),
                       "exists x. forall y. (A(y) -> A(x))")
    assert code == 0 and "valid" in out
    cert = certificate_from_json(cert_file.read_text())
    assert verify_certificate(cert)
    code, out, _ = run(capsys, "prove", "--verify", str(cert_file))
    assert code == 0 and "verified" in out


def test_prove_unknown_exit_2(capsys):
    code, out, _ = run(capsys, "prove", "--mode", "uncountable",
                       "--max-level", "6", "exists x. forall y. (A(y) -> A(x))")
    assert code == 2 and "unknown" in out
    assert "open order: A(c0()) = bot < " in out and out.rstrip().endswith("< top")
    code, out, _ = run(capsys, "--json", "prove", "--max-level", "6",
                       "exists x. forall y. (A(y) -> A(x))")
    data = json.loads(out)
    assert code == 2 and data["result"] == "unknown" and data["level_reached"] == 6
    assert data["open_order"][0] == ["A(c0())", "bot"] and data["open_order"][-1] == ["top"]
    assert len([name for cls in data["open_order"] for name in cls]) == 8


def test_prove_finite_base_invalid_exit_1(capsys):
    code, out, _ = run(capsys, "prove", "A | ~A")
    assert code == 1 and out == ("invalid (the Herbrand base ends at level 1)\n"
                                 "  countermodel order: bot < A < top\n")
    code, out, _ = run(capsys, "--json", "prove", "exists x. bot")
    assert code == 1 and json.loads(out) == {
        "result": "invalid", "level_reached": 0, "open_order": [["bot"], ["top"]],
        "schema": "goedel-workbench/1"}
    code, out, _ = run(capsys, "prove", "--mode", "finite:2", "A | ~A")
    assert code == 0 and out.startswith("valid")
    code, _, err = run(capsys, "prove", "--max-level", "-1", "A | ~A")
    assert code == 3 and err.startswith("error:")


def test_prove_json_roundtrips(capsys):
    code, out, _ = run(capsys, "--json", "prove", "--mode", "finite:3",
                       "--max-level", "8", "exists x. forall y. (A(y) -> A(x))")
    assert code == 0
    data = json.loads(out)
    cert = certificate_from_json(data)
    assert verify_certificate(cert)


def test_entail_exit_codes(capsys):
    code, out, _ = run(capsys, "entail", "--truth-set", "{0,1/2,1}",
                       "--premise", "A", "--premise", "A -> B", "B")
    assert code == 0 and "holds" in out
    code, out, _ = run(capsys, "entail", "--truth-set", "{0,1/2,2/3,1}",
                       "(top -> A1) | (A1 -> A2) | (A2 -> bot)")
    assert code == 1 and "countermodel" in out


def test_entail_countermodel_is_the_least_over_tables(capsys):
    # size 2 has four tables for (c, d); the least falsifying point,
    # A(u0) = 0 and A(u1) = 1/2, falsifies the third, c = u1 and d = u0
    code, out, _ = run(capsys, "--json", "entail", "--truth-set", "{0,1/2,1}",
                       "--max-universe", "2", "--premise", "A(c())", "A(d())")
    I = json.loads(out)["interpretation"]
    assert code == 1
    assert I["functions"] == {"c/0": {"": "u1"}, "d/0": {"": "u0"}}
    assert I["predicates"] == {"A/1": {"u0": "0", "u1": "1/2"}}


def test_entail_budget_counts_order_types(capsys):
    # over V_6, a conclusion that holds charges sizes 1..6 17,205 points:
    # each size s its s slots, one table and the order types of P's s
    # atoms (14,771 at s = 6, not 6^6 points)
    V6 = "{0,1/2,2/3,3/4,4/5,1}"
    f = "forall x. (P(x) -> P(x))"
    code, out, _ = run(capsys, "entail", "--truth-set", V6, "--max-universe", "6",
                       "--budget", "17205", f)
    assert code == 0 and "holds" in out
    code, out, err = run(capsys, "entail", "--truth-set", V6, "--max-universe", "6",
                         "--budget", "17204", f)
    assert (code, out) == (2, "")
    assert err == ("error: universe size 6, function table 1, 5 of 6 letters placed: "
                   "17205 points charged exceed the budget of 17204\n")
    # a countermodel at size 1 is found whatever the largest size
    code, out, _ = run(capsys, "entail", "--truth-set", V6, "--max-universe", "3000",
                       "forall x. (P(x) | ~P(x))")
    assert code == 1 and "countermodel" in out


def test_entail_answers_below_a_probe_past_the_budget(capsys):
    # the probe at size 6 needs 2,728 points to find its first countermodel,
    # past its tenth of a budget of 100; the ordered search then finds the
    # least countermodel at size 1 for 5 points
    V6 = "{0,1/2,2/3,3/4,4/5,1}"
    f = "(forall x. P(x)) | ~(forall x. P(x))"
    code, out, _ = run(capsys, "--json", "entail", "--truth-set", V6, "--max-universe", "6",
                       "--budget", "100", f)
    assert code == 1
    assert json.loads(out)["interpretation"] == {
        "universe": ["u0"], "truth_set": V6, "predicates": {"P/1": {"u0": "1/2"}},
        "functions": {}}
    assert run(capsys, "--json", "entail", "--truth-set", V6, "--max-universe", "6", f) == (
        code, out, "")


def test_entail_rejects_empty_universe_bound(capsys):
    for flag in ([], ["--one"]):
        code, out, err = run(capsys, "entail", "--truth-set", "{0,1}", *flag,
                             "--max-universe", "0", "A")
        assert code == 3 and out == ""
        assert "max_universe" in err


def test_check_proof(capsys, tmp_path):
    good = tmp_path / "good.proof"
    good.write_text("""system: H
1. P(c()) ; premise
2. P(c()) -> Q(c()) ; premise
3. Q(c()) ; rule I1 1,2 [A := P(c()), B := Q(c())]
""")
    code, out, _ = run(capsys, "check-proof", str(good))
    assert code == 0 and "accepted" in out
    bad = tmp_path / "bad.proof"
    bad.write_text("""system: H
1. P(c()) ; premise
2. P(c()) -> Q(c()) ; premise
3. Q(c()) ; rule I1 1,1 [A := P(c()), B := Q(c())]
""")
    code, out, _ = run(capsys, "check-proof", str(bad))
    assert code == 1 and "rejected at step 3" in out
    # a rejection of the whole derivation names no step
    code, out, _ = run(capsys, "check-proof", "--system", "H7x", str(good))
    assert code == 1 and out == "rejected: unknown system 'H7x'\n"
    code, out, _ = run(capsys, "--json", "check-proof", "--system", "H7x", str(good))
    assert code == 1 and json.loads(out)["step"] is None


def test_transform_kinds(capsys):
    code, out, _ = run(capsys, "transform", "--kind", "prenex",
                       "exists x. (A(x) -> forall y. A(y))")
    assert code == 0 and "forall" in out
    code, out, _ = run(capsys, "transform", "--kind", "prenex",
                       "(forall x. P(x)) -> Q")
    assert code == 1
    code, out, _ = run(capsys, "transform", "--kind", "botfree", "~P(c())")
    assert code == 0 and "bot" not in out.splitlines()[-1]
    code, out, _ = run(capsys, "--json", "transform", "--kind", "ag",
                       "forall v. Q1(v)")
    data = json.loads(out)
    assert data["fresh_predicates"]["L"] == 2


def test_eval_with_interpretation_file(capsys, tmp_path):
    interp = tmp_path / "interp.json"
    interp.write_text(json.dumps({
        "universe": ["u0"],
        "truth_set": "[0,1]",
        "predicates": {"A/1": {"u0": "1/4"}},
        "tail": {"A/1": {"kind": "harmonic", "limit": "0", "sign": "+", "offset": 0}},
    }))
    code, out, _ = run(capsys, "eval", "-i", str(interp),
                       "exists x. (A(x) -> forall y. A(y))")
    assert code == 0 and out.strip() == "value: 0"


def test_embed(capsys):
    code, out, _ = run(capsys, "embed", "--target", "cantor(0,1)", "0,1/2,1")
    assert code == 0 and out.strip() == "0, 2/3, 1"


def test_usage_error(capsys):
    code, _, err = run(capsys, "classify", "nonsense[")
    assert code == 3


def test_zero_denominator_in_a_set_is_an_input_error(capsys):
    for argv in (["classify", "{0,1/0,1}"], ["embed", "--target", "[0,1]", "1/0,1"]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert "zero denominator" in err and "Traceback" not in err


def test_malformed_interpretation_is_an_input_error(capsys, tmp_path):
    docs = ["[1,2]", "null", '{"universe": "u0", "truth_set": "[0,1]"}',
            '{"universe": ["u0"], "truth_set": "[0,1]", "predicates": {"P/1": ["1"]}}',
            '{"universe": ["u0"], "truth_set": "[0,1]", "predicates": {"P/1": {"u0": "1/0"}}}',
            '{"universe": ["u0"], "truth_set": "[0,1]", "variables": 3}',
            '{"universe": ["u0"], "truth_set": "[0,1]", "tail": {"P/1": {"kind": "harmonic",'
            ' "limit": "1", "sign": "*"}}}',
            '{"universe": ["u0"], "truth_set": "[0,1]", "tail": {"P/1": {"kind": "harmonic",'
            ' "limit": "1/2", "sign": "+", "offset": -1}}}',
            # a universe or an omega prefix that names an element twice
            '{"universe": ["a", "a"], "truth_set": "[0,1]", "predicates": {"P/1": {"a": "1"}}}',
            '{"universe": ["a", "b", "a"], "truth_set": "[0,1]", "predicates": {"P/1": '
            '{"a": "1", "b": "0"}}, "tail": {"P/1": {"kind": "const", "value": "1"}}}']
    for doc in docs:
        path = tmp_path / "f.json"
        path.write_text(doc)
        code, out, err = run(capsys, "eval", "-i", str(path), "exists x. P(x)")
        assert code == 3 and out == "", doc
        assert err.startswith("error:"), doc


def test_a_variable_must_name_an_element_of_the_universe(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{"universe": ["a"], "truth_set": "{0,1}", "predicates": {"P/1": {"a": "1"}},'
                    ' "variables": {"x": "zz"}}')
    code, out, err = run(capsys, "eval", "-i", str(path), "P(x)")
    assert code == 3 and out == ""
    assert err.strip() == "error: variable x names 'zz', which is not in the universe"


def test_tables_that_validate_refuses_are_a_typed_error(capsys, tmp_path):
    # every refusal of validate is an InterpretationFormatError, so a library
    # caller catches it as GoedelError; the CLI exits 3 with its message
    finite = {"universe": ["a", "b"], "truth_set": "{0,1}"}
    docs = {
        "table of P not total at ('b',)": {**finite, "predicates": {"P/1": {"a": "1"}}},
        "mixed arities in table of P": {**finite, "predicates": {"P/1": {"a": "1", "a,b": "0"}}},
        "value 1/2 of P outside the truth set": {**finite, "predicates": {"P/0": {"": "1/2"}}},
        "f('a',) maps outside the universe": {**finite, "functions": {"f/1": {"a": "zz"}}},
        "variable x names 'zz', which is not in the universe": {
            **finite, "variables": {"x": "zz"}},
        "universe must be nonempty": {"universe": [], "truth_set": "{0,1}"},
        "tail pattern P('a',) has no tail slot": {
            **finite, "tail": {"P/1": {"a": {"kind": "const", "value": "1"}}}},
        "value 1/2 of Q outside the truth set": {
            **finite, "predicates": {"Q/0": {"": "1/2"}},
            "tail": {"P/1": {"kind": "const", "value": "1"}}},
    }
    for message, doc in docs.items():
        with pytest.raises(GoedelError) as caught:
            semantics.load_interpretation(doc)
        assert type(caught.value) is semantics.InterpretationFormatError
        assert str(caught.value) == message
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "eval", "-i", str(path), "A")
        assert (code, out, err.strip()) == (3, "", f"error: {message}")


BAD_FILES = {"bad.proof": "garbage line\n", "interp.json": "[1,2]", "cert.json": "[1]"}


# main reports every GoedelError with exit 3 and a BudgetError with exit 2
@pytest.mark.parametrize("argv, error, exit_code", [
    (["parse", "A ->"], ParseError, 3),
    (["entail", "--truth-set", "{0,1", "A"], goedelset.SetSyntaxError, 3),
    (["transform", "--kind", "ag", "P(x)"], transforms.NotClosedError, 3),
    (["check-proof", "bad.proof"], proofkit.ProofError, 3),
    (["prove", "--verify", "cert.json"], herbrand.CertificateFormatError, 3),
    (["prove", "(forall x. P(x)) -> Q"], herbrand.NotPrenexError, 3),
    (["eval", "-i", "interp.json", "A"], semantics.InterpretationFormatError, 3),
    (["decide", "--logic", "LC", "forall x. P(x)"], decide.QuantifierError, 3),
    (["decide", "--logic", "LC", "--budget", "0", "A"], decide.BudgetError, 2),
])
def test_each_typed_error_keeps_its_exit_code(capsys, monkeypatch, tmp_path,
                                              argv, error, exit_code):
    monkeypatch.chdir(tmp_path)
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    args = build_parser().parse_args(argv)
    with pytest.raises(error):
        args.fn(args)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (exit_code, "")
    assert err.startswith("error:") and "Traceback" not in err


def _modules_loaded(*commands):
    """The goedel_logics modules loaded once main has run each command."""
    src = os.path.dirname(os.path.dirname(goedel_logics.__file__))
    script = "\n".join([
        "import sys", "from goedel_logics import cli",
        *[f"assert cli.main({argv!r}) in (0, 1), {argv!r}" for argv in commands],
        "print(sorted(m for m in sys.modules if m.startswith('goedel_logics.')))", ""])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_parse_and_decide_load_only_formula_and_decide():
    src = os.path.dirname(os.path.dirname(goedel_logics.__file__))
    proc = subprocess.run([sys.executable, "-c", "import sys, goedel_logics; print(sorted("
                           "m for m in sys.modules if m.startswith('goedel_logics.')))"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "[]\n", proc.stderr
    assert _modules_loaded(
        ["parse", "A"],
        ["decide", "--logic", "LC",
         "(A1 -> A2) | (A2 -> A3) | (A3 -> A4) | (A4 -> A5) | (A5 -> A1)"],
    ) == "['goedel_logics.cli', 'goedel_logics.decide', 'goedel_logics.formula']"


def test_prove_loads_neither_semantics_nor_goedelset(tmp_path):
    cert = tmp_path / "cert.json"
    assert _modules_loaded(
        ["prove", "A | ~A"],
        ["prove", "--out", str(cert), "exists x. exists y. (P(x) -> P(y))"],
        ["prove", "--verify", str(cert)],
    ) == ("['goedel_logics.cli', 'goedel_logics.decide', 'goedel_logics.formula', "
          "'goedel_logics.herbrand']")


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("GOEDEL_BUDGET", "10")
    # a goal that cannot be pruned: A1 | A2 | A3 | A4 is falsified in 3 points
    code, _, err = run(capsys, "decide", "--logic", "G5", "(A1 & A2 & A3 & A4) -> A1")
    assert code == 2 and "budget" in err
    # a conclusion that holds, so the search reaches size 2
    code, _, err = run(capsys, "entail", "--truth-set", "{0,1/2,1}", "A(c()) -> A(c())")
    assert code == 2 and "budget" in err
    code, _, err = run(capsys, "prove",
                       "exists x. forall y. exists z. ((A(y) -> B(x)) & (B(z) -> A(y)))")
    assert code == 2 and "budget" in err
    # all three searches raise the one class that main maps to exit 2
    assert semantics.BudgetError is herbrand.BudgetError is decide.BudgetError
    monkeypatch.delenv("GOEDEL_BUDGET")
    code, _, _ = run(capsys, "decide", "--logic", "G5", "(A1 & A2 & A3 & A4) -> A1")
    assert code == 0


def test_budget_is_an_integer_from_zero_up(capsys, monkeypatch):
    # --budget and GOEDEL_BUDGET are read in one place, with one message,
    # and so are --max-universe and --max-level, by their flag's name
    commands = [["decide", "--logic", "G5", "A1 | A2"],
                ["entail", "--truth-set", "{0,1/2,1}", "A(c())"],
                ["prove", "exists x. (P(x) -> P(x))"]]
    flags = [("--max-universe", commands[1]), ("--max-level", commands[2])]
    for text in ("abc", "-1", "1.5", "1e3", " 5", "+5", "1_0", "9" * 5000, "\uff11\uff10"):
        message = f"error: a budget must be an integer >= 0, not {text!r}\n"
        for argv in commands:
            assert run(capsys, argv[0], "--budget", text, *argv[1:]) == (3, "", message)
            monkeypatch.setenv("GOEDEL_BUDGET", text)
            assert run(capsys, *argv) == (3, "", message)
            monkeypatch.delenv("GOEDEL_BUDGET")
        for flag, argv in flags:
            message = f"error: {flag} must be an integer >= 0, not {text!r}\n"
            assert run(capsys, argv[0], flag, text, *argv[1:]) == (3, "", message)
    # plain ASCII digits are read as before, leading zeros included
    for flag, argv in flags:
        for text in ("3", "003"):
            assert run(capsys, argv[0], flag, text, *argv[1:])[0] in (0, 1)
    # a budget of 0 admits no work at all; an empty GOEDEL_BUDGET is unset
    for argv in commands:
        code, out, err = run(capsys, argv[0], "--budget", "0", *argv[1:])
        assert (code, out) == (2, "") and "budget" in err
    monkeypatch.setenv("GOEDEL_BUDGET", "")
    assert run(capsys, *commands[0])[0] == 1


@pytest.mark.parametrize("command", ["decide", "entail", "prove"])
def test_budget_help_gives_the_default_and_the_variable(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    text = " ".join(out.split())
    assert code == 0
    assert "may charge in all (default 3000000); also GOEDEL_BUDGET" in text


def test_prove_budget_caps_semantic_tree(capsys, monkeypatch):
    f = "exists x. exists y. (P(x) -> P(y))"
    code, _, err = run(capsys, "prove", "--budget", "1", f)
    assert code == 2 and "budget" in err
    monkeypatch.setenv("GOEDEL_BUDGET", "1")
    code, _, err = run(capsys, "prove", f)
    assert code == 2 and "budget" in err
    monkeypatch.delenv("GOEDEL_BUDGET")
    code, out, _ = run(capsys, "prove", f)
    assert code == 0 and "valid" in out


def test_formula_argument_is_text_unless_marked(capsys, monkeypatch, tmp_path):
    (tmp_path / "A").write_text("B -> B")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "parse", "A")
    assert code == 0 and out.strip() == "A"
    code, out, _ = run(capsys, "parse", "@A")
    assert code == 0 and out.strip() == "B -> B"
    monkeypatch.setattr("sys.stdin", io.StringIO("C & C"))
    code, out, _ = run(capsys, "parse", "-")
    assert code == 0 and out.strip() == "C & C"
    code, _, err = run(capsys, "parse", "@missing")
    assert code == 3 and err.startswith("error:")


def test_deep_nesting_is_an_input_error(capsys):
    deep = "~" * 3000 + "A"
    for argv in (["parse", deep], ["decide", "--logic", "LC", deep],
                 ["decide", "--logic", "G3", deep], ["prove", deep]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
    # nesting near the parser's limit still gets a verdict; a fresh
    # interpreter, because the test runner's own frames lower the limit
    src = os.path.dirname(os.path.dirname(goedel_logics.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "goedel_logics.cli", "decide", "--logic", "G3",
         "~" * 980 + "A"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1 and proc.stdout.startswith("countermodel: {A=0}")


def test_verify_rejects_malformed_certificates(capsys, tmp_path):
    cert = tmp_path / "c.json"
    for doc, message in [
            ({"formula": 1, "mode": "uncountable", "disjuncts": []},
             '"formula" must be a string, not int'),
            ([1], "a certificate must be an object, not list"),
            ({"formula": "top", "mode": "uncountable"}, 'a certificate needs "disjuncts"'),
            ({"formula": "top", "mode": "finite:1", "disjuncts": []}, '"mode" must be'),
            ({"formula": "top", "mode": "uncountable", "disjuncts": [["top"]]},
             "a disjunct must be a string, not list")]:
        cert.write_text(json.dumps(doc))
        code, out, err = run(capsys, "prove", "--verify", str(cert))
        assert code == 3 and out == "" and err.startswith(f"error: {message}"), doc
    # a well-formed certificate whose disjunct is no instance is rejected
    cert.write_text(json.dumps({"formula": "exists x. forall y. (A(y) -> A(x))",
                                "mode": "uncountable", "disjuncts": ["B -> B"]}))
    code, out, _ = run(capsys, "prove", "--verify", str(cert))
    assert (code, out) == (1, "certificate rejected\n")
    # and so is one whose disjunct has a free variable: it is no ground instance
    for disjunct, verdict in (("P(c0()) | ~P(c0())", (0, "certificate verified\n")),
                              ("P(y) | ~P(y)", (1, "certificate rejected\n")),
                              ("P(x1) | ~P(x1)", (1, "certificate rejected\n"))):
        cert.write_text(json.dumps({"formula": "exists x. P(x) | ~P(x)", "mode": "finite:2",
                                    "disjuncts": [disjunct]}))
        assert run(capsys, "prove", "--verify", str(cert))[:2] == verdict, disjunct
    # a disjunction with no letters has one order type, whatever m is
    cert.write_text(json.dumps({"formula": "top", "mode": "finite:1000000000000",
                                "disjuncts": ["top"]}))
    code, out, _ = run(capsys, "prove", "--verify", str(cert))
    assert (code, out) == (0, "certificate verified\n")


# valid certificates to mangle: uncountable and finite mode, one and three disjuncts
CERTIFICATES = [prove_prenex(parse(f), mode).certificate.to_json() for f, mode in [
    ("exists x. (P(x) -> P(x))", "uncountable"),
    ("exists x. forall y. (A(y) -> A(x))", "finite:3")]]
CERT_KEYS = ["formula", "mode", "disjuncts", "leaves", "level", "order", "schema"]
CERT_STRINGS = ["uncountable", "finite:2", "finite:3", "finite:1", "finite:x", "finite:",
                "finite:" + "9" * 13, "finite:" + "9" * 5000, "finite:\u0663",
                "top", "bot", "(", "A(c0())", "P(c0()) -> P(c0())", "A(f1(c0())) -> A(c0())",
                "exists x. forall y. (A(y) -> A(x))", "forall x. A(x)", "P(x)", "bot"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(allow_nan=False)
    | st.sampled_from(CERT_STRINGS) | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(CERT_KEYS), kids, max_size=3),
    max_leaves=6)


def test_certificate_leaves_are_ignored(capsys, tmp_path):
    # older certificates carry "leaves", one level and order per closed
    # branch; the loader reads the disjunction alone, whatever is there
    cert = tmp_path / "c.json"
    plain = certificate_from_json(CERTIFICATES[0])
    for leaves in ([{"level": 1, "order": [["P(c0())", "bot"], ["top"]]},
                    {"level": 1, "order": [["bot"], ["P(c0())"], ["top"]]}],
                   {}, [{"level": True, "order": []}], "leaves", None, 7):
        doc = {**CERTIFICATES[0], "leaves": leaves}
        assert certificate_from_json(doc) == plain, leaves
        cert.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "prove", "--verify", str(cert))
        assert (code, out) == (0, "certificate verified\n"), leaves


def _paths(doc, here=()):
    yield here
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, here + (key,))


def _mangle(doc, where: int, delete: bool, value):
    """doc with the value at one of its paths replaced or deleted."""
    paths = list(_paths(doc))
    path = paths[where % len(paths)]
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def test_prove_takes_the_modes_a_certificate_takes(capsys, tmp_path):
    # prove refuses exactly the modes the certificate loader refuses, so
    # every certificate prove writes verifies
    cert = tmp_path / "c.json"
    for mode in CERT_STRINGS + ["finite: 3", "finite:+3"]:
        try:
            certificate_from_json({**CERTIFICATES[0], "mode": mode})
            loads = True
        except herbrand.CertificateFormatError:
            loads = False
        code, _, err = run(capsys, "prove", "--mode", mode, "--out", str(cert),
                           "exists x. (P(x) -> P(x))")
        assert (code == 3) == (not loads), (mode, code, err)
        if loads:
            # verification counts V_n against its budget, which a huge n exceeds
            assert code == 0, (mode, err)
            code, _, err = run(capsys, "prove", "--verify", str(cert))
            assert code == 0 or code == 2 and "exceed the budget" in err, (mode, err)
        else:
            assert err.startswith('error: "mode" must be'), (mode, err)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(range(len(CERTIFICATES))),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.booleans(), json_values),
                min_size=1, max_size=3),
       st.none() | st.integers(0, 10 ** 6))
def test_mangled_certificates_get_a_verdict_or_a_typed_error(tmp_path_factory, which,
                                                             changes, cut):
    doc = json.loads(json.dumps(CERTIFICATES[which]))
    for where, delete, value in changes:
        doc = _mangle(doc, where, delete, value)
    text = json.dumps(doc)
    if cut is not None:
        text = text[:cut % (len(text) + 1)]
    cert = tmp_path_factory.mktemp("cert") / "c.json"
    cert.write_text(text)
    code, out, err = _quiet(["prove", "--budget", "10000", "--verify", str(cert)])
    if code in (0, 1):
        assert out == ("certificate verified\n" if code == 0 else "certificate rejected\n")
    else:
        assert code in (2, 3) and err.startswith("error:")


def _quiet(argv):
    """main(argv) with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _input_error(code, out, err):
    """An exit 3 with an error message and no output; a budget refusal
    (exit 2) is the other outcome the contract allows for bad input."""
    return (code == 3 or code == 2 and "budget" in err) and out == "" \
        and err.startswith("error:") and "Traceback" not in err


# numbers in [0,1]: the edits below make the bad ones ("1/0", "-1", "10")
SET_NUMBERS = st.sampled_from(["0", "1", "1/2", "1/3", "2/3", "1/4", "3/4"])
set_atoms = st.one_of(
    st.builds("[{},{}]".format, SET_NUMBERS, SET_NUMBERS),
    st.lists(SET_NUMBERS, max_size=4).map(lambda xs: "{" + ",".join(xs) + "}"),
    st.builds("cantor({},{})".format, SET_NUMBERS, SET_NUMBERS),
    st.builds("{}({};{})".format, st.sampled_from(["seqdown", "SeqUp"]),
              SET_NUMBERS, SET_NUMBERS))


@st.composite
def set_texts(draw):
    """A union of set terms with {0,1}, some of them cut or with a
    character swapped."""
    text = " + ".join(draw(st.lists(set_atoms, max_size=3)) + ["{0,1}"])
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["", "+", ",", ";", "(", "]", "{", "/", "-", "0", " "]))
        text = text[:i] + edit + text[i + draw(st.integers(0, 1)):]
    return text


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(set_texts())
def test_set_texts_get_a_classification_or_an_input_error(text):
    code, out, err = _quiet(["classify", "--", text])
    assert code == 0 and out and err == "" or _input_error(code, out, err), (text, err)


# valid interpretations to mangle: a finite one with every table kind, and
# an omega one with a harmonic tail, a constant tail and a successor
INTERPRETATIONS = [
    {"universe": ["u0", "u1"], "truth_set": "{0,1/2,1}",
     "predicates": {"A/0": {"": "1/2"}, "P/1": {"u0": "0", "u1": "1"},
                    "Q/1": {"u0": "1/2", "u1": "0"}},
     "functions": {"c/0": {"": "u1"}, "s/1": {"u0": "u1", "u1": "u0"}},
     "variables": {"y": "u0"}},
    {"universe": ["u0"], "truth_set": "[0,1]",
     "predicates": {"A/0": {"": "1/2"}, "P/1": {"u0": "1/4"}, "Q/1": {"u0": "1"}},
     "functions": {"c/0": {"": "u0"}, "s/1": "successor"},
     "tail": {"P/1": {"kind": "harmonic", "limit": "0", "sign": "+", "offset": 0},
              "Q/1": {"*": {"kind": "const", "value": "1/3"}}}}]
INTERP_KEYS = ["universe", "truth_set", "predicates", "functions", "variables", "tail",
               "kind", "limit", "sign", "offset", "value", "A/0", "P/1", "P/x", "u0", "*", ""]
INTERP_STRINGS = ["0", "1", "1/2", "1/0", "-1", "2", "x", "u0", "u1", "u0,u1", "*", "+", "-",
                  "harmonic", "const", "successor", "[0,1]", "{0,1}", "{0,1/2,1}", "{}",
                  "seqdown(0;1)", "sequp(1;1)", "cantor(0,1)", "[1/2,1]", "", "P/1"]
interp_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(allow_nan=False)
    | st.sampled_from(INTERP_STRINGS) | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(INTERP_KEYS), kids, max_size=3),
    max_leaves=6)
EVAL_FORMULAS = ["exists x. P(x)", "forall x. P(x)", "forall x. (P(x) -> A)",
                 "exists x. (P(x) & Q(s(x)))", "A -> forall x. Q(x)",
                 "P(c()) | (forall y. P(s(y)))"]
# a negative harmonic offset once divided by k + offset = 0
NEGATIVE_OFFSET = [(list(_paths(INTERPRETATIONS[1])).index(("tail", "P/1", "offset")), False, -1)]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@example(1, NEGATIVE_OFFSET, "forall x. P(x)")
@given(st.sampled_from(range(len(INTERPRETATIONS))),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.booleans(), interp_values),
                max_size=2),
       st.sampled_from(EVAL_FORMULAS))
def test_mangled_interpretations_get_a_value_or_an_input_error(tmp_path_factory, which,
                                                               changes, formula):
    doc = json.loads(json.dumps(INTERPRETATIONS[which]))
    for where, delete, value in changes:
        doc = _mangle(doc, where, delete, value)
    path = tmp_path_factory.mktemp("interp") / "i.json"
    path.write_text(json.dumps(doc))
    code, out, err = _quiet(["eval", "-i", str(path), formula])
    assert code == 0 and out.startswith("value: ") or _input_error(code, out, err), \
        (doc, err)
