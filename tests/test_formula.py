"""Syntax layer: parsing, printing, substitution, syntactic predicates."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from goedel_logics.formula import (
    App, ArityConflictError, Atom, Bot, And, Or, Imp, Forall, Exists, FormulaError,
    Neg, ParseError, ParseMemo, Top, Var, alpha_eq, free_vars, is_crisp, is_prenex,
    normalize, parse, parse_term, print_formula, signature, subformulas, substitute,
)
from goedel_logics.transforms import relativize_dneg

from helpers import random_formula, reference_alpha_eq, reference_parse, reference_parse_term


def test_parse_identity_conditional():
    f = parse("P(c()) -> P(c())")
    assert f == Imp(Atom("P", (App("c"),)), Atom("P", (App("c"),)))


def test_parse_c_up():
    f = parse("exists x. (A(x) -> forall y. A(y))")
    want = Exists("x", Imp(Atom("A", (Var("x"),)),
                           Forall("y", Atom("A", (Var("y"),)))))
    assert f == want


def test_parse_negation_sugar():
    assert parse("~A(c())") == Imp(Atom("A", (App("c"),)), Bot())


def test_parse_bare_propositional_atoms():
    assert parse("A1") == Atom("A1")


def test_parse_quantifier_scope_maximal():
    f = parse("forall x. A(x) -> B")
    assert isinstance(f, Forall) and isinstance(f.body, Imp)


PARSE_ERRORS = [
    ("", 1, 1, "unexpected end of input"),
    ("  \n ", 1, 1, "unexpected end of input"),
    # at the end of input: the end of the last token
    ("A -> ", 1, 5, "unexpected end of input"),
    ("A &", 1, 4, "unexpected end of input"),
    ("~", 1, 2, "unexpected end of input"),
    ("(A -> B", 1, 8, "unexpected end of input"),
    ("A &\n  (B -> )", 2, 9, "expected a formula, found ')'"),
    ("A\r\nB", 2, 1, "trailing input 'B'"),
    ("A\x0cB", 2, 1, "trailing input 'B'"),
    ("A\x1c &", 2, 3, "unexpected end of input"),
    ("A B", 1, 3, "trailing input 'B'"),
    ("forall P. A", 1, 8, "expected variable after forall, found 'P'"),
    ("exists bot. A", 1, 8, "expected variable after exists, found 'bot'"),
    ("forall x A", 1, 10, "expected '.', found 'A'"),
    ("A & \x00", 1, 5, "unexpected character '\\x00'"),
    ("(A\n -> \x7f", 2, 5, "unexpected character '\\x7f'"),
    ("A -> -B", 1, 6, "expected a formula, found '-'"),
    ("\u00e9", 1, 1, "expected a formula, found '\u00e9'"),
]

PARSE_TERM_ERRORS = [
    ("", 1, 1, "unexpected end of input"),
    ("f(", 1, 3, "unexpected end of input"),
    ("c() x", 1, 5, "trailing input 'x'"),
    ("X", 1, 1, "expected a term, found 'X'"),
    ("f(x,\n  top)", 2, 3, "expected a term, found 'top'"),
]

ARITY_CONFLICTS = [
    ("P(c()) & P(c(),c())", "1:10: symbol P used with arities 1 and 2"),
    ("P(f(c()), f())", "1:11: symbol f used with arities 1 and 0"),
    ("Q(x) &\n P(c()) & P(c(),c())", "2:11: symbol P used with arities 1 and 2"),
]


def test_parse_errors_carry_position():
    for fn, cases in ((parse, PARSE_ERRORS), (parse_term, PARSE_TERM_ERRORS)):
        for text, line, column, message in cases:
            with pytest.raises(ParseError) as e:
                fn(text)
            assert (e.value.line, e.value.column) == (line, column), text
            assert str(e.value) == f"{line}:{column}: {message}"


def test_deep_nesting_is_a_formula_error():
    # the library raises the typed error, not a bare RecursionError
    for fn, text in ((parse, "~" * 3000 + "A"), (parse, "(" * 3000 + "A" + ")" * 3000),
                     (parse_term, "f(" * 3000 + "x" + ")" * 3000),
                     (ParseMemo().parse, "~" * 3000 + "A")):
        with pytest.raises(FormulaError, match="^input nested too deeply$"):
            fn(text)


def test_arity_conflict_rejected():
    for text, message in ARITY_CONFLICTS:
        with pytest.raises(ArityConflictError) as e:
            parse(text)
        assert str(e.value) == message


# a simple atom such as P(f()) is one token: its errors name the places
# they name when every parenthesis is its own token
SIMPLE_ATOM_ERRORS = [
    ("Q(f(x)) & P(f())", ArityConflictError, "1:13: symbol f used with arities 1 and 0"),
    ("P(c()) & Q(c(x))", ArityConflictError, "1:12: symbol c used with arities 0 and 1"),
    ("P(bot)", ParseError, "1:3: expected a term, found 'bot'"),
    ("P(x,)", ParseError, "1:5: expected a term, found ')'"),
]


def test_simple_atom_errors_keep_their_positions():
    for text, error, message in SIMPLE_ATOM_ERRORS:
        for fn in (parse, ParseMemo().parse):
            with pytest.raises(error) as e:
                fn(text)
            assert str(e.value) == message


def test_print_top_sugar():
    assert print_formula(Imp(Bot(), Bot())) == "top"


def test_print_linearity_shape():
    a, b = Atom("A"), Atom("B")
    assert print_formula(Or(Imp(a, b), Imp(b, a))) == "(A -> B) | (B -> A)"


def test_print_imp_right_assoc():
    a, b, c = Atom("A"), Atom("B"), Atom("C")
    assert print_formula(Imp(a, Imp(b, c))) == "A -> B -> C"
    assert print_formula(Imp(Imp(a, b), c)) == "(A -> B) -> C"


def test_print_or_and_minimal_parens():
    a, b, c = Atom("A"), Atom("B"), Atom("C")
    assert print_formula(Or(Or(a, b), c)) == "A | B | C"
    assert print_formula(Or(a, Or(b, c))) == "A | (B | C)"
    assert print_formula(And(Or(a, b), c)) == "(A | B) & C"


def test_substitute_simple_and_bound():
    f = Atom("A", (Var("x"),))
    assert substitute(f, "x", App("c")) == Atom("A", (App("c"),))
    g = Forall("x", f)
    assert substitute(g, "x", App("c")) == g


def test_substitute_capture_avoiding():
    # exists y. R(x,y) with x := f(y) must rename the binder
    f = Exists("y", Atom("R", (Var("x"), Var("y"))))
    out = substitute(f, "x", App("f", (Var("y"),)))
    assert isinstance(out, Exists) and out.var != "y"
    assert alpha_eq(out, Exists("z", Atom("R", (App("f", (Var("y"),)), Var("z")))))


def test_substitute_noop_when_not_free():
    rng = random.Random(1)
    for _ in range(200):
        f = random_formula(rng, 4, [])
        assert "zz" not in free_vars(f)
        assert substitute(f, "zz", App("c")) == f


def test_free_vars():
    assert free_vars(parse("forall x. A(x)")) == frozenset()
    f = Imp(Atom("A", (Var("x"),)), Forall("x", Atom("A", (Var("x"),))))
    assert free_vars(f) == {"x"}


def test_signature_collects_arities():
    preds, funcs = signature(parse("P(f(c()),x) & Q"))
    assert preds == {"P": 2, "Q": 0}
    assert funcs == {"f": 1, "c": 0}


def test_is_crisp():
    assert is_crisp(parse("~~L(x,y)"))
    assert not is_crisp(parse("P(x)"))
    assert is_crisp(parse("~P(c()) & ~~Q(c())"))
    assert not is_crisp(parse("~(P(c()) & Q(c()))"))
    assert is_crisp(parse("forall x. (~~P(x) -> ~Q(x))"))


def test_is_crisp_stable_under_relativization():
    rng = random.Random(5)
    guard = lambda v: Neg(Neg(Atom("R", (Var(v),))))
    for _ in range(200):
        f = random_formula(rng, 4, [])
        assert is_crisp(relativize_dneg(f, guard))


def test_is_prenex():
    assert is_prenex(parse("exists x. forall y. (A(y) -> A(x))"))
    assert not is_prenex(parse("exists x. (A(x) -> forall y. A(y))"))
    assert is_prenex(parse("(A -> B) | ~C"))


def test_normalize_removes_shadowing():
    f = parse("forall x. (A(x) & (exists x. B(x)))")
    n = normalize(f)
    assert isinstance(n, Forall)
    inner = n.body.right
    assert isinstance(inner, Exists)
    assert inner.var != n.var


def test_alpha_eq():
    assert alpha_eq(parse("forall x. A(x)"), parse("forall y. A(y)"))
    assert not alpha_eq(parse("forall x. A(x)"), parse("exists y. A(y)"))
    assert not alpha_eq(parse("forall x. A(x)"), parse("forall y. B(y)"))


def test_alpha_eq_on_a_shared_body_compares_binders():
    body = parse("P(x,y)")
    assert alpha_eq(Forall("x", body), Forall("x", body))
    assert not alpha_eq(Forall("x", body), Forall("y", body))
    assert not alpha_eq(Exists("x", Forall("y", body)), Exists("y", Forall("x", body)))


def test_roundtrip_random_asts():
    # parse . print == normalize on 10^4 random ASTs of depth <= 6
    rng = random.Random(2024)
    for _ in range(10_000):
        f = random_formula(rng, rng.randint(0, 6), [])
        assert parse(print_formula(f)) == normalize(f)


# free and bound names include the canonical x1, x2 that normalize
# assigns, and binders may shadow each other
NAMES = ["x", "y", "x1", "x2"]
terms = st.recursive(
    st.builds(Var, st.sampled_from(NAMES)) | st.just(App("c")),
    lambda t: st.builds(lambda a: App("f", (a,)), t)
    | st.builds(lambda a, b: App("g", (a, b)), t, t),
    max_leaves=3)
any_formulas = st.recursive(
    st.sampled_from([Atom("A"), Bot(), Top()])
    | st.builds(lambda t: Atom("P", (t,)), terms)
    | st.builds(lambda s, t: Atom("R", (s, t)), terms, terms),
    lambda sub: st.builds(And, sub, sub) | st.builds(Or, sub, sub)
    | st.builds(Imp, sub, sub) | st.builds(Neg, sub)
    | st.builds(Forall, st.sampled_from(NAMES), sub)
    | st.builds(Exists, st.sampled_from(NAMES), sub),
    max_leaves=8)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(any_formulas)
def test_print_parse_is_normalize(f):
    assert parse(print_formula(f)) == normalize(f)


@st.composite
def sharing_pairs(draw):
    """Two formulas built over one pool of subtrees, so they share objects,
    under binders that may rename or shadow each other; the second is at
    times the normal form of the first."""
    pool = draw(st.lists(any_formulas, min_size=1, max_size=3))
    over_pool = st.recursive(
        st.sampled_from(pool),
        lambda sub: st.builds(And, sub, sub) | st.builds(Imp, sub, sub)
        | st.builds(Forall, st.sampled_from(NAMES), sub)
        | st.builds(Exists, st.sampled_from(NAMES), sub),
        max_leaves=4)
    f = draw(over_pool)
    return f, draw(st.just(normalize(f)) | over_pool)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(sharing_pairs())
def test_alpha_eq_matches_the_closure_walk(pair):
    f, g = pair
    assert alpha_eq(f, g) == reference_alpha_eq(f, g)
    assert alpha_eq(g, f) == reference_alpha_eq(g, f)


def test_roundtrip_is_identity_on_normalized():
    rng = random.Random(77)
    for _ in range(2000):
        f = normalize(random_formula(rng, 5, []))
        assert parse(print_formula(f)) == f


def test_parse_term_forms():
    assert parse_term("x") == Var("x")
    assert parse_term("c()") == App("c")
    assert parse_term("f(x,g(c()))") == App("f", (Var("x"), App("g", (App("c"),))))


def test_alpha_eq_iff_equal_normal_forms():
    rng = random.Random(83)
    pool = [random_formula(rng, 4, []) for _ in range(120)]
    for i, f in enumerate(pool):
        for g in pool[i:i + 6]:
            assert alpha_eq(f, g) == (normalize(f) == normalize(g))


def outcome(fn, text):
    """The AST, or the exception type with its message."""
    try:
        return fn(text)
    except (ParseError, ArityConflictError) as e:
        return type(e), str(e)


# fragments of formula text, of malformed text, and of every kind of
# line break and blank that str.splitlines and str.isspace know
FRAGMENTS = [
    "A", "B1", "P(", "R(", "f(", "c()", "x", "y", "_z", "(", ")", ",", ".",
    "->", "-", ">", "&", "|", "~", "forall", "exists", "bot", "top",
    "forall x.", "forall P.", "exists bot.", "P(c()) & P(c(),c())", "P(x,y)",
    "P(c())", "P(f())", "Q(f(x))", "R(x,c())", "P(bot)", "P(x,)", "P( x)",
    " ", "  ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85",
    "\u2028", "\xa0", "\x00", "\x7f", "\u200b", "\u00e9", "\u00c9", "$", "#",
]
texts = (st.lists(st.sampled_from(FRAGMENTS), max_size=16).map("".join)
         | st.text(max_size=12))


@settings(max_examples=1000, deadline=None, database=None, derandomize=True)
@given(texts)
def test_parse_matches_reference(text):
    assert outcome(parse, text) == outcome(reference_parse, text)
    assert outcome(parse_term, text) == outcome(reference_parse_term, text)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(any_formulas, st.sampled_from([" ", "\n", "\r\n", "\x0c", "\t "]))
def test_parse_matches_reference_on_printed_formulas(f, blank):
    text = print_formula(f).replace(" ", blank)
    assert outcome(parse, text) == outcome(reference_parse, text)
    for cut in (len(text) // 3, len(text) // 2):
        assert outcome(parse, text[:cut]) == outcome(reference_parse, text[:cut])


# formula parts that recur, so a batch hits its memo, and parts that use
# P, Q, f and A with other arities, so hits clash with the rest of a text
MEMO_FRAGMENTS = [
    "P(x)", "(P(x))", "P", "P(x,x)", "Q(f(x))", "Q(f(x,y))", "A", "A(x)", "c()",
    "(", ")", " -> ", " & ", " | ", "~", "forall x. ", "exists y. ", "bot", "top",
    "(P(x) -> ~P(x))", "P(x) -> ~P(x)", ",", " ", "\n", "x",
    "P(c())", "P(f())", "R(x,c())", "P(bot)", "P(x,)", "P( x)",
]
memo_texts = st.lists(st.sampled_from(MEMO_FRAGMENTS), max_size=10).map("".join) | texts


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(st.lists(memo_texts, max_size=6))
@example(["(P(x))", "P & (P(x))"])
@example(["Q(f(x))", "R(f(x,y)) & Q(f(x))"])
@example(["P(x) -> ~P(x)", "A(x) & (P(x) -> ~P(x))", "P & (P(x) -> ~P(x))", "A & P(x)"])
def test_parse_memo_matches_standalone_parse(batch):
    memo = ParseMemo()
    shared = [outcome(memo.parse, text) for text in batch]
    assert shared == [outcome(parse, text) for text in batch]
    # a text given again returns its first AST
    for text, got in zip(batch, shared):
        if not isinstance(got, tuple):
            assert memo.parse(text) is got


def subtrees(f):
    """The formula and term nodes of f."""
    for g in subformulas(f):
        yield g
        stack = list(g.args) if isinstance(g, Atom) else []
        while stack:
            t = stack.pop()
            yield t
            if isinstance(t, App):
                stack += t.args


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(memo_texts, max_size=6))
@example(["P(x) & P( x)", "(P(x)) -> Q(x,c())", "Q(x, c()) | ~P(x)"])
@example(["A", "A() & A ()", "R(f(x), f(x)) -> R(f( x),f(x))"])
def test_memo_makes_equal_subtrees_one_object(batch):
    memo = ParseMemo()
    first = {}
    for text in batch:
        f = outcome(memo.parse, text)
        if isinstance(f, tuple):
            continue
        for g in subtrees(f):
            assert first.setdefault(g, g) is g
