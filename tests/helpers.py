"""Shared generators for randomized tests (seeded, deterministic)."""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from goedel_logics.formula import (
    App, ArityConflictError, Atom, BOT, Bot, And, Or, Imp, Forall, Exists, Formula,
    Neg, ParseError, Term, Top, Var, free_vars,
)
from goedel_logics.goedelset import GoedelSet, finite_elements
from goedel_logics.semantics import (
    ONE, EntailmentResult, FiniteInterpretation, _joint_signature, evaluate,
)

CONNECTIVES = [And, Or, Imp]


def random_term(rng: random.Random, variables: list[str]):
    choices = ["c"] + variables
    pick = rng.choice(choices)
    if pick == "c":
        return App("c")
    return Var(pick)


def random_formula(rng: random.Random, depth: int, variables: list[str],
                   monadic: str = "P", letters: tuple[str, ...] = ("A", "B"),
                   allow_quant: bool = True) -> Formula:
    """Random formula over 0-ary letters, one monadic predicate and one
    constant; all quantified variables are fresh."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.random()
        if kind < 0.15:
            return Bot()
        if kind < 0.55 and variables:
            return Atom(monadic, (random_term(rng, variables),))
        if kind < 0.55:
            return Atom(monadic, (App("c"),))
        return Atom(rng.choice(letters))
    if allow_quant and rng.random() < 0.3:
        var = f"v{len(variables)}"
        body = random_formula(rng, depth - 1, variables + [var], monadic,
                              letters, allow_quant)
        return (Forall if rng.random() < 0.5 else Exists)(var, body)
    op = rng.choice(CONNECTIVES)
    return op(random_formula(rng, depth - 1, variables, monadic, letters, allow_quant),
              random_formula(rng, depth - 1, variables, monadic, letters, allow_quant))


def random_closed_formula(rng: random.Random, depth: int = 3, **kw) -> Formula:
    f = random_formula(rng, depth, [], **kw)
    assert not free_vars(f)
    return f


def random_interpretation(rng: random.Random, V: GoedelSet, size: int,
                          preds: dict[str, int],
                          funcs: dict[str, int] | None = None) -> FiniteInterpretation:
    values = finite_elements(V)
    universe = tuple(f"u{i}" for i in range(size))
    tables = {}
    for name, arity in preds.items():
        tables[name] = {tup: rng.choice(values)
                        for tup in itertools.product(universe, repeat=arity)}
    ftables = {}
    for name, arity in (funcs or {}).items():
        ftables[name] = {tup: rng.choice(universe)
                         for tup in itertools.product(universe, repeat=arity)}
    return FiniteInterpretation(universe, V, tables, ftables)


def iter_interpretations(preds: dict[str, int], funcs: dict[str, int],
                         values: Sequence, size: int,
                         truth_set: GoedelSet) -> Iterator[FiniteInterpretation]:
    """All interpretations with the given universe size, in a fixed order:
    symbols sorted by name, argument tuples in product order, table values
    ascending, function tables varying fastest."""
    universe = tuple(f"u{i}" for i in range(size))
    pred_keys = {p: list(itertools.product(universe, repeat=k)) for p, k in sorted(preds.items())}
    func_keys = {f: list(itertools.product(universe, repeat=k)) for f, k in sorted(funcs.items())}
    spaces = [itertools.product(values, repeat=len(keys)) for keys in pred_keys.values()]
    spaces += [itertools.product(universe, repeat=len(keys)) for keys in func_keys.values()]
    for choice in itertools.product(*spaces):
        tables = [dict(zip(keys, row))
                  for keys, row in zip([*pred_keys.values(), *func_keys.values()], choice)]
        yield FiniteInterpretation(universe, truth_set,
                                   dict(zip(pred_keys, tables)),
                                   dict(zip(func_keys, tables[len(pred_keys):])))


def reference_entails(premises: Sequence[Formula], conclusion: Formula,
                      V: GoedelSet, max_universe: int,
                      one_entailment: bool = False) -> EntailmentResult:
    """The slow oracle for semantics.entails_bruteforce: every
    interpretation in enumeration order, each evaluated with evaluate."""
    preds, funcs = _joint_signature(list(premises) + [conclusion])
    for size in range(1, max_universe + 1):
        for I in iter_interpretations(preds, funcs, finite_elements(V), size, V):
            prem = [evaluate(p, I) for p in premises]
            concl = evaluate(conclusion, I)
            if one_entailment:
                bad = all(v == ONE for v in prem) and concl < ONE
            else:
                bad = min(prem, default=ONE) > concl
            if bad:
                return EntailmentResult(False, I)
    return EntailmentResult(True)


# ---------------------------------------------------------------------------
# The reference parser, the slow oracle for formula.parse and parse_term:
# each line is tokenized character by character into tokens that carry
# their own line and column.

_TOKEN_RE = re.compile(r"->|[()~&|.,]|[A-Za-z_][A-Za-z0-9_]*|\S")

_KEYWORDS = {"forall", "exists", "bot", "top"}


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if m is None or (len(m.group()) == 1 and not m.group().isprintable()):
                raise ParseError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            toks.append(_Tok(m.group(), lineno, m.start() + 1))
            pos = m.end()
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.preds: dict[str, int] = {}
        self.funcs: dict[str, int] = {}

    def peek(self) -> Optional[str]:
        return self.toks[self.pos].text if self.pos < len(self.toks) else None

    def next(self) -> _Tok:
        if self.pos >= len(self.toks):
            last = self.toks[-1] if self.toks else _Tok("", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col + len(last.text))
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def error(self, msg: str) -> ParseError:
        tok = self.toks[self.pos] if self.pos < len(self.toks) else (
            self.toks[-1] if self.toks else _Tok("", 1, 1))
        return ParseError(msg, tok.line, tok.col)

    def note_arity(self, table: dict[str, int], name: str, arity: int, tok: _Tok) -> None:
        old = table.setdefault(name, arity)
        if old != arity:
            raise ArityConflictError(
                f"{tok.line}:{tok.col}: symbol {name} used with arities {old} and {arity}")

    # formula := quant | imp ; imp := or ("->" formula)?
    def formula(self) -> Formula:
        if self.peek() in ("forall", "exists"):
            return self.quant()
        left = self.disjunction()
        if self.peek() == "->":
            self.next()
            return Imp(left, self.formula())
        return left

    def quant(self) -> Formula:
        kw = self.next().text
        tok = self.next()
        if not re.fullmatch(r"[a-z_][A-Za-z0-9_]*", tok.text) or tok.text in _KEYWORDS:
            raise ParseError(f"expected variable after {kw}, found {tok.text!r}",
                             tok.line, tok.col)
        self.expect(".")
        body = self.formula()
        return Forall(tok.text, body) if kw == "forall" else Exists(tok.text, body)

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek() == "|":
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "~":
            self.next()
            return Neg(self.unary())
        if tok == "bot":
            self.next()
            return BOT
        if tok == "top":
            self.next()
            return Top()
        if tok == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if tok is not None and tok[0].isupper():
            return self.atom()
        raise self.error(f"expected a formula, found {tok!r}")

    def atom(self) -> Atom:
        tok = self.next()
        args: tuple[Term, ...] = ()
        if self.peek() == "(":
            self.next()
            args = self.termlist()
            self.expect(")")
        self.note_arity(self.preds, tok.text, len(args), tok)
        return Atom(tok.text, args)

    def termlist(self) -> tuple[Term, ...]:
        if self.peek() == ")":
            return ()
        out = [self.term()]
        while self.peek() == ",":
            self.next()
            out.append(self.term())
        return tuple(out)

    def term(self) -> Term:
        tok = self.next()
        if not re.fullmatch(r"[a-z_][A-Za-z0-9_]*", tok.text) or tok.text in _KEYWORDS:
            raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)
        if self.peek() == "(":
            self.next()
            args = self.termlist()
            self.expect(")")
            self.note_arity(self.funcs, tok.text, len(args), tok)
            return App(tok.text, args)
        return Var(tok.text)


def reference_parse(text: str) -> Formula:
    """The slow oracle for formula.parse."""
    p = _Parser(text)
    f = p.formula()
    if p.pos != len(p.toks):
        raise p.error(f"trailing input {p.peek()!r}")
    return f


def reference_parse_term(text: str) -> Term:
    """The slow oracle for formula.parse_term."""
    p = _Parser(text)
    t = p.term()
    if p.pos != len(p.toks):
        raise p.error(f"trailing input {p.peek()!r}")
    return t
