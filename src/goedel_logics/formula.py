"""First-order formula ASTs, concrete syntax, substitution and syntactic tests.

The language has connectives ``&``, ``|``, ``->``, the constant ``bot``,
and the quantifiers ``forall``/``exists``.  Negation and verum are sugar:
``~A`` is ``A -> bot`` and ``top`` is ``bot -> bot``; neither has its own
node kind.  Predicates start with an uppercase letter, functions and
constants are lowercase and always written with parentheses (``c()``),
variables are bare lowercase identifiers.

The parser tokenizes a text in one regex scan.  Positions are computed
only on error: a token's ``line:column`` is then found by a second scan.
A ParseMemo parses a batch of texts that repeat subformulas (the lines of
one proof file): every formula part it has seen, keyed by its tokens, is
parsed once and shared, so equal parts are one AST and ``alpha_eq`` stops
at them.  A standalone ``parse`` does no memo work.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterator, Mapping, Optional, TypeVar, Union

_T = TypeVar("_T")


class GoedelError(Exception):
    """Base class of the typed input errors of every module: the CLI's
    exit 3.  (An exhausted budget is ``decide.BudgetError``: exit 2.)"""


class FormulaError(GoedelError):
    """Base class for syntax-level errors."""


class ParseError(FormulaError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ArityConflictError(FormulaError):
    """A symbol is used with two different arities."""


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    name: str
    args: tuple["Term", ...] = ()


Term = Union[Var, App]


def term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    out: frozenset[str] = frozenset()
    for a in t.args:
        out |= term_vars(a)
    return out


def subst_term(t: Term, mapping: Mapping[str, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    return App(t.name, tuple(subst_term(a, mapping) for a in t.args))


def term_size(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + sum(term_size(a) for a in t.args)


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    return f"{t.name}({','.join(print_term(a) for a in t.args)})"


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


Formula = Union[Atom, Bot, And, Or, Imp, Forall, Exists]

BOT = Bot()


def Neg(f: Formula) -> Imp:
    return Imp(f, BOT)


def Top() -> Imp:
    return Imp(BOT, BOT)


def balanced(join: Callable[[_T, _T], _T], parts: list[_T]) -> _T:
    """parts joined by a binary join (a connective, or _disj on programs) as
    a balanced tree, whose depth grows with the logarithm of len(parts)."""
    while len(parts) > 1:
        paired = [join(a, b) for a, b in zip(parts[::2], parts[1::2])]
        parts = paired + parts[len(paired) * 2:]
    return parts[0]


def is_top(f: Formula) -> bool:
    return isinstance(f, Imp) and isinstance(f.left, Bot) and isinstance(f.right, Bot)


def is_neg(f: Formula) -> bool:
    return isinstance(f, Imp) and isinstance(f.right, Bot)


# ---------------------------------------------------------------------------
# Syntactic queries


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        out: frozenset[str] = frozenset()
        for t in f.args:
            out |= term_vars(t)
        return out
    if isinstance(f, Bot):
        return frozenset()
    if isinstance(f, (And, Or, Imp)):
        return free_vars(f.left) | free_vars(f.right)
    return free_vars(f.body) - {f.var}


def subformulas(f: Formula) -> Iterator[Formula]:
    """Syntactic subformulas (quantified bodies are not instantiated)."""
    yield f
    if isinstance(f, (And, Or, Imp)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, (Forall, Exists)):
        yield from subformulas(f.body)


def atoms(f: Formula) -> list[Atom]:
    """Distinct atoms of f in first-occurrence order."""
    seen: dict[Atom, None] = {}
    for g in subformulas(f):
        if isinstance(g, Atom) and g not in seen:
            seen[g] = None
    return list(seen)


def signature(f: Formula, preds: Optional[dict[str, int]] = None,
              funcs: Optional[dict[str, int]] = None) -> tuple[dict[str, int], dict[str, int]]:
    """Predicate and function symbols with arities; rejects arity conflicts."""
    preds = {} if preds is None else preds
    funcs = {} if funcs is None else funcs

    def note(table: dict[str, int], name: str, arity: int, kind: str) -> None:
        old = table.setdefault(name, arity)
        if old != arity:
            raise ArityConflictError(
                f"{kind} symbol {name} used with arities {old} and {arity}")

    def walk_term(t: Term) -> None:
        if isinstance(t, App):
            note(funcs, t.name, len(t.args), "function")
            for a in t.args:
                walk_term(a)

    for g in subformulas(f):
        if isinstance(g, Atom):
            note(preds, g.pred, len(g.args), "predicate")
            for t in g.args:
                walk_term(t)
    return preds, funcs


def is_crisp(f: Formula) -> bool:
    """True iff every atom occurrence sits directly under ~ or ~~."""
    if isinstance(f, Atom):
        return False
    if isinstance(f, Bot):
        return True
    if isinstance(f, Imp):
        if isinstance(f.right, Bot) and isinstance(f.left, Atom):
            return True  # ~P(..)
        return is_crisp(f.left) and is_crisp(f.right)
    if isinstance(f, (And, Or)):
        return is_crisp(f.left) and is_crisp(f.right)
    return is_crisp(f.body)


def is_prenex(f: Formula) -> bool:
    while isinstance(f, (Forall, Exists)):
        f = f.body
    return not any(isinstance(g, (Forall, Exists)) for g in subformulas(f))


def prefix_and_matrix(f: Formula) -> tuple[list[tuple[str, str]], Formula]:
    """Quantifier prefix as (kind, var) pairs plus the matrix."""
    prefix: list[tuple[str, str]] = []
    while isinstance(f, (Forall, Exists)):
        prefix.append(("forall" if isinstance(f, Forall) else "exists", f.var))
        f = f.body
    return prefix, f


# ---------------------------------------------------------------------------
# Substitution and alpha-equivalence


def fresh_name(base: str, avoid: AbstractSet[str]) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


def substitute(f: Formula, var: str, t: Term) -> Formula:
    """Capture-avoiding substitution of t for the free occurrences of var."""
    tv = term_vars(t)

    def go(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(subst_term(a, {var: t}) for a in g.args))
        if isinstance(g, Bot):
            return g
        if isinstance(g, (And, Or, Imp)):
            return type(g)(go(g.left), go(g.right))
        if g.var == var:
            return g
        if g.var in tv and var in free_vars(g.body):
            new = fresh_name(g.var, tv | free_vars(g.body) | {var})
            body = substitute(g.body, g.var, Var(new))
            return type(g)(new, substitute(body, var, t))
        return type(g)(g.var, go(g.body))

    return go(f)


def alpha_eq(f: Formula, g: Formula) -> bool:
    """Structural equality up to renaming of bound variables.  A subtree
    shared by both sides (see ParseMemo) is equal at once when the binders
    above it map its names alike."""

    def terms_eq(s: Term, t: Term, env1: dict[str, int], env2: dict[str, int]) -> bool:
        if isinstance(s, Var) and isinstance(t, Var):
            return env1.get(s.name, s.name) == env2.get(t.name, t.name)
        if isinstance(s, App) and isinstance(t, App):
            return (s.name == t.name and len(s.args) == len(t.args)
                    and all(terms_eq(a, b, env1, env2) for a, b in zip(s.args, t.args)))
        return False

    def go(a: Formula, b: Formula, env1: dict[str, int], env2: dict[str, int], depth: int) -> bool:
        if a is b and env1 == env2:
            return True
        if type(a) is not type(b):
            return False
        if isinstance(a, Atom):
            return (a.pred == b.pred and len(a.args) == len(b.args)
                    and all(terms_eq(s, t, env1, env2) for s, t in zip(a.args, b.args)))
        if isinstance(a, Bot):
            return True
        if isinstance(a, (And, Or, Imp)):
            return (go(a.left, b.left, env1, env2, depth)
                    and go(a.right, b.right, env1, env2, depth))
        e1 = dict(env1)
        e2 = dict(env2)
        e1[a.var] = depth
        e2[b.var] = depth
        return go(a.body, b.body, e1, e2, depth + 1)

    return go(f, g, {}, {}, 0)


def normalize(f: Formula) -> Formula:
    """Rename bound variables to a canonical x1, x2, ... numbering.

    Binders are numbered in pre-order, skipping names that occur free, so
    normalized formulas have pairwise distinct bound names (no shadowing)
    and alpha-equivalent formulas normalize to structurally equal ASTs.
    """
    avoid = free_vars(f)
    counter = [0]

    def next_name() -> str:
        while True:
            counter[0] += 1
            name = f"x{counter[0]}"
            if name not in avoid:
                return name

    def go(g: Formula, env: dict[str, Term]) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(subst_term(t, env) for t in g.args))
        if isinstance(g, Bot):
            return g
        if isinstance(g, (And, Or, Imp)):
            return type(g)(go(g.left, env), go(g.right, env))
        new = next_name()
        env2 = dict(env)
        env2[g.var] = Var(new)
        return type(g)(new, go(g.body, env2))

    return go(f, {})


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(r"->|[()~&|.,]|[A-Za-z_][A-Za-z0-9_]*|\S")

_NAME_RE = re.compile(r"[a-z_][A-Za-z0-9_]*")

_KEYWORDS = {"forall", "exists", "bot", "top"}


class _Parser:
    """Recursive descent over the tokens of one regex scan.

    Tokens are plain strings closed by a ``None`` sentinel.  No token
    holds whitespace, so the scan skips exactly the characters that
    str.isspace skips.
    """

    def __init__(self, text: str):
        self.text = text
        self.toks: list[Optional[str]] = _TOKEN_RE.findall(text) + [None]
        if not text.isprintable():
            for i, tok in enumerate(self.toks[:-1]):
                if len(tok) == 1 and not tok.isprintable():
                    raise self.error_at(i, f"unexpected character {tok!r}")
        self.pos = 0
        self.preds: dict[str, int] = {}
        self.funcs: dict[str, int] = {}

    def position(self, i: int) -> tuple[int, int]:
        """1-based line and column of token i, lines split as by
        str.splitlines; found by a second scan, which only errors need."""
        start = next(itertools.islice(_TOKEN_RE.finditer(self.text), i, None)).start()
        lines = (self.text[:start] + "x").splitlines()
        return len(lines), len(lines[-1])

    def error_at(self, i: int, msg: str) -> ParseError:
        """An error at token i, at the last token past the end, at 1:1
        without tokens."""
        if len(self.toks) == 1:
            return ParseError(msg, 1, 1)
        return ParseError(msg, *self.position(min(i, len(self.toks) - 2)))

    def error(self, msg: str) -> ParseError:
        return self.error_at(self.pos, msg)

    def next(self) -> str:
        tok = self.toks[self.pos]
        if tok is None:
            if self.pos == 0:
                raise ParseError("unexpected end of input", 1, 1)
            line, col = self.position(self.pos - 1)
            raise ParseError("unexpected end of input", line,
                             col + len(self.toks[self.pos - 1]))
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            raise self.error_at(self.pos - 1, f"expected {text!r}, found {tok!r}")

    def note_arity(self, table: dict[str, int], name: str, arity: int, i: int) -> None:
        old = table.setdefault(name, arity)
        if old != arity:
            line, col = self.position(i)
            raise ArityConflictError(
                f"{line}:{col}: symbol {name} used with arities {old} and {arity}")

    def whole(self) -> Formula:
        """The formula that all the tokens form."""
        f = self.formula()
        if self.toks[self.pos] is not None:
            raise self.error(f"trailing input {self.toks[self.pos]!r}")
        return f

    # formula := quant | imp ; imp := or ("->" formula)?
    def formula(self) -> Formula:
        if self.toks[self.pos] in ("forall", "exists"):
            return self.quant()
        left = self.disjunction()
        if self.toks[self.pos] == "->":
            self.pos += 1
            return Imp(left, self.formula())
        return left

    def quant(self) -> Formula:
        kw = self.next()
        var = self.next()
        if not _NAME_RE.fullmatch(var) or var in _KEYWORDS:
            raise self.error_at(self.pos - 1, f"expected variable after {kw}, found {var!r}")
        self.expect(".")
        body = self.formula()
        return Forall(var, body) if kw == "forall" else Exists(var, body)

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.toks[self.pos] == "|":
            self.pos += 1
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.toks[self.pos] == "&":
            self.pos += 1
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.toks[self.pos]
        if tok == "~":
            self.pos += 1
            return Neg(self.unary())
        if tok == "bot":
            self.pos += 1
            return BOT
        if tok == "top":
            self.pos += 1
            return Top()
        if tok == "(":
            self.pos += 1
            f = self.formula()
            self.expect(")")
            return f
        if tok is None:
            self.next()  # raises "unexpected end of input" at the end column
        elif tok[0].isupper():
            return self.atom()
        raise self.error(f"expected a formula, found {tok!r}")

    def atom(self) -> Atom:
        i = self.pos
        name = self.next()
        args: tuple[Term, ...] = ()
        if self.toks[self.pos] == "(":
            self.pos += 1
            args = self.termlist()
            self.expect(")")
        self.note_arity(self.preds, name, len(args), i)
        return Atom(name, args)

    def termlist(self) -> tuple[Term, ...]:
        if self.toks[self.pos] == ")":
            return ()
        out = [self.term()]
        while self.toks[self.pos] == ",":
            self.pos += 1
            out.append(self.term())
        return tuple(out)

    def term(self) -> Term:
        i = self.pos
        name = self.next()
        if not _NAME_RE.fullmatch(name) or name in _KEYWORDS:
            raise self.error_at(i, f"expected a term, found {name!r}")
        if self.toks[self.pos] == "(":
            self.pos += 1
            args = self.termlist()
            self.expect(")")
            self.note_arity(self.funcs, name, len(args), i)
            return App(name, args)
        return Var(name)


def parse(text: str) -> Formula:
    """Parse concrete syntax into a raw AST (bound names kept as written)."""
    try:
        return _Parser(text).whole()
    except RecursionError:
        raise FormulaError("input nested too deeply") from None


_PAREN_DELTA = {"(": 1, ")": -1}


class _Unshared(Exception):
    """A shared parse that the memo cannot vouch for: a symbol's arity
    clashes, or a part did not end where its tokens do.  The text is
    parsed again without the memo, which raises the standalone error."""


class _SharedParser(_Parser):
    """The parser of one text in a ParseMemo.

    A formula that runs to the end of its group or text (a whole text, a
    parenthesized group, the right side of ``->``, a quantifier body) and
    an atom with arguments are looked up by their tokens before they are
    parsed: a hit returns the stored AST and skips the tokens.  Each entry
    carries the symbols its AST uses with their arities, and a hit merges
    them into the formula's arity table.
    """

    def __init__(self, text: str, entries: dict):
        super().__init__(text)
        self.entries = entries
        # predicates start upper-case and functions lower-case, so one
        # table can hold both arities
        self.funcs = self.preds
        # paren depth after each token: the ')' closing a '(' is the
        # first later token back at the depth before that '('
        self.depth = list(itertools.accumulate(
            map(_PAREN_DELTA.get, self.toks, itertools.repeat(0))))

    def shared(self, end: int, parse_part: Callable[[], Formula]) -> Formula:
        """The AST of the tokens from pos to end: stored, or parsed by
        parse_part() with an arity table of its own and stored."""
        key = tuple(self.toks[self.pos:end])
        entry = self.entries.get(key)
        if entry is None:
            outer = self.preds
            self.preds = self.funcs = {}
            f = parse_part()
            if self.pos != end:
                raise _Unshared
            entry = self.entries[key] = (f, self.preds)
            self.preds = self.funcs = outer
        else:
            self.pos = end
        used = entry[1]
        if not used.items() <= self.preds.items():
            for name, arity in used.items():
                if self.preds.setdefault(name, arity) != arity:
                    raise _Unshared
        return entry[0]

    def formula(self) -> Formula:
        i = self.pos
        try:
            end = self.depth.index(self.depth[i - 1] - 1 if i else -1, i)
        except ValueError:
            end = len(self.toks) - 1
        return self.shared(end, super().formula)

    def unary(self) -> Formula:
        i = self.pos
        tok = self.toks[i]
        if tok is not None and tok[0].isupper() and self.toks[i + 1] == "(":
            try:
                end = self.depth.index(self.depth[i], i + 2) + 1
            except ValueError:  # unclosed: the plain parse reports it
                return self.atom()
            return self.shared(end, self.atom)
        return super().unary()


class ParseMemo:
    """Parses a batch of texts that repeat subformulas, such as the lines
    of one proof file.

    ``memo.parse(text)`` equals ``parse(text)`` and raises the same
    errors, but each distinct text, and each formula that runs to the
    end of a group or text, and each atom with arguments, is parsed once
    per memo and shared by every formula it occurs in.  Parts are keyed
    by their tokens, so a binding ``A -> B`` and the group ``(A -> B)`` of
    a step formula are one AST.  Arity conflicts stay per formula: a
    formula whose shared parts clash is parsed again without the memo,
    which raises the standalone error.  A memo keeps every AST it made
    alive, so create one per batch and drop it after.
    """

    def __init__(self) -> None:
        self.texts: dict[str, Formula] = {}
        self.entries: dict[tuple[str, ...], tuple[Formula, dict[str, int]]] = {}

    def parse(self, text: str) -> Formula:
        f = self.texts.get(text)
        if f is None:
            try:
                f = _SharedParser(text, self.entries).whole()
            except (FormulaError, _Unshared, RecursionError):
                # raises the standalone error; a RecursionError may be the
                # shared parser's alone, as it nests deeper per level
                f = parse(text)
            self.texts[text] = f
        return f


def parse_term(text: str) -> Term:
    p = _Parser(text)
    try:
        t = p.term()
    except RecursionError:
        raise FormulaError("input nested too deeply") from None
    if p.toks[p.pos] is not None:
        raise p.error(f"trailing input {p.toks[p.pos]!r}")
    return t


# ---------------------------------------------------------------------------
# Printer

_LEVEL_FORMULA = 0  # quantifiers and -> live here
_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_UNARY = 3


def _print(f: Formula, level: int) -> str:
    if is_top(f):
        return "top"
    if isinstance(f, Bot):
        return "bot"
    if isinstance(f, Atom):
        if not f.args:
            return f.pred
        return f"{f.pred}({','.join(print_term(t) for t in f.args)})"
    if is_neg(f):
        return "~" + _print(f.left, _LEVEL_UNARY)
    if isinstance(f, Imp):
        # right-associative, so the right side stays at formula level
        s = f"{_print(f.left, _LEVEL_OR)} -> {_print(f.right, _LEVEL_FORMULA)}"
        return f"({s})" if level > _LEVEL_FORMULA else s
    if isinstance(f, Or):
        s = f"{_print(f.left, _LEVEL_OR)} | {_print(f.right, _LEVEL_AND)}"
        return f"({s})" if level > _LEVEL_OR else s
    if isinstance(f, And):
        s = f"{_print(f.left, _LEVEL_AND)} & {_print(f.right, _LEVEL_UNARY)}"
        return f"({s})" if level > _LEVEL_AND else s
    kw = "forall" if isinstance(f, Forall) else "exists"
    s = f"{kw} {f.var}. {_print(f.body, _LEVEL_FORMULA)}"
    return f"({s})" if level > _LEVEL_FORMULA else s


def print_formula(f: Formula) -> str:
    """Grammar-conformant text with minimal parentheses.

    Bound variables are first renamed to the canonical numbering, so
    ``parse(print_formula(f))`` equals ``normalize(f)``.
    """
    return _print(normalize(f), _LEVEL_FORMULA)


def print_raw(f: Formula) -> str:
    """Like print_formula but keeps the bound-variable names as given."""
    return _print(f, _LEVEL_FORMULA)
