"""First-order formula ASTs, concrete syntax, substitution and syntactic tests.

The language has connectives ``&``, ``|``, ``->``, the constant ``bot``,
and the quantifiers ``forall``/``exists``.  Negation and verum are sugar:
``~A`` is ``A -> bot`` and ``top`` is ``bot -> bot``; neither has its own
node kind.  Predicates start with an uppercase letter, functions and
constants are lowercase and always written with parentheses (``c()``),
variables are bare lowercase identifiers.

The parser tokenizes a text in one regex scan, a simple atom such as
``P(x)`` being one token; a token's ``line:column`` is found by a second
scan, on error only.  Every node is built through an interning table
(hash-consing): ``parse`` uses a fresh table per text, a ParseMemo one
per batch of texts that repeat subformulas (the lines of one proof
file), so equal parts are one AST and ``alpha_eq`` stops at them.
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


def expect_json(value, kind: type, what: str, error: type[GoedelError]):
    """value, when it has the JSON type kind (dict, list or str); else the
    format error `error` of the document being read."""
    if not isinstance(value, kind):
        name = {dict: "an object", list: "an array", str: "a string"}[kind]
        raise error(f"{what} must be {name}, not {type(value).__name__}")
    return value


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
    """Structural equality up to renaming of bound variables.  One object
    is equal to itself at once; below the root, a subtree shared by both
    sides (see ParseMemo) is equal at once when the binders above it map
    its names alike."""
    return f is g or _alpha_eq(f, g, {}, {}, 0)


def _terms_eq(s: Term, t: Term, env1: dict[str, int], env2: dict[str, int]) -> bool:
    if isinstance(s, Var) and isinstance(t, Var):
        return env1.get(s.name, s.name) == env2.get(t.name, t.name)
    if isinstance(s, App) and isinstance(t, App):
        return (s.name == t.name and len(s.args) == len(t.args)
                and all(_terms_eq(a, b, env1, env2) for a, b in zip(s.args, t.args)))
    return False


def _alpha_eq(a: Formula, b: Formula, env1: dict[str, int], env2: dict[str, int],
              depth: int) -> bool:
    if a is b and env1 == env2:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, Atom):
        return (a.pred == b.pred and len(a.args) == len(b.args)
                and all(_terms_eq(s, t, env1, env2) for s, t in zip(a.args, b.args)))
    if isinstance(a, Bot):
        return True
    if isinstance(a, (And, Or, Imp)):
        return (_alpha_eq(a.left, b.left, env1, env2, depth)
                and _alpha_eq(a.right, b.right, env1, env2, depth))
    e1 = dict(env1)
    e2 = dict(env2)
    e1[a.var] = depth
    e2[b.var] = depth
    return _alpha_eq(a.body, b.body, e1, e2, depth + 1)


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

# a term of a simple atom: a variable or a constant c(), but no keyword
_SIMPLE_TERM = r"(?!(?:forall|exists|bot|top)[(,)])[a-z_][A-Za-z0-9_]*(?:\(\))?(?=[,)])"

# an upper-case name takes its arguments into its token when they are simple
_TOKEN_RE = re.compile(
    rf"->|[()~&|.,]|[A-Z][A-Za-z0-9_]*(?:\({_SIMPLE_TERM}(?:,{_SIMPLE_TERM})*\))?"
    r"|[a-z_][A-Za-z0-9_]*|\S")

# a token that starts like a name is a whole name
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyz_")

_KEYWORDS = {"forall", "exists", "bot", "top"}


def _shown(tok: str) -> str:
    """A token as an error names it: a simple atom by its predicate."""
    return tok.partition("(")[0] or tok


class _Parser:
    """Recursive descent over the tokens of one regex scan, building every
    node through an interning table.

    Tokens are plain strings closed by a ``None`` sentinel.  No token
    holds whitespace, so the scan skips exactly the characters that
    str.isspace skips.  A simple atom, a predicate over variables and
    constants written without blanks (``P(x)``, ``R(x,c())``), is one token.

    The table keys a term or an atom by its tokens joined, so a simple
    atom's token is its key, and any other node by its kind and the ids of
    its parts (or its bound name): no dataclass __hash__ runs, and the ids
    stay valid as the table keeps the nodes alive.  Arities are recorded
    per text, in the order met when every parenthesis is its own token.
    """

    def __init__(self, text: str, nodes: dict):
        self.text = text
        self.toks: list[Optional[str]] = _TOKEN_RE.findall(text)
        self.toks.append(None)
        if not text.isprintable():
            for i, tok in enumerate(self.toks[:-1]):
                if len(tok) == 1 and not tok.isprintable():
                    raise self.error_at(i, f"unexpected character {tok!r}")
        self.pos = 0
        self.nodes = nodes
        # predicates start upper-case and functions lower-case, so one
        # table holds the arities of both
        self.arities: dict[str, int] = {}

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
        if self.toks[self.pos] != text:
            tok = self.next()  # raises at the end of input
            raise self.error_at(self.pos - 1, f"expected {text!r}, found {_shown(tok)!r}")
        self.pos += 1

    def arity_error(self, name: str, arity: int, i: int) -> ArityConflictError:
        """The clash of arity with the recorded arity of name, at token i,
        or at name's place in the simple atom that token i is."""
        line, col = self.position(i)
        if not name[0].isupper() and self.toks[i] != name:
            # a constant of a simple atom, after '(' or ','
            col += re.search(rf"[(,]{name}\(", self.toks[i]).start() + 1
        return ArityConflictError(f"{line}:{col}: symbol {name} used with arities "
                                  f"{self.arities[name]} and {arity}")

    def whole(self, read: Callable[[], _T]) -> _T:
        """What read() reads from all the tokens."""
        try:
            out = read()
        except RecursionError:
            raise FormulaError("input nested too deeply") from None
        if self.toks[self.pos] is not None:
            raise self.error_at(self.pos, f"trailing input {_shown(self.toks[self.pos])!r}")
        return out

    # formula := quant | or ("->" formula)? ; or := and ("|" and)* ;
    # and := unary ("&" unary)*, the last two read by one loop
    def formula(self) -> Formula:
        toks = self.toks
        if toks[self.pos] in ("forall", "exists"):
            return self.quant()
        nodes = self.nodes
        left = None  # the disjuncts before f, joined
        f = self.unary()
        while True:
            op = toks[self.pos]
            if op == "&":
                self.pos += 1
                g = self.unary()
                key = (And, id(f), id(g))
                f = nodes.get(key) or nodes.setdefault(key, And(f, g))
                continue
            if left is not None:
                key = (Or, id(left), id(f))
                f = nodes.get(key) or nodes.setdefault(key, Or(left, f))
            if op != "|":
                break
            self.pos += 1
            left = f
            f = self.unary()
        if op == "->":
            self.pos += 1
            g = self.formula()
            key = (Imp, id(f), id(g))
            f = nodes.get(key) or nodes.setdefault(key, Imp(f, g))
        return f

    def quant(self) -> Formula:
        kw = self.next()
        var = self.next()
        if var[0] not in _NAME_START or var in _KEYWORDS:
            raise self.error_at(self.pos - 1,
                                f"expected variable after {kw}, found {_shown(var)!r}")
        self.expect(".")
        body = self.formula()
        kind = Forall if kw == "forall" else Exists
        key = (kind, var, id(body))
        return self.nodes.get(key) or self.nodes.setdefault(key, kind(var, body))

    def unary(self) -> Formula:
        tok = self.toks[self.pos]
        if tok == "~" or tok == "top":  # top is ~bot
            self.pos += 1
            f = self.unary() if tok == "~" else BOT
            key = (Imp, id(f), id(BOT))
            return self.nodes.get(key) or self.nodes.setdefault(key, Imp(f, BOT))
        if tok == "(":
            self.pos += 1
            f = self.formula()
            self.expect(")")
            return f
        if tok is not None and tok[0].isupper():
            i = self.pos
            self.pos += 1
            if self.toks[self.pos] == "(" and tok[-1] != ")":
                # an atom with blanks or nested terms
                self.pos += 1
                args = self.termlist()
                self.expect(")")
                if self.arities.setdefault(tok, len(args)) != len(args):
                    raise self.arity_error(tok, len(args), i)
                text = "".join(self.toks[i:self.pos]) if args else tok  # A() is A
                return (self.nodes.get(text) or self.nodes.setdefault(
                    text, _atom_entry(tok, args)))[0]
            atom, pred, arity, constants = self.nodes.get(tok) or self.simple_atom_entry(tok)
            for name in constants:
                if self.arities.setdefault(name, 0):
                    raise self.arity_error(name, 0, i)
            if self.arities.setdefault(pred, arity) != arity:
                raise self.arity_error(pred, arity, i)
            return atom
        if tok == "bot":
            self.pos += 1
            return BOT
        if tok is None:
            self.next()  # raises "unexpected end of input" at the end column
        raise self.error_at(self.pos, f"expected a formula, found {tok!r}")

    def simple_atom_entry(self, tok: str) -> tuple:
        """The table entry of a simple atom's token, made."""
        if tok[-1] != ")":  # a bare predicate
            return self.nodes.setdefault(tok, (Atom(tok), tok, 0, ()))
        pred, _, rest = tok.partition("(")
        args = []
        for t in rest[:-1].split(","):
            args.append(self.nodes.get(t) or self.nodes.setdefault(
                t, App(t[:-2]) if t[-1] == ")" else Var(t)))
        return self.nodes.setdefault(tok, _atom_entry(pred, tuple(args)))

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
        if name[0] not in _NAME_START or name in _KEYWORDS:
            raise self.error_at(i, f"expected a term, found {_shown(name)!r}")
        if self.toks[self.pos] == "(":
            self.pos += 1
            args = self.termlist()
            self.expect(")")
            if self.arities.setdefault(name, len(args)) != len(args):
                raise self.arity_error(name, len(args), i)
            text = "".join(self.toks[i:self.pos])
            return self.nodes.get(text) or self.nodes.setdefault(text, App(name, args))
        return self.nodes.get(name) or self.nodes.setdefault(name, Var(name))


def _atom_entry(pred: str, args: tuple[Term, ...]) -> tuple:
    """An atom's entry in the table: (atom, predicate, arity, constants),
    a simple atom's symbols in the order a descent notes them."""
    constants = ()
    for t in args:
        if type(t) is App and not t.args:
            constants += (t.name,)
    return Atom(pred, args), pred, len(args), constants


def parse(text: str) -> Formula:
    """Parse concrete syntax into a raw AST (bound names kept as written).
    Equal subtrees of the AST are one object."""
    p = _Parser(text, {})
    return p.whole(p.formula)


class ParseMemo:
    """Parses a batch of texts that repeat subformulas, such as the lines
    of one proof file.

    ``memo.parse(text)`` equals ``parse(text)`` and raises the same
    errors, but all the texts of one memo share one interning table, so
    every equal subtree of the batch is one object: a binding ``A -> B``
    and the group ``(A -> B)`` of a step formula are one AST, and
    ``alpha_eq`` stops at it.  A text given again returns its first AST
    without a parse.  Arities stay per text.  A memo keeps every AST it
    made alive, so create one per batch and drop it after.
    """

    def __init__(self) -> None:
        self.texts: dict[str, Formula] = {}
        self.nodes: dict = {}

    def parse(self, text: str) -> Formula:
        f = self.texts.get(text)
        if f is None:
            p = _Parser(text, self.nodes)
            f = self.texts[text] = p.whole(p.formula)
        return f


def parse_term(text: str) -> Term:
    p = _Parser(text, {})
    return p.whole(p.term)


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
