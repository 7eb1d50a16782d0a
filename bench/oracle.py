"""The benchmark's own reference semantics for Goedel logics.

Known answers and verdict checks come from here, never from the
workbench under test: this module imports nothing from ``goedel_logics``.
It has its own formula syntax tree, parser and printer for the
workbench's concrete syntax, an evaluator over integer ranks (the Goedel
connectives depend only on order, so ranks are exact), the order-type
enumeration for LC, plain enumeration of V_m for G_m, and exhaustive
search over finite first-order interpretations.

Formulas are tuples:
  ("bot",)  ("atom", pred, terms)  ("and"|"or"|"imp", left, right)
  ("forall"|"exists", var, body)
and terms are ("var", name) or ("app", name, args).
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

BOT = ("bot",)
# rank of the truth value 1; every other value maps to a smaller rank
TOP = 1 << 20


def atom(pred, *args):
    return ("atom", pred, tuple(args))


def var(name):
    return ("var", name)


def app(name, *args):
    return ("app", name, tuple(args))


def imp(a, b):
    return ("imp", a, b)


def neg(a):
    return ("imp", a, BOT)


def conj(*parts):
    out = parts[0]
    for p in parts[1:]:
        out = ("and", out, p)
    return out


def disj(*parts):
    out = parts[0]
    for p in parts[1:]:
        out = ("or", out, p)
    return out


def forall(v, body):
    return ("forall", v, body)


def exists(v, body):
    return ("exists", v, body)


# ---------------------------------------------------------------------------
# Printer and parser for the workbench's concrete syntax


def show_term(t) -> str:
    if t[0] == "var":
        return t[1]
    return f"{t[1]}({','.join(show_term(a) for a in t[2])})"


def show(f, level: int = 0) -> str:
    """Text with the workbench's precedence: quantifiers and -> (right
    associative) bind loosest, then |, then &, then ~."""
    kind = f[0]
    if kind == "bot":
        return "bot"
    if kind == "atom":
        return f[1] if not f[2] else f"{f[1]}({','.join(show_term(t) for t in f[2])})"
    if kind == "imp" and f[2] == BOT:
        return "~" + show(f[1], 3)
    if kind == "imp":
        s, need = f"{show(f[1], 1)} -> {show(f[2], 0)}", 0
    elif kind == "or":
        s, need = f"{show(f[1], 1)} | {show(f[2], 2)}", 1
    elif kind == "and":
        s, need = f"{show(f[1], 2)} & {show(f[2], 3)}", 2
    else:
        s, need = f"{kind} {f[1]}. {show(f[2], 0)}", 0
    return f"({s})" if level > need else s


_TOKEN = re.compile(r"\s*(->|[()~&|.,]|[A-Za-z_][A-Za-z0-9_]*)")


class OracleSyntaxError(ValueError):
    pass


def parse(text: str):
    toks = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise OracleSyntaxError(f"bad character at {pos} in {text!r}")
        toks.append(m.group(1))
        pos = m.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
    state = {"i": 0}

    def peek():
        return toks[state["i"]] if state["i"] < len(toks) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise OracleSyntaxError(f"expected {expected!r}, found {tok!r} in {text!r}")
        state["i"] += 1
        return tok

    def formula():
        if peek() in ("forall", "exists"):
            kind = take()
            name = take()
            take(".")
            return (kind, name, formula())
        left = disjunction()
        if peek() == "->":
            take()
            return ("imp", left, formula())
        return left

    def disjunction():
        f = conjunction()
        while peek() == "|":
            take()
            f = ("or", f, conjunction())
        return f

    def conjunction():
        f = unary()
        while peek() == "&":
            take()
            f = ("and", f, unary())
        return f

    def unary():
        tok = peek()
        if tok == "~":
            take()
            return neg(unary())
        if tok == "bot":
            take()
            return BOT
        if tok == "top":
            take()
            return imp(BOT, BOT)
        if tok == "(":
            take()
            f = formula()
            take(")")
            return f
        if tok is not None and tok[0].isupper():
            take()
            return ("atom", tok, termlist())
        if tok is not None and re.fullmatch(r"[a-z_]\w*", tok) and tok not in (
                "forall", "exists"):
            # the workbench prints the bot-free rewriting's fresh letter in
            # lower case; in formula position a bare name can only be a letter
            take()
            return ("atom", tok, ())
        raise OracleSyntaxError(f"expected a formula, found {tok!r} in {text!r}")

    def termlist():
        if peek() != "(":
            return ()
        take("(")
        args = []
        if peek() != ")":
            args.append(term())
            while peek() == ",":
                take()
                args.append(term())
        take(")")
        return tuple(args)

    def term():
        name = take()
        if peek() == "(":
            return ("app", name, termlist())
        return ("var", name)

    f = formula()
    if state["i"] != len(toks):
        raise OracleSyntaxError(f"trailing input in {text!r}")
    return f


# ---------------------------------------------------------------------------
# Syntax helpers


def size(f) -> int:
    if f[0] in ("bot", "atom"):
        return 1
    if f[0] in ("forall", "exists"):
        return 1 + size(f[2])
    return 1 + size(f[1]) + size(f[2])


def atoms(f) -> list:
    """Distinct atoms in first-occurrence order."""
    out: dict = {}

    def go(g):
        if g[0] == "atom":
            out.setdefault(g, None)
        elif g[0] in ("and", "or", "imp"):
            go(g[1])
            go(g[2])
        elif g[0] in ("forall", "exists"):
            go(g[2])
    go(f)
    return list(out)


def free_vars(f, bound=frozenset()) -> set:
    def in_term(t):
        if t[0] == "var":
            return set() if t[1] in bound else {t[1]}
        return set().union(*(in_term(a) for a in t[2])) if t[2] else set()
    if f[0] == "bot":
        return set()
    if f[0] == "atom":
        return set().union(*(in_term(t) for t in f[2])) if f[2] else set()
    if f[0] in ("forall", "exists"):
        return free_vars(f[2], bound | {f[1]})
    return free_vars(f[1], bound) | free_vars(f[2], bound)


def is_prenex(f) -> bool:
    while f[0] in ("forall", "exists"):
        f = f[2]
    return not any(g[0] in ("forall", "exists") for g in subformulas(f))


def subformulas(f):
    yield f
    if f[0] in ("and", "or", "imp"):
        yield from subformulas(f[1])
        yield from subformulas(f[2])
    elif f[0] in ("forall", "exists"):
        yield from subformulas(f[2])


def signature(f, preds=None, funcs=None):
    preds = {} if preds is None else preds
    funcs = {} if funcs is None else funcs

    def term(t):
        if t[0] == "app":
            funcs[t[1]] = len(t[2])
            for a in t[2]:
                term(a)
    for g in subformulas(f):
        if g[0] == "atom":
            preds[g[1]] = len(g[2])
            for t in g[2]:
                term(t)
    return preds, funcs


# ---------------------------------------------------------------------------
# Propositional evaluation over ranks


def compile_prop(f, index: dict):
    """A function from a rank tuple (one rank per atom, in ``index``
    order) to the rank of f; 0 is the value 0 and TOP the value 1."""
    kind = f[0]
    if kind == "bot":
        return lambda v: 0
    if kind == "atom":
        i = index[f]
        return lambda v: v[i]
    a = compile_prop(f[1], index)
    b = compile_prop(f[2], index)
    if kind == "and":
        return lambda v: min(a(v), b(v))
    if kind == "or":
        return lambda v: max(a(v), b(v))
    if kind == "imp":
        def conditional(v):
            y = b(v)
            return TOP if a(v) <= y else y
        return conditional
    raise ValueError("quantifier in a propositional formula")


def gm_value(rank: int, m: int) -> Fraction:
    """Element of V_m = {0} + {1 - 1/k : 2 <= k <= m-1} + {1} with the
    given rank (0 .. m-2, or TOP for 1)."""
    if rank == TOP:
        return Fraction(1)
    if not 0 <= rank <= m - 2:
        raise ValueError(f"rank {rank} outside V_{m}")
    return Fraction(rank, rank + 1)


def gm_values(m: int) -> list[Fraction]:
    return [gm_value(r, m) for r in range(m - 1)] + [Fraction(1)]


def sorted_atoms(f) -> list:
    """Atoms in the order the workbench enumerates them: by printed form."""
    return sorted(atoms(f), key=show)


def gm_first_countermodel(f, m: int):
    """Decide f over V_m by enumerating V_m^n in lexicographic order of
    the printed atom names; return None when valid, else the first
    countermodel as {atom text: Fraction}, its value, and how many
    valuations precede it."""
    letters = sorted_atoms(f)
    index = {a: i for i, a in enumerate(letters)}
    fn = compile_prop(f, index)
    ranks = list(range(m - 1)) + [TOP]
    for position, choice in enumerate(itertools.product(ranks, repeat=len(letters))):
        r = fn(choice)
        if r != TOP:
            return ({show(a): gm_value(c, m) for a, c in zip(letters, choice)},
                    gm_value(r, m), position)
    return None


def weak_orders(n: int):
    """Every weak order of n items as a rank tuple onto 0..k-1."""
    if n == 0:
        yield ()
        return
    for k in range(1, n + 1):
        for ranks in itertools.product(range(k), repeat=n):
            if len(set(ranks)) == k:
                yield ranks


def lc_valid(f) -> bool:
    """LC validity by the order-type enumeration: a quantifier-free
    formula's value depends only on how its atoms are ordered among
    themselves and against 0 and 1, so one valuation per weak order of
    the atoms, with the lowest class optionally at 0 and the highest
    optionally at 1, decides it over every infinite truth-value set."""
    letters = atoms(f)
    fn = compile_prop(f, {a: i for i, a in enumerate(letters)})
    if not letters:
        return fn(()) == TOP
    for ranks in weak_orders(len(letters)):
        k = max(ranks) + 1
        for low_at_zero in (False, True):
            for high_at_one in (False, True):
                if k == 1 and low_at_zero and high_at_one:
                    continue
                place = [i + 1 for i in range(k)]
                if low_at_zero:
                    place[0] = 0
                if high_at_one:
                    place[-1] = TOP
                if fn(tuple(place[r] for r in ranks)) != TOP:
                    return False
    return True


def eval_prop(f, valuation: dict) -> Fraction:
    """Value of a quantifier-free formula under {atom text: Fraction}."""
    kind = f[0]
    if kind == "bot":
        return Fraction(0)
    if kind == "atom":
        return valuation[show(f)]
    a, b = eval_prop(f[1], valuation), eval_prop(f[2], valuation)
    if kind == "and":
        return min(a, b)
    if kind == "or":
        return max(a, b)
    return Fraction(1) if a <= b else b


# ---------------------------------------------------------------------------
# First-order evaluation over finite interpretations


class Interp:
    """A finite interpretation: universe names, predicate tables
    {pred: {args tuple: value}}, function tables {func: {args: elem}}.
    Values are Fractions or ranks; only their order and the top value
    matter to the connectives."""

    def __init__(self, universe, predicates, functions=None, top=Fraction(1)):
        self.universe = tuple(universe)
        self.predicates = predicates
        self.functions = functions or {}
        self.top = top


def _term_value(t, I: Interp, env):
    if t[0] == "var":
        return env[t[1]]
    return I.functions[t[1]][tuple(_term_value(a, I, env) for a in t[2])]


def evaluate(f, I: Interp, env=None):
    env = {} if env is None else env
    kind = f[0]
    if kind == "bot":
        return 0 * I.top
    if kind == "atom":
        return I.predicates[f[1]][tuple(_term_value(t, I, env) for t in f[2])]
    if kind in ("forall", "exists"):
        vals = [evaluate(f[2], I, {**env, f[1]: u}) for u in I.universe]
        return min(vals) if kind == "forall" else max(vals)
    a, b = evaluate(f[1], I, env), evaluate(f[2], I, env)
    if kind == "and":
        return min(a, b)
    if kind == "or":
        return max(a, b)
    return I.top if a <= b else b


def interpretation_count(formulas, m: int, max_universe: int) -> int:
    """How many interpretations with universes 1..max_universe and values
    in V_m an exhaustive search over the formulas' signature visits."""
    preds, funcs = {}, {}
    for f in formulas:
        signature(f, preds, funcs)
    total = 0
    for n in range(1, max_universe + 1):
        count = 1
        for k in preds.values():
            count *= m ** (n ** k)
        for k in funcs.values():
            count *= n ** (n ** k)
        total += count
    return total


def interpretations(formulas, m: int, size: int):
    """Every interpretation of the formulas' signature over a universe of
    the given size with rank values in V_m."""
    preds, funcs = {}, {}
    for f in formulas:
        signature(f, preds, funcs)
    universe = tuple(f"u{i}" for i in range(size))
    ranks = list(range(m - 1)) + [TOP]
    pnames, fnames = sorted(preds), sorted(funcs)
    pkeys = [list(itertools.product(universe, repeat=preds[p])) for p in pnames]
    fkeys = [list(itertools.product(universe, repeat=funcs[g])) for g in fnames]
    spaces = ([itertools.product(ranks, repeat=len(k)) for k in pkeys]
              + [itertools.product(universe, repeat=len(k)) for k in fkeys])
    for choice in itertools.product(*spaces):
        ptables = {p: dict(zip(pkeys[i], choice[i])) for i, p in enumerate(pnames)}
        ftables = {g: dict(zip(fkeys[j], choice[len(pnames) + j]))
                   for j, g in enumerate(fnames)}
        yield Interp(universe, ptables, ftables, TOP)


def is_countermodel(premises, conclusion, I: Interp, one: bool) -> bool:
    prem = [evaluate(p, I) for p in premises]
    concl = evaluate(conclusion, I)
    if one:
        return all(v == I.top for v in prem) and concl != I.top
    return min(prem, default=I.top) > concl


def entails(premises, conclusion, m: int, max_universe: int, one: bool = False) -> bool:
    """No countermodel over V_m with universes of size 1..max_universe."""
    formulas = list(premises) + [conclusion]
    for n in range(1, max_universe + 1):
        for I in interpretations(formulas, m, n):
            if is_countermodel(premises, conclusion, I, one):
                return False
    return True
