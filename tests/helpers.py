"""Shared generators for randomized tests (seeded, deterministic)."""

from __future__ import annotations

import itertools
import random
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterator, Optional, Sequence

from goedel_logics.decide import (
    BOT_MARK, TOP_MARK, BUDGET, BudgetError, Constraint, DecideError, DecideResult, Order,
    QuantifierError, compile_prop, over_budget,
)
from goedel_logics.formula import (
    App, ArityConflictError, Atom, BOT, Bot, And, Or, Imp, Forall, Exists, Formula,
    Neg, ParseError, Term, Top, Var, atoms, free_vars, fresh_name, is_prenex, normalize,
    prefix_and_matrix, print_formula, print_raw, print_term, signature, substitute, term_size,
)
from goedel_logics.goedelset import GoedelSet, Interval, SeqDown, SeqUp, finite_elements, member
from goedel_logics.herbrand import Certificate, HerbrandProblem, NotPrenexError, ProveResult
from goedel_logics.semantics import (
    ONE, ConstTail, EntailmentResult, FiniteInterpretation, TailDescriptor, TailValueError,
    _joint_signature, evaluate, tail_value,
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


def reference_certify_tail(d: TailDescriptor, V: GoedelSet) -> None:
    """The oracle for semantics._certify_tail: the first 64 values are
    checked exactly, then the tail from k = 65 on must lie in one interval
    atom, or in a sequence atom with the same limit and an integer scale.
    A limit outside [0,1] whose first 64 values lie inside raises the bare
    ValueError of member."""
    if isinstance(d, ConstTail):
        if not 0 <= d.value <= 1 or not member(V, d.value):
            raise TailValueError(f"constant tail value {d.value} not in the set")
        return
    if d.offset < 0:
        raise TailValueError(f"harmonic tail offset {d.offset} is below 0")
    vals = [tail_value(d, k) for k in range(1, 65)]
    if any(v < 0 or v > 1 for v in vals):
        raise TailValueError("harmonic tail leaves [0,1]")
    if not member(V, d.limit):
        raise TailValueError(f"tail limit {d.limit} not in the set")
    for v in vals:
        if not member(V, v):
            raise TailValueError(f"tail value {v} not in the set")
    edge = tail_value(d, 65)
    lo, hi = (d.limit, edge) if d.sign > 0 else (edge, d.limit)
    for atom in V.atoms:
        if isinstance(atom, Interval) and atom.a <= lo and hi <= atom.b:
            return
        if d.sign > 0 and isinstance(atom, SeqDown) and atom.limit == d.limit \
                and atom.scale.denominator == 1:
            return
        if d.sign < 0 and isinstance(atom, SeqUp) and atom.limit == d.limit \
                and atom.scale.denominator == 1:
            return
    raise TailValueError("cannot certify the harmonic tail inside the set")


# ---------------------------------------------------------------------------
# Reference propositional evaluation: the tree walk over Fractions that
# decide.compile_prop's rank programs are compared against, and the
# valuation that stands for a pinned weak order given as classes.


def eval_prop(f: Formula, valuation: dict[Atom, Fraction]) -> Fraction:
    if isinstance(f, Atom):
        try:
            return valuation[f]
        except KeyError:
            raise DecideError(f"atom {print_formula(f)} unassigned") from None
    if isinstance(f, Bot):
        return Fraction(0)
    if isinstance(f, And):
        return min(eval_prop(f.left, valuation), eval_prop(f.right, valuation))
    if isinstance(f, Or):
        return max(eval_prop(f.left, valuation), eval_prop(f.right, valuation))
    if isinstance(f, Imp):
        a = eval_prop(f.left, valuation)
        b = eval_prop(f.right, valuation)
        return ONE if a <= b else b
    raise QuantifierError(f"formula is not quantifier-free: {print_formula(f)}")


def reference_compile_prop(f: Formula, index) -> Callable[..., int]:
    """The rank compiler with one closure per node, atoms included, that
    decide.compile_prop's closures per operand shape are checked against."""
    if isinstance(f, Atom):
        try:
            key = index[f]
        except KeyError:
            raise DecideError(f"atom {print_formula(f)} unassigned") from None
        return lambda ranks, top: ranks[key]
    if isinstance(f, Bot):
        return lambda ranks, top: 0
    if not isinstance(f, (And, Or, Imp)):
        raise QuantifierError(f"formula is not quantifier-free: {print_formula(f)}")
    a = reference_compile_prop(f.left, index)
    if isinstance(f, Imp) and isinstance(f.right, Bot):
        return lambda ranks, top: 0 if a(ranks, top) else top
    b = reference_compile_prop(f.right, index)
    if isinstance(f, And):
        def conj(ranks, top):
            x = a(ranks, top)
            if not x:
                return 0
            y = b(ranks, top)
            return x if x < y else y
        return conj
    if isinstance(f, Or):
        def disj(ranks, top):
            x = a(ranks, top)
            if x == top:
                return top
            y = b(ranks, top)
            return x if x > y else y
        return disj

    def cond(ranks, top):
        x = a(ranks, top)
        if not x:
            return top
        y = b(ranks, top)
        return top if x <= y else y
    return cond


# The weak-order enumerator by insertion: an order of the letters
# L_1..L_n is the rank vector (top, r_1, ..., r_n) of decide.classes, in
# which every class between bot's and top's holds some letter.

ROOT: Order = (1,)  # no letters: bot in class 0, top in class 1


def extend(order: Order, n_admissible: Optional[int] = None) -> list[Order]:
    """All weak-order insertions of the next letter: join any class or sit
    in a strict gap between adjacent classes (2k-1 children, bottom-up);
    children with more than n_admissible classes are pruned."""
    top = order[0]
    gaps = n_admissible is None or top + 2 <= n_admissible
    out: list[Order] = []
    for i in range(top + 1):
        out.append(order + (i,))
        if i < top and gaps:
            # a new class i+1: top and every class above i move up by one
            out.append(tuple([r + 1 if r > i else r for r in order]) + (i + 1,))
    return out


def pinned_orders(n: int, m: Optional[int] = None) -> int:
    """The oracle count of the pinned weak orders of n letters with at
    most m classes (3, 11, 51, 299, ... for n = 1, 2, 3, 4 uncapped): the
    leaves of the depth-n tree that extend grows from ROOT, and the
    gap-free points of V_m^n, which first_countermodel charges when it
    skips nothing.  by_classes[k] counts orders of k classes."""
    by_classes = [0, 0, 1]
    for _ in range(n):
        nxt = [0] * (len(by_classes) + 1)
        for k, count in enumerate(by_classes):
            nxt[k] += k * count
            nxt[k + 1] += (k - 1) * count
        by_classes = nxt if m is None else nxt[:m + 1]
    return sum(by_classes)


def reference_first_countermodel(goal, m: int, n: int):
    """The slow oracle for decide.first_countermodel: every point of
    range(m)^n in product order, gap-free or not."""
    top = m - 1
    for ranks in itertools.product(range(m), repeat=n):
        if goal(ranks, top) < top:
            return ranks
    return None


def reference_walk(goal, m: int, n: int, ready=(), budget: int = BUDGET, spent: int = 0,
                   where: str = "search", start: Sequence[int] = ()):
    """The oracle for decide.first_countermodel's loop: the same walk with
    one recursive call per letter, so equal answers, equal charges and
    equal BudgetError texts, while the recursion limit allows."""
    letters = "letter" if n == 1 else "letters"
    path = len(start)
    if path and path >= n:
        raise ValueError("start places at most n - 1 letters")
    top = m - 1
    if n <= 1:
        points = [(v,) for v in sorted({0, 1, top})] if n else [()]
        spent += len(points)
        if spent > budget:
            raise over_budget(f"{where}, 0 of {n} {letters} placed", spent, budget)
        return next((r for r in points if goal(r, top) < top), None), spent
    ranks = [0] * n
    last = n - 1

    def walk(p: int, k: int, holes: list):
        nonlocal spent, path
        left = last - p
        closing = ready[p] if p < len(ready) else None
        if p < path and p and ranks[p - 1] != start[p - 1]:
            path = 0
        if p < path:
            lo, hi = start[p], k + 2 + left - len(holes)
            cands = (holes[bisect_left(holes, lo):] if len(holes) > left
                     else range(lo, m) if hi >= top else chain(range(lo, hi), (top,)))
        elif len(holes) > left:
            cands = holes
        else:
            hi = k + 2 + left - len(holes)
            cands = range(m) if hi >= top else [*range(hi), top]
        for v in cands:
            ranks[p] = v
            if closing is not None and closing(ranks, top) == top:
                spent += 1
                if spent > budget:
                    raise over_budget(f"{where}, {p + 1} of {n} {letters} placed", spent, budget)
                continue
            if k < v < top:
                kv, hv = v, holes + [*range(k + 1, v)]
            elif v in holes:
                kv, hv = k, [h for h in holes if h != v]
            else:
                kv, hv = k, holes
            if left > 1:
                if found := walk(p + 1, kv, hv):
                    return found
                continue
            ys = hv or (range(m) if kv + 2 >= top else [*range(kv + 2), top])
            spent += len(ys)
            if spent > budget:
                raise over_budget(f"{where}, {last} of {n} {letters} placed", spent, budget)
            for y in ys:
                ranks[last] = y
                if goal(ranks, top) < top:
                    return tuple(ranks)
        return None

    return walk(0, 0, []), spent


def reference_decide_LC(f: Formula, budget: int = BUDGET) -> DecideResult:
    """The slow oracle for decide.decide_LC: evaluating at the class ranks
    of every pinned weak order of the letters, depth first with the last
    letter innermost; returns the first countermodel found."""
    atom_of = {print_raw(a): a for a in atoms(f)}
    atom_of = {name: atom_of[name] for name in sorted(atom_of)}
    names = list(atom_of)
    n = len(names)
    count = pinned_orders(n)
    if count > budget:
        raise BudgetError(
            f"{count} pinned weak orders of {n} letters exceed the budget of {budget}")
    prog = compile_prop(f, {a: j for j, a in enumerate(atom_of.values(), 1)})
    stack = [ROOT]
    while stack:
        order = stack.pop()
        if len(order) <= n:
            stack.extend(reversed(extend(order)))
            continue
        top = order[0]
        v = prog(order, top)
        if v < top:
            # letters by class, then by name
            countermodel = {atom_of[name]: Fraction(r, top)
                            for r, name in sorted(zip(order[1:], names))}
            return DecideResult(False, "LC", countermodel, Fraction(v, top))
    return DecideResult(True, "LC")


def restrict(c: Constraint, names: set[str]) -> Constraint:
    """The constraint induced on a subset of the elements."""
    out = []
    for cls in c:
        kept = tuple(x for x in cls if x in names)
        if kept:
            out.append(kept)
    return tuple(out)


def class_ranks(c: Constraint) -> dict[str, int]:
    """Each name's class index in c: the bot class has rank 0 and the top
    class rank len(c) - 1."""
    return {name: i for i, cls in enumerate(c) for name in cls}


def representative(c: Constraint) -> dict[str, Fraction]:
    """The canonical valuation fulfilling the constraint: class i of k maps
    to i/(k-1), so the bottom class sits at 0 and the top class at 1."""
    top = len(c) - 1
    return {name: Fraction(r, top) for name, r in class_ranks(c).items()}


# ---------------------------------------------------------------------------
# The reference prover, the slow oracle for herbrand.prove_prenex: the
# tree's nodes are orders as classes of names, and every node checks
# every instance of its level, rebuilt from the full product of
# candidate terms, at a class-rank dict built from its classes.


REFERENCE_ROOT: Constraint = ((BOT_MARK,), (TOP_MARK,))


def reference_extend(c: Constraint, atom_name: str,
                     n_admissible: Optional[int] = None) -> list[Constraint]:
    """All weak-order insertions of the next atom: join any class or sit in
    a strict gap between adjacent classes (2k-1 children, bottom-up); in
    finite-valued mode children with more than n classes are pruned."""
    out: list[Constraint] = []
    k = len(c)
    for i in range(k):
        out.append(c[:i] + (tuple(sorted(c[i] + (atom_name,))),) + c[i + 1:])
        if i < k - 1:
            if n_admissible is None or k + 1 <= n_admissible:
                out.append(c[:i + 1] + ((atom_name,),) + c[i + 1:])
    return out


def reference_problem(original: Formula) -> dict:
    """The oracle for HerbrandProblem's one-pass reading: its fields as
    the walks of the formula gave them before, namely free_vars,
    is_prenex, normalize, prefix_and_matrix, signature twice and one
    substitute per universal variable."""
    if free_vars(original):
        raise NotPrenexError("formula must be closed")
    if not is_prenex(original):
        raise NotPrenexError(f"formula is not prenex: {print_formula(original)}")
    f = normalize(original)
    prefix, matrix = prefix_and_matrix(f)
    used = set(signature(matrix)[1])

    def fresh(base: str) -> str:
        name = fresh_name(base, used)
        used.add(name)
        return name

    existentials: list[str] = []
    universal_terms = []
    body = matrix
    for pos, (kind, var) in enumerate(prefix):
        if kind == "exists":
            existentials.append(var)
            continue
        args = tuple(existentials)
        n = len(universal_terms) + 1
        name = fresh(f"f{n}" if args else f"c{n}")
        universal_terms.append((pos, name, args))
        body = substitute(body, var, App(name, tuple(Var(v) for v in args)))
    preds, funcs = signature(body)
    if not any(k == 0 for k in funcs.values()):
        funcs[fresh("c0")] = 0
    # the base is finite exactly when every function symbol is a constant
    constants = [name for name, k in funcs.items() if k == 0]
    finite = len(constants) == len(funcs)
    return {"original": f, "matrix": matrix, "skolem_matrix": body, "prefix": tuple(prefix),
            "universal_terms": universal_terms, "hu_functions": dict(sorted(funcs.items())),
            "predicates": dict(sorted(preds.items())),
            "base_length": sum(len(constants) ** k for k in preds.values()) if finite else None}


def _atom_key(a: Atom):
    return (sum(term_size(t) for t in a.args), a.pred, tuple(print_term(t) for t in a.args))


def reference_instances(problem: HerbrandProblem, level: int) -> list[tuple[tuple[Term, ...], Formula]]:
    """The level-instances: ground substitutions of the existential
    variables whose atoms all lie in {C_1..C_level}, in tuple order."""
    allowed = {_atom_key(a): None for a in problem.base(level)} if level else {}
    if not problem.existential_vars:
        ground = problem.skolem_matrix
        if all(_atom_key(a) in allowed for a in atoms(ground)):
            return [((), ground)]
        return []
    # size 1 keeps a candidate available for variables that do not
    # occur in the matrix
    max_size = 1
    for a in problem.base(level):
        for t in a.args:
            max_size = max(max_size, term_size(t))
    candidates = problem.terms_up_to(max_size)
    out = []
    for combo in itertools.product(candidates, repeat=len(problem.existential_vars)):
        ground = problem.skolem_matrix
        for var, t in zip(problem.existential_vars, combo):
            ground = substitute(ground, var, t)
        if all(_atom_key(a) in allowed for a in atoms(ground)):
            out.append((combo, ground))
    return out


def reference_closes(c: Constraint, programs):
    ranks = class_ranks(c)
    top = len(c) - 1
    for inst, prog in programs:
        if prog(ranks, top) == top:
            return inst
    return None


# the reference tree's own node budget, which a test asserts it exceeds
REFERENCE_NODE_BUDGET = 200_000


def reference_prove_prenex(f: Formula, mode: str = "uncountable", max_level: int = 8,
                           node_budget: int = REFERENCE_NODE_BUDGET) -> ProveResult:
    """The breadth-first semantic tree as it was before each node checked
    only its level's new instances; an "unknown" or "invalid" answer
    reports the first open order of the last level."""
    problem = HerbrandProblem(f)
    n_adm: Optional[int] = None
    if mode.startswith("finite:"):
        n_adm = int(mode.split(":", 1)[1])
        if n_adm < 2:
            raise ValueError("finite mode needs n >= 2")
    elif mode != "uncountable":
        raise ValueError(f"unknown mode {mode!r}")
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    last = problem.base_length
    stop = max_level if last is None else min(last, max_level)

    grounds: list[Formula] = []  # the instance each branch closed on, in closing order
    frontier: list[Constraint] = [REFERENCE_ROOT]
    atom_of: dict[str, Atom] = {}  # the base atoms the constraints order
    nodes = 0
    for level in range(0, stop + 1):
        index = {atom: name for name, atom in atom_of.items()}
        programs = [(inst, compile_prop(inst[1], index))
                    for inst in reference_instances(problem, level)]
        still_open: list[Constraint] = []
        for c in frontier:
            nodes += 1
            if nodes > node_budget:
                raise BudgetError(
                    f"semantic tree exceeded the budget of {node_budget} nodes at level {level}")
            hit = reference_closes(c, programs)
            if hit is not None:
                grounds.append(hit[1])
            else:
                still_open.append(c)
        if not still_open:
            seen: dict[str, int] = {}
            disjuncts: list[Formula] = []
            for ground in grounds:
                key = print_formula(ground)
                if key not in seen:
                    seen[key] = len(disjuncts)
                    disjuncts.append(ground)
            cert = Certificate(problem.original, mode, tuple(disjuncts))
            return ProveResult("valid", cert, level, problem)
        if level == stop:
            # at the last atom of a finite base an open order is a countermodel
            status = "invalid" if level == last else "unknown"
            return ProveResult(status, None, level, problem, still_open[0])
        next_atom = problem.base(level + 1)[level]
        name = print_raw(next_atom)
        atom_of[name] = next_atom
        frontier = [child for c in still_open
                    for child in reference_extend(c, name, n_adm)]


def open_order_refutes(res: ProveResult) -> bool:
    """Whether res.open_order orders exactly C_1..C_level_reached and every
    instance up to that level evaluates below 1 under eval_prop at its
    representative valuation."""
    problem, level = res.problem, res.level_reached
    atom_of = {print_raw(a): a for a in problem.base(level)}
    rep = representative(res.open_order)
    if set(rep) != set(atom_of) | {BOT_MARK, TOP_MARK}:
        return False
    valuation = {atom: rep[name] for name, atom in atom_of.items()}
    return all(eval_prop(g, valuation) < 1 for _, g in reference_instances(problem, level))


def random_prenex(rng: random.Random, n_quantifiers: int, preds: Sequence[str],
                  size: int = 4) -> Formula:
    """A closed prenex formula: n_quantifiers random quantifiers over
    x0, x1, ... and a random matrix of the given number of connectives
    whose atoms apply the monadic predicates to those variables (or sit
    as 0-ary letter A), with bot now and then; half of the matrices get
    a disjunct leaf -> leaf."""
    names = [f"x{i}" for i in range(n_quantifiers)]

    def leaf() -> Formula:
        roll = rng.random()
        if roll < 0.1:
            return Bot()
        if roll < 0.2:
            return Atom("A")
        return Atom(rng.choice(preds), (Var(rng.choice(names)),))

    def matrix(n: int) -> Formula:
        if n == 0:
            return leaf()
        k = rng.randint(0, n - 1)
        return rng.choice(CONNECTIVES)(matrix(k), matrix(n - 1 - k))

    f = matrix(size)
    if rng.random() < 0.5:
        # a chain-like disjunct P(u) -> P(v) makes closing trees common
        f = Or(f, Imp(leaf(), leaf()))
    for name in reversed(names):
        f = (Forall if rng.random() < 0.5 else Exists)(name, f)
    return f


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
        if tok is None:
            self.next()  # raises "unexpected end of input" at the end column
        elif tok[0].isupper():
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


def reference_split_bindings(text: str) -> list[str]:
    """The character loop that proofkit._split_bindings replaced: the parts
    between the commas at parenthesis depth 0, a last empty part dropped."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def reference_alpha_eq(f: Formula, g: Formula) -> bool:
    """The closure walk that formula.alpha_eq replaced: structural equality
    up to renaming of bound variables, a shared subtree equal at once only
    when the binders above it map its names alike."""

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


_REFERENCE_STEP_LINE = re.compile(r"(\d+)\.\s*(.*?)\s*;\s*(.*)")


def reference_step_line(line: str) -> Optional[tuple[str, str, str]]:
    """The groups of the pattern that proofkit._step_line replaced (the
    number, the formula text and the justification), or None."""
    m = _REFERENCE_STEP_LINE.fullmatch(line)
    return None if m is None else m.groups()
