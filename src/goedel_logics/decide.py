"""Decision procedures for propositional G_m and Goedel-Dummett LC.

Quantifier-free formulas are evaluated with atoms (ground first-order
atoms included) treated as opaque propositional letters.  The Goedel
connectives (min, max, and the conditional that gives 1 when a <= b and
b otherwise) depend only on the order of the values, so a formula is
compiled once by compile_prop into a program over integer ranks: 0 is
the value 0 and ``top`` the value 1.  Each connective reads an atom
operand in place, so evaluating costs one call per connective.  Ranks
map back to Fraction only in a reported countermodel or value.

Both decisions rest on order-invariance: the value of a formula depends
only on how its atom values are ordered among themselves and relative
to 0 and 1.  Such an order is a pinned weak order, a weak linear order
of {bot, letters, top} whose least class holds bot and whose greatest
holds top.  G_m is decided in first_countermodel, the search that the
finite entailment of semantics runs as well: it walks the rank vectors
of V_m^n in product order but evaluates only the gap-free ones, one per
pinned weak order with at most m classes, and so finds the countermodel
that exhaustive evaluation finds first, in a loop with its own stack of
letters.  LC is decided by the same search at m = n + 2, the paper's
finite reduction: n letters have at most n + 2 classes, so there the
search evaluates once at every pinned weak order, which settles
validity over every infinite truth-value set.
One walk (read_goal) gives the goal's letters and its root disjuncts,
the leaves of its top |-tree.  The search skips each prefix on which a
disjunct that reads no later letter is top, with every point below it:
the goal is the max of its disjuncts, so it is top at each skipped
point, and the first countermodel is unchanged.  The Herbrand prover
passes each level's instances the same way, so that this skip is a
semantic tree's closing rule, a branch closing once an instance is top,
and starts each level's search at the last level's countermodel.
Every search charges the points it visits to one running budget and
raises BudgetError once the charge passes it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Hashable, Mapping, Optional, Sequence

from .formula import (
    Atom, Bot, And, Or, Imp, Forall, Exists, Formula, GoedelError, balanced, print_formula,
    print_raw,
)

BOT_MARK = "bot"
TOP_MARK = "top"


class DecideError(GoedelError):
    pass


class QuantifierError(DecideError):
    pass


class BudgetError(Exception):
    """A search would exceed its budget: the one error decide, semantics
    and herbrand raise for an exhausted bound (the CLI's exit 2)."""


# the default budget of the points a search charges as it runs
BUDGET = 3_000_000


def whole_number(text: str, least: int = 2) -> Optional[int]:
    """The integer >= least that text writes in at most 4,300 ASCII digits
    (int() refuses more), else None: least = 2 for class bounds."""
    ok = text.isascii() and text.isdecimal() and len(text) <= 4300 and int(text) >= least
    return int(text) if ok else None


PropValuation = dict[Atom, Fraction]


RankProgram = Callable[..., int]


def compile_prop(f: Formula, index: Mapping[Atom, Hashable]) -> RankProgram:
    """Compile f once into prog(ranks, top), the rank of f's value when
    each atom a has rank ranks[index[a]]; rank 0 is the value 0 and top
    the value 1.  A connective reads an atom operand in place, as
    ranks[key] in its own closure, and calls the program of any other
    operand, so a point costs one call per connective, none per atom.
    Raises QuantifierError or DecideError (an atom missing from index)
    here, not at evaluation."""
    if isinstance(f, Atom):
        key = _key(f, index)
        return lambda ranks, top: ranks[key]
    if isinstance(f, Bot):
        return lambda ranks, top: 0
    if not isinstance(f, (And, Or, Imp)):
        raise QuantifierError(f"formula is not quantifier-free: {print_formula(f)}")
    # an atom operand is held as its key (i or j true), any other as its program
    i = isinstance(f.left, Atom)
    a = _key(f.left, index) if i else compile_prop(f.left, index)
    if isinstance(f, Imp) and isinstance(f.right, Bot):
        if i:
            return lambda ranks, top: 0 if ranks[a] else top
        return lambda ranks, top: 0 if a(ranks, top) else top
    j = isinstance(f.right, Atom)
    b = _key(f.right, index) if j else compile_prop(f.right, index)
    # x -> y is top when x <= y and y otherwise, x & y is min, x | y max;
    # each skips a called operand when the other settles it
    if isinstance(f, Imp):
        if i and j:
            return lambda ranks, top: top if ranks[a] <= (y := ranks[b]) else y
        if i:
            return lambda ranks, top: (top if not (x := ranks[a]) or x <= (y := b(ranks, top))
                                       else y)
        if j:
            return lambda ranks, top: (top if (y := ranks[b]) == top or a(ranks, top) <= y
                                       else y)
        return lambda ranks, top: (top if not (x := a(ranks, top)) or x <= (y := b(ranks, top))
                                   else y)
    if j and not i:  # min and max are symmetric: the atom goes first
        a, b, i, j = b, a, True, False
    if isinstance(f, And):
        if j:
            return lambda ranks, top: x if (x := ranks[a]) < (y := ranks[b]) else y
        if i:
            return lambda ranks, top: x if not (x := ranks[a]) or x < (y := b(ranks, top)) else y
        return lambda ranks, top: (x if not (x := a(ranks, top)) or x < (y := b(ranks, top))
                                   else y)
    if j:
        return lambda ranks, top: x if (x := ranks[a]) > (y := ranks[b]) else y
    if i:
        return lambda ranks, top: x if (x := ranks[a]) == top or x > (y := b(ranks, top)) else y
    return _disj(a, b)


def _key(f: Atom, index: Mapping[Atom, Hashable]) -> Hashable:
    try:
        return index[f]
    except KeyError:
        raise DecideError(f"atom {print_formula(f)} unassigned") from None


def _disj(a: RankProgram, b: RankProgram) -> RankProgram:
    def disj(ranks, top):
        x = a(ranks, top)
        if x == top:
            return top
        y = b(ranks, top)
        return x if x > y else y
    return disj


def read_goal(f: Formula) -> tuple[list[Atom], list[tuple[Formula, int]]]:
    """(letters, parts) from one walk of f, with its own stack, as the
    |-tree may be a long chain.  letters are f's atoms, quantified ones too,
    each printed once and sorted by that text, which fixes the first
    countermodel.  parts are the leaves of f's top |-tree, left to right (a
    root that is not a | is one), each with the largest slot it reads or 0."""
    parts: list[Formula] = []
    readers: dict[Atom, list[int]] = {}  # the positions of the parts that read an atom
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Or):
            stack += (g.right, g.left)
            continue
        below = [g]
        for h in below:  # grows as it is read: every node of g once
            kind = type(h)
            if kind is Atom:
                readers.setdefault(h, []).append(len(parts))
            elif kind is Forall or kind is Exists:
                below.append(h.body)
            elif kind is not Bot:
                below += (h.left, h.right)
        parts.append(g)
    by_name = {print_raw(a): a for a in readers}
    letters = [by_name[name] for name in sorted(by_name)]
    # slots ascend, so each part keeps the largest slot it reads
    last = {k: j for j, a in enumerate(letters) for k in readers[a]}
    return letters, [(g, last.get(k, 0)) for k, g in enumerate(parts)]


def compile_goal(parts: Sequence[tuple[Formula, int]],
                 letters: Sequence[Atom]) -> tuple[RankProgram, list[Optional[RankProgram]]]:
    """(goal, ready): each part of read_goal compiled once by compile_prop,
    letters[j] at slot j, and joined as balanced trees, so a long chain
    evaluates shallowly: goal joins all parts, and first_countermodel's
    ready[p], for p < n - 1, those whose last slot is p (None if none)."""
    index = {a: j for j, a in enumerate(letters)}
    ready: list[Optional[RankProgram]] = [None] * (len(letters) - 1)
    progs, by_last = [], {}
    for g, last in parts:
        progs.append(compile_prop(g, index))
        if last < len(ready):
            by_last.setdefault(last, []).append(progs[-1])
    for p, ps in by_last.items():
        ready[p] = balanced(_disj, ps)
    return balanced(_disj, progs), ready


# ---------------------------------------------------------------------------
# Pinned weak orders of {bot, letters, top}, as rank vectors
#
# An order of the letters L_1..L_n is the tuple (top, r_1, ..., r_n): L_j
# has rank r_j, rank 0 is bot's and rank top is top's.


Order = tuple[int, ...]
Constraint = tuple[tuple[str, ...], ...]  # an order as its classes of names


def classes(order: Order, names: Sequence[str]) -> Constraint:
    """The order as its classes, bottom-up, each sorted: the names of its
    letters (names[j-1] for L_j), bot in the first and top in the last.
    A rank that no letter takes gives no class."""
    out: list[list[str]] = [[] for _ in range(order[0] + 1)]
    out[0].append(BOT_MARK)
    out[-1].append(TOP_MARK)
    for name, r in zip(names, order[1:]):
        out[r].append(name)
    return tuple([tuple(sorted(cls)) for cls in out if cls])


# ---------------------------------------------------------------------------
# Decision procedures


@dataclass
class DecideResult:
    valid: bool
    logic: str
    countermodel: Optional[PropValuation] = None
    value: Optional[Fraction] = None

    def __bool__(self) -> bool:
        return self.valid


def over_budget(where: str, spent: int, budget: int) -> BudgetError:
    """The error of a search that got as far as where when spent passed budget."""
    return BudgetError(f"{where}: {spent} points charged exceed the budget of {budget}")


def first_countermodel(goal: RankProgram, m: int, n: int,
                       ready: Sequence[Optional[RankProgram]] = (), budget: int = BUDGET,
                       spent: int = 0, where: str = "search", start: Sequence[int] = ()
                       ) -> tuple[Optional[tuple[int, ...]], int]:
    """(ranks, spent): the first point ranks of range(m)^n, in product
    order, where goal has rank below the top rank m - 1, or None; and
    spent plus the points this search charged.

    Only gap-free points are evaluated: those whose ranks strictly
    between 0 and top are exactly 1..k for some k, one per pinned weak
    order with at most m classes.  goal depends only on order, so closing
    the gaps of a falsifying point keeps it falsifying and lowers every
    rank: the first falsifying point is gap-free.  Entailment runs it once
    per function table and keeps the least (ranks, table) pair.

    ready holds for a slot p a program that reads no slot past p, or
    None, and a point falsifies only where every ready[p] is below top as
    well.  Once the walk places letter p, a candidate on which ready[p] is
    top is skipped with all the points below it.  compile_goal's ready[p]
    joins goal's root disjuncts that read no slot past p, so goal is top
    at each skipped point and the first countermodel stays the same; the
    prover's joins the instances of an older level, which its goal leaves
    out.

    Each loop over the last letter is charged its points, and each skipped
    candidate one point for its subtree, so a search that skips nothing is
    charged exactly its order types.  Once spent passes budget, BudgetError
    names where and the letters placed.

    start, the ranks of at most n - 1 leading letters, resumes the walk
    there: every point whose leading ranks come before start in product
    order is skipped uncharged, so the answer is the same whenever no
    countermodel comes before start.  The walk keeps each placed letter's
    candidates left on its own stack, not in one Python frame per letter,
    each as a lazy iterator, not a list of up to m ranks."""
    letters = "letter" if n == 1 else "letters"
    path = len(start)  # the walk follows start while p < path
    if path and path >= n:
        raise ValueError("start places at most n - 1 letters")
    top = m - 1
    if n <= 1:
        # nothing to walk: one letter's gap-free ranks are 0, 1 and top
        points = [(v,) for v in sorted({0, 1, top})] if n else [()]
        spent += len(points)
        if spent > budget:
            raise over_budget(f"{where}, 0 of {n} {letters} placed", spent, budget)
        return next((r for r in points if goal(r, top) < top), None), spent
    ranks = [0] * n
    last = n - 1
    # ranks[:p] are placed; their middle ranks are 1..k but for the holes,
    # which the letters from p on must fill
    frames: list[tuple] = []  # (candidates left, k, holes, closing) of each letter above p
    p, k, holes, it = 0, 0, [], None
    while True:
        left = last - p
        if it is None:  # a descent to letter p
            closing = ready[p] if p < len(ready) else None
            if p < path and p and ranks[p - 1] != start[p - 1]:
                path = 0  # past start: no later letter is bounded
            if p < path:
                # on start's path: the candidates from start's rank on, lazily,
                # as the first of them mostly settles it
                lo, hi = start[p], k + 2 + left - len(holes)
                it = iter(holes[bisect_left(holes, lo):] if len(holes) > left
                          else range(lo, m) if hi >= top else chain(range(lo, hi), (top,)))
            elif len(holes) > left:
                it = iter(holes)
            else:
                # 0, a rank up to k, top, or a new rank that leaves no more
                # holes than the letters after p can fill
                hi = k + 2 + left - len(holes)
                it = iter(range(m)) if hi >= top else chain(range(hi), (top,))
        for v in it:
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
                frames.append((it, k, holes, closing))
                p, k, holes, it = p + 1, kv, hv, None
                break
            # the last letter in the same loop: it fills the one hole
            # left, or takes 0..kv+1 or top
            ys = hv or (range(m) if kv + 2 >= top else [*range(kv + 2), top])
            spent += len(ys)
            if spent > budget:
                raise over_budget(f"{where}, {last} of {n} {letters} placed", spent, budget)
            for y in ys:
                ranks[last] = y
                if goal(ranks, top) < top:
                    return tuple(ranks), spent
        else:  # no candidate left: back to the letter above
            if not frames:
                return None, spent
            it, k, holes, closing = frames.pop()
            p -= 1


def decide_Gm(f: Formula, m: int, budget: int = BUDGET) -> DecideResult:
    """Decide validity over V_m by first_countermodel; returns the first
    countermodel in lexicographic order when there is one.  The budget
    bounds the points the search charges as it runs."""
    if m < 2:
        raise ValueError("m must be at least 2")
    return _decide(f, m, budget)


def decide_LC(f: Formula, budget: int = BUDGET) -> DecideResult:
    """Decide Goedel-Dummett LC as G_{n+2} for n letters, the paper's
    finite reduction: the search evaluates once at every pinned weak
    order and returns G_{n+2}'s first countermodel, valued in V_{n+2}."""
    return _decide(f, None, budget)


def _decide(f: Formula, m: Optional[int], budget: int) -> DecideResult:
    """The one decision: G_m, or LC when m is None."""
    letters, parts = read_goal(f)
    logic, m = ("LC", len(letters) + 2) if m is None else (f"G{m}", m)
    prog, ready = compile_goal(parts, letters)
    ranks, _ = first_countermodel(prog, m, len(letters), ready, budget, 0, logic)
    if ranks is None:
        return DecideResult(True, logic)
    return DecideResult(False, logic, {a: _value(r, m - 1) for a, r in zip(letters, ranks)},
                        _value(prog(ranks, m - 1), m - 1))


def _value(r: int, top: int) -> Fraction:
    """The value of rank r in V_{top+1}: 0, 1 - 1/(r+1), or 1 at top."""
    return Fraction(1) if r == top else Fraction(r, r + 1)
