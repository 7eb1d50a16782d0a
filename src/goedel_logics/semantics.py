"""Exact evaluation of formulas, entailment search, and value-map lifting.

Interpretations carry exact rational truth values; the conditional's case
split sits on a discontinuity, so no floating point appears anywhere.
evaluate is the reference tree walk over one interpretation.

The finite entailment search does not call it: for each universe size
and function table it grounds the formula (quantifiers expanded over the
universe, terms evaluated under the table), compiles it with
decide.compile_prop and runs decide.first_countermodel, the search that
decides G_m, over the integer rank vectors of the ground atoms' tables.
It keeps the least (rank vector, table) pair and builds only that
countermodel as an interpretation.  Cloning an element turns a
countermodel into one over a larger universe, so a probe of the largest
size alone, over one table per renaming of the elements and within a
tenth of the budget, settles "holds"; the ordered search over the sizes
runs when it cannot.  Each search charges its sizes, tables and points
to a running budget from zero.

Besides finite structures there is a restricted countable shape, the
omega interpretation: finitely many explicit prefix elements plus a tail
t_1, t_2, ... whose atom values follow constant or harmonic descriptors.
That is enough to witness non-attained infima and suprema (the C-up /
C-down / ISO_0 phenomena) while keeping evaluation a finite computation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

from .decide import BUDGET, BudgetError, compile_prop, first_countermodel, over_budget
from .formula import (
    App, Atom, Bot, And, Or, Imp, Forall, Exists, Formula, GoedelError, Term, Var,
    balanced, expect_json, free_vars, print_formula, signature, subformulas,
)
from .goedelset import GoedelSet, embed_into_perfect, finite_elements, \
    holds_harmonic_tail, least_kernel_piece, member, parse_set, print_set

ONE = Fraction(1)
ZERO = Fraction(0)


class SemanticsError(GoedelError):
    pass


class UnassignedSymbolError(SemanticsError):
    pass


class ClosedFormulaRequiredError(SemanticsError):
    pass


class TailRestrictionError(SemanticsError):
    """An atom couples two tail elements, a non-successor function is
    applied to a tail element, or tail quantifiers are nested."""


class TailValueError(SemanticsError):
    """A tail descriptor's values cannot be certified to lie in the set."""


class InterpretationFormatError(SemanticsError):
    """A JSON interpretation document of the wrong shape, or an
    interpretation whose tables do not fit its universe and truth set."""


# ---------------------------------------------------------------------------
# Finite interpretations


@dataclass
class FiniteInterpretation:
    universe: tuple[str, ...]
    truth_set: GoedelSet
    predicates: dict[str, dict[tuple[str, ...], Fraction]]
    functions: dict[str, dict[tuple[str, ...], str]] = field(default_factory=dict)
    variables: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        if not self.universe:
            raise InterpretationFormatError("universe must be nonempty")
        for p, table in self.predicates.items():
            arities = {len(k) for k in table}
            if len(arities) > 1:
                raise InterpretationFormatError(f"mixed arities in table of {p}")
            k = arities.pop() if arities else 0
            for tup in itertools.product(self.universe, repeat=k):
                if tup not in table:
                    raise InterpretationFormatError(f"table of {p} not total at {tup}")
            for v in table.values():
                if not member(self.truth_set, v):
                    raise InterpretationFormatError(f"value {v} of {p} outside the truth set")
        for f, table in self.functions.items():
            for tup, out in table.items():
                if out not in self.universe:
                    raise InterpretationFormatError(f"{f}{tup} maps outside the universe")
        for x, elem in self.variables.items():
            if elem not in self.universe:
                raise InterpretationFormatError(
                    f"variable {x} names {elem!r}, which is not in the universe")


def _term_value(t: Term, I: FiniteInterpretation, env: Mapping[str, str]) -> str:
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise UnassignedSymbolError(f"variable {t.name} unassigned") from None
    args = tuple(_term_value(a, I, env) for a in t.args)
    try:
        return I.functions[t.name][args]
    except KeyError:
        raise UnassignedSymbolError(f"function {t.name} undefined at {args}") from None


def evaluate(f: Formula, I: FiniteInterpretation,
             env: Optional[Mapping[str, str]] = None) -> Fraction:
    """Exact truth value of f under I (min/max/Goedel-conditional, with
    quantifiers as attained min/max over the finite universe)."""
    env = dict(I.variables) if env is None else dict(env)

    def ev(g: Formula, env: dict[str, str]) -> Fraction:
        if isinstance(g, Atom):
            args = tuple(_term_value(t, I, env) for t in g.args)
            try:
                return I.predicates[g.pred][args]
            except KeyError:
                raise UnassignedSymbolError(f"atom {g.pred}{args} unassigned") from None
        if isinstance(g, Bot):
            return ZERO
        if isinstance(g, And):
            return min(ev(g.left, env), ev(g.right, env))
        if isinstance(g, Or):
            return max(ev(g.left, env), ev(g.right, env))
        if isinstance(g, Imp):
            a, b = ev(g.left, env), ev(g.right, env)
            return ONE if a <= b else b
        vals = []
        for u in I.universe:
            env2 = dict(env)
            env2[g.var] = u
            vals.append(ev(g.body, env2))
        return min(vals) if isinstance(g, Forall) else max(vals)

    return ev(f, env)


def value_set(formulas: Sequence[Formula], I: FiniteInterpretation) -> set[Fraction]:
    """Val(I, Gamma): the truth values of all subformulas w.r.t. the
    universe (quantified bodies instantiated by every element), plus 0,1."""
    out = {ZERO, ONE}

    def walk(g: Formula, env: dict[str, str]) -> None:
        out.add(evaluate(g, I, env))
        if isinstance(g, (And, Or, Imp)):
            walk(g.left, env)
            walk(g.right, env)
        elif isinstance(g, (Forall, Exists)):
            for u in I.universe:
                walk(g.body, {**env, g.var: u})

    for f in formulas:
        walk(f, dict(I.variables))
    return out


# ---------------------------------------------------------------------------
# Interpretation transformers (value-map lifting)


def lift_w(I: FiniteInterpretation, w: Fraction) -> FiniteInterpretation:
    """Atoms below w keep their value, all others become 1."""
    w = Fraction(w)
    if not 0 < w <= 1:
        raise ValueError("w must lie in (0,1]")
    preds = {p: {k: (v if v < w else ONE) for k, v in t.items()}
             for p, t in I.predicates.items()}
    return FiniteInterpretation(I.universe, I.truth_set, preds,
                                dict(I.functions), dict(I.variables))


def map_h(I: FiniteInterpretation, h: Mapping[Fraction, Fraction],
          truth_set: Optional[GoedelSet] = None) -> FiniteInterpretation:
    """Induced interpretation with atom values pushed through a strictly
    monotone map fixing 0 and 1; finite infima/suprema transport for free."""
    h = {Fraction(k): Fraction(v) for k, v in h.items()}
    if h.get(ZERO) != ZERO or h.get(ONE) != ONE:
        raise ValueError("h must map 0 to 0 and 1 to 1")
    keys = sorted(h)
    for a, b in zip(keys, keys[1:]):
        if h[a] >= h[b]:
            raise ValueError(f"h not strictly monotone at {a}, {b}")
    preds = {}
    for p, table in I.predicates.items():
        new = {}
        for k, v in table.items():
            if v not in h:
                raise UnassignedSymbolError(f"h has no image for value {v}")
            new[k] = h[v]
        preds[p] = new
    return FiniteInterpretation(I.universe, truth_set or I.truth_set, preds,
                                dict(I.functions), dict(I.variables))


def saturate_transfer(I: FiniteInterpretation, V: GoedelSet,
                      formulas: Sequence[Formula]) -> FiniteInterpretation:
    """Move a countermodel over V ∪ [inf P, 1] (P the perfect kernel of V)
    back into V without changing the order pattern of its values.

    Values at or below inf P stay fixed, the sub-1 values above it are
    embedded monotonically into the kernel piece starting at inf P, and 1
    stays 1; the lift at a fresh cut just below 1 keeps the embedding
    clear of the top.  Together with value-map lifting this witnesses
    that saturating a set above its kernel infimum changes no entailment.
    """
    piece = least_kernel_piece(V)
    inf_p = piece.a

    def all_values(K: FiniteInterpretation) -> set[Fraction]:
        table_vals = {v for t in K.predicates.values() for v in t.values()}
        return value_set(list(formulas), K) | table_vals

    vals = all_values(I)
    below_one = [v for v in vals if v < 1]
    cut = (max(below_one) + 1) / 2 if below_one else Fraction(1, 2)
    J = lift_w(I, cut)
    vals = all_values(J)

    mids = sorted(v for v in vals if inf_p <= v < 1)
    mapping: dict[Fraction, Fraction] = {v: v for v in vals if v <= inf_p}
    if mids:
        chain = [inf_p] + [v for v in mids if v > inf_p] + [cut]
        image = embed_into_perfect(chain, piece)
        mapping.update(dict(zip(chain[:-1], image[:-1])))
    mapping[ONE] = ONE
    return map_h(J, mapping, V)


# ---------------------------------------------------------------------------
# Brute-force entailment over finite truth sets


@dataclass
class EntailmentResult:
    holds: bool
    countermodel: Optional[FiniteInterpretation] = None

    def __bool__(self) -> bool:
        return self.holds


def _joint_signature(formulas: Sequence[Formula]) -> tuple[dict[str, int], dict[str, int]]:
    preds: dict[str, int] = {}
    funcs: dict[str, int] = {}
    for f in formulas:
        signature(f, preds, funcs)
    return preds, funcs


def entails_bruteforce(premises: Sequence[Formula], conclusion: Formula,
                       V: GoedelSet, max_universe: int,
                       budget: int = BUDGET,
                       one_entailment: bool = False) -> EntailmentResult:
    """Exhaustive countermodel search over universes of size 1..max_universe
    and all tables into the finite set V.

    ``holds`` means "no countermodel at this scale"; it is a bounded check,
    not a validity proof.  When no predicate takes an argument, only size
    1 is searched, since the size cannot change any value.  Entailment
    compares inf of the premises against the conclusion; 1-entailment
    asks that all-1 premises force a 1 conclusion.

    Cloning an element (a new element whose every table entry is read
    through the map that sends it to the original) keeps the value of
    every closed formula, so a countermodel over k elements gives one
    over k + 1, and a size without a countermodel has none below it.  So
    a probe first searches the largest size alone, one function table
    per renaming of the elements, and answers "holds" if it finds no
    countermodel.  It may charge a tenth of the budget, from zero.  It
    runs only when every function symbol is a constant (one with
    arguments has size^(size^k) tables, and a probe of the largest size
    could cost far more than the sizes it skips), and not at the tenth's
    bit length in elements or more when a quantifier's body reads its
    variable: each of its instances then reads its own atom, and the
    grounding that builds them, which nothing charges, grows with the
    size before the search charges a point.

    Once the probe finds a countermodel or passes its tenth, the ordered
    search runs from zero as it would alone, and returns the first
    countermodel in the enumeration order of the tables (sizes
    ascending, symbols sorted by name, argument tuples in product order,
    table values ascending, predicate tables before function tables):
    one search runs per function table, and the least (predicate point,
    table) pair is kept.

    The budget is charged as each search runs: each universe size its
    atom slots and function-table entries before it builds any, each
    function table one point and its search's points.  So a call charges
    at most 1.1 budgets, a conclusion that holds is answered when its
    largest size fits a tenth of the budget or all its sizes fit the
    budget, and every other answer and BudgetError, which names the size
    and the table, is the ordered search's.
    """
    if max_universe < 1:
        raise ValueError(f"max_universe must be at least 1, got {max_universe}")
    formulas = list(premises) + [conclusion]
    for f in formulas:
        if free_vars(f):
            raise ClosedFormulaRequiredError(
                f"formula with free variables {sorted(free_vars(f))}: {print_formula(f)}")
    values = finite_elements(V)
    preds, funcs = _joint_signature(formulas)
    if not any(preds.values()):
        # no atom takes an argument, so no value depends on the universe:
        # a quantifier ranges over one value and size 1 settles every size
        max_universe = 1

    # a countermodel makes goal < 1 (and, for 1-entailment, premise = 1);
    # inf Gamma > B exactly when (&Gamma -> B) < 1
    conj = balanced(And, list(premises)) if premises else None
    if one_entailment:
        goal, premise = conclusion, conj
    else:
        goal, premise = (Imp(conj, conclusion) if conj else conclusion), None

    # the probe may charge a tenth of the budget, so a call charges at most
    # 1.1 budgets in all; it is skipped at the tenth's bit length in elements
    # or more when a quantifier's body reads its variable, as the grounding of
    # the largest size, which nothing charges, then builds an atom per element
    cap = budget // 10
    skip = max_universe >= cap.bit_length() and any(
        isinstance(g, (Forall, Exists)) and g.var in free_vars(g.body)
        for f in formulas for g in subformulas(f))
    if not any(funcs.values()) and not skip:
        try:
            if _search_size(goal, premise, preds, funcs, max_universe, len(values), cap, 0,
                            probe=True)[0] is None:
                return EntailmentResult(True)
        except BudgetError:
            pass
    spent = 0
    for size in range(1, max_universe + 1):
        found, spent = _search_size(goal, premise, preds, funcs, size, len(values), budget,
                                    spent)
        if found is not None:
            return EntailmentResult(False, _interpretation(
                preds, funcs, size, values, V, *found))
    return EntailmentResult(True)


def _search_size(goal: Formula, premise: Optional[Formula], preds: dict[str, int],
                 funcs: dict[str, int], size: int, n_values: int,
                 budget: int, spent: int, probe: bool = False
                 ) -> tuple[Optional[tuple[tuple[int, ...], tuple[int, ...]]], int]:
    """(best, spent): the least (predicate ranks, function table) over a
    universe of size elements where goal has rank below top and premise
    (if any) rank top, or None; and spent plus the points this size
    charged.

    Each ground atom P(u_i, ...) has a slot in one rank vector (predicates
    sorted, argument tuples in product order); each function table is a
    flat tuple of element indices in the same layout, and no function
    symbol means one empty table.  One search runs per table, in product
    order, on the goal grounded under that table and compiled; the least
    pair is kept, a tie keeping the earlier table, so only one table's
    programs are alive at a time.

    The probe, for function symbols that are all constants, only asks
    whether a countermodel exists: it visits one table per renaming of
    the elements (_renamings), since renaming the elements of a
    countermodel gives a countermodel, and returns the first it finds.

    A search walks only the slots that the grounded goal and premise read:
    an unread slot at 0 keeps a point falsifying and makes it smaller.
    The size charges its atom slots and function-table entries before
    it builds any element or table, each table one point, and each
    search its points.
    """
    offsets, n_func_slots = _first_slots(funcs, size)
    firsts, n_atom_slots = _first_slots(preds, size)
    n_slots = n_atom_slots + n_func_slots
    spent += n_slots
    if spent > budget:
        raise over_budget(f"universe size {size}, {n_slots} slots", spent, budget)

    def slot(key: tuple) -> int:
        # the predicate's first slot plus its element indices in mixed radix
        j = 0
        for i in key[1:]:
            j = j * size + i
        return firsts[key[0]] + j

    tables = (_renamings(n_func_slots, size) if probe
              else itertools.product(range(size), repeat=n_func_slots))
    best = None
    for t, table in enumerate(tables, 1):
        where = f"universe size {size}, function table {t}"
        read: dict = {}
        ground = _grounder(size, offsets, table, read)
        g = ground(goal, {})
        h = None if premise is None else ground(premise, {})
        keys = sorted(read)  # (predicate, element indices) sort in slot order
        slots = {read[key]: j for j, key in enumerate(keys)}
        prog = compile_prop(g, slots)
        if h is not None:
            g, h = prog, compile_prop(h, slots)
            prog = lambda ranks, top: g(ranks, top) if h(ranks, top) == top else top
        # one point for the table, checked with its search's first charge
        found, spent = first_countermodel(prog, n_values, len(keys), (), budget, spent + 1,
                                          where)
        if found is not None:
            ranks = [0] * n_atom_slots
            for key, rank in zip(keys, found):
                ranks[slot(key)] = rank
            if best is None or tuple(ranks) < best[0]:
                best = tuple(ranks), table
            if probe:
                break
    return best, spent


def _renamings(n: int, size: int) -> Iterator[tuple[int, ...]]:
    """The tables of n constants over size elements, one per renaming of
    the elements: the restricted-growth tables, where constant j takes an
    element no higher than 1 plus the highest taken before it, in
    lexicographic order."""
    table = [0] * n
    while True:
        yield tuple(table)
        highs = list(itertools.accumulate(table, max, initial=-1))
        # the last constant that can take a higher element; those after it restart at 0
        j = next((j for j in reversed(range(n))
                  if table[j] <= highs[j] and table[j] < size - 1), None)
        if j is None:
            return
        table[j] += 1
        table[j + 1:] = [0] * (n - j - 1)


def _first_slots(arities: Mapping[str, int], size: int) -> tuple[dict[str, int], int]:
    """Each symbol's first slot in one flat table over a universe of size
    elements, symbols sorted and argument tuples in product order; and the
    table's length."""
    firsts, n = {}, 0
    for name in sorted(arities):
        firsts[name] = n
        n += size ** arities[name]
    return firsts, n


def _grounder(size: int, offsets: Mapping[str, int],
              table: Sequence[int], read: Optional[dict] = None):
    """ground(f, env): the quantifier-free instance of f over the universe
    u0..u<size-1>, with function symbols read from the flat table and
    quantifiers expanded into balanced conjunctions or disjunctions.  Each
    ground atom met is built once and kept in read, by predicate and
    element indices; only the elements some atom reads are built."""
    read = {} if read is None else read
    elems: dict[int, App] = {}

    def term(t: Term, env: Mapping[str, int]) -> int:
        if isinstance(t, Var):
            return env[t.name]
        i = 0
        for a in t.args:
            i = i * size + term(a, env)
        return table[offsets[t.name] + i]

    def ground(g: Formula, env: Mapping[str, int]) -> Formula:
        if isinstance(g, Atom):
            key = (g.pred, *[term(t, env) for t in g.args])
            return read.get(key) or read.setdefault(
                key, Atom(g.pred, tuple(elems.get(i) or elems.setdefault(i, App(f"u{i}"))
                                        for i in key[1:])))
        if isinstance(g, Bot):
            return g
        if isinstance(g, (And, Or, Imp)):
            return type(g)(ground(g.left, env), ground(g.right, env))
        if g.var not in free_vars(g.body):
            # min and max over a nonempty universe of one value
            return ground(g.body, env)
        join = And if isinstance(g, Forall) else Or
        return balanced(join, [ground(g.body, {**env, g.var: i}) for i in range(size)])

    return ground


def _interpretation(preds: dict[str, int], funcs: dict[str, int], size: int,
                    values: Sequence[Fraction], V: GoedelSet,
                    ranks: Sequence[int], table: Sequence[int]) -> FiniteInterpretation:
    """The interpretation a rank vector and a flat function table stand for."""
    universe = tuple(f"u{i}" for i in range(size))
    rank_it, table_it = iter(ranks), iter(table)
    pred_tables = {p: {tup: values[next(rank_it)]
                       for tup in itertools.product(universe, repeat=preds[p])}
                   for p in sorted(preds)}
    func_tables = {g: {tup: universe[next(table_it)]
                       for tup in itertools.product(universe, repeat=funcs[g])}
                   for g in sorted(funcs)}
    return FiniteInterpretation(universe, V, pred_tables, func_tables)


def one_entails_bruteforce(premises: Sequence[Formula], conclusion: Formula,
                           V: GoedelSet, max_universe: int,
                           budget: int = BUDGET) -> EntailmentResult:
    return entails_bruteforce(premises, conclusion, V, max_universe, budget,
                              one_entailment=True)


# ---------------------------------------------------------------------------
# Tail descriptors


@dataclass(frozen=True)
class ConstTail:
    value: Fraction


@dataclass(frozen=True)
class Harmonic:
    """q + sign/(k + offset) as a function of the tail index k >= 1."""
    limit: Fraction
    sign: int  # +1 or -1
    offset: int = 0


TailDescriptor = Union[ConstTail, Harmonic]


def tail_value(d: TailDescriptor, k: int) -> Fraction:
    if isinstance(d, ConstTail):
        return d.value
    return d.limit + Fraction(d.sign, k + d.offset)


def _shift(d: TailDescriptor, delta: int) -> TailDescriptor:
    if isinstance(d, ConstTail) or delta == 0:
        return d
    return Harmonic(d.limit, d.sign, d.offset + delta)


def stable_order(d1: TailDescriptor, d2: TailDescriptor, start: int) -> tuple[int, int]:
    """(K, cmp) with cmp in {-1,0,1} constant for all k >= K >= start.

    Orders of constant/harmonic pairs stabilize at a closed-form index:
    once 1/(k+c) drops below the gap between the limits, the limit order
    wins; equal limits are ordered by sign and then by offset.
    """
    def lim(d: TailDescriptor) -> Fraction:
        return d.value if isinstance(d, ConstTail) else d.limit

    l1, l2 = lim(d1), lim(d2)
    if l1 != l2:
        delta = abs(l1 - l2)
        k = start
        for d in (d1, d2):
            if isinstance(d, Harmonic):
                # 1/(k + offset) < delta/2 from this index on
                k = max(k, math.floor(2 / delta) - d.offset + 1)
        return k, (-1 if l1 < l2 else 1)
    s1 = 0 if isinstance(d1, ConstTail) else d1.sign
    s2 = 0 if isinstance(d2, ConstTail) else d2.sign
    if s1 != s2:
        return start, (-1 if s1 < s2 else 1)
    if s1 == 0:
        return start, 0
    c1, c2 = d1.offset, d2.offset  # type: ignore[union-attr]
    if c1 == c2:
        return start, 0
    # larger offset means smaller magnitude 1/(k+c)
    if s1 > 0:
        return start, (-1 if c1 > c2 else 1)
    return start, (-1 if c1 < c2 else 1)


def tail_inf(d: TailDescriptor, start: int) -> Fraction:
    if isinstance(d, ConstTail):
        return d.value
    return d.limit if d.sign > 0 else tail_value(d, start)


def tail_sup(d: TailDescriptor, start: int) -> Fraction:
    if isinstance(d, ConstTail):
        return d.value
    return tail_value(d, start) if d.sign > 0 else d.limit


_TAIL_PROBE = 64


def _certify_tail(d: TailDescriptor, V: GoedelSet) -> None:
    """Every value of d for k >= 1 (and the limit) must lie in V.

    A harmonic tail runs from its first value to its limit, both in [0,1],
    with an offset of at least 0, so that no k + offset is 0.  One atom of
    V must hold the rest of the tail from some k <= _TAIL_PROBE + 1 on, and
    the values before the first such k are checked exactly; anything else
    is refused rather than approximated."""
    if isinstance(d, ConstTail):
        if not 0 <= d.value <= 1 or not member(V, d.value):
            raise TailValueError(f"constant tail value {d.value} not in the set")
        return
    if d.offset < 0:
        raise TailValueError(f"harmonic tail offset {d.offset} is below 0")
    if not (0 <= d.limit <= 1 and 0 <= tail_value(d, 1) <= 1):
        raise TailValueError("harmonic tail leaves [0,1]")
    if not member(V, d.limit):
        raise TailValueError(f"tail limit {d.limit} not in the set")
    for k in range(1, _TAIL_PROBE + 2):
        v = tail_value(d, k)
        if holds_harmonic_tail(V, d.limit, d.sign, v):
            return
        if k <= _TAIL_PROBE and not member(V, v):
            raise TailValueError(f"tail value {v} not in the set")
    raise TailValueError("cannot certify the harmonic tail inside the set")


# ---------------------------------------------------------------------------
# Omega interpretations

_STAR = "*"


@dataclass
class OmegaInterpretation:
    """Prefix elements with explicit tables plus an infinite tail t_1, t_2,
    ... whose ground atoms follow per-pattern descriptors.

    Atom patterns are keyed by predicate name and an argument tuple of
    prefix-element names with "*" marking the tail slots; all starred
    slots of one atom refer to the same tail element (atoms are monadic
    in the tail).  Function symbols either act inside the prefix through
    explicit tables or are listed in ``successors`` and act as
    t_k -> t_{k+1} on the tail.
    """
    prefix: tuple[str, ...]
    truth_set: GoedelSet
    predicates: dict[str, dict[tuple[str, ...], Fraction]] = field(default_factory=dict)
    tails: dict[str, dict[tuple[str, ...], TailDescriptor]] = field(default_factory=dict)
    functions: dict[str, dict[tuple[str, ...], str]] = field(default_factory=dict)
    successors: frozenset[str] = frozenset()

    def validate(self) -> None:
        for p, table in self.predicates.items():
            for v in table.values():
                if not member(self.truth_set, v):
                    raise InterpretationFormatError(f"value {v} of {p} outside the truth set")
        for p, pats in self.tails.items():
            for pat, d in pats.items():
                if _STAR not in pat:
                    raise InterpretationFormatError(f"tail pattern {p}{pat} has no tail slot")
                _certify_tail(d, self.truth_set)

    def tail_descriptor(self, pred: str, pattern: tuple[str, ...]) -> TailDescriptor:
        try:
            return self.tails[pred][pattern]
        except KeyError:
            raise UnassignedSymbolError(
                f"no tail descriptor for {pred}{pattern}") from None


# During evaluation an element is ("pre", name), ("tail", k) or, inside a
# symbolic pass, ("sym", shift) standing for t_{k+shift} with k generic.
_Elem = tuple[str, object]

# quantifiers fold tail indices below the order-stability point one by
# one; descriptors with nearly-equal limits can push that point out far
# enough that refusing loudly beats a silent crawl
_FOLD_BUDGET = 100_000


def _omega_term(t: Term, I: OmegaInterpretation, env: Mapping[str, _Elem]) -> _Elem:
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise UnassignedSymbolError(f"variable {t.name} unassigned") from None
    args = [_omega_term(a, I, env) for a in t.args]
    if any(kind != "pre" for kind, _ in args):
        if t.name in I.successors and len(args) == 1:
            kind, payload = args[0]
            if kind == "tail":
                return ("tail", payload + 1)  # type: ignore[operator]
            return ("sym", payload + 1)  # type: ignore[operator]
        raise TailRestrictionError(
            f"function {t.name} applied to a tail element is not a successor")
    names = tuple(payload for _, payload in args)
    try:
        return ("pre", I.functions[t.name][names])
    except KeyError:
        raise UnassignedSymbolError(f"function {t.name} undefined at {names}") from None


def _atom_parts(g: Atom, I: OmegaInterpretation,
                env: Mapping[str, _Elem]) -> tuple[tuple[str, ...], Optional[object]]:
    """(pattern, tail payload): the pattern has prefix names and stars; the
    payload is the common tail index/shift, or None for pure-prefix atoms."""
    pattern = []
    payload: Optional[tuple[str, object]] = None
    for t in g.args:
        kind, val = _omega_term(t, I, env)
        if kind == "pre":
            pattern.append(val)
            continue
        pattern.append(_STAR)
        if payload is None:
            payload = (kind, val)
        elif payload != (kind, val):
            raise TailRestrictionError(
                f"atom {g.pred} couples two tail elements")
    return tuple(pattern), payload


def _eval_omega(g: Formula, I: OmegaInterpretation, env: dict[str, _Elem]) -> Fraction:
    if isinstance(g, Atom):
        pattern, payload = _atom_parts(g, I, env)
        if payload is None:
            try:
                return I.predicates[g.pred][pattern]
            except KeyError:
                raise UnassignedSymbolError(f"atom {g.pred}{pattern} unassigned") from None
        kind, val = payload
        assert kind == "tail"
        return tail_value(I.tail_descriptor(g.pred, pattern), val)  # type: ignore[arg-type]
    if isinstance(g, Bot):
        return ZERO
    if isinstance(g, And):
        return min(_eval_omega(g.left, I, env), _eval_omega(g.right, I, env))
    if isinstance(g, Or):
        return max(_eval_omega(g.left, I, env), _eval_omega(g.right, I, env))
    if isinstance(g, Imp):
        a = _eval_omega(g.left, I, env)
        b = _eval_omega(g.right, I, env)
        return ONE if a <= b else b
    # quantifier: explicit prefix, folded tail indices, then the stable tail
    d, start = _sym_omega(g.body, I, env, g.var)
    if start > _FOLD_BUDGET:
        raise BudgetError(
            f"tail orders stabilize only after index {start}; refusing to "
            f"fold more than {_FOLD_BUDGET} concrete tail elements")
    vals = []
    for u in I.prefix:
        env2 = dict(env)
        env2[g.var] = ("pre", u)
        vals.append(_eval_omega(g.body, I, env2))
    for k in range(1, start):
        env2 = dict(env)
        env2[g.var] = ("tail", k)
        vals.append(_eval_omega(g.body, I, env2))
    if isinstance(g, Forall):
        vals.append(tail_inf(d, start))
        return min(vals)
    vals.append(tail_sup(d, start))
    return max(vals)


def _sym_omega(g: Formula, I: OmegaInterpretation, env: dict[str, _Elem],
               var: str) -> tuple[TailDescriptor, int]:
    """Value of g at the generic tail element t_k as a descriptor valid
    from the returned index on.  Connectives fold pointwise once the
    pairwise order of the children is stable."""
    if isinstance(g, Atom):
        env2 = dict(env)
        env2[var] = ("sym", 0)
        pattern, payload = _atom_parts(g, I, env2)
        if payload is None:
            try:
                return ConstTail(I.predicates[g.pred][pattern]), 1
            except KeyError:
                raise UnassignedSymbolError(f"atom {g.pred}{pattern} unassigned") from None
        kind, val = payload
        if kind == "tail":
            return ConstTail(tail_value(I.tail_descriptor(g.pred, pattern), val)), 1  # type: ignore[arg-type]
        return _shift(I.tail_descriptor(g.pred, pattern), val), 1  # type: ignore[arg-type]
    if isinstance(g, Bot):
        return ConstTail(ZERO), 1
    if isinstance(g, (And, Or)):
        d1, k1 = _sym_omega(g.left, I, env, var)
        d2, k2 = _sym_omega(g.right, I, env, var)
        k, cmp_ = stable_order(d1, d2, max(k1, k2))
        if isinstance(g, And):
            return (d1 if cmp_ <= 0 else d2), k
        return (d2 if cmp_ <= 0 else d1), k
    if isinstance(g, Imp):
        d1, k1 = _sym_omega(g.left, I, env, var)
        d2, k2 = _sym_omega(g.right, I, env, var)
        k, cmp_ = stable_order(d1, d2, max(k1, k2))
        return (ConstTail(ONE) if cmp_ <= 0 else d2), k
    # quantifier inside a symbolic pass
    if var not in free_vars(g):
        return ConstTail(_eval_omega(g, I, dict(env))), 1
    raise TailRestrictionError(
        "nested tail quantification: the body of a quantifier over the tail "
        "contains another generic tail variable")


def eval_omega(f: Formula, I: OmegaInterpretation) -> Fraction:
    """Exact value of a closed formula under an omega interpretation;
    quantifier values combine prefix extrema with tail limits, so infima
    and suprema need not be attained."""
    if free_vars(f):
        raise ClosedFormulaRequiredError(
            f"omega evaluation needs a closed formula: {print_formula(f)}")
    return _eval_omega(f, I, {})


# ---------------------------------------------------------------------------
# JSON interpretation files


def _table_key(key: str) -> tuple[str, ...]:
    return tuple(k for k in key.split(",") if k) if key else ()


def _rational(value, what: str) -> Fraction:
    """A truth value or limit given as "p/q", an integer or a float."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise InterpretationFormatError(f"{what} must be a rational, not {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise InterpretationFormatError(f"{what} is not a rational: {value!r}") from None


def _descriptor_from_json(obj, what: str) -> TailDescriptor:
    expect_json(obj, dict, what, InterpretationFormatError)
    kind = obj.get("kind")
    if kind == "const":
        return ConstTail(_rational(obj.get("value"), f"{what} value"))
    if kind == "harmonic":
        sign, offset = obj.get("sign"), obj.get("offset", 0)
        if sign not in ("+", "-"):
            raise InterpretationFormatError(f'{what} sign must be "+" or "-"')
        if isinstance(offset, bool) or not isinstance(offset, int):
            raise InterpretationFormatError(f"{what} offset must be an integer")
        return Harmonic(_rational(obj.get("limit"), f"{what} limit"),
                        1 if sign == "+" else -1, offset)
    raise InterpretationFormatError(f"unknown tail descriptor kind {kind!r}")


def _descriptor_to_json(d: TailDescriptor) -> dict:
    if isinstance(d, ConstTail):
        return {"kind": "const", "value": str(d.value)}
    return {"kind": "harmonic", "limit": str(d.limit),
            "sign": "+" if d.sign > 0 else "-", "offset": d.offset}


def load_interpretation(data: Mapping) -> Union[FiniteInterpretation, OmegaInterpretation]:
    """Interpretation from its JSON form (rationals as "p/q" strings,
    tables keyed "P/1" with comma-joined argument keys).  A document of
    the wrong shape, a universe (an omega prefix) that names an element
    twice, or tables that validate refuses raise InterpretationFormatError."""
    bad = InterpretationFormatError  # the error of a part of the wrong shape
    expect_json(data, dict, "an interpretation", bad)
    if "universe" not in data or "truth_set" not in data:
        raise InterpretationFormatError('an interpretation needs "universe" and "truth_set"')
    universe = tuple(expect_json(u, str, "a universe element", bad)
                     for u in expect_json(data["universe"], list, '"universe"', bad))
    seen: set[str] = set()
    for u in universe:
        if u in seen:
            raise InterpretationFormatError(f'"universe" names the element {u!r} twice')
        seen.add(u)
    truth_set = parse_set(expect_json(data["truth_set"], str, '"truth_set"', bad))
    preds: dict[str, dict[tuple[str, ...], Fraction]] = {}
    for key, table in expect_json(data.get("predicates", {}), dict, '"predicates"', bad).items():
        name = key.split("/")[0]
        preds[name] = {_table_key(k): _rational(v, f"a value of {key}")
                       for k, v in expect_json(table, dict, f"the table of {key}", bad).items()}
    funcs: dict[str, dict[tuple[str, ...], str]] = {}
    successors = set()
    for key, table in expect_json(data.get("functions", {}), dict, '"functions"', bad).items():
        name = key.split("/")[0]
        if table == "successor":
            successors.add(name)
            continue
        funcs[name] = {_table_key(k): expect_json(v, str, f"a value of {key}", bad)
                       for k, v in expect_json(table, dict, f"the table of {key}", bad).items()}
    variables = expect_json(data.get("variables", {}), dict, '"variables"', bad)
    for v in variables.values():
        expect_json(v, str, "a variable's element", bad)
    if "tail" not in data and not successors:
        I = FiniteInterpretation(universe, truth_set, preds, funcs, dict(variables))
        I.validate()
        return I
    tails: dict[str, dict[tuple[str, ...], TailDescriptor]] = {}
    for key, spec in expect_json(data.get("tail", {}), dict, '"tail"', bad).items():
        name, _, arity = key.partition("/")
        what = f"the tail of {key}"
        if "kind" in expect_json(spec, dict, what, bad):  # shorthand: all slots are tail slots
            if arity and not arity.isdigit():
                raise InterpretationFormatError(f"{what} needs a numeric arity")
            pattern = tuple(_STAR for _ in range(int(arity or 1)))
            tails.setdefault(name, {})[pattern] = _descriptor_from_json(spec, what)
        else:
            for pat_key, sub in spec.items():
                tails.setdefault(name, {})[_table_key(pat_key)] = _descriptor_from_json(sub, what)
    omega = OmegaInterpretation(universe, truth_set, preds, tails, funcs,
                                frozenset(successors))
    omega.validate()
    return omega


def dump_interpretation(I: Union[FiniteInterpretation, OmegaInterpretation]) -> dict:
    out: dict = {
        "universe": list(I.prefix if isinstance(I, OmegaInterpretation) else I.universe),
        "truth_set": print_set(I.truth_set),
        "predicates": {},
        "functions": {},
    }
    for p, table in I.predicates.items():
        arity = len(next(iter(table), ()))
        out["predicates"][f"{p}/{arity}"] = {",".join(k): str(v) for k, v in table.items()}
    for f, table in I.functions.items():
        arity = len(next(iter(table), ()))
        out["functions"][f"{f}/{arity}"] = {",".join(k): v for k, v in table.items()}
    if isinstance(I, OmegaInterpretation):
        for s in sorted(I.successors):
            out["functions"][f"{s}/1"] = "successor"
        tail: dict = {}
        for p, pats in I.tails.items():
            for pat, d in pats.items():
                tail.setdefault(f"{p}/{len(pat)}", {})[",".join(pat)] = _descriptor_to_json(d)
        out["tail"] = tail
    else:
        if I.variables:
            out["variables"] = dict(I.variables)
    return out
