"""Shared generators for randomized tests (seeded, deterministic)."""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Sequence

from goedel_logics.formula import (
    App, Atom, Bot, And, Or, Imp, Forall, Exists, Formula, Var, free_vars,
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
