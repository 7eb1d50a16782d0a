"""Formula-to-formula reductions between logics and fragments.

Contains the two classical-finite-validity reduction shapes (the leveled
ordering construction and its 0-accumulating variant), the bot-free
rewriting, the forall-free conditional shift, double-negation
relativization, and prenexification restricted to shifts that preserve
value in every Goedel logic.

None of these decide anything; they build formulas whose shape and
desk-scale semantics the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .formula import (
    App, Atom, Bot, And, Or, Imp, Forall, Exists, Formula, GoedelError, Neg, Term, Var,
    free_vars, is_crisp, normalize, print_formula, signature, subformulas,
    substitute,
)


class TransformError(GoedelError):
    pass


class NotClosedError(TransformError):
    pass


class ShapeError(TransformError):
    pass


class InadmissibleShiftError(TransformError):
    """Prenexification would need a shift that fails in some Goedel logic."""

    def __init__(self, shift: str, subformula: Formula):
        super().__init__(
            f"subformula {print_formula(subformula)} needs the shift {shift}, "
            f"which is not valid in every Goedel logic")
        self.shift = shift
        self.subformula = subformula


@dataclass
class ReductionOutput:
    formula: Formula
    fresh_predicates: dict[str, int]
    fresh_functions: dict[str, int]
    provenance: str


# ---------------------------------------------------------------------------
# Helpers


def _and_all(parts: Sequence[Formula]) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def _or_all(parts: Sequence[Formula]) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def _forall_all(vars_: Sequence[str], body: Formula) -> Formula:
    for v in reversed(vars_):
        body = Forall(v, body)
    return body


def _fresh_symbols(bases: Sequence[str], taken: set[str]) -> dict[str, str]:
    out = {}
    for base in bases:
        name = base
        i = 1
        while name in taken:
            name = f"{base}{i}"
            i += 1
        taken.add(name)
        out[base] = name
    return out


def double_negate_atoms(f: Formula) -> Formula:
    """Replace every atom occurrence by its double negation."""
    if isinstance(f, Atom):
        return Neg(Neg(f))
    if isinstance(f, Bot):
        return f
    if isinstance(f, (And, Or, Imp)):
        return type(f)(double_negate_atoms(f.left), double_negate_atoms(f.right))
    return type(f)(f.var, double_negate_atoms(f.body))


def relativize_dneg(f: Formula, guard: Callable[[str], Formula]) -> Formula:
    """Double-negate all atoms and relativize every quantifier to the
    guard: forall x B becomes forall x (guard(x) -> B), exists x B
    becomes exists x (guard(x) & B).  With a crisp guard the output is
    crisp."""
    if isinstance(f, Atom):
        return Neg(Neg(f))
    if isinstance(f, Bot):
        return f
    if isinstance(f, (And, Or, Imp)):
        return type(f)(relativize_dneg(f.left, guard), relativize_dneg(f.right, guard))
    body = relativize_dneg(f.body, guard)
    if isinstance(f, Forall):
        return Forall(f.var, Imp(guard(f.var), body))
    return Exists(f.var, And(guard(f.var), body))


# ---------------------------------------------------------------------------
# The leveled-ordering reduction (countable truth-value sets)

_STANDARD_AXIOMS_NOTE = (
    "finite axiom list for 0/successor/<=: zero least, successor increasing, "
    "transitivity, totality; atoms double-negated.  Strict-successor and "
    "antisymmetry are omitted: any interpretation satisfying them exactly "
    "has no finite level structure, and the list only has to support the "
    "level bookkeeping."
)


def _standard_axioms(leq: str, zero: str, succ: str) -> Formula:
    i, j, k = "i", "j", "k"

    def le(a: Term, b: Term) -> Formula:
        return Neg(Neg(Atom(leq, (a, b))))

    ax1 = Forall(i, le(App(zero), Var(i)))
    ax2 = Forall(i, le(Var(i), App(succ, (Var(i),))))
    ax3 = _forall_all([i, j, k], Imp(And(le(Var(i), Var(j)), le(Var(j), Var(k))),
                                     le(Var(i), Var(k))))
    ax4 = _forall_all([i, j], Or(le(Var(i), Var(j)), le(Var(j), Var(i))))
    return _and_all([ax1, ax2, ax3, ax4])


def to_Ag(f: Formula) -> ReductionOutput:
    """The reduction sending a sentence to one valid over a countably
    infinite truth-value set iff the sentence holds in all finite
    classical structures.

    Shape: (S and c1 in 0 and c2 in 0 and c2 < c1 and
            forall i [forall x,y,j,k exists z D or forall x ~(x in s(i))])
           -> (A' or exists u P(u))
    with x in y standing for ~~L(x,y), x < y for (P(y)->P(x))->P(y), and
    A' the double-negated input relativized to level non-emptiness.
    """
    if free_vars(f):
        raise NotClosedError("input sentence must be closed")
    preds, funcs = signature(f)
    taken = set(preds) | set(funcs)
    names = _fresh_symbols(["P", "L", "Leq", "zero", "s", "c1", "c2"], taken)
    P, L, leq = names["P"], names["L"], names["Leq"]
    zero, succ = names["zero"], names["s"]
    c1, c2 = names["c1"], names["c2"]

    def member_of(a: Term, b: Term) -> Formula:
        return Neg(Neg(Atom(L, (a, b))))

    def below(a: Term, b: Term) -> Formula:
        return Imp(Imp(Atom(P, (b,)), Atom(P, (a,))), Atom(P, (b,)))

    def le(a: Term, b: Term) -> Formula:
        return Atom(leq, (a, b))

    x, y, z, i, j, k, u = "x", "y", "z", "i", "j", "k", "u"
    s_i = App(succ, (Var(i),))
    d_body = Imp(
        _and_all([le(Var(j), Var(i)), member_of(Var(x), Var(j)),
                  le(Var(k), Var(i)), member_of(Var(y), Var(k)),
                  below(Var(x), Var(y))]),
        _and_all([member_of(Var(z), s_i), below(Var(x), Var(z)),
                  below(Var(z), Var(y))]))
    density = Forall(i, Or(
        _forall_all([x, y, j, k], Exists(z, d_body)),
        Forall(x, Neg(member_of(Var(x), s_i)))))

    antecedent = _and_all([
        _standard_axioms(leq, zero, succ),
        member_of(App(c1), App(zero)),
        member_of(App(c2), App(zero)),
        below(App(c2), App(c1)),
        density,
    ])

    def guard(v: str) -> Formula:
        return Exists("w", member_of(Var("w"), Var(v)))

    a_prime = relativize_dneg(normalize(f), guard)
    out = Imp(antecedent, Or(a_prime, Exists(u, Atom(P, (Var(u),)))))
    return ReductionOutput(
        normalize(out),
        fresh_predicates={P: 1, L: 2, leq: 2},
        fresh_functions={zero: 0, succ: 1, c1: 0, c2: 0},
        provenance="level-ordering reduction; " + _STANDARD_AXIOMS_NOTE)


def to_Ah(f: Formula) -> ReductionOutput:
    """The 0-accumulating variant: the level construction is repeated along
    a strictly descending value sequence Q(l) converging to 0.

    Shape: (S and forall l ((Q(s(l))->Q(l))->Q(s(l))) and ~forall l Q(l)
            and exists l ~Q(l) and forall l,x ((Q(l)->P(x,l))->Q(l))
            and forall l exists x,y (x in_l 0 and y in_l 0 and x <_l y)
            and forall l,i [forall x,y,j,k exists z E or forall x ~(x in_l s(i))])
           -> (A' or exists l exists u P(u,l) or exists l Q(l))
    """
    if free_vars(f):
        raise NotClosedError("input sentence must be closed")
    preds, funcs = signature(f)
    taken = set(preds) | set(funcs)
    names = _fresh_symbols(["P", "L", "Q", "Leq", "zero", "s"], taken)
    P, L, Q, leq = names["P"], names["L"], names["Q"], names["Leq"]
    zero, succ = names["zero"], names["s"]

    def member_of(a: Term, b: Term, lv: Term) -> Formula:
        return Neg(Neg(Atom(L, (a, b, lv))))

    def below(a: Term, b: Term, lv: Term) -> Formula:
        return Imp(Imp(Atom(P, (b, lv)), Atom(P, (a, lv))), Atom(P, (b, lv)))

    def le(a: Term, b: Term) -> Formula:
        return Atom(leq, (a, b))

    x, y, z, i, j, k, u, lv = "x", "y", "z", "i", "j", "k", "u", "l"
    s_i = App(succ, (Var(i),))
    s_l = App(succ, (Var(lv),))
    e_body = Imp(
        _and_all([le(Var(j), Var(i)), member_of(Var(x), Var(j), Var(lv)),
                  le(Var(k), Var(i)), member_of(Var(y), Var(k), Var(lv)),
                  below(Var(x), Var(y), Var(lv))]),
        _and_all([member_of(Var(z), s_i, Var(lv)), below(Var(x), Var(z), Var(lv)),
                  below(Var(z), Var(y), Var(lv))]))
    density = _forall_all([lv, i], Or(
        _forall_all([x, y, j, k], Exists(z, e_body)),
        Forall(x, Neg(member_of(Var(x), s_i, Var(lv))))))

    q_descending = Forall(lv, Imp(Imp(Atom(Q, (s_l,)), Atom(Q, (Var(lv),))),
                                  Atom(Q, (s_l,))))
    q_inf_zero = Neg(Forall(lv, Atom(Q, (Var(lv),))))
    q_never_zero = Exists(lv, Neg(Atom(Q, (Var(lv),))))
    p_below_q = _forall_all([lv, x], Imp(Imp(Atom(Q, (Var(lv),)), Atom(P, (Var(x), Var(lv)))),
                                         Atom(Q, (Var(lv),))))
    level0_pair = Forall(lv, Exists(x, Exists(y, _and_all([
        member_of(Var(x), App(zero), Var(lv)),
        member_of(Var(y), App(zero), Var(lv)),
        below(Var(x), Var(y), Var(lv))]))))

    antecedent = _and_all([
        _standard_axioms(leq, zero, succ),
        q_descending, q_inf_zero, q_never_zero, p_below_q, level0_pair, density,
    ])

    def guard(v: str) -> Formula:
        return Forall("w1", Exists("w2", member_of(Var("w2"), Var("w1"), Var(v))))

    a_prime = relativize_dneg(normalize(f), guard)
    consequent = _or_all([
        a_prime,
        Exists(lv, Exists(u, Atom(P, (Var(u), Var(lv))))),
        Exists(lv, Atom(Q, (Var(lv),))),
    ])
    out = Imp(antecedent, consequent)
    return ReductionOutput(
        normalize(out),
        fresh_predicates={P: 2, L: 3, Q: 1, leq: 2},
        fresh_functions={zero: 0, succ: 1},
        provenance="0-accumulating level-ordering reduction; " + _STANDARD_AXIOMS_NOTE)


# ---------------------------------------------------------------------------
# Bot-free rewriting


def to_bot_free(f: Formula) -> Formula:
    """Replace bot by a fresh nullary atom B0 and guard it below every
    predicate: (AND_P forall xs (B0 -> P(xs))) -> f[bot := B0].

    Substituting bot back for B0 makes every antecedent conjunct an
    instance of bot -> A, so the rewriting evaluates like f.  The fresh
    letter is upper-case, as the parser wants predicates, so the output
    prints and reparses."""
    preds, _ = signature(f)
    taken = set(preds)
    b_name = _fresh_symbols(["B0"], taken)["B0"]
    b = Atom(b_name)

    def debot(g: Formula) -> Formula:
        if isinstance(g, Bot):
            return b
        if isinstance(g, Atom):
            return g
        if isinstance(g, (And, Or, Imp)):
            return type(g)(debot(g.left), debot(g.right))
        return type(g)(g.var, debot(g.body))

    body = debot(f)
    if not preds:
        return normalize(body)
    conjuncts = []
    for name in sorted(preds):
        arity = preds[name]
        vars_ = [f"x{i + 1}" for i in range(arity)]
        inner: Formula = Imp(b, Atom(name, tuple(Var(v) for v in vars_)))
        conjuncts.append(_forall_all(vars_, inner))
    return normalize(Imp(_and_all(conjuncts), body))


# ---------------------------------------------------------------------------
# Forall-free conditional shift


def _contains_forall(f: Formula) -> bool:
    return any(isinstance(g, Forall) for g in subformulas(f))


def forall_free_shift(f: Formula) -> Formula:
    """(forall xs A(xs)) -> B  becomes  exists xs (A(xs) -> B) for
    forall-free A and B; the two are equivalent at the validity level
    (the shift direction is moreover valid pointwise everywhere).  The
    input is normalized first, so no bound name occurs free in B and
    B keeps its free variables."""
    if not isinstance(f, Imp) or not isinstance(f.left, Forall):
        raise ShapeError("expected a conditional with a universally "
                         "quantified antecedent")
    f = normalize(f)
    vars_: list[str] = []
    core = f.left
    while isinstance(core, Forall):
        vars_.append(core.var)
        core = core.body
    if _contains_forall(core):
        raise ShapeError("antecedent matrix must be forall-free")
    if _contains_forall(f.right):
        raise ShapeError("consequent must be forall-free")
    # the binders keep their pre-order, so the output is normalized too
    out: Formula = Imp(core, f.right)
    for v in reversed(vars_):
        out = Exists(v, out)
    return out


# ---------------------------------------------------------------------------
# Prenexification with admissible shifts only


# The shift of a quantifier out of a conditional, by its side and kind:
# the kind it becomes, its family, and the shift it is (S_3 or S_2) when
# that shift holds only on crisp material.  A quantifier hoisted out of
# a conjunction or disjunction keeps its kind.
_IMP_SHIFTS = {
    ("left", Exists): (Forall, "antecedent-exists", None),
    ("left", Forall): (Exists, "crisp-antecedent-forall", "S_3"),
    ("right", Forall): (Forall, "consequent-forall", None),
    ("right", Exists): (Exists, "crisp-consequent-exists", "S_2"),
}


def prenex_crisp(f: Formula) -> Formula:
    return prenex_crisp_report(f)[0]


def prenex_crisp_report(f: Formula) -> tuple[Formula, tuple[str, ...]]:
    """Prenex the formula using only shifts valid in every Goedel logic:
    the eight intuitionistically admissible ones plus, on crisp
    subformulas, the two classical conditional shifts.  Rejects inputs
    that would need S_2 or S_3 on non-crisp material.

    Returns the prenex formula and the names of the shift families used
    (every one of them preserves the exact truth value pointwise)."""
    used: set[str] = set()
    counter = [0]

    def fresh(avoid: set[str]) -> str:
        while True:
            counter[0] += 1
            name = f"q{counter[0]}"
            if name not in avoid:
                return name

    def pull(g: Formula) -> Formula:
        """g is a connective whose children are already prenex; hoist the
        outermost child quantifiers until both children are bare."""
        parts = [g.left, g.right]
        for i, side in enumerate(("left", "right")):
            q, other = parts[i], parts[1 - i]
            if not isinstance(q, (Forall, Exists)):
                continue
            if isinstance(g, Imp):
                kind, family, crisp_shift = _IMP_SHIFTS[side, type(q)]
                if crisp_shift and not (is_crisp(q.body) and is_crisp(other)):
                    raise InadmissibleShiftError(crisp_shift, g)
            else:
                kind, family = type(q), "and-shift" if isinstance(g, And) else "or-shift"
            v = fresh(free_vars(other) | free_vars(q) | {q.var})
            parts[i] = substitute(q.body, q.var, Var(v))
            used.add(family)
            return kind(v, pull(type(g)(*parts)))
        return g

    def hoist(g: Formula) -> Formula:
        if isinstance(g, (Atom, Bot)):
            return g
        if isinstance(g, (Forall, Exists)):
            return type(g)(g.var, hoist(g.body))
        return pull(type(g)(hoist(g.left), hoist(g.right)))

    return normalize(hoist(normalize(f))), tuple(sorted(used))
