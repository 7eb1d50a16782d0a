"""Herbrand forms, semantic-tree proving, certificates and reassembly.

The prover handles closed prenex formulas.  Universal variables are
replaced by fresh function symbols applied to the preceding existential
variables; the tree then explores the pinned weak orders of growing
prefixes C_1..C_L of the Herbrand base, grown by the propositional
enumerator of ``decide`` (ROOT, extend), whose orders are rank vectors.
A branch closes once a ground instance of the matrix has the top rank
at its order, which by order-invariance settles the question for every
interpretation fulfilling the order.

A node at level L checks only the instances new at L, those that
contain C_L.  Every older instance was below top at the node's open
parent, and inserting C_L keeps the order of the older atoms and their
place relative to 0 and 1, so it stays below top.  The first instance
that closes the branch is the one a check of every instance would find.
New instances are generated by matching the matrix atoms against the
base, and each is compiled once by ``decide.compile_prop`` the first
time the walk reaches its level.

The tree is walked depth first, so the walk stops at the first branch
still open at the level bound and answers "unknown" with that branch's
order, under which every instance so far stays below 1.  When no
predicate takes an argument the Herbrand base is finite, and a branch
open at its last atom is a countermodel: the answer is "invalid".  A
walk that closes every branch has visited the nodes of the
breadth-first tree, and the instances its branches closed on, sorted
stably by level, come out in breadth-first order, which fixes the order
of the certificate's disjuncts.

Finite-valued mode prunes orders with more than n classes.  A closed
tree yields a certificate: the formula, the mode and the Herbrand
disjunction.  The disjunction is checked independently by the
propositional decision procedures, and the certificate can be
reassembled into a rule trace deriving the original formula.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .formula import (
    App, Atom, Bot, And, Or, Imp, Forall, Exists, Formula, GoedelError, Term, Var,
    alpha_eq, atoms, free_vars, fresh_name, is_prenex, normalize, parse, prefix_and_matrix,
    print_formula, print_raw, print_term, signature, substitute, term_size,
)
from .decide import (
    BUDGET, NODE_BUDGET, ROOT, BudgetError, Constraint, Order, RankProgram, classes,
    compile_prop, decide_Gm, decide_LC, extend, whole_number,
)
from .semantics import expect_json


class HerbrandError(GoedelError):
    pass


class NotPrenexError(HerbrandError):
    pass


class TraceConstructionError(HerbrandError):
    pass


class CertificateFormatError(HerbrandError):
    """A JSON certificate document of the wrong shape."""


# ---------------------------------------------------------------------------
# Herbrand form


Instance = tuple[tuple[Term, ...], Formula]  # existential terms, ground matrix


class HerbrandProblem:
    """A prenex formula together with its Herbrand form and a fixed
    non-repetitive enumeration of the Herbrand base (by total term size,
    ties broken lexicographically)."""

    def __init__(self, original: Formula):
        if free_vars(original):
            raise NotPrenexError("formula must be closed")
        if not is_prenex(original):
            raise NotPrenexError(f"formula is not prenex: {print_formula(original)}")
        self.original = normalize(original)
        prefix, matrix = prefix_and_matrix(self.original)
        self.prefix = tuple(prefix)

        preds, funcs = signature(matrix)
        used = set(funcs)

        def fresh(base: str) -> str:
            name = fresh_name(base, used)
            used.add(name)
            return name

        existentials: list[str] = []
        mapping: dict[str, Term] = {}
        skolem: list[tuple[str, int]] = []
        self.universal_terms: list[tuple[int, str, tuple[str, ...]]] = []
        n_univ = 0
        for pos, (kind, var) in enumerate(self.prefix):
            if kind == "exists":
                existentials.append(var)
            else:
                n_univ += 1
                args = tuple(existentials)
                name = fresh(f"f{n_univ}" if args else f"c{n_univ}")
                skolem.append((name, len(args)))
                mapping[var] = App(name, tuple(Var(v) for v in args))
                self.universal_terms.append((pos, name, args))

        self.existential_vars = tuple(existentials)
        self.skolem_symbols = tuple(skolem)
        self.matrix = matrix

        body = matrix
        for var, t in mapping.items():
            body = substitute(body, var, t)
        self.skolem_matrix = body
        # the Herbrand form: the Skolem matrix under the existential prefix
        hform: Formula = body
        for var in reversed(existentials):
            hform = Exists(var, hform)
        self.existential_form = hform

        hu_preds, hu_funcs = signature(body)
        if not any(k == 0 for k in hu_funcs.values()):
            hu_funcs[fresh("c0")] = 0
        if not any(k > 0 for k in hu_funcs.values()):
            hu_funcs[fresh("g0")] = 1
        self.hu_functions = dict(sorted(hu_funcs.items()))
        self.predicates = dict(sorted(hu_preds.items()))
        # the number of atoms in the base when it is finite: with no
        # predicate taking an argument it holds the 0-ary atoms alone
        self.base_length: Optional[int] = (
            None if any(self.predicates.values()) else len(self.predicates))

        self._terms_by_size: list[list[Term]] = [[]]  # index = size
        self._base: list[Atom] = []
        self._base_size = 0  # last term-size block already enumerated

    # -- Herbrand universe / base enumeration

    def _grow_terms(self, size: int) -> None:
        while len(self._terms_by_size) <= size:
            s = len(self._terms_by_size)
            terms: list[Term] = []
            for name, arity in self.hu_functions.items():
                if arity == 0:
                    if s == 1:
                        terms.append(App(name))
                    continue
                for split in _compositions(s - 1, arity):
                    pools = [self._terms_by_size[part] for part in split]
                    for args in itertools.product(*pools):
                        terms.append(App(name, args))
            terms.sort(key=_term_key)
            self._terms_by_size.append(terms)

    def terms_up_to(self, size: int) -> list[Term]:
        self._grow_terms(size)
        out: list[Term] = []
        for s in range(1, size + 1):
            out.extend(self._terms_by_size[s])
        return out

    def base(self, count: int) -> list[Atom]:
        """C_1 .. C_count of the Herbrand base (non-repetitive), or the
        whole base when it is finite and shorter."""
        while len(self._base) < count and len(self._base) != self.base_length:
            self._base_size += 1
            size = self._base_size
            block: list[Atom] = []
            for pred, arity in self.predicates.items():
                if arity == 0:
                    if size == 1:
                        block.append(Atom(pred))
                    continue
                for split in _compositions(size, arity):
                    self._grow_terms(max(split))
                    pools = [self._terms_by_size[part] for part in split]
                    for args in itertools.product(*pools):
                        block.append(Atom(pred, args))
            block.sort(key=_atom_key)
            self._base.extend(block)
        return self._base[:count]

    def new_instances(self, level: int) -> list[Instance]:
        """The instances new at `level`: ground instances of the Skolem
        matrix whose atoms all lie in {C_1..C_level} and include C_level
        (at level 0, those with no atoms).  A variable absent from the
        matrix takes the first constant.  They come in the order of their
        term tuples, which is the order of the full product of candidate
        terms.

        Each is found by matching the matrix atoms against the base: the
        first atom on C_level binds its variables, earlier atoms take
        older base atoms and later ones any, so no tuple comes twice."""
        patterns = atoms(self.skolem_matrix)
        if level == 0:
            return [] if patterns else [self._instance({})]
        base = self.base(level)
        if len(base) < level:
            return []  # the level lies beyond a finite base
        found: list[dict[str, Term]] = []
        for j, pattern in enumerate(patterns):
            bound: dict[str, Term] = {}
            if _match_atom(pattern, base[-1], bound):
                pools = [(q, base[:-1] if i < j else base)
                         for i, q in enumerate(patterns) if i != j]
                found.extend(_match_all(pools, bound))
        out = [self._instance(b) for b in found]
        out.sort(key=lambda inst: [_term_key(t) for t in inst[0]])
        return out

    def combo(self, bindings: dict[str, Term]) -> tuple[Term, ...]:
        """The existential terms of bindings; a variable absent from the
        matrix takes the first constant."""
        filler = self.terms_up_to(1)[0]
        return tuple(bindings.get(v, filler) for v in self.existential_vars)

    def _instance(self, bindings: dict[str, Term]) -> Instance:
        combo = self.combo(bindings)
        return combo, _substitute_many(self.skolem_matrix, dict(zip(self.existential_vars, combo)))

    def full_term_vector(self, combo: Sequence[Term]) -> list[Term]:
        """Terms for all prefix positions: existential positions from the
        tuple, universal positions as the matching Skolem applications."""
        emap = dict(zip(self.existential_vars, combo))
        out: list[Optional[Term]] = [None] * len(self.prefix)
        for pos, (kind, var) in enumerate(self.prefix):
            if kind == "exists":
                out[pos] = emap[var]
        for pos, name, args in self.universal_terms:
            out[pos] = App(name, tuple(emap[v] for v in args))
        return [t for t in out if t is not None]


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write total as an ordered sum of `parts` positives."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _term_key(t: Term):
    return (term_size(t), print_term(t))


def _atom_key(a: Atom):
    return (sum(term_size(t) for t in a.args), a.pred,
            tuple(print_term(t) for t in a.args))


def _substitute_many(f: Formula, mapping: dict[str, Term]) -> Formula:
    out = f
    for var, t in mapping.items():
        out = substitute(out, var, t)
    return out


def _match_term(pattern: Term, actual: Term, bindings: dict[str, Term]) -> bool:
    """Whether actual is pattern under bindings, extended in place."""
    if isinstance(pattern, Var):
        bound = bindings.setdefault(pattern.name, actual)
        return bound is actual or bound == actual
    return (isinstance(actual, App) and pattern.name == actual.name
            and len(pattern.args) == len(actual.args)
            and all(_match_term(p, a, bindings) for p, a in zip(pattern.args, actual.args)))


def _match_atom(pattern: Atom, actual: Atom, bindings: dict[str, Term]) -> bool:
    return (pattern.pred == actual.pred and len(pattern.args) == len(actual.args)
            and all(_match_term(p, a, bindings) for p, a in zip(pattern.args, actual.args)))


def _match_all(pools: Sequence[tuple[Atom, Sequence[Atom]]],
               bindings: dict[str, Term]) -> Iterator[dict[str, Term]]:
    """Every extension of bindings that maps each pattern into its pool."""
    if not pools:
        yield bindings
        return
    pattern, pool = pools[0]
    for actual in pool:
        extended = dict(bindings)
        if _match_atom(pattern, actual, extended):
            yield from _match_all(pools[1:], extended)


# ---------------------------------------------------------------------------
# Closing a branch


def compile_instances(instances: Sequence[Instance],
                      index: dict[Atom, int]) -> list[tuple[Instance, RankProgram]]:
    """Each instance with its matrix compiled to a rank program that reads
    the rank of base atom a from slot index[a] of an order."""
    return [(inst, compile_prop(inst[1], index)) for inst in instances]


def closes(order: Order,
           programs: Sequence[tuple[Instance, RankProgram]]) -> Optional[Instance]:
    """First instance whose matrix gets the top rank at the order's rank
    vector; by order-invariance this settles every interpretation that
    fulfills the order."""
    top = order[0]
    for inst, prog in programs:
        if prog(order, top) == top:
            return inst
    return None


# ---------------------------------------------------------------------------
# Certificates


def finite_bound(mode: str) -> Optional[int]:
    """The class bound n of the mode "finite:<n>" (n decimal digits, at
    least 2), or None for "uncountable"; any other mode raises ValueError."""
    if mode == "uncountable":
        return None
    kind, _, n = mode.partition(":")
    bound = whole_number(n) if kind == "finite" else None
    if bound is None:
        raise ValueError(
            f'"mode" must be "uncountable" or "finite:<n>" with n >= 2, not {mode!r}')
    return bound


@dataclass
class Certificate:
    formula: Formula
    mode: str                      # "uncountable" | "finite:<n>"
    disjuncts: tuple[Formula, ...]  # deduped, in tree order

    def to_json(self) -> dict:
        return {
            "schema": "goedel-workbench/1",
            "formula": print_formula(self.formula),
            "mode": self.mode,
            "disjuncts": [print_formula(d) for d in self.disjuncts],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def _get(obj: dict, key: str, kind: type, what: str):
    if key not in obj:
        raise CertificateFormatError(f'{what} needs "{key}"')
    return expect_json(obj[key], kind, f'"{key}"', CertificateFormatError)


def certificate_from_json(data: Union[str, dict]) -> Certificate:
    """A certificate from its JSON form; a document of the wrong shape
    raises CertificateFormatError.  Any other key, such as the "leaves"
    that older certificates carry, is ignored."""
    if isinstance(data, str):
        data = json.loads(data)
    expect_json(data, dict, "a certificate", CertificateFormatError)
    formula = parse(_get(data, "formula", str, "a certificate"))
    mode = _get(data, "mode", str, "a certificate")
    try:
        finite_bound(mode)
    except ValueError as e:
        raise CertificateFormatError(str(e)) from None
    disjuncts = tuple(parse(expect_json(d, str, "a disjunct", CertificateFormatError))
                      for d in _get(data, "disjuncts", list, "a certificate"))
    return Certificate(formula, mode, disjuncts)


def match_instance(problem: HerbrandProblem, ground: Formula) -> tuple[Term, ...]:
    """Recover the existential-variable terms that instantiate the Skolem
    matrix to the given ground formula."""
    bindings: dict[str, Term] = {}

    def go(pattern: Formula, actual: Formula) -> bool:
        if type(pattern) is not type(actual):
            return False
        if isinstance(pattern, Atom):
            return _match_atom(pattern, actual, bindings)
        if isinstance(pattern, Bot):
            return True
        if isinstance(pattern, (And, Or, Imp)):
            return go(pattern.left, actual.left) and go(pattern.right, actual.right)
        raise HerbrandError("Skolem matrix must be quantifier-free")

    if not go(problem.skolem_matrix, ground):
        raise TraceConstructionError(
            f"{print_formula(ground)} is not an instance of the Herbrand matrix")
    return problem.combo(bindings)


# ---------------------------------------------------------------------------
# The semantic-tree prover


@dataclass
class ProveResult:
    status: str                    # "valid" | "unknown" | "invalid"
    certificate: Optional[Certificate] = None
    level_reached: Optional[int] = None
    problem: Optional[HerbrandProblem] = None
    # for "unknown" and "invalid": the open branch's order, under which
    # every instance up to level_reached stays below 1
    open_order: Optional[Constraint] = None


def prove_prenex(f: Formula, mode: str = "uncountable", max_level: int = 8,
                 node_budget: int = NODE_BUDGET) -> ProveResult:
    """Depth-first semantic tree for a closed prenex formula.

    mode is "uncountable" or "finite:<n>".  A closed tree yields a
    certificate ("valid").  The walk stops at the first branch still open
    at max_level ("unknown"), or at the last level of a finite Herbrand
    base, where the open order is a countermodel ("invalid"); both
    report that order.  node_budget caps the nodes the walk visits.
    """
    problem = HerbrandProblem(f)
    n_adm = finite_bound(mode)
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    last = problem.base_length
    stop, open_status = ((last, "invalid") if last is not None and last <= max_level
                         else (max_level, "unknown"))

    closed: list = []  # (level, instance) of each closed branch, in visit order
    index: dict[Atom, int] = {}  # base atom -> its slot in the orders
    names: list[str] = []  # the base atoms' names, by slot
    # levels[L]: the instances new at L, compiled when the walk first gets there
    levels = [compile_instances(problem.new_instances(0), index)]
    stack: list[Order] = []  # open nodes not yet extended; an order's level is len - 1
    level, batch = 0, [ROOT]  # the children of one parent, all at one level
    nodes = 0
    while True:
        nodes += len(batch)
        if nodes > node_budget:
            raise BudgetError(
                f"semantic tree exceeded the budget of {node_budget} nodes: "
                f"{nodes} nodes counted, deepest level {len(levels) - 1}")
        # an open parent left every older instance below top, and the
        # child's order keeps that, so only the level's new ones can close
        programs = levels[level]
        still_open = batch
        if programs:
            still_open = []
            for order in batch:
                hit = closes(order, programs)
                if hit is not None:
                    closed.append((level, hit))
                else:
                    still_open.append(order)
        if still_open:
            if level == stop:
                return ProveResult(open_status, None, level, problem,
                                   classes(still_open[0], names))
            still_open.reverse()  # the first child is extended first
            stack.extend(still_open)
        if not stack:
            break
        parent = stack.pop()
        level = len(parent)
        if level == len(levels):
            try:
                next_atom = problem.base(level)[-1]
                index[next_atom] = level
                names.append(print_raw(next_atom))
                levels.append(compile_instances(problem.new_instances(level), index))
            except RecursionError:
                # a deep walk grows terms past what the recursive term code takes
                raise BudgetError(
                    f"Herbrand base atom {level} is nested too deeply") from None
        batch = extend(parent, n_adm)
    # depth first visits each level's nodes in breadth-first order
    closed.sort(key=lambda branch: branch[0])
    level = closed[-1][0]
    return ProveResult("valid", _certificate(problem, mode, closed), level, problem)


def _certificate(problem: HerbrandProblem, mode: str, closed: list) -> Certificate:
    """The certificate of a closed tree: the instances of closed,
    deduplicated by their text in tree order.  Branches that closed on
    one instance share its formula object, so each instance is printed
    once."""
    # the instances already printed, by id; holding them keeps their ids unique
    printed: dict[int, Formula] = {}
    seen: set[str] = set()
    disjuncts: list[Formula] = []
    for _, (_, ground) in closed:
        if id(ground) in printed:
            continue
        printed[id(ground)] = ground
        text = print_formula(ground)
        if text not in seen:
            seen.add(text)
            disjuncts.append(ground)
    return Certificate(problem.original, mode, tuple(disjuncts))


def verify_certificate(cert: Certificate, budget: int = BUDGET) -> bool:
    """Check that every disjunct is a ground instance of the formula's
    Herbrand matrix, then the Herbrand disjunction propositionally,
    independently of the tree that produced it: LC for uncountable mode,
    G_n for finite mode.  A formula that is open or not prenex raises
    NotPrenexError."""
    problem = HerbrandProblem(cert.formula)
    try:
        for d in cert.disjuncts:
            match_instance(problem, d)
    except TraceConstructionError:
        return False
    if not cert.disjuncts:
        return False
    disjunction: Formula = cert.disjuncts[0]
    for d in cert.disjuncts[1:]:
        disjunction = Or(disjunction, d)
    n = finite_bound(cert.mode)
    if n is None:
        return decide_LC(disjunction, budget).valid
    return decide_Gm(disjunction, n, budget).valid


# ---------------------------------------------------------------------------
# Reassembly: from the Herbrand disjunction back to the prenex formula


@dataclass(frozen=True)
class TraceStep:
    kind: str            # "start" | "deskolem" | "rule"
    formula: Formula
    rule: Optional[int] = None
    term: Optional[Term] = None
    var: Optional[str] = None

    def describe(self) -> str:
        if self.kind == "start":
            return f"start        {print_raw(self.formula)}"
        if self.kind == "deskolem":
            return (f"deskolem {print_term(self.term)} -> {self.var}:  "
                    f"{print_raw(self.formula)}")
        return f"rule ({self.rule})     {print_raw(self.formula)}"


@dataclass
class Trace:
    steps: tuple[TraceStep, ...]

    @property
    def final(self) -> Formula:
        return self.steps[-1].formula

    def describe(self) -> str:
        return "\n".join(s.describe() for s in self.steps)


def _or_fold(parts: Sequence[Formula]) -> Formula:
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Or(p, out)
    return out


def _replace_term(x, old: Term, new: Term):
    """The term or formula x with every occurrence of the term old
    replaced by new."""
    if x == old:
        return new
    if isinstance(x, App):
        return App(x.name, tuple(_replace_term(a, old, new) for a in x.args))
    if isinstance(x, Atom):
        return Atom(x.pred, tuple(_replace_term(t, old, new) for t in x.args))
    if isinstance(x, (And, Or, Imp)):
        return type(x)(_replace_term(x.left, old, new), _replace_term(x.right, old, new))
    if isinstance(x, (Forall, Exists)):
        return type(x)(x.var, _replace_term(x.body, old, new))
    return x  # a variable other than old, or bot


def reassemble(cert: Certificate, f: Optional[Formula] = None) -> Trace:
    """A rule trace transforming the certificate's disjunction into the
    prenex formula, using only commutation/association (1)-(2),
    contraction (3), quantifier introduction (4)-(5) and the
    disjunction shifts (6)-(7); Skolem terms are first replaced by fresh
    eigenvariables, outermost terms first.

    The trace starts from the disjuncts in dependency order (largest
    embedded Skolem term first) so each universal introduction is legal
    when its turn comes; the start formula's disjunct multiset equals the
    certificate's.
    """
    target = normalize(cert.formula if f is None else f)
    if f is not None and not alpha_eq(target, cert.formula):
        raise TraceConstructionError("certificate does not belong to this formula")
    problem = HerbrandProblem(target)
    items = [{"ground": ground,
              "vector": problem.full_term_vector(match_instance(problem, ground))}
             for ground in cert.disjuncts]

    skolem_names = {name for name, _ in problem.skolem_symbols}

    def skolem_weight(item) -> int:
        heaviest = 0
        for t in item["vector"]:
            for sub in _subterms(t):
                if isinstance(sub, App) and sub.name in skolem_names:
                    heaviest = max(heaviest, term_size(sub))
        return heaviest

    items.sort(key=lambda it: (-skolem_weight(it), print_formula(it["ground"])))

    steps: list[TraceStep] = []
    cur = _or_fold([it["ground"] for it in items])
    steps.append(TraceStep("start", cur))

    def emit(rule: int, formula: Formula, term: Optional[Term] = None,
             var: Optional[str] = None) -> None:
        nonlocal cur
        cur = formula
        steps.append(TraceStep("rule", formula, rule=rule, term=term, var=var))

    # deskolemize, outermost (largest) terms first
    sk_terms: dict[str, Term] = {}
    for it in items:
        for t in it["vector"]:
            for sub in _subterms(t):
                if isinstance(sub, App) and sub.name in skolem_names:
                    sk_terms.setdefault(print_term(sub), sub)
    fresh_i = 0

    def fresh_var() -> str:
        nonlocal fresh_i
        fresh_i += 1
        return f"y{fresh_i}"

    for key in sorted(sk_terms, key=lambda k: (-term_size(sk_terms[k]), k)):
        old = sk_terms[key]
        var = fresh_var()
        new_cur = _replace_term(cur, old, Var(var))
        cur = new_cur
        steps.append(TraceStep("deskolem", cur, term=old, var=var))
        for it in items:
            it["vector"] = [_replace_term(t, old, Var(var)) for t in it["vector"]]
            it["ground"] = _replace_term(it["ground"], old, Var(var))

    prefix, _ = prefix_and_matrix(target)
    n = len(prefix)

    def partial_target(j: int, vector: Sequence[Term]) -> Formula:
        """Q_{j+1}..Q_n-quantified body with positions <= j instantiated."""
        g: Formula = target
        body_vars = []
        for _, var in prefix:
            body_vars.append(var)
            g = g.body  # type: ignore[union-attr]
        for pos in range(j):
            g = substitute(g, body_vars[pos], vector[pos])
        rebuilt = g
        for pos in range(len(prefix) - 1, j - 1, -1):
            kind, var = prefix[pos]
            rebuilt = (Forall if kind == "forall" else Exists)(var, rebuilt)
        return rebuilt

    grounds = [it["ground"] for it in items]
    vectors = [it["vector"] for it in items]
    m = len(items)

    def rest_tree(index: int, with_target: bool) -> Optional[Formula]:
        """The untouched context to the right of item `index`."""
        tail = grounds[index + 1:]
        if not tail:
            return target if with_target else None
        folded = _or_fold(tail)
        return Or(folded, target) if with_target else folded

    have_target_copy = False
    for index in range(m):
        rest = rest_tree(index, have_target_copy)
        vector = vectors[index]
        for j in range(n, 0, -1):
            kind, _ = prefix[j - 1]
            t_j = vector[j - 1]
            goal = partial_target(j - 1, vector)
            inner = goal.body  # type: ignore[union-attr]
            if kind == "forall":
                if not isinstance(t_j, Var):
                    raise TraceConstructionError(
                        f"universal position {j} still holds the term {print_term(t_j)}")
                if rest is not None and any(s == t_j for s in _subterms_of_formula(rest)):
                    raise TraceConstructionError(
                        f"eigenvariable {t_j.name} occurs outside its disjunct")
                if rest is None:
                    emit(4, goal, var=t_j.name)
                else:
                    emit(4, Forall(goal.var, Or(inner, rest)), var=t_j.name)  # type: ignore[union-attr]
                    emit(6, Or(goal, rest))
            else:
                if rest is None:
                    emit(5, goal, term=t_j)
                else:
                    emit(5, Exists(goal.var, Or(inner, rest)), term=t_j)  # type: ignore[union-attr]
                    emit(7, Or(goal, rest))
        # the item is now the target; shuffle it to the back and contract
        if rest is None:
            have_target_copy = True
            continue
        emit(1, Or(rest, target))
        remaining = m - index - 1
        if have_target_copy:
            if remaining == 0:
                emit(3, target)  # target | target, contracted directly
            else:
                tail = _or_fold(grounds[index + 1:])
                emit(2, Or(tail, Or(target, target)))
                emit(3, Or(tail, target))
        if remaining >= 2:
            emit(2, Or(grounds[index + 1], Or(_or_fold(grounds[index + 2:]), target)))
        have_target_copy = True

    if not alpha_eq(cur, target):
        raise TraceConstructionError("trace did not reach the target formula")
    return Trace(tuple(steps))


def verify_trace(trace: Trace, cert: Certificate) -> bool:
    """Check every step of a reassembly trace syntactically.

    The start formula must carry the certificate's disjunct multiset;
    each deskolemization must replace every occurrence of a Skolem-headed
    ground term by a fresh variable; each rule step must match its schema.
    """
    target = cert.formula
    problem = HerbrandProblem(target)
    skolem_names = {name for name, _ in problem.skolem_symbols}
    steps = trace.steps
    if not steps or steps[0].kind != "start":
        return False

    # peel exactly len(disjuncts) parts off the right-assoc spine; the
    # matrix itself may contain top-level disjunctions, so a full flatten
    # would over-split
    leaves: list[Formula] = []
    cur: Formula = steps[0].formula
    for _ in range(len(cert.disjuncts) - 1):
        if not isinstance(cur, Or):
            return False
        leaves.append(cur.left)
        cur = cur.right
    leaves.append(cur)
    start_leaves = sorted(print_formula(x) for x in leaves)
    cert_leaves = sorted(print_formula(x) for x in cert.disjuncts)
    if start_leaves != cert_leaves:
        return False

    prev = steps[0].formula
    for step in steps[1:]:
        if step.kind == "deskolem":
            t, v = step.term, step.var
            if t is None or v is None or not isinstance(t, App) or t.name not in skolem_names:
                return False
            if Var(v) in _subterms_of_formula(prev) or v in free_vars(prev):
                return False
            if any(s == t for s in _subterms_of_formula(step.formula)):
                return False  # a Skolem occurrence survived
            restored = _replace_term(step.formula, Var(v), t)
            if restored != prev and not alpha_eq(restored, prev):
                return False
            prev = step.formula
            continue
        if step.kind != "rule":
            return False
        if not _check_rule_step(step.rule, prev, step.formula, step.term, step.var):
            return False
        prev = step.formula
    return alpha_eq(prev, cert.formula)


def _subterms_of_formula(f: Formula):
    if isinstance(f, Atom):
        for t in f.args:
            yield from _subterms(t)
    elif isinstance(f, (And, Or, Imp)):
        yield from _subterms_of_formula(f.left)
        yield from _subterms_of_formula(f.right)
    elif isinstance(f, (Forall, Exists)):
        yield from _subterms_of_formula(f.body)


def _check_rule_step(rule: Optional[int], prev: Formula, new: Formula,
                     term: Optional[Term], var: Optional[str]) -> bool:
    if rule == 1:
        return isinstance(prev, Or) and alpha_eq(new, Or(prev.right, prev.left))
    if rule == 2:
        return (isinstance(prev, Or) and isinstance(prev.left, Or)
                and alpha_eq(new, Or(prev.left.left, Or(prev.left.right, prev.right))))
    if rule == 3:
        if isinstance(prev, Or) and isinstance(prev.right, Or) \
                and alpha_eq(prev.right.left, prev.right.right) \
                and alpha_eq(new, Or(prev.left, prev.right.left)):
            return True
        return (isinstance(prev, Or) and alpha_eq(prev.left, prev.right)
                and alpha_eq(new, prev.left))
    if rule == 4:
        if not isinstance(new, Forall) or var is None:
            return False
        if var in free_vars(new):
            return False
        return alpha_eq(substitute(new.body, new.var, Var(var)), prev)
    if rule == 5:
        if not isinstance(new, Exists) or term is None:
            return False
        return alpha_eq(substitute(new.body, new.var, term), prev)
    if rule == 6:
        return (isinstance(prev, Forall) and isinstance(prev.body, Or)
                and isinstance(new, Or)
                and prev.var not in free_vars(prev.body.right)
                and alpha_eq(new, Or(Forall(prev.var, prev.body.left), prev.body.right)))
    if rule == 7:
        return (isinstance(prev, Exists) and isinstance(prev.body, Or)
                and isinstance(new, Or)
                and prev.var not in free_vars(prev.body.right)
                and alpha_eq(new, Or(Exists(prev.var, prev.body.left), prev.body.right)))
    return False


def _subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from _subterms(a)
