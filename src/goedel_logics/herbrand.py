"""Herbrand forms, the prover, certificates and reassembly.

The prover handles closed prenex formulas.  Universal variables are
replaced by fresh function symbols applied to the preceding existential
variables, and the Herbrand base is enumerated as C_1, C_2, ....  By
the Herbrand theorem for prenex formulas, the formula is valid once, for
some level L, the disjunction of the ground instances of its matrix
whose atoms lie in C_1..C_L is valid: in LC for uncountable mode, and in
G_n for finite:n.  So each level is one call of
``decide.first_countermodel`` on that disjunction, with C_j at slot
j - 1 and m = n, or m = L + 2 in uncountable mode (LC is G_{L+2} over L
letters).  One budget is charged across the levels.

Each ground term and base atom is built once, with its size and text,
so base atoms are matched and looked up by identity, never compared or
printed through their nesting.  New instances are generated by matching
the matrix atoms against the base; their atoms are the base atoms
matched, and each is compiled once by ``decide.compile_prop`` when its
level is reached.  An instance new at level p + 1 contains C_{p+1} and
no later atom, so it reads no slot past p: the instances of the older
levels are the search's ready programs, which skip each prefix that
makes one of them top, with every point below it, as a semantic tree
closes a branch once an instance is top.  The goal of a level is the
disjunction of its new instances alone.

Each level resumes the search of the last.  A countermodel of level
L + 1 leaves every instance up to L below top, so its first L ranks,
with gaps closed (which only lowers them), are a countermodel of level
L, no earlier in product order than the one level L found.  So level
L + 1's walk starts at that countermodel, its top rank mapped to the
new top: the first countermodel, and so the answer, the certificate and
the open order, stay those of a walk from the first point, and a chain
that stays open is charged about L points at level L, not L^2/2.

No countermodel at level L answers "valid" at L, and the certificate is
the formula, the mode and the Herbrand disjunction: every instance up
to L, in level order.  A countermodel at the level bound answers
"unknown" with its order, under which every instance so far stays
below 1.  When no function symbol takes an argument, as in a
function-free forall*exists* formula, the Herbrand base is finite, and
a countermodel at its last atom answers "invalid".  The disjunction is
checked independently by the propositional decision procedures, and
the certificate can be reassembled into a rule trace deriving the
original formula.

A trace acts on a flat tuple of disjuncts, so commutation and
association, rules (1)-(2), are implicit.  After the start, each Skolem
term is replaced by a fresh eigenvariable, largest first.  Each later
step acts on the one disjunct at index `at`: (3) drops it when another
disjunct is equal to it, (5) introduces an existential, and (4) a
universal whose eigenvariable is free in no other disjunct.  When other
disjuncts are present, (4) and (5) stand for the rule applied to the
whole disjunction followed by the shift (6) or (7) onto the one disjunct.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from operator import eq, is_
from typing import Callable, Iterator, Optional, Sequence, Union

from .formula import (
    App, ArityConflictError, Atom, BOT, Bot, And, Or, Imp, Forall, Exists, Formula, GoedelError,
    ParseMemo, Term, Var, alpha_eq, balanced, expect_json, free_vars, fresh_name, normalize,
    prefix_and_matrix, print_formula, print_raw, print_term, subst_term, substitute, term_size,
    term_vars,
)
from .decide import (
    BUDGET, BudgetError, Constraint, RankProgram, classes, compile_prop, decide_Gm, decide_LC,
    first_countermodel, whole_number,
)


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
    ties broken lexicographically).  The universe holds the Herbrand form's
    function symbols alone (and c0 when none is a constant).

    The formula is read in one pass over its prefix and one walk of its
    matrix, which renames the binders as ``normalize`` does, checks that
    the formula is closed and prenex, and collects its signature; the
    Skolem matrix is then one substitution.  Each ground term and base
    atom is built once, from terms built before, with its size and text
    kept beside it, so two ground terms are equal only when they are one
    object, and sorting and naming them prints nothing."""

    def __init__(self, original: Formula):
        prefix, matrix = prefix_and_matrix(original)
        # binders are numbered as normalize numbers them; the last of equal names binds
        env = {var: Var(f"x{i}") for i, (_, var) in enumerate(prefix, 1)}
        self.prefix = tuple((kind, f"x{i}") for i, (kind, _) in enumerate(prefix, 1))
        preds: dict[str, int] = {}
        funcs: dict[str, int] = {}
        conflicts: list[ArityConflictError] = []
        free: list[str] = []  # the free variables met
        used_vars: set[str] = set()  # the renamed variables the matrix reads

        def note(table: dict[str, int], name: str, arity: int, kind: str) -> None:
            old = table.setdefault(name, arity)
            if old != arity:
                conflicts.append(ArityConflictError(
                    f"{kind} symbol {name} used with arities {old} and {arity}"))

        def term(t: Term) -> Term:
            if type(t) is Var:
                v = env.get(t.name)
                if v is None:
                    free.append(t.name)
                    return t
                used_vars.add(v.name)
                return v
            note(funcs, t.name, len(t.args), "function")
            return App(t.name, tuple([term(a) for a in t.args])) if t.args else t

        def rename(a: Atom) -> Atom:
            note(preds, a.pred, len(a.args), "predicate")
            return Atom(a.pred, tuple([term(t) for t in a.args])) if a.args else a

        try:
            self.matrix = _map_atoms(matrix, rename)
        except NotPrenexError:
            if free_vars(original):
                raise NotPrenexError("formula must be closed") from None
            raise NotPrenexError(f"formula is not prenex: {print_formula(original)}") from None
        if free:
            raise NotPrenexError("formula must be closed")
        if conflicts:
            raise conflicts[0]
        # the prefix over the renamed matrix: normalize(original)
        body = self.matrix
        for kind, var in reversed(self.prefix):
            body = (Forall if kind == "forall" else Exists)(var, body)
        self.original = body

        used = set(funcs)

        def fresh(base: str) -> str:
            name = fresh_name(base, used)
            used.add(name)
            return name

        existentials: list[str] = []
        mapping: dict[str, Term] = {}
        skolem: list[tuple[str, int]] = []
        hu_funcs = dict(funcs)
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
                if var in used_vars:  # the Skolem term occurs in the Herbrand form
                    hu_funcs[name] = len(args)

        self.existential_vars = tuple(existentials)
        self.skolem_symbols = tuple(skolem)
        # one substitution; equal atoms are made one object, the first of
        # them kept in order: the patterns new_instances matches
        self._patterns: dict[Atom, Atom] = {}

        def skolemize(a: Atom) -> Atom:
            b = Atom(a.pred, tuple([subst_term(t, mapping) for t in a.args])) if a.args else a
            return self._patterns.setdefault(b, b)

        self.skolem_matrix = _map_atoms(self.matrix, skolemize)
        # the Herbrand form: the Skolem matrix under the existential prefix
        hform: Formula = self.skolem_matrix
        for var in reversed(existentials):
            hform = Exists(var, hform)
        self.existential_form = hform

        if not any(k == 0 for k in hu_funcs.values()):
            hu_funcs[fresh("c0")] = 0
        self.hu_functions = dict(sorted(hu_funcs.items()))
        self.predicates = dict(sorted(preds.items()))
        # the base is finite exactly when no function symbol takes an
        # argument: then a k-ary predicate has |constants|^k atoms
        self.base_length: Optional[int] = (
            None if any(hu_funcs.values()) else sum(len(hu_funcs) ** k for k in preds.values()))
        self._vars = {id(q): frozenset().union(*map(term_vars, q.args)) for q in self._patterns}
        self._terms_by_size: list[list[Term]] = [[]]  # index = size
        # each ground term built: by its symbol and argument ids, and its
        # (size, text) by its id
        self._term_of: dict[tuple[str, tuple[int, ...]], App] = {}
        self._key: dict[int, tuple[int, str]] = {}
        self._base: list[Atom] = []
        self._at: dict[tuple[str, tuple[int, ...]], int] = {}  # (pred, argument ids) -> slot
        self._names: list[str] = []  # the text of each base atom, as print_raw gives it
        self._base_size = 0  # last term-size block already enumerated

    # -- Herbrand universe / base enumeration

    def _grow_terms(self, size: int) -> None:
        key = self._key
        while len(self._terms_by_size) <= size:
            s = len(self._terms_by_size)
            terms: list[tuple[str, Term]] = []
            for name, arity in self.hu_functions.items():
                if arity == 0:
                    if s == 1:
                        terms.append((f"{name}()", App(name)))
                    continue
                for split in _compositions(s - 1, arity):
                    pools = [self._terms_by_size[part] for part in split]
                    for args in itertools.product(*pools):
                        text = f"{name}({','.join([key[id(a)][1] for a in args])})"
                        terms.append((text, App(name, args)))
            terms.sort(key=lambda e: e[0])
            for text, t in terms:
                key[id(t)] = (s, text)
                self._term_of[t.name, tuple(map(id, t.args))] = t
            self._terms_by_size.append([t for _, t in terms])

    def terms_up_to(self, size: int) -> list[Term]:
        self._grow_terms(size)
        out: list[Term] = []
        for s in range(1, size + 1):
            out.extend(self._terms_by_size[s])
        return out

    def base(self, count: int) -> list[Atom]:
        """C_1 .. C_count of the Herbrand base (non-repetitive), or the
        whole base when it is finite and shorter."""
        key = self._key
        while len(self._base) < count and len(self._base) != self.base_length:
            self._base_size += 1
            size = self._base_size
            # a finite base's atoms are no larger than its largest arity
            if self.base_length is not None and size > max([1, *self.predicates.values()]):
                raise RuntimeError(f"internal error: the Herbrand base ends at {len(self._base)} "
                                   f"atoms, not at base_length {self.base_length}")
            block: list[tuple[tuple, Atom]] = []
            for pred, arity in self.predicates.items():
                if arity == 0:
                    if size == 1:
                        block.append(((pred, ()), Atom(pred)))
                    continue
                for split in _compositions(size, arity):
                    self._grow_terms(max(split))
                    pools = [self._terms_by_size[part] for part in split]
                    for args in itertools.product(*pools):
                        block.append(((pred, tuple([key[id(t)][1] for t in args])),
                                      Atom(pred, args)))
            block.sort(key=lambda e: e[0])
            for (pred, texts), atom in block:
                self._at[pred, tuple(map(id, atom.args))] = len(self._base)
                self._base.append(atom)
                self._names.append(f"{pred}({','.join(texts)})" if texts else pred)
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
        older base atoms and later ones any, so no tuple comes twice.  The
        atoms of an instance are the base atoms they matched."""
        patterns = list(self._patterns)
        if level == 0:
            return [] if patterns else [self._instance({}, {})]
        if len(self.base(level)) < level:
            return []  # the level lies beyond a finite base
        last = self._base[level - 1]
        found: list[tuple[dict[str, Term], dict[int, Atom]]] = []
        for j, pattern in enumerate(patterns):
            bound: dict[str, Term] = {}
            if _match_atom(pattern, last, bound, is_):
                pools = [(q, level - 1 if i < j else level)
                         for i, q in enumerate(patterns) if i != j]
                found.extend(self._match_all(pools, bound, {id(pattern): last}))
        out = [self._instance(*b) for b in found]
        key = self._key
        out.sort(key=lambda inst: [key[id(t)] for t in inst[0]])
        return out

    def _match_all(self, pools: Sequence[tuple[Atom, int]], bindings: dict[str, Term],
                   chosen: dict[int, Atom]) -> Iterator[tuple[dict[str, Term], dict[int, Atom]]]:
        """Every extension of bindings that maps each pattern to a base atom
        before its slot limit, with the atom chosen for each pattern's id.
        A pattern whose variables are all bound is looked up by its
        argument ids; any other is matched against the base atoms, by
        identity."""
        if not pools:
            yield bindings, chosen
            return
        (pattern, limit), rest = pools[0], pools[1:]
        if self._vars[id(pattern)] <= bindings.keys():
            slot = self._at.get((pattern.pred, tuple([id(self._term_for(t, bindings))
                                                      for t in pattern.args])))
            if slot is not None and slot < limit:
                yield from self._match_all(rest, bindings,
                                           {**chosen, id(pattern): self._base[slot]})
            return
        for actual in self._base[:limit]:
            extended = dict(bindings)
            if _match_atom(pattern, actual, extended, is_):
                yield from self._match_all(rest, extended, {**chosen, id(pattern): actual})

    def _term_for(self, t: Term, bindings: dict[str, Term]) -> Optional[Term]:
        """The ground term built for t under bindings that bind all its
        variables, or None when none is built."""
        if type(t) is Var:
            return bindings[t.name]
        args = [self._term_for(a, bindings) for a in t.args]
        return self._term_of.get((t.name, tuple(map(id, args))))

    def combo(self, bindings: dict[str, Term]) -> tuple[Term, ...]:
        """The existential terms of bindings; a variable absent from the
        matrix takes the first constant."""
        filler = self.terms_up_to(1)[0]
        return tuple(bindings.get(v, filler) for v in self.existential_vars)

    def _instance(self, bindings: dict[str, Term], chosen: dict[int, Atom]) -> Instance:
        return self.combo(bindings), _map_atoms(self.skolem_matrix, lambda a: chosen[id(a)])

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


def _map_atoms(f: Formula, put: Callable[[Atom], Atom]) -> Formula:
    """The quantifier-free f with each atom a replaced by put(a), left to
    right; a quantifier raises NotPrenexError."""
    kind = type(f)
    if kind is Atom:
        return put(f)
    if kind is Bot:
        return f
    if kind is Forall or kind is Exists:
        raise NotPrenexError("a quantifier in the matrix")
    return kind(_map_atoms(f.left, put), _map_atoms(f.right, put))


def _match_term(pattern: Term, actual: Term, bindings: dict[str, Term], same) -> bool:
    """Whether actual is pattern under bindings, extended in place; a
    variable met twice must take terms that are the same(...)."""
    if isinstance(pattern, Var):
        return same(bindings.setdefault(pattern.name, actual), actual)
    return (isinstance(actual, App) and pattern.name == actual.name
            and len(pattern.args) == len(actual.args)
            and all(_match_term(p, a, bindings, same) for p, a in zip(pattern.args, actual.args)))


def _match_atom(pattern: Atom, actual: Atom, bindings: dict[str, Term], same) -> bool:
    return (pattern.pred == actual.pred and len(pattern.args) == len(actual.args)
            and all(_match_term(p, a, bindings, same) for p, a in zip(pattern.args, actual.args)))


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
    disjuncts: tuple[Formula, ...]  # the instances up to a level, in level order

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
    # the disjuncts repeat their terms and atoms, so they share one table
    parse = ParseMemo().parse
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
    matrix to the given ground formula; a formula that is no instance, or
    not a ground one, raises TraceConstructionError."""
    bindings: dict[str, Term] = {}

    def go(pattern: Formula, actual: Formula) -> bool:
        if type(pattern) is not type(actual):
            return False
        if isinstance(pattern, Atom):
            return _match_atom(pattern, actual, bindings, eq)
        if isinstance(pattern, Bot):
            return True
        if isinstance(pattern, (And, Or, Imp)):
            return go(pattern.left, actual.left) and go(pattern.right, actual.right)
        raise HerbrandError("Skolem matrix must be quantifier-free")

    if not go(problem.skolem_matrix, ground) or any(map(term_vars, bindings.values())):
        raise TraceConstructionError(
            f"{print_formula(ground)} is not a ground instance of the Herbrand matrix")
    return problem.combo(bindings)


# ---------------------------------------------------------------------------
# The prover


@dataclass
class ProveResult:
    status: str                    # "valid" | "unknown" | "invalid"
    certificate: Optional[Certificate] = None
    level_reached: Optional[int] = None
    problem: Optional[HerbrandProblem] = None
    # for "unknown" and "invalid": the countermodel's order, under which
    # every instance up to level_reached stays below 1
    open_order: Optional[Constraint] = None


def prove_prenex(f: Formula, mode: str = "uncountable", max_level: int = 8,
                 budget: int = BUDGET) -> ProveResult:
    """One propositional search per level for a closed prenex formula.

    mode is "uncountable" or "finite:<n>".  Level L searches for a
    countermodel of the disjunction of every instance up to L.  The first
    level without one answers "valid", with those instances as the
    certificate.  A countermodel at max_level answers "unknown", and one
    at the last level of a finite Herbrand base "invalid"; both report its
    order.  The levels charge their points to one budget, and each level's
    search resumes at the last level's countermodel.  The problem builds
    each base term once and the walk keeps its own stack, so no level
    recurses through deep terms or once per letter.
    """
    problem = HerbrandProblem(f)
    n_adm = finite_bound(mode)
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    last = problem.base_length
    stop, open_status = ((last, "invalid") if last is not None and last <= max_level
                         else (max_level, "unknown"))

    slots = _Slots()
    grounds: list[Formula] = []  # every instance so far, in level order
    ready: list[RankProgram] = []  # ready[p]: the | of the instances new at level p + 1
    spent = 0
    start: tuple[int, ...] = ()  # where the level's walk resumes
    for level in range(stop + 1):
        m = level + 2 if n_adm is None else n_adm
        if level:
            slots.by_id[id(problem.base(level)[-1])] = level - 1
        new = [ground for _, ground in problem.new_instances(level)]
        # a level without new instances has the goal bot
        goal = compile_prop(balanced(Or, new) if new else BOT, slots)
        grounds += new
        ranks, spent = first_countermodel(goal, m, level, ready, budget, spent,
                                          f"Herbrand level {level}", start=start)
        if ranks is None:
            cert = Certificate(problem.original, mode, tuple(grounds))
            return ProveResult("valid", cert, level, problem)
        if level == stop:
            return ProveResult(open_status, None, level, problem,
                               classes((m - 1, *ranks), problem._names[:level]))
        if level:
            # the instances of level 0 read no slot: a countermodel leaves them below top
            ready.append(goal)
        # a countermodel of the next level falsifies every instance up to
        # this one, so its first ranks, with gaps closed, are one of this
        # level's and come no earlier than ranks: resume there, top mapped
        top = m if n_adm is None else m - 1
        start = tuple([top if r == m - 1 else r for r in ranks])


class _Slots:
    """The slots of the base atoms, looked up by identity: each base atom
    is built once, and hashing a deep one recurses through its terms."""

    def __init__(self) -> None:
        self.by_id: dict[int, int] = {}

    def __getitem__(self, atom: Atom) -> int:
        return self.by_id[id(atom)]


def _instances(problem: HerbrandProblem, disjuncts: Sequence[Formula]) -> bool:
    """Whether every disjunct is a ground instance of the Herbrand matrix."""
    try:
        for d in disjuncts:
            match_instance(problem, d)
    except TraceConstructionError:
        return False
    return True


def verify_certificate(cert: Certificate, budget: int = BUDGET) -> bool:
    """Check that every disjunct is a ground instance of the formula's
    Herbrand matrix, then the Herbrand disjunction propositionally,
    independently of the search that produced it: LC for uncountable mode,
    G_n for finite mode.  A formula that is open or not prenex raises
    NotPrenexError."""
    problem = HerbrandProblem(cert.formula)
    if not cert.disjuncts or not _instances(problem, cert.disjuncts):
        return False
    # joined as a balanced tree, so a long disjunction nests shallowly
    disjunction = balanced(Or, list(cert.disjuncts))
    n = finite_bound(cert.mode)
    if n is None:
        return decide_LC(disjunction, budget).valid
    return decide_Gm(disjunction, n, budget).valid


# ---------------------------------------------------------------------------
# Reassembly: from the Herbrand disjunction back to the prenex formula


@dataclass(frozen=True)
class TraceStep:
    """The disjuncts after one step; a rule step acts on the one at `at`."""
    kind: str                    # "start" | "deskolem" | "rule"
    parts: tuple[Formula, ...]
    at: Optional[int] = None
    rule: Optional[int] = None   # 3 contraction, 4 forall- or 5 exists-introduction
    term: Optional[Term] = None  # the Skolem term replaced, or the exists witness
    var: Optional[str] = None    # the variable put in, or the eigenvariable bound

    @property
    def formula(self) -> Formula:
        return balanced(Or, list(self.parts))

    def describe(self) -> str:
        text = " | ".join(f"[{print_raw(p)}]" for p in self.parts)
        if self.kind == "start":
            return f"start            {text}"
        if self.kind == "deskolem":
            return f"deskolem {print_term(self.term)} -> {self.var}:  {text}"
        # with other disjuncts beside it, (4) and (5) are followed by the
        # shift (6) or (7) that moves the quantifier onto the one disjunct
        shift = f"+({self.rule + 2})" if self.rule != 3 and len(self.parts) > 1 else "    "
        return f"rule ({self.rule}){shift} at {self.at}:  {text}"


@dataclass
class Trace:
    steps: tuple[TraceStep, ...]

    @property
    def final(self) -> Formula:
        return self.steps[-1].formula

    def describe(self) -> str:
        return "\n".join(s.describe() for s in self.steps)


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


def _subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from _subterms(a)


def reassemble(cert: Certificate, f: Optional[Formula] = None) -> Trace:
    """A rule trace from the certificate's disjuncts to the prenex formula.

    The disjuncts form a flat tuple, so commutation and association (1)-(2)
    are implicit.  Each Skolem term is first replaced by a fresh
    eigenvariable, largest first.  Then each step acts on one disjunct: it
    drops one equal to another (3), else introduces a pending existential
    (5), else a pending universal (4) whose eigenvariable occurs in no
    other disjunct.  Once equal disjuncts are dropped and no existential
    is pending, the pending universal with the largest (Skolem-term size,
    prefix position) is such a one, so the loop never gets stuck.
    """
    target = normalize(cert.formula if f is None else f)
    if f is not None and not alpha_eq(target, cert.formula):
        raise TraceConstructionError("certificate does not belong to this formula")
    if not cert.disjuncts:
        raise TraceConstructionError("certificate has no disjuncts")
    problem = HerbrandProblem(target)
    prefix = problem.prefix
    skolem_names = {name for name, _ in problem.skolem_symbols}
    vectors = [problem.full_term_vector(match_instance(problem, g)) for g in cert.disjuncts]
    parts = tuple(cert.disjuncts)
    steps = [TraceStep("start", parts)]
    skolem = {s for vector in vectors for t in vector for s in _subterms(t)
              if isinstance(s, App) and s.name in skolem_names}
    for i, old in enumerate(sorted(skolem, key=lambda s: (-term_size(s), print_term(s))), 1):
        new = Var(f"y{i}")
        parts = tuple(_replace_term(p, old, new) for p in parts)
        vectors = [[_replace_term(t, old, new) for t in vector] for vector in vectors]
        steps.append(TraceStep("deskolem", parts, term=old, var=new.name))

    # disjunct j is the formula with its first depth[j] quantifiers
    # instantiated by vectors[j]
    depth = [len(prefix)] * len(parts)
    while len(parts) > 1 or depth[0]:
        at = next((j for j in range(1, len(parts)) if parts[j] in parts[:j]), None)
        if at is not None:
            parts = parts[:at] + parts[at + 1:]
            del vectors[at], depth[at]
            steps.append(TraceStep("rule", parts, at, 3))
            continue
        ready = [j for j, d in enumerate(depth) if d and (
            prefix[d - 1][0] == "exists"
            or not any(vectors[j][d - 1].name in free_vars(p)
                       for k, p in enumerate(parts) if k != j))]
        if not ready:
            raise TraceConstructionError("no quantifier can be introduced")
        at = min(ready, key=lambda j: prefix[depth[j] - 1][0] == "forall")
        depth[at] -= 1
        g, t = target, vectors[at][depth[at]]
        for s in vectors[at][:depth[at]]:
            g = substitute(g.body, g.var, s)  # type: ignore[union-attr]
        parts = parts[:at] + (g,) + parts[at + 1:]
        steps.append(TraceStep("rule", parts, at, 5, term=t) if isinstance(g, Exists)
                     else TraceStep("rule", parts, at, 4, var=t.name))
    return Trace(tuple(steps))


def verify_trace(trace: Trace, cert: Certificate) -> bool:
    """Check a reassembly trace step by step.

    The start holds the certificate's disjuncts, each an instance of the
    Herbrand matrix.  Each deskolemization, all before the first rule
    step, replaces every occurrence of a Skolem-headed term by a variable
    that occurs in no disjunct.  A rule step changes only the disjunct at
    `at`: (3) drops it when another disjunct is alpha-equal to it, (5)
    binds a term of it existentially, and (4) binds a variable of it
    universally that is then free in no disjunct.  The trace must end at
    the formula alone.
    """
    problem = HerbrandProblem(cert.formula)
    skolem_names = {name for name, _ in problem.skolem_symbols}
    steps = trace.steps
    if (not steps or steps[0].kind != "start" or steps[0].parts != tuple(cert.disjuncts)
            or not _instances(problem, cert.disjuncts)):
        return False
    prev, ruled = steps[0].parts, False
    for step in steps[1:]:
        if step.kind == "deskolem":
            t, v = step.term, step.var
            ok = (not ruled and isinstance(t, App) and t.name in skolem_names
                  and isinstance(v, str) and not any(v in free_vars(p) for p in prev)
                  and step.parts == tuple(_replace_term(p, t, Var(v)) for p in prev))
        else:
            ruled = True
            ok = step.kind == "rule" and _rule_ok(step, prev)
        if not ok:
            return False
        prev = step.parts
    return len(prev) == 1 and alpha_eq(prev[0], cert.formula)


def _rule_ok(step: TraceStep, prev: tuple[Formula, ...]) -> bool:
    at, parts = step.at, step.parts
    if not isinstance(at, int) or not 0 <= at < len(prev):
        return False
    if step.rule == 3:
        return parts == prev[:at] + prev[at + 1:] and any(
            alpha_eq(prev[at], p) for j, p in enumerate(prev) if j != at)
    if len(parts) != len(prev) or parts[:at] + parts[at + 1:] != prev[:at] + prev[at + 1:]:
        return False
    q = parts[at]
    if step.rule == 4 and isinstance(q, Forall) and step.var is not None:
        return (alpha_eq(substitute(q.body, q.var, Var(step.var)), prev[at])
                and not any(step.var in free_vars(p) for p in parts))
    if step.rule == 5 and isinstance(q, Exists) and step.term is not None:
        return alpha_eq(substitute(q.body, q.var, step.term), prev[at])
    return False
