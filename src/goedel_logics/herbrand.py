"""Herbrand forms, semantic-tree proving, certificates and reassembly.

The prover handles closed prenex formulas.  Universal variables are
replaced by fresh function symbols applied to the preceding existential
variables; the tree then explores the pinned weak orders of growing
prefixes of the Herbrand base, grown by the propositional enumerator of
``decide`` (ROOT, extend, class_ranks).  Each level's ground instances
of the matrix are compiled once by ``decide.compile_prop``; a branch
closes once one of them has the top rank at the order's class ranks,
which by order-invariance settles the question for every interpretation
fulfilling the order.

Finite-valued mode prunes orders with more than n classes.  A closed
tree yields a certificate whose disjunction is checked independently by
the propositional decision procedures, and which can be reassembled
into a rule trace deriving the original formula.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .formula import (
    App, Atom, Bot, And, Or, Imp, Forall, Exists, Formula, Term, Var,
    alpha_eq, atoms, free_vars, is_prenex, normalize, parse, prefix_and_matrix,
    print_formula, print_raw, print_term, signature, substitute, term_size,
)
from .decide import (
    ROOT, Constraint, RankProgram, class_ranks, compile_prop, decide_Gm, decide_LC,
    extend,
)


class HerbrandError(Exception):
    pass


class NotPrenexError(HerbrandError):
    pass


class ResourceBudgetError(HerbrandError):
    pass


class TraceConstructionError(HerbrandError):
    pass


# ---------------------------------------------------------------------------
# Herbrand form


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
            name = base
            i = 1
            while name in used:
                name = f"{base}_{i}"
                i += 1
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
        """C_1 .. C_count of the Herbrand base (non-repetitive)."""
        while len(self._base) < count:
            self._base_size += 1
            size = self._base_size
            if size > 40:
                raise ResourceBudgetError("Herbrand base enumeration stalled")
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

    def instances(self, level: int) -> list[tuple[tuple[Term, ...], Formula]]:
        """The level-instances: ground substitutions of the existential
        variables whose atoms all lie in {C_1..C_level}, in tuple order."""
        allowed = {_atom_key(a): None for a in self.base(level)} if level else {}
        if not self.existential_vars:
            ground = self.skolem_matrix
            if all(_atom_key(a) in allowed for a in atoms(ground)):
                return [((), ground)]
            return []
        # size 1 keeps a candidate available for variables that do not
        # occur in the matrix
        max_size = 1
        for a in self.base(level):
            for t in a.args:
                max_size = max(max_size, term_size(t))
        candidates = self.terms_up_to(max_size)
        out = []
        for combo in itertools.product(candidates, repeat=len(self.existential_vars)):
            mapping = dict(zip(self.existential_vars, combo))
            ground = _substitute_many(self.skolem_matrix, mapping)
            if all(_atom_key(a) in allowed for a in atoms(ground)):
                out.append((combo, ground))
        return out

    def full_term_vector(self, combo: Sequence[Term]) -> list[Term]:
        """Terms for all prefix positions: existential positions from the
        tuple, universal positions as the matching Skolem applications."""
        emap = dict(zip(self.existential_vars, combo))
        out: list[Optional[Term]] = [None] * len(self.prefix)
        e_index = 0
        for pos, (kind, var) in enumerate(self.prefix):
            if kind == "exists":
                out[pos] = emap[var]
                e_index += 1
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


# ---------------------------------------------------------------------------
# Closing a branch


Instance = tuple[tuple[Term, ...], Formula]


def compile_instances(instances: Sequence[Instance],
                      atom_of: dict[str, Atom]) -> list[tuple[Instance, RankProgram]]:
    """Each instance with its matrix compiled to a rank program, keyed by
    the names in atom_of of the base atoms that the constraints order."""
    index = {atom: name for name, atom in atom_of.items()}
    return [(inst, compile_prop(inst[1], index)) for inst in instances]


def closes(c: Constraint,
           programs: Sequence[tuple[Instance, RankProgram]]) -> Optional[Instance]:
    """First instance whose matrix gets the top rank at the class ranks
    of c; by order-invariance this settles every interpretation that
    fulfills the constraint."""
    ranks = class_ranks(c)
    top = len(c) - 1
    for inst, prog in programs:
        if prog(ranks, top) == top:
            return inst
    return None


# ---------------------------------------------------------------------------
# Certificates


@dataclass
class Leaf:
    level: int
    constraint: Constraint
    combo: tuple[Term, ...]
    instance: Formula


@dataclass
class Certificate:
    formula: Formula
    mode: str                      # "uncountable" | "finite:<n>"
    disjuncts: tuple[Formula, ...]  # deduped, in tree order
    combos: tuple[tuple[Term, ...], ...]  # matching the disjuncts
    leaves: tuple[Leaf, ...]

    def to_json(self) -> dict:
        return {
            "schema": "goedel-workbench/1",
            "formula": print_formula(self.formula),
            "mode": self.mode,
            "disjuncts": [print_formula(d) for d in self.disjuncts],
            "leaves": [{"level": leaf.level,
                        "order": [list(cls) for cls in leaf.constraint]}
                       for leaf in self.leaves],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def certificate_from_json(data: Union[str, dict]) -> Certificate:
    if isinstance(data, str):
        data = json.loads(data)
    formula = parse(data["formula"])
    problem = HerbrandProblem(formula)
    disjuncts = tuple(parse(d) for d in data["disjuncts"])
    combos = tuple(match_instance(problem, d) for d in disjuncts)
    leaves = tuple(
        Leaf(entry["level"], tuple(tuple(cls) for cls in entry["order"]), (), Bot())
        for entry in data.get("leaves", ()))
    return Certificate(formula, data["mode"], disjuncts, combos, leaves)


def match_instance(problem: HerbrandProblem, ground: Formula) -> tuple[Term, ...]:
    """Recover the existential-variable terms that instantiate the Skolem
    matrix to the given ground formula."""
    bindings: dict[str, Term] = {}

    def terms(pattern: Term, actual: Term) -> bool:
        if isinstance(pattern, Var):
            if pattern.name in bindings:
                return bindings[pattern.name] == actual
            bindings[pattern.name] = actual
            return True
        return (isinstance(actual, App) and pattern.name == actual.name
                and len(pattern.args) == len(actual.args)
                and all(terms(p, a) for p, a in zip(pattern.args, actual.args)))

    def go(pattern: Formula, actual: Formula) -> bool:
        if type(pattern) is not type(actual):
            return False
        if isinstance(pattern, Atom):
            return (pattern.pred == actual.pred
                    and len(pattern.args) == len(actual.args)
                    and all(terms(p, a) for p, a in zip(pattern.args, actual.args)))
        if isinstance(pattern, Bot):
            return True
        if isinstance(pattern, (And, Or, Imp)):
            return go(pattern.left, actual.left) and go(pattern.right, actual.right)
        raise HerbrandError("Skolem matrix must be quantifier-free")

    if not go(problem.skolem_matrix, ground):
        raise TraceConstructionError(
            f"{print_formula(ground)} is not an instance of the Herbrand matrix")
    filler = problem.terms_up_to(1)[0]  # for variables absent from the matrix
    return tuple(bindings.get(v, filler) for v in problem.existential_vars)


# ---------------------------------------------------------------------------
# The semantic-tree prover


@dataclass
class ProveResult:
    status: str                    # "valid" | "unknown"
    certificate: Optional[Certificate] = None
    level_reached: Optional[int] = None
    problem: Optional[HerbrandProblem] = None


NODE_BUDGET = 200_000


def prove_prenex(f: Formula, mode: str = "uncountable", max_level: int = 8,
                 node_budget: int = NODE_BUDGET) -> ProveResult:
    """Breadth-first semantic tree for a closed prenex formula.

    mode is "uncountable" or "finite:<n>".  A finite tree yields a
    certificate; hitting max_level with open branches yields "unknown".
    The procedure never reports invalidity (countermodels come from the
    semantics or decide modules).
    """
    problem = HerbrandProblem(f)
    n_adm: Optional[int] = None
    if mode.startswith("finite:"):
        n_adm = int(mode.split(":", 1)[1])
        if n_adm < 2:
            raise ValueError("finite mode needs n >= 2")
    elif mode != "uncountable":
        raise ValueError(f"unknown mode {mode!r}")

    leaves: list[Leaf] = []
    frontier: list[Constraint] = [ROOT]
    atom_of: dict[str, Atom] = {}  # the base atoms the constraints order
    nodes = 0
    for level in range(0, max_level + 1):
        programs = compile_instances(problem.instances(level), atom_of)
        still_open: list[Constraint] = []
        for c in frontier:
            nodes += 1
            if nodes > node_budget:
                raise ResourceBudgetError(
                    f"semantic tree exceeded the budget of {node_budget} nodes at level {level}")
            hit = closes(c, programs)
            if hit is not None:
                leaves.append(Leaf(level, c, hit[0], hit[1]))
            else:
                still_open.append(c)
        if not still_open:
            seen: dict[str, int] = {}
            disjuncts: list[Formula] = []
            combos: list[tuple[Term, ...]] = []
            for leaf in leaves:
                key = print_formula(leaf.instance)
                if key not in seen:
                    seen[key] = len(disjuncts)
                    disjuncts.append(leaf.instance)
                    combos.append(leaf.combo)
            cert = Certificate(problem.original, mode, tuple(disjuncts),
                               tuple(combos), tuple(leaves))
            return ProveResult("valid", cert, level, problem)
        if level == max_level:
            break
        next_atom = problem.base(level + 1)[level]
        name = print_raw(next_atom)
        atom_of[name] = next_atom
        frontier = [child for c in still_open
                    for child in extend(c, name, n_adm)]
    return ProveResult("unknown", None, max_level, problem)


def verify_certificate(cert: Certificate, budget: int = 10 ** 7) -> bool:
    """Check the Herbrand disjunction propositionally, independently of the
    tree that produced it: LC for uncountable mode, G_n for finite mode."""
    if not cert.disjuncts:
        return False
    disjunction: Formula = cert.disjuncts[0]
    for d in cert.disjuncts[1:]:
        disjunction = Or(disjunction, d)
    if cert.mode == "uncountable":
        return decide_LC(disjunction, budget).valid
    n = int(cert.mode.split(":", 1)[1])
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


def _contains_term(f: Formula, t: Term) -> bool:
    def in_term(s: Term) -> bool:
        if s == t:
            return True
        return isinstance(s, App) and any(in_term(a) for a in s.args)

    if isinstance(f, Atom):
        return any(in_term(s) for s in f.args)
    if isinstance(f, Bot):
        return False
    if isinstance(f, (And, Or, Imp)):
        return _contains_term(f.left, t) or _contains_term(f.right, t)
    return _contains_term(f.body, t)


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
    items = []
    for ground, combo in zip(cert.disjuncts, cert.combos):
        vector = problem.full_term_vector(combo)
        items.append({"ground": ground, "vector": list(vector)})

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
                if rest is not None and _contains_term(rest, t_j):
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
                    emit(2, Or(grounds[index + 1],
                               Or(_or_fold(grounds[index + 2:]), target)))
        else:
            if remaining >= 2:
                emit(2, Or(grounds[index + 1],
                           Or(_or_fold(grounds[index + 2:]), target)))
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
            if _contains_term(step.formula, t):
                return False  # a Skolem occurrence survived
            if _replace_term(step.formula, Var(v), t) != prev and \
                    not alpha_eq(_replace_term(step.formula, Var(v), t), prev):
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
