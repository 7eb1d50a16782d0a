"""Hilbert-style derivations and their checker for IL, H, H_n and H_0.

Every axiom and rule is written once, as the paper's formula, in one
schema table (``_TABLE``), parsed at import; FIN(n) alone is built by
``_fin``, from the bindings A1, A2, ... as it reads them, so a huge n
costs nothing.  An axiom is a schema without premises.  The checker
verifies user-supplied metavariable bindings instead of searching for a
schema match: every axiom or rule step carries explicit bindings, the
checker puts them in for the schema's metavariables (``_instance``) and
compares the cited steps and the step's formula with the premises and
conclusion so made, up to alpha-equivalence.  That keeps checking linear
and makes the proof files self-documenting.

A proof file repeats its subformulas: a binding such as ``A := P(x) ->
~P(x)`` comes back as a group in its step formula, in later steps and in
the rules that cite them.  ``parse_derivation`` parses all the formulas
of one file through one ``formula.ParseMemo``, whose interning table
makes all the occurrences of a part one AST, and hands that table to the
``Derivation``.  ``check`` builds each instance from the same table, so
an instance equal to its step formula is that formula's AST and
``alpha_eq`` ends at the root; only where binders were renamed does it
compare node by node.

Axiom lines that list two schemas in the source system are split into
separate names (I3a/I3b, I4a/I4b, I5a/I5b); this is an artifact naming
convention only.  Systems: IL is the intuitionistic base, H = IL + QS +
LIN, H_n = H + FIN(n), H_0 = H + ISO_0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .formula import (
    And, App, Atom, Bot, Exists, Forall, Formula, GoedelError, Imp, Neg, Or, Term, Top, Var,
    ParseMemo, alpha_eq, free_vars, parse, parse_term, print_formula, print_raw, print_term,
    substitute,
)
from .decide import BUDGET, whole_number
from .goedelset import GoedelSet
from . import semantics


class ProofError(GoedelError):
    pass


class BindingIncompleteError(ProofError):
    pass


class SideConditionError(ProofError):
    def __init__(self, message: str, variable: str):
        super().__init__(message)
        self.variable = variable


Bindings = Mapping[str, Union[Formula, Term, str]]


def _formula(bindings: Bindings, key: str) -> Formula:
    try:
        v = bindings[key]
    except KeyError:
        raise BindingIncompleteError(f"missing formula binding {key}") from None
    if not isinstance(v, (Atom, Bot, And, Or, Imp, Forall, Exists)):
        raise BindingIncompleteError(f"binding {key} is not a formula")
    return v


# a variable as the parser reads one: a lower-case name that is no keyword
_VARIABLE = re.compile(r"(?!(?:forall|exists|bot|top)\Z)[a-z_][A-Za-z0-9_]*")


def _variable(bindings: Bindings, key: str = "x") -> str:
    try:
        v = bindings[key]
    except KeyError:
        raise BindingIncompleteError(f"missing variable binding {key}") from None
    if isinstance(v, Var):
        return v.name
    if isinstance(v, str) and _VARIABLE.fullmatch(v):
        return v
    raise BindingIncompleteError(f"binding {key} is not a variable")


def _term(bindings: Bindings, key: str = "t") -> Term:
    try:
        v = bindings[key]
    except KeyError:
        raise BindingIncompleteError(f"missing term binding {key}") from None
    if isinstance(v, (Var, App)):
        return v
    raise BindingIncompleteError(f"binding {key} is not a term")


def _not_free(var: str, f: Formula, schema: str, slot: str) -> None:
    if var in free_vars(f):
        raise SideConditionError(
            f"{schema}: variable {var} must not be free in {slot}", var)


# --- the schemas -------------------------------------------------------------
#
# name: (premises, conclusion).  The metavariables are the formulas A, B,
# C, the variable x, the term t, and At, the formula A with t put in for
# x (the parser takes no predicate A at two arities in one text).

_TABLE = {
    "I1": (("A", "A -> B"), "B"),
    "I2": (("A -> B", "B -> C"), "A -> C"),
    "I3a": ((), "A | A -> A"),
    "I3b": ((), "A -> A & A"),
    "I4a": ((), "A -> A | B"),
    "I4b": ((), "A & B -> A"),
    "I5a": ((), "A | B -> B | A"),
    "I5b": ((), "A & B -> B & A"),
    "I6": (("A -> B",), "C | A -> C | B"),
    "I7": (("A & B -> C",), "A -> B -> C"),
    "I8": (("A -> B -> C",), "A & B -> C"),
    "I9": ((), "bot -> A"),
    "I10": (("B -> A",), "B -> forall x. A"),
    "I11": ((), "(forall x. A) -> At"),
    "I12": ((), "At -> exists x. A"),
    "I13": (("A -> B",), "(exists x. A) -> B"),
    "QS": ((), "(forall x. C | A) -> C | (forall x. A)"),
    "LIN": ((), "(A -> B) | (B -> A)"),
    "ISO_0": ((), "(forall x. ~~A) -> ~~(forall x. A)"),
}

# the metavariable in which x must not be free
_NOT_FREE = {"QS": "C", "I10": "B", "I13": "B"}


def _reads(f: Formula) -> Iterator[str]:
    """The metavariables of the schema formula f, left to right, with a
    quantifier's x after its body and At after the A, x and t it is made
    from: the order in which an instance reads its bindings."""
    kind = type(f)
    if kind is Atom:
        yield from ("A", "x", "t", "At") if f.pred == "At" else (f.pred,)
    elif kind is Forall or kind is Exists:
        yield from _reads(f.body)
        yield "x"
    elif kind is not Bot:
        yield from _reads(f.left)
        yield from _reads(f.right)


def _schema(name: str, premises: Sequence[str], conclusion: str):
    """(premises, conclusion, keys): the schema parsed, and the
    metavariables it reads, each once, in order, its side condition's last."""
    parsed = tuple(map(parse, premises)), parse(conclusion)
    reads = [k for f in (*parsed[0], parsed[1]) for k in _reads(f)]
    if name in _NOT_FREE:
        reads += ("x", _NOT_FREE[name])
    return (*parsed, tuple(dict.fromkeys(reads)))


_SCHEMAS = {name: _schema(name, *schema) for name, schema in _TABLE.items()}

_RULES = tuple(name for name, (premises, _) in _TABLE.items() if premises)
_IL_AXIOMS = ("I3a", "I3b", "I4a", "I4b", "I5a", "I5b", "I9", "I11", "I12")

_Instance = tuple[tuple[Formula, ...], Formula]


def _put(f: Formula, got: Mapping[str, Union[Formula, Term, str]], nodes: Mapping) -> Formula:
    """The schema formula f with the bindings got put in for its
    metavariables, each node taken from nodes (keyed as formula._Parser
    keys it) when the table has it; nodes is only read."""
    kind = type(f)
    if kind is Atom:
        return got[f.pred]
    if kind is Bot:
        return f
    if kind is Forall or kind is Exists:
        x, body = got["x"], _put(f.body, got, nodes)
        return nodes.get((kind, x, id(body))) or kind(x, body)
    left, right = _put(f.left, got, nodes), _put(f.right, got, nodes)
    return nodes.get((kind, id(left), id(right))) or kind(left, right)


def _instance(schema: str, b: Bindings, nodes: Mapping = {}) -> _Instance:
    """The premises and conclusion of the named schema for the bindings,
    built from nodes (see _put), its side condition enforced.  Each
    metavariable is read once, in schema order, so a missing one is named
    as it is met."""
    premises, conclusion, keys = _SCHEMAS[schema]
    got: dict[str, Union[Formula, Term, str]] = {}
    for key in keys:
        got[key] = (substitute(got["A"], got["x"], got["t"]) if key == "At"
                    else _variable(b) if key == "x" else _term(b) if key == "t"
                    else _formula(b, key))
    out = tuple([_put(p, got, nodes) for p in premises]), _put(conclusion, got, nodes)
    slot = _NOT_FREE.get(schema)
    if slot is not None:
        _not_free(got["x"], got[slot], schema, slot)
    return out


def _fin(n: int, b: Bindings, nodes: Mapping = {}) -> _Instance:
    """FIN(n) = (top -> A1) | (A1 -> A2) | ... | (A(n-1) -> bot), joined
    from the left as the bindings A1, A2, ... are read: a missing one
    stops it, so n may be far larger than any proof."""
    last = _formula(b, "A1")
    out: Formula = Imp(Top(), last)
    for i in range(2, n):
        a = _formula(b, f"A{i}")
        out, last = Or(out, Imp(last, a)), a
    return (), Or(out, Neg(last))


# --- systems ---------------------------------------------------------------


_IL = {name: partial(_instance, name) for name in _RULES + _IL_AXIOMS}
_H = dict(_IL, QS=partial(_instance, "QS"), LIN=partial(_instance, "LIN"))
_SYSTEMS = {"IL": _IL, "H": _H, "H0": dict(_H, ISO_0=partial(_instance, "ISO_0"))}


def _schemas(system: str) -> dict[str, Callable[..., _Instance]]:
    """The rules and the axioms of IL, H, H0 or H<n>, by name."""
    if system in _SYSTEMS:
        return _SYSTEMS[system]
    n = whole_number(system[1:]) if system.startswith("H") else None
    if n is None:
        raise ProofError(f"unknown system {system!r}")
    return dict(_H, FIN=partial(_fin, n))


def system_axioms(system: str) -> dict[str, Callable[[Bindings], Formula]]:
    """Axiom builders available in IL, H, H0 or H<n>: each maps bindings
    to its schema's instance."""
    return {name: (lambda b, schema=schema: schema(b)[1])
            for name, schema in _schemas(system).items() if name not in _RULES}


def match_axiom(name: str, candidate: Formula, bindings: Bindings,
                system: str = "H0") -> bool:
    """True iff instantiating the named schema with the bindings yields the
    candidate up to alpha-equivalence (side conditions enforced)."""
    builders = system_axioms(system)
    if name not in builders:
        raise ProofError(f"axiom {name} not available in {system}")
    return alpha_eq(builders[name](bindings), candidate)


# --- derivations -----------------------------------------------------------


@dataclass(frozen=True)
class Step:
    formula: Formula
    kind: str                                # "premise" | "axiom" | "rule"
    name: str = ""
    cites: tuple[int, ...] = ()              # 1-based step numbers
    bindings: tuple[tuple[str, object], ...] = ()

    def binding_map(self) -> dict[str, object]:
        return dict(self.bindings)


@dataclass
class Derivation:
    system: str
    premises: tuple[Formula, ...]
    steps: tuple[Step, ...]
    # the interning table the formulas were parsed through, which check
    # reads instances from; empty for a derivation built otherwise
    nodes: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def conclusion(self) -> Formula:
        return self.steps[-1].formula


@dataclass
class CheckResult:
    accepted: bool
    step: Optional[int] = None               # 1-based index of the offender
    reason: str = ""

    def __bool__(self) -> bool:
        return self.accepted


def check(d: Derivation) -> CheckResult:
    """Verify every step; rejections carry the step number and a reason.
    An axiom is a schema without premises, so an axiom step and a rule
    step are checked alike: the cites, each premise, the conclusion."""
    if not d.steps:
        return CheckResult(False, None, "empty derivation")
    try:
        schemas = _schemas(d.system)
    except ProofError as e:
        return CheckResult(False, None, str(e))
    for idx, step in enumerate(d.steps, start=1):
        if step.kind == "premise":
            if not any(alpha_eq(step.formula, p) for p in d.premises):
                return CheckResult(False, idx, "formula is not among the premises")
            continue
        if step.kind not in ("axiom", "rule"):
            return CheckResult(False, idx, f"unknown step kind {step.kind!r}")
        if step.name not in schemas or (step.name in _RULES) != (step.kind == "rule"):
            return CheckResult(False, idx, f"unknown rule {step.name}" if step.kind == "rule"
                               else f"axiom {step.name} not in system {d.system}")
        for c in step.cites:
            if not 1 <= c < idx:
                return CheckResult(False, idx, f"citation of step {c} violates ordering")
        try:
            premises, conclusion = schemas[step.name](step.binding_map(), d.nodes)
        except ProofError as e:
            return CheckResult(False, idx, str(e))
        if len(step.cites) != len(premises):
            return CheckResult(
                False, idx,
                f"{step.kind} {step.name} needs {len(premises)} premises, got {len(step.cites)}")
        for c, want in zip(step.cites, premises):
            have = d.steps[c - 1].formula
            if not alpha_eq(have, want):
                return CheckResult(
                    False, idx,
                    f"step {c} is {print_formula(have)}, rule wants {print_formula(want)}")
        if not alpha_eq(conclusion, step.formula):
            return CheckResult(
                False, idx,
                f"not an instance of {step.name}: expected {print_formula(conclusion)}")
    return CheckResult(True)


def soundness_sample(d: Derivation, V: GoedelSet, max_universe: int,
                     budget: int = BUDGET) -> semantics.EntailmentResult:
    """Meta-test: brute-force that the premises entail the conclusion at the
    given finite scale; a violation would indicate a checker bug."""
    result = check(d)
    if not result:
        raise ProofError(f"derivation not accepted: step {result.step}: {result.reason}")
    for p in d.premises:
        if free_vars(p):
            raise ProofError("soundness sampling requires closed premises")
    return semantics.entails_bruteforce(list(d.premises), d.conclusion, V, max_universe,
                                        budget)


# --- line-oriented proof files ---------------------------------------------
#
#   <n>. <formula> ; premise
#   <n>. <formula> ; axiom <NAME> [A := <formula>, x := y, t := c()]
#   <n>. <formula> ; rule <NAME> <i>,<j> [A := <formula>, ...]
#
# '#' starts a comment; a 'system: <tag>' header line selects the system.


_SYSTEM_LINE = re.compile(r"system\s*:\s*(\S+)")
_STEP_HEAD = re.compile(r"(\d+)\.\s*(.*)")
_AXIOM_JUST = re.compile(r"axiom\s+(\S+)\s*(\[.*\])?")
_RULE_JUST = re.compile(r"rule\s+(\S+)\s+([\d\s,]+?)\s*(\[.*\])?")


def _step_line(line: str) -> Optional[tuple[str, str, str]]:
    """The number, formula text and justification of a step line, or None:
    the line is cut at its first ';', so no pattern backtracks over it."""
    head, semi, just = line.partition(";")
    m = _STEP_HEAD.fullmatch(head) if semi else None
    return m and (m.group(1), m.group(2).rstrip(), just.lstrip())


def _split_bindings(text: str) -> list[str]:
    """The parts of text between the commas outside parentheses; a last
    empty part is dropped.  Splits at every comma, then joins the pieces
    that a comma inside parentheses cut apart."""
    parts, cur, depth = [], [], 0
    for piece in text.split(","):
        cur.append(piece)
        depth += piece.count("(") - piece.count(")")
        if depth == 0:
            parts.append(",".join(cur))
            cur = []
    if cur:
        parts.append(",".join(cur))
    if not parts[-1]:
        parts.pop()
    return parts


def _parse_bindings(text: str, memo: ParseMemo) -> tuple[tuple[str, object], ...]:
    text = text.strip()
    if not text:
        return ()
    if not (text.startswith("[") and text.endswith("]")):
        raise ProofError(f"bindings must be bracketed: {text!r}")
    out = []
    for part in _split_bindings(text[1:-1]):
        key, sep, value = part.partition(":=")
        if not sep:
            raise ProofError(f"bad binding {part!r}")
        key = key.strip()
        value = value.strip()
        if key and key[0].isupper():
            out.append((key, memo.parse(value)))
        elif key == "t":
            out.append((key, parse_term(value)))
        else:
            out.append((key, value))
    return tuple(out)


def parse_derivation(text: str, system: Optional[str] = None) -> Derivation:
    """Parse a proof file.  The formulas of one call share a ParseMemo,
    which dies with the call; the ASTs are frozen, so steps and bindings
    may share them."""
    memo = ParseMemo()
    steps: list[Step] = []
    premises: list[Formula] = []
    expected = 1
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SYSTEM_LINE.fullmatch(line)
        if m:
            if system is None:
                system = m.group(1)
            continue
        parts = _step_line(line)
        if parts is None:
            raise ProofError(f"cannot parse proof line: {raw!r}")
        num = int(parts[0])
        if num != expected:
            raise ProofError(f"expected step {expected}, found {num}")
        expected += 1
        formula = memo.parse(parts[1])
        just = parts[2]
        if just == "premise":
            premises.append(formula)
            steps.append(Step(formula, "premise"))
            continue
        jm = _AXIOM_JUST.fullmatch(just)
        if jm:
            steps.append(Step(formula, "axiom", jm.group(1), (),
                              _parse_bindings(jm.group(2) or "", memo)))
            continue
        jm = _RULE_JUST.fullmatch(just)
        if jm:
            cites = tuple(int(c) for c in jm.group(2).replace(" ", "").split(",") if c)
            steps.append(Step(formula, "rule", jm.group(1), cites,
                              _parse_bindings(jm.group(3) or "", memo)))
            continue
        raise ProofError(f"cannot parse justification: {just!r}")
    return Derivation(system or "H", tuple(premises), tuple(steps), memo.nodes)


def _format_binding(key: str, value: object) -> str:
    if isinstance(value, str):
        return f"{key} := {value}"
    if isinstance(value, (Var, App)):
        return f"{key} := {print_term(value)}"
    return f"{key} := {print_raw(value)}"  # type: ignore[arg-type]


def format_derivation(d: Derivation) -> str:
    lines = [f"system: {d.system}"]
    for i, step in enumerate(d.steps, start=1):
        just = step.kind
        if step.kind == "axiom":
            just = f"axiom {step.name}"
        elif step.kind == "rule":
            just = f"rule {step.name} {','.join(map(str, step.cites))}"
        if step.bindings:
            just += " [" + ", ".join(_format_binding(k, v) for k, v in step.bindings) + "]"
        lines.append(f"{i}. {print_raw(step.formula)} ; {just}")
    return "\n".join(lines) + "\n"


# --- programmatic construction helper ---------------------------------------


class Builder:
    """Accumulates steps and keeps their indices; formulas are rebuilt from
    the schema bindings so misuse fails in check(), not silently."""

    def __init__(self, system: str = "H", premises: Sequence[Formula] = ()):
        self.system = system
        self.premises = tuple(premises)
        self.steps: list[Step] = []

    def _add(self, step: Step) -> int:
        self.steps.append(step)
        return len(self.steps)

    def premise(self, f: Formula) -> int:
        return self._add(Step(f, "premise"))

    def axiom(self, name: str, **bindings: object) -> int:
        built = system_axioms(self.system)[name](bindings)  # type: ignore[arg-type]
        return self._add(Step(built, "axiom", name, (), tuple(sorted(bindings.items()))))

    def rule(self, name: str, cites: Sequence[int], **bindings: object) -> int:
        _, conclusion = _instance(name, bindings)  # type: ignore[arg-type]
        return self._add(Step(conclusion, "rule", name, tuple(cites),
                              tuple(sorted(bindings.items()))))

    def done(self) -> Derivation:
        return Derivation(self.system, self.premises, tuple(self.steps))
