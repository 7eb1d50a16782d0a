"""Verdict checks, run in the parent process after the timed run.

``check(item, verdict, tag)`` returns None when the verdict agrees with
the item's known answer and every returned witness re-checks under the
benchmark's own evaluator, else a one-line reason.  ``tag`` is the tag
the request was sent with (see ``renaming``).  Tags are taken out of
the verdict before it is compared with the untagged known answer; only a
transform's output, whose fresh names may coincide with untagged input
names, is checked against the tagged input instead.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import oracle as O
import renaming
import workloads as W


def check(item: dict, verdict: dict, tag: str = ""):
    if "error" in verdict:
        return None  # a failed request is counted as failed, not as wrong
    if item["op"] == "transform":
        return _transform(item, verdict, tag)
    return CHECKS[item["op"]](item, renaming.strip(verdict))


def _decide(item, v):
    expect = item["expect"]
    if v["valid"] != expect["valid"]:
        return f"valid={v['valid']}, known answer {expect['valid']}"
    if v["valid"]:
        return None
    f = O.parse(item["args"]["formula"])
    logic = item["args"]["logic"]
    cm = {k: Fraction(x) for k, x in (v["countermodel"] or {}).items()}
    if set(cm) != {O.show(a) for a in O.atoms(f)}:
        return "countermodel does not assign exactly the formula's atoms"
    if logic == "LC":
        if any(not 0 <= x <= 1 for x in cm.values()):
            return "countermodel value outside [0,1]"
    else:
        allowed = set(O.gm_values(int(logic[1:])))
        if any(x not in allowed for x in cm.values()):
            return f"countermodel value outside V_{logic[1:]}"
    value = O.eval_prop(f, cm)
    if value >= 1:
        return f"countermodel re-evaluates to {value}, not below 1"
    if Fraction(v["value"]) != value:
        return f"reported value {v['value']}, re-evaluated {value}"
    if logic != "LC":
        want = expect["countermodel"]
        if {k: str(x) for k, x in cm.items()} != want:
            return f"countermodel {v['countermodel']} is not the first one {want}"
    return None


def _prove(item, v):
    args = item["args"]
    if v["status"] != item["expect"]["status"]:
        return f"status {v['status']}, known answer {item['expect']['status']}"
    if v["status"] == "unknown":
        return None if v["level"] == args["max_level"] else "unknown below max level"
    if not 0 <= v["level"] <= args["max_level"] or v["mode"] != args["mode"]:
        return "certificate level or mode out of range"
    original = O.parse(args["formula"])
    matrix = original
    while matrix[0] in ("forall", "exists"):
        matrix = matrix[2]
    for d in v["disjuncts"]:
        if not is_instance(matrix, O.parse(d)):
            return f"disjunct {d} is not a ground instance of the matrix"
    if not W.certificate_verdict(v):
        return "certificate disjunction is not valid (oracle)"
    return None


def ground(t) -> bool:
    return t[0] == "app" and all(ground(a) for a in t[2])


def is_instance(pattern, ground_formula) -> bool:
    """Whether ground_formula is pattern with its variables replaced by ground
    terms, consistently."""
    binding: dict = {}

    def term(p, g):
        if p[0] == "var":
            if p[1] in binding:
                return binding[p[1]] == g
            if not ground(g):
                return False
            binding[p[1]] = g
            return True
        return (g[0] == "app" and p[1] == g[1] and len(p[2]) == len(g[2])
                and all(term(a, b) for a, b in zip(p[2], g[2])))

    def go(p, g):
        if p[0] != g[0]:
            return False
        if p[0] == "bot":
            return True
        if p[0] == "atom":
            return (p[1] == g[1] and len(p[2]) == len(g[2])
                    and all(term(a, b) for a, b in zip(p[2], g[2])))
        return go(p[1], g[1]) and go(p[2], g[2])
    return go(pattern, ground_formula)


def _verify(item, v):
    if v != {"verified": item["expect"]["verified"],
             "disjuncts": item["expect"]["disjuncts"]}:
        return f"verify returned {v}, known answer {item['expect']}"
    return None


def _entail(item, v):
    args = item["args"]
    if v["holds"] != item["expect"]["holds"]:
        return f"holds={v['holds']}, known answer {item['expect']['holds']}"
    if v["holds"]:
        return None
    cm = v["countermodel"]
    m = args["m"]
    allowed = set(O.gm_values(m))
    universe = cm["universe"]
    if not 1 <= len(universe) <= args["max_universe"]:
        return "countermodel universe size out of range"
    tables = {}
    for p, rows in cm["predicates"].items():
        tables[p] = {tuple(k): Fraction(x) for k, x in rows}
        if any(x not in allowed for x in tables[p].values()):
            return f"countermodel value outside V_{m}"
    funcs = {g: {tuple(k): u for k, u in rows} for g, rows in cm["functions"].items()}
    I = O.Interp(universe, tables, funcs)
    premises = [O.parse(p) for p in args["premises"]]
    conclusion = O.parse(args["conclusion"])
    try:
        bad = O.is_countermodel(premises, conclusion, I, args["one"])
    except KeyError as e:
        return f"countermodel leaves {e} unassigned"
    return None if bad else "returned countermodel does not refute the entailment"


def _evaluate(item, v):
    want = item["expect"]["value"]
    return None if Fraction(v) == Fraction(want) else f"value {v}, known answer {want}"


def _check_proof(item, v):
    e = item["expect"]
    return None if v == e else f"check returned {v}, known answer {e}"


def _classify(item, v):
    e = item["expect"]
    return None if v == e else f"classified {v}, known answer {e}"


def sample_interpretations(formulas, count: int, seed: int):
    """Seeded finite interpretations of the formulas' joint signature with
    values in V_5 and universes of size 1 to 3."""
    rng = random.Random(seed)
    preds, funcs = {}, {}
    for f in formulas:
        O.signature(f, preds, funcs)
    vals = O.gm_values(5)
    out = []
    for _ in range(count):
        universe = [f"u{i}" for i in range(rng.randint(1, 3))]
        tables = {p: {k: rng.choice(vals) for k in _tuples(universe, a)}
                  for p, a in preds.items()}
        ftabs = {g: {k: rng.choice(universe) for k in _tuples(universe, a)}
                 for g, a in funcs.items()}
        out.append(O.Interp(universe, tables, ftabs))
    return out


def _tuples(universe, arity):
    return list(itertools.product(universe, repeat=arity))


def _transform(item, v, tag):
    prop = item["expect"]["property"]
    if prop == "rejected":
        return None if v["rejected"] else "inadmissible prenexing was accepted"
    if v["rejected"]:
        return "transform rejected an admissible input"
    f = O.parse(renaming.formula(item["args"]["formula"], tag))
    g = O.parse(v["formula"])
    if O.free_vars(g):
        return "output has free variables"
    fresh = set(O.signature(g)[0]) - set(O.signature(f)[0])
    if prop == "relativized":
        return relativized(f, g, item["args"]["kind"], fresh)
    samples = sample_interpretations([f, g], 12, 7)
    if prop == "prenex":
        if not O.is_prenex(g):
            return "output is not prenex"
        same = all(O.evaluate(f, I) == O.evaluate(g, I) for I in samples)
        return None if same else "prenex form changes a value"
    if prop == "botfree":
        if len(fresh) != 1 or any(h[0] == "bot" for h in O.subformulas(g)):
            return "output is not bot-free with one fresh letter"
        (b,) = fresh
        for I in samples:
            I.predicates[b] = {(): Fraction(0)}
            if O.evaluate(f, I) != O.evaluate(g, I):
                return "bot-free form with b = 0 changes a value"
        return None
    # forallfree: exists xs (A -> B) lies pointwise below (forall xs A) -> B
    if any(h[0] == "forall" for h in O.subformulas(g)):
        return "output contains forall"
    ok = all(O.evaluate(g, I) <= O.evaluate(f, I) for I in samples)
    return None if ok else "forall-free shift exceeds the original pointwise"


# the paper's reductions A^g and A^h: the fresh predicates' arities, and
# how deep the relativized input sits as the left disjunct of the
# consequent (A^g: A' | ..., A^h: (A' | ...) | ...)
REDUCTIONS = {"ag": ([1, 2, 2], 1), "ah": ([1, 2, 2, 3], 2)}


def double_negated(f):
    """The g with f = ~~g, else None."""
    if f[0] == "imp" and f[2] == O.BOT and f[1][0] == "imp" and f[1][2] == O.BOT:
        return f[1][1]
    return None


def crisp(f) -> bool:
    """Every atom occurs directly under a double negation, so f takes only
    the values 0 and 1 in every Goedel logic."""
    if double_negated(f) is not None and double_negated(f)[0] == "atom":
        return True
    if f[0] == "atom":
        return False
    if f[0] == "bot":
        return True
    if f[0] in ("forall", "exists"):
        return crisp(f[2])
    return crisp(f[1]) and crisp(f[2])


def relativized(f, g, kind: str, fresh: set):
    """Checks an A^g / A^h output g of the input f: an implication whose
    antecedent uses only the fresh predicates, and whose consequent holds
    f relativized: its atoms double negated, each quantifier guarded by
    a crisp formula of the fresh predicates in the bound variable alone."""
    arities, depth = REDUCTIONS[kind]
    preds = O.signature(g)[0]
    if sorted(preds[p] for p in fresh) != arities:
        return f"fresh predicates {sorted(fresh)}, the paper's {kind} has arities {arities}"
    if g[0] != "imp":
        return "output is not an implication"
    if set(O.signature(g[1])[0]) - fresh:
        return "antecedent mentions an input predicate"
    part = g[2]
    for _ in range(depth):
        if part[0] != "or":
            return "consequent does not start with the relativized input"
        part = part[1]

    def guard(h, v) -> bool:
        return (O.free_vars(h) == {v} and crisp(h)
                and not set(O.signature(h)[0]) - fresh)

    def same(a, b, env) -> bool:
        """b is a relativized under the bound-variable renaming env."""
        if a[0] == "bot":
            return b == O.BOT
        if a[0] == "atom":
            inner = double_negated(b)
            return inner is not None and inner == rename_vars(a, env)
        if a[0] in ("and", "or", "imp"):
            return b[0] == a[0] and same(a[1], b[1], env) and same(a[2], b[2], env)
        join = "imp" if a[0] == "forall" else "and"
        if b[0] != a[0] or b[2][0] != join:
            return False
        return guard(b[2][1], b[1]) and same(a[2], b[2][2], {**env, a[1]: b[1]})
    if not same(f, part, {}):
        return "consequent does not hold the input relativized with crisp guards"
    return None


def rename_vars(f, env):
    """The atom f with its variables renamed by env."""
    def term(t):
        if t[0] == "var":
            return O.var(env.get(t[1], t[1]))
        return O.app(t[1], *(term(a) for a in t[2]))
    return O.atom(f[1], *(term(t) for t in f[2]))


CHECKS = {"decide": _decide, "prove": _prove, "verify": _verify,
          "entail": _entail, "evaluate": _evaluate, "check_proof": _check_proof,
          "classify": _classify}
