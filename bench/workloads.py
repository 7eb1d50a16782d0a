"""Seeded workload generation with known answers.

Each workload is a list of distinct items in a seeded order; the closed
loop makes whole passes over them.  An item is a dict with ``op`` and
``args`` (what the workload process receives), ``expect`` (the known
answer), ``source`` (where the known answer comes from) and, for some
ops, ``work`` (counts for the per-layer metrics).  Known answers come from
the paper, from the construction of the input, or from ``oracle``; none
comes from the workbench.

The strata have fixed sizes and, where it sets a cost, fixed formula
sizes, so that the mix of cheap and costly requests is the same for every
seed.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import oracle as O

DATA = Path(__file__).resolve().parent / "data"
DEFAULT_SEED = 1
NAMES = ("qf_decide", "prenex_prove", "fo_entail", "proof_check")


def shuffled(groups, rng: random.Random) -> list:
    out = [item for group in groups for item in group]
    rng.shuffle(out)
    return out


def _frac(x) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# Random formulas in the oracle's syntax


def random_qf(rng, leaves, n_ops: int, bot_rate: float = 0.05):
    """Random quantifier-free formula with exactly n_ops connectives."""
    if n_ops == 0:
        return O.BOT if rng.random() < bot_rate else rng.choice(leaves)
    left = rng.randint(0, n_ops - 1)
    op = rng.choice(("and", "or", "imp"))
    return (op, random_qf(rng, leaves, left, bot_rate),
            random_qf(rng, leaves, n_ops - 1 - left, bot_rate))


def depth(f) -> int:
    if f[0] in ("bot", "atom"):
        return 0
    if f[0] in ("forall", "exists"):
        return 1 + depth(f[2])
    return 1 + max(depth(f[1]), depth(f[2]))


# LC-valid schemata; every instance is valid in LC and in every G_m
SCHEMATA = [
    lambda X, Y, Z: O.disj(O.imp(X, Y), O.imp(Y, X)),
    lambda X, Y, Z: O.imp(X, O.imp(Y, X)),
    lambda X, Y, Z: O.imp(O.conj(X, Y, Z), O.conj(Z, X)),
    lambda X, Y, Z: O.imp(X, O.disj(Y, X, Z)),
    lambda X, Y, Z: O.imp(O.imp(O.imp(X, Y), Z), O.imp(O.imp(O.imp(Y, X), Z), Z)),
    lambda X, Y, Z: O.imp(O.imp(X, Y), O.imp(O.imp(Y, Z), O.imp(X, Z))),
    lambda X, Y, Z: O.disj(O.neg(X), O.neg(O.neg(X)), Y, Z),
    lambda X, Y, Z: O.imp(O.conj(X, O.imp(X, Y)), O.disj(Y, Z)),
]


def schema_instance(rng, leaves, ops_per_part: int, need=None, size=None):
    """A random LC-valid formula using every atom in ``need`` and, when
    given, with exactly ``size`` nodes (the decision procedures' cost per
    valuation grows with the size)."""
    need = set(leaves if need is None else need)
    while True:
        parts = [random_qf(rng, leaves, rng.randint(0, ops_per_part), 0.0)
                 for _ in range(3)]
        f = rng.choice(SCHEMATA)(*parts)
        if need <= set(O.atoms(f)) and (size is None or O.size(f) == size):
            return f


# ---------------------------------------------------------------------------
# qf_decide


def letters(n: int):
    return [O.atom(f"A{i}") for i in range(1, n + 1)]


def cycle(n: int):
    return O.disj(*[O.imp(O.atom(f"A{i}"), O.atom(f"A{i % n + 1}"))
                    for i in range(1, n + 1)])


def fin(m: int):
    parts = [O.imp(O.imp(O.BOT, O.BOT), O.atom("A1"))]
    parts += [O.imp(O.atom(f"A{i}"), O.atom(f"A{i + 1}")) for i in range(1, m - 1)]
    parts.append(O.neg(O.atom(f"A{m - 1}")))
    return O.disj(*parts)


def decide_item(f, logic: str, source: str) -> dict:
    expect: dict
    if logic == "LC":
        expect = {"valid": O.lc_valid(f)}
        source += "; verdict: oracle order types"
    else:
        hit = O.gm_first_countermodel(f, int(logic[1:]))
        expect = {"valid": hit is None}
        if hit is not None:
            expect["countermodel"] = {k: _frac(v) for k, v in hit[0].items()}
            expect["value"] = _frac(hit[1])
        source += "; verdict: oracle V_m enumeration"
    return {"op": "decide", "args": {"logic": logic, "formula": O.show(f)},
            "expect": expect, "source": source}


LOGICS = ("LC", "G3", "G4", "G5", "G6", "G7")
# atoms, valid formulas (each asked under two logics), invalid formulas
DECIDE_STRATA = ((2, 3, 20), (3, 3, 20), (4, 3, 20), (5, 10, 20))
# nodes of the valid 5-atom formulas: under LC and G7 each walks all 7^5
# valuations, and a fixed size keeps that tail the same from seed to seed
HEAVY_SIZE = 11
# the seeded invalid formulas are refuted within this many valuations and
# have a fixed number of connectives, so they form an even, cheap two
# thirds of the workload, where p50 sits and parsing is a large share
EARLY = 3
INVALID_OPS = 6


def first_countermodel_position(f, logic: str):
    m = len(O.atoms(f)) + 2 if logic == "LC" else int(logic[1:])
    hit = O.gm_first_countermodel(f, m)
    return None if hit is None else hit[2]


def gen_qf_decide(seed: int) -> list:
    rng = random.Random(f"qf_decide/{seed}")
    groups = []
    for n, n_valid, n_invalid in DECIDE_STRATA:
        leaves = letters(n)
        valid, invalid = [], []
        for j in range(n_valid):
            if n == 5:
                f = schema_instance(rng, leaves, 3, size=HEAVY_SIZE)
                logics = ("LC", "G7")
            else:
                f = schema_instance(rng, leaves, 2)
                logics = (LOGICS[j % 6], LOGICS[(j + 3) % 6])
            for logic in logics:
                valid.append(decide_item(f, logic, f"seeded schema instance, {n} atoms"))
        while len(invalid) < n_invalid:
            f = random_qf(rng, leaves, INVALID_OPS)
            logic = LOGICS[len(invalid) % 6]
            if not 3 <= depth(f) <= 5 or len(O.atoms(f)) != n:
                continue
            position = first_countermodel_position(f, logic)
            if position is not None and position < EARLY:
                invalid.append(decide_item(f, logic, f"seeded random formula, {n} atoms"))
        groups += [valid, invalid]
    fixed = []
    for n in (3, 4, 5):
        for logic in ("LC", f"G{n + 1}"):
            fixed.append(decide_item(cycle(n), logic, f"paper family: {n}-cycle"))
    for m in range(2, 7):
        fixed.append(decide_item(fin(m), f"G{m}", f"paper family: FIN({m}) in G_{m}"))
        fixed.append(decide_item(fin(m), f"G{m + 1}", f"paper family: FIN({m}) in G_{m + 1}"))
    for m in (3, 4, 5):
        fixed.append(decide_item(fin(m), "LC", f"paper family: FIN({m}) in LC"))
    a1, a2, a3 = O.atom("A1"), O.atom("A2"), O.atom("A3")
    prelinear = [O.disj(O.imp(a1, a2), O.imp(a2, a1)),
                 O.disj(O.imp(O.conj(a1, a2), a3), O.imp(a3, O.conj(a1, a2))),
                 O.disj(O.imp(O.neg(a1), O.disj(a2, a3)), O.imp(O.disj(a2, a3), O.neg(a1)))]
    for k, f in enumerate(prelinear):
        for logic in ("LC", "G3", "G7"):
            fixed.append(decide_item(f, logic, f"prelinearity instance {k + 1}"))
    groups.append(fixed)
    return shuffled(groups, rng)


# ---------------------------------------------------------------------------
# prenex_prove

CHAIN = "exists x. forall y. (A(y) -> A(x))"        # C-down in prenex form
DUAL_CHAIN = "exists x. forall y. (A(x) -> A(y))"   # C-up in prenex form
THREE_QUANTIFIER = "exists x. forall y. exists z. ((A(y) -> B(x)) & (B(z) -> A(y)))"

# prefix, the atoms every matrix must use, the atoms it may use, how many
# formulas, and the matrix size, held fixed so that the cost does not move
# from seed to seed; the first instance of the last shape needs five base
# atoms, so its tree is the deepest
EARLY_SHAPES = [
    ("exists x. exists y.", ["P(x)", "P(y)"], ["P(x)", "P(y)"], 14, 9),
    ("exists x. forall y.", ["P(x)", "P(y)"], ["P(x)", "P(y)"], 14, 9),
    ("forall y. exists x.", ["P(x)", "Q(y)"], ["P(x)", "Q(y)"], 14, 9),
    ("exists x. forall y.", ["P(x)", "Q(y)", "A"], ["P(x)", "Q(y)", "A"], 4, 13),
]
# the 3-quantifier formula at level 5 under renamed predicates: distinct
# requests of one cost, where p90 sits
RENAMINGS = [("A", "B"), ("P", "Q"), ("C", "D"), ("R", "S"), ("E", "F"), ("T", "U"),
             ("G", "H"), ("V", "W")]


def _atoms_of(texts):
    return [O.parse(t) for t in texts]


def certificate_text(name: str) -> str:
    return (DATA / "certificates" / f"{name}.json").read_text()


def certificate_verdict(cert: dict) -> bool:
    """The oracle's answer to "is the Herbrand disjunction valid?"."""
    disjunction = O.disj(*[O.parse(d) for d in cert["disjuncts"]])
    if cert["mode"] == "uncountable":
        return O.lc_valid(disjunction)
    return O.gm_first_countermodel(disjunction, int(cert["mode"].split(":")[1])) is None


def mutate_certificate(cert: dict, mutation) -> dict:
    cert = dict(cert)
    if mutation == "drop-last":
        cert["disjuncts"] = cert["disjuncts"][:-1]
    elif mutation == "drop-first":
        cert["disjuncts"] = cert["disjuncts"][1:]
    elif mutation == "reverse":
        cert["disjuncts"] = cert["disjuncts"][::-1]
    elif mutation is not None:
        cert["mode"] = mutation
    if mutation is not None:
        cert["leaves"] = []
    return cert


CERTIFICATES = ["chain-finite3", "chain-finite4", "chain-finite5",
                "dual-chain-finite3", "dual-chain-finite4", "dual-chain-finite5",
                "identity", "prelinear", "weak-em"]
CERT_MUTATIONS = (
    [(name, "reverse") for name in CERTIFICATES if not name.endswith("finite5")]
    + [(f"{name}-finite{n}", mut) for name in ("chain", "dual-chain")
       for n, mut in ((3, "drop-last"), (4, "drop-last"), (5, "drop-last"),
                      (3, "drop-first"), (4, "drop-first"),
                      (3, "finite:4"), (4, "finite:5"), (3, "uncountable"))])


def verify_item(name: str, mutation=None) -> dict:
    cert = mutate_certificate(json.loads(certificate_text(name)), mutation)
    verdict = certificate_verdict(cert)
    return {"op": "verify", "args": {"certificate": name, "mutation": mutation},
            "expect": {"verified": verdict, "disjuncts": len(cert["disjuncts"])},
            "source": f"certificate {name} (produced by the prover, frozen), "
                      f"mutation {mutation}; verdict: oracle on the disjunction"}


def prove_item(text: str, mode: str, max_level: int, status: str, source: str) -> dict:
    return {"op": "prove",
            "args": {"formula": text, "mode": mode, "max_level": max_level},
            "expect": {"status": status}, "source": source}


def gen_prenex_prove(seed: int) -> list:
    rng = random.Random(f"prenex_prove/{seed}")
    modes = ["uncountable", "finite:3", "finite:4", "finite:5"]
    groups = []
    for k, (prefix, need, allowed, count, size) in enumerate(EARLY_SHAPES):
        leaves = _atoms_of(allowed)
        early = []
        for j in range(count):
            matrix = schema_instance(rng, leaves, 1, _atoms_of(need), size)
            assert O.lc_valid(matrix)
            early.append(prove_item(
                f"{prefix} ({O.show(matrix)})", modes[(j + k) % 4], 8, "valid",
                "seeded prenex formula with an LC-valid matrix: every instance "
                "is valid, so the tree closes (oracle checks the matrix)"))
        groups.append(early)
    chains, unknown = [], []
    for text, name in ((CHAIN, "chain"), (DUAL_CHAIN, "dual chain")):
        for n in (3, 4, 5):
            for level in (6, 8):
                chains.append(prove_item(
                    text, f"finite:{n}", level, "valid",
                    f"paper: {name} is valid in every finite Goedel logic"))
        for level in (6, 7, 8):
            unknown.append(prove_item(
                text, "uncountable", level, "unknown",
                f"paper: {name} fails over [0,1] (extremum not attained)"))
    for level in (4, 6):
        unknown.append(prove_item(
            THREE_QUANTIFIER, "uncountable", level, "unknown",
            "classically refutable (B true everywhere, A(y) false)"))
    for a, b in RENAMINGS:
        text = THREE_QUANTIFIER.replace("A(", f"{a}1(").replace("B(", f"{b}1(")
        unknown.append(prove_item(
            text, "uncountable", 5, "unknown",
            f"classically refutable ({b}1 true everywhere, {a}1(y) false)"))
    certs = [verify_item(name) for name in CERTIFICATES]
    mutated = [verify_item(name, mut) for name, mut in CERT_MUTATIONS]
    return shuffled(groups + [chains, unknown, certs, mutated], rng)


# ---------------------------------------------------------------------------
# fo_entail

ISO0 = "(forall x. ~~A(x)) -> ~~(forall x. A(x))"
C_UP = "exists x. (A(x) -> forall y. A(y))"
C_DOWN = "exists x. ((exists y. A(y)) -> A(x))"
QS = "(forall x. (B | A(x))) -> B | (forall x. A(x))"
LIN = "(A(c()) -> B) | (B -> A(c()))"
PAPER_FORMULAS = {"ISO_0": ISO0, "C-up": C_UP, "C-down": C_DOWN, "QS": QS, "LIN": LIN}

# holds-templates: (premises, conclusion) built from random closed X, Y and
# a random matrix M over the variable v
ENTAIL_TEMPLATES = [
    lambda X, Y, M: ([X, O.imp(X, Y)], Y),
    lambda X, Y, M: ([O.conj(X, Y)], O.conj(Y, X)),
    lambda X, Y, M: ([], O.imp(X, O.disj(X, Y))),
    lambda X, Y, M: ([O.forall("v", M)], _subst_v(M, O.app("c"))),
    lambda X, Y, M: ([X], O.neg(O.neg(X))),
    lambda X, Y, M: ([], O.exists("w", O.imp(O.exists("v", M), _subst_v(M, O.var("w"))))),
]
# seeded entailments stay small, so the tail of the workload is set by the
# fixed paper formulas and does not move with the seed
SPACE_LIMIT = 300


def _subst_v(f, t):
    def term(s):
        if s[0] == "var":
            return t if s[1] == "v" else s
        return ("app", s[1], tuple(term(a) for a in s[2]))
    if f[0] == "bot":
        return f
    if f[0] == "atom":
        return ("atom", f[1], tuple(term(s) for s in f[2]))
    if f[0] in ("forall", "exists"):
        return f if f[1] == "v" else (f[0], f[1], _subst_v(f[2], t))
    return (f[0], _subst_v(f[1], t), _subst_v(f[2], t))


def random_closed(rng, n_ops: int):
    """Closed formula over A, B, P/1, R/2 and the constant c: a random
    propositional skeleton whose leaves are letters, ground atoms or
    quantified blocks."""
    def leaf():
        r = rng.random()
        if r < 0.3:
            return rng.choice([O.atom("A"), O.atom("B")])
        if r < 0.55:
            return O.atom("P", O.app("c"))
        q = rng.choice(("forall", "exists"))
        body = random_qf(rng, [O.atom("P", O.var("v")), O.atom("A"),
                               O.atom("R", O.var("v"), O.app("c"))], rng.randint(0, 2), 0.1)
        return (q, "v", body)

    def build(k):
        if k == 0:
            return leaf()
        left = rng.randint(0, k - 1)
        return (rng.choice(("and", "or", "imp")), build(left), build(k - 1 - left))
    return build(n_ops)


def random_matrix(rng):
    return random_qf(rng, [O.atom("P", O.var("v")), O.atom("B")], rng.randint(1, 2), 0.1)


def entail_item(premises, conclusion, m: int, max_universe: int, one: bool,
                source: str) -> dict:
    holds = O.entails(premises, conclusion, m, max_universe, one)
    return {"op": "entail",
            "args": {"premises": [O.show(p) for p in premises],
                     "conclusion": O.show(conclusion), "m": m,
                     "max_universe": max_universe, "one": one},
            "expect": {"holds": holds},
            "work": {"space": O.interpretation_count(list(premises) + [conclusion],
                                                     m, max_universe)},
            "source": source + "; verdict: oracle finite search"}


def _interp_json(universe, m, tables, funcs) -> str:
    values = ",".join(_frac(v) for v in O.gm_values(m))
    return json.dumps({
        "universe": list(universe), "truth_set": "{" + values + "}",
        "predicates": {f"{p}/{len(next(iter(t)))}": {",".join(k): _frac(v)
                                                     for k, v in t.items()}
                       for p, t in tables.items()},
        "functions": {f"{g}/{len(next(iter(t)))}": {",".join(k): v for k, v in t.items()}
                      for g, t in funcs.items()},
    }, sort_keys=True)


def evaluate_item(rng) -> dict:
    m = rng.randint(3, 6)
    size = rng.randint(2, 4)
    universe = [f"e{i}" for i in range(size)]
    vals = O.gm_values(m)
    tables = {"A": {(): rng.choice(vals)}, "B": {(): rng.choice(vals)},
              "P": {(u,): rng.choice(vals) for u in universe},
              "R": {(u, w): rng.choice(vals) for u in universe for w in universe}}
    funcs = {"c": {(): rng.choice(universe)}}
    f = random_closed(rng, rng.randint(3, 5))
    I = O.Interp(universe, tables, funcs)
    return {"op": "evaluate",
            "args": {"interpretation": _interp_json(universe, m, tables, funcs),
                     "formula": O.show(f), "omega": False},
            "expect": {"value": _frac(O.evaluate(f, I))},
            "source": "seeded finite interpretation; value: oracle evaluator"}


def _omega_json(prefix, truth_set, prefix_tables, tails) -> str:
    return json.dumps({"universe": list(prefix), "truth_set": truth_set,
                       "predicates": prefix_tables, "tail": tails}, sort_keys=True)


HARMONIC_DOWN = {"A/1": {"kind": "harmonic", "limit": "0", "sign": "+", "offset": 0}}
HARMONIC_UP = {"A/1": {"kind": "harmonic", "limit": "1", "sign": "-", "offset": 0}}
# (formula, truth set, tail, value): the paper's witnesses, values by hand
OMEGA_WITNESSES = [
    (C_UP, "seqdown(0;1)", HARMONIC_DOWN, "0"),
    (C_UP, "[0,1]", HARMONIC_DOWN, "0"),
    ("exists y. A(y)", "sequp(1;1)", HARMONIC_UP, "1"),
    (C_DOWN, "sequp(1;1)", HARMONIC_UP, "1"),
    (ISO0, "[0,1]", HARMONIC_DOWN, "0"),
    ("forall x. ~~A(x)", "[0,1]", HARMONIC_DOWN, "1"),
    ("~~(forall x. A(x))", "[0,1]", HARMONIC_DOWN, "0"),
    ("forall x. A(x)", "[0,1]", HARMONIC_DOWN, "0"),
    ("exists x. A(x)", "[0,1]", HARMONIC_DOWN, "1"),
]


def omega_const_item(rng) -> dict:
    """Constant tails make every tail element alike, so the value equals
    the finite value with the prefix plus one tail element."""
    vals = O.gm_values(5)
    prefix = [f"p{i}" for i in range(rng.randint(1, 2))]
    tables = {"A": {(u,): rng.choice(vals) for u in prefix},
              "B": {(u,): rng.choice(vals) for u in prefix}}
    tail = {"A": rng.choice(vals), "B": rng.choice(vals)}

    def block():
        body = random_qf(rng, [O.atom("A", O.var("v")), O.atom("B", O.var("v"))],
                         rng.randint(1, 2), 0.1)
        return (rng.choice(("forall", "exists")), "v", body)
    f = block()
    for _ in range(rng.randint(1, 2)):
        f = (rng.choice(("and", "or", "imp")), f, block())
    finite = O.Interp(prefix + ["t"], {p: {**t, ("t",): tail[p]} for p, t in tables.items()})
    prefix_json = {f"{p}/1": {k[0]: _frac(v) for k, v in t.items()} for p, t in tables.items()}
    tails = {f"{p}/1": {"kind": "const", "value": _frac(v)} for p, v in tail.items()}
    return {"op": "evaluate",
            "args": {"interpretation": _omega_json(prefix, "[0,1]", prefix_json, tails),
                     "formula": O.show(f), "omega": True},
            "expect": {"value": _frac(O.evaluate(f, finite))},
            "source": "seeded constant-tail omega interpretation; value: oracle "
                      "finite evaluation with one tail element"}


def gen_fo_entail(seed: int) -> list:
    rng = random.Random(f"fo_entail/{seed}")
    paper = []
    for name, text in PAPER_FORMULAS.items():
        f = O.parse(text)
        for m in (3, 4, 5):
            for size in (2, 3, 4):
                item = entail_item([], f, m, size, False,
                                   f"paper: {name} holds in every finite Goedel logic")
                assert item["expect"]["holds"]
                paper.append(item)
    strata = {(h, one): [] for h in (True, False) for one in (True, False)}
    while any(len(v) < 8 for v in strata.values()):
        one = rng.random() < 0.5
        m = rng.randint(3, 5)
        size = rng.randint(2, 3)
        X, Y = random_closed(rng, rng.randint(1, 3)), random_closed(rng, rng.randint(1, 3))
        if rng.random() < 0.5:
            premises, conclusion = rng.choice(ENTAIL_TEMPLATES)(X, Y, random_matrix(rng))
            source = "seeded template instance"
        else:
            premises, conclusion = ([X] if rng.random() < 0.5 else []), Y
            source = "seeded random formulas"
        if O.interpretation_count(premises + [conclusion], m, size) > SPACE_LIMIT:
            continue
        item = entail_item(premises, conclusion, m, size, one, source)
        bucket = strata[(item["expect"]["holds"], one)]
        if len(bucket) < 8:
            bucket.append(item)
    evals = [evaluate_item(rng) for _ in range(16)]
    omega = [{"op": "evaluate",
              "args": {"interpretation": _omega_json((), ts, {}, tail),
                       "formula": text, "omega": True},
              "expect": {"value": value},
              "source": "paper: harmonic-tail witness, exact value known"}
             for text, ts, tail, value in OMEGA_WITNESSES]
    omega += [omega_const_item(rng) for _ in range(8)]
    return shuffled([paper, *strata.values(), evals, omega], rng)


# ---------------------------------------------------------------------------
# proof_check

IL_AXIOMS = {"I3a", "I3b", "I4a", "I4b", "I5a", "I5b", "I9", "I11", "I12"}
SYSTEM_AXIOMS = {"IL": IL_AXIOMS, "H": IL_AXIOMS | {"QS", "LIN"},
                 "H0": IL_AXIOMS | {"QS", "LIN", "ISO_0"},
                 "H3": IL_AXIOMS | {"QS", "LIN", "FIN"},
                 "H4": IL_AXIOMS | {"QS", "LIN", "FIN"}}
_LINE = re.compile(r"(\d+)\.\s*(.*?)\s*;\s*(.*)")


def proof_names() -> list[str]:
    return sorted(p.stem for p in (DATA / "proofs").glob("*.proof"))


def proof_lines(name: str):
    """(header system, [(formula text, justification)])."""
    system, steps = "H", []
    for line in (DATA / "proofs" / f"{name}.proof").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("system:"):
            system = line.split(":", 1)[1].strip()
        elif line:
            m = _LINE.fullmatch(line)
            steps.append((m.group(2), m.group(3)))
    return system, steps


def proof_text(name: str, system=None, mutation=None) -> str:
    own, steps = proof_lines(name)
    steps = list(steps)
    if mutation is not None:
        kind, k = mutation
        text, just = steps[k - 1]
        if kind == "negate":
            text = f"~({text})"
        elif kind == "forward-cite":
            words = just.split()
            words[2] = ",".join([str(k)] + words[2].split(",")[1:])
            just = " ".join(words)
        elif kind == "unknown-axiom":
            just = re.sub(r"^axiom \S+", "axiom I99", just)
        steps[k - 1] = (text, just)
    lines = [f"system: {system or own}"]
    lines += [f"{i}. {text} ; {just}" for i, (text, just) in enumerate(steps, start=1)]
    return "\n".join(lines) + "\n"


def relabel_verdict(name: str, system: str):
    """Accepted under another system iff every axiom it cites is in that
    system; FIN(n) instances only fit the n they were built for."""
    own, steps = proof_lines(name)
    for k, (_, just) in enumerate(steps, start=1):
        words = just.split()
        if words[0] != "axiom":
            continue
        axiom = words[1]
        if axiom not in SYSTEM_AXIOMS[system] or (axiom == "FIN" and system != own):
            return {"accepted": False, "step": k}
    return {"accepted": True, "step": None}


def proof_item(name, system=None, mutation=None, expect=None, source="") -> dict:
    if expect is None:
        expect = {"accepted": True, "step": None}
    # steps the checker walks: all of them, or up to the rejected one
    steps = expect["step"] or len(proof_lines(name)[1])
    return {"op": "check_proof",
            "args": {"proof": name, "system": system,
                     "mutation": None if mutation is None else list(mutation)},
            "expect": expect, "work": {"steps": steps}, "source": source}


# the classification theorem's table: set, verdict, n
CLASSIFICATION = [
    ("[0,1]", "H", None), ("{0,1}", "Hn", 2), ("{0,1/2,1}", "Hn", 3),
    ("{0,1/2,2/3,1}", "Hn", 4), ("{0,1/2,2/3,3/4,1}", "Hn", 5),
    ("{0} + [1/2,1]", "H0", None), ("{0} + cantor(1/2,1)", "H0", None),
    ("seqdown(0;1)", "not-re", None), ("sequp(1;1)", "not-re", None),
    ("{0} + seqdown(0;1/4) + [1/2,1]", "not-re", None),
]

# (formula, kind, expected property): see checks.check_transform
TRANSFORMS = [
    ("exists x. (A(x) -> forall y. A(y))", "prenex", "prenex"),
    ("(exists x. P(x)) -> forall y. Q(y)", "prenex", "prenex"),
    ("forall x. (P(x) & (exists y. R(x,y)))", "prenex", "prenex"),
    ("(forall x. P(x)) -> Q(c())", "prenex", "rejected"),
    ("(forall x. ~~P(x)) -> ~~(forall x. P(x))", "prenex", "rejected"),
    ("(forall x. P(x)) -> Q(c())", "botfree", "botfree"),
    ("(forall x. ~~P(x)) -> ~~(forall x. P(x))", "botfree", "botfree"),
    ("((forall x. P(x)) -> B) | (exists y. (Q(y) & ~B))", "botfree", "botfree"),
    ("(forall x. P(x)) -> Q(c())", "forallfree", "forallfree"),
    ("(forall x. (P(x) | ~P(x))) -> bot", "forallfree", "forallfree"),
    ("(forall x. forall y. R(x,y)) -> R(c(),c())", "forallfree", "forallfree"),
    ("exists x. (A(x) -> forall y. A(y))", "ag", "relativized"),
    ("(forall x. P(x)) -> Q(c())", "ag", "relativized"),
    ("exists x. (A(x) -> forall y. A(y))", "ah", "relativized"),
    ("(forall x. P(x)) -> Q(c())", "ah", "relativized"),
]


def _mutation(rng, name, steps, k) -> dict:
    """A single-step mutation that the checker must reject at step k (or at
    the nearest later step that is not a premise: a negated premise line
    would only add a premise)."""
    while steps[k - 1][1] == "premise":
        k += 1
    just = steps[k - 1][1]
    if just.startswith("axiom"):
        kind = rng.choice(("negate", "unknown-axiom"))
    else:
        kind = rng.choice(("negate", "forward-cite"))
    return proof_item(
        name, None, (kind, k), {"accepted": False, "step": k},
        f"single-step mutation {kind} at step {k}; rejected there by construction")


def gen_proof_check(seed: int) -> list:
    rng = random.Random(f"proof_check/{seed}")
    names = proof_names()
    accepted = [proof_item(n, source="frozen derivation, built by construction; accepted")
                for n in names]
    relabels = []
    for n in names:
        own = proof_lines(n)[0]
        for system in rng.sample([s for s in SYSTEM_AXIOMS if s != own], 2):
            relabels.append(proof_item(
                n, system, None, relabel_verdict(n, system),
                "frozen derivation under another system; verdict by construction "
                "(first axiom outside the system)"))
    # every proof gets a fixed number of mutations, their steps spread
    # evenly over the proof; the two long demo proofs set the tail
    long = {"demo-neg-forall-shift-h0": 14, "demo-weak-excluded-middle": 6}
    mutations = []
    for n, count in long.items():
        steps = proof_lines(n)[1]
        for i in range(count):
            k = 1 + int((i + rng.random()) * len(steps) / count)
            mutations.append(_mutation(rng, n, steps, k))
    for n in (n for n in names if n not in long):
        steps = proof_lines(n)[1]
        for i in range(2):
            mutations.append(_mutation(rng, n, steps, 1 + int((i + rng.random()) * len(steps) / 2)))
    sets = [{"op": "classify", "args": {"set": text},
             "expect": {"verdict": verdict, "n": n},
             "source": "paper: classification theorem (regression table)"}
            for text, verdict, n in CLASSIFICATION]
    transforms = [{"op": "transform", "args": {"formula": text, "kind": kind},
                   "expect": {"property": prop},
                   "source": "fixed formula; property checked by the oracle"}
                  for text, kind, prop in TRANSFORMS]
    return shuffled([accepted, relabels, mutations, sets, transforms], rng)


GENERATORS = {"qf_decide": gen_qf_decide, "prenex_prove": gen_prenex_prove,
              "fo_entail": gen_fo_entail, "proof_check": gen_proof_check}


def generate(name: str, seed: int) -> list:
    return GENERATORS[name](seed)


def materialize(item: dict) -> dict:
    """The request the workload process receives: file references and
    mutations resolved to text."""
    op, args = item["op"], dict(item["args"])
    if op == "check_proof":
        args["proof"] = proof_text(args["proof"], args.pop("system"),
                                   args.pop("mutation"))
    elif op == "verify":
        cert = mutate_certificate(json.loads(certificate_text(args["certificate"])),
                                  args.pop("mutation"))
        args["certificate"] = json.dumps(cert)
    return {"op": op, "args": args}
