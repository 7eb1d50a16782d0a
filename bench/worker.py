"""The workload process: one closed-loop client in a fresh interpreter.

Reads the requests (one line of JSON) from standard input and prints
``ready`` once the workbench is imported and the requests are loaded.
Then it sends one request after another, each only after the previous
verdict has returned, in whole passes over the requests until the time is
up, and writes the verdicts, latencies and (when tracing) spans as one
JSON object to standard output.  Each send goes out under its own tag
(see ``renaming``), so no two sends of a request have the same text.
Verdicts are encoded after each timed call; checking them is left to the
parent process.  An untraced run pauses between sweeps: it prints
``pause`` and waits for a line on standard input, while the parent
measures the host.

    python3 bench/worker.py --mode run|trace|setup --seconds S
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import sys
from time import perf_counter
from types import SimpleNamespace

import goedel_logics  # noqa: F401  (start-up cost every CLI call pays)
import goedel_logics.cli  # noqa: F401
from goedel_logics import formula, goedelset, transforms

import renaming
from spans import LAYERS, Tracer

# an item's latency is the median over its sends, so a run makes enough
# passes for it to be stable; a traced run makes pairs of passes
MIN_PASSES = 5
MIN_TRACE_PASSES = 2
# sweeps: how often at most, and which requests they send again (seconds)
SWEEP_GAP = 0.2
SWEEP_BELOW = 0.002

# the public functions the workloads call, by layer (every one of LAYERS)
PUBLIC = {
    "formula": ["parse"],
    "decide": ["decide_LC", "decide_Gm"],
    "herbrand": ["prove_prenex", "certificate_from_json", "verify_certificate"],
    "semantics": ["entails_bruteforce", "one_entails_bruteforce",
                  "load_interpretation", "evaluate", "eval_omega"],
    "proofkit": ["parse_derivation", "check"],
    "goedelset": ["parse_set", "classify"],
    "transforms": ["to_Ag", "to_Ah", "to_bot_free", "forall_free_shift",
                   "prenex_crisp_report"],
}


def count_nodes(f) -> int:
    stack, n = [f], 0
    while stack:
        g = stack.pop()
        n += 1
        for child in ("left", "right", "body"):
            sub = getattr(g, child, None)
            if sub is not None:
                stack.append(sub)
    return n


def library(tracer: Tracer | None, counters: dict):
    """The public functions, wrapped in spans when tracing."""
    ns = SimpleNamespace()
    for layer in LAYERS:
        module = importlib.import_module(f"goedel_logics.{layer}")
        for name in PUBLIC[layer]:
            fn = getattr(module, name)
            if tracer is not None:
                after = None
                if name == "parse":
                    def after(f):
                        counters["formula.nodes"] += count_nodes(f)
                fn = tracer.wrap(f"{layer}.{name}", fn, after)
            setattr(ns, name, fn)
    return ns


# ---------------------------------------------------------------------------
# Requests: call(lib, args, sets) runs inside the timed region,
# encode(result) after it.


def _decide(lib, a, sets):
    f = lib.parse(a["formula"])
    if a["logic"] == "LC":
        return lib.decide_LC(f)
    return lib.decide_Gm(f, int(a["logic"][1:]))


def _encode_decide(r):
    cm = None
    if r.countermodel is not None:
        cm = {formula.print_formula(atom): str(v) for atom, v in r.countermodel.items()}
    return {"valid": r.valid, "countermodel": cm,
            "value": None if r.value is None else str(r.value)}


def _prove(lib, a, sets):
    return lib.prove_prenex(lib.parse(a["formula"]), a["mode"], a["max_level"])


def _encode_prove(r):
    out = {"status": r.status, "level": r.level_reached}
    if r.certificate is not None:
        out["mode"] = r.certificate.mode
        out["disjuncts"] = [formula.print_formula(d) for d in r.certificate.disjuncts]
    return out


def _verify(lib, a, sets):
    cert = lib.certificate_from_json(a["certificate"])
    return lib.verify_certificate(cert), len(cert.disjuncts)


def _encode_verify(r):
    return {"verified": r[0], "disjuncts": r[1]}


def _entail(lib, a, sets):
    premises = [lib.parse(p) for p in a["premises"]]
    conclusion = lib.parse(a["conclusion"])
    search = lib.one_entails_bruteforce if a["one"] else lib.entails_bruteforce
    return search(premises, conclusion, sets[a["m"]], a["max_universe"])


def _encode_entail(r):
    out = {"holds": r.holds, "countermodel": None}
    I = r.countermodel
    if I is not None:
        out["countermodel"] = {
            "universe": list(I.universe),
            "predicates": {p: [[list(k), str(v)] for k, v in t.items()]
                           for p, t in I.predicates.items()},
            "functions": {g: [[list(k), v] for k, v in t.items()]
                          for g, t in I.functions.items()},
        }
    return out


def _evaluate(lib, a, sets):
    I = lib.load_interpretation(json.loads(a["interpretation"]))
    f = lib.parse(a["formula"])
    if a["omega"]:
        return lib.eval_omega(f, I)
    return lib.evaluate(f, I)


def _check_proof(lib, a, sets):
    return lib.check(lib.parse_derivation(a["proof"]))


def _encode_check(r):
    return {"accepted": r.accepted, "step": r.step}


def _classify(lib, a, sets):
    return lib.classify(lib.parse_set(a["set"]))


def _transform(lib, a, sets):
    f = lib.parse(a["formula"])
    kind = a["kind"]
    try:
        if kind == "ag":
            return lib.to_Ag(f).formula
        if kind == "ah":
            return lib.to_Ah(f).formula
        if kind == "botfree":
            return lib.to_bot_free(f)
        if kind == "forallfree":
            return lib.forall_free_shift(f)
        return lib.prenex_crisp_report(f)[0]
    except transforms.InadmissibleShiftError:
        return None


def _encode_transform(r):
    return {"rejected": r is None,
            "formula": None if r is None else formula.print_formula(r)}


OPS = {
    "decide": (_decide, _encode_decide),
    "prove": (_prove, _encode_prove),
    "verify": (_verify, _encode_verify),
    "entail": (_entail, _encode_entail),
    "evaluate": (_evaluate, str),
    "check_proof": (_check_proof, _encode_check),
    "classify": (_classify, lambda c: {"verdict": c.verdict, "n": c.n}),
    "transform": (_transform, _encode_transform),
}


class Loop:
    """The closed loop's record: the request and latency of each send, and
    each distinct verdict of a request with its count.

    A run makes whole passes over the requests.  The host's speed changes
    from one tenth of a second to the next, so during the passes the loop
    also sends sweeps: at most every SWEEP_GAP seconds, every request whose
    least latency so far is below SWEEP_BELOW once more.  Cheap requests so
    get many samples spread over the run.  After each sweep the loop calls
    ``between``, in which the parent measures the host's speed; each send
    records how many such pauses came before it (its slot).

    The n-th send of request k carries the tag of send id
    ``first + n * step`` (see ``renaming``), so no request is sent twice
    with the same text, even by two loops in one process.  Verdicts are
    kept with the tag of send id 0, so that one entry stands for all sends
    that returned the same verdict."""

    def __init__(self, requests, lib, sets, tracer: Tracer | None = None,
                 first: int = 0, step: int = 1, between=None):
        self.requests, self.lib, self.sets, self.tracer = requests, lib, sets, tracer
        self.calls = [OPS[r["op"]] for r in requests]
        self.first, self.step = first, step
        self.between = between
        self.sends_of = [0] * len(requests)
        self.least = [math.inf] * len(requests)
        self.sends: list[int] = []
        self.slots: list[int] = []
        self.paused = 0
        self.latencies: list[float] = []
        self.verdicts: dict = {}
        self.failed = 0
        self.passes = 0
        self.wall = 0.0
        self.last_sweep = perf_counter()

    def send(self, k: int) -> None:
        """Send request k once and record it."""
        tracer, lib, sets = self.tracer, self.lib, self.sets
        tag = renaming.tag(self.first + self.sends_of[k] * self.step)
        self.sends_of[k] += 1
        call, encode = self.calls[k]
        args = renaming.request(self.requests[k], tag)["args"]
        if tracer is not None:
            tracer.request = len(self.latencies)
        t0 = perf_counter()
        try:
            if tracer is None:
                result = call(lib, args, sets)
            else:
                with tracer.span("request"):
                    result = call(lib, args, sets)
            error = None
        except Exception as e:  # a failed request is counted, not fatal
            result, error = None, f"{type(e).__name__}: {e}"
        latency = perf_counter() - t0
        self.sends.append(k)
        self.slots.append(self.paused)
        self.latencies.append(latency)
        self.least[k] = min(self.least[k], latency)
        if error is None:
            verdict = encode(result)
        else:
            self.failed += 1
            verdict = {"error": error}
        key = (k, renaming.retag(json.dumps(verdict, sort_keys=True), renaming.tag(0)))
        self.verdicts[key] = self.verdicts.get(key, 0) + 1

    def one_pass(self) -> None:
        """Send every request once, in order, each after the previous
        verdict has returned, with sweeps in between."""
        start = perf_counter()
        for k in range(len(self.requests)):
            self.send(k)
            if perf_counter() - self.last_sweep >= SWEEP_GAP:
                for j in range(len(self.requests)):
                    if self.least[j] < SWEEP_BELOW:
                        self.send(j)
                if self.between is not None:
                    self.between()
                    self.paused += 1
                self.last_sweep = perf_counter()
        self.passes += 1
        self.wall += perf_counter() - start

    def record(self) -> dict:
        return {"sends": self.sends, "slots": self.slots, "latencies": self.latencies,
                "verdicts": [[k, json.loads(v), n] for (k, v), n in self.verdicts.items()],
                "failed": self.failed, "passes": self.passes, "wall": self.wall}


def pause() -> None:
    """Let the parent process measure the host (see ``run.py``) while this
    process waits."""
    print("pause", flush=True)
    sys.stdin.readline()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["run", "trace", "setup"], required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()

    requests = json.loads(sys.stdin.buffer.readline())
    # the truth sets V_m that entailment requests name are built here, with
    # the inputs, so no goedelset call falls in fo_entail's timed region
    sets = {m: goedelset.v_m(m) for m in range(2, 8)}
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    # whole passes keep the mix of requests the same however long the run is
    out: dict = {}
    start = perf_counter()
    if args.mode == "run":
        plain = Loop(requests, library(None, {}), sets, between=pause)
        while plain.passes < MIN_PASSES or perf_counter() - start < args.seconds:
            plain.one_pass()
    else:
        # traced and untraced passes alternate, so that changes in the
        # host's speed during the run fall on both alike
        counters = {"formula.nodes": 0}
        tracer = Tracer()
        plain = Loop(requests, library(None, {}), sets, first=0, step=2)
        traced = Loop(requests, library(tracer, counters), sets, tracer, first=1, step=2)
        while traced.passes < MIN_TRACE_PASSES or perf_counter() - start < args.seconds:
            plain.one_pass()
            traced.one_pass()
        out["traced"] = traced.record()
        out["spans"] = tracer.spans
        out["counters"] = counters
    out["run"] = plain.record()
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
