"""Command-line front end.

Exit codes: 0 valid/accepted/holds, 1 invalid/rejected/countermodel,
2 unknown (budget or level bound reached), 3 usage or input error.
``--json`` switches the report to a versioned machine-readable form.
Each subcommand imports the modules it runs when it runs: ``parse`` and
``decide`` load ``formula`` and ``decide`` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import decide
from .formula import GoedelError, parse, print_formula

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3

SCHEMA = "goedel-workbench/1"


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        payload.setdefault("schema", SCHEMA)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _whole_number(text: str, what: str) -> int:
    """The integer >= 0 that text writes in ASCII digits, else a usage
    error that names what was given: a budget or a flag."""
    n = decide.whole_number(text, 0)
    if n is None:
        raise GoedelError(f"{what} must be an integer >= 0, not {text!r}")
    return n


def _default_budget(args) -> int:
    text = (os.environ.get("GOEDEL_BUDGET") or None) if args.budget is None else args.budget
    return decide.BUDGET if text is None else _whole_number(text, "a budget")


FORMULA_HELP = "formula text, '-' to read it from stdin, or @path to read it from a file"


def _read_formula(source: str) -> str:
    """The formula text named by a command-line argument: '-' reads stdin
    and '@path' reads a file; any other argument is the text itself."""
    if source == "-":
        return sys.stdin.read()
    if source.startswith("@"):
        with open(source[1:]) as fh:
            return fh.read()
    return source


def _fmt_valuation(valuation) -> str:
    items = sorted((print_formula(a), str(v)) for a, v in valuation.items())
    return "{" + ", ".join(f"{a}={v}" for a, v in items) + "}"


# --- subcommands -----------------------------------------------------------


def _cmd_parse(args) -> int:
    f = parse(_read_formula(args.formula))
    _emit(args, {"formula": print_formula(f)}, print_formula(f))
    return EXIT_OK


def _cmd_eval(args) -> int:
    from . import semantics
    f = parse(_read_formula(args.formula))
    with open(args.interpretation) as fh:
        I = semantics.load_interpretation(json.load(fh))
    if isinstance(I, semantics.OmegaInterpretation):
        v = semantics.eval_omega(f, I)
    else:
        v = semantics.evaluate(f, I)
    _emit(args, {"value": str(v)}, f"value: {v}")
    return EXIT_OK


def _cmd_entail(args) -> int:
    from . import semantics
    from .goedelset import parse_set
    V = parse_set(args.truth_set)
    premises = [parse(p) for p in args.premise]
    goal = parse(_read_formula(args.formula))
    fn = semantics.one_entails_bruteforce if args.one else semantics.entails_bruteforce
    max_universe = _whole_number(args.max_universe, "--max-universe")
    result = fn(premises, goal, V, max_universe, _default_budget(args))
    if result.holds:
        _emit(args, {"result": "holds"}, "holds (no countermodel at this scale)")
        return EXIT_OK
    payload = semantics.dump_interpretation(result.countermodel)
    _emit(args, {"result": "countermodel", "interpretation": payload},
          "countermodel:\n" + json.dumps(payload, indent=2))
    return EXIT_REJECTED


def _cmd_classify(args) -> int:
    from .goedelset import classify, parse_set, print_set
    V = parse_set(args.set)
    c = classify(V)
    payload = {
        "set": print_set(V),
        "cardinality": c.cardinality,
        "size": c.size,
        "zero_isolated": c.zero_isolated,
        "zero_in_kernel": c.zero_in_kernel,
        "verdict": c.verdict,
        "n": c.n,
    }
    _emit(args, payload, c.describe())
    return EXIT_OK


def _cmd_decide(args) -> int:
    logic = args.logic.upper()
    m = decide.whole_number(args.logic[1:]) if logic[:1] == "G" else None
    if logic != "LC" and m is None:
        raise GoedelError(f'"logic" must be "LC" or "G<m>" with m >= 2, not {args.logic!r}')
    f, budget = parse(_read_formula(args.formula)), _default_budget(args)
    result = decide.decide_LC(f, budget) if logic == "LC" else decide.decide_Gm(f, m, budget)
    if result.valid:
        _emit(args, {"result": "valid", "logic": result.logic}, "valid")
        return EXIT_OK
    cm = {print_formula(a): str(v) for a, v in result.countermodel.items()}
    _emit(args, {"result": "countermodel", "logic": result.logic,
                 "countermodel": cm, "value": str(result.value)},
          f"countermodel: {_fmt_valuation(result.countermodel)} (value {result.value})")
    return EXIT_REJECTED


def _cmd_prove(args) -> int:
    from . import herbrand
    if args.verify:
        with open(args.verify) as fh:
            cert = herbrand.certificate_from_json(fh.read())
        ok = herbrand.verify_certificate(cert, _default_budget(args))
        _emit(args, {"result": "verified" if ok else "rejected"},
              "certificate verified" if ok else "certificate rejected")
        return EXIT_OK if ok else EXIT_REJECTED
    if not args.formula:
        raise GoedelError("prove needs a formula (or --verify <certificate>)")
    f = parse(_read_formula(args.formula))
    max_level = _whole_number(args.max_level, "--max-level")
    result = herbrand.prove_prenex(f, args.mode, max_level, _default_budget(args))
    if result.status == "valid":
        cert = result.certificate
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(cert.dumps())
        text = "valid\n" + "\n".join(
            f"  disjunct: {print_formula(d)}" for d in cert.disjuncts)
        _emit(args, cert.to_json(), text)
        return EXIT_OK
    order = result.open_order
    payload = {"result": result.status, "level_reached": result.level_reached,
               "open_order": [list(cls) for cls in order]}
    text = " < ".join(" = ".join(cls) for cls in order)
    if result.status == "invalid":
        _emit(args, payload, f"invalid (the Herbrand base ends at level "
                             f"{result.level_reached})\n  countermodel order: {text}")
        return EXIT_REJECTED
    _emit(args, payload, f"unknown (the instances up to level {result.level_reached} "
                         f"have a countermodel)\n  open order: {text}")
    return EXIT_UNKNOWN


def _cmd_check_proof(args) -> int:
    from . import proofkit
    with open(args.prooffile) as fh:
        text = fh.read()
    d = proofkit.parse_derivation(text, args.system)
    result = proofkit.check(d)
    if result.accepted:
        _emit(args, {"result": "accepted",
                     "conclusion": print_formula(d.conclusion)},
              f"accepted: {print_formula(d.conclusion)}")
        return EXIT_OK
    where = "" if result.step is None else f" at step {result.step}"
    _emit(args, {"result": "rejected", "step": result.step, "reason": result.reason},
          f"rejected{where}: {result.reason}")
    return EXIT_REJECTED


def _cmd_transform(args) -> int:
    from . import transforms
    f = parse(_read_formula(args.formula))
    kind = args.kind
    try:
        if kind in ("ag", "ah"):
            out = (transforms.to_Ag if kind == "ag" else transforms.to_Ah)(f)
            text = f"# {out.provenance}\n{print_formula(out.formula)}"
            payload = {"formula": print_formula(out.formula),
                       "fresh_predicates": out.fresh_predicates,
                       "fresh_functions": out.fresh_functions,
                       "provenance": out.provenance}
        elif kind == "botfree":
            g = transforms.to_bot_free(f)
            text = f"# bot-free rewriting\n{print_formula(g)}"
            payload = {"formula": print_formula(g)}
        elif kind == "forallfree":
            g = transforms.forall_free_shift(f)
            text = f"# forall-free conditional shift\n{print_formula(g)}"
            payload = {"formula": print_formula(g)}
        elif kind == "prenex":
            g, used = transforms.prenex_crisp_report(f)
            text = f"# prenex via shifts: {', '.join(used) or 'none needed'}\n{print_formula(g)}"
            payload = {"formula": print_formula(g), "shifts": list(used)}
        else:
            raise GoedelError(f"unknown transform kind {kind!r}")
    except transforms.InadmissibleShiftError as e:
        _emit(args, {"result": "rejected", "reason": str(e)}, f"rejected: {e}")
        return EXIT_REJECTED
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_embed(args) -> int:
    from .goedelset import Cantor, Interval, _rat, embed_into_perfect, parse_set
    target_set = parse_set(args.target)
    perfect = [a for a in target_set.atoms if isinstance(a, (Interval, Cantor))]
    if len(perfect) != 1:
        raise GoedelError("target must denote a single interval or cantor atom")
    points = [_rat(p) for p in args.points.split(",")]
    image = embed_into_perfect(points, perfect[0])
    _emit(args, {"image": [str(q) for q in image]},
          ", ".join(str(q) for q in image))
    return EXIT_OK


def _add_budget(p: argparse.ArgumentParser, searches: str) -> None:
    p.add_argument("--budget", help=f"points {searches} may charge in all "
                                    f"(default {decide.BUDGET}); also GOEDEL_BUDGET")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="goedel",
        description="Workbench for first-order Goedel logics")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and reprint a formula")
    p.add_argument("formula", help=FORMULA_HELP)
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula under an interpretation file")
    p.add_argument("--interpretation", "-i", required=True)
    p.add_argument("formula", help=FORMULA_HELP)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("entail", help="brute-force entailment over a finite truth set")
    p.add_argument("--truth-set", required=True)
    p.add_argument("--premise", action="append", default=[])
    p.add_argument("--max-universe", default="2")
    _add_budget(p, "the searches over the universe sizes")
    p.add_argument("--one", action="store_true", help="use 1-entailment")
    p.add_argument("formula", help=FORMULA_HELP)
    p.set_defaults(fn=_cmd_entail)

    p = sub.add_parser("classify", help="axiomatizability class of a truth-value set")
    p.add_argument("set")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("decide", help="propositional decision for LC or G<m>")
    p.add_argument("--logic", required=True, help="LC or G<m>")
    _add_budget(p, "the search")
    p.add_argument("formula", help=FORMULA_HELP)
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("prove", help="Herbrand prover for prenex formulas, one search per level")
    p.add_argument("--mode", default="uncountable",
                   help="uncountable or finite:<n>")
    p.add_argument("--max-level", default="8")
    _add_budget(p, "the levels' searches")
    p.add_argument("--out", help="write the certificate JSON here")
    p.add_argument("--verify", help="verify an existing certificate file instead")
    p.add_argument("formula", nargs="?", help=FORMULA_HELP)
    p.set_defaults(fn=_cmd_prove)

    p = sub.add_parser("check-proof", help="check a Hilbert-style derivation file")
    p.add_argument("--system", default=None, help="IL, H, H0 or H<n>")
    p.add_argument("prooffile")
    p.set_defaults(fn=_cmd_check_proof)

    p = sub.add_parser("transform", help="formula reductions")
    p.add_argument("--kind", required=True,
                   choices=["ag", "ah", "botfree", "forallfree", "prenex"])
    p.add_argument("formula", help=FORMULA_HELP)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("embed", help="embed points into a perfect set atom")
    p.add_argument("--target", required=True, help="e.g. 'cantor(0,1)' or '[1/2,1]'")
    p.add_argument("points", help="comma-separated rationals")
    p.set_defaults(fn=_cmd_embed)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except decide.BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNKNOWN
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except (GoedelError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
