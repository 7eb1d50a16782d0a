"""Verdict benchmark for the Goedel-logics workbench.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, one table

A single closed-loop client (no threads) sends one request at a time to a
fresh interpreter that has imported the workbench from ``src/``, times each
request from its text to its verdict, and checks every verdict against a
known answer that does not come from the workbench.  ``--trace 0`` prints
the end-to-end metrics, with times scaled to a reference host speed by a
calibration this process times between sweeps; ``--trace 1`` prints the
per-layer metrics of a separate traced run.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when any verdict is wrong and 2 when the workbench's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from time import perf_counter

import checks
import oracle as O
import renaming
import spawn
import workloads as W
from spans import FAILED, LAYERS, NAME, median, percentile, self_times

IMPORT_SAMPLES = 5
# how often at most an untraced run times the set-up of a fresh
# interpreter (seconds)
SETUP_GAP = 1.5
# the calibration's formula, and the time in seconds that times are
# scaled to: its typical time on the host of the seed numbers (README.md)
CALIBRATION = "(A1 -> A2) | (A2 -> A3) | (A3 -> A4) | (A4 -> A1)"
CALIBRATION_S = 0.003


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_ms() -> dict:
    """Per-module import time from ``python -X importtime``, median of a
    few fresh interpreters: a module's cumulative time minus that of the
    workbench modules it imported itself."""
    runs: dict[str, list] = {}
    for _ in range(IMPORT_SAMPLES):
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import goedel_logics.cli"],
            capture_output=True, text=True, env=spawn.env(), cwd=spawn.ROOT, timeout=60)
        if res.returncode != 0:
            raise RuntimeError(res.stderr[-500:])
        for name, ms in parse_importtime(res.stderr).items():
            runs.setdefault(name, []).append(ms)
    return {name: median(vals) for name, vals in runs.items()}


def parse_importtime(text: str) -> dict:
    """{layer: ms} from -X importtime output.  Entries come children first,
    each child indented one level deeper than its parent."""
    stack: list = []
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        indent = len(m.group(3))
        children = []
        while stack and stack[-1][0] > indent:
            children.append(stack.pop())
        stack.append((indent, m.group(4), int(m.group(2)), children))

    def nested(node) -> int:
        """Cumulative time of the outermost workbench modules below node."""
        return sum(c[2] if c[1].startswith("goedel_logics") else nested(c)
                   for c in node[3])

    out = {}
    todo = list(stack)
    while todo:
        node = todo.pop()
        todo.extend(node[3])
        if node[1].startswith("goedel_logics."):
            out[node[1].split(".", 1)[1]] = (node[2] - nested(node)) / 1000
    return out


def verify_all(items, run: dict):
    """(number of wrong verdicts, first few reasons).  The workload process
    returns each distinct verdict of an item once, with its count; it has
    brought them to the tag of send id 0 (see ``renaming``)."""
    wrong, reasons = 0, []
    for k, verdict, count in run["verdicts"]:
        reason = checks.check(items[k], verdict, renaming.tag(0))
        if reason is not None:
            wrong += count
            if len(reasons) < 5:
                reasons.append(f"item {k} ({items[k]['op']}): {reason}")
    return wrong, reasons


def item_latencies(run: dict, calibration=None) -> list[float]:
    """Each item's median latency over its sends, in seconds.  With the
    run's calibration times, each send's latency is first scaled to the
    reference host speed by the calibration times of the pauses before
    and after it (see ``measure``)."""
    per: dict = {}
    for i, (k, t) in enumerate(zip(run["sends"], run["latencies"])):
        if calibration:
            slot = run["slots"][i]
            around = calibration[max(slot - 1, 0)] + calibration[slot]
            t *= 2 * CALIBRATION_S / around
        per.setdefault(k, []).append(t)
    return [median(ts) for ts in per.values()]


def end_to_end(run: dict, host: dict, peak_rss_kb: int) -> dict:
    """The end-to-end metrics, with times scaled to the reference host
    speed (see ``item_latencies``)."""
    items = item_latencies(run, host["calibration"])
    ms = [t * 1000 for t in items]
    setup = [t * CALIBRATION_S / c for t, c in host["setup"]]
    return {
        # one pass takes the sum of the items' latencies in the closed loop
        "verdicts_per_s": (len(items) / sum(items), "1/s"),
        "verdict_ms.p50": (percentile(ms, 0.5), "ms"),
        "verdict_ms.p90": (percentile(ms, 0.9), "ms"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def per_layer(items, out: dict, imports: dict) -> dict:
    traced, spans = out["traced"], out["spans"]
    wall = traced["wall"]
    selfs = self_times(spans)
    metrics: dict = {}
    by_name: dict = {}
    for s, self_s in zip(spans, selfs):
        entry = by_name.setdefault(s[NAME], [0, 0.0, 0])
        entry[0] += 1
        entry[1] += self_s
        entry[2] += bool(s[FAILED])
    for layer in LAYERS:
        rows = [v for name, v in by_name.items() if name.split(".")[0] == layer]
        calls = sum(r[0] for r in rows)
        self_s = sum(r[1] for r in rows)
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.share"] = (self_s / wall, "ratio")
        metrics[f"{layer}.errors"] = (sum(r[2] for r in rows), "count")
        metrics[f"{layer}.import_ms"] = (imports.get(layer, 0.0), "ms")
    metrics["cli.import_ms"] = (imports.get("cli", 0.0), "ms")

    def self_of(*names):
        return sum(by_name.get(n, (0, 0.0))[1] for n in names)

    nodes = out["counters"]["formula.nodes"]
    metrics["formula.nodes"] = (nodes, "count")
    metrics["formula.nodes_per_s"] = (_ratio(nodes, metrics["formula.self_s"][0]), "1/s")

    # (item, verdict, count) of the traced sends that returned a verdict
    done = [(items[k], v, n) for k, v, n in traced["verdicts"] if "error" not in v]

    def share(op, pred):
        """Share of the op's items whose verdict has pred: each item counts
        once, as in the end-to-end figures, however often sweeps sent it."""
        rows = [v for it, v, n in done if it["op"] == op]
        return _ratio(sum(1 for v in rows if pred(v)), len(rows))

    def total(op, value):
        return sum(value(it, v) * n for it, v, n in done if it["op"] == op)

    metrics["decide.valid_ratio"] = (share("decide", lambda v: v["valid"]), "ratio")
    metrics["herbrand.prove.self_s"] = (self_of("herbrand.prove_prenex"), "s")
    metrics["herbrand.verify.self_s"] = (
        self_of("herbrand.certificate_from_json", "herbrand.verify_certificate"), "s")
    metrics["herbrand.levels"] = (total("prove", lambda it, v: v["level"]), "count")
    metrics["herbrand.unknown_ratio"] = (
        share("prove", lambda v: v["status"] == "unknown"), "ratio")
    metrics["herbrand.disjuncts"] = (total("verify", lambda it, v: v["disjuncts"]), "count")
    metrics["semantics.space"] = (total("entail", lambda it, v: it["work"]["space"]), "count")
    metrics["semantics.holds_ratio"] = (share("entail", lambda v: v["holds"]), "ratio")
    steps = total("check_proof", lambda it, v: it["work"]["steps"])
    metrics["proofkit.steps"] = (steps, "count")
    metrics["proofkit.steps_per_s"] = (_ratio(steps, metrics["proofkit.self_s"][0]), "1/s")
    metrics["trace.overhead"] = (
        sum(item_latencies(traced)) / sum(item_latencies(out["run"])) - 1, "ratio")
    return metrics


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def calibrate() -> float:
    """Seconds the benchmark's own oracle takes for a fixed piece of work
    like the workbench's: parsing a formula and deciding it in LC."""
    t0 = perf_counter()
    for _ in range(2):
        O.lc_valid(O.parse(CALIBRATION))
    return perf_counter() - t0


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Generate the workload and run the workload process; returns the
    items and everything the summary needs.

    An untraced run pauses between its sweeps.  In each pause this process
    measures the host: the calibration every time, and at most every
    SETUP_GAP seconds also the set-up of a fresh interpreter, kept with
    the calibration time of its pause.  One more of each follows the run,
    so that every send lies between two calibrations."""
    items = W.generate(name, seed)
    payload = json.dumps([W.materialize(it) for it in items]).encode()
    imports = import_ms() if trace else {}
    proc, _ = spawn.start("trace" if trace else "run", seconds, payload)
    host: dict = {"calibration": [], "setup": []}
    try:
        last = perf_counter()
        while spawn.paused(proc):
            host["calibration"].append(calibrate())
            if perf_counter() - last >= SETUP_GAP:
                host["setup"].append((spawn.setup_seconds(payload), host["calibration"][-1]))
                last = perf_counter()
            spawn.resume(proc)
    except BaseException:
        spawn.stop(proc)
        raise
    out = spawn.finish(proc)
    if not trace:
        host["calibration"].append(calibrate())
        host["setup"].append((spawn.setup_seconds(payload), host["calibration"][-1]))
        out["host"] = host
    return items, out, imports


def summarize(items, out: dict, imports) -> tuple[dict, dict]:
    """The result object, and for the printed summary the sample counts and
    the reasons of the first wrong verdicts.  Every verdict is checked,
    the untraced ones of a traced run included."""
    trace = "traced" in out
    run = out["traced"] if trace else out["run"]
    wrong, reasons = verify_all(items, run)
    if trace:
        w2, r2 = verify_all(items, out["run"])
        wrong, reasons = wrong + w2, reasons + r2
        metrics = per_layer(items, out, imports)
    else:
        metrics = end_to_end(run, out["host"], out["peak_rss_kb"])
    result = {"correct": wrong == 0, "attempted": len(run["latencies"]),
              "failed": run["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    info = {"items": len(items), "passes": run["passes"], "wrong": wrong,
            "reasons": reasons, "host": out.get("host")}
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(W.NAMES) + ["all"])
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (spawn.SRC / "goedel_logics" / "__init__.py").is_file():
        print(f"error: no workbench sources under {spawn.SRC}", file=sys.stderr)
        return 2
    names = W.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, info = summarize(*measure(name, args.seed, args.seconds, bool(args.trace)))
        for reason in info["reasons"]:
            print(f"{name}: WRONG {reason}", file=sys.stderr)
        print(f"{name}: {result['attempted']} requests ({info['items']} items, "
              f"{info['passes']} passes and sweeps), {result['failed']} failed, "
              f"wrong_verdicts {info['wrong']}, error_rate "
              f"{result['failed'] / result['attempted']:.4g}")
        if info["host"]:
            cal = info["host"]["calibration"]
            print(f"  host: median calibration {median(cal) * 1000:.4f} ms of {len(cal)}, "
                  f"reference {CALIBRATION_S * 1000:.4f} ms")
        for key, m in result["metrics"].items():
            print(f"  {key:26} {m['value']:14.6g} {m['unit']}")
        results[name] = result
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{k}": m for name, r in results.items()
                              for k, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
