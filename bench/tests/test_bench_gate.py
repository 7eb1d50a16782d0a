"""The correctness gate: wrong verdicts are caught and fail the run."""

import json

import pytest

import checks
import oracle as O
import renaming
import run
import workloads as W


def items(name):
    return W.generate(name, W.DEFAULT_SEED)


def first(name, pred):
    return next(it for it in items(name) if pred(it))


def gm_invalid(it):
    return it["op"] == "decide" and it["args"]["logic"] != "LC" \
        and not it["expect"]["valid"]


def lc_invalid(it):
    return it["op"] == "decide" and it["args"]["logic"] == "LC" \
        and not it["expect"]["valid"]


def right_decide(it):
    return {"valid": False, "countermodel": it["expect"]["countermodel"],
            "value": it["expect"]["value"]}


def test_known_answer_passes():
    it = first("qf_decide", gm_invalid)
    assert checks.check(it, right_decide(it)) is None


def test_wrong_validity_is_caught():
    it = first("qf_decide", gm_invalid)
    assert "known answer" in checks.check(it, {"valid": True, "countermodel": None,
                                               "value": None})


def test_gm_countermodel_must_be_the_first():
    it = first("qf_decide", lambda i: gm_invalid(i) and i["args"]["logic"] != "G2")
    f = O.parse(it["args"]["formula"])
    m = int(it["args"]["logic"][1:])
    first_cm = it["expect"]["countermodel"]
    # a genuine countermodel that is not the lexicographically first
    letters = O.sorted_atoms(f)
    import itertools
    for choice in itertools.product(O.gm_values(m), repeat=len(letters)):
        cm = {O.show(a): v for a, v in zip(letters, choice)}
        value = O.eval_prop(f, cm)
        if value < 1 and {k: str(v) for k, v in cm.items()} != first_cm:
            break
    verdict = {"valid": False, "countermodel": {k: str(v) for k, v in cm.items()},
               "value": str(value)}
    assert "not the first" in checks.check(it, verdict)


def all_ones(it):
    return {O.show(a): 1 for a in O.atoms(O.parse(it["args"]["formula"]))}


def test_countermodel_must_evaluate_below_one():
    # an invalid formula that the valuation with every atom at 1 satisfies
    it = first("qf_decide", lambda i: lc_invalid(i) and O.eval_prop(
        O.parse(i["args"]["formula"]), all_ones(i)) == 1)
    ones = all_ones(it)
    verdict = {"valid": False, "countermodel": {k: "1" for k in ones}, "value": "1"}
    reason = checks.check(it, verdict)
    assert "not below 1" in reason


def test_entailment_countermodel_is_rechecked():
    it = first("fo_entail", lambda i: i["op"] == "entail" and i["expect"]["holds"])
    assert "known answer" in checks.check(it, {"holds": False, "countermodel": None})


def test_proof_rejection_step_is_checked():
    it = first("proof_check", lambda i: i["op"] == "check_proof"
               and not i["expect"]["accepted"])
    wrong = {"accepted": False, "step": it["expect"]["step"] + 1}
    assert checks.check(it, wrong) is not None
    assert checks.check(it, dict(it["expect"])) is None


C = run.CALIBRATION_S
HOST = {"calibration": [C, C], "setup": [(0.1, C)]}


def fake_run(its, verdicts):
    return {"sends": [k for k, _ in verdicts], "slots": [0] * len(verdicts),
            "latencies": [0.001 * (i + 1) for i in range(len(verdicts))],
            "verdicts": [[k, v, 1] for k, v in verdicts],
            "failed": 0, "passes": 1, "wall": 1.0}


def test_one_wrong_verdict_fails_the_run(monkeypatch, capsys):
    its = items("qf_decide")
    verdicts = []
    for k, it in enumerate(its):
        if it["expect"]["valid"]:
            verdicts.append([k, {"valid": True, "countermodel": None, "value": None}])
        elif it["args"]["logic"] == "LC":
            verdicts.append([k, {"valid": True, "countermodel": None, "value": None}])
        else:
            verdicts.append([k, right_decide(it)])
    out = {"run": fake_run(its, verdicts), "peak_rss_kb": 20000, "host": HOST}
    result, info = run.summarize(its, out, {})
    wrong = sum(1 for it in its if it["args"]["logic"] == "LC" and not it["expect"]["valid"])
    assert wrong > 0 and info["wrong"] == wrong
    assert result["correct"] is False
    assert set(result) == {"correct", "attempted", "failed", "metrics"}

    monkeypatch.setattr(run, "measure", lambda *a: (its, out, {}))
    assert run.main(["--workload", "qf_decide", "--seconds", "1"]) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


def right_verdict(it):
    if it["expect"]["valid"]:
        return {"valid": True, "countermodel": None, "value": None}
    if it["args"]["logic"] != "LC":
        return right_decide(it)
    f = O.parse(it["args"]["formula"])
    cm, value, _ = O.gm_first_countermodel(f, len(O.atoms(f)) + 2)
    return {"valid": False, "countermodel": {k: str(v) for k, v in cm.items()},
            "value": str(value)}


def test_failed_requests_are_counted_not_wrong():
    its = items("qf_decide")
    verdicts = [[k, right_verdict(it)] for k, it in enumerate(its)]
    verdicts[0][1] = {"error": "TooManyAtomsError: budget"}
    out = {"run": fake_run(its, verdicts), "peak_rss_kb": 20000, "host": HOST}
    out["run"]["failed"] = 1
    result, info = run.summarize(its, out, {})
    assert info["wrong"] == 0
    assert result["correct"] is True and result["failed"] == 1



def tagged(verdict, t):
    return {**verdict, "countermodel": {t + k: x for k, x in verdict["countermodel"].items()}}


def test_tagged_verdicts_are_checked_against_untagged_answers():
    # the workload process keeps verdicts under the tag of send id 0
    it = first("qf_decide", lambda i: gm_invalid(i) and i["args"]["logic"] != "G2")
    right = right_decide(it)
    wrong = dict(right, countermodel={k: "1" for k in right["countermodel"]})
    t = renaming.tag(0)
    record = {"verdicts": [[0, tagged(right, t), 40], [0, tagged(wrong, t), 2]]}
    count, reasons = run.verify_all([it], record)
    assert count == 2 and reasons[0].startswith("item 0")


def test_times_are_scaled_to_the_reference_host_speed():
    its = items("qf_decide")
    verdicts = [[k, right_verdict(it)] for k, it in enumerate(its)]
    out = {"run": fake_run(its, verdicts), "peak_rss_kb": 20000, "host": HOST}
    at_reference, _ = run.summarize(its, out, {})
    # the same sends three times over, on a host that turns twice as slow:
    # the sends after the first pause lie between calibrations of 1 and 2
    # (times 1.5), those after the second between calibrations of 2 and 2
    n, latencies = len(verdicts), out["run"]["latencies"]
    thrice = {**out["run"], "sends": out["run"]["sends"] * 3,
              "slots": [0] * n + [1] * n + [2] * n,
              "latencies": [f * t for f in (1, 1.5, 2) for t in latencies],
              "verdicts": [[k, v, 3] for k, v in verdicts]}
    host = {"calibration": [C, 2 * C, 2 * C], "setup": [(0.1, C), (0.2, 2 * C), (0.2, 2 * C)]}
    scaled, _ = run.summarize(its, {**out, "run": thrice, "host": host}, {})
    for key in ("verdicts_per_s", "verdict_ms.p50", "verdict_ms.p90", "setup_s"):
        assert scaled["metrics"][key]["value"] == \
            pytest.approx(at_reference["metrics"][key]["value"]), key
    assert at_reference["metrics"]["setup_s"]["value"] == pytest.approx(0.1)
