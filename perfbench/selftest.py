"""Self-test of the benchmark at tiny budgets, in well under a minute.

    python3 perfbench/selftest.py

Runs every workload untraced and traced at the "tiny" scale, so that every
output check, the round-to-round determinism comparison and the layer
aggregation run.  Then feeds the checkers tampered outputs and asserts that
each one is rejected.  Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import layers
import run

SEED = 0
WORK = os.path.join(run.WORK, "selftest")


def fail(message: str) -> None:
    raise SystemExit(f"self-test FAILED: {message}")


def run_workloads() -> None:
    for workload in run.WORKLOADS:
        for trace in (False, True):
            res = run.run_workload(workload, SEED, 0, trace, scale="tiny",
                                   work_dir=os.path.join(WORK, workload))
            names = set(layers.CATALOG if trace else run.END_TO_END)
            known = sum(op.known_fault for op in run.workload_ops(workload, SEED, "tiny"))
            if not res["correct"] or res["errors"]:
                fail(f"{workload} trace={trace}: {res['errors']}")
            if set(res["metrics"]) != names:
                fail(f"{workload} trace={trace}: metrics {sorted(set(res['metrics']) ^ names)}")
            if res["failed"] * len(run.workload_ops(workload, SEED, "tiny")) != known * res["attempted"]:
                fail(f"{workload}: {res['failed']} of {res['attempted']} failed, expected the known fault only")
            if not trace and not all(m["value"] > 0 for m in res["metrics"].values()):
                fail(f"{workload}: an end-to-end metric is not positive: {res['metrics']}")
            print(f"ok  {workload} trace={trace}: {res['attempted']} attempted, {res['failed']} failed")


def expect_rejected(what: str, check) -> None:
    try:
        check()
    except checks.CheckError as exc:
        print(f"ok  rejected {what}: {str(exc)[:120]}")
        return
    fail(f"the checker accepted {what}")


def tampered_copy(src: str, name: str) -> str:
    dst = os.path.join(WORK, "tampered", name)
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


def edit_jsonl(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    edit(records)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


def edit_json(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    edit(result)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def tamper_verify(out: str, trials: int) -> None:
    def nudge_lhs(recs):  # a wrong value whose slack and pass flag stay consistent
        recs[3]["lhs"] *= 1 + 1e-7
        recs[3]["slack"] = recs[3]["rhs"] - recs[3]["lhs"]

    def flip_pass(recs):
        recs[0]["pass"] = not recs[0]["pass"]

    def drop_record(recs):
        del recs[-1]

    def witness_value(recs):
        w = next(r for r in recs if r["name"] == "strong_leibniz_reciprocal_witness")
        w["lhs"], w["rhs"] = 0.57783, 0.5417
        w["slack"] = w["rhs"] - w["lhs"]

    for what, suite, edit in [("a leibniz lhs off by 1e-7", "leibniz", nudge_lhs),
                              ("a flipped pass flag", "markov", flip_pass),
                              ("a missing record", "square", drop_record),
                              ("the quoted reciprocal digits", "strong-leibniz", witness_value)]:
        dst = tampered_copy(out, "verify")
        edit_jsonl(os.path.join(dst, f"suite_{suite}.jsonl"), edit)
        expect_rejected(what, lambda: checks.check_verify_output(dst, trials))


def tamper_search(out: str, config: dict) -> None:
    def negative_weight(r):
        mu = r["witness"]["mu"]
        mu[0], mu[1] = -mu[0], mu[1] + 2 * mu[0]

    def shifted_weight(r):
        mu = r["witness"]["mu"]
        mu[0], mu[1] = mu[0] + 1e-3, mu[1] - 1e-3

    def steep_phi(r):
        r["witness"]["phi"]["slopes"][0] *= 1.5

    for what, edit in [("a negative witness weight", negative_weight),
                       ("a witness that does not give best_violation", shifted_weight),
                       ("a phi with Lipschitz constant above 1", steep_phi)]:
        dst = tampered_copy(out, "search")
        edit_json(os.path.join(dst, "search_result.json"), edit)
        expect_rejected(what, lambda: checks.check_search_output(
            os.path.join(dst, "search_result.json"), config))


def tamper_checks() -> None:
    ops = run.workload_ops("verify_all", SEED, "tiny")
    run_dir = os.path.join(WORK, "outputs", "verify_all")
    run.run_round(ops, run_dir, traced=False)
    out = os.path.join(run_dir, ops[0].out)
    checks.check_verify_output(out, ops[0].trials)
    tamper_verify(out, ops[0].trials)

    # tampering shows only on a witness that violates: a chain-rule search
    # with the leaders to find its p = 1 violation
    config = {"target": "chain_rule", "n": 3, "p_grid": [1], "trials": 200, "refine_top": 200,
              "refine_steps": 10, "seed": SEED, "monotone": False}
    ops = [run.search_op("chain_rule", config)]
    run_dir = os.path.join(WORK, "outputs", "chain_rule")
    run.run_round(ops, run_dir, traced=False)
    path = os.path.join(run_dir, ops[0].out, "search_result.json")
    checks.check_search_output(path, config)
    with open(path, encoding="utf-8") as fh:
        if not json.load(fh)["per_p"]["1.0"] > checks.VIOLATION_TOL:
            fail("the self-test's chain-rule search found no violation to tamper with")
    tamper_search(os.path.join(run_dir, ops[0].out), config)


def main() -> int:
    if not os.path.isfile(os.path.join(run.ROOT, "src", "leibnizlab", "cli.py")):
        print(f"error: no leibnizlab sources under {run.ROOT}/src", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    run_workloads()
    tamper_checks()
    shutil.rmtree(WORK, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
