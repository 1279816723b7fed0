"""Benchmark of leibnizlab through its public command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from any directory; the checkout is this file's parent directory, and
the program is imported from its ``src/``.  Each command of a workload runs
through ``leibnizlab.cli.main`` in a fresh interpreter (``child.py``), one at
a time.  A round is the workload's list of commands; the run repeats whole
rounds until ``--seconds`` have passed, always at least two.  The first
round's outputs are checked against ``reference.py`` (see ``checks.py``);
every later round must reproduce them byte for byte.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, with ``--trace 1`` one with the per-layer metrics: the run
then alternates untraced and traced rounds, and the spans of the traced
rounds (``tracing.py``) give the layer figures and the tracing overhead.
See README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import checks
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, "_work")

SETUP_PROBES = 5
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150

#: Budgets of the full benchmark and of the self-test.
SCALES = {
    "full": {"verify_trials": 500, "sweep_trials": 5000},
    "tiny": {"verify_trials": 40, "sweep_trials": 200},
}

#: The fault kept as a failing operation: SearchConfig accepts n * mass_floor > 1
#: and the floored simplex then yields negative "weights".  Fixed inputs, so it
#: fails the same way on every seed.
INFEASIBLE_FLOOR = {"target": "chain_rule", "n": 10, "mass_floor": 0.2, "p_grid": [1],
                    "trials": 200, "refine_steps": 5, "seed": 0, "monotone": False}


@dataclass
class Op:
    name: str
    argv: list
    work: int = 0
    config: dict | None = None
    trials: int = 0
    known_fault: bool = False

    @property
    def out(self) -> str:
        return f"out_{self.name}"


def search_op(name: str, config: dict, work: int = 0, **kw) -> Op:
    return Op(name, ["search", "--config", f"{name}.json", "--out", f"out_{name}"],
              work=work, config=config, **kw)


def workload_ops(workload: str, seed: int, scale: str = "full") -> list[Op]:
    """The commands of one round; ``work`` is what ``work_per_s`` counts."""
    s = SCALES[scale]
    if workload == "verify_all":
        t = s["verify_trials"]
        return [Op("verify", ["verify", "--suite", "all", "--trials", str(t), "--seed", str(seed),
                              "--out", "out_verify"],
                   work=sum(b(t) for b in checks.BUDGET.values()), trials=t)]
    if workload == "open_sweep":  # work: (trial, p) evaluations
        t = s["sweep_trials"]
        sweep = {"target": "chain_rule", "n": 4, "p_grid": [2, 3, "inf"], "trials": t,
                 "refine_steps": 10, "seed": seed, "monotone": False}
        return [search_op("sweep", sweep, 3 * t),
                search_op("control", dict(sweep, p_grid=[1]), t),
                search_op("infeasible_floor", INFEASIBLE_FLOOR, known_fault=True)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify_all", "open_sweep")


# -- running the program -----------------------------------------------------

def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LEIBNIZ_LAB_SEED", None)
    # bytecode is cached under the work directory, whatever the caller's setting,
    # so set-up time is that of an installed package and src/ stays untouched
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    return env


def spawn(cwd: str, tag: str, argv, trace: bool = False, calibrate: bool = False) -> dict:
    """Run child.py once in ``cwd``; its result plus spawn and exit times."""
    spec = {"root": ROOT, "argv": argv, "result": os.path.join(cwd, f"{tag}.result.json"),
            "trace": os.path.join(cwd, f"{tag}.spans") if trace else None,
            "calibrate": calibrate}
    spec_path = os.path.join(cwd, f"{tag}.spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    err_path = os.path.join(cwd, f"{tag}.stderr")
    with open(os.path.join(cwd, f"{tag}.stdout"), "wb") as out, open(err_path, "wb") as err:
        t0 = now_ns()
        proc = subprocess.run([sys.executable, CHILD, spec_path], cwd=cwd, stdin=subprocess.DEVNULL,
                              stdout=out, stderr=err, env=child_env(), timeout=CHILD_TIMEOUT_S)
        t1 = now_ns()
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"{tag}: the child interpreter exited {proc.returncode}:\n{tail}")
    with open(spec["result"], encoding="utf-8") as fh:
        res = json.load(fh)
    res.update(spawn_ns=t0, exit_ns=t1, spans_path=spec["trace"])
    return res


@dataclass
class Round:
    traced: bool
    calibration_s: float
    results: list  # one child result per op
    digests: list  # (rc, output digests) per op

    @property
    def wall_s(self) -> float:
        return sum(r["exit_ns"] - r["spawn_ns"] for r in self.results) / 1e9


def run_round(ops: list[Op], run_dir: str, traced: bool) -> Round:
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    calibration_s = spawn(run_dir, "calibrate", None, calibrate=True)["calibration_s"]
    results, digests = [], []
    for op in ops:
        if op.config is not None:
            with open(os.path.join(run_dir, f"{op.name}.json"), "w", encoding="utf-8") as fh:
                json.dump(op.config, fh)
        res = spawn(run_dir, op.name, op.argv, traced)
        out = os.path.join(run_dir, op.out)
        results.append(res)
        digests.append((res["rc"], checks.output_digests(out) if os.path.isdir(out) else {}))
    return Round(traced, calibration_s, results, digests)


def check_round(ops: list[Op], rnd: Round, run_dir: str) -> tuple[int, list[str], list[str]]:
    """Check the outputs of one round in full; return (failed ops, errors, findings).

    An error is a wrong output; the known fault only counts as failed."""
    failed, errors, findings = 0, [], []
    for op, res in zip(ops, rnd.results):
        out = os.path.join(run_dir, op.out)
        try:
            if res["rc"] == 2 and op.known_fault:
                continue  # refusing the infeasible config is the mended behaviour
            if res["rc"] != 0:
                raise checks.CheckError(f"exit code {res['rc']}")
            if op.config is None:
                findings += checks.check_verify_output(out, op.trials)
            else:
                findings += checks.check_search_output(
                    os.path.join(out, "search_result.json"), op.config)
        except (checks.CheckError, OSError, KeyError, ValueError, TypeError) as exc:
            failed += 1
            if op.known_fault:
                print(f"known fault, counted as failed: {op.name}: {exc}", file=sys.stderr)
            else:
                errors.append(f"{op.name}: {exc}")
    return failed, errors, findings


def report_bytes(ops: list[Op], run_dir: str) -> tuple[int, int]:
    """(bytes, reports) of the report files: suite records or search results."""
    size = count = 0
    for op in ops:
        out = os.path.join(run_dir, op.out)
        if op.config is None and os.path.isdir(out):
            for name in os.listdir(out):
                if name.startswith("suite_"):
                    size += os.path.getsize(os.path.join(out, name))
            count += op.work
        elif os.path.exists(os.path.join(out, "search_result.json")):
            size += os.path.getsize(os.path.join(out, "search_result.json"))
            count += 1
    return size, count


# -- metrics -----------------------------------------------------------------

END_TO_END = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def fastest(rounds: list[Round], i: int, start: str, end: str) -> float:
    """Seconds of command ``i`` in its fastest round.

    This machine stalls a running process in steps of about 50 ms, so the
    time of a command is its own cost plus a random count of stalls.  The
    fastest of several runs of the same command is the steadiest estimate
    of its cost; the median of a few carries the stall count with it.
    """
    return min(r.results[i][end] - r.results[i][start] for r in rounds) / 1e9


def round_wall(ops: list[Op], rounds: list[Round]) -> float:
    """One round's wall time: the sum of its commands' fastest times."""
    return sum(fastest(rounds, i, "spawn_ns", "exit_ns") for i in range(len(ops)))


#: Fastest calibration loop time that defines the reference speed: times are
#: reported as if every run had the calibration loop at this figure.
CALIBRATION_REF_S = 0.030


def end_to_end(ops: list[Op], rounds: list[Round], setups: list[float]) -> dict:
    """The end-to-end figures, scaled to the reference speed.

    The machine's speed drifts by tens of percent over minutes; the run's
    fastest calibration time follows the drift, and the fastest time of each
    command is divided by it (see README.md, Noise)."""
    scale = CALIBRATION_REF_S / min(r.calibration_s for r in rounds)
    busy = sum(fastest(rounds, i, "main_start_ns", "main_end_ns")
               for i, op in enumerate(ops) if op.work)
    return {
        "setup_s": statistics.median(setups) * scale,
        "wall_s": round_wall(ops, rounds) * scale,
        "work_per_s": sum(op.work for op in ops) / (busy * scale),
        "peak_rss_mb": statistics.median(max(x["maxrss_kb"] for x in r.results) / 1024
                                         for r in rounds),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
                 work_dir: str | None = None) -> dict:
    ops = workload_ops(workload, seed, scale)
    work_dir = work_dir or os.path.join(WORK, workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    probe_dir = os.path.join(work_dir, "probe")
    run_dir = os.path.join(work_dir, "run")
    os.makedirs(probe_dir)

    spawn(probe_dir, "warmup", None)  # fills the bytecode cache; not measured
    setups = []
    for i in range(SETUP_PROBES):
        res = spawn(probe_dir, f"probe{i}", None)
        setups.append((res["setup_end_ns"] - res["spawn_ns"]) / 1e9)

    rounds: list[Round] = []
    layer_rounds: list[dict] = []
    started = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - started < seconds:
        rnd = run_round(ops, run_dir, traced=trace and len(rounds) % 2 == 1)
        if not rounds:
            round_failed, errors, findings = check_round(ops, rnd, run_dir)
            size, count = report_bytes(ops, run_dir)
        elif rnd.digests != rounds[0].digests:
            errors.append(f"round {len(rounds)} did not reproduce the outputs of round 0")
        if rnd.traced:
            layer_rounds.append(layers.layer_metrics(ops, rnd.results, size, count))
        rounds.append(rnd)
        print(f"round {len(rounds)}{' traced' if rnd.traced else ''}: {rnd.wall_s:.4f} s, "
              f"calibration {rnd.calibration_s:.4f} s", file=sys.stderr)
    shutil.rmtree(run_dir, ignore_errors=True)

    for r in rounds:
        setups += [(x["setup_end_ns"] - x["spawn_ns"]) / 1e9 for x in r.results]
    plain = [r for r in rounds if not r.traced]
    if trace:
        metrics = layers.summarize(layer_rounds, round_wall(ops, plain),
                                   round_wall(ops, [r for r in rounds if r.traced]))
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(ops, plain, setups).items()}
    return {"correct": not errors, "attempted": len(rounds) * len(ops),
            "failed": len(rounds) * round_failed, "metrics": metrics,
            "errors": errors, "findings": findings}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative (it is passed to the program as its seed)")
    if not os.path.isfile(os.path.join(ROOT, "src", "leibnizlab", "cli.py")):
        print(f"error: no leibnizlab sources under {ROOT}/src", file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("errors"):
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    for line in result.pop("findings"):
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
