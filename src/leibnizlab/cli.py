"""Command-line surface: reproducible suites, witnesses, search, dual norms.

Subcommands
-----------
verify    run a named property suite, write JSON-lines reports
examples  run the fixed counterexample witnesses and compare to references
search    run a counterexample search from a JSON config file
dualnorm  closed-form dual weighted k-norm vs the brute-force oracle
inspect   build one of the structural matrices and print it as JSON

Exit codes: 0 success, 1 check failure, 2 malformed flags or config.
Seeds resolve as: --seed flag (search: then the config's seed), else
LEIBNIZ_LAB_SEED env var, else 0.
JSON numbers are written with 17 significant digits so re-running a command
with the same flags reproduces byte-identical output (wall time excluded).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .knorms import ENUMERATION_CAP, dual_norm_bruteforce, dual_weighted_k_norm, k_norm
from .operators import PiecewiseLinearFn, deflated_theta, divided_difference_matrix, theta_matrix
from .search import WITNESSES, SearchConfig, search as run_search, witness_report
from .serialize import dumps, write_jsonl
from .suites import N_MAX_BOUNDS, SUITES
from .core import as_vector, check_exponent
from .kernels import check_seed

SUITE_CHOICES = tuple(SUITES) + ("all",)


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("LEIBNIZ_LAB_SEED")
    return int(env) if env else 0


def _parse_vector(text: str) -> np.ndarray:
    """A flat, non-empty list of finite numbers (``as_vector``), as JSON (a
    lone number is a one-element list) or separated by commas or spaces."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = [float(tok) for tok in text.replace(",", " ").split()]
    return as_vector(data if isinstance(data, list) else [data])


def _prepare_out(out: str | None) -> bool:
    """Create the --out directory, if one is asked for; False, after one
    ``error:`` line, when it cannot be made."""
    if out:
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            print(f"error: bad --out directory: {exc}", file=sys.stderr)
            return False
    return True


def _write(out_dir: str, name: str, text: str) -> str:
    """Write one output file into ``out_dir``; its path."""
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _write_manifest(out_dir: str, command: str, config: dict, seed: int, started: float, outputs: list) -> None:
    """Write ``manifest.json``; its ``wall_time_s`` is the time since ``started``."""
    manifest = {"command": command, "config": config, "seed": seed, "version": __version__,
                "wall_time_s": time.perf_counter() - started, "outputs": outputs}
    _write(out_dir, "manifest.json", dumps(manifest) + "\n")


def _suite_kwargs(args, seed: int) -> dict[str, dict]:
    """Keyword arguments for each selected suite; ValueError names a malformed flag."""
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    check_seed(seed)
    if args.tol is not None and not math.isfinite(args.tol):
        raise ValueError(f"--tol must be finite, got {args.tol}")
    p = None
    if args.p is not None:
        if args.suite not in ("strong-leibniz", "all"):
            raise ValueError(f"--p applies to the strong-leibniz suite only, got --suite {args.suite}")
        try:
            p = check_exponent(float(args.p))
        except ValueError as exc:
            raise ValueError(f"--p: {exc}") from None
    runs = {}
    for name in (SUITES if args.suite == "all" else [args.suite]):
        kwargs = {"trials": args.trials, "seed": seed}
        if args.n is not None:
            smallest, largest = N_MAX_BOUNDS[name]
            if not smallest <= args.n <= largest:
                raise ValueError(f"--n must lie in [{smallest}, {largest}] for suite {name}, got {args.n}")
            kwargs["n_max"] = args.n
        if args.tol is not None:
            kwargs["tol"] = args.tol
        if name == "strong-leibniz" and p is not None:
            kwargs["p"] = p
        runs[name] = kwargs
    return runs


def cmd_verify(args) -> int:
    try:
        seed = _resolve_seed(args.seed)
        runs = _suite_kwargs(args, seed)
    except ValueError as exc:
        print(f"error: bad verify flags: {exc}", file=sys.stderr)
        return 2
    if not _prepare_out(args.out):
        return 2
    started = time.perf_counter()
    # one suite's reports at a time: write its file, keep its summary
    summaries, outputs = [], []
    for name, kwargs in runs.items():
        o = SUITES[name](**kwargs)
        if args.out:
            outputs.append(os.path.join(args.out, f"suite_{name}.jsonl"))
            write_jsonl(outputs[-1], o.lines())
        summaries.append(({"suite": o.name, "ok": o.ok, "theorem_backed": o.theorem_backed,
                           "checks": o.trials, "failures": o.failed,
                           "worst_slack": o.worst_slack, "notes": o.notes}, o.summary()))
        del o  # before the next suite runs
    ok = all(fields["ok"] for fields, _ in summaries)

    if args.out:
        _write_manifest(args.out, "verify", {"suite": args.suite, "trials": args.trials, "n": args.n,
                                             "tol": args.tol, "p": args.p}, seed, started, outputs)

    if args.json:
        print(dumps([fields for fields, _ in summaries]))
    else:
        for fields, line in summaries:
            print(line)
            for note in fields["notes"]:
                print(f"    {note}")
    return 0 if ok else 1


def _reference_match(report, reference, tol: float | None) -> dict:
    tol = reference["tol"] if tol is None else tol
    return {
        "reference_lhs": reference["lhs"],
        "reference_rhs": reference["rhs"],
        "lhs_match": abs(report.lhs - reference["lhs"]) <= tol,
        "rhs_match": abs(report.rhs - reference["rhs"]) <= tol,
        "tolerance": tol,
    }


def cmd_examples(args) -> int:
    if args.tol is not None and not math.isfinite(args.tol):
        print(f"error: bad examples flags: --tol must be finite, got {args.tol}", file=sys.stderr)
        return 2
    if not _prepare_out(args.out):
        return 2
    records = []
    for name, witness in WITNESSES.items():
        rep = witness_report(name)
        rec = rep.to_dict()
        rec["violation_confirmed"] = not rep.passed
        rec["reference"] = _reference_match(rep, witness["reference"], args.tol)
        records.append(rec)

    if args.out:
        write_jsonl(os.path.join(args.out, "examples.jsonl"), records)

    if args.json:
        print(dumps(records))
    else:
        for rec in records:
            ref = rec["reference"]
            status = "confirmed" if rec["violation_confirmed"] else "NOT confirmed"
            match = "matches references" if ref["lhs_match"] and ref["rhs_match"] else (
                f"reference mismatch (computed lhs={rec['lhs']:.6f} rhs={rec['rhs']:.6f}, "
                f"reference lhs={ref['reference_lhs']} rhs={ref['reference_rhs']})")
            print(f"{rec['name']}: violation {status}; {match}")

    ok = all(r["violation_confirmed"] and r["reference"]["lhs_match"] and r["reference"]["rhs_match"]
             for r in records)
    return 0 if ok else 1


def cmd_search(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"the config must be a JSON object, got {raw!r}")
        if args.seed is not None or "seed" not in raw:
            raw["seed"] = _resolve_seed(args.seed)
        config = SearchConfig.from_dict(raw)
    except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: bad search config: {exc}", file=sys.stderr)
        return 2
    if not _prepare_out(args.out):
        return 2

    started = time.perf_counter()
    result = run_search(config)
    payload = {
        "config": config.to_dict(),
        "best_violation": result.best_violation,
        "best_p": result.best_p,
        "per_p": result.per_p,
        "witness": result.witness,
        "verdict": result.verdict(),
    }

    if args.out:
        per_p = "".join(f"{p},{v:.17g}\n" for p, v in payload["per_p"].items())
        outputs = [_write(args.out, "search_result.json", dumps(payload) + "\n"),
                   _write(args.out, "per_p.csv", "p,best_violation\n" + per_p)]
        if args.history_csv:
            history = "".join(f"{i},{v:.17g}\n" for i, v in enumerate(result.history))
            outputs.append(_write(args.out, "history.csv", "trial,best_violation\n" + history))
        _write_manifest(args.out, "search", config.to_dict(), config.seed, started, outputs)

    if args.json:
        print(dumps(payload))
    else:
        print(payload["verdict"])
        for p, v in payload["per_p"].items():
            print(f"  p={p}: best violation {v:.6g}")
    return 0


def cmd_dualnorm(args) -> int:
    try:
        x = _parse_vector(args.x)
        w = _parse_vector(args.w)
        k = int(args.k)
        with np.errstate(all="ignore"):
            formula = dual_weighted_k_norm(x, w, k)
            record = {"x": x.tolist(), "w": w.tolist(), "k": k, "formula": formula}
            if x.size <= ENUMERATION_CAP:
                record["oracle"] = dual_norm_bruteforce(x, w, k)
                record["difference"] = formula - record["oracle"]
            if np.all(w == w[0]) and w[0] == 1.0:
                record["constant_weight_form"] = max(k_norm(x, 1), k_norm(x, x.size) / k)
        for key in ("formula", "oracle", "constant_weight_form"):
            if not math.isfinite(record.get(key, 0.0)):
                raise ValueError(f"the {key.replace('_', ' ')} overflows: it is {record[key]}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(dumps(record))
    else:
        line = f"formula={formula:.12g}"
        if "oracle" in record:
            line += f" oracle={record['oracle']:.12g} difference={record['difference']:.3g}"
        if "constant_weight_form" in record:
            line += f" max(linf, l1/k)={record['constant_weight_form']:.12g}"
        print(line)
    return 0


def cmd_inspect(args) -> int:
    try:
        x = _parse_vector(args.x)
        with np.errstate(all="ignore"):
            if args.matrix == "theta":
                M = theta_matrix(x)
            elif args.matrix == "deflated":
                M = deflated_theta(x)
            else:
                phi = PiecewiseLinearFn.from_dict(json.loads(args.phi)) if args.phi \
                    else PiecewiseLinearFn.identity()
                M = divided_difference_matrix(x, phi)
        if not np.isfinite(M).all():  # inf - inf would read as asymmetric
            raise ValueError(f"the {args.matrix} matrix overflows: an entry is not finite")
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    record = {
        "matrix": args.matrix,
        "n": int(M.shape[0]),
        "entries": [float(v) for v in M.reshape(-1)],
        "row_sum_max_abs": float(np.max(np.abs(M.sum(axis=1)))),
        "symmetric": bool(np.max(np.abs(M - M.T)) <= 1e-12),
    }
    print(dumps(record))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibnizlab",
        description="Numerical checks for Leibniz-type inequalities on finite probability spaces",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("--suite", choices=SUITE_CHOICES, required=True)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--n", type=int, default=None, help="largest state-space size")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--p", default=None, help="exponent for the strong-leibniz sweep")
    p_verify.add_argument("--out", default=None, help="directory for JSON-lines reports")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_examples = sub.add_parser("examples", help="run the fixed counterexample witnesses")
    p_examples.add_argument("--tol", type=float, default=None,
                            help="override the reference comparison tolerances")
    p_examples.add_argument("--out", default=None)
    p_examples.add_argument("--json", action="store_true")
    p_examples.set_defaults(func=cmd_examples)

    p_search = sub.add_parser("search", help="randomized counterexample search")
    p_search.add_argument("--config", required=True, help="JSON search configuration")
    p_search.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_search.add_argument("--out", default=None)
    p_search.add_argument("--history-csv", action="store_true",
                          help="also write the per-trial best curve as CSV")
    p_search.add_argument("--json", action="store_true")
    p_search.set_defaults(func=cmd_search)

    p_dual = sub.add_parser("dualnorm", help="dual weighted k-norm, formula vs oracle")
    p_dual.add_argument("--x", required=True, help="vector, JSON or comma-separated")
    p_dual.add_argument("--w", required=True, help="weight vector (decreasing positive)")
    p_dual.add_argument("--k", required=True, type=int)
    p_dual.add_argument("--json", action="store_true")
    p_dual.set_defaults(func=cmd_dualnorm)

    p_inspect = sub.add_parser("inspect", help="print a structural matrix as JSON")
    p_inspect.add_argument("--x", required=True)
    p_inspect.add_argument("--matrix", choices=("theta", "deflated", "divided"), default="theta")
    p_inspect.add_argument("--phi", default=None, help="piecewise-linear spec as JSON")
    p_inspect.set_defaults(func=cmd_inspect)
    return parser


def _attach_values(argv: list[str]) -> list[str]:
    """Each value that starts with "-" and then a digit, ".", "inf" or "nan"
    (as ``float`` reads them, in any case) joined to its option with "="
    (``--x -0.5,1`` as ``--x=-0.5,1``): argparse reads such a value as an
    option unless it is a plain decimal, and no option here starts that way."""
    out = []
    for arg in argv:
        if out and re.fullmatch(r"--\w[\w-]*", out[-1]) and re.match(r"-([\d.]|inf|nan)", arg, re.IGNORECASE):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    # the import-time heap lives until exit: keep it out of every collection, and out of the one at exit
    if not gc.get_freeze_count():
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else list(argv)))
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())
