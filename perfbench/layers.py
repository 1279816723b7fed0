"""Per-layer metrics from the spans of a traced round (see ``tracing.py``).

A span's self time is its duration minus the time its child spans cover.
Function figures are inclusive: the median and p99 over calls, with the call
count.  A layer the workload never calls reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

import checks

MODULES = ("cli", "suites", "sampling", "verify", "operators", "core",
           "knorms", "search", "reports", "serialize")
#: Search targets the workloads run.
TARGETS = ("chain_rule",)

#: Functions reported as median and p99 microseconds per call, and call count.
TIMED = (
    "verify.check_leibniz", "verify.check_chain_rule", "verify.check_markov_variance",
    "verify.check_square_bound", "verify.check_strong_leibniz", "verify.check_decomposition",
    "operators.laplacian_norm_bound_check", "operators.centering_identity_check",
    "operators.derivation_checks", "operators.deflated_theta",
    "sampling.rng_for", "sampling.sample_prob_vector", "sampling.sample_piecewise_linear",
    "sampling.sample_holder_triple_pair",
    "core.lp_norm", "knorms.k_norm", "reports.to_dict", "search.random_instance",
) + tuple(f"search.violation.{t}" for t in TARGETS)

#: Constructions that sampling and refinement multiply.
COUNTED = ("operators.PiecewiseLinearFn",)


def _catalog() -> dict[str, str]:
    units = {f"suites.{s}.us_per_check": "us" for s in checks.BUDGET}
    for f in TIMED:
        units.update({f"{f}.us_p50": "us", f"{f}.us_p99": "us", f"{f}.calls": "count"})
    units.update({
        "serialize.dumps.us_per_report": "us", "serialize.bytes_per_report": "B",
        "serialize.write_jsonl.s": "s", "cli.write_s": "s", "search.refine.share": "ratio",
    })
    for t in TARGETS:
        units.update({f"search.refine.{t}.ms_p50": "ms", f"search.refine.{t}.ms_p99": "ms",
                      f"search.refine.{t}.calls": "count",
                      f"search.refine.{t}.violations_per_call": "count"})
    units.update({f"{c}.calls": "count" for c in COUNTED})
    units.update({f"{m}.self_s": "s" for m in MODULES})
    units.update({"trace.spans": "count", "trace.overhead_s": "s", "trace.overhead_share": "ratio"})
    return units


CATALOG = _catalog()


def layer_metrics(ops, results, report_bytes: int, reports: int) -> dict[str, float]:
    """Per-layer figures of one traced round: ``results`` are the child
    results of ``ops``, with their span files."""
    durs: dict[str, list] = defaultdict(list)
    self_ns: dict[str, float] = defaultdict(float)
    refine_evals: dict[str, int] = defaultdict(int)
    dumps_ns = dumps_calls = write_ns = spans = 0
    search_ns = 0
    for op, res in zip(ops, results):
        n, names = res["spans"], res["span_names"]
        nid, parent, start, end = np.fromfile(res["spans_path"], dtype=np.int64).reshape(4, n)
        dur = end - start
        inner = parent >= 0
        own = dur - np.bincount(parent[inner], weights=dur[inner], minlength=n)
        parent_nid = np.where(inner, nid[np.maximum(parent, 0)], -1)
        ids = {name: i for i, name in enumerate(names)}
        for name, i in ids.items():
            mask = nid == i
            durs[name].append(dur[mask])
            self_ns[name.split(".")[0]] += float(own[mask].sum())
        for t in TARGETS:
            if f"search.refine.{t}" in ids and f"search.violation.{t}" in ids:
                refine_evals[t] += int(np.count_nonzero(
                    (nid == ids[f"search.violation.{t}"]) & (parent_nid == ids[f"search.refine.{t}"])))
        if "serialize.write_jsonl" in ids:
            mask = (nid == ids["serialize.dumps"]) & (parent_nid == ids["serialize.write_jsonl"])
            dumps_ns += int(dur[mask].sum())
            dumps_calls += int(np.count_nonzero(mask))
        # cli.write_s: from the end of the computation to the command's return
        compute = [i for name, i in ids.items()
                   if name.startswith("suites.suite_") or name == "search.search"]
        for name, c in ids.items():
            if name.startswith("cli.cmd_"):
                for idx in np.flatnonzero(nid == c):
                    done = end[np.isin(nid, compute) & (parent == idx)]
                    if done.size:
                        write_ns += int(end[idx] - done.max())
        spans += n
        if op.config is not None:
            search_ns += res["main_end_ns"] - res["main_start_ns"]

    def all_durs(name: str) -> np.ndarray:
        return np.concatenate(durs[name]) if durs[name] else np.zeros(0, dtype=np.int64)

    m: dict[str, float] = {}
    verify_op = next((op for op in ops if op.config is None), None)
    for suite, budget in checks.BUDGET.items():
        total = all_durs("suites.suite_" + suite.replace("-", "_")).sum()
        m[f"suites.{suite}.us_per_check"] = total / 1e3 / budget(verify_op.trials) if verify_op else 0.0
    for f in TIMED:
        d = all_durs(f)
        m[f"{f}.us_p50"] = float(np.median(d)) / 1e3 if d.size else 0.0
        m[f"{f}.us_p99"] = float(np.percentile(d, 99)) / 1e3 if d.size else 0.0
        m[f"{f}.calls"] = d.size
    m["serialize.dumps.us_per_report"] = dumps_ns / 1e3 / dumps_calls if dumps_calls else 0.0
    m["serialize.bytes_per_report"] = report_bytes / reports if reports else 0.0
    m["serialize.write_jsonl.s"] = all_durs("serialize.write_jsonl").sum() / 1e9
    m["cli.write_s"] = write_ns / 1e9
    refine_total = sum(all_durs(f"search.refine.{t}").sum() for t in TARGETS)
    m["search.refine.share"] = refine_total / search_ns if search_ns else 0.0
    for t in TARGETS:
        d = all_durs(f"search.refine.{t}")
        m[f"search.refine.{t}.ms_p50"] = float(np.median(d)) / 1e6 if d.size else 0.0
        m[f"search.refine.{t}.ms_p99"] = float(np.percentile(d, 99)) / 1e6 if d.size else 0.0
        m[f"search.refine.{t}.calls"] = d.size
        m[f"search.refine.{t}.violations_per_call"] = refine_evals[t] / d.size if d.size else 0.0
    for c in COUNTED:
        m[f"{c}.calls"] = all_durs(c).size
    for mod in MODULES:
        m[f"{mod}.self_s"] = self_ns[mod] / 1e9
    m["trace.spans"] = spans
    return m


def summarize(traced_rounds: list[dict], plain_wall: float, traced_wall: float) -> dict:
    """Median of each figure over the traced rounds, and the tracing overhead:
    traced minus untraced round wall time."""
    out = {}
    for name, unit in CATALOG.items():
        if name == "trace.overhead_s":
            value = traced_wall - plain_wall
        elif name == "trace.overhead_share":
            value = (traced_wall - plain_wall) / plain_wall
        else:
            value = statistics.median(r[name] for r in traced_rounds)
        out[name] = {"value": value, "unit": unit}
    return out
