"""Checks of the program's outputs against ``reference`` and the stated properties.

Every check raises ``CheckError`` on the first mismatch; a finding (a positive
value in the open region p >= 2) is returned as text, not raised, because it
would be news about mathematics rather than a fault of the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

import reference as ref

#: Records per suite as a function of the trial budget T (the CLI's defaults
#: otherwise): majorization adds every sign pattern pair for n <= 4,
#: laplacian adds a hat-matrix row per trial and a corollary row per odd
#: trial, strong-leibniz adds its fixed p = 1 witness.
BUDGET = {
    "leibniz": lambda t: t,
    "decomposition": lambda t: t,
    "majorization": lambda t: t + sum(9 ** n for n in range(1, 5)),
    "laplacian": lambda t: 2 * t + t // 2,
    "chain-rule": lambda t: t,
    "markov": lambda t: t,
    "square": lambda t: t,
    "identities": lambda t: 2 * t,
    "strong-leibniz": lambda t: t + 1,
}
EVIDENCE_SUITES = {"strong-leibniz"}

#: Exact values of the reciprocal witness mu = (1/36, 3/4, 2/9), f = (-3/10, 7/25, 19/50).
RECIPROCAL_EXACT = (Fraction(5755, 9576), Fraction(4225, 7938))

REL_TOL = 1e-9
VIOLATION_TOL = 1e-9
STRUCT_TOL = 1e-12


class CheckError(Exception):
    pass


def close(a: float, b: float, scale: float | None = None) -> bool:
    """|a - b| within REL_TOL of ``scale`` (default: the larger of |a|, |b|)."""
    scale = max(abs(a), abs(b)) if scale is None else scale
    return abs(a - b) <= REL_TOL * scale


def exponent_key(p: float) -> str:
    return "inf" if math.isinf(p) else repr(p)


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def output_digests(out_dir: str) -> dict[str, str]:
    """sha256 of every output file; the manifest without its wall time."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name == "manifest.json":
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
            manifest.pop("wall_time_s", None)
            digests[name] = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()
        else:
            digests[name] = file_digest(path)
    return digests


# -- verify --suite all ------------------------------------------------------

def _check_reciprocal_witness(rec: dict) -> None:
    inst = rec["instance"]
    mu = [Fraction(v).limit_denominator(100) for v in inst["mu"]]
    f = [Fraction(v).limit_denominator(100) for v in inst["f"]]
    if [float(v) for v in mu] != inst["mu"] or [float(v) for v in f] != inst["f"]:
        raise CheckError(f"reciprocal witness is not the stated rational instance: {inst}")
    lhs, rhs = ref.exact_values("strong_leibniz", mu, f, 1.0)
    if (lhs, rhs) != RECIPROCAL_EXACT:
        raise CheckError(f"reciprocal witness recomputes to {lhs}, {rhs}, expected {RECIPROCAL_EXACT}")
    if not (close(rec["lhs"], float(lhs)) and close(rec["rhs"], float(rhs))):
        raise CheckError(f"reciprocal witness reports {rec['lhs']}, {rec['rhs']}; exact {lhs}, {rhs}")
    if rec["pass"] or not inst.get("expected_failure"):
        raise CheckError("reciprocal witness must be an expected failure")


def check_verify_output(out_dir: str, trials: int) -> list[str]:
    """Check every suite file of ``verify --suite all``; return findings."""
    findings, witness_seen = [], False
    for suite, budget in BUDGET.items():
        path = os.path.join(out_dir, f"suite_{suite}.jsonl")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if len(lines) != budget(trials):
            raise CheckError(f"{path}: {len(lines)} records, budget gives {budget(trials)}")
        for line in lines:
            rec = json.loads(line)
            where = f"{path}: {rec['name']} seed={rec['seed']}"
            if rec["slack"] != rec["rhs"] - rec["lhs"]:
                raise CheckError(f"{where}: slack {rec['slack']} != rhs - lhs")
            if rec["pass"] != (rec["slack"] >= -rec["tolerance"]):
                raise CheckError(f"{where}: pass flag disagrees with slack")
            expected = rec["instance"].get("expected_failure", False)
            if not rec["pass"] and not expected:
                if suite not in EVIDENCE_SUITES:
                    raise CheckError(f"{where}: theorem-backed check failed")
                findings.append(f"FINDING {where}: lhs {rec['lhs']} > rhs {rec['rhs']}, "
                                f"instance {json.dumps(rec['instance'])}")
            if rec["name"] == "strong_leibniz_reciprocal_witness":
                _check_reciprocal_witness(rec)
                witness_seen = True
            values = ref.report_values(rec)
            if values is not None:
                lhs, rhs = values
                if not (close(rec["lhs"], lhs) and close(rec["rhs"], rhs)):
                    raise CheckError(f"{where}: reports ({rec['lhs']}, {rec['rhs']}), "
                                     f"reference gives ({lhs}, {rhs})")
    if not witness_seen:
        raise CheckError("the reciprocal witness record is missing")
    return findings


# -- search --config ---------------------------------------------------------

def _certify(target: str, witness: dict, p: float) -> None:
    """Exact lhs > rhs on the witness, its weights scaled to sum exactly 1."""
    mu = ref.exact_measure(witness["mu"])
    lhs, rhs = ref.exact_values(target, mu, witness["f"], p, witness.get("phi"))
    if not lhs > rhs:
        raise CheckError(f"{target} witness at p={p} does not violate in exact arithmetic: "
                         f"lhs - rhs = {float(lhs - rhs)}")


def check_search_output(path: str, config: dict) -> list[str]:
    """Check ``search_result.json`` for ``config``; return findings."""
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    target = config["target"]
    witness = result["witness"]
    best = result["best_violation"]
    mu = witness["mu"]
    if len(mu) != config["n"] or min(mu) <= 0.0 or abs(math.fsum(mu) - 1.0) > STRUCT_TOL:
        raise CheckError(f"witness mu is not a probability measure on {config['n']} atoms "
                         f"(min weight {min(mu)}, sum {math.fsum(mu)})")
    if "phi" in witness and abs(ref.lipschitz(witness["phi"]) - 1.0) > STRUCT_TOL:
        raise CheckError(f"witness phi has Lipschitz constant {ref.lipschitz(witness['phi'])}, not 1")
    p = ref.exponent(witness["p"])
    lhs, rhs = ref.search_values(witness, target, p)
    if not close(lhs - rhs, best, max(abs(lhs), abs(rhs))) or witness["violation"] != best:
        raise CheckError(f"best_violation {best} at p={p}; reference gives {lhs - rhs}")
    per_p = result["per_p"]
    if per_p.get(exponent_key(p)) != best or best != max(per_p.values()):
        raise CheckError(f"per_p {per_p} disagrees with best_violation {best} at p={p}")
    if (best > VIOLATION_TOL) != result["verdict"].startswith("violation found"):
        raise CheckError(f"verdict {result['verdict']!r} disagrees with best_violation {best}")

    findings = []
    if target in ("leibniz", "square_bound") and best > VIOLATION_TOL:
        raise CheckError(f"{target} is a theorem but the search reports {best} at p={p}")
    for key, v in per_p.items():
        if ref.exponent(key) >= 2.0 and v > VIOLATION_TOL:
            findings.append(f"FINDING {target} p={key}: violation {v}"
                            + (f", witness {json.dumps(witness)}" if key == exponent_key(p) else ""))
    if best > VIOLATION_TOL and p in (1.0, math.inf) and target != "leibniz":
        _certify(target, witness, p)
    return findings
