"""Reference evaluator for the statements leibnizlab checks, written apart from it.

Plain Python only: ``math.fsum`` for floating values and ``fractions.Fraction``
for exact values at p = 1 and p = inf.  Nothing here imports ``leibnizlab``,
so a fault in the library's norms cannot hide in both the program and the
check.  Instances are read in the JSON shape the program echoes: exponents are
numbers or the string ``"inf"``, a piecewise-linear function is
``{"breakpoints", "slopes", "anchor"}``.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


def exponent(tag) -> float:
    return INF if tag == "inf" else float(tag)


# -- floating reference ------------------------------------------------------

def mean(x, mu) -> float:
    return math.fsum(m * v for m, v in zip(mu, x))


def centered(x, mu) -> list[float]:
    e = mean(x, mu)
    return [v - e for v in x]


def lp(x, mu, p: float) -> float:
    """Weighted norm (sum mu_i |x_i|^p)^(1/p); max |x_i| at p = inf."""
    top = max(abs(v) for v in x)
    if top == 0.0 or p == INF:
        return top
    return top * math.fsum(m * (abs(v) / top) ** p for m, v in zip(mu, x)) ** (1.0 / p)


def variance(x, mu) -> float:
    return math.fsum(m * d * d for m, d in zip(mu, centered(x, mu)))


def phi_eval(phi: dict, x):
    """Continuous piecewise-linear function: ``anchor`` at the first breakpoint,
    ``slopes[0]`` left of it, ``slopes[k]`` between breakpoints k-1 and k."""
    bp, sl = phi["breakpoints"], phi["slopes"]
    knots = [phi["anchor"]]
    for k in range(1, len(bp)):
        knots.append(knots[-1] + sl[k] * (bp[k] - bp[k - 1]))
    out = []
    for v in x:
        if v < bp[0]:
            out.append(knots[0] + sl[0] * (v - bp[0]))
            continue
        k = len(bp) - 1
        while bp[k] > v:
            k -= 1
        out.append(knots[k] + sl[k + 1] * (v - bp[k]))
    return out


def lipschitz(phi: dict):
    return max(abs(s) for s in phi["slopes"])


def split(r: float, t: float) -> tuple[float, float]:
    """(p, q) with 1/p = t/r and 1/q = (1 - t)/r, 1/inf = 0."""
    u = 0.0 if r == INF else 1.0 / r
    up, uq = t * u, (1.0 - t) * u
    return (INF if up <= 0.0 else 1.0 / up), (INF if uq <= 0.0 else 1.0 / uq)


def leibniz(mu, f, g, r, p1, q1, p2, q2) -> tuple[float, float]:
    fg = [a * b for a, b in zip(f, g)]
    lhs = lp(centered(fg, mu), mu, r)
    rhs = lp(f, mu, p1) * lp(centered(g, mu), mu, q1) + lp(g, mu, p2) * lp(centered(f, mu), mu, q2)
    return lhs, rhs


def chain_rule(mu, f, phi, p) -> tuple[float, float]:
    return lp(centered(phi_eval(phi, f), mu), mu, p), lipschitz(phi) * lp(centered(f, mu), mu, p)


def markov_variance(mu, f, phi) -> tuple[float, float]:
    return variance(phi_eval(phi, f), mu), lipschitz(phi) ** 2 * variance(f, mu)


def square_bound(mu, f, p) -> tuple[float, float]:
    sq = [v * v for v in f]
    return lp(centered(sq, mu), mu, p), 2.0 * max(abs(v) for v in f) * lp(centered(f, mu), mu, p)


def strong_leibniz(mu, f, p) -> tuple[float, float]:
    inv = [1.0 / v for v in f]
    return lp(centered(inv, mu), mu, p), max(abs(v) for v in inv) ** 2 * lp(centered(f, mu), mu, p)


def report_values(rec: dict) -> tuple[float, float] | None:
    """(lhs, rhs) of a suite record recomputed from its echoed instance, or
    None for a record kind this evaluator does not cover."""
    inst = rec["instance"]
    name = rec["name"]
    ex = {k: exponent(v) for k, v in inst.get("exponents", {}).items()}
    if name == "leibniz_inequality":
        return leibniz(inst["mu"], inst["f"], inst["g"],
                       ex["r"], ex["p1"], ex["q1"], ex["p2"], ex["q2"])
    if name == "chain_rule":
        return chain_rule(inst["mu"], inst["f"], inst["phi"], ex["p"])
    if name == "markov_variance":
        return markov_variance(inst["mu"], inst["f"], inst["phi"])
    if name == "square_function_bound":
        return square_bound(inst["mu"], inst["f"], ex["p"])
    if name.startswith("strong_leibniz"):
        return strong_leibniz(inst["mu"], inst["f"], ex["p"])
    return None


def search_values(witness: dict, target: str, p: float) -> tuple[float, float]:
    """(lhs, rhs) of a search target at a witness, as ``search.violation`` defines it."""
    mu, f = witness["mu"], witness["f"]
    if target == "chain_rule":
        return chain_rule(mu, f, witness["phi"], p)
    if target == "strong_leibniz":
        return strong_leibniz(mu, f, p)
    if target == "square_bound":
        return square_bound(mu, f, p)
    if target == "leibniz":
        p1, q1 = split(p, witness["split1"])
        p2, q2 = split(p, witness["split2"])
        return leibniz(mu, f, witness["g"], p, p1, q1, p2, q2)
    raise ValueError(f"unknown target {target!r}")


# -- exact reference at p = 1 and p = inf -----------------------------------

def exact_measure(mu) -> list[Fraction]:
    """The 17-digit weights as exact rationals, scaled to sum exactly 1."""
    w = [Fraction(m) for m in mu]
    total = sum(w)
    return [m / total for m in w]


def exact_centered(x, mu) -> list[Fraction]:
    e = sum(m * v for m, v in zip(mu, x))
    return [v - e for v in x]


def exact_lp(x, mu, p: float) -> Fraction:
    if p == 1.0:
        return sum(m * abs(v) for m, v in zip(mu, x))
    if p == INF:
        return max(abs(v) for v in x)
    raise ValueError(f"no exact rational norm at p={p}")


def exact_values(target: str, mu, f, p: float, phi: dict | None = None) -> tuple[Fraction, Fraction]:
    """Exact (lhs, rhs) of chain_rule, strong_leibniz or square_bound at p in {1, inf}.

    ``mu`` and ``f`` are exact rationals; floats are taken at their exact value.
    """
    f = [Fraction(v) for v in f]
    if target == "chain_rule":
        q = {k: [Fraction(v) for v in phi[k]] for k in ("breakpoints", "slopes")}
        q["anchor"] = Fraction(phi["anchor"])
        vals = phi_eval(q, f)
        return exact_lp(exact_centered(vals, mu), mu, p), lipschitz(q) * exact_lp(exact_centered(f, mu), mu, p)
    if target == "strong_leibniz":
        inv = [1 / v for v in f]
        return (exact_lp(exact_centered(inv, mu), mu, p),
                max(abs(v) for v in inv) ** 2 * exact_lp(exact_centered(f, mu), mu, p))
    if target == "square_bound":
        sq = [v * v for v in f]
        return (exact_lp(exact_centered(sq, mu), mu, p),
                2 * max(abs(v) for v in f) * exact_lp(exact_centered(f, mu), mu, p))
    raise ValueError(f"no exact form for target {target!r}")
