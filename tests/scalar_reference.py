"""Scalar references for the five measure statements, independent of ``kernels``.

Each builds the report of one instance with ``core``'s scalar norms, as the
checkers computed it before the suites, the search and the checkers moved to
the block kernels of ``leibnizlab.kernels``.
"""

import math

import numpy as np

from leibnizlab.core import center, expectation, lp_norm, sup_norm, variance
from leibnizlab.reports import VerificationReport


def _tag(p):
    return "inf" if math.isinf(p) else float(p)


def _floats(x):
    return [float(v) for v in x]


def scalar_leibniz(mu, f, g, t1, t2, tol):
    lhs = lp_norm(f * g - expectation(f * g, mu), mu, t1.r)
    term_f = lp_norm(f, mu, t1.p) * lp_norm(center(g, mu), mu, t1.q)
    term_g = lp_norm(g, mu, t2.p) * lp_norm(center(f, mu), mu, t2.q)
    return VerificationReport.from_values("leibniz_inequality", lhs, term_f + term_g, tol, {
        "mu": mu.to_list(), "f": _floats(f), "g": _floats(g),
        "exponents": {"r": _tag(t1.r), "p1": _tag(t1.p), "q1": _tag(t1.q),
                      "p2": _tag(t2.p), "q2": _tag(t2.q)},
        "rhs_terms": [term_f, term_g]})


def scalar_chain_rule(mu, f, phi, p, tol):
    lhs = lp_norm(center(np.asarray(phi(f), dtype=float), mu), mu, p)
    rhs = phi.lipschitz * lp_norm(center(f, mu), mu, p)
    return VerificationReport.from_values("chain_rule", lhs, rhs, tol, {
        "mu": mu.to_list(), "f": _floats(f), "phi": phi.to_dict(), "exponents": {"p": _tag(p)},
        "lipschitz": phi.lipschitz, "monotone": phi.is_monotone})


def scalar_markov(mu, f, phi, tol):
    lhs = variance(np.asarray(phi(f), dtype=float), mu)
    rhs = phi.lipschitz ** 2 * variance(f, mu)
    return VerificationReport.from_values("markov_variance", lhs, rhs, tol, {
        "mu": mu.to_list(), "f": _floats(f), "phi": phi.to_dict(),
        "lipschitz": phi.lipschitz, "monotone": phi.is_monotone})


def scalar_strong_leibniz(mu, f, p, tol):
    inv = 1.0 / f
    lhs = lp_norm(center(inv, mu), mu, p)
    rhs = sup_norm(inv) ** 2 * lp_norm(center(f, mu), mu, p)
    return VerificationReport.from_values("strong_leibniz", lhs, rhs, tol, {
        "mu": mu.to_list(), "f": _floats(f), "exponents": {"p": _tag(p)}})


def scalar_square(mu, f, p, tol):
    lhs = lp_norm(center(f * f, mu), mu, p)
    rhs = 2.0 * sup_norm(f) * lp_norm(center(f, mu), mu, p)
    return VerificationReport.from_values("square_function_bound", lhs, rhs, tol, {
        "mu": mu.to_list(), "f": _floats(f), "exponents": {"p": _tag(p)}})
