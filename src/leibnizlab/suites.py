"""Randomized property suites, one per verified statement.

Each suite draws seeded random instances and returns the full report list;
``SuiteOutcome`` summarizes failures and the worst slack.  Suites tagged
``theorem_backed`` must never fail; the strong-Leibniz sweep is evidence
gathering, so its failures are informational.  The inverse bound it checks
fails at p = 1 (its fixed witness) and holds at p = 2 and p = inf (short
proofs in the ``search`` module docstring); the open exponents are (1, 2)
and (2, inf).

Loop contract: every suite runs through ``_run``, the one trial loop.  Each
suite has one stream id; trial t draws n from [smallest, n_max]
(``N_MAX_BOUNDS``) first, then the rest of its instance (``draw``), all from
the generator ``default_rng((seed, stream, t))``.  ``kernels.streams``
derives these generators a block of trials at a time and equals
``default_rng`` bit for bit; where a numpy seeds differently it builds each
one with ``default_rng`` instead.  The loop holds the draws of up to
``BLOCK`` trials, groups them by n and hands each group to the suite's
``evaluate``: the five suites that sample a measure and majorization
evaluate a group as stacked arrays (``kernels`` and ``_majorization_block``),
the other three check it row by row with their one-instance checkers; every
report equals checking its trial alone.  The laplacian suite draws an n x n
matrix per trial, so its blocks hold at most max(1, MAJORIZATION_BLOCK //
n_max**2) trials.  Reports come in trial order, each tagged with its trial
index as ``seed`` (the majorization sign patterns and the strong-Leibniz
fixed witness follow the trials untagged).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import verify
from .core import IDENTITY_TOL, INEQUALITY_TOL, check_exponent
from .kernels import BLOCK, Block, dirichlet_rows, sample_phi, streams
from .knorms import k_norm_evaluator, lp_evaluator
from .operators import (
    centering_identity_check,
    derivation_checks,
    laplacian_norm_bound_check,
    lhat_row_col_bounds,
    max_offdiagonal,
    monotone_laplacian,
)
from .reports import VerificationReport
from .search import reciprocal_witness_report
from .sampling import (
    EXPONENT_GRID,
    MASS_FLOOR,
    MAX_ATOMS,
    sample_distinct_points,
    sample_holder_triple_pair,
    sample_laplacian,
    sample_mean_zero,
    sample_piecewise_linear,
    sample_vector,
)

_GRID = np.array(EXPONENT_GRID)

#: Symmetric norms used wherever a statement quantifies over all of them.
NORM_FAMILY = tuple(
    [("l1", lp_evaluator(1.0)), ("l1.5", lp_evaluator(1.5)), ("l2", lp_evaluator(2.0)),
     ("l3", lp_evaluator(3.0)), ("linf", lp_evaluator(np.inf))]
)

#: Smallest and largest ``n_max`` of each suite; those that sample a measure stop
#: at MAX_ATOMS.  ``SUITES`` takes its names and their order from here.
N_MAX_BOUNDS = {
    "leibniz": (2, MAX_ATOMS), "decomposition": (2, math.inf), "majorization": (1, math.inf),
    "laplacian": (2, math.inf), "chain-rule": (2, MAX_ATOMS), "markov": (2, MAX_ATOMS),
    "square": (2, MAX_ATOMS), "identities": (2, math.inf), "strong-leibniz": (2, MAX_ATOMS),
}


@dataclass
class SuiteOutcome:
    name: str
    reports: list[VerificationReport]
    theorem_backed: bool = True
    elapsed: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return len(self.reports)

    @property
    def failures(self) -> list[VerificationReport]:
        return [r for r in self.reports
                if not r.passed and not r.instance.get("expected_failure", False)]

    @property
    def worst_slack(self) -> float:
        return min((r.slack for r in self.reports), default=0.0)

    @property
    def ok(self) -> bool:
        return not self.theorem_backed or not self.failures

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        kind = "theorem" if self.theorem_backed else "evidence"
        return (f"[{verdict}] suite {self.name} ({kind}): {self.trials} checks, "
                f"{len(self.failures)} failures, worst slack {self.worst_slack:.3g}, "
                f"{self.elapsed:.2f}s")


def _norm_pool(rng: np.random.Generator, n: int):
    name, ev = NORM_FAMILY[rng.integers(len(NORM_FAMILY))]
    if rng.random() < 0.4:
        k = int(rng.integers(1, n + 1))
        return f"k{k}", k_norm_evaluator(k)
    return name, ev


def _run(name: str, stream: int, draw, evaluate, trials: int, n_max: int, seed: int,
         theorem_backed: bool = True, block: int = 0) -> SuiteOutcome:
    """The trial loop of every suite.

    Trial t takes the generator ``default_rng((seed, stream, t))`` and draws
    n from it first; ``draw(rng, n, t)`` then returns the trial's other draws
    as a tuple, in the order it makes them.  After every ``block`` trials
    (BLOCK if 0) and after the last, the held trials are grouped by n and
    ``evaluate(n, columns)`` (``columns`` holds one list per tuple position)
    returns one sequence of reports per trial of the group, in order.  The
    reports come out in trial order, each tagged with its trial index as
    ``seed``.  ``elapsed`` covers the loop.
    """
    start = time.perf_counter()
    low, size = N_MAX_BOUNDS[name][0], block or BLOCK
    reports, held = [], {}
    # kernels.streams reuses one generator: draw from it before the next trial
    for t, rng in enumerate(streams((seed, stream), 0, trials)):
        n = int(rng.integers(low, n_max + 1))
        held.setdefault(n, []).append((t, draw(rng, n, t)))
        if (t + 1) % size == 0 or t == trials - 1:
            evaluated = {}
            for n, rows in held.items():
                ts, drawn = zip(*rows)
                evaluated.update(zip(ts, evaluate(n, [list(c) for c in zip(*drawn)])))
            for i in sorted(evaluated):
                for rep in evaluated[i]:
                    rep.seed = i
                    reports.append(rep)
            held = {}
    return SuiteOutcome(name, reports, theorem_backed, time.perf_counter() - start)


def _measure(n: int, expo: list) -> np.ndarray:
    """``sample_prob_vector`` rows from each row's n standard exponentials."""
    if n * MASS_FLOOR >= 1.0:
        raise ValueError(f"mass floor {MASS_FLOOR} infeasible for {n} atoms")
    return MASS_FLOOR + (1.0 - n * MASS_FLOOR) * dirichlet_rows(np.array(expo))


def _uniform(rows: list) -> np.ndarray:
    """``uniform(-1, 1)`` rows from their ``random()`` draws."""
    return -1.0 + 2.0 * np.array(rows)


def _phi_draws(rng, max_breakpoints: int, signed: bool = False) -> tuple[int, np.ndarray]:
    """The draws of ``sample_piecewise_linear``: the breakpoint count m, then
    m + m + 1 + 1 uniforms (one more, the sign, before the anchor if ``signed``),
    at the head of a zero row of width 2 * max_breakpoints + 2 (+ 1 if ``signed``)."""
    m = int(rng.integers(1, max_breakpoints + 1))
    row = np.zeros(2 * max_breakpoints + 2 + signed)
    rng.random(out=row[:2 * m + 2 + signed])
    return m, row


def suite_leibniz(trials: int = 10_000, n_max: int = 8, seed: int = 0,
                  tol: float = INEQUALITY_TOL) -> SuiteOutcome:
    """Product-rule inequality on random measures, vectors, and triple pairs."""
    def draw(rng, n, t):
        expo, f, g = rng.standard_exponential(n), rng.random(n), rng.random(n)
        t1, t2 = sample_holder_triple_pair(rng)
        return expo, f, g, (t1.r, t1.p, t1.q, t2.p, t2.q)

    def evaluate(n, columns):
        expo, f, g, exponents = columns
        block = Block(_measure(n, expo), _uniform(f), _uniform(g))
        return zip(verify.leibniz_reports(block, np.array(exponents).T, tol))
    return _run("leibniz", 0, draw, evaluate, trials, n_max, seed)


def suite_decomposition(trials: int = 1000, n_max: int = 10, seed: int = 0,
                        tol: float = IDENTITY_TOL) -> SuiteOutcome:
    def draw(rng, n, t):
        return sample_vector(rng, n), sample_vector(rng, n)

    def evaluate(n, columns):
        return [[verify.check_decomposition(f, g, tol)] for f, g in zip(*columns)]
    return _run("decomposition", 1, draw, evaluate, trials, n_max, seed)


#: Matrix entries per evaluation block of the majorization suite.  A block of
#: n-dimensional instances has max(1, MAJORIZATION_BLOCK // n**2) rows, which
#: bounds its stacked (rows, n, n) arrays at any n; at n = 4 that is 243 rows,
#: three x-patterns of the exhaustive sweep.  Blocks of 729 rows ran no
#: faster and raised the peak RSS of ``verify --suite all`` by about 0.5 MB.
MAJORIZATION_BLOCK = 243 * 16


def _majorization_block(X: np.ndarray, Y: np.ndarray, tol: float) -> list[VerificationReport]:
    """One majorization report per row of X, Y (shape (B, n)), in row order.

    Each row repeats the per-instance operations of ``deflated_theta(x) @ y``
    and ``weak_majorizes`` on stacked arrays, so every report matches the
    one-instance computation bit for bit.
    """
    n = X.shape[1]
    theta = (X[:, :, None] + X[:, None, :]) / (2.0 * n)
    diag = np.arange(n)
    theta[:, diag, diag] = 0.0
    theta[:, diag, diag] = -theta.sum(axis=2)
    image = np.abs(np.matmul(theta - X[:, None, :] / n, Y[:, :, None])[:, :, 0])
    # bound is already non-increasing (a product of two non-increasing
    # non-negative rows), so its partial sums need no second sort
    bound = np.sort(np.abs(X), axis=1)[:, ::-1] * np.sort(np.abs(Y), axis=1)[:, ::-1]
    lhs = np.cumsum(np.sort(image, axis=1)[:, ::-1], axis=1)
    rhs = np.cumsum(bound, axis=1)
    passed = np.all(lhs <= rhs + tol, axis=1).tolist()
    worst = np.max(lhs - rhs, axis=1).tolist()
    return [VerificationReport("deflated_theta_majorization", w, 0.0, -w, ok, tol, {"x": x, "y": y})
            for w, ok, x, y in zip(worst, passed, X.tolist(), Y.tolist())]


def _majorization_reports(X: np.ndarray, Y: np.ndarray, tol: float) -> list[VerificationReport]:
    """``_majorization_block`` over blocks of at most MAJORIZATION_BLOCK matrix entries."""
    rows = max(1, MAJORIZATION_BLOCK // X.shape[1] ** 2)
    reports = []
    for start in range(0, len(X), rows):
        reports += _majorization_block(X[start:start + rows], Y[start:start + rows], tol)
    return reports


def suite_majorization(trials: int = 1000, n_max: int = 8, seed: int = 0,
                       tol: float = IDENTITY_TOL, exhaustive_n: int = 4) -> SuiteOutcome:
    """|deflated_theta(x) y| <_w |x|down * |y|down, random plus exhaustive signs.

    Trial t draws n, x and y from stream 2; each group of trials with the same
    n is evaluated as stacked blocks of at most ``MAJORIZATION_BLOCK`` matrix
    entries, as are the sign patterns (all of {-1, 0, 1}^n x {-1, 0, 1}^n for
    n <= exhaustive_n, a few x at a time).  Reports keep their order (trials
    first, then patterns) and match the scalar computation bit for bit.
    """
    start = time.perf_counter()

    def draw(rng, n, t):
        return rng.normal(size=n), rng.normal(size=n)

    def evaluate(n, columns):
        return zip(_majorization_reports(np.array(columns[0]), np.array(columns[1]), tol))
    outcome = _run("majorization", 2, draw, evaluate, trials, n_max, seed)
    for n in range(1, exhaustive_n + 1):
        patterns = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n)))
        m = len(patterns)
        step = max(1, MAJORIZATION_BLOCK // (n * n * m))  # x-patterns per block
        for i in range(0, m, step):
            outcome.reports += _majorization_reports(np.repeat(patterns[i:i + step], m, axis=0),
                                                     np.tile(patterns, (min(step, m - i), 1)), tol)
    outcome.elapsed = time.perf_counter() - start
    return outcome


def suite_laplacian(trials: int = 1000, n_max: int = 8, seed: int = 0,
                    tol: float = INEQUALITY_TOL) -> SuiteOutcome:
    """Conditional norm bound for Laplacians, plus the hat-matrix operator bounds.

    Half the instances are random Laplacians, half divided-difference matrices
    of random monotone functions (the chain-rule corollary uses Lip(phi) on
    the right-hand side, which dominates the off-diagonal maximum).
    """
    def draw(rng, n, t):
        norm_name, norm = _norm_pool(rng, n)
        x = sample_mean_zero(rng, n)
        if t % 2:
            pts = sample_distinct_points(rng, n)
            phi = sample_piecewise_linear(rng, 4, monotone=True)
            return norm_name, norm, x, monotone_laplacian(pts, phi), pts, phi
        return norm_name, norm, x, sample_laplacian(rng, n), None, None

    def evaluate(n, columns):
        for norm_name, norm, x, L, pts, phi in zip(*columns):
            rep = laplacian_norm_bound_check(L, x, norm, tol)
            rep.instance["norm"] = norm_name
            reports = [rep]
            if phi is not None:
                # corollary form: n * Lip(phi) dominates n * max off-diagonal
                reports.append(VerificationReport.from_values(
                    "monotone_divided_difference_bound", rep.lhs, n * phi.lipschitz * float(norm(x)), tol,
                    {"n": n, "lipschitz": phi.lipschitz, "norm": norm_name, "x": [float(v) for v in x],
                     "points": [float(v) for v in pts], "phi": phi.to_dict()}))
            col, row = lhat_row_col_bounds(L)
            reports.append(VerificationReport.from_values(
                "hat_matrix_operator_bounds", max(col, row), n * max_offdiagonal(L), 1e-10,
                {"n": n, "col": col, "row": row}))
            yield reports
    return _run("laplacian", 3, draw, evaluate, trials, n_max, seed,
                block=max(1, MAJORIZATION_BLOCK // n_max ** 2))


def suite_chain_rule(trials: int = 10_000, n_max: int = 8, seed: int = 0,
                     tol: float = INEQUALITY_TOL) -> SuiteOutcome:
    """Monotone Lipschitz composition bound on random measures and exponents."""
    def draw(rng, n, t):
        return (rng.standard_exponential(n), rng.random(n), *_phi_draws(rng, 6, signed=True),
                int(rng.integers(len(EXPONENT_GRID))))

    def evaluate(n, columns):
        expo, f, counts, knot_u, k = columns
        phi = sample_phi(np.array(knot_u), np.array(counts), True, signed=True)
        block = Block(_measure(n, expo), _uniform(f), **phi)
        return zip(verify.chain_rule_reports(block, _GRID[k], tol))
    return _run("chain-rule", 4, draw, evaluate, trials, n_max, seed)


def suite_markov(trials: int = 10_000, n_max: int = 8, seed: int = 0,
                 tol: float = INEQUALITY_TOL) -> SuiteOutcome:
    """Variance contraction under arbitrary (non-monotone) Lipschitz maps."""
    def draw(rng, n, t):
        return rng.standard_exponential(n), rng.random(n), *_phi_draws(rng, 6)

    def evaluate(n, columns):
        expo, f, counts, knot_u = columns
        block = Block(_measure(n, expo), _uniform(f), **sample_phi(np.array(knot_u), np.array(counts), False))
        return zip(verify.markov_reports(block, tol))
    return _run("markov", 5, draw, evaluate, trials, n_max, seed)


def suite_square(trials: int = 10_000, n_max: int = 8, seed: int = 0,
                 tol: float = INEQUALITY_TOL) -> SuiteOutcome:
    def draw(rng, n, t):
        return rng.standard_exponential(n), rng.random(n), int(rng.integers(len(EXPONENT_GRID)))

    def evaluate(n, columns):
        expo, f, k = columns
        return zip(verify.square_bound_reports(Block(_measure(n, expo), _uniform(f)), _GRID[k], tol))
    return _run("square", 6, draw, evaluate, trials, n_max, seed)


def suite_identities(trials: int = 1000, n_max: int = 8, seed: int = 0,
                     tol: float = IDENTITY_TOL) -> SuiteOutcome:
    """Centering identity and the derivation dictionary on random instances."""
    def draw(rng, n, t):
        pts = sample_distinct_points(rng, n)
        phi = sample_piecewise_linear(rng, 6, monotone=bool(rng.random() < 0.5))
        return pts, phi, sample_vector(rng, n), sample_vector(rng, n)

    def evaluate(n, columns):
        return [[centering_identity_check(pts, phi, tol), derivation_checks(f, g, tol)]
                for pts, phi, f, g in zip(*columns)]
    return _run("identities", 7, draw, evaluate, trials, n_max, seed)


def suite_strong_leibniz(trials: int = 2000, n_max: int = 8, seed: int = 0,
                         p: float = 2.0, tol: float = INEQUALITY_TOL) -> SuiteOutcome:
    """Evidence sweep for the inverse bound at a fixed exponent.

    It fails at p = 1 (a fixed failing witness is included, marked expected)
    and holds at p = 2 and p = inf; for p >= 2 no violation is expected, but
    a hit would be reported prominently rather than asserted away.
    """
    p = check_exponent(p)

    def draw(rng, n, t):
        return rng.standard_exponential(n), rng.uniform(0.05, 1.0, n), rng.random(n)

    def evaluate(n, columns):
        expo, mag, sign_u = columns
        f = np.array(mag) * np.where(np.array(sign_u) < 0.5, -1.0, 1.0)
        return zip(verify.strong_leibniz_reports(Block(_measure(n, expo), f), np.full(len(f), p), tol))
    outcome = _run("strong-leibniz", 8, draw, evaluate, trials, n_max, seed, theorem_backed=False)
    witness = reciprocal_witness_report(tol)
    witness.instance["expected_failure"] = True
    outcome.reports.insert(0, witness)
    hits = len(outcome.failures)
    if hits and p >= 2.0:
        outcome.notes.append(f"UNEXPECTED: {hits} violations at p={p} (conjectured safe region)")
    return outcome


#: Suite name -> ``suite_<name>`` function.
SUITES = {name: globals()["suite_" + name.replace("-", "_")] for name in N_MAX_BOUNDS}
