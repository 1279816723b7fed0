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
``evaluate``, which evaluates it as stacked arrays through the ``kernels``
and the report builders of ``verify`` and ``operators``; no suite calls a
one-instance checker, and every report equals checking its trial alone.
The four suites that build n x n matrices (decomposition, majorization,
laplacian, identities) evaluate a group in slices of at most
``MAJORIZATION_BLOCK`` matrix entries, and the laplacian suite, which draws
an n x n matrix per trial, holds max(1, ``LAPLACIAN_HELD`` // n_max**2)
trials at most.
Reports come in trial order, each tagged with its trial index as ``seed``
(the majorization sign patterns and the strong-Leibniz fixed witness follow
the trials untagged).
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels, operators, verify
from .core import IDENTITY_TOL, INEQUALITY_TOL, check_exponent
from .kernels import BLOCK, Block, dirichlet_rows, sample_phi, streams
from .reports import VerificationReport
from .search import reciprocal_witness_report
from .verify import STATEMENTS
from .sampling import EXPONENT_GRID, MASS_FLOOR, MAX_ATOMS, sample_distinct_points, sample_holder_triple_pair

_GRID = np.array(EXPONENT_GRID)

#: Symmetric norms used wherever a statement quantifies over all of them, by
#: their ``kernels.norms`` names: the l_p norms for p in 1, 1.5, 2, 3 and inf.
NORM_FAMILY = ("l1", "l1.5", "l2", "l3", "linf")

#: Largest ``n_max`` of the suites that build n x n matrices: one such matrix
#: of floats then takes 8 MB.
MATRIX_N_MAX = 1000

#: Smallest and largest ``n_max`` of each suite; those that sample a measure stop
#: at MAX_ATOMS.  ``SUITES`` takes its names and their order from here.
N_MAX_BOUNDS = {
    "leibniz": (2, MAX_ATOMS), "decomposition": (2, MATRIX_N_MAX), "majorization": (1, MATRIX_N_MAX),
    "laplacian": (2, MATRIX_N_MAX), "chain-rule": (2, MAX_ATOMS), "markov": (2, MAX_ATOMS),
    "square": (2, MAX_ATOMS), "identities": (2, MATRIX_N_MAX), "strong-leibniz": (2, MAX_ATOMS),
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


def _norm_pool(rng: np.random.Generator, n: int) -> str:
    """A symmetric norm's name: one of NORM_FAMILY, or with probability 0.4 the k-norm of a random k."""
    name = NORM_FAMILY[rng.integers(len(NORM_FAMILY))]
    if rng.random() < 0.4:
        return f"k{int(rng.integers(1, n + 1))}"
    return name


#: Matrix entries per evaluation block of the suites that build n x n
#: matrices (decomposition, majorization, laplacian, identities).  A block of
#: n-dimensional instances has max(1, MAJORIZATION_BLOCK // n**2) rows, which
#: bounds its stacked (rows, n, n) arrays at any n; at n = 4 that is 243 rows,
#: three x-patterns of the exhaustive sweep.  Blocks of 729 rows ran no
#: faster and raised the peak RSS of ``verify --suite all`` by about 0.5 MB.
MAJORIZATION_BLOCK = 243 * 16

#: Largest n whose sign patterns the majorization suite checks exhaustively.
EXHAUSTIVE_N = 4

#: Drawn matrix entries the laplacian suite holds before it evaluates them
#: (0.5 MB): BLOCK trials up to n_max = 8, fewer above.
LAPLACIAN_HELD = 64 * BLOCK


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


def _square_blocks(rows, n: int, columns) -> list:
    """``rows(*columns)`` on slices of the columns that hold at most
    MAJORIZATION_BLOCK n x n matrix entries each; the results joined."""
    size = max(1, MAJORIZATION_BLOCK // n ** 2)
    out = []
    for start in range(0, len(columns[0]), size):
        out += rows(*(c[start:start + size] for c in columns))
    return out


def _measure(n: int, expo: list) -> np.ndarray:
    """``dirichlet(ones(n))`` measures with every weight >= MASS_FLOOR, from each row's n exponentials."""
    if n * MASS_FLOOR >= 1.0:
        raise ValueError(f"mass floor {MASS_FLOOR} infeasible for {n} atoms")
    return MASS_FLOOR + (1.0 - n * MASS_FLOOR) * dirichlet_rows(np.array(expo))


def _uniform(rows: list) -> np.ndarray:
    """``uniform(-1, 1)`` rows from their ``random()`` draws."""
    return -1.0 + 2.0 * np.array(rows)


def _phi_draws(rng, max_breakpoints: int, signed: bool = False) -> tuple[int, np.ndarray]:
    """The draws of a random phi (``sample_phi``): the breakpoint count m, then
    m + m + 1 + 1 uniforms (one more, the sign, before the anchor if ``signed``),
    at the head of a zero row of width 2 * max_breakpoints + 2 (+ 1 if ``signed``)."""
    m = int(rng.integers(1, max_breakpoints + 1))
    row = np.zeros(2 * max_breakpoints + 2 + signed)
    rng.random(out=row[:2 * m + 2 + signed])
    return m, row


def _phi_rows(monotone: list, counts: list, knot_u: list) -> dict:
    """``sample_phi`` of rows drawn by ``_phi_draws(rng, m, signed=monotone)``,
    with ``monotone`` set row by row: the rows of each kind are taken together."""
    out = {}
    for flag in (False, True):
        idx = [i for i, mono in enumerate(monotone) if mono == flag]
        if idx:
            part = sample_phi(np.array([knot_u[i] for i in idx]), np.array([counts[i] for i in idx]),
                              flag, signed=flag)
            for key, a in part.items():
                out.setdefault(key, np.empty((len(counts), *a.shape[1:])))[idx] = a
    return out


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
        return zip(STATEMENTS["leibniz"].reports(block, np.array(exponents).T, tol))
    return _run("leibniz", 0, draw, evaluate, trials, n_max, seed)


def suite_decomposition(trials: int = 1000, n_max: int = 10, seed: int = 0,
                        tol: float = IDENTITY_TOL) -> SuiteOutcome:
    def draw(rng, n, t):
        return rng.random(n), rng.random(n)

    def rows(f, g):
        return zip(verify.decomposition_reports(_uniform(f), _uniform(g), tol))
    return _run("decomposition", 1, draw, functools.partial(_square_blocks, rows), trials, n_max, seed)


def _majorization_block(X: np.ndarray, Y: np.ndarray, tol: float) -> list[VerificationReport]:
    """One majorization report per row of X, Y (shape (B, n)), in row order.

    Each row repeats the per-instance operations of ``deflated_theta(x) @ y``
    and ``weak_majorizes`` on stacked arrays, so every report matches the
    one-instance computation bit for bit.
    """
    image = np.abs(kernels.matvec(kernels.theta(X) - X[:, None, :] / X.shape[1], Y))
    # bound is already non-increasing (a product of two non-increasing
    # non-negative rows), so its partial sums need no second sort
    bound = np.sort(np.abs(X), axis=1)[:, ::-1] * np.sort(np.abs(Y), axis=1)[:, ::-1]
    lhs = np.cumsum(np.sort(image, axis=1)[:, ::-1], axis=1)
    rhs = np.cumsum(bound, axis=1)
    passed = np.all(lhs <= rhs + tol, axis=1).tolist()
    worst = np.max(lhs - rhs, axis=1).tolist()
    return [VerificationReport("deflated_theta_majorization", w, 0.0, -w, ok, tol, {"x": x, "y": y})
            for w, ok, x, y in zip(worst, passed, X.tolist(), Y.tolist())]


def suite_majorization(trials: int = 1000, n_max: int = 8, seed: int = 0,
                       tol: float = IDENTITY_TOL) -> SuiteOutcome:
    """|deflated_theta(x) y| <_w |x|down * |y|down, random plus exhaustive signs.

    Trial t draws n, x and y from stream 2; each group of trials with the same
    n is evaluated as stacked blocks of at most ``MAJORIZATION_BLOCK`` matrix
    entries, as are the sign patterns (all of {-1, 0, 1}^n x {-1, 0, 1}^n for
    n <= EXHAUSTIVE_N, a few x at a time).  Reports keep their order (trials
    first, then patterns) and match the scalar computation bit for bit.
    """
    start = time.perf_counter()

    def draw(rng, n, t):
        return rng.normal(size=n), rng.normal(size=n)

    def rows(x, y):
        return zip(_majorization_block(np.array(x), np.array(y), tol))
    outcome = _run("majorization", 2, draw, functools.partial(_square_blocks, rows), trials, n_max, seed)
    for n in range(1, EXHAUSTIVE_N + 1):
        patterns = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n)))
        m = len(patterns)
        step = max(1, MAJORIZATION_BLOCK // (n * n * m))  # x-patterns per block
        for i in range(0, m, step):
            outcome.reports += _majorization_block(np.repeat(patterns[i:i + step], m, axis=0),
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
        name, x = _norm_pool(rng, n), rng.random(n)
        if t % 2:
            return name, x, sample_distinct_points(rng, n), *_phi_draws(rng, 4, signed=True), None
        return name, x, None, None, None, rng.random((n, n))

    def rows(names, x, points, counts, knot_u, weights):
        n = len(x[0])
        monotone = [i for i, pts in enumerate(points) if pts is not None]
        drawn = [i for i, pts in enumerate(points) if pts is None]
        L, echoes = np.empty((len(names), n, n)), {}
        if drawn:
            L[drawn] = kernels.sample_laplacian(np.array([weights[i] for i in drawn]))
        if monotone:
            b = Block(None, np.array([points[i] for i in monotone]),
                      **sample_phi(np.array([knot_u[i] for i in monotone]),
                                   np.array([counts[i] for i in monotone]), True, signed=True))
            L[monotone] = kernels.monotone_laplacians(
                kernels.divided_differences(b.f, functools.partial(kernels.phi, b)))
            echoes = dict(zip(monotone, zip(operators.phi_echo(b), b.f.tolist())))
        kernels.validate_laplacians(L)
        x = _uniform(x)
        x -= x.mean(axis=1)[:, None]  # the bound holds for mean-zero x
        bound, size = operators.laplacian_bound_reports(
            L, x, functools.partial(kernels.norms, names=names), tol)
        col, row = kernels.hat_bounds(L)
        out = []
        for i, (rep, name, norm_x, c, r) in enumerate(zip(bound, names, size.tolist(), col.tolist(),
                                                          row.tolist())):
            rep.instance["norm"] = name
            reports = [rep]
            if i in echoes:
                # corollary form: n * Lip(phi) dominates n * max off-diagonal
                (phi, lip, _), pts = echoes[i]
                reports.append(VerificationReport.from_values(
                    "monotone_divided_difference_bound", rep.lhs, n * lip * norm_x, tol,
                    {"n": n, "lipschitz": lip, "norm": name, "x": list(rep.instance["x"]),
                     "points": pts, "phi": phi}))
            reports.append(VerificationReport.from_values(
                "hat_matrix_operator_bounds", max(c, r), n * rep.instance["max_offdiag"], 1e-10,
                {"n": n, "col": c, "row": r}))
            out.append(reports)
        return out
    return _run("laplacian", 3, draw, functools.partial(_square_blocks, rows), trials, n_max, seed,
                block=max(1, min(BLOCK, LAPLACIAN_HELD // n_max ** 2)))


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
        return zip(STATEMENTS["chain_rule"].reports(block, (_GRID[k],), tol))
    return _run("chain-rule", 4, draw, evaluate, trials, n_max, seed)


def suite_markov(trials: int = 10_000, n_max: int = 8, seed: int = 0,
                 tol: float = INEQUALITY_TOL) -> SuiteOutcome:
    """Variance contraction under arbitrary (non-monotone) Lipschitz maps."""
    def draw(rng, n, t):
        return rng.standard_exponential(n), rng.random(n), *_phi_draws(rng, 6)

    def evaluate(n, columns):
        expo, f, counts, knot_u = columns
        block = Block(_measure(n, expo), _uniform(f), **sample_phi(np.array(knot_u), np.array(counts), False))
        return zip(STATEMENTS["markov_variance"].reports(block, (), tol))
    return _run("markov", 5, draw, evaluate, trials, n_max, seed)


def suite_square(trials: int = 10_000, n_max: int = 8, seed: int = 0,
                 tol: float = INEQUALITY_TOL) -> SuiteOutcome:
    def draw(rng, n, t):
        return rng.standard_exponential(n), rng.random(n), int(rng.integers(len(EXPONENT_GRID)))

    def evaluate(n, columns):
        expo, f, k = columns
        return zip(STATEMENTS["square_bound"].reports(Block(_measure(n, expo), _uniform(f)), (_GRID[k],), tol))
    return _run("square", 6, draw, evaluate, trials, n_max, seed)


def suite_identities(trials: int = 1000, n_max: int = 8, seed: int = 0,
                     tol: float = IDENTITY_TOL) -> SuiteOutcome:
    """Centering identity and the derivation dictionary on random instances."""
    def draw(rng, n, t):
        points, monotone = sample_distinct_points(rng, n), bool(rng.random() < 0.5)
        return points, monotone, *_phi_draws(rng, 6, signed=monotone), rng.random(n), rng.random(n)

    def rows(points, monotone, counts, knot_u, f, g):
        b = Block(None, np.array(points), **_phi_rows(monotone, counts, knot_u))
        echoes = [phi for phi, _, _ in operators.phi_echo(b)]
        return zip(operators.centering_reports(b.f, functools.partial(kernels.phi, b), echoes, tol),
                   operators.derivation_reports(_uniform(f), _uniform(g), tol))
    return _run("identities", 7, draw, functools.partial(_square_blocks, rows), trials, n_max, seed)


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
        return zip(STATEMENTS["strong_leibniz"].reports(Block(_measure(n, expo), f), (p,), tol))
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
