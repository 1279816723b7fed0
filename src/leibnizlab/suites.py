"""Randomized property suites, one per verified statement.

Each suite draws seeded random instances and returns a ``SuiteOutcome``:
its reports as blocks of columns (``reports.ReportBlock``), with the count
of failures and the worst slack.  Suites tagged ``theorem_backed`` must
never fail; the strong-Leibniz sweep is evidence gathering, so its failures
are informational.  The inverse bound it checks fails at p = 1 (its fixed
witness) and holds at p = 2 and p = inf (short proofs in the ``search``
module docstring); the open exponents are (1, 2) and (2, inf).

Loop contract: every suite runs through ``_run``, the one trial loop, with
one stream id.  ``kernels.streams`` derives the trials' generators
``default_rng((seed, stream, t))`` a block of trials at a time, bit for bit
(where a numpy seeds differently it builds each one with ``default_rng``).
Each group of trials with the same n is evaluated as stacked arrays through
the ``kernels`` and the report builders of ``verify`` and ``operators``; no
suite calls a one-instance checker, and every report equals checking its
trial alone.  The suites whose n_max stops at ``MATRIX_N_MAX`` draw or build
an n x n matrix per trial and hold at most ``MAJORIZATION_BLOCK`` matrix
entries per n, or one trial.  The strong-Leibniz fixed witness comes first
and the majorization sign patterns last, with no trial index as ``seed``.
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
from .reports import ReportBlock, VerificationReport
from .search import reciprocal_witness_report
from .verify import STATEMENTS
from .sampling import EXPONENT_GRID, MASS_FLOOR, MAX_ATOMS, distinct_points, sample_holder_triple_pair

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
    """A suite's reports as a (``ReportBlock``, row) pair each, in ``rows``.  The
    counts and ``lines`` come from the columns; ``reports`` are built when
    first read.  Both are kept once read, so ``rows`` is complete by then."""

    name: str
    rows: list
    theorem_backed: bool = True
    elapsed: float = 0.0
    notes: list[str] = field(default_factory=list)

    def _each(self, build):
        """Each report's entry in ``build(block)``, in report order, building each block's once."""
        built = {}
        for b, i in self.rows:
            if b not in built:
                built[b] = build(b)
            yield built[b][i]

    @functools.cached_property
    def reports(self) -> list[VerificationReport]:
        return list(self._each(ReportBlock.reports))

    def lines(self):
        """Each report's JSON line, in report order, formatted a block at a time."""
        return self._each(ReportBlock.lines)

    @property
    def trials(self) -> int:
        return len(self.rows)

    @property
    def failures(self) -> list[VerificationReport]:
        return [r for r in self.reports
                if not r.passed and not r.instance.get("expected_failure", False)] if self.failed else []

    @functools.cached_property
    def failed(self) -> int:
        """The number of failures, from the columns."""
        return sum(self._each(lambda b: (~b.columns["pass"] & ~np.asarray(
            b.columns["instance"].get("expected_failure", False))).tolist()))

    @functools.cached_property
    def worst_slack(self) -> float:
        return min(self._each(lambda b: b.columns["slack"].tolist()), default=0.0)

    @property
    def ok(self) -> bool:
        return not self.theorem_backed or not self.failed

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        kind = "theorem" if self.theorem_backed else "evidence"
        return (f"[{verdict}] suite {self.name} ({kind}): {self.trials} checks, "
                f"{self.failed} failures, worst slack {self.worst_slack:.3g}, "
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


def _run(name: str, stream: int, draw, evaluate, trials: int, n_max: int, seed: int,
         theorem_backed: bool = True) -> SuiteOutcome:
    """The trial loop of every suite.

    Trial t takes the generator ``default_rng((seed, stream, t))`` and draws
    n from [smallest, n_max] (``N_MAX_BOUNDS``) first; ``draw(rng, n, t)``
    then returns its other draws as a tuple, in the order it makes them.
    Trials are held in groups by n.  Every group is evaluated after every BLOCK
    trials and after the last, and in a suite whose n_max stops at MATRIX_N_MAX
    also once it holds max(1, MAJORIZATION_BLOCK // n**2) trials.
    ``evaluate(n, columns)`` (one list per tuple position) returns report
    blocks.  A block's ``seed`` holds each row's index in ``columns`` (None:
    row i is index i), replaced by the row's trial index.  Reports come in
    trial order, a trial's in the order of its blocks.  ``elapsed`` covers the loop.
    """
    start = time.perf_counter()
    low, square = N_MAX_BOUNDS[name][0], N_MAX_BOUNDS[name][1] == MATRIX_N_MAX
    blocks, held = [], {}

    def flush(n):
        ts, drawn = zip(*held.pop(n))
        for rank, b in enumerate(evaluate(n, [list(c) for c in zip(*drawn)])):
            at = b.columns["seed"]
            b.columns["seed"] = np.array(ts)[slice(None) if at is None else at]
            blocks.append((rank, b))
    # kernels.streams reuses one generator: draw from it before the next trial
    for t, rng in enumerate(streams((seed, stream), 0, trials)):
        n = int(rng.integers(low, n_max + 1))
        held.setdefault(n, []).append((t, draw(rng, n, t)))
        if square and len(held[n]) >= max(1, MAJORIZATION_BLOCK // n ** 2):
            flush(n)
        if (t + 1) % BLOCK == 0 or t == trials - 1:
            for n in list(held):
                flush(n)
    keys = [np.concatenate([b.columns["seed"] for _, b in blocks] or [[]]),
            np.concatenate([np.full(len(b), rank) for rank, b in blocks] or [[]])]
    rows = [(b, i) for _, b in blocks for i in range(len(b))]
    return SuiteOutcome(name, [rows[k] for k in np.lexsort(keys[::-1]).tolist()], theorem_backed,
                        time.perf_counter() - start)


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
    at the head of a zero row of width 2 * max_breakpoints + 3, signed or not."""
    m = int(rng.integers(1, max_breakpoints + 1))
    row = np.zeros(2 * max_breakpoints + 3)
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
        return [STATEMENTS["leibniz"].reports(block, np.array(exponents).T, tol)]
    return _run("leibniz", 0, draw, evaluate, trials, n_max, seed)


def suite_decomposition(trials: int = 1000, n_max: int = 10, seed: int = 0,
                        tol: float = IDENTITY_TOL) -> SuiteOutcome:
    def draw(rng, n, t):
        return rng.random(n), rng.random(n)

    def evaluate(n, columns):
        return [verify.decomposition_reports(_uniform(columns[0]), _uniform(columns[1]), tol)]
    return _run("decomposition", 1, draw, evaluate, trials, n_max, seed)


def _majorization_block(X: np.ndarray, Y: np.ndarray, tol: float) -> ReportBlock:
    """The majorization reports of the rows of X, Y (shape (B, n)), as one block.

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
    worst = np.max(lhs - rhs, axis=1)
    return ReportBlock("deflated_theta_majorization", worst, 0.0, -worst, np.all(lhs <= rhs + tol, axis=1), tol,
                       {"x": X, "y": Y})


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

    def evaluate(n, columns):
        return [_majorization_block(np.array(columns[0]), np.array(columns[1]), tol)]
    outcome = _run("majorization", 2, draw, evaluate, trials, n_max, seed)
    for n in range(1, EXHAUSTIVE_N + 1):
        patterns = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n)))
        m = len(patterns)
        step = max(1, MAJORIZATION_BLOCK // (n * n * m))  # x-patterns per block
        for i in range(0, m, step):
            b = _majorization_block(np.repeat(patterns[i:i + step], m, axis=0),
                                    np.tile(patterns, (min(step, m - i), 1)), tol)
            outcome.rows += [(b, j) for j in range(len(b))]
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
            return name, x, rng.uniform(-1.0, 1.0, n), rng.permutation(n), *_phi_draws(rng, 4, signed=True), None
        return name, x, None, None, None, None, rng.random((n, n))

    def evaluate(n, columns):
        names, x, u, perm, counts, knot_u, weights = columns
        monotone = [i for i, pts in enumerate(u) if pts is not None]
        drawn = [i for i, pts in enumerate(u) if pts is None]
        L = np.empty((len(names), n, n))
        if drawn:
            L[drawn] = kernels.sample_laplacian(np.array([weights[i] for i in drawn]))
        if monotone:
            def pick(col):
                return np.array([col[i] for i in monotone])
            b = Block(None, distinct_points(pick(u), pick(perm)),
                      **sample_phi(pick(knot_u), pick(counts), True, signed=True))
            L[monotone] = kernels.monotone_laplacians(
                kernels.divided_differences(b.f, functools.partial(kernels.phi, b)))
        kernels.validate_laplacians(L)
        x = _uniform(x)
        x -= x.mean(axis=1)[:, None]  # the bound holds for mean-zero x
        bound, size = operators.laplacian_bound_reports(
            L, x, functools.partial(kernels.norms, names=names), tol)
        bound.columns["instance"]["norm"] = np.array(names)
        blocks = [bound]
        if monotone:
            # corollary form: n * Lip(phi) dominates n * max off-diagonal
            blocks.append(ReportBlock.from_values(
                "monotone_divided_difference_bound", bound.columns["lhs"][monotone],
                n * b.lipschitz * size[monotone], tol,
                {"n": n, "lipschitz": b.lipschitz, "norm": np.array(names)[monotone], "x": x[monotone],
                 "points": b.f, "phi": operators.phi_echo(b)[0]}, seed=np.array(monotone)))
        col, row = kernels.hat_bounds(L)
        blocks.append(ReportBlock.from_values("hat_matrix_operator_bounds", kernels.row_max(col, row),
                                              n * bound.columns["instance"]["max_offdiag"], 1e-10,
                                              {"n": n, "col": col, "row": row}))
        return blocks
    return _run("laplacian", 3, draw, evaluate, trials, n_max, seed)


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
        return [STATEMENTS["chain_rule"].reports(block, (_GRID[k],), tol)]
    return _run("chain-rule", 4, draw, evaluate, trials, n_max, seed)


def suite_markov(trials: int = 10_000, n_max: int = 8, seed: int = 0,
                 tol: float = INEQUALITY_TOL) -> SuiteOutcome:
    """Variance contraction under arbitrary (non-monotone) Lipschitz maps."""
    def draw(rng, n, t):
        return rng.standard_exponential(n), rng.random(n), *_phi_draws(rng, 6)

    def evaluate(n, columns):
        expo, f, counts, knot_u = columns
        block = Block(_measure(n, expo), _uniform(f), **sample_phi(np.array(knot_u), np.array(counts), False))
        return [STATEMENTS["markov_variance"].reports(block, (), tol)]
    return _run("markov", 5, draw, evaluate, trials, n_max, seed)


def suite_square(trials: int = 10_000, n_max: int = 8, seed: int = 0,
                 tol: float = INEQUALITY_TOL) -> SuiteOutcome:
    def draw(rng, n, t):
        return rng.standard_exponential(n), rng.random(n), int(rng.integers(len(EXPONENT_GRID)))

    def evaluate(n, columns):
        expo, f, k = columns
        return [STATEMENTS["square_bound"].reports(Block(_measure(n, expo), _uniform(f)), (_GRID[k],), tol)]
    return _run("square", 6, draw, evaluate, trials, n_max, seed)


def suite_identities(trials: int = 1000, n_max: int = 8, seed: int = 0,
                     tol: float = IDENTITY_TOL) -> SuiteOutcome:
    """Centering identity and the derivation dictionary on random instances."""
    def draw(rng, n, t):
        u, perm, monotone = rng.uniform(-1.0, 1.0, n), rng.permutation(n), bool(rng.random() < 0.5)
        return u, perm, monotone, *_phi_draws(rng, 6, signed=monotone), rng.random(n), rng.random(n)

    def evaluate(n, columns):
        u, perm, monotone, counts, knot_u, f, g = columns
        b = Block(None, distinct_points(np.array(u), np.array(perm)),
                  **sample_phi(np.array(knot_u), np.array(counts), monotone, signed=monotone))
        return [operators.centering_reports(b.f, functools.partial(kernels.phi, b), operators.phi_echo(b)[0], tol),
                operators.derivation_reports(_uniform(f), _uniform(g), tol)]
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
        return [STATEMENTS["strong_leibniz"].reports(Block(_measure(n, expo), f), (p,), tol)]
    outcome = _run("strong-leibniz", 8, draw, evaluate, trials, n_max, seed, theorem_backed=False)
    witness = reciprocal_witness_report(tol)
    witness.instance["expected_failure"] = True
    sides = (np.array([v]) for v in (witness.lhs, witness.rhs, witness.slack, witness.passed))
    outcome.rows.insert(0, (ReportBlock(witness.name, *sides, witness.tolerance, witness.instance), 0))
    hits = outcome.failed
    if hits and p >= 2.0:
        outcome.notes.append(f"UNEXPECTED: {hits} violations at p={p} (conjectured safe region)")
    return outcome


#: Suite name -> ``suite_<name>`` function.
SUITES = {name: globals()["suite_" + name.replace("-", "_")] for name in N_MAX_BOUNDS}
