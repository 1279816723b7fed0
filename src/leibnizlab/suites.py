"""Randomized property suites, one per verified statement.

Each suite draws seeded random instances and returns a ``SuiteOutcome``:
its reports as blocks of columns (``reports.ReportBlock``), with the count
of failures and the worst slack.  Suites tagged ``theorem_backed`` must
never fail; the strong-Leibniz sweep is evidence gathering, so its failures
are informational.  The inverse bound it checks fails at p = 1 (its fixed
witness) and holds at p = 2 and p = inf (short proofs in the ``search``
module docstring); the open exponents are (1, 2) and (2, inf).

Loop contract: every suite runs through ``_run``, the one trial loop, with
one stream id, its place (0-8) in ``N_MAX_BOUNDS``, and one layout: trial t
reads its row of ``Philox(key=(seed, stream))`` words (``kernels.trial_words``,
which computes Philox4x64-10 itself, bit for bit as numpy's ``Philox``) as
uniforms.  Column 0 gives n; then come the suite's segments, each as wide
as at n = n_max (N), of which a trial with n atoms reads the head.  The five
suites of a statement on a measure (leibniz, chain-rule, markov, square and
strong-leibniz) share one rule, ``_measure``: the statement's instance at
width N, as ``verify.Statement.draw`` lays it out (measure N - 1, f N, or for
strong-leibniz magnitudes N and signs N, then g N for leibniz, phi 16 for
chain-rule and markov), then the suite's exponent columns: a pair 2 for
leibniz, one 1 for chain-rule and square, none for markov and strong-leibniz.
The others lay out their own:

* decomposition and majorization: f (x) N, g (y) N;
* laplacian: norm 3, x N, then one segment of max(2 N + 12, N (N - 1) / 2)
  words: an odd trial reads points N, permutation N and phi 12 from it, an
  even trial the strict upper triangle of its n x n weights, row by row;
* identities: points N, permutation N, monotone 1, phi 16, f N, g N.

As in the search, a measure is ``kernels.measures``, a vector
``kernels.signed_uniforms``, the strong-Leibniz f ``sampling.invertible``
and phi ``kernels.sample_phi``; a permutation is the argsort of n uniforms,
an exponent or a choice ``kernels.integers``.  Each group of trials with the
same n is evaluated as stacked arrays through the ``kernels`` and the report
builders of ``verify`` and ``operators``; no suite calls a one-instance
checker, and every report equals checking its trial alone.  The suites whose
n_max stops at ``MATRIX_N_MAX`` build an n x n matrix per trial and hold at
most ``MAJORIZATION_BLOCK`` matrix entries per n, or one trial.  The
strong-Leibniz fixed witness comes first and the majorization sign patterns
last, with no trial index as ``seed``.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels, operators, verify
from .core import IDENTITY_TOL, INEQUALITY_TOL, _integer, check_exponent
from .kernels import BLOCK, Block, integers, sample_phi, signed_uniforms
from .reports import ReportBlock, VerificationReport
from .search import witness_report
from .serialize import lay_out
from .verify import STATEMENTS
from .sampling import EXPONENT_GRID, MASS_FLOOR, MAX_ATOMS, distinct_points, sample_holder_triple_pair

_GRID = np.array(EXPONENT_GRID)

#: Symmetric norms used wherever a statement quantifies over all of them, by
#: their ``kernels.norms`` names: the l_p norms for p in 1, 1.5, 2, 3 and inf.
NORM_FAMILY = ("l1", "l1.5", "l2", "l3", "linf")

#: Largest ``n_max`` of the suites that build n x n matrices: one such matrix
#: of floats then takes 8 MB.
MATRIX_N_MAX = 1000

#: Smallest and largest ``n_max`` of each suite; those that sample a measure stop at MAX_ATOMS.
#: ``SUITES`` takes its names and order from here, and ``_run`` each stream id (the position).
N_MAX_BOUNDS = {
    "leibniz": (2, MAX_ATOMS), "decomposition": (2, MATRIX_N_MAX), "majorization": (1, MATRIX_N_MAX),
    "laplacian": (2, MATRIX_N_MAX), "chain-rule": (2, MAX_ATOMS), "markov": (2, MAX_ATOMS),
    "square": (2, MAX_ATOMS), "identities": (2, MATRIX_N_MAX), "strong-leibniz": (2, MAX_ATOMS),
}


#: Most report lines ``SuiteOutcome.lines`` joins into one text.  A text of a
#: whole draw (up to 1024 trials' lines) sits beside the draw's lines while it
#: is joined and beside its encoded bytes while it is written: at --trials 8000
#: it raised the peak RSS of ``verify --suite all`` from 39.5 to 41.2 MB.
LINES_PER_TEXT = 128


def _ordered(blocks: list, order, build, *extra) -> list:
    """The entries of ``build(block, *values)`` of ``blocks`` laid end to end, taken in ``order`` (None: as
    laid); each list in ``extra`` gives one value per block."""
    built = itertools.starmap(build, zip(blocks, *extra))
    entries = next(built) if len(blocks) == 1 else [e for part in built for e in part]
    return entries if order is None else [entries[k] for k in order.tolist()]


def _column(blocks: list, order, key: str) -> list:
    """Column ``key`` of ``blocks`` laid end to end, taken in ``order`` (None: as laid)."""
    col = np.concatenate([b.columns[key] for b in blocks])
    return (col if order is None else col[order]).tolist()


@dataclass
class SuiteOutcome:
    """A suite's reports as chunks, one per draw of trials: a (blocks, order)
    pair each in ``chunks``, the draw's ``ReportBlock`` list and the report
    order of their rows laid end to end (None: as laid).  The counts come
    from the columns, and ``lines`` formats one chunk at a time; ``reports``
    are built when first read and kept."""

    name: str
    chunks: list
    theorem_backed: bool = True
    elapsed: float = 0.0
    notes: list[str] = field(default_factory=list)

    def _blocks(self):
        return (b for blocks, _ in self.chunks for b in blocks)

    @functools.cached_property
    def reports(self) -> list[VerificationReport]:
        return [r for blocks, order in self.chunks for r in _ordered(blocks, order, ReportBlock.reports)]

    def lines(self):
        """The reports' JSON lines in report order, as texts of at most
        LINES_PER_TEXT lines; one chunk's lines are held at a time."""
        for blocks, order in self.chunks:
            lines = _ordered(blocks, order, ReportBlock.lines, lay_out([b.columns for b in blocks]))
            for i in range(0, len(lines), LINES_PER_TEXT):
                yield "\n".join(lines[i:i + LINES_PER_TEXT])
            del lines  # before the next chunk's are formatted

    @property
    def trials(self) -> int:
        return sum(map(len, self._blocks()))

    @property
    def failures(self) -> list[VerificationReport]:
        return [r for r in self.reports
                if not r.passed and not r.instance.get("expected_failure", False)] if self.failed else []

    @functools.cached_property
    def failed(self) -> int:
        """The number of failures, from the columns."""
        return sum(int(np.count_nonzero(~b.columns["pass"] & ~np.asarray(
            b.columns["instance"].get("expected_failure", False)))) for b in self._blocks())

    @functools.cached_property
    def worst_slack(self) -> float:
        """``min`` of the reports' slacks in report order (so of -0.0 and 0.0
        the first), from the columns."""
        return min(itertools.chain.from_iterable(_column(blocks, order, "slack") for blocks, order in self.chunks),
                   default=0.0)

    @property
    def ok(self) -> bool:
        return not self.theorem_backed or not self.failed

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        kind = "theorem" if self.theorem_backed else "evidence"
        return (f"[{verdict}] suite {self.name} ({kind}): {self.trials} checks, "
                f"{self.failed} failures, worst slack {self.worst_slack:.3g}, "
                f"{self.elapsed:.2f}s")


def _norm_names(u: np.ndarray, n: int) -> np.ndarray:
    """A symmetric norm's name per row from its three uniforms: with u[1] < 0.4
    the k-norm of k = 1 + the integer of u[2] in [0, n), else the NORM_FAMILY
    name of the integer of u[0]."""
    family = np.array(NORM_FAMILY)[integers(u[:, 0], len(NORM_FAMILY))]
    return np.where(u[:, 1] < 0.4, np.array([f"k{k}" for k in range(1, n + 1)])[integers(u[:, 2], n)], family)


#: Matrix entries per evaluation block of the suites that build n x n
#: matrices (decomposition, majorization, laplacian, identities).  A block of
#: n-dimensional instances has max(1, MAJORIZATION_BLOCK // n**2) rows, which
#: bounds its stacked (rows, n, n) arrays at any n; at n = 4 that is 243 rows,
#: three x-patterns of the exhaustive sweep.  Blocks of 729 rows ran no
#: faster and raised the peak RSS of ``verify --suite all`` by about 0.5 MB.
MAJORIZATION_BLOCK = 243 * 16

#: Largest n whose sign patterns the majorization suite checks exhaustively.
EXHAUSTIVE_N = 4


#: Most words (4 MiB) one draw of ``_run`` holds: a suite draws max(1, WORD_BLOCK // W) trials
#: at once where that is below BLOCK; up to n_max = 100 only the laplacian's quadratic layout.
WORD_BLOCK = 512 * BLOCK


def _offsets(*widths: int) -> tuple[list[int], int]:
    """The first column of each of consecutive segments of ``widths`` words
    after column 0 (n), and the layout width."""
    ends = np.cumsum((1,) + widths).tolist()
    return ends[:-1], ends[-1]


def _check(name: str, trials, n_max) -> None:
    """ValueError unless trials and n_max are integers, trials at least 1 and
    n_max in [smallest, largest] = ``N_MAX_BOUNDS[name]``.  Every suite calls
    it first, before it lays anything out from n_max."""
    low, high = N_MAX_BOUNDS[name]
    _integer(trials, "trials")
    _integer(n_max, "n_max")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not low <= n_max <= high:
        raise ValueError(f"n_max must lie in [{low}, {high}] for suite {name}, got {n_max}")


def _run(name: str, width: int, evaluate, trials: int, n_max: int, seed: int) -> SuiteOutcome:
    """The trial loop of every suite, on trials and n_max that ``_check`` accepts.

    Trial t reads its ``width`` uniforms (``kernels.trial_words``); n is the
    integer of column 0 in [smallest, n_max].  Trials are drawn BLOCK at
    a time, or as many as fit WORD_BLOCK words, and the rows of a draw with the
    same n are evaluated together, in a suite whose n_max stops at MATRIX_N_MAX
    at most max(1, MAJORIZATION_BLOCK // n**2) rows at once.  ``evaluate(n, u, t)``
    (their uniform rows and trial indices) returns report blocks, each holding a
    trial at most once and its rows' trial indices in ``seed`` (None: t).  Each
    draw is one chunk of the outcome: its reports come in trial order, a trial's
    in the order of its blocks (one stable sort per draw).  ``elapsed`` covers the loop.
    """
    start = time.perf_counter()
    low, high = N_MAX_BOUNDS[name]
    stream, square = list(N_MAX_BOUNDS).index(name), high == MATRIX_N_MAX
    chunks, step = [], max(1, min(BLOCK, WORD_BLOCK // width))
    for lo in range(0, trials, step):
        u = kernels.uniforms(kernels.trial_words(seed, stream, range(lo, min(trials, lo + step)), width))
        sizes = low + integers(u[:, 0], n_max - low + 1)
        blocks = []
        for n in np.flatnonzero(np.bincount(sizes)).tolist():  # np.unique would import numpy.ma
            rows = np.flatnonzero(sizes == n)
            size = max(1, MAJORIZATION_BLOCK // n ** 2) if square else len(rows)
            for part in np.split(rows, range(size, len(rows), size)):
                for b in evaluate(n, u[part], lo + part):
                    if b.columns["seed"] is None:
                        b.columns["seed"] = lo + part
                    blocks.append(b)
        chunks.append((blocks, np.argsort(np.concatenate([b.columns["seed"] for b in blocks]), kind="stable")))
    return SuiteOutcome(name, chunks, elapsed=time.perf_counter() - start)


def _measure(name: str, statement: verify.Statement, trials: int, n_max: int, seed: int, tol: float,
             exponents: int, pick, phi=(False, False)) -> SuiteOutcome:
    """The trial loop of a suite of a statement on a measure: after n, the
    statement's instance at width n_max (``verify.Statement.draw``, phi from
    16 uniforms, monotone and signed as ``phi`` asks), then ``exponents``
    columns, which ``pick`` turns into the statement's exponents."""
    def evaluate(n, u, t):
        fields, at = statement.draw(u, n, n_max, MASS_FLOOR, 16, *phi, at=1)
        return [statement.reports(Block(**fields), pick(u[:, at:at + exponents]), tol)]
    return _run(name, 1 + statement.columns(n_max, 16) + exponents, evaluate, trials, n_max, seed)


def _grid_exponent(u: np.ndarray) -> tuple:
    """The exponent of ``EXPONENT_GRID`` that each row's uniform picks."""
    return (_GRID[integers(u[:, 0], len(_GRID))],)


def suite_leibniz(trials: int = 10_000, n_max: int = 8, seed: int = 0,
                  tol: float = INEQUALITY_TOL) -> SuiteOutcome:
    """Product-rule inequality on random measures, vectors, and triple pairs."""
    _check("leibniz", trials, n_max)
    return _measure("leibniz", STATEMENTS["leibniz"], trials, n_max, seed, tol, 2,
                    lambda u: sample_holder_triple_pair(u[:, 0], u[:, 1]).T)


def suite_decomposition(trials: int = 1000, n_max: int = 10, seed: int = 0,
                        tol: float = IDENTITY_TOL) -> SuiteOutcome:
    _check("decomposition", trials, n_max)
    (f, g), width = _offsets(n_max, n_max)

    def evaluate(n, u, t):
        return [verify.decomposition_reports(signed_uniforms(u[:, f:f + n]), signed_uniforms(u[:, g:g + n]), tol)]
    return _run("decomposition", width, evaluate, trials, n_max, seed)


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

    Trial t draws n, x and y from stream 2, x and y ``uniform(-1, 1)``: the
    statement is homogeneous in x and in y separately, so the scale of the
    draws does not matter, and the sign patterns below are swept
    exhaustively.  Each group of trials with the same n is evaluated as
    stacked blocks of at most ``MAJORIZATION_BLOCK`` matrix entries, as are
    the sign patterns (all of {-1, 0, 1}^n x {-1, 0, 1}^n for n <=
    EXHAUSTIVE_N, a few x at a time).  Reports keep their order (trials
    first, then patterns) and match the scalar computation bit for bit.
    """
    _check("majorization", trials, n_max)
    start = time.perf_counter()
    (x, y), width = _offsets(n_max, n_max)

    def evaluate(n, u, t):
        return [_majorization_block(signed_uniforms(u[:, x:x + n]), signed_uniforms(u[:, y:y + n]), tol)]
    outcome = _run("majorization", width, evaluate, trials, n_max, seed)
    for n in range(1, EXHAUSTIVE_N + 1):
        patterns = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n)))
        m = len(patterns)
        step = max(1, MAJORIZATION_BLOCK // (n * n * m))  # x-patterns per block
        for i in range(0, m, step):
            b = _majorization_block(np.repeat(patterns[i:i + step], m, axis=0),
                                    np.tile(patterns, (min(step, m - i), 1)), tol)
            outcome.chunks.append(([b], None))
    outcome.elapsed = time.perf_counter() - start
    return outcome


def suite_laplacian(trials: int = 1000, n_max: int = 8, seed: int = 0,
                    tol: float = INEQUALITY_TOL) -> SuiteOutcome:
    """Conditional norm bound for Laplacians, plus the hat-matrix operator bounds.

    Half the instances are random Laplacians, half divided-difference matrices
    of random monotone functions (the chain-rule corollary uses Lip(phi) on
    the right-hand side, which dominates the off-diagonal maximum).
    """
    _check("laplacian", trials, n_max)
    (norm, x_at, pts), width = _offsets(3, n_max, max(2 * n_max + 12, n_max * (n_max - 1) // 2))
    perm, phi = pts + n_max, pts + 2 * n_max

    def evaluate(n, u, t):
        names = _norm_names(u[:, norm:norm + 3], n)
        monotone, drawn = np.flatnonzero(t % 2), np.flatnonzero(t % 2 == 0)
        L = np.empty((len(u), n, n))
        L[drawn] = kernels.sample_laplacian(u[drawn, pts:pts + n * (n - 1) // 2], n)
        odd = u[monotone]
        points = distinct_points(signed_uniforms(odd[:, pts:pts + n]), kernels.permutations(odd[:, perm:perm + n]))
        b = Block(None, points, **sample_phi(odd[:, phi:phi + 12], True, signed=True))
        L[monotone] = kernels.monotone_laplacians(kernels.divided_differences(b.f, functools.partial(kernels.phi, b)))
        kernels.validate_laplacians(L)
        x = signed_uniforms(u[:, x_at:x_at + n])
        bound, size = operators.laplacian_bound_reports(
            L, x, functools.partial(kernels.norms, names=names), tol)
        bound.columns["instance"]["norm"] = names
        # corollary form: n * Lip(phi) dominates n * max off-diagonal
        lhs, rhs = bound.columns["lhs"][monotone], n * b.lipschitz * size[monotone]
        corollary = ReportBlock.from_values(
            "monotone_divided_difference_bound", lhs, rhs, kernels.inequality_tolerance(tol, lhs, rhs),
            {"n": n, "lipschitz": b.lipschitz, "norm": names[monotone], "x": x[monotone],
             "points": b.f, "phi": operators.phi_echo(b)[0]}, seed=t[monotone])
        col, row = kernels.hat_bounds(L)
        lhs, rhs = np.maximum(col, row), n * bound.columns["instance"]["max_offdiag"]
        return [bound, corollary, ReportBlock.from_values("hat_matrix_operator_bounds", lhs, rhs,
                                                          kernels.inequality_tolerance(tol, lhs, rhs),
                                                          {"n": n, "col": col, "row": row})]
    return _run("laplacian", width, evaluate, trials, n_max, seed)


def suite_chain_rule(trials: int = 10_000, n_max: int = 8, seed: int = 0,
                     tol: float = INEQUALITY_TOL) -> SuiteOutcome:
    """Monotone Lipschitz composition bound on random measures and exponents."""
    _check("chain-rule", trials, n_max)
    return _measure("chain-rule", STATEMENTS["chain_rule"], trials, n_max, seed, tol, 1, _grid_exponent,
                    phi=(True, True))


def suite_markov(trials: int = 10_000, n_max: int = 8, seed: int = 0,
                 tol: float = INEQUALITY_TOL) -> SuiteOutcome:
    """Variance contraction under arbitrary (non-monotone) Lipschitz maps."""
    _check("markov", trials, n_max)
    return _measure("markov", STATEMENTS["markov_variance"], trials, n_max, seed, tol, 0, lambda u: ())


def suite_square(trials: int = 10_000, n_max: int = 8, seed: int = 0,
                 tol: float = INEQUALITY_TOL) -> SuiteOutcome:
    _check("square", trials, n_max)
    return _measure("square", STATEMENTS["square_bound"], trials, n_max, seed, tol, 1, _grid_exponent)


def suite_identities(trials: int = 1000, n_max: int = 8, seed: int = 0,
                     tol: float = IDENTITY_TOL) -> SuiteOutcome:
    """Centering identity and the derivation dictionary on random instances."""
    _check("identities", trials, n_max)
    (pts, perm, coin, phi, f, g), width = _offsets(n_max, n_max, 1, 16, n_max, n_max)

    def evaluate(n, u, t):
        monotone = u[:, coin] < 0.5
        b = Block(None, distinct_points(signed_uniforms(u[:, pts:pts + n]), kernels.permutations(u[:, perm:perm + n])),
                  **sample_phi(u[:, phi:phi + 16], monotone, signed=monotone))
        return [operators.centering_reports(b.f, functools.partial(kernels.phi, b), operators.phi_echo(b)[0], tol),
                operators.derivation_reports(signed_uniforms(u[:, f:f + n]), signed_uniforms(u[:, g:g + n]), tol)]
    return _run("identities", width, evaluate, trials, n_max, seed)


def suite_strong_leibniz(trials: int = 2000, n_max: int = 8, seed: int = 0,
                         p: float = 2.0, tol: float = INEQUALITY_TOL) -> SuiteOutcome:
    """Evidence sweep for the inverse bound at a fixed exponent.

    It fails at p = 1 (a fixed failing witness is included, marked expected)
    and holds at p = 2 and p = inf; for p >= 2 no violation is expected, but
    a hit would be reported prominently rather than asserted away.
    """
    _check("strong-leibniz", trials, n_max)
    p = check_exponent(p)
    outcome = _measure("strong-leibniz", STATEMENTS["strong_leibniz"], trials, n_max, seed, tol, 0, lambda u: (p,))
    outcome.theorem_backed = False
    witness = witness_report("strong_leibniz_reciprocal_witness", tol)
    block = ReportBlock.from_values(witness.name, np.array([witness.lhs]), np.array([witness.rhs]), witness.tolerance,
                                    {**witness.instance, "expected_failure": True})
    outcome.chunks.insert(0, ([block], None))
    hits = outcome.failed
    if hits and p >= 2.0:
        outcome.notes.append(f"UNEXPECTED: {hits} violations at p={p} (conjectured safe region)")
    return outcome


#: Suite name -> ``suite_<name>`` function.
SUITES = {name: globals()["suite_" + name.replace("-", "_")] for name in N_MAX_BOUNDS}
