"""Randomized counterexample search with greedy local refinement.

The search maximizes the violation ``lhs - rhs`` of a target inequality over
instances (measure, vector(s), piecewise-linear function).  A positive best
violation is a counterexample witness; for targets that are theorems the
search is a negative control and must come back empty.

Where the non-monotone chain rule and the inverse bound stand: both fail at
p = 1 (the fixed witnesses in ``WITNESSES``), the chain rule fails at every
p in [1, 2) (the tent, below), and both hold at p = 2 and p = inf, so a
violation at p = 2 or inf is a bug in the kernel, not a discovery.  The open
exponents are (2, inf) for the chain rule, and (1, 2) and (2, inf) for the
inverse bound; there a search result is evidence, never a proof, and is
labeled "no violation found (budget N)".  With X' an independent copy of
X = f, and L = Lip(phi), or
L = ||f^-1||_inf^2 for phi(x) = 1/x, because |1/a - 1/b| <= ||f^-1||_inf^2
|a - b| for values a, b of f:

* p = 2: Var Y = E(Y - Y')^2 / 2, so Var phi(f) <= L^2 E(X - X')^2 / 2 =
  L^2 Var f.  (For the chain rule this is ``verify.check_markov_variance``;
  for the inverse bound it is the commutative case of Rieffel's theorem
  that standard deviation is strongly Leibniz, New York J. Math. 20, 2014.)
* p = inf: |phi(x_i) - E phi(f)| <= L E|x_i - X|.  The right side is convex
  in x_i, so over the range of f it is largest at min f or max f, where it
  equals L |x_i - Ef| <= L ||f - Ef||_inf.
* p in [1, 2), the tent: for t in (0, 1) take mu = (t/2, 1 - t, t/2),
  f = (-1, 0, 1) and phi(x) = -|x| (Lip 1, not monotone).  Ef = 0 and
  ||f - Ef||_p^p = t; phi(f) - E phi(f) is t - 1 on the outer atoms and t
  on the middle one, so (lhs / rhs)^p = (1 - t)^p + (1 - t) t^(p-1).
  Bernoulli's (1 - t)^p >= 1 - pt bounds it below by
  1 - pt + (1 - t) t^(p-1), which exceeds 1 iff (1 - t) t^(p-2) > p: true
  for every small t, as t^(p-2) grows without bound when p < 2.  At
  p = a/b the condition reads (1 - t)^b b^b > a^b t^(2b-a), which
  ``Fraction`` decides (``tent_witness``); the tests certify it at p = 1,
  5/4, 3/2, 7/4, 19/10, 39/20 and 199/100.  At p = 1 the ratio is
  2(1 - t), which tends to 2.  Near p = 2 the violation shrinks below
  float64's reach: at p = 199/100, t = 2^-100, both sides round to the
  same float.

An ``Instance`` holds search instances as the rows of arrays, one row per
instance; ``violation``, ``refine``, ``replay`` and the witness codec take
one-row Instances.  All act through the target's statement in
``verify.STATEMENTS``: its kernel scores blocks of ``BLOCK`` (2048) rows,
each row as the checker scores it alone, whatever phi's +inf padding; a row
outside its domain scores -inf; ``replay`` returns its report.  ``search`` scores
each block at all exponents in one pass and streams the ranking: each block
meets every exponent's small pool of leaders, so no array grows with the
trials but the returned history; the leaders are re-drawn from their
trials, and all climb in lockstep, one block of neighbours per pass, each
with its own epoch and sweep count, so each takes the path ``refine`` takes
for it alone; a pass reuses the tables of moves of the last while the same
rows climb.

Determinism: trial t reads its own words of ``Philox(key=(seed,
SEARCH_STREAM))`` (``kernels.trial_words``, the v2 stream rule, computed in
``kernels`` bit for bit as numpy's ``Philox``), so a block of trials and
the re-drawn leaders, one call for any list of trials, read the same words;
refinement is rng-free hill climbing; aggregation takes the maximal
violation with ties broken by the lower trial index.  Results therefore depend on the seed and the budget
only, not on the block size.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction

import numpy as np

from .core import INEQUALITY_TOL, ProbVector, _integer, as_number, as_pair, check_exponent, exponent_tag, paired
from .kernels import (SEARCH_STREAM, Block, center, check_seed, integers, lp, row_cumsum, row_maxima, trial_words,
                      uniforms)
from .operators import PiecewiseLinearFn
from .reports import VerificationReport
from .sampling import MASS_FLOOR
from . import verify
from .verify import STATEMENTS

TARGETS = ("chain_rule", "strong_leibniz", "leibniz", "square_bound")

#: Hill-climbing step sizes, one epoch each.
STEP_EPOCHS = (0.1, 0.01, 0.001)

_SPLIT_CHOICES = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Trials sampled, scored and ranked together; no result depends on it.  Twice
#: the suites' ``kernels.BLOCK``: the search's per-call costs fall with fewer calls.
BLOCK = 2048

_INTEGER_FIELDS = ("n", "trials", "refine_steps", "seed", "max_breakpoints", "refine_top")


@dataclass(frozen=True)
class SearchConfig:
    target: str
    n: int = 3
    p_grid: tuple[float, ...] = (1.0,)
    trials: int = 1000
    refine_steps: int = 20
    seed: int = 0
    max_breakpoints: int = 4
    monotone: bool = False
    mass_floor: float = MASS_FLOOR
    refine_top: int = 5

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}; choose from {TARGETS}")
        for name in _INTEGER_FIELDS:
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.n < 2:
            raise ValueError("need at least two atoms")
        if not 1 <= self.max_breakpoints <= 8:
            raise ValueError("breakpoint budget must lie in [1, 8]")
        check_seed(self.seed)
        if self.refine_steps < 0 or self.refine_top < 0:
            raise ValueError("refine_steps and refine_top must be >= 0")
        floor = self.mass_floor
        # n * floor >= 1 leaves no mass to distribute and yields negative weights
        if (isinstance(floor, bool) or not isinstance(floor, numbers.Real)
                or not 0.0 < floor < 1.0 / self.n):
            raise ValueError(f"mass_floor must lie in (0, 1/n) = (0, {1.0 / self.n:.6g}), got {floor!r}")
        object.__setattr__(self, "mass_floor", float(floor))
        grid = self.p_grid
        if not isinstance(grid, (list, tuple)):
            raise ValueError(f"p_grid must be a list of exponents, got {grid!r}")
        for p in grid:
            if isinstance(p, bool) or not (isinstance(p, numbers.Real) or p == "inf"):
                raise ValueError(f'p_grid entries must be numbers or "inf", got {p!r}')
        object.__setattr__(self, "p_grid", tuple(check_exponent(math.inf if p == "inf" else p) for p in grid))
        if not self.p_grid:
            raise ValueError("p_grid must hold at least one exponent")
        if len(set(self.p_grid)) != len(self.p_grid):
            raise ValueError(f"p_grid repeats an exponent: {list(grid)!r}")
        if not isinstance(self.monotone, bool):
            raise ValueError(f"monotone must be true or false, got {self.monotone!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "SearchConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def to_dict(self) -> dict:
        return {**asdict(self), "p_grid": [exponent_tag(p) for p in self.p_grid]}


@dataclass
class SearchResult:
    config: SearchConfig
    best_violation: float
    best_p: float
    witness: dict
    per_p: dict[float, float]
    history: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __eq__(self, other) -> bool:
        """Field by field, as a dataclass compares, ``history`` by its list of values."""
        if type(other) is not type(self):
            return NotImplemented
        return {**vars(self), "history": self.history.tolist()} == {**vars(other), "history": other.history.tolist()}

    def verdict(self) -> str:
        if self.best_violation > INEQUALITY_TOL:
            return f"violation found: {self.best_violation:.6g} at p={self.best_p}"
        return f"no violation found (budget {self.config.trials} trials x {len(self.config.p_grid)} exponents)"


class Instance(Block):
    """Search instances as the rows of arrays; one row is one instance.

    ``kernels.Block`` plus each row's two leibniz split fractions, (B,)
    arrays that read 0.5 when not given.  ``Instance.one(mu, f, g=None,
    phi=None)`` builds a single instance.
    """

    FIELDS = Block.FIELDS + ("split1", "split2")

    def __init__(self, mu, f, g=None, bp=None, slopes=None, anchor=None, split1=None, split2=None):
        super().__init__(mu, f, g, bp, slopes, anchor)
        self.split1 = np.full(len(self), 0.5) if split1 is None else split1
        self.split2 = np.full(len(self), 0.5) if split2 is None else split2

    def row(self, i: int) -> "Instance":
        """Row i alone, its phi trimmed of the +inf padding, as witnesses and ``refine`` take it."""
        arrays = {name: None if a is None else a[[i]] for name, a in self.arrays().items()}
        if self.bp is not None:
            m = int(np.count_nonzero(np.isfinite(self.bp[i])))
            arrays["bp"], arrays["slopes"] = arrays["bp"][:, :m], arrays["slopes"][:, :m + 1]
        return type(self)(**arrays)

    def to_dict(self) -> dict:
        """The witness form of a one-row instance."""
        d = {"mu": self.mu[0].tolist(), "f": self.f[0].tolist()}
        if self.g is not None:
            d["g"] = self.g[0].tolist()
        if self.bp is not None:
            d["phi"] = {"breakpoints": self.bp[0].tolist(), "slopes": self.slopes[0].tolist(),
                        "anchor": float(self.anchor[0])}
        if self.g is not None:
            d["split1"], d["split2"] = float(self.split1[0]), float(self.split2[0])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Instance":
        """The one-row instance of a witness, validated as ``replay`` requires it (ValueError)."""
        if not isinstance(d, dict) or not {"mu", "f"} <= d.keys():
            raise ValueError(f"a witness must be an object with mu and f, got {d!r:.80}")
        f, mu = paired(d["f"], ProbVector(d["mu"]))
        splits = {name: np.array([as_number(d.get(name, 0.5))]) for name in ("split1", "split2")}
        if not all(0.0 <= s[0] <= 1.0 for s in splits.values()):
            raise ValueError(f"split fraction must lie in [0, 1], got {[float(s[0]) for s in splits.values()]}")
        return cls.one(mu, f, as_pair(f, d["g"])[1] if "g" in d else None,
                       PiecewiseLinearFn.from_dict(d["phi"]) if "phi" in d else None, **splits)


def _floored_simplex(raw: np.ndarray, floor: float) -> np.ndarray:
    """Project positive raw weights (one row per measure) onto the simplex with a mass floor (refinement)."""
    pos = np.maximum(raw, 0.0)
    total = pos.sum(axis=1, keepdims=True)
    n = raw.shape[1]
    body = 1.0 - n * floor
    with np.errstate(invalid="ignore", divide="ignore"):
        out = floor + body * pos / total
    out[total[:, 0] <= 0.0] = 1.0 / n
    return out


def _sample(config: SearchConfig, trials) -> Instance:
    """The rows of ``trials`` (a range, or a list that may repeat a trial),
    trial t read from ``kernels.trial_words`` as the target's statement lays
    out an instance of n atoms at segment width n (``verify.Statement.draw``:
    the measure, f, g for leibniz and for the chain rule phi from
    2 max_breakpoints + 3 uniforms, monotone as ``config.monotone`` asks),
    then for leibniz two splits (``kernels.integers`` over _SPLIT_CHOICES).
    """
    n, statement, phi = config.n, STATEMENTS[config.target], 2 * config.max_breakpoints + 3
    leibniz = config.target == "leibniz"
    u = uniforms(trial_words(config.seed, SEARCH_STREAM, trials, statement.columns(n, phi) + 2 * leibniz))
    fields, at = statement.draw(u, n, n, config.mass_floor, phi, config.monotone)
    if leibniz:
        choices = np.asarray(_SPLIT_CHOICES)
        fields.update(split1=choices[integers(u[:, at], len(choices))],
                      split2=choices[integers(u[:, at + 1], len(choices))])
    return Instance(**fields)


# -- violations of a block at its exponents -----------------------------------

def _exponents(b: Instance, target: str, p) -> tuple:
    """The exponents of the target's statement at p, which broadcasts against
    the rows as ``kernels.lp`` takes it (one float, one per row, or a grid):
    p, and for leibniz the (p, q) of ``HolderTriple.split(p, s)`` for each
    row's splits s, in p's broadcast shape: with u = 1/p (0 at inf), 1/(s u)
    and 1/((1 - s) u), inf where a part is 0."""
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}")
    if target != "leibniz":
        return (p,)
    u, *splits = np.broadcast_arrays(1.0 / np.asarray(p, dtype=float), b.split1, b.split2)
    with np.errstate(divide="ignore"):
        return (p, *(1.0 / part for s in splits for part in (s * u, (1.0 - s) * u)))


def _violations(b: Instance, target: str, p) -> np.ndarray:
    """lhs - rhs of the target inequality at p: one float or one per row, which
    gives one value per row, or a grid of E exponents as an (E, 1) column,
    which gives the (rows, E) matrix; -inf on a row outside the statement's
    domain."""
    exponents, statement = _exponents(b, target, p), STATEMENTS[target]
    # a singular f (strong leibniz) makes inf / inf
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs, rhs, _ = statement.sides(b, exponents)
    outside = statement.outside(b.f)
    # the kernels give a grid's values exponents first; .T leaves one per row as it is
    return (lhs - rhs if outside is None else np.where(outside, -np.inf, lhs - rhs)).T


def random_instance(config: SearchConfig, trial_seed: int) -> Instance:
    """Deterministic function of (config.seed, trial_seed)."""
    return _sample(config, [int(trial_seed)]).row(0)


def violation(inst: Instance, target: str, p: float) -> float:
    """lhs - rhs of the target inequality at a one-row instance; positive
    means counterexample."""
    return float(_violations(inst, target, p)[0])


def replay(inst: Instance, target: str, p: float) -> VerificationReport:
    """The report of a one-row instance, the one the target's ``verify.check_*``
    gives: its witness form validated as ``Instance.from_dict`` validates it,
    then reported by the target's statement, which refuses it outside its domain."""
    one = Instance.from_dict(inst.to_dict())
    exponents = _exponents(one, target, check_exponent(p))  # ValueError for an unknown target
    return STATEMENTS[target].reports(one, exponents).reports()[0]


# -- refinement ---------------------------------------------------------------

_MU, _F, _G, _SLOPES, _BP, _ANCHOR = range(6)

#: The field each kind of move acts on, by its code above.
_KINDS = ("mu", "f", "g", "slopes", "bp", "anchor")


@functools.cache
def _layout(n: int, width: int, pair: bool, phi: bool):
    """An instance (n atoms, g if ``pair``, phi padded to ``width``
    breakpoints) as one flat row of floats, and its moves in order: the
    column span of each ``Instance`` field in the row (an index for a
    one-value field); the kind, flat column and sign of each move; and
    ``live[m]``, the moves that exist when phi has m breakpoints."""
    sizes = [n, n, n * pair, *((width + 1, width, 1) if phi else (0, 0, 0))]
    first = np.cumsum([0, *sizes]).tolist()
    spans = {name: slice(first[k], first[k + 1]) for k, name in enumerate(_KINDS) if sizes[k]}
    if phi:
        spans["anchor"] = first[_ANCHOR]
    spans["split1"], spans["split2"] = first[-1], first[-1] + 1
    kind = np.repeat(np.arange(len(sizes)), [2 * k for k in sizes])
    col = np.concatenate([np.repeat(np.arange(k), 2) for k in sizes])
    m = np.arange(width + 1)[:, None]
    live = ~((kind == _SLOPES) & (col > m) | (kind == _BP) & (col >= m))
    return spans, kind, np.take(first, kind) + col, np.tile([1.0, -1.0], len(kind) // 2), live


def _fields(flat: np.ndarray, spans: dict) -> Instance:
    """The Instance of flat rows: mu, f and g contiguous copies, as the
    kernels take them (``kernels.rowdot``'s matmul then calls the BLAS dot it
    calls on the sampled fields), phi's arrays and the splits views."""
    return Instance(**{name: flat[:, span].copy() if name in ("mu", "f", "g") else flat[:, span]
                       for name, span in spans.items()})


def _moves(layout, counts: np.ndarray) -> tuple:
    """The neighbours of rows with ``counts`` breakpoints each, in the order
    ``_neighbours`` makes them: each one's row (an index into ``counts``) and
    move in ``_layout`` order, the first neighbour of each kind of move (and
    the end), and each one's flat column."""
    kinds, cols, live = layout[1], layout[2], layout[4]
    move, owner = np.nonzero(live[counts].T)  # move by move, each move's rows in order
    return owner, move, np.searchsorted(kinds[move], np.arange(_ANCHOR + 2)).tolist(), cols[move]


def _neighbours(state: np.ndarray, source: np.ndarray, at: np.ndarray, delta: np.ndarray, runs: list,
                spans: dict, monotone: bool, floor: float):
    """The single-coordinate perturbations of rows of the flat ``state``
    (``_layout``; phi padded with +inf) as flat rows, each kind of move in
    one run of rows (``runs``, as ``_moves`` gives them): neighbour i is row
    ``source[i]`` with ``delta[i]`` added at flat index ``at[i]`` of the
    gathered rows.  A new phi is renormalised to unit Lipschitz constant;
    one with breakpoints closer than 1e-9 or flat slopes is infeasible.  One
    gather, one scatter of the moved values (a moved f, g or breakpoint
    clipped on the way), and each kind's projection on its run.  Returns the
    rows, and which are feasible; the statement's own domain is left to
    ``_violations``.
    """
    out = state[source]
    feasible = np.ones(len(source), dtype=bool)

    def run(first, last=None):  # the rows of the moves of kinds first to last
        return slice(runs[first], runs[(first if last is None else last) + 1])

    moved = out.take(at)
    moved += delta
    for r in run(_F, _G), run(_BP):  # a moved f, g or breakpoint stays in [-1, 1]
        np.minimum(np.maximum(moved[r], -1.0, out=moved[r]), 1.0, out=moved[r])
    np.put(out, at, moved)
    mu = spans["mu"]
    out[run(_MU), mu] = _floored_simplex(out[run(_MU), mu], floor)
    if "bp" in spans:
        slopes, bp = spans["slopes"], spans["bp"]
        r = run(_SLOPES)
        if monotone:  # each row keeps the sign of its own slopes
            rising = (state[source[r], slopes].sum(axis=1) >= 0)[:, None]
            out[r, slopes] = np.where(rising, np.maximum(out[r, slopes], 0.0), np.minimum(out[r, slopes], 0.0))
        out[run(_BP), bp] = np.sort(out[run(_BP), bp], axis=1)
        r = run(_SLOPES, _ANCHOR)
        peak = row_maxima(np.abs(out[r, slopes]))
        gaps = out[r, bp]
        with np.errstate(invalid="ignore", divide="ignore"):  # inf - inf in the padding
            feasible[r] = ~np.any(gaps[:, 1:] - gaps[:, :-1] <= 1e-9, axis=1) & (peak >= 1e-12)
            out[r, slopes] /= peak[:, None]
    return out, feasible


def _climb(b: Instance, target: str, steps: int, p: np.ndarray, values,
           monotone: bool, floor: float) -> tuple[Instance, np.ndarray]:
    """``refine`` of every row of ``b`` together (phi padded with +inf), row i
    at exponent ``p[i]`` from its violation ``values[i]``; each pass scores one
    block, the neighbours of every row still climbing.  Every row's fields
    are one row of a flat array (``_layout``), so a pass gathers, and its
    accepted moves write back, in one step each; the neighbours' tables
    (``_moves``) are built when a row stops climbing, and their steps when
    a row's epoch ends.  Returns the tuned rows and their violations."""
    layout = _layout(b.mu.shape[1], 0 if b.bp is None else b.bp.shape[1], b.g is not None, b.bp is not None)
    spans, width, signs = layout[0], len(layout[1]), layout[3]
    state = np.empty((len(b), spans["split2"] + 1))  # C-contiguous, one row per leader
    for name, span in spans.items():
        state[:, span] = getattr(b, name)
    best = np.array(values, dtype=float)
    counts = np.zeros(len(b), dtype=np.intp) if b.bp is None else np.isfinite(b.bp).sum(axis=1)
    active = np.arange(len(b) if steps > 0 else 0)
    epoch, sweep, rebuild = np.zeros(active.size, dtype=np.intp), np.zeros(active.size, dtype=np.intp), True
    while active.size:
        if rebuild:  # the rows still climbing have changed
            owner, move, runs, col = _moves(layout, counts[active])
            source, slot, base = active[owner], owner * width + move, np.arange(active.size) * width
            at, sign = np.arange(len(owner)) * state.shape[1] + col, signs[move]
            exponents, index = p[source], np.empty(active.size * width, dtype=np.intp)
            index[slot] = np.arange(len(slot))  # each slot's neighbour
            rebuild, delta = False, None
        if delta is None:  # an epoch has ended
            delta = sign * np.take(STEP_EPOCHS, epoch)[owner]
        cands, feasible = _neighbours(state, source, at, delta, runs, spans, monotone, floor)
        scores = np.full((active.size, width), -np.inf)
        np.put(scores, slot, np.where(feasible, _violations(_fields(cands, spans), target, exponents), -np.inf))
        k = base + np.argmax(scores, axis=1)  # each row's first maximum (a nan, if any), flat
        top = scores.take(k)
        up = top > best[active]
        moved = active[up]
        state[moved] = cands[index[k[up]]]
        best[moved] = top[up]
        # a row's epoch ends at a sweep that does not improve it, or at its last sweep
        sweep = np.where(up & (sweep + 1 < steps), sweep + 1, 0)
        ended = sweep == 0
        if ended.any():
            epoch += ended
            delta, climbing = None, epoch < len(STEP_EPOCHS)
            if not climbing.all():
                active, epoch, sweep, rebuild = active[climbing], epoch[climbing], sweep[climbing], True
    return _fields(state, spans), best


def refine(inst: Instance, target: str, steps: int, p: float,
           monotone: bool = False, mass_floor: float = MASS_FLOOR) -> tuple[Instance, float]:
    """Greedy coordinate hill climbing on the violation of a one-row instance
    (phi unpadded); never worsens the input.  Returns the tuned instance and
    its violation, the value ``violation`` gives for it.

    Up to ``steps`` sweeps at each step size in STEP_EPOCHS (the epochs).  A
    sweep scores all neighbours of its starting point and moves to the first
    one of maximal violation if that beats the current one, else ends the
    epoch.  The feasible region (simplex with mass floor, coordinate boxes,
    breakpoint ordering, unit Lipschitz constant) is kept by construction; a
    neighbour outside it, or outside the statement's domain, scores -inf.
    ``search`` runs this climb on all its leaders in lockstep, each with its
    own epoch and sweep count, so each takes the path it takes here.  The
    input is scored once on entry, and returned itself if no move improves it.
    """
    start = _violations(inst, target, p)
    tuned, v = _climb(inst, target, steps, np.full(1, p), start, monotone, mass_floor)
    return (tuned if v[0] > start[0] else inst), float(v[0])


def _reach(b: Instance, column: np.ndarray) -> np.ndarray:
    """The chain-rule violation of each row at each exponent of the (E, 1)
    ``column``, as a (rows, E) matrix, with phi replaced by the function of
    phi's sign pattern between consecutive sorted atoms and slopes +-1 (0
    where phi is flat there): a vertex of the box of phi's increments, where
    the convex lhs is largest.  It reads phi(f) from the block (``phi_f``),
    so the block's scores and its reach evaluate phi once, and takes both
    norms at every exponent in one ``kernels.lp`` call each.  At p = 2 and
    p = inf the reach is at most rounding, below INEQUALITY_TOL, since the
    chain rule holds there for every 1-Lipschitz phi (the module docstring),
    so ``_scored`` takes it only at the other exponents and ranks by 0 there."""
    order = np.argsort(b.f, axis=1, kind="stable")
    order += np.arange(0, order.size, order.shape[1])[:, None]  # flat indices
    x, mu, values = (np.take(a, order) for a in (b.f, b.mu, b.phi_f))
    turns = np.sign(values[:, 1:] - values[:, :-1])
    z = np.zeros_like(x)
    z[:, 1:] = row_cumsum((x[:, 1:] - x[:, :-1]) * turns)
    return (lp(center(z, mu), mu, column) - lp(center(x, mu), mu, column)).T


def _first(keys: tuple, k: int) -> np.ndarray:
    """The first k rows of ``np.lexsort(keys[::-1])``: ``keys`` are equal
    length arrays, primary first, each sorting nan last as numpy's sorts
    do; ties go to the lower row.  Each key's ``np.partition`` keeps the
    rows below its k-th value, and only the rows tied at that value meet
    the next key, so the few rows kept are sorted, not all rows."""
    rows, kept = np.arange(len(keys[0])), []
    for key in keys:
        if len(rows) <= k:
            break
        values = key[rows]
        cut = np.partition(values, k - 1)[k - 1]
        nan = np.isnan(values) if cut != cut else None  # every number is below a nan cut
        kept.append(rows[values < cut] if nan is None else rows[~nan])
        k -= len(kept[-1])
        rows = rows[values == cut] if nan is None else rows[nan]
    rows = np.sort(np.concatenate([*kept, rows[:k]]))
    return rows[np.lexsort([key[rows] for key in reversed(keys)])]


def _scored(config: SearchConfig, trials: range, column: np.ndarray) -> tuple:
    """The (trials, exponents) scores of a block of trials at the exponents
    of ``column``, and their reach: for the chain rule ``_reach``, and 0 at
    p = 2 and inf, where it cannot exceed INEQUALITY_TOL; else the scores.
    The block is dropped on return, before the next is drawn."""
    block = _sample(config, trials)
    scores = _violations(block, config.target, column)
    if config.target != "chain_rule":
        return scores, scores
    reach, open_ = np.zeros_like(scores), (column[:, 0] != 2.0) & (column[:, 0] != math.inf)
    if open_.any():
        reach[:, open_] = _reach(block, column[open_])
    return scores, reach


class _Ranking:
    """Each exponent's k leaders, ranked a block of scores at a time: its
    best row (the first of the largest score; a nan score is never best
    unless all are nan), then the others by reach where it exceeds
    INEQUALITY_TOL (else 0), then by score, both descending, then by trial.
    A row where phi is linear with slope +-1 on the range of f scores 0 up
    to rounding, and no move climbs from it; a row whose phi turns where a
    turn can violate ranks above it.

    Each exponent keeps a pool, its best row so far and its first k by
    reach, and meets each block's rows with it (``_first``), so memory holds
    a pool per exponent, not a column per exponent; ``history``, one float
    per trial of the ``trials``, is the running maximum of each trial's
    largest score, filled a block at a time.
    """

    def __init__(self, exponents: int, k: int, trials: int):
        self.k, self.history, self.ranked = k, np.empty(trials), 0
        empty = np.empty(0)
        self.pools = [(empty.astype(np.intp), empty, empty)] * exponents

    def _order(self, scores: np.ndarray, reach: np.ndarray) -> tuple:
        """The best row, and the first k rows by reach, of a pool's rows: the
        k - 1 leaders after the best are among the latter."""
        score_key = -scores
        return _first((score_key,), 1), _first((-np.where(reach > INEQUALITY_TOL, reach, 0.0), score_key), self.k)

    def add(self, scores: np.ndarray, reach: np.ndarray) -> None:
        """Meet the next block's (rows, exponents) scores and reach."""
        start, self.ranked = self.ranked, self.ranked + len(scores)
        trials = np.arange(start, self.ranked)
        # the running maximum goes on from the last trial's; -inf leaves the first trial's as it is
        last = self.history[start - 1:start] if start else [-np.inf]
        self.history[start:self.ranked] = np.maximum.accumulate(np.concatenate([last, row_maxima(scores)]))[1:]
        for j, (t, s, r) in enumerate(self.pools):
            t, s, r = np.concatenate([t, trials]), np.concatenate([s, scores[:, j]]), np.concatenate([r, reach[:, j]])
            keep = np.zeros(len(t), dtype=bool)
            for rows in self._order(s, r):
                keep[rows] = True
            self.pools[j] = t[keep], s[keep], r[keep]

    def leaders(self) -> tuple[np.ndarray, np.ndarray]:
        """The leaders' trials and scores, grouped by exponent, best first."""
        chosen = []
        for t, s, r in self.pools:
            best, rest = self._order(s, r)
            order = np.concatenate([best, rest[rest != best[0]]])[:self.k]
            chosen.append((t[order], s[order]))
        return tuple(np.concatenate(part) for part in zip(*chosen))


def search(config: SearchConfig) -> SearchResult:
    """Best violation over trials x exponents, with refinement of the leaders.

    Trials are sampled and scored ``BLOCK`` at a time, and no array grows with
    the trials: a block is scored at all exponents in one pass (``_violations``
    on the grid): phi(f), the centerings, |x|, the row maxima and the ratios
    once, then per exponent only the power, the sum and the root
    (``kernels.lp``; none at p = 1), and the chain rule's reach (``_reach``,
    not taken at p = 2 or inf) reuses the block's phi(f).  Each block then
    meets each exponent's pool of ``max(refine_top, 1) + 1`` rows at most
    (``_Ranking``), and fills its stretch of the returned ``history``, the
    running maximum of each trial's largest score, 8 bytes per trial.  All
    leaders are re-drawn and climb together (``_climb``, 0 steps when
    ``refine_top`` is 0), each at its own exponent; an exponent's result is
    its first leader of largest climbed violation, the witness read from the
    climbed row.
    """
    grid, target, k = config.p_grid, config.target, min(max(config.refine_top, 1), config.trials)
    column = np.array(grid)[:, None]
    ranking = _Ranking(len(grid), k, config.trials)
    for start in range(0, config.trials, BLOCK):
        ranking.add(*_scored(config, range(start, min(start + BLOCK, config.trials)), column))

    leaders, values = ranking.leaders()
    column = np.repeat(np.arange(len(grid)), k)
    tuned, values = _climb(_sample(config, leaders.tolist()), target, config.refine_steps if config.refine_top else 0,
                           np.take(grid, column), values, config.monotone, config.mass_floor)
    head = np.arange(0, leaders.size, k) + values.reshape(-1, k).argmax(axis=1)  # each exponent's first best
    per_p, trial = values[head].tolist(), leaders[head].tolist()
    # the largest violation, ties to the lower trial, then to the earlier exponent
    j = min(range(len(grid)), key=lambda j: (-per_p[j], trial[j]))
    witness = {**tuned.row(int(head[j])).to_dict(), "p": exponent_tag(grid[j]), "target": target,
               "trial": trial[j], "violation": per_p[j]}
    return SearchResult(config=config, best_violation=per_p[j], best_p=float(grid[j]), witness=witness,
                        per_p=dict(zip(grid, per_p)), history=ranking.history)


# -- fixed counterexample witnesses ------------------------------------------

#: Inverse bound fails at p = 1 on this 3-atom instance.
RECIPROCAL_WITNESS = {
    "mu": (1.0 / 36.0, 3.0 / 4.0, 2.0 / 9.0),
    "f": (-0.3, 0.28, 0.38),
}

#: Non-monotone chain rule fails at p = 1 on this V-shaped two-piece function.
VSHAPE_WITNESS = {
    "mu": (1.0 / 6.0, 9.0 / 12.0, 1.0 / 12.0),
    "f": (-11.0 / 15.0, 1.0 / 15.0, 13.0 / 15.0),
    "phi": {"breakpoints": [1.0 / 15.0], "slopes": [-1.0, 0.6], "anchor": -0.8},
}

#: The fixed witnesses by report name, in ``examples`` order: each one's target
#: (checked at p = 1 by ``verify.check_<target>``), instance in witness form and
#: quoted reference figures (matched within their ``tol``).  The reciprocal
#: witness as stated gives lhs = 0.600982, rhs = 0.532250; its quoted figures
#: are its neighbour's (the adjusted entry), to all printed digits.
WITNESSES = {
    "strong_leibniz_reciprocal_witness": {"target": "strong_leibniz", "instance": RECIPROCAL_WITNESS,
                                          "reference": {"lhs": 0.57783, "rhs": 0.5417, "tol": 5e-4}},
    "chain_rule_vshape_witness": {"target": "chain_rule", "instance": VSHAPE_WITNESS,
                                  "reference": {"lhs": 0.26, "rhs": 0.244, "tol": 1e-3}},
    "strong_leibniz_reciprocal_witness_adjusted": {
        "target": "strong_leibniz", "instance": {**RECIPROCAL_WITNESS, "f": (-0.36, 0.28, 0.38)},
        "reference": {"lhs": 0.57783, "rhs": 0.5417, "tol": 5e-4}},
}


def tent_witness(p) -> dict:
    """The tent of the module docstring at p = a/b, read exactly by
    ``Fraction`` (1 <= p < 2, b <= 100; a float such as 1.9 has b = 2^51),
    in ``WITNESSES``' instance form, with its exact t under "t": t halves
    from 1/2 until the certificate (1 - t)^b b^b > a^b t^(2b-a) holds.  The
    floats are exact while t >= 2^-53.  ValueError for any other p."""
    try:
        q = Fraction(p)
    except (TypeError, ValueError, OverflowError):
        q = None
    if isinstance(p, bool) or q is None or not 1 <= q < 2 or q.denominator > 100:
        raise ValueError(f"the tent takes p = a/b in [1, 2) with b <= 100, got {p!r}")
    a, b, t = q.numerator, q.denominator, Fraction(1, 2)
    while (1 - t) ** b * b ** b <= a ** b * t ** (2 * b - a):
        t /= 2
    return {"mu": (float(t / 2), float(1 - t), float(t / 2)), "f": (-1.0, 0.0, 1.0),
            "phi": {"breakpoints": [0.0], "slopes": [1.0, -1.0], "anchor": 0.0}, "t": t}


def witness_report(name: str, tol: float = INEQUALITY_TOL) -> VerificationReport:
    """The report of the fixed witness ``name`` at p = 1, as its checker gives it."""
    witness = WITNESSES[name]
    inst = witness["instance"]
    phi = (PiecewiseLinearFn.from_dict(inst["phi"]),) if "phi" in inst else ()
    rep = getattr(verify, "check_" + witness["target"])(inst["mu"], inst["f"], *phi, 1.0, tol)
    rep.name = name
    return rep


def reproduce_known_counterexamples(tol: float = INEQUALITY_TOL) -> list[VerificationReport]:
    """Run the two fixed witnesses as stated; both reports FAIL their inequality at p = 1."""
    return [witness_report(name, tol) for name in ("strong_leibniz_reciprocal_witness", "chain_rule_vshape_witness")]
