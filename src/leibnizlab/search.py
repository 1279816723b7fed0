"""Randomized counterexample search with greedy local refinement.

The search maximizes the violation ``lhs - rhs`` of a target inequality over
instances (measure, vector(s), piecewise-linear function).  A positive best
violation is a counterexample witness; for targets that are theorems the
search is a negative control and must come back empty.

Where the non-monotone chain rule and the inverse bound stand: both fail at
p = 1 (the fixed witnesses below) and both hold at p = 2 and p = inf, so a
violation at p = 2 or inf is a bug in the kernel, not a discovery.  The open
exponents are (1, 2) and (2, inf); there a search result is evidence, never
a proof, and is labeled "no violation found (budget N)".  With X' an
independent copy of X = f, and L = Lip(phi), or L = ||f^-1||_inf^2 for
phi(x) = 1/x, because |1/a - 1/b| <= ||f^-1||_inf^2 |a - b| for values a, b
of f:

* p = 2: Var Y = E(Y - Y')^2 / 2, so Var phi(f) <= L^2 E(X - X')^2 / 2 =
  L^2 Var f.  (For the chain rule this is ``verify.check_markov_variance``;
  for the inverse bound it is the commutative case of Rieffel's theorem
  that standard deviation is strongly Leibniz, New York J. Math. 20, 2014.)
* p = inf: |phi(x_i) - E phi(f)| <= L E|x_i - X|.  The right side is convex
  in x_i, so over the range of f it is largest at min f or max f, where it
  equals L |x_i - Ef| <= L ||f - Ef||_inf.

An ``Instance`` holds search instances as the rows of arrays; one row is one
instance, and the one-instance functions (``violation``, ``refine``,
``replay``, the witness codec) take one-row Instances.  Trials are sampled and
scored in blocks of ``BLOCK`` rows: the target's statement in
``verify.STATEMENTS`` maps a block and an exponent to both sides of all its
rows, with the same floating-point operations, in the same order, as the
checker in ``verify`` applied to each row alone.  The search takes a row out
of a block with ``Instance.row``.  Each exponent keeps one leader table, its
best trials in order (``search``); refinement scores all neighbours of an
instance as one block and returns the tuned instance with its violation.

Determinism: trial t draws from its own ``default_rng((seed, t))``, derived a
block at a time by ``kernels.streams`` and equal to it bit for bit (or built
by ``default_rng`` itself, where a numpy seeds differently); refinement is
rng-free hill climbing; aggregation takes the maximal violation with ties
broken by the lower trial index.  Results therefore depend on the seed and
the budget only, not on the block size.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .core import HolderTriple, ProbVector, check_exponent, exponent_tag
from .kernels import BLOCK, Block, dirichlet_rows, sample_phi, streams
from .operators import PiecewiseLinearFn
from .reports import VerificationReport
from .verify import (
    INVERTIBILITY_FLOOR,
    STATEMENTS,
    check_chain_rule,
    check_leibniz,
    check_square_bound,
    check_strong_leibniz,
)

TARGETS = ("chain_rule", "strong_leibniz", "leibniz", "square_bound")

#: Hill-climbing step sizes, one epoch each.
STEP_EPOCHS = (0.1, 0.01, 0.001)

_SPLIT_CHOICES = (0.0, 0.25, 0.5, 0.75, 1.0)

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
    mass_floor: float = 1e-3
    refine_top: int = 5

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}; choose from {TARGETS}")
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.n < 2:
            raise ValueError("need at least two atoms")
        if not 1 <= self.max_breakpoints <= 8:
            raise ValueError("breakpoint budget must lie in [1, 8]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
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
    history: list[float] = field(default_factory=list)

    def verdict(self) -> str:
        if self.best_violation > 1e-9:
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
        """Row i alone, its phi trimmed of the +inf padding: refinement moves
        every breakpoint column."""
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
        """The one-row instance of a witness; phi is validated by ``PiecewiseLinearFn``."""
        return cls.one(d["mu"], d["f"], d.get("g"),
                       PiecewiseLinearFn.from_dict(d["phi"]) if "phi" in d else None,
                       split1=np.array([d.get("split1", 0.5)], dtype=float),
                       split2=np.array([d.get("split2", 0.5)], dtype=float))


def _floored_simplex(raw: np.ndarray, floor: float) -> np.ndarray:
    """Project positive raw weights (one row per measure) onto the simplex with a mass floor."""
    pos = np.clip(raw, 0.0, None)
    total = pos.sum(axis=1, keepdims=True)
    n = raw.shape[1]
    body = 1.0 - n * floor
    with np.errstate(invalid="ignore", divide="ignore"):
        out = floor + body * pos / total
    out[total[:, 0] <= 0.0] = 1.0 / n
    return out


def _sample(config: SearchConfig, start: int, stop: int) -> Instance:
    """Trials ``start .. stop - 1``, trial t drawn from ``default_rng((seed, t))``
    (through ``kernels.streams``).

    The draws, in order: the measure (``dirichlet(ones(n))``), then f (for
    strong leibniz magnitudes in [0.05, 1) and signs), g, phi's breakpoint
    count, breakpoints, slopes and anchor, and the two leibniz splits.  Only
    the draws are made per trial; the arithmetic on them is done per block.
    Draws are taken as raw uniforms and exponentials where that gives the
    same values: ``uniform(-1, 1)`` is ``-1 + 2 * random()`` exactly, and
    ``dirichlet(ones(n))`` normalises ``n`` standard exponentials by their
    sequential sum.
    """
    n, target, size = config.n, config.target, stop - start
    chain, leibniz = target == "chain_rule", target == "leibniz"
    strong = target == "strong_leibniz"
    mmax = config.max_breakpoints
    expo = np.empty((size, n))
    unif = np.empty((size, 2 * n if leibniz else n))
    mag = np.empty((size, n)) if strong else None
    counts = np.empty(size, dtype=np.intp)
    knot_u = np.zeros((size, 2 * mmax + 2)) if chain else None
    split_idx = np.empty((size, 2), dtype=np.intp) if leibniz else None
    for i, rng in enumerate(streams((config.seed,), start, stop)):
        rng.standard_exponential(out=expo[i])
        if strong:
            mag[i] = rng.uniform(0.05, 1.0, n)
        rng.random(out=unif[i])
        if chain:
            m = int(rng.integers(1, mmax + 1))
            counts[i] = m
            rng.random(out=knot_u[i, :2 * m + 2])  # breakpoints, slopes, anchor
        if leibniz:
            split_idx[i, 0] = rng.integers(len(_SPLIT_CHOICES))
            split_idx[i, 1] = rng.integers(len(_SPLIT_CHOICES))

    mu = _floored_simplex(dirichlet_rows(expo), config.mass_floor)
    if strong:
        f = mag * np.where(unif < 0.5, -1.0, 1.0)
    else:
        f = -1.0 + 2.0 * unif[:, :n]
    block = dict(mu=mu, f=f)
    if leibniz:
        choices = np.asarray(_SPLIT_CHOICES)
        block.update(g=-1.0 + 2.0 * unif[:, n:], split1=choices[split_idx[:, 0]],
                     split2=choices[split_idx[:, 1]])
    if chain:
        block.update(sample_phi(knot_u, counts, config.monotone))
    return Instance(**block)


# -- violations of a block at one exponent ------------------------------------

def _split_exponents(split: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the (p, q) of ``HolderTriple.split(p, s)`` for the row's split s."""
    pe, qe = np.empty(split.shape), np.empty(split.shape)
    for s in set(split.tolist()):
        rows = split == s
        triple = HolderTriple.split(p, s)
        pe[rows], qe[rows] = triple.p, triple.q
    return pe, qe


def _violations(b: Instance, target: str, p: float) -> np.ndarray:
    """lhs - rhs of the target inequality at p (for leibniz, r = p split by each row's fractions)."""
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}")
    exponents = (p,)
    if target == "leibniz":
        exponents += (*_split_exponents(b.split1, p), *_split_exponents(b.split2, p))
    # a singular f (strong leibniz) makes inf / inf; its row reads -inf
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs, rhs, _ = STATEMENTS[target].sides(b, exponents)
    if target == "strong_leibniz":
        return np.where(np.abs(b.f).min(axis=1) < INVERTIBILITY_FLOOR, -np.inf, lhs - rhs)
    return lhs - rhs


def random_instance(config: SearchConfig, trial_seed: int) -> Instance:
    """Deterministic function of (config.seed, trial_seed)."""
    t = int(trial_seed)
    return _sample(config, t, t + 1).row(0)


def violation(inst: Instance, target: str, p: float) -> float:
    """lhs - rhs of the target inequality at a one-row instance; positive
    means counterexample."""
    return float(_violations(inst, target, p)[0])


def replay(inst: Instance, target: str, p: float) -> VerificationReport:
    """Re-evaluate a one-row instance through the full checkers (slow path)."""
    mu, f = ProbVector(inst.mu[0]), inst.f[0]
    if target == "chain_rule":
        phi = PiecewiseLinearFn(inst.bp[0], inst.slopes[0], inst.anchor[0])
        return check_chain_rule(mu, f, phi, p)
    if target == "strong_leibniz":
        return check_strong_leibniz(mu, f, p)
    if target == "square_bound":
        return check_square_bound(mu, f, p)
    if target == "leibniz":
        return check_leibniz(mu, f, inst.g[0],
                             HolderTriple.split(p, float(inst.split1[0])),
                             HolderTriple.split(p, float(inst.split2[0])))
    raise ValueError(f"unknown target {target!r}")


# -- refinement ---------------------------------------------------------------

def _neighbours(b: Instance, target: str, step: float, monotone: bool, floor: float) -> Instance:
    """Feasible single-coordinate perturbations of the one instance in ``b``
    (phi unpadded), in a fixed order: mu, f, g, then phi's slopes,
    breakpoints and anchor, each coordinate moved by +step, then by -step.

    A new phi is renormalised to unit Lipschitz constant; one with
    breakpoints closer than 1e-9 or flat slopes is infeasible.
    """
    n = b.mu.shape[1]
    m = 0 if b.bp is None else b.bp.shape[1]
    vectors = ("f",) if b.g is None else ("f", "g")
    total = 2 * n * (1 + len(vectors)) + (0 if b.bp is None else 4 * m + 4)
    out = {name: None if a is None else np.repeat(a, total, axis=0) for name, a in b.arrays().items()}
    keep = np.ones(total, dtype=bool)

    def moves(o, k):  # rows from offset o, coordinates 0..k-1, deltas +step/-step
        return o + np.arange(2 * k), np.repeat(np.arange(k), 2), np.tile([step, -step], k)

    r, c, d = moves(0, n)
    out["mu"][r, c] += d
    out["mu"][r] = _floored_simplex(out["mu"][r], floor)
    o = 2 * n
    for name in vectors:
        r, c, d = moves(o, n)
        out[name][r, c] = np.clip(out[name][r, c] + d, -1.0, 1.0)
        if name == "f" and target == "strong_leibniz":
            keep[r] = np.abs(out["f"][r, c]) >= INVERTIBILITY_FLOOR
        o += 2 * n
    if b.bp is not None:  # rows o.. change phi
        slopes, bp = out["slopes"], out["bp"]
        r, c, d = moves(o, m + 1)
        slopes[r, c] += d
        if monotone:
            bound = (0.0, None) if b.slopes[0].sum() >= 0 else (None, 0.0)
            slopes[r] = np.clip(slopes[r], *bound)
        r, c, d = moves(o + 2 * (m + 1), m)
        bp[r, c] = np.clip(bp[r, c] + d, -1.0, 1.0)
        bp[r] = np.sort(bp[r], axis=1)
        out["anchor"][-2:] += [step, -step]
        peak = np.abs(slopes[o:]).max(axis=1)
        keep[o:] = ~np.any(np.diff(bp[o:], axis=1) <= 1e-9, axis=1) & (peak >= 1e-12)
        with np.errstate(invalid="ignore", divide="ignore"):
            slopes[o:] /= peak[:, None]
    return Instance(**{name: None if a is None else a[keep] for name, a in out.items()})


def refine(inst: Instance, target: str, steps: int, p: float,
           monotone: bool = False, mass_floor: float = 1e-3) -> tuple[Instance, float]:
    """Greedy coordinate hill climbing on the violation of a one-row instance
    (phi unpadded); never worsens the input.  Returns the tuned instance and
    its violation, the value ``violation`` gives for it.

    Runs up to ``steps`` sweeps at each step size in STEP_EPOCHS.  A sweep
    scores all neighbours of its starting point and moves to the first one of
    maximal violation, if that beats the current one.  This is the sequential
    sweep that takes every strict improvement in turn, because that sweep's
    neighbours are fixed when it starts.  The feasible region (simplex with
    mass floor, coordinate boxes, breakpoint ordering, unit Lipschitz
    constant) is maintained by construction.  Returns ``inst`` itself when no
    move improves it; the input is scored once on entry.
    """
    best, best_v = inst, _violations(inst, target, p)[0]
    for step in STEP_EPOCHS:
        for _ in range(steps):
            cands = _neighbours(best, target, step, monotone, mass_floor)
            v = _violations(cands, target, p)
            k = int(np.argmax(v))
            if not v[k] > best_v:
                break
            best, best_v = cands.rows([k]), v[k]
    return best, float(best_v)


def search(config: SearchConfig) -> SearchResult:
    """Best violation over trials x exponents, with refinement of the leaders.

    Each exponent keeps one leader table, its ``max(refine_top, 1)`` best
    ``(violation, trial, row)`` by (-violation, trial); the head is its best trial.
    """
    grid, size = config.p_grid, max(config.refine_top, 1)
    tables: dict[float, list[tuple[float, int, Instance]]] = {p: [] for p in grid}
    row_max = []
    for start in range(0, config.trials, BLOCK):
        block = _sample(config, start, min(start + BLOCK, config.trials))
        scores = np.empty((len(block), len(grid)))
        for j, p in enumerate(grid):
            v = scores[:, j] = _violations(block, config.target, p)
            pool = tables[p] + [(float(v[i]), start + int(i), block.row(i))
                                for i in np.argsort(-v, kind="stable")[:size]]
            pool.sort(key=lambda item: (-item[0], item[1]))
            tables[p] = pool[:size]
        row_max.append(scores.max(axis=1))

    per_p_best = {p: tables[p][0] for p in grid}
    if config.refine_steps > 0:
        for p in grid:
            for _, t, row in tables[p][:config.refine_top]:
                tuned, v = refine(row, config.target, config.refine_steps, p,
                                  config.monotone, config.mass_floor)
                if v > per_p_best[p][0]:
                    per_p_best[p] = (v, t, tuned)

    # the largest violation, ties to the lower trial, then to the earlier exponent
    best_p = min(grid, key=lambda p: (-per_p_best[p][0], per_p_best[p][1]))
    best = per_p_best[best_p]
    witness = best[2].to_dict()
    witness["p"] = exponent_tag(best_p)
    witness["target"] = config.target
    witness["trial"] = best[1]
    witness["violation"] = best[0]
    return SearchResult(
        config=config,
        best_violation=float(best[0]),
        best_p=float(best_p),
        witness=witness,
        per_p={p: float(per_p_best[p][0]) for p in grid},
        history=np.maximum.accumulate(np.concatenate(row_max)).tolist(),
    )


# -- fixed counterexample witnesses ------------------------------------------

#: Inverse bound fails at p = 1 on this 3-atom instance.
RECIPROCAL_WITNESS = {
    "mu": (1.0 / 36.0, 3.0 / 4.0, 2.0 / 9.0),
    "f": (-0.3, 0.28, 0.38),
}

#: Reference figures quoted for the reciprocal witness family, and the
#: nearby instance (first coordinate -0.36) whose computed norms actually
#: match them to all printed digits; the instance above gives
#: lhs = 0.600982, rhs = 0.532250 instead.  Both versions violate the bound.
RECIPROCAL_REFERENCE = {"lhs": 0.57783, "rhs": 0.5417, "tol": 5e-4}
RECIPROCAL_WITNESS_ADJUSTED = {
    "mu": (1.0 / 36.0, 3.0 / 4.0, 2.0 / 9.0),
    "f": (-0.36, 0.28, 0.38),
}

#: Non-monotone chain rule fails at p = 1 on this V-shaped two-piece function.
VSHAPE_WITNESS = {
    "mu": (1.0 / 6.0, 9.0 / 12.0, 1.0 / 12.0),
    "f": (-11.0 / 15.0, 1.0 / 15.0, 13.0 / 15.0),
    "phi": {"breakpoints": [1.0 / 15.0], "slopes": [-1.0, 0.6], "anchor": -0.8},
}
VSHAPE_REFERENCE = {"lhs": 0.26, "rhs": 0.244, "tol": 1e-3}


def vshape_function() -> PiecewiseLinearFn:
    return PiecewiseLinearFn.from_dict(VSHAPE_WITNESS["phi"])


def reciprocal_witness_report(tol: float = 1e-9, adjusted: bool = False) -> VerificationReport:
    """The inverse bound at p = 1 on the reciprocal witness (or its adjusted neighbour)."""
    witness = RECIPROCAL_WITNESS_ADJUSTED if adjusted else RECIPROCAL_WITNESS
    rep = check_strong_leibniz(ProbVector(np.asarray(witness["mu"])), np.asarray(witness["f"]), 1.0, tol)
    rep.name = "strong_leibniz_reciprocal_witness" + ("_adjusted" if adjusted else "")
    return rep


def reproduce_known_counterexamples(tol: float = 1e-9) -> list[VerificationReport]:
    """Run the two fixed witnesses; both reports FAIL their inequality at p = 1."""
    rep1 = reciprocal_witness_report(tol)
    rep2 = check_chain_rule(
        ProbVector(np.asarray(VSHAPE_WITNESS["mu"])),
        np.asarray(VSHAPE_WITNESS["f"]), vshape_function(), 1.0, tol)
    rep2.name = "chain_rule_vshape_witness"
    return [rep1, rep2]
