"""Randomized counterexample search with greedy local refinement.

The search maximizes the violation ``lhs - rhs`` of a target inequality over
instances (measure, vector(s), piecewise-linear function).  A positive best
violation is a counterexample witness; for targets that are theorems the
search is a negative control and must come back empty.  Results at exponents
p >= 2 for the non-monotone chain rule and the inverse bound are evidence
about an open region, never a proof: output is labeled "no violation found
(budget N)" rather than as a theorem.

Trials are sampled and scored in blocks of ``BLOCK`` rows: one numpy kernel
per target maps a block and an exponent to the violations of all its rows,
with the same floating-point operations, in the same order, as the scalar
formula applied to each row alone.  Refinement scores all neighbours of an
instance as one block.

Determinism: trial t draws from its own ``default_rng((seed, t))``; refinement
is rng-free hill climbing; aggregation takes the maximal violation with ties
broken by the lower trial index.  Results therefore depend on the seed and
the budget only, not on the block size.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import HolderTriple, ProbVector, check_exponent
from .operators import PiecewiseLinearFn
from .reports import VerificationReport
from .verify import (
    INVERTIBILITY_FLOOR,
    check_chain_rule,
    check_leibniz,
    check_square_bound,
    check_strong_leibniz,
)

TARGETS = ("chain_rule", "strong_leibniz", "leibniz", "square_bound")

#: Hill-climbing step sizes, one epoch each.
STEP_EPOCHS = (0.1, 0.01, 0.001)

#: Trials sampled and scored together; results do not depend on it.
BLOCK = 1024

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
        object.__setattr__(self, "p_grid", tuple(check_exponent(p) for p in self.p_grid))
        if not self.p_grid:
            raise ValueError("p_grid must hold at least one exponent")

    @classmethod
    def from_dict(cls, d: dict) -> "SearchConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kw = dict(d)
        if "p_grid" in kw:
            kw["p_grid"] = tuple(float(p) for p in kw["p_grid"])
        return cls(**kw)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "n": self.n,
            "p_grid": ["inf" if math.isinf(p) else p for p in self.p_grid],
            "trials": self.trials,
            "refine_steps": self.refine_steps,
            "seed": self.seed,
            "max_breakpoints": self.max_breakpoints,
            "monotone": self.monotone,
            "mass_floor": self.mass_floor,
            "refine_top": self.refine_top,
        }


@dataclass(frozen=True)
class Instance:
    """One sampled point of the search space (exponent-independent)."""

    mu: np.ndarray
    f: np.ndarray
    g: np.ndarray | None = None
    phi: PiecewiseLinearFn | None = None
    split1: float = 0.5
    split2: float = 0.5

    def to_dict(self) -> dict:
        d = {"mu": [float(v) for v in self.mu], "f": [float(v) for v in self.f]}
        if self.g is not None:
            d["g"] = [float(v) for v in self.g]
        if self.phi is not None:
            d["phi"] = self.phi.to_dict()
        if self.g is not None:
            d["split1"] = self.split1
            d["split2"] = self.split2
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Instance":
        return cls(
            mu=np.asarray(d["mu"], dtype=float),
            f=np.asarray(d["f"], dtype=float),
            g=np.asarray(d["g"], dtype=float) if "g" in d else None,
            phi=PiecewiseLinearFn.from_dict(d["phi"]) if "phi" in d else None,
            split1=float(d.get("split1", 0.5)),
            split2=float(d.get("split2", 0.5)),
        )


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


class _Block:
    """Instances stored as the rows of arrays.

    ``mu``, ``f`` and ``g`` have shape (B, n).  phi (chain rule only) is kept
    as breakpoints (B, M) padded with +inf, slopes (B, M + 1) padded with 0
    and anchors (B,); its knot values and Lipschitz constants are derived
    here exactly as ``PiecewiseLinearFn`` derives them.  The split fractions
    of the leibniz triples are (B,) arrays.  A plain class, because creating
    a dataclass adds about 2 ms to the start-up of every command.
    """

    FIELDS = ("mu", "f", "split1", "split2", "g", "bp", "slopes", "anchor")

    def __init__(self, mu, f, split1, split2, g=None, bp=None, slopes=None, anchor=None):
        self.mu, self.f, self.split1, self.split2 = mu, f, split1, split2
        self.g, self.bp, self.slopes, self.anchor = g, bp, slopes, anchor
        if bp is None:
            return
        self.knots = np.empty_like(bp)
        self.knots[:, 0] = anchor
        if bp.shape[1] > 1:
            # the padding only reaches knots past each row's last breakpoint
            with np.errstate(invalid="ignore"):
                steps = slopes[:, 1:-1] * np.diff(bp, axis=1)
            self.knots[:, 1:] = anchor[:, None] + np.cumsum(steps, axis=1)
        self.lipschitz = np.abs(slopes).max(axis=1)

    def arrays(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}

    def __len__(self) -> int:
        return self.mu.shape[0]

    def rows(self, idx) -> "_Block":
        return _Block(**{name: None if a is None else a[idx] for name, a in self.arrays().items()})

    @classmethod
    def of(cls, inst: Instance) -> "_Block":
        """The one-row block of an instance."""
        phi = inst.phi
        return cls(
            mu=np.asarray(inst.mu, dtype=float)[None, :],
            f=np.asarray(inst.f, dtype=float)[None, :],
            split1=np.array([inst.split1], dtype=float),
            split2=np.array([inst.split2], dtype=float),
            g=None if inst.g is None else np.asarray(inst.g, dtype=float)[None, :],
            bp=None if phi is None else phi.breakpoints[None, :],
            slopes=None if phi is None else phi.slopes[None, :],
            anchor=None if phi is None else np.array([phi.anchor]),
        )

    def instance(self, i: int) -> Instance:
        phi = None
        if self.bp is not None:
            m = int(np.count_nonzero(np.isfinite(self.bp[i])))
            phi = PiecewiseLinearFn(self.bp[i, :m], self.slopes[i, :m + 1], float(self.anchor[i]))
        return Instance(
            mu=self.mu[i].copy(),
            f=self.f[i].copy(),
            g=None if self.g is None else self.g[i].copy(),
            phi=phi,
            split1=float(self.split1[i]),
            split2=float(self.split2[i]),
        )


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


def _sample(config: SearchConfig, start: int, stop: int) -> _Block:
    """Trials ``start .. stop - 1``, trial t drawn from ``default_rng((seed, t))``.

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
    for i, t in enumerate(range(start, stop)):
        rng = np.random.default_rng((config.seed, t))
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

    raw = expo * (1.0 / np.cumsum(expo, axis=1)[:, -1])[:, None]
    mu = _floored_simplex(raw, config.mass_floor)
    if strong:
        f = mag * np.where(unif < 0.5, -1.0, 1.0)
    else:
        f = -1.0 + 2.0 * unif[:, :n]
    half = np.full(size, 0.5)
    block = dict(mu=mu, f=f, split1=half, split2=half)
    if leibniz:
        choices = np.asarray(_SPLIT_CHOICES)
        block.update(g=-1.0 + 2.0 * unif[:, n:], split1=choices[split_idx[:, 0]],
                     split2=choices[split_idx[:, 1]])
    if chain:
        block.update(_sample_phi(knot_u, counts, config.monotone))
    return _Block(**block)


def _sample_phi(knot_u: np.ndarray, counts: np.ndarray, monotone: bool) -> dict:
    """Padded phi arrays from each row's ``2m + 2`` uniforms: m breakpoints,
    m + 1 slopes and the anchor, mapped to [-1, 1)."""
    size, mmax = knot_u.shape[0], (knot_u.shape[1] - 2) // 2
    cols = np.arange(mmax + 1)
    m = counts[:, None]
    bp = np.sort(np.where(cols[:mmax] < m, -1.0 + 2.0 * knot_u[:, :mmax], np.inf), axis=1)
    with np.errstate(invalid="ignore"):
        close = np.diff(bp, axis=1) < 1e-6
    for i in np.flatnonzero(close.any(axis=1)):
        row = bp[i]
        for j in range(1, counts[i]):
            if row[j] - row[j - 1] < 1e-6:
                row[j] = row[j - 1] + 1e-6
    live = cols <= m
    slopes = np.where(live, -1.0 + 2.0 * np.take_along_axis(knot_u, m + cols, axis=1), 0.0)
    if monotone:
        slopes = np.abs(slopes)
    peak = np.abs(slopes).max(axis=1)
    flat = peak < 1e-12
    slopes[flat] = live[flat].astype(float)
    peak[flat] = 1.0
    anchor = -1.0 + 2.0 * knot_u[np.arange(size), 2 * counts + 1]
    return dict(bp=bp, slopes=slopes / peak[:, None], anchor=anchor)


# -- the kernel: violations of a block at one exponent ------------------------

def _rowdot(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise dot products.  matmul on stacked rows calls the same BLAS dot
    as ``np.dot`` on each pair; a reduction by ``sum`` would round differently."""
    return (w[:, None, :] @ x[:, :, None])[:, 0, 0]


def _center(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    return x - _rowdot(mu, x)[:, None]


def _pypow(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e in Python floats.  numpy's vectorised power may round
    differently from the C library's pow, which the checkers use."""
    return np.array([v ** e for v in x.tolist()])


def _lp(x: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """Row-wise ``core.lp_norm``: max |x| factored out; 0 for a zero row."""
    a = np.abs(x)
    m = a.max(axis=1)
    if math.isinf(p):
        return m
    ratios = a / np.where(m == 0.0, 1.0, m)[:, None]
    return m * _pypow(_rowdot(w, ratios ** p), 1.0 / p)


def _split_lp(x: np.ndarray, w: np.ndarray, p: float, split: np.ndarray, side: str) -> np.ndarray:
    """Row-wise norms at exponent ``HolderTriple.split(p, s).<side>`` for each row's s."""
    out = np.empty(x.shape[0])
    for s in np.unique(split):
        rows = split == s
        out[rows] = _lp(x[rows], w[rows], getattr(HolderTriple.split(p, float(s)), side))
    return out


def _phi(b: _Block, x: np.ndarray) -> np.ndarray:
    """phi of each row applied to the same row of x, as ``PiecewiseLinearFn.__call__``."""
    idx = np.count_nonzero(b.bp[:, None, :] <= x[:, :, None], axis=2)
    left = np.maximum(idx - 1, 0)
    base = np.take_along_axis(b.knots, left, axis=1)
    ref = np.take_along_axis(b.bp, left, axis=1)
    return base + np.take_along_axis(b.slopes, idx, axis=1) * (x - ref)


def _chain_rule(b: _Block, p: float) -> np.ndarray:
    lhs = _lp(_center(_phi(b, b.f), b.mu), b.mu, p)
    rhs = b.lipschitz * _lp(_center(b.f, b.mu), b.mu, p)
    return lhs - rhs


def _strong_leibniz(b: _Block, p: float) -> np.ndarray:
    inv = 1.0 / b.f
    lhs = _lp(_center(inv, b.mu), b.mu, p)
    rhs = _pypow(np.abs(inv).max(axis=1), 2) * _lp(_center(b.f, b.mu), b.mu, p)
    singular = np.abs(b.f).min(axis=1) < INVERTIBILITY_FLOOR
    return np.where(singular, -np.inf, lhs - rhs)


def _square_bound(b: _Block, p: float) -> np.ndarray:
    lhs = _lp(_center(b.f * b.f, b.mu), b.mu, p)
    rhs = 2.0 * np.abs(b.f).max(axis=1) * _lp(_center(b.f, b.mu), b.mu, p)
    return lhs - rhs


def _leibniz(b: _Block, p: float) -> np.ndarray:
    mu, f, g = b.mu, b.f, b.g
    lhs = _lp(_center(f * g, mu), mu, p)
    rhs = (_split_lp(f, mu, p, b.split1, "p") * _split_lp(_center(g, mu), mu, p, b.split1, "q")
           + _split_lp(g, mu, p, b.split2, "p") * _split_lp(_center(f, mu), mu, p, b.split2, "q"))
    return lhs - rhs


_KERNELS = {
    "chain_rule": _chain_rule,
    "strong_leibniz": _strong_leibniz,
    "square_bound": _square_bound,
    "leibniz": _leibniz,
}


def _violations(b: _Block, target: str, p: float) -> np.ndarray:
    """lhs - rhs of the target inequality for every row of the block."""
    try:
        kernel = _KERNELS[target]
    except KeyError:
        raise ValueError(f"unknown target {target!r}") from None
    # a singular f (strong leibniz) makes inf / inf; its row reads -inf
    with np.errstate(divide="ignore", invalid="ignore"):
        return kernel(b, p)


def random_instance(config: SearchConfig, trial_seed: int) -> Instance:
    """Deterministic function of (config.seed, trial_seed)."""
    t = int(trial_seed)
    return _sample(config, t, t + 1).instance(0)


def violation(inst: Instance, target: str, p: float) -> float:
    """lhs - rhs of the target inequality; positive means counterexample."""
    return float(_violations(_Block.of(inst), target, p)[0])


def replay(inst: Instance, target: str, p: float) -> VerificationReport:
    """Re-evaluate a witness through the full checkers (slow path)."""
    mu = ProbVector(inst.mu)
    if target == "chain_rule":
        return check_chain_rule(mu, inst.f, inst.phi, p)
    if target == "strong_leibniz":
        return check_strong_leibniz(mu, inst.f, p)
    if target == "square_bound":
        return check_square_bound(mu, inst.f, p)
    if target == "leibniz":
        return check_leibniz(mu, inst.f, inst.g,
                             HolderTriple.split(p, inst.split1),
                             HolderTriple.split(p, inst.split2))
    raise ValueError(f"unknown target {target!r}")


# -- refinement ---------------------------------------------------------------

def _neighbours(b: _Block, target: str, step: float, monotone: bool, floor: float) -> _Block:
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
    return _Block(**{name: None if a is None else a[keep] for name, a in out.items()})


def _refine(b: _Block, target: str, steps: int, p: float, monotone: bool,
            floor: float) -> _Block | None:
    """Hill climbing from the one instance in ``b``; None if no move improved it.

    A sweep scores all neighbours of its starting point and moves to the
    first one of maximal violation, if that beats the current one.  This is
    the sequential sweep that takes every strict improvement in turn, because
    that sweep's neighbours are fixed when it starts.
    """
    best, best_v, moved = b, _violations(b, target, p)[0], False
    for step in STEP_EPOCHS:
        for _ in range(steps):
            cands = _neighbours(best, target, step, monotone, floor)
            v = _violations(cands, target, p)
            k = int(np.argmax(v))
            if not v[k] > best_v:
                break
            best, best_v, moved = cands.rows([k]), v[k], True
    return best if moved else None


def refine(inst: Instance, target: str, steps: int, p: float,
           monotone: bool = False, mass_floor: float = 1e-3) -> Instance:
    """Greedy coordinate hill climbing on the violation; never worsens the input.

    Runs ``steps`` full sweeps at each step size in STEP_EPOCHS.  The feasible
    region (simplex with mass floor, coordinate boxes, breakpoint ordering,
    unit Lipschitz constant) is maintained by construction.  Returns ``inst``
    itself when no move improves it.
    """
    best = _refine(_Block.of(inst), target, steps, p, monotone, mass_floor)
    return inst if best is None else best.instance(0)


def search(config: SearchConfig) -> SearchResult:
    """Best violation over trials x exponents, with refinement of the leaders."""
    grid, top = config.p_grid, config.refine_top
    per_p_best: dict[float, tuple[float, int, Instance]] = {}
    leaders: dict[float, list[tuple[float, int, _Block]]] = {p: [] for p in grid}
    history: list[float] = []
    running = -math.inf
    for start in range(0, config.trials, BLOCK):
        block = _sample(config, start, min(start + BLOCK, config.trials))
        scores = np.empty((len(block), len(grid)))
        for j, p in enumerate(grid):
            v = scores[:, j] = _violations(block, config.target, p)
            k = int(np.argmax(v))
            cur = per_p_best.get(p)
            if cur is None or v[k] > cur[0]:
                per_p_best[p] = (float(v[k]), start + k, block.instance(k))
            # leaders: the ``top`` best by (-violation, trial)
            pool = leaders[p] + [(float(v[i]), start + int(i), block.rows([i]))
                                 for i in np.argsort(-v, kind="stable")[:top]]
            pool.sort(key=lambda item: (-item[0], item[1]))
            leaders[p] = pool[:top]
        best_so_far = np.maximum.accumulate(np.concatenate(([running], scores.max(axis=1))))
        history.extend(best_so_far[1:].tolist())
        running = float(best_so_far[-1])

    if config.refine_steps > 0:
        for p in grid:
            for v0, t, row in leaders[p]:
                tuned = refine(row.instance(0), config.target, config.refine_steps, p,
                               config.monotone, config.mass_floor)
                v = violation(tuned, config.target, p)
                if v > per_p_best[p][0]:
                    per_p_best[p] = (v, t, tuned)

    best_p = None
    best = (-math.inf, -1, None)
    for p in grid:
        v, t, inst = per_p_best[p]
        if v > best[0] or (v == best[0] and t < best[1]):
            best = (v, t, inst)
            best_p = p
    witness_inst: Instance = best[2]
    witness = witness_inst.to_dict()
    witness["p"] = "inf" if math.isinf(best_p) else float(best_p)
    witness["target"] = config.target
    witness["trial"] = best[1]
    witness["violation"] = best[0]
    return SearchResult(
        config=config,
        best_violation=float(best[0]),
        best_p=float(best_p),
        witness=witness,
        per_p={p: float(per_p_best[p][0]) for p in grid},
        history=history,
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
    d = VSHAPE_WITNESS["phi"]
    return PiecewiseLinearFn(np.asarray(d["breakpoints"]), np.asarray(d["slopes"]), d["anchor"])


def reproduce_known_counterexamples(tol: float = 1e-9) -> list[VerificationReport]:
    """Run the two fixed witnesses; both reports FAIL their inequality at p = 1."""
    rep1 = check_strong_leibniz(
        ProbVector(np.asarray(RECIPROCAL_WITNESS["mu"])),
        np.asarray(RECIPROCAL_WITNESS["f"]), 1.0, tol)
    rep1.name = "strong_leibniz_reciprocal_witness"
    rep2 = check_chain_rule(
        ProbVector(np.asarray(VSHAPE_WITNESS["mu"])),
        np.asarray(VSHAPE_WITNESS["f"]), vshape_function(), 1.0, tol)
    rep2.name = "chain_rule_vshape_witness"
    return [rep1, rep2]
