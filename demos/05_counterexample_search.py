"""Randomized search for inequality violations, with greedy refinement.

At p = 1 the non-monotone chain rule fails and the search finds witnesses in
seconds; at p in {2, 3, inf} the same budget finds nothing, supporting (not
proving) the conjecture that monotonicity is unnecessary there.  The known
theorems serve as negative controls: their searches must come back empty.
"""

import math
import time

import numpy as np

from leibnizlab import Instance, PiecewiseLinearFn, SearchConfig, refine, search
from leibnizlab.search import VSHAPE_WITNESS, replay, violation

TRIALS = 20_000

print(f"non-monotone chain-rule search, n = 3, {TRIALS} trials per exponent:")
for p in (1.0, 2.0, 3.0, math.inf):
    cfg = SearchConfig(target="chain_rule", n=3, p_grid=(p,), trials=TRIALS,
                       refine_steps=8, seed=2718)
    t0 = time.perf_counter()
    res = search(cfg)
    print(f"  p={p!s:4} best violation {res.best_violation:+.6f}  "
          f"[{res.verdict()}]  ({time.perf_counter() - t0:.1f}s)")

cfg = SearchConfig(target="chain_rule", n=3, p_grid=(1.0,), trials=TRIALS,
                   refine_steps=8, seed=2718)
res = search(cfg)
print("\nbest p=1 witness (replayed through the full checker):")
rep = replay(Instance.from_dict(res.witness), "chain_rule", 1.0)
print("  mu   :", np.round(res.witness["mu"], 4))
print("  f    :", np.round(res.witness["f"], 4))
print("  slopes:", np.round(res.witness["phi"]["slopes"], 4))
print(f"  violation {res.best_violation:.6f}, replay {-rep.slack:.6f}")

# refinement alone turns the fixed v-shape witness into a stronger one
inst = Instance.one(VSHAPE_WITNESS["mu"], VSHAPE_WITNESS["f"], phi=PiecewiseLinearFn.from_dict(VSHAPE_WITNESS["phi"]))
v0 = violation(inst, "chain_rule", 1.0)
tuned, v1 = refine(inst, "chain_rule", 15, 1.0)
print(f"\nrefining the fixed v-shape witness: {v0:.6f} -> {v1:.6f}")

print("\nnegative controls (theorems; searches must find nothing):")
for target, monotone in (("leibniz", False), ("square_bound", False), ("chain_rule", True)):
    cfg = SearchConfig(target=target, n=4, p_grid=(1.0, 2.0, math.inf), trials=5000,
                       refine_steps=3, seed=31, monotone=monotone)
    res = search(cfg)
    label = f"{target}{' (monotone)' if monotone else ''}"
    print(f"  {label:24s}: best {res.best_violation:+.3e}  [{res.verdict()}]")
