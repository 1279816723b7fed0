"""Weighted vector k-norms, their closed-form duals, and the oracle behind them.

The dual of ||.||_(k)^w has a short closed formula; this demo evaluates it,
rebuilds it from first principles by maximizing <x, y> over the explicit
candidate extreme points of the unit ball, and shows the classical constant-
weight special case max(sup-norm, l1-norm / k).
"""

import numpy as np

from leibnizlab import (
    dual_norm_bruteforce,
    dual_weighted_k_norm,
    extreme_point_candidates,
    k_norm,
    weighted_k_norm,
)

x = np.array([3.0, 1.0])
w = np.array([2.0, 1.0])
print("x =", x, " w =", w, " k = 2")
print("  weighted k-norm      :", weighted_k_norm(x, w, 2))
print("  dual norm (formula)  :", dual_weighted_k_norm(x, w, 2))
print("  dual norm (oracle)   :", dual_norm_bruteforce(x, w, 2))

cand = extreme_point_candidates(w, 2)
print("\ncandidate extreme points of the unit ball (all have norm exactly 1):")
for pt in cand:
    print(f"  {pt}   norm = {weighted_k_norm(pt, w, 2):.12f}")

rng = np.random.default_rng(0)
print("\nrandom spot checks, formula vs oracle (n <= 6):")
worst = 0.0
for _ in range(2000):
    n = int(rng.integers(1, 7))
    wv = np.sort(rng.uniform(0.05, 3.0, n))[::-1]
    k = int(rng.integers(1, n + 1))
    v = rng.normal(size=n)
    worst = max(worst, abs(dual_weighted_k_norm(v, wv, k) - dual_norm_bruteforce(v, wv, k)))
print("  worst |formula - oracle| over 2000 draws:", worst)

print("\nconstant weights: dual of the k-norm is max(||x||_inf, ||x||_1 / k)")
v = np.array([1.0, -4.0, 2.0, 0.5])
for k in range(1, 5):
    closed = dual_weighted_k_norm(v, np.ones(4), k)
    maxform = max(k_norm(v, 1), k_norm(v, 4) / k)
    print(f"  k={k}: formula {closed:.6f}  max-form {maxform:.6f}")
