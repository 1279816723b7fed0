"""The chain rule for monotone Lipschitz maps, and where it breaks.

Monotone phi obeys ||phi(f) - E phi(f)||_p <= Lip(phi) ||f - Ef||_p for every
p; dropping monotonicity keeps the p = 2 (variance) case but can fail at
p = 1.  Two fixed witnesses pin the failures:

* a V-shaped two-piece function violating the p = 1 chain rule, and
* a reciprocal-composition instance violating the inverse bound
  ||f^-1 - E f^-1||_1 <= ||f^-1||_inf^2 ||f - Ef||_1.

The second witness as stated yields 0.600982 vs 0.532250; the reference
figures 0.57783 / 0.5417 quoted for it are matched (to all their digits) by
the neighbouring instance with first coordinate -0.36.  Either way the bound
fails.
"""

import numpy as np

from leibnizlab import (
    PiecewiseLinearFn,
    ProbVector,
    check_chain_rule,
    check_markov_variance,
    check_square_bound,
    laplacian_norm_bound_check,
    lhat_row_col_bounds,
    max_offdiagonal,
    monotone_laplacian,
)
from leibnizlab.knorms import lp_evaluator
from leibnizlab.search import WITNESSES, witness_report

# -- monotone case: the bound holds, via the Laplacian machinery ----------------
pts = np.array([-0.9, -0.2, 0.4, 1.1])
ramp = PiecewiseLinearFn(np.array([0.0]), np.array([0.2, 1.0]), 0.0)
L = monotone_laplacian(pts, ramp)
u = np.array([1.0, -0.5, 0.25, -0.75])
rep = laplacian_norm_bound_check(L, u, lp_evaluator(2.0))
print("monotone divided-difference matrix is a Laplacian;")
print(f"  ||Lu||_2 = {rep.lhs:.4f} <= n max_offdiag ||u||_2 = {rep.rhs:.4f}")
col, row = lhat_row_col_bounds(L)
print(f"  hat-matrix bounds: col {col:.4f}, row {row:.4f} <= {4 * max_offdiagonal(L):.4f}")

mu = ProbVector.uniform(4)
rep = check_chain_rule(mu, pts, ramp, 3.0)
print(f"  chain rule at p=3: slack {rep.slack:.4f} -> {'holds' if rep.passed else 'fails'}")

# -- non-monotone witness: fails at p = 1, survives at p = 2 ---------------------
vshape = WITNESSES["chain_rule_vshape_witness"]["instance"]
mu = ProbVector(np.asarray(vshape["mu"]))
f = np.asarray(vshape["f"])
phi = PiecewiseLinearFn.from_dict(vshape["phi"])
print("\nV-shaped witness, Lip(phi) = 1 exactly:")
for p in (1.0, 2.0):
    rep = check_chain_rule(mu, f, phi, p)
    print(f"  p={p}: lhs {rep.lhs:.6f} vs rhs {rep.rhs:.6f} -> "
          f"{'holds' if rep.passed else 'FAILS'}")
print("  variance form (p=2, any Lipschitz phi):",
      "holds" if check_markov_variance(mu, f, phi).passed else "FAILS")
print("  square-function bound still holds:",
      "yes" if check_square_bound(mu, f, 1.0).passed else "no")

# -- inverse bound witness -------------------------------------------------------
print("\nreciprocal witness at p = 1:")
for tag, name in (("as stated ", "strong_leibniz_reciprocal_witness"),
                  ("adjusted f1", "strong_leibniz_reciprocal_witness_adjusted")):
    rep = witness_report(name)
    print(f"  {tag}: lhs {rep.lhs:.6f} vs rhs {rep.rhs:.6f} -> "
          f"{'holds' if rep.passed else 'FAILS'} (gap {rep.violation:.4f})")
