"""leibnizlab: numerical checks for Leibniz-type inequalities of random variables.

A small laboratory for inequalities of the form

    ||fg - E(fg)||_r <= ||f||_p1 ||g - Eg||_q1 + ||g||_p2 ||f - Ef||_q2

on finite probability spaces, together with the norm and majorization
machinery behind them (weighted vector k-norms and their duals, zero-sum
matrix constructions, divided differences), a chain-rule bound for monotone
Lipschitz compositions, and a randomized search for counterexamples to the
variants that are false or open.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# One OpenBLAS thread unless the user chose a count in any of the variables
# OpenBLAS reads: starting the pool is about 40 % of numpy's import, which
# every command pays, while only large matrices (--n of several hundred) gain
# from it.  Too late once numpy is loaded, so a process that imported numpy
# first keeps its setting.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _THREAD_VARIABLES):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .core import (
    IDENTITY_TOL,
    INEQUALITY_TOL,
    DimensionMismatchError,
    HolderTriple,
    ProbVector,
    center,
    conjugate_exponent,
    downward_rearrange,
    expectation,
    lp_norm,
    sup_norm,
    variance,
    weak_majorizes,
)
from .knorms import (
    ENUMERATION_CAP,
    KyFanDominanceError,
    dual_norm_bruteforce,
    dual_weighted_k_norm,
    extreme_point_candidates,
    k_norm,
    ky_fan_dominates,
    weighted_k_norm,
)
from .operators import (
    DegenerateInputError,
    PiecewiseLinearFn,
    centering_identity_check,
    deflated_theta,
    derivation_checks,
    divided_difference_matrix,
    laplacian_norm_bound_check,
    lhat_row_col_bounds,
    max_offdiagonal,
    monotone_laplacian,
    theta_matrix,
    validate_laplacian,
)
from .reports import VerificationReport
from .search import (
    Instance,
    SearchConfig,
    SearchResult,
    random_instance,
    refine,
    reproduce_known_counterexamples,
    search,
)
from .verify import (
    REPLICATION_CAP,
    RationalProbVector,
    check_chain_rule,
    check_decomposition,
    check_holder_theta,
    check_leibniz,
    check_markov_variance,
    check_square_bound,
    check_strong_leibniz,
    rationalize,
    replicate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
