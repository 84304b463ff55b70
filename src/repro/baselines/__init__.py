"""Baseline estimators Privacy-MaxEnt is compared against.

Three families from the paper's related work:

- the **no-knowledge frequency estimate** (Eq. 9) that every prior metric
  uses implicitly — exposed as
  :func:`repro.core.privacy_maxent.baseline_posterior`;
- the **combinatorial (assignment-enumeration) family** in the spirit of
  Martin et al.'s worst-case background knowledge: enumerate the
  assignments consistent with deterministic knowledge and read posteriors
  or worst-case disclosure off the surviving set.  Exponential in bucket
  size, but exact — which also makes it a ground-truth oracle for testing
  the MaxEnt engine on small inputs;
- the **MaxEnt fitters** the paper's L-BFGS choice was made against
  (Malouf's comparison): Generalized and Improved Iterative Scaling
  (:func:`solve_gis`, :func:`solve_iis`) and a direct primal solve
  (:func:`solve_primal`).  The engine never runs them; they are the
  baselines of ``benchmarks/bench_solvers.py`` and independent oracles
  for the dual solver in the tests.
"""

from repro.baselines.enumeration import (
    AssignmentOracle,
    enumeration_posterior,
    worst_case_disclosure,
)
from repro.baselines.gis import solve_gis
from repro.baselines.iis import solve_iis
from repro.baselines.primal import solve_primal

__all__ = [
    "AssignmentOracle",
    "enumeration_posterior",
    "solve_gis",
    "solve_iis",
    "solve_primal",
    "worst_case_disclosure",
]
