"""Improved Iterative Scaling (Della Pietra, Della Pietra & Lafferty).

The second classic scaling algorithm the paper cites.  Unlike GIS, IIS
needs no slack feature: each round solves, per constraint ``i``, the
one-dimensional update equation

    sum_t  f_i(t) * p_t * exp(delta_i * f#(t))  =  c_i,

where ``f#(t)`` is the total feature mass of variable ``t``.  We solve all
coordinates simultaneously with a damped vectorized Newton iteration on the
sparse coefficient pattern (each equation is monotone increasing in its
``delta_i``, so Newton with step clipping is globally safe).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.gis import _validate
from repro.errors import NotSupportedError
from repro.maxent.constraints import ConstraintSystem
from repro.maxent.lbfgs import DualSolveResult

#: Newton sub-iterations per IIS round; the inner problem is 1-D and smooth,
#: so a handful of steps reaches machine precision.
_NEWTON_STEPS = 25
_MAX_STEP = 5.0


def solve_iis(
    system: ConstraintSystem,
    mass: float,
    *,
    tol: float = 1e-6,
    max_iterations: int = 2000,
) -> DualSolveResult:
    """Fit the MaxEnt distribution with IIS (presolved equality systems)."""
    _validate(system)
    a_matrix, targets = system.equality_matrix()
    coo = a_matrix.tocoo()
    rows, cols, values = coo.row, coo.col, coo.data
    n_rows = targets.size
    n_vars = system.n_vars

    feature_sum = np.asarray(a_matrix.sum(axis=0)).ravel()  # f#(t)
    scale = float(max(np.abs(targets).max(), mass / max(n_vars, 1), 1e-12))

    lambdas = np.zeros(n_rows)
    p = np.full(n_vars, mass / n_vars)
    eq_res = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        theta = a_matrix.T @ lambdas
        shifted = theta - theta.max()
        weights = np.exp(shifted)
        p = mass * weights / weights.sum()

        expectations = a_matrix @ p
        eq_res = float(np.abs(expectations - targets).max())
        if eq_res <= tol * scale:
            return DualSolveResult(
                p=p,
                iterations=iterations,
                eq_residual=eq_res,
                ineq_residual=0.0,
                scale=scale,
                converged=True,
                message="IIS converged",
            )

        # Vectorized Newton on g_i(delta) = sum_t f_i(t) p_t e^{delta f#(t)}
        # - c_i, all rows at once over the sparse pattern.
        delta = np.zeros(n_rows)
        base = values * p[cols]  # f_i(t) * p_t per nonzero
        fsharp = feature_sum[cols]
        for _ in range(_NEWTON_STEPS):
            growth = np.exp(np.clip(delta[rows] * fsharp, -60.0, 60.0))
            g = np.bincount(rows, weights=base * growth, minlength=n_rows)
            g -= targets
            g_prime = np.bincount(
                rows, weights=base * growth * fsharp, minlength=n_rows
            )
            step = np.zeros(n_rows)
            positive = g_prime > 1e-300
            step[positive] = g[positive] / g_prime[positive]
            step = np.clip(step, -_MAX_STEP, _MAX_STEP)
            delta -= step
            if float(np.abs(g).max()) <= 1e-14 * max(scale, 1e-12):
                break
        lambdas += delta

    return DualSolveResult(
        p=p,
        iterations=iterations,
        eq_residual=eq_res,
        ineq_residual=0.0,
        scale=scale,
        converged=False,
        message="IIS hit the iteration limit",
    )
