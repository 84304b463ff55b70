"""Ablation: MaxEnt fitter comparison (the Malouf-style study).

The paper picks L-BFGS citing Malouf's comparison of MaxEnt fitters; this
bench reproduces the comparison on our workload: L-BFGS (the engine's only
optimizer) vs the GIS and IIS baselines of :mod:`repro.baselines` on the
same presolved system, measuring wall-clock and iterations to the same
tolerance.  Expected ordering (and the classic result): quasi-Newton
converges in far fewer iterations than either scaling algorithm.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import save_result
from repro.baselines.gis import solve_gis
from repro.baselines.iis import solve_iis
from repro.experiments.workloads import build_adult_workload
from repro.knowledge.bounds import TopKBound
from repro.knowledge.compiler import compile_statements
from repro.maxent.constraints import data_constraints
from repro.maxent.decompose import decompose
from repro.maxent.dual import build_dual
from repro.maxent.indexing import GroupVariableSpace
from repro.maxent.lbfgs import solve_dual_lbfgs
from repro.maxent.presolve import presolve
from repro.utils.tabulate import render_table
from repro.utils.timer import Timer


@pytest.fixture(scope="module")
def hardest_component():
    """The largest knowledge-coupled component of a small workload."""
    workload = build_adult_workload(n_records=400, max_antecedent=2)
    space = GroupVariableSpace(workload.published)
    system = data_constraints(space)
    system.extend(
        compile_statements(
            TopKBound(25, 25).statements(workload.rules), space
        )
    )
    components = decompose(space, system)
    component = max(components, key=lambda c: c.n_vars)
    reduction = presolve(component.system)
    mass = component.mass - reduction.mass_removed
    return reduction.system, mass


TOL = 1e-5
SCALING_CAP = 30000


@pytest.mark.benchmark(group="solvers")
def test_solver_comparison(benchmark, results_dir, hardest_component):
    system, mass = hardest_component

    def run_all():
        rows = []
        with Timer() as t:
            lbfgs = solve_dual_lbfgs(
                build_dual(system, mass), tol=TOL, max_iterations=5000
            )
        rows.append(["lbfgs", lbfgs.iterations, t.seconds, lbfgs.eq_residual,
                     lbfgs.converged])
        with Timer() as t:
            gis = solve_gis(system, mass, tol=TOL, max_iterations=SCALING_CAP)
        rows.append(["gis", gis.iterations, t.seconds, gis.eq_residual,
                     gis.converged])
        with Timer() as t:
            iis = solve_iis(system, mass, tol=TOL, max_iterations=SCALING_CAP)
        rows.append(["iis", iis.iterations, t.seconds, iis.eq_residual,
                     iis.converged])
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = render_table(
        ["solver", "iterations", "seconds", "residual", "converged"],
        rows,
        title=(
            f"Solver comparison on the hardest component "
            f"({system.n_vars} vars, {system.n_equalities} rows, tol {TOL})"
        ),
    )
    save_result(results_dir, "solvers", table)

    by_name = {row[0]: row for row in rows}
    assert by_name["lbfgs"][4], "lbfgs must converge"
    # The Malouf ordering: quasi-Newton needs far fewer iterations than
    # either scaling algorithm.
    assert by_name["lbfgs"][1] < by_name["gis"][1]
    assert by_name["lbfgs"][1] < by_name["iis"][1]
