"""The per-component numeric solve tasks.

These are the units of work the executors run.  Two granularities
share one module so they stay in lockstep:

- :func:`solve_component` — presolve one component, dispatch to the
  configured solver, lift the solution back to component coordinates.
- :func:`solve_component_batch` — presolve *many* small components, stack
  the survivors into one block-diagonal dual and run the vectorized loop
  of :mod:`repro.maxent.batch_dual`, then unbundle per-component results
  (residuals, iterations, multipliers) so everything downstream — cache,
  warm starts, telemetry — sees the same contract as per-component
  dispatch.

Both task wrappers live at module level (not as closures): the cluster
executor recognises them by identity to re-encode their jobs for the
wire.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.maxent.batch_dual import DualBlock, solve_batch_dual
from repro.maxent.config import MaxEntConfig
from repro.maxent.kernels import get_kernel
from repro.maxent.decompose import Component
from repro.maxent.dual import build_dual
from repro.maxent.gis import solve_gis
from repro.maxent.iis import solve_iis
from repro.maxent.lbfgs import DualSolveResult, solve_dual_lbfgs
from repro.maxent.newton import solve_dual_newton
from repro.maxent.presolve import PresolveResult, presolve
from repro.maxent.primal import solve_primal
from repro.maxent.solution import SolverStats
from repro.obs.trace import get_tracer
from repro.utils.timer import Timer


@dataclass
class ComponentSolve:
    """Result of one component task: local solution, stats, warm-start."""

    p: np.ndarray
    stats: SolverStats
    #: Converged dual multipliers of the *presolved* system (quasi-Newton
    #: solvers only) — reusable as a warm start for structurally identical
    #: components.
    multipliers: np.ndarray | None = None
    #: Spans captured while solving on a worker (plain span dicts so
    #: they pickle across the process/cluster seam); the group task
    #: attaches them to its first result and the engine stitches them
    #: into the caller's trace.  ``None`` where nothing was captured.
    spans: list | None = None


def _dispatch(
    system, mass: float, config: MaxEntConfig, warm_start: np.ndarray | None
) -> DualSolveResult:
    if config.solver == "lbfgs":
        dual = build_dual(system, mass)
        return solve_dual_lbfgs(
            dual,
            tol=config.tol,
            max_iterations=config.max_iterations,
            x0=_usable_warm_start(warm_start, dual.n_params),
        )
    if config.solver == "newton":
        dual = build_dual(system, mass)
        return solve_dual_newton(
            dual,
            tol=config.tol,
            max_iterations=config.max_iterations,
            x0=_usable_warm_start(warm_start, dual.n_params),
        )
    if config.solver == "gis":
        return solve_gis(
            system, mass, tol=config.tol, max_iterations=config.max_iterations
        )
    if config.solver == "iis":
        return solve_iis(
            system, mass, tol=config.tol, max_iterations=config.max_iterations
        )
    return solve_primal(
        system, mass, tol=config.tol, max_iterations=config.max_iterations
    )


def _usable_warm_start(
    warm_start: np.ndarray | None, n_params: int
) -> np.ndarray | None:
    """Validate a candidate warm start against the presolved dual size.

    The warm-start store keys on pre-presolve structure, but presolve
    eliminations depend on right-hand sides, so a near-miss system can
    reduce to a different shape — in which case the stored vector is
    silently discarded (a cold start is always correct).
    """
    if warm_start is None:
        return None
    warm_start = np.asarray(warm_start, dtype=float)
    if warm_start.shape != (n_params,) or not np.all(np.isfinite(warm_start)):
        return None
    return warm_start


def _reduce(
    component: Component, config: MaxEntConfig
) -> tuple[object, float, PresolveResult | None, int]:
    """Apply presolve per the config: (system, mass, reduction, fixed)."""
    if not config.use_presolve:
        return component.system, component.mass, None, 0
    reduction = presolve(component.system)
    return (
        reduction.system,
        component.mass - reduction.mass_removed,
        reduction,
        len(reduction.fixed_values),
    )


def _forced_solve(
    component: Component,
    config: MaxEntConfig,
    reduction: PresolveResult | None,
    fixed_count: int,
) -> ComponentSolve:
    """The everything-was-forced-by-presolve result."""
    p_local = (
        reduction.restore(np.zeros(reduction.n_free))
        if reduction is not None
        else np.zeros(component.n_vars)
    )
    residual = component.system.residual(p_local)
    stats = SolverStats(
        solver="presolve",
        iterations=0,
        seconds=0.0,
        n_vars=component.n_vars,
        n_equalities=component.system.n_equalities,
        n_inequalities=component.system.n_inequalities,
        eq_residual=residual,
        ineq_residual=0.0,
        converged=residual <= config.tol,
        presolve_fixed=fixed_count,
    )
    return ComponentSolve(p=p_local, stats=stats, multipliers=None)


def _package_solve(
    component: Component,
    config: MaxEntConfig,
    reduction: PresolveResult | None,
    fixed_count: int,
    result: DualSolveResult,
    *,
    batched: bool = False,
    kernel_backend: str = "",
) -> ComponentSolve:
    """Lift a dual result back to component coordinates with stats."""
    p_local = reduction.restore(result.p) if reduction is not None else result.p
    multipliers = result.multipliers if result.converged else None
    stats = SolverStats(
        solver=config.solver,
        iterations=result.iterations,
        seconds=0.0,
        n_vars=component.n_vars,
        n_equalities=component.system.n_equalities,
        n_inequalities=component.system.n_inequalities,
        eq_residual=result.eq_residual,
        ineq_residual=result.ineq_residual,
        converged=result.converged,
        presolve_fixed=fixed_count,
        message=result.message,
        batched_components=1 if batched else 0,
        kernel_backend=kernel_backend if batched else "",
    )
    return ComponentSolve(p=p_local, stats=stats, multipliers=multipliers)


def solve_component(
    component: Component,
    config: MaxEntConfig,
    warm_start: np.ndarray | None = None,
) -> ComponentSolve:
    """Solve one component; the executor task.

    ``stats.seconds`` measures this task's own elapsed time — the engine
    sums these into ``cpu_seconds`` and reports overall wall time
    separately (they differ when a cluster solves components
    concurrently).
    """
    with Timer() as timer:
        with Timer() as presolve_timer:
            system, mass, reduction, fixed_count = _reduce(component, config)
        if system.n_vars == 0 or mass <= 1e-15:
            solve = _forced_solve(component, config, reduction, fixed_count)
        else:
            with Timer() as dual_timer:
                result = _dispatch(system, mass, config, warm_start)
            solve = _package_solve(
                component, config, reduction, fixed_count, result
            )
            solve.stats.add_phase("dual", dual_timer.seconds)
    solve.stats.add_phase("presolve", presolve_timer.seconds)
    solve.stats.seconds = timer.seconds
    solve.stats.cpu_seconds = timer.seconds
    return solve


def solve_component_batch(
    components: list[Component],
    config: MaxEntConfig,
    warm_starts: list[np.ndarray | None] | None = None,
) -> list[ComponentSolve]:
    """Solve many components through one stacked block-diagonal dual.

    Presolve still runs per component (its eliminations are the
    numerical precondition of the dual); the surviving reduced systems
    stack into one vectorized L-BFGS loop, and the batch solution is
    unbundled into per-component :class:`ComponentSolve` records whose
    contract — residuals, iterations, warm-startable multipliers,
    convergence flags — matches per-component dispatch.  The total task
    time is attributed across components proportionally to their size,
    so summed ``cpu_seconds`` telemetry stays meaningful.

    Only the ``"lbfgs"`` solver batches; any other configuration falls
    back to a per-component loop (the planner never groups for them, so
    this is defense in depth).
    """
    n = len(components)
    warm_list = list(warm_starts) if warm_starts is not None else [None] * n
    if config.solver != "lbfgs":
        return [
            solve_component(component, config, warm)
            for component, warm in zip(components, warm_list)
        ]

    kernel = get_kernel(config.kernel)
    with Timer() as timer:
        out: list[ComponentSolve | None] = [None] * n
        numeric: list[int] = []
        blocks = []
        x0s: list[np.ndarray | None] = []
        reductions: list[tuple[PresolveResult | None, int]] = []
        with Timer() as presolve_timer:
            for index, component in enumerate(components):
                system, mass, reduction, fixed_count = _reduce(
                    component, config
                )
                if system.n_vars == 0 or mass <= 1e-15:
                    out[index] = _forced_solve(
                        component, config, reduction, fixed_count
                    )
                    continue
                block = DualBlock.from_system(system, mass)
                numeric.append(index)
                blocks.append(block)
                x0s.append(
                    _usable_warm_start(warm_list[index], block.n_params)
                )
                reductions.append((reduction, fixed_count))

        with Timer() as dual_timer:
            batch = solve_batch_dual(
                blocks,
                tol=config.tol,
                max_iterations=config.max_iterations,
                x0s=x0s,
                kernel=kernel,
            )
        for position, index in enumerate(numeric):
            reduction, fixed_count = reductions[position]
            out[index] = _package_solve(
                components[index],
                config,
                reduction,
                fixed_count,
                batch.results[position],
                batched=batch.batched[position],
                kernel_backend=kernel.name,
            )

    solves = [solve for solve in out if solve is not None]
    assert len(solves) == n
    # Attribute the batch's wall time across components by problem size
    # (the residual per-component signal telemetry consumers sum over);
    # the presolve/dual phase breakdown is shared out the same way.
    weights = np.array([max(c.n_vars, 1) for c in components], dtype=float)
    total_weight = weights.sum()
    shares = timer.seconds * weights / total_weight
    presolve_shares = presolve_timer.seconds * weights / total_weight
    for index, (solve, share) in enumerate(zip(solves, shares)):
        solve.stats.seconds = float(share)
        solve.stats.cpu_seconds = float(share)
        solve.stats.add_phase("presolve", float(presolve_shares[index]))
    if numeric:
        dual_weights = weights[numeric]
        dual_shares = dual_timer.seconds * dual_weights / dual_weights.sum()
        for position, index in enumerate(numeric):
            solves[index].stats.add_phase("dual", float(dual_shares[position]))
    return solves


def solve_component_task(
    job: tuple[Component, MaxEntConfig, np.ndarray | None],
) -> ComponentSolve:
    """Single-argument wrapper for ``Executor.map`` (and pickling)."""
    component, config, warm_start = job
    return solve_component(component, config, warm_start)


def solve_component_group_task(
    job: tuple[
        list[Component],
        MaxEntConfig,
        list[np.ndarray | None],
        list[str | None],
    ],
) -> list[ComponentSolve]:
    """Executor task solving one *group* of components as a unit.

    The engine dispatches groups instead of single components so that a
    batch group crosses the executor seam as one work item.  Singleton groups take the plain per-component path;
    larger groups take the stacked dual.  The fourth element carries the
    engine-computed solve fingerprints — unused for local solving, but
    the cluster executor reads them so cold cluster solves stop
    fingerprinting every component twice.  An optional fifth element is
    the caller's trace context (``{"trace_id", "span_id"}``): the task
    runs under span capture — contextvars do not cross executors, so
    the bracket must live *inside* the task — and ships the captured
    spans home on its first result's ``spans`` field.
    """
    components, config, warm_starts, _fingerprints, *rest = job
    ctx = rest[0] if rest else None
    tracer = get_tracer()
    with tracer.capture() as capture:
        with tracer.span(
            "engine.solve_group",
            ctx=ctx,
            n_components=len(components),
            batched=len(components) > 1,
        ) as span:
            if len(components) > 1:
                solves = solve_component_batch(
                    components, config, warm_starts
                )
            else:
                solves = [
                    solve_component(component, config, warm)
                    for component, warm in zip(components, warm_starts)
                ]
            phases: dict[str, float] = {}
            for solve in solves:
                for name, seconds in solve.stats.phase_seconds.items():
                    phases[name] = phases.get(name, 0.0) + seconds
            span.set(
                **{
                    f"phase.{name}_seconds": round(seconds, 6)
                    for name, seconds in phases.items()
                }
            )
    if capture.spans and solves:
        solves[0].spans = capture.spans
    return solves
