"""The execution engine facade: plan, solve, cache, reassemble.

:class:`PrivacyEngine` owns the executor backend, the component solve
cache and the warm-start store, and runs the full Section 5.5 pipeline:

1. (optionally) drop the per-bucket redundant row,
2. build an :class:`~repro.engine.plan.ExecutionPlan`,
3. solve every irrelevant component in one batched closed-form call,
4. fingerprint each numeric component; cache hits return bit-identical
   stored solutions, misses run through the executor (warm-started
   from structurally identical past solves when available),
5. reassemble the joint, aggregating per-component compute time
   (``cpu_seconds``) separately from wall time (``seconds``).

The core library (:class:`repro.core.privacy_maxent.PrivacyMaxEnt`), the
CLI, the experiment drivers and the benchmarks all route through this
facade; :func:`repro.maxent.solver.solve_maxent` is a thin wrapper over
:func:`shared_engine`.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading

import numpy as np

from repro.engine.cache import CacheEntry, SolveCache, WarmStartStore
from repro.engine.component import ComponentSolve, solve_component_group_task
from repro.engine.executors import create_executor
from repro.engine.fingerprint import component_fingerprint, structure_fingerprint
from repro.engine.plan import ExecutionPlan, bin_batch_groups, build_plan
from repro.errors import InfeasibleKnowledgeError, ReproError, SolverError
from repro.maxent.closed_form import closed_form_batch
from repro.maxent.config import MaxEntConfig
from repro.maxent.kernels import get_kernel
from repro.maxent.constraints import ConstraintSystem
from repro.maxent.decompose import Component, drop_redundant_data_rows
from repro.maxent.indexing import GroupVariableSpace, PersonVariableSpace
from repro.maxent.solution import ComponentRecord, MaxEntSolution, SolverStats
from repro.obs.logging import get_logger
from repro.obs.trace import get_tracer
from repro.utils.timer import Timer

VariableSpace = GroupVariableSpace | PersonVariableSpace

_log = get_logger("engine")

#: Version tag of the persisted-cache pickle; bump on incompatible changes.
#: (v3: the solve-result contract is versioned — ``SolverStats`` grew
#: ``kernel_backend`` and entries are produced under the tolerance replay
#: contract by default.  v4: ``SolverStats`` grew the ``phase_seconds``
#: breakdown ``dataclasses.replace`` needs on cache replay.  v1 and v3
#: snapshots migrate on load; any other version is rejected loudly,
#: never silently served.)
_CACHE_FORMAT = "privacy-maxent-solve-cache/4"

#: Older snapshot formats :meth:`PrivacyEngine.load_cache` can migrate
#: in place (entry layout unchanged; stats gain defaulted fields).
_MIGRATABLE_CACHE_FORMATS = (
    "privacy-maxent-solve-cache/1",
    "privacy-maxent-solve-cache/3",
)

#: Prefix every recognized snapshot format shares; an unknown version
#: carrying it is a *stale or future cache*, not an arbitrary file.
_CACHE_FORMAT_PREFIX = "privacy-maxent-solve-cache/"


def _migrate_stats(stats) -> SolverStats:
    """Rebuild a :class:`SolverStats` pickled by an older schema.

    Unpickling a dataclass restores ``__dict__`` without running
    ``__init__``, so a pre-v3 record lacks fields added since (e.g.
    ``kernel_backend``) and would break ``dataclasses.replace`` on
    replay.  Reconstruct through the constructor with defaults filled
    in; unknown extra attributes are dropped.
    """
    import dataclasses

    kwargs = {}
    for field_ in dataclasses.fields(SolverStats):
        if hasattr(stats, field_.name):
            kwargs[field_.name] = getattr(stats, field_.name)
    return SolverStats(**kwargs)


def _check_component(
    component: Component, stats: SolverStats, config: MaxEntConfig
) -> None:
    """Raise on an unconverged component per the config's failure policy."""
    if stats.converged:
        return
    scale = max(abs(component.mass), 1e-12)
    relative = stats.residual / scale
    if relative > config.infeasibility_threshold:
        if config.raise_on_infeasible:
            raise InfeasibleKnowledgeError(
                "the constraint system appears infeasible "
                f"(relative residual {relative:.2e} on the component "
                f"covering buckets {component.buckets[:8]}...); "
                "check the supplied background knowledge for "
                "contradictions",
                residual=stats.residual,
            )
    elif config.raise_on_infeasible and config.solver in ("gis", "iis"):
        raise SolverError(
            f"{config.solver} did not converge "
            f"(residual {stats.residual:.2e}); increase "
            "max_iterations or use solver='lbfgs'",
            solver=config.solver,
            iterations=stats.iterations,
        )


def _group_work(
    entries: list[tuple],
    groups: list[list[int]],
    key_of,
) -> list[list[tuple]]:
    """Bin work entries into executor units (batch groups + singletons).

    ``groups`` lists the keys belonging together (a plan's
    ``batch_groups`` of positions, or :func:`bin_batch_groups` output
    over indices); ``key_of(entry, index)`` maps an entry to its key.
    Order-preserving: a batch group appears at its first present
    member's position, ungrouped entries stay individual — so groups
    thinned by cache hits simply shrink.
    """
    member_of: dict[int, int] = {}
    for group_index, group in enumerate(groups):
        for key in group:
            member_of[key] = group_index
    units: list[list[tuple]] = []
    unit_by_group: dict[int, list[tuple]] = {}
    for index, entry in enumerate(entries):
        group_index = member_of.get(key_of(entry, index))
        if group_index is None:
            units.append([entry])
            continue
        unit = unit_by_group.get(group_index)
        if unit is None:
            unit = unit_by_group[group_index] = []
            units.append(unit)
        unit.append(entry)
    return units


class PrivacyEngine:
    """Reusable execution engine for MaxEnt solves.

    One engine = one executor backend + one solve cache + one warm-start
    store.  Keep an engine alive across a sweep (figure drivers, skyline
    enumeration, ``assess`` over many bounds) and repeated component
    solves are served from cache, bit-identical and effectively free.

    Parameters
    ----------
    executor:
        ``"serial"`` (default), ``"cluster"`` (scatter components to
        shard workers over HTTP), or a pre-built executor object (how a
        live cluster coordinator hands its executor to an engine).
    cache_size:
        LRU bound on cached component solutions; ``0`` disables caching.
    cluster_workers:
        ``host:port,host:port`` list the ``"cluster"`` backend attaches
        to (default: the ``REPRO_CLUSTER_WORKERS`` environment variable).
    """

    def __init__(
        self,
        *,
        executor: str = "serial",
        cache_size: int = 128,
        cache_path: str | os.PathLike | None = None,
        cluster_workers: str | None = None,
    ) -> None:
        self._executor = create_executor(
            executor, cluster_workers=cluster_workers
        )
        self.cache = SolveCache(cache_size)
        self.warm_starts = WarmStartStore(cache_size)
        self.cache_path = os.fspath(cache_path) if cache_path else None
        self.n_solves = 0
        # Components solved through the shard-runtime entry point
        # (solve_components) — full solves count in n_solves instead.
        self.component_solves = 0
        # Components solved through the stacked block-diagonal dual
        # rather than their own optimizer call (the default-on batched
        # path under the tolerance replay contract).
        self.batched_components = 0
        # Segment-kernel backends batched work actually ran on.
        self.kernel_backends: set[str] = set()
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        # Construction-side phase accumulators (the observability
        # counterpart of the array-native pipeline): system build time is
        # recorded by callers via solve(..., build_seconds=...);
        # decomposition and fingerprint time are measured in-engine.
        self.build_seconds = 0.0
        self.decompose_seconds = 0.0
        self.fingerprint_seconds = 0.0
        self._closed = False
        # Shared engines serve concurrent solve_maxent callers; telemetry
        # updates must not drop under that concurrency.
        self._telemetry_lock = threading.Lock()
        if self.cache_path:
            self.load_cache(self.cache_path)

    @classmethod
    def from_config(cls, config: MaxEntConfig) -> "PrivacyEngine":
        """Build an engine from a config's execution knobs."""
        return cls(
            executor=config.executor,
            cache_size=config.cache_size,
            cache_path=config.cache_path,
            cluster_workers=config.cluster_workers,
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def executor_name(self) -> str:
        """Name of the active executor backend."""
        return self._executor.name

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Persist the cache (when configured) and close the executor.

        Idempotent: repeated calls re-run only no-op teardown, so engines
        can be closed both explicitly and by the ``atexit`` teardown of
        :func:`shutdown_shared_engines` without harm.  The executor is
        closed even when persisting the cache fails (full disk) — the
        save error still propagates, but never leaks the executor.
        """
        try:
            if self.cache_path and self.cache.enabled and not self._closed:
                self.save_cache(self.cache_path)
        finally:
            self._closed = True
            self._executor.close()

    def __enter__(self) -> "PrivacyEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def describe(self) -> str:
        """One-line telemetry summary (used by experiment notes)."""
        return (
            f"engine[{self.executor_name}]: {self.n_solves} solve(s), "
            f"{self.cache.hits}/{self.cache.hits + self.cache.misses} "
            f"component cache hits, cpu {self.cpu_seconds:.3f}s / "
            f"wall {self.wall_seconds:.3f}s"
        )

    def stats(self) -> dict:
        """Telemetry snapshot as a JSON-ready dict (the serving export).

        Everything the ``/v1/telemetry`` endpoint surfaces about the
        engine comes from here, so new engine counters become visible to
        operators by extending this one method.
        """
        with self._telemetry_lock:
            n_solves = self.n_solves
            component_solves = self.component_solves
            batched_components = self.batched_components
            kernel_backends = sorted(self.kernel_backends)
            wall = self.wall_seconds
            cpu = self.cpu_seconds
            build = self.build_seconds
            decompose_s = self.decompose_seconds
            fingerprint_s = self.fingerprint_seconds
        return {
            "executor": self.executor_name,
            "workers": getattr(self._executor, "workers", 1),
            "n_solves": n_solves,
            "component_solves": component_solves,
            "batched_components": batched_components,
            # The backend batched work ran on (joined when an engine's
            # lifetime spans configs); before any batched work, the
            # backend "auto" would resolve to on this host.
            "kernel_backend": (
                ",".join(kernel_backends) or get_kernel("auto").name
            ),
            "wall_seconds": wall,
            "cpu_seconds": cpu,
            "build_seconds": build,
            "decompose_seconds": decompose_s,
            "fingerprint_seconds": fingerprint_s,
            "cache": {
                "size": len(self.cache),
                "max_entries": self.cache.max_entries,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "hit_rate": self.cache.hit_rate,
                "evictions": self.cache.evictions,
                # Per fingerprint prefix: in a sharded deployment each
                # shard owns a disjoint slice of the fingerprint space, so
                # this breakdown is the per-shard cache-efficiency signal
                # the aggregated telemetry surfaces.
                "by_prefix": self.cache.prefix_stats(),
            },
            "warm_starts": len(self.warm_starts),
            "cache_path": self.cache_path,
        }

    # -- coalescing hook -----------------------------------------------------

    def request_fingerprint(
        self, system: ConstraintSystem, config: MaxEntConfig | None = None
    ) -> str:
        """Canonical identity of a full solve request.

        Two (system, config) pairs with equal fingerprints produce the
        same :meth:`solve` output, so the serving layer uses this key to
        deduplicate/coalesce identical in-flight solves and to cache
        finished results.  It is the whole-system analogue of the
        per-component cache key (same canonical encoding, total mass 1).
        """
        config = config or MaxEntConfig()
        return component_fingerprint(system, 1.0, config.solve_key())

    # -- the shard-runtime entry point ---------------------------------------

    def solve_components(
        self,
        fingerprints: list[str],
        components: list[Component],
        config: MaxEntConfig | None = None,
        warm_starts: list[np.ndarray | None] | None = None,
    ) -> list[tuple[ComponentSolve, bool]]:
        """Solve pre-fingerprinted component bundles (the shard worker path).

        This is :meth:`solve` with the planning already done elsewhere: a
        cluster coordinator decomposed a system, fingerprinted the
        components, and scattered them here.  Each job is cache-checked
        under its supplied fingerprint; misses run through this
        engine's own executor; duplicate fingerprints within the batch
        solve once (at-most-once per key — the coordinator's dedup
        guarantee ends at this method).  Returns ``(solve, cached)`` per
        job, in job order.  Convergence-policy enforcement stays with the
        caller (the coordinator applies the config's failure policy once
        results are gathered).

        Warm starts are used exactly as supplied — this engine's own
        warm-start store is deliberately *not* consulted, because which
        multipliers a shard happens to hold depends on chunk arrival
        order, and cluster solves must stay bit-identical to
        single-engine runs.
        """
        config = config or MaxEntConfig()
        n = len(components)
        if len(fingerprints) != n:
            raise ReproError(
                f"{len(fingerprints)} fingerprint(s) for {n} component(s)"
            )
        warm_list = list(warm_starts) if warm_starts is not None else [None] * n
        if len(warm_list) != n:
            raise ReproError(
                f"{len(warm_list)} warm start(s) for {n} component(s)"
            )
        caching = self.cache.enabled
        out: list[tuple[ComponentSolve, bool] | None] = [None] * n
        first_of: dict[str, int] = {}
        duplicate_of: dict[int, int] = {}
        pending: list[tuple[int, Component, str, np.ndarray | None]] = []

        for position, (fingerprint, component) in enumerate(
            zip(fingerprints, components)
        ):
            if caching:
                entry = self.cache.lookup(fingerprint)
                if entry is not None:
                    out[position] = (
                        ComponentSolve(p=entry.p, stats=entry.replay_stats()),
                        True,
                    )
                    continue
            earlier = first_of.get(fingerprint)
            if earlier is not None:
                duplicate_of[position] = earlier
                continue
            first_of[fingerprint] = position
            pending.append(
                (position, component, fingerprint, warm_list[position])
            )

        if pending:
            # The shard path bins its pending bundles into batch groups
            # exactly like a full solve's plan would (the coordinator
            # scattered per-fingerprint, so grouping happens here, where
            # the components actually run).
            units = _group_work(
                pending,
                bin_batch_groups(
                    [component.n_vars for _, component, _, _ in pending],
                    config,
                ),
                lambda entry, index: index,
            )
            tracer = get_tracer()
            jobs = [
                (
                    [component for _, component, _, _ in unit],
                    config,
                    [warm for _, _, _, warm in unit],
                    [fingerprint for _, _, fingerprint, _ in unit],
                    tracer.context(),
                )
                for unit in units
            ]
            results = self._executor.imap(solve_component_group_task, jobs)
            batched = 0
            kernels_used: set[str] = set()
            for unit, unit_results in zip(units, results):
                for (position, component, fingerprint, _), result in zip(
                    unit, unit_results
                ):
                    if result.spans:
                        # Re-route worker spans toward the caller (the
                        # shard worker's active capture forwards them
                        # over the wire); cached entries stay span-free.
                        tracer.record_imported(result.spans)
                        result.spans = None
                    out[position] = (result, False)
                    batched += result.stats.batched_components
                    if result.stats.kernel_backend:
                        kernels_used.add(result.stats.kernel_backend)
                    if caching and result.stats.converged:
                        self.cache.put(
                            fingerprint,
                            CacheEntry(p=result.p, stats=result.stats),
                        )
            with self._telemetry_lock:
                self.component_solves += len(pending)
                self.batched_components += batched
                self.kernel_backends |= kernels_used

        for position, earlier in duplicate_of.items():
            solved = out[earlier]
            assert solved is not None
            out[position] = (solved[0], True)
        filled: list[tuple[ComponentSolve, bool]] = []
        for position, entry in enumerate(out):
            if entry is None:
                raise ReproError(
                    f"component {position} produced no result (executor "
                    "returned short)"
                )
            filled.append(entry)
        return filled

    # -- cache persistence ---------------------------------------------------

    def save_cache(self, path: str | os.PathLike | None = None) -> int:
        """Persist the solve cache (and warm starts) to ``path``.

        Written atomically (temp file + rename) so a crash mid-save never
        corrupts an existing snapshot.  Returns the number of component
        entries saved.
        """
        path = os.fspath(path or self.cache_path or "")
        if not path:
            raise ReproError(
                "no cache path: pass one or construct the engine with "
                "cache_path"
            )
        entries = self.cache.items()
        payload = {
            "format": _CACHE_FORMAT,
            "entries": [
                (key, entry.p, entry.stats) for key, entry in entries
            ],
            "warm_starts": self.warm_starts.items(),
        }
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        return len(entries)

    def load_cache(self, path: str | os.PathLike | None = None) -> int:
        """Warm the solve cache from a snapshot written by :meth:`save_cache`.

        A missing or truncated file is treated as a cold start (returns
        0) — restart resilience must not depend on the snapshot's
        health.  A *recognized but older* snapshot (v1, written before
        the versioned solve-result contract) is migrated in place: the
        entry layout is unchanged and per-component fingerprints are
        stable across the versions, so only the pickled stats records
        need their defaulted new fields filled in.  A snapshot carrying
        an *unrecognized* cache version is rejected with a clear
        :class:`ReproError` — serving entries whose semantics this build
        cannot vouch for is how stale results masquerade as fresh ones.
        Returns the number of entries restored.
        """
        path = os.fspath(path or self.cache_path or "")
        if not path or not self.cache.enabled:
            return 0
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return 0
        if not isinstance(payload, dict):
            return 0
        fmt = payload.get("format")
        if not isinstance(fmt, str) or not fmt.startswith(
            _CACHE_FORMAT_PREFIX
        ):
            return 0
        migrate = fmt in _MIGRATABLE_CACHE_FORMATS
        if fmt != _CACHE_FORMAT and not migrate:
            raise ReproError(
                f"cache snapshot {path!r} has format {fmt!r}, but this "
                f"build reads {_CACHE_FORMAT!r} (migratable: "
                f"{', '.join(_MIGRATABLE_CACHE_FORMATS)}); refusing to "
                "serve entries under an unrecognized solve-result "
                "contract — delete the snapshot to start cold"
            )
        restored = 0
        for key, p, stats in payload.get("entries", []):
            if migrate:
                stats = _migrate_stats(stats)
            self.cache.put(key, CacheEntry(p=p, stats=stats))
            restored += 1
        for key, multipliers in payload.get("warm_starts", []):
            self.warm_starts.put(key, multipliers)
        return restored

    # -- solving -------------------------------------------------------------

    def solve(
        self,
        space: VariableSpace,
        system: ConstraintSystem,
        config: MaxEntConfig | None = None,
        *,
        build_seconds: float = 0.0,
        trace_ctx: dict | None = None,
    ) -> MaxEntSolution:
        """Solve the full MaxEnt program over ``space`` with rows ``system``.

        ``system`` must contain the data invariants (from
        :func:`repro.maxent.constraints.data_constraints`) plus any
        compiled background-knowledge rows.  ``build_seconds`` lets the
        caller attribute the wall time it spent *constructing* that system
        (indexing, invariants, knowledge compilation) to this solve's
        telemetry — the engine cannot observe that phase itself.

        ``trace_ctx`` parents this solve's span tree under a caller's
        trace (the serving layer hands its request span across the
        ``run_in_executor`` boundary here); without one the solve roots
        its own trace in the process tracer's rings.
        """
        config = config or MaxEntConfig()
        if system.n_vars != space.n_vars:
            raise ReproError(
                f"system is over {system.n_vars} variables but the space has "
                f"{space.n_vars}"
            )

        tracer = get_tracer()
        with tracer.span(
            "engine.solve",
            ctx=trace_ctx,
            executor=self.executor_name,
            n_vars=space.n_vars,
        ) as solve_span:
            with Timer() as wall:
                solve_system = system
                with tracer.span(
                    "engine.plan", drop_redundant=config.drop_redundant
                ) as plan_span:
                    if config.drop_redundant:
                        solve_system = drop_redundant_data_rows(space, system)
                    plan = build_plan(space, solve_system, config)
                    plan_span.set(
                        n_components=plan.n_components,
                        decompose_seconds=round(plan.decompose_seconds, 6),
                    )
                p = np.zeros(space.n_vars)
                stats_by_position: dict[int, SolverStats] = {}

                with tracer.span(
                    "engine.closed_form", n_components=len(plan.closed_form)
                ):
                    self._run_closed_form(space, plan, p, stats_by_position)
                with tracer.span(
                    "engine.dispatch", n_components=len(plan.numeric)
                ) as dispatch_span:
                    cpu_seconds, fingerprint_seconds = self._run_numeric(
                        plan, config, p, stats_by_position
                    )
                    dispatch_span.set(
                        cpu_seconds=round(cpu_seconds, 6),
                        fingerprint_seconds=round(fingerprint_seconds, 6),
                    )

            with self._telemetry_lock:
                self.n_solves += 1
                self.wall_seconds += wall.seconds
                self.cpu_seconds += cpu_seconds
                self.build_seconds += build_seconds
                self.decompose_seconds += plan.decompose_seconds
                self.fingerprint_seconds += fingerprint_seconds

            solution = self._reassemble(
                space,
                system,
                config,
                plan,
                p,
                stats_by_position,
                wall_seconds=wall.seconds,
                cpu_seconds=cpu_seconds,
                build_seconds=build_seconds,
                fingerprint_seconds=fingerprint_seconds,
            )
            stats = solution.stats
            solve_span.set(
                converged=stats.converged,
                n_components=stats.n_components,
                cache_hits=stats.cache_hits,
                batched_components=stats.batched_components,
                kernel_backend=stats.kernel_backend,
                **{
                    f"phase.{name}_seconds": round(seconds, 6)
                    for name, seconds in stats.phase_seconds.items()
                },
            )
        return solution

    # -- the batched closed-form path ---------------------------------------

    def _run_closed_form(
        self,
        space: VariableSpace,
        plan: ExecutionPlan,
        p: np.ndarray,
        stats_by_position: dict[int, SolverStats],
    ) -> None:
        """Solve all irrelevant components in one vectorized Eq. (9) call."""
        if not plan.closed_form:
            return
        indices = np.concatenate(
            [plan.components[pos].var_indices for pos in plan.closed_form]
        )
        p[indices] = closed_form_batch(space, indices)
        for pos in plan.closed_form:
            component = plan.components[pos]
            stats_by_position[pos] = SolverStats(
                solver="closed-form",
                iterations=0,
                seconds=0.0,
                n_vars=component.n_vars,
                n_equalities=component.system.n_equalities,
                n_inequalities=0,
                eq_residual=0.0,
                ineq_residual=0.0,
                converged=True,
            )

    # -- the numeric path ----------------------------------------------------

    def _run_numeric(
        self,
        plan: ExecutionPlan,
        config: MaxEntConfig,
        p: np.ndarray,
        stats_by_position: dict[int, SolverStats],
    ) -> tuple[float, float]:
        """Cache-check numeric components, then solve the misses.

        Returns ``(cpu_seconds, fingerprint_seconds)`` — summed component
        compute time and the wall time spent encoding cache keys.
        """
        solve_key = config.solve_key()
        caching = self.cache.enabled
        pending: list[tuple[int, Component, str | None, str | None]] = []
        fingerprint_timer = Timer()
        fingerprint_seconds = 0.0

        for pos in plan.numeric:
            component = plan.components[pos]
            fingerprint = None
            structure = None
            if caching:
                fingerprint_timer.start()
                fingerprint = component_fingerprint(
                    component.system, component.mass, solve_key
                )
                fingerprint_seconds += fingerprint_timer.stop()
                entry = self.cache.lookup(fingerprint)
                if entry is not None:
                    p[component.var_indices] = entry.p
                    stats_by_position[pos] = entry.replay_stats()
                    continue
                if config.warm_start:
                    fingerprint_timer.start()
                    structure = structure_fingerprint(component.system)
                    fingerprint_seconds += fingerprint_timer.stop()
            pending.append((pos, component, fingerprint, structure))

        if not pending:
            return 0.0, fingerprint_seconds

        # Work units: the plan's batch groups (minus cache hits) dispatch
        # as single stacked-dual items, everything else individually.
        units = _group_work(
            pending, plan.batch_groups, lambda entry, index: entry[0]
        )

        tracer = get_tracer()
        trace_ctx = tracer.context()
        jobs = [
            (
                [component for _, component, _, _ in unit],
                config,
                [
                    self.warm_starts.get(structure) if structure else None
                    for _, _, _, structure in unit
                ],
                [fingerprint for _, _, fingerprint, _ in unit],
                trace_ctx,
            )
            for unit in units
        ]
        results = self._executor.imap(solve_component_group_task, jobs)

        cpu_seconds = 0.0
        batched = 0
        kernels_used: set[str] = set()
        for unit, unit_results in zip(units, results):
            for (pos, component, fingerprint, structure), result in zip(
                unit, unit_results
            ):
                if result.spans:
                    # Stitch worker-side spans into this solve's trace,
                    # and strip them so cached entries stay span-free.
                    tracer.record_imported(result.spans)
                    result.spans = None
                p[component.var_indices] = result.p
                stats_by_position[pos] = result.stats
                cpu_seconds += result.stats.seconds
                batched += result.stats.batched_components
                if result.stats.kernel_backend:
                    kernels_used.add(result.stats.kernel_backend)
                if fingerprint is not None and result.stats.converged:
                    self.cache.put(
                        fingerprint, CacheEntry(p=result.p, stats=result.stats)
                    )
                if structure is not None and result.multipliers is not None:
                    self.warm_starts.put(structure, result.multipliers)
                # Fail fast: a contradictory knowledge set aborts here, at
                # the first bad component — under the serial executor the
                # remaining components are never solved at all.
                _check_component(component, result.stats, config)
        if batched:
            with self._telemetry_lock:
                self.batched_components += batched
                self.kernel_backends |= kernels_used
        return cpu_seconds, fingerprint_seconds

    # -- reassembly ----------------------------------------------------------

    def _reassemble(
        self,
        space: VariableSpace,
        system: ConstraintSystem,
        config: MaxEntConfig,
        plan: ExecutionPlan,
        p: np.ndarray,
        stats_by_position: dict[int, SolverStats],
        *,
        wall_seconds: float,
        cpu_seconds: float,
        build_seconds: float = 0.0,
        fingerprint_seconds: float = 0.0,
    ) -> MaxEntSolution:
        """Aggregate component statistics and package the solution."""
        records: list[ComponentRecord] = []
        total_iterations = 0
        worst_eq = 0.0
        worst_ineq = 0.0
        all_converged = True
        presolve_fixed = 0
        cache_hits = 0
        batched_components = 0
        kernel_backends: set[str] = set()
        phase_seconds: dict[str, float] = {}

        for pos, component in enumerate(plan.components):
            stats = stats_by_position[pos]
            records.append(
                ComponentRecord(buckets=component.buckets, stats=stats)
            )
            total_iterations += stats.iterations
            worst_eq = max(worst_eq, stats.eq_residual)
            worst_ineq = max(worst_ineq, stats.ineq_residual)
            all_converged = all_converged and stats.converged
            presolve_fixed += stats.presolve_fixed
            cache_hits += stats.cache_hits
            batched_components += stats.batched_components
            if stats.kernel_backend:
                kernel_backends.add(stats.kernel_backend)
            for name, seconds in stats.phase_seconds.items():
                phase_seconds[name] = phase_seconds.get(name, 0.0) + seconds

        # Engine-level phases join the per-component breakdown so one
        # map answers "where did this solve's time go".
        for name, seconds in (
            ("build", build_seconds),
            ("decompose", plan.decompose_seconds),
            ("fingerprint", fingerprint_seconds),
        ):
            if seconds:
                phase_seconds[name] = phase_seconds.get(name, 0.0) + seconds

        aggregate = SolverStats(
            solver=config.solver,
            iterations=total_iterations,
            seconds=wall_seconds,
            n_vars=space.n_vars,
            n_equalities=system.n_equalities,
            n_inequalities=system.n_inequalities,
            eq_residual=worst_eq,
            ineq_residual=worst_ineq,
            converged=all_converged,
            n_components=plan.n_components,
            presolve_fixed=presolve_fixed,
            cpu_seconds=cpu_seconds,
            cache_hits=cache_hits,
            batched_components=batched_components,
            build_seconds=build_seconds,
            decompose_seconds=plan.decompose_seconds,
            fingerprint_seconds=fingerprint_seconds,
            kernel_backend=",".join(sorted(kernel_backends)),
            phase_seconds=phase_seconds,
        )
        return MaxEntSolution(space, p, aggregate, records)


# -- shared engines ------------------------------------------------------------

_SHARED_ENGINES: dict[tuple, PrivacyEngine] = {}
_SHARED_LOCK = threading.Lock()


def shared_engine(config: MaxEntConfig | None = None) -> PrivacyEngine:
    """The process-wide engine for a config's execution knobs.

    Engines are keyed by (executor, cache_size, cache_path,
    cluster_workers), so every ``solve_maxent`` call with the same knobs
    shares one cache — this is what makes repeated quantifications
    (figure sweeps, skyline enumeration, solver ablations) reuse each
    other's component solutions without any plumbing.
    """
    config = config or MaxEntConfig()
    key = (
        config.executor,
        config.cache_size,
        config.cache_path,
        config.cluster_workers,
    )
    with _SHARED_LOCK:
        engine = _SHARED_ENGINES.get(key)
        if engine is None:
            engine = PrivacyEngine.from_config(config)
            _SHARED_ENGINES[key] = engine
        return engine


def shutdown_shared_engines() -> int:
    """Close every process-wide shared engine and forget them all.

    Each close persists the engine's cache (when a ``cache_path`` is
    configured) and closes its executor, so no cluster attachment
    outlives the registry.  Registered with :mod:`atexit` so a
    normally exiting process always cleans up; safe to call repeatedly —
    after a shutdown, :func:`shared_engine` simply builds fresh engines.
    Returns the number of engines closed.
    """
    with _SHARED_LOCK:
        engines = list(_SHARED_ENGINES.values())
        _SHARED_ENGINES.clear()
    for engine in engines:
        try:
            engine.close()
        except Exception:  # noqa: BLE001 - keep closing the rest
            _log.warning("shared engine close failed", exc_info=True)
    return len(engines)


atexit.register(shutdown_shared_engines)
