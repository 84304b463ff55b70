"""Execution engine: component solves, solve cache, batching.

The Section 5.5 decomposition splits the MaxEnt program into independent
components — work that can be cached, batched and scattered one
component at a time.  This package is the execution layer underneath
:func:`repro.maxent.solver.solve_maxent`:

- :mod:`repro.engine.fingerprint` — canonical, order-independent hashes of
  constraint systems (full fingerprints key the solve cache; structure
  fingerprints key warm-start duals),
- :mod:`repro.engine.cache` — a bounded LRU of solved components plus the
  warm-start multiplier store,
- :mod:`repro.engine.executors` — the in-process serial backend and the
  entry point to the cluster scatter backend,
- :mod:`repro.engine.plan` — splits a decomposed program into the batched
  closed-form path and the numeric path,
- :mod:`repro.engine.engine` — :class:`PrivacyEngine`, the facade the core
  library, CLI, experiments and benchmarks all route through.

Every later scaling layer (sharding, async serving, multi-backend) plugs in
here rather than into the solvers themselves.
"""

from repro.engine.cache import CacheEntry, SolveCache, WarmStartStore
from repro.engine.engine import (
    PrivacyEngine,
    shared_engine,
    shutdown_shared_engines,
)
from repro.engine.executors import SerialExecutor, create_executor
from repro.engine.fingerprint import (
    component_fingerprint,
    fingerprint_system,
    structure_fingerprint,
)
from repro.engine.plan import ExecutionPlan, bin_batch_groups, build_plan

__all__ = [
    "CacheEntry",
    "ExecutionPlan",
    "bin_batch_groups",
    "PrivacyEngine",
    "SerialExecutor",
    "SolveCache",
    "WarmStartStore",
    "build_plan",
    "component_fingerprint",
    "create_executor",
    "fingerprint_system",
    "shared_engine",
    "shutdown_shared_engines",
    "structure_fingerprint",
]
