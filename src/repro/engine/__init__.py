"""Execution engine: component solves, solve cache, batching.

The Section 5.5 decomposition splits the MaxEnt program into independent
components — work that can be cached and batched one component at a
time.  This package is the execution layer underneath
:func:`repro.maxent.solver.solve_maxent`; every solve runs in the
calling process:

- :mod:`repro.engine.fingerprint` — canonical, order-independent hashes of
  constraint systems (full fingerprints key the solve cache; structure
  fingerprints key warm-start duals),
- :mod:`repro.engine.cache` — a bounded LRU of solved components plus the
  warm-start multiplier store,
- :mod:`repro.engine.component` — the per-component and batched solves
  one work unit runs,
- :mod:`repro.engine.plan` — splits a decomposed program into the batched
  closed-form path and the numeric path,
- :mod:`repro.engine.engine` — :class:`PrivacyEngine`, the facade the core
  library, CLI, experiments and benchmarks all route through.

The serving layer (:mod:`repro.service`) and release sharding
(:mod:`repro.cluster`) each run whole engines; neither reaches below
this facade.
"""

from repro.engine.cache import CacheEntry, SolveCache, WarmStartStore
from repro.engine.engine import (
    PrivacyEngine,
    shared_engine,
    shutdown_shared_engines,
)
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
    "SolveCache",
    "WarmStartStore",
    "build_plan",
    "component_fingerprint",
    "fingerprint_system",
    "shared_engine",
    "shutdown_shared_engines",
    "structure_fingerprint",
]
