"""Configuration of the MaxEnt solve pipeline.

:class:`MaxEntConfig` lives in its own module (rather than next to
``solve_maxent``) because both the solver façade and the execution engine
(:mod:`repro.engine`) consume it, and the engine must not import the façade
it powers.  ``repro.maxent.solver`` re-exports it, so existing imports keep
working.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ReproError
from repro.utils.validation import (
    check_finite_real,
    check_flag,
    check_non_negative_int,
    check_positive_int,
)

#: Replay contracts and segment-kernel backends; the CLI's ``--replay``
#: and ``--kernel`` choices read these tuples too.
REPLAY_NAMES = ("tolerance", "bitwise")
KERNEL_NAMES = ("auto", "numpy", "numba")

_FLAG_FIELDS = (
    "decompose",
    "use_presolve",
    "use_closed_form",
    "raise_on_infeasible",
)


@dataclass(frozen=True)
class MaxEntConfig:
    """Tuning knobs of the MaxEnt pipeline.

    Every numeric component is solved by L-BFGS on the dual (the paper's
    choice, with a Newton-CG polish).  The GIS / IIS / primal fitters it
    was chosen over live in :mod:`repro.baselines` as comparison
    baselines and test oracles.

    Parameters
    ----------
    decompose:
        Solve per bucket-component (Section 5.5).  Disable to reproduce the
        paper's unoptimized performance experiments.
    use_presolve:
        Eliminate forced variables first.
    use_closed_form:
        Use Eq. (9) directly for components without knowledge rows.
    tol:
        Relative residual target for convergence.
    max_iterations:
        Outer iteration budget per component.
    raise_on_infeasible:
        Raise :class:`InfeasibleKnowledgeError` when an unconverged
        component's relative residual exceeds ``1e-2`` (contradictory
        constraints); otherwise return with ``stats.converged = False``.
    cache_size:
        Bound of the per-engine LRU solve cache (entries are solved
        components, keyed by a canonical constraint-system fingerprint).
        While caching is on, converged dual multipliers are also kept
        and reused as the starting point of structurally identical
        components (same rows, different right-hand sides), which
        changes only the iteration count, never the converged solution.
        ``0`` disables caching and warm starts entirely.
    cache_path:
        Optional file the engine persists its solve cache to.  When set,
        an engine loads the stored cache on construction (starting warm
        after a process restart — the serving workflow) and saves it on
        ``close()``.  A missing or unreadable file simply means a cold
        start; it is never an error.
    replay:
        The solve-result reproducibility contract.  ``"tolerance"`` (the
        default) guarantees results equal within ``tol`` across
        grouping, caching and kernel-backend differences — which lets
        the batched block-diagonal dual run by default.  ``"bitwise"``
        forces the per-component solve path (batching off), restoring
        bit-identical replays across cache states and re-runs for
        workflows that diff posteriors byte for byte; its cache entries
        are keyed separately (see :meth:`solve_key`) so a bitwise
        replay never consumes a tolerance-path entry.
    kernel:
        Segment-reduction backend of the stacked dual
        (:mod:`repro.maxent.kernels`): ``"auto"`` (the default — numba
        when importable, else numpy), ``"numpy"`` (the reference
        ``reduceat`` backend), or ``"numba"`` (JIT-compiled, parallel
        over blocks; requires ``pip install repro[numba]``).  Backends
        agree within ``tol``, the tolerance contract.
    batch_components:
        Upper bound on how many small components the engine stacks into
        one block-diagonal dual and solves with a single vectorized
        L-BFGS loop (:mod:`repro.maxent.batch_dual`) — the cure for
        many-tiny-component workloads where per-``scipy.optimize``
        dispatch overhead dominates.  On by default (1024) under the
        tolerance replay contract: batched results agree with
        per-component solves within ``tol`` (the stacked trajectory
        differs in the last bits), not bit for bit.  ``0`` disables
        batching explicitly; ``replay="bitwise"`` disables it
        regardless of this knob.
    batch_max_vars:
        Size threshold of the batched path: only components with at most
        this many variables are binned into batch groups (large
        components amortize their own dispatch overhead and keep better
        per-problem curvature handling solo).
    """

    decompose: bool = True
    use_presolve: bool = True
    use_closed_form: bool = True
    tol: float = 1e-6
    max_iterations: int = 1000
    raise_on_infeasible: bool = True
    # Execution-engine knobs (see repro.engine).
    cache_size: int = 128
    cache_path: str | None = None
    # The solve-result reproducibility contract and the segment-kernel
    # backend (repro.maxent.kernels).
    replay: str = "tolerance"
    kernel: str = "auto"
    # Batched block-diagonal dual solve (repro.maxent.batch_dual) —
    # default-on under the tolerance replay contract.
    batch_components: int = 1024
    batch_max_vars: int = 96

    def __post_init__(self) -> None:
        # Type checks come first: a config decoded from JSON can carry
        # any value, and each must fail as a ReproError (HTTP 400), not
        # as a TypeError from a comparison below.
        for name in _FLAG_FIELDS:
            check_flag(getattr(self, name), name=name)
        if check_finite_real(self.tol, name="tol") <= 0:
            raise ReproError(f"tol must be positive, got {self.tol}")
        check_positive_int(self.max_iterations, name="max_iterations")
        check_non_negative_int(self.cache_size, name="cache_size")
        if self.cache_path is not None and not isinstance(
            self.cache_path, (str, os.PathLike)
        ):
            raise ReproError(
                "cache_path must be a path or None, got "
                f"{type(self.cache_path).__name__}"
            )
        if self.replay not in REPLAY_NAMES:
            raise ReproError(
                f"unknown replay contract {self.replay!r}; choose one of "
                f"{REPLAY_NAMES}"
            )
        if self.kernel not in KERNEL_NAMES:
            raise ReproError(
                f"unknown kernel {self.kernel!r}; choose one of "
                f"{KERNEL_NAMES}"
            )
        check_non_negative_int(self.batch_components, name="batch_components")
        check_positive_int(self.batch_max_vars, name="batch_max_vars")

    @property
    def batching_enabled(self) -> bool:
        """True when small components may take the batched dual path.

        Batching stacks many components into one block-diagonal dual
        whose results agree with per-component solves within ``tol``
        rather than bit for bit — so the ``"bitwise"`` replay contract
        turns it off regardless of ``batch_components``.
        """
        return self.replay != "bitwise" and self.batch_components > 1

    def solve_key(self) -> tuple:
        """The configuration facets a cached solution depends on.

        Two configs with equal ``solve_key()`` produce the same solution for
        the same constraint system, so cache entries are shared across
        cache-bookkeeping differences but never across presolve,
        tolerance or iteration-budget changes.  The batching and kernel
        knobs are deliberately excluded: under the tolerance contract batched,
        per-component and cross-kernel solves converge to the same
        optimum within ``tol``, so their cache entries are
        interchangeable — and keys (hence persisted caches) stay
        identical whichever path produced them.  The
        ``"bitwise"`` contract appends a marker instead: a bitwise
        replay must never be served a tolerance-path entry, because a
        within-``tol`` vector is exactly what it promises not to return.
        """
        key = (self.use_presolve, self.tol, self.max_iterations)
        if self.replay == "bitwise":
            key += ("bitwise",)
        return key
