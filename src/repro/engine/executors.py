"""Execution backends for component solves.

Decomposed components are independent sub-problems (Theorem 4 /
Proposition 1), so where they run never changes the solution.  Backends
share one interface — ``imap(fn, items)`` preserving input order — so the
engine is indifferent to where the work runs:

- :class:`SerialExecutor` — a plain loop in the calling process; the
  default.  Small components are already stacked into one batched dual
  per plan (:mod:`repro.maxent.batch_dual`), which is what makes one
  core enough.
- ``"cluster"`` — the cross-machine backend
  (:class:`repro.cluster.executor.ClusterExecutor`): components scatter
  over HTTP to long-lived shard workers.  Built here from the worker
  addresses in the config (or the ``REPRO_CLUSTER_WORKERS`` environment
  variable); the cluster package owns the implementation.

Executors work as context managers.  :func:`create_executor` also passes
through pre-built executor objects (anything with ``imap``/``close``),
which is how an engine adopts a cluster executor wired to an existing
coordinator.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.errors import ReproError
from repro.maxent.config import EXECUTOR_NAMES


class SerialExecutor:
    """Run tasks inline, in order.  The no-dependency baseline backend."""

    name = "serial"

    def imap(self, fn: Callable, items: Iterable):
        """Lazily apply ``fn`` item by item, in input order.

        Laziness is load-bearing: the engine checks each component for
        infeasibility as its result arrives, so a contradictory knowledge
        set aborts the solve at the first bad component instead of after
        the whole sweep.
        """
        return (fn(item) for item in items)

    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item, returning results in input order."""
        return list(self.imap(fn, items))

    def close(self) -> None:
        """Nothing to tear down."""

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def create_executor(name, *, cluster_workers: str | None = None):
    """Build the executor backend called ``name``.

    A pre-built executor object (``imap`` + ``close``) passes through
    unchanged, so callers holding a live cluster coordinator can hand its
    executor straight to :class:`~repro.engine.engine.PrivacyEngine`.
    ``cluster_workers`` is the comma-separated ``host:port`` list the
    ``"cluster"`` backend attaches to (falling back to the
    ``REPRO_CLUSTER_WORKERS`` environment variable).
    """
    if not isinstance(name, str):
        if hasattr(name, "imap") and hasattr(name, "close"):
            return name
        raise ReproError(
            f"executor must be a backend name or an executor object, got "
            f"{type(name).__name__}"
        )
    if name == "serial":
        return SerialExecutor()
    if name == "cluster":
        # Imported here: the cluster package builds *on* the engine, so
        # the engine must not import it at module load.
        from repro.cluster.executor import create_cluster_executor

        return create_cluster_executor(cluster_workers)
    raise ReproError(
        f"unknown executor {name!r}; choose one of {EXECUTOR_NAMES}"
    )
