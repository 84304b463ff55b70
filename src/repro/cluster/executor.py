"""The ``"cluster"`` engine executor: components scattered over HTTP.

A :class:`ClusterExecutor` plugs the shard fleet in as the engine's
backend beside serial: the engine plans and cache-checks exactly as
before, and the numeric solve step ships the pending flat-array
component bundles to the coordinator instead of solving them
in-process.  Fingerprints are the routing keys *and* the at-most-once
dedup keys; the engine already computed them for its cache check, so
its work items carry them through this seam and cold cluster solves no
longer fingerprint every component twice — only components the engine
skipped (cache disabled) are fingerprinted here.

The engine dispatches *group* work items (batch groups plus
singletons).  Groups flatten to per-component wire jobs before the
scatter — routing and dedup stay per-fingerprint — and each worker's
own engine re-bins the bundles it receives, so the batched dual path
speeds the fleet up from inside the shards.

Because the wire encoding is lossless (raw-bytes float payloads) and
the engine's own cache/warm-start bookkeeping still runs on the
gathered results, a cluster solve is indistinguishable from a local one
to everything above the executor seam — within the solve-result
contract: under the default ``replay="tolerance"`` local/cluster
agreement is within solver tolerance (batch grouping differs across
the seam), while ``replay="bitwise"`` forces the per-component path on
both sides and round-trips bit-identical posteriors.
"""

from __future__ import annotations

import os

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.router import ClusterError
from repro.engine.component import (
    solve_component_group_task,
    solve_component_task,
)
from repro.engine.fingerprint import component_fingerprint


class ClusterExecutor:
    """Engine executor backend dispatching component jobs to shard workers."""

    name = "cluster"

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        *,
        owns_coordinator: bool = False,
    ) -> None:
        self.coordinator = coordinator
        self.owns_coordinator = owns_coordinator

    @property
    def workers(self) -> int:
        """Advertised parallelism: concurrency heuristics (the service's
        max_concurrency default) read this as the fleet's width.
        A property, because an elastic fleet grows and shrinks under a
        live executor."""
        return max(self.coordinator.n_workers, 1)

    def imap(self, fn, items):
        """Scatter component work items (grouped or single) to the fleet."""
        if fn is solve_component_group_task:
            return self._scatter_groups(list(items))
        if fn is solve_component_task:
            # The single-component job shape, kept for callers driving
            # the executor directly.
            jobs = list(items)
            if not jobs:
                return []
            config = jobs[0][1]
            group_results = self._scatter_groups(
                [
                    ([component], config, [warm], [None])
                    for component, _, warm in jobs
                ]
            )
            return [results[0] for results in group_results]
        raise ClusterError(
            "the cluster executor only runs component solve tasks, "
            f"got {getattr(fn, '__name__', fn)!r}"
        )

    def _scatter_groups(self, jobs):
        """Flatten group jobs, scatter per fingerprint, regroup results."""
        if not jobs:
            return []
        config = jobs[0][1]
        solve_key = config.solve_key()
        components = []
        warm_starts = []
        fingerprints = []
        counts = []
        trace_ctx = None
        for group_components, _, group_warms, group_fingerprints, *rest in (
            jobs
        ):
            if trace_ctx is None and rest:
                # One solve's groups share a trace context; the first
                # carries it to the coordinator (and over the wire).
                trace_ctx = rest[0]
            counts.append(len(group_components))
            components.extend(group_components)
            warm_starts.extend(group_warms)
            for component, fingerprint in zip(
                group_components, group_fingerprints
            ):
                fingerprints.append(
                    fingerprint
                    if fingerprint is not None
                    else component_fingerprint(
                        component.system, component.mass, solve_key
                    )
                )
        flat = self.coordinator.solve_components(
            fingerprints, components, config, warm_starts,
            trace_ctx=trace_ctx,
        )
        grouped = []
        cursor = 0
        for count in counts:
            grouped.append(flat[cursor : cursor + count])
            cursor += count
        return grouped

    def map(self, fn, items) -> list:
        """Eager :meth:`imap` (already eager — one scatter per call)."""
        return list(self.imap(fn, items))

    def close(self) -> None:
        """Shut the coordinator down when this executor owns it."""
        if self.owns_coordinator:
            self.coordinator.shutdown()

    def __enter__(self) -> "ClusterExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def create_cluster_executor(cluster_workers: str | None = None) -> ClusterExecutor:
    """Build a cluster executor from a ``host:port,host:port`` list.

    Falls back to the ``REPRO_CLUSTER_WORKERS`` environment variable —
    the hook that makes ``--executor cluster`` usable from any CLI
    subcommand without new plumbing.  The executor owns the attached
    coordinator (closing the engine detaches; remote workers live on).
    """
    addresses = cluster_workers or os.environ.get("REPRO_CLUSTER_WORKERS", "")
    if not addresses.strip():
        raise ClusterError(
            "the cluster executor needs shard worker addresses: pass "
            "cluster_workers='host:port,host:port' (config/CLI "
            "--cluster-workers) or set REPRO_CLUSTER_WORKERS, and start "
            "workers with `repro shard-worker`"
        )
    coordinator = ClusterCoordinator.attach(addresses)
    return ClusterExecutor(coordinator, owns_coordinator=True)
