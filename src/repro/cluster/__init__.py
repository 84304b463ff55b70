"""Cluster subsystem: release sharding across a fleet of engine workers.

The service made one engine long-lived behind HTTP; this package serves
more releases than one process holds by partitioning them over a fleet
of shard workers.  A :class:`~repro.cluster.router.ShardRouter`
(rendezvous hashing on release content digests) assigns each registered
release to a long-lived engine worker; the
:class:`~repro.cluster.frontend.ShardedFrontend` (``repro serve
--shards N``) keeps one client-facing address while each worker owns its
releases' compiled systems and solve caches.  Every solve still runs
whole, in-process, on the owning worker's engine.

Workers (:class:`~repro.cluster.worker.ShardWorker`, ``repro
shard-worker``) speak a versioned JSON shard protocol
(:mod:`repro.cluster.protocol`) over the same stdlib HTTP stack as the
service; the :class:`~repro.cluster.coordinator.ClusterCoordinator`
tracks membership, health-checks the fleet and aggregates per-shard
telemetry.  See ``README.md`` here for the architecture notes and
failure semantics.
"""

from repro.cluster.coordinator import ClusterCoordinator, WorkerHandle
from repro.cluster.frontend import ShardedFrontend
from repro.cluster.membership import (
    HeartbeatSender,
    MembershipConfig,
    load_or_create_identity,
    new_worker_id,
    parse_worker_address,
)
from repro.cluster.protocol import SHARD_PROTOCOL, ShardClient
from repro.cluster.retry import RetryPolicy
from repro.cluster.router import ClusterError, ShardRouter
from repro.cluster.worker import ShardWorker

__all__ = [
    "SHARD_PROTOCOL",
    "ClusterCoordinator",
    "ClusterError",
    "HeartbeatSender",
    "MembershipConfig",
    "RetryPolicy",
    "ShardClient",
    "ShardRouter",
    "ShardWorker",
    "ShardedFrontend",
    "WorkerHandle",
    "load_or_create_identity",
    "new_worker_id",
    "parse_worker_address",
]
