"""The shard worker runtime: a privacy service that also solves bundles.

A :class:`ShardWorker` is a full :class:`~repro.service.server.
PrivacyService` — release registry, posterior/assess endpoints, result
cache, admission control, telemetry — plus the shard protocol surface a
coordinator drives:

====== ============================ =======================================
method path                         purpose
====== ============================ =======================================
POST   ``/shard/v1/components``     solve a batch of component bundles
GET    ``/shard/v1/state``          shard identity + component counters
====== ============================ =======================================

Under *release sharding* the front-end forwards whole requests here and
the inherited service endpoints do the work — each worker owns its
releases' compiled systems, solve caches and warm starts.  Under
*component sharding* the components endpoint is the leaf of the
coordinator's scatter: decode the flat-array bundles, cache-check them
by the coordinator-supplied fingerprint, solve misses on this worker's
own engine, and stream the bit-exact results back.

Start one with ``repro shard-worker``; it is just a process, so any
process supervisor (systemd, k8s, a coordinator's ``spawn_local``) can
run fleets of them.  With ``--join HOST:PORT`` the worker also dials a
front-end at startup and heartbeats it
(:class:`~repro.cluster.membership.HeartbeatSender`), so fleets grow by
starting processes instead of editing address lists; pair it with
``--worker-id`` / ``--identity-file`` so a respawn reclaims its
rendezvous slot.
"""

from __future__ import annotations

import asyncio
from functools import partial

from repro.cluster.membership import (
    DEFAULT_HEARTBEAT_INTERVAL,
    HeartbeatSender,
)
from repro.cluster.protocol import (
    SHARD_PROTOCOL,
    solve_request_from_wire,
    solve_result_to_wire,
)
from repro.obs.trace import get_tracer
from repro.service.protocol import HttpError, HttpRequest
from repro.service.server import PrivacyService


class ShardWorker(PrivacyService):
    """One shard: a privacy service plus the component-solve endpoint."""

    def __init__(
        self,
        config=None,
        *,
        engine=None,
        worker_id: str | None = None,
        join: list[tuple[str, int]] | None = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    ) -> None:
        super().__init__(config, engine=engine)
        self.component_batches = 0
        self.components_solved = 0
        self.components_cached = 0
        self._worker_id = worker_id
        self._join_targets = list(join or [])
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat: HeartbeatSender | None = None

    @property
    def worker_id(self) -> str:
        """This shard's routing identity (stable id, else bind address)."""
        if self._worker_id:
            return self._worker_id
        return f"{self.config.host}:{self.port}"

    # -- membership lifecycle ------------------------------------------------

    async def start(self) -> None:
        await super().start()
        # The announcer starts only once the port is bound (spawned
        # workers bind port 0) — a join must advertise a reachable
        # address.
        if self._join_targets and self._heartbeat is None:
            self._heartbeat = HeartbeatSender(
                worker_id=self.worker_id,
                host=self.config.host,
                port=self.port,
                targets=self._join_targets,
                interval=self._heartbeat_interval,
            )
            self._heartbeat.start()

    def close(self) -> None:
        if self._heartbeat is not None:
            self._heartbeat.stop()
            self._heartbeat = None
        super().close()

    # -- routing -------------------------------------------------------------

    def _route(self, request: HttpRequest):
        segments = request.segments
        if segments == ("shard", "v1", "components"):
            if request.method != "POST":
                raise HttpError(
                    405,
                    f"{request.method} not allowed here (allowed: POST)",
                    code="method_not_allowed",
                    headers={"Allow": "POST"},
                )
            return "POST /shard/v1/components", self._handle_components
        if segments == ("shard", "v1", "state"):
            if request.method != "GET":
                raise HttpError(
                    405,
                    f"{request.method} not allowed here (allowed: GET)",
                    code="method_not_allowed",
                    headers={"Allow": "GET"},
                )
            return "GET /shard/v1/state", self._handle_state
        return super()._route(request)

    # -- shard endpoints -----------------------------------------------------

    async def _handle_components(
        self, request: HttpRequest
    ) -> tuple[int, dict]:
        body = request.json()
        loop = asyncio.get_running_loop()
        fingerprints, components, config, warm_starts, trace_ctx = (
            await loop.run_in_executor(None, solve_request_from_wire, body)
        )

        def work():
            # The capture bracket must run on the executor thread itself
            # (contextvars do not cross run_in_executor): every span the
            # engine opens below lands in ``capture.spans``, which ships
            # back with the response for coordinator-side stitching.
            tracer = get_tracer()
            with tracer.capture() as capture:
                with tracer.span(
                    "shard.solve_components",
                    ctx=trace_ctx,
                    worker=self.worker_id,
                    n_components=len(components),
                ):
                    results = self.engine.solve_components(
                        fingerprints, components, config, warm_starts
                    )
            return results, capture.spans

        async def run():
            return await loop.run_in_executor(None, work)

        # One admission slot per batch: a batch is one solve-shaped unit
        # of CPU work, and coordinator retries absorb the 429s.
        results, spans = await self.admission.run(run)

        def encode() -> tuple[dict, int, int]:
            entries = []
            solved = 0
            cached = 0
            for fingerprint, (solve, was_cached) in zip(
                fingerprints, results
            ):
                entries.append(
                    solve_result_to_wire(fingerprint, solve, cached=was_cached)
                )
                if was_cached:
                    cached += 1
                else:
                    solved += 1
            return {
                "protocol": SHARD_PROTOCOL,
                "worker": self.worker_id,
                "results": entries,
            }, solved, cached

        payload, solved, cached = await loop.run_in_executor(None, encode)
        if spans:
            payload["spans"] = spans
        self.component_batches += 1
        self.components_solved += solved
        self.components_cached += cached
        self.telemetry.incr("component_batches")
        self.telemetry.incr("components_solved", solved)
        self.telemetry.incr("components_cached", cached)
        return 200, payload

    async def _handle_state(self, request: HttpRequest) -> tuple[int, dict]:
        heartbeat = self._heartbeat
        return 200, {
            "protocol": SHARD_PROTOCOL,
            "worker": self.worker_id,
            "address": f"{self.config.host}:{self.port}",
            "releases": len(self.store),
            "component_batches": self.component_batches,
            "components_solved": self.components_solved,
            "components_cached": self.components_cached,
            "heartbeat": (
                None
                if heartbeat is None
                else {
                    "targets": [f"{h}:{p}" for h, p in heartbeat.targets],
                    "interval_seconds": heartbeat.interval,
                    "sent": heartbeat.sent,
                    "failed": heartbeat.failed,
                }
            ),
            "engine": self.engine.stats(),
        }

    # -- telemetry -----------------------------------------------------------

    async def _handle_telemetry(self, request: HttpRequest) -> tuple[int, dict]:
        status, payload = await super()._handle_telemetry(request)
        payload["shard"] = {
            "worker": self.worker_id,
            "protocol": SHARD_PROTOCOL,
            "component_batches": self.component_batches,
            "components_solved": self.components_solved,
            "components_cached": self.components_cached,
        }
        return status, payload
