"""The versioned coordinator <-> worker wire protocol.

One protocol version string (:data:`SHARD_PROTOCOL`) tags every shard
message; a worker rejects (and a coordinator refuses to decode) anything
else, so mixed-version fleets fail loudly at the first request instead
of mis-solving quietly.  Payloads are plain JSON over the same stdlib
HTTP stack the serving subsystem already speaks:

- *solve request* — a batch of component jobs for one worker: each job
  carries its canonical solve fingerprint (the at-most-once dedup key),
  the flat-array component bundle (:mod:`repro.maxent.wire`) and an
  optional warm-start multiplier vector; the solver config rides once
  per batch.
- *solve response* — per-job results in request order: the probability
  vector (bit-exact raw-bytes encoding), the solver stats, converged
  dual multipliers when available, and whether the worker's own cache
  served the job.

:class:`ShardClient` extends the blocking service client with the shard
endpoints, so a coordinator drives workers exactly the way external
clients drive the service (keep-alive, retries on stale connections,
uniform error decoding).
"""

from __future__ import annotations

import numpy as np

from repro.core.serialize import (
    config_from_dict,
    config_to_dict,
    stats_from_dict,
    stats_to_dict,
)
from repro.engine.component import ComponentSolve
from repro.errors import ReproError
from repro.maxent.config import MaxEntConfig
from repro.maxent.decompose import Component
from repro.maxent.wire import (
    component_from_wire,
    component_to_wire,
    decode_array,
    encode_array,
)
from repro.service.client import ServiceClient

#: Protocol tag of every shard message; bump on incompatible changes.
#: (v2: the solver config grew the ``batch_components``/``batch_max_vars``
#: knobs, which a v1 worker's strict config decoder rejects — the bump
#: turns a confusing unknown-key failure in a mixed-version fleet into
#: the designed loud version-mismatch error.
#: v3: the solve-result contract is versioned — the config grew the
#: ``replay``/``kernel`` knobs, batching is default-on, and cluster
#: results are *tolerance*-equivalent to single-engine solves unless
#: ``replay="bitwise"`` forces the per-component path.  A v2 peer would
#: both reject the new config keys and assume the old bit-identical
#: contract, so mixed fleets must fail loudly.
#: v4: solve requests carry an optional ``trace`` context and responses
#: an optional ``spans`` list (cross-machine trace stitching).  A v3
#: worker's strict request decoder rejects the ``trace`` field, so the
#: bump again turns an unknown-key failure into the designed
#: version-mismatch error.
#: v5: dynamic membership — workers carry a stable identity decoupled
#: from their bind address, dial in over the new ``/shard/v1/join`` and
#: ``/shard/v1/heartbeat`` messages, and solve responses name the
#: worker by that identity.  A v4 coordinator would route by
#: ``host:port`` while a v5 worker self-reports its persisted id, so a
#: mixed fleet must fail loudly rather than split-brain the ring.
#: v6: the config lost the ``workers`` knob and the ``"thread"`` and
#: ``"process"`` executors, so a v5 coordinator's config would fail a v6
#: worker's strict decoder — the bump makes that a version mismatch.)
SHARD_PROTOCOL = "privacy-maxent-shard/6"


def check_protocol(payload, what: str) -> None:
    """Reject a message not speaking :data:`SHARD_PROTOCOL`."""
    if not isinstance(payload, dict):
        raise ReproError(f"{what} must be a JSON object")
    version = payload.get("protocol")
    if version != SHARD_PROTOCOL:
        raise ReproError(
            f"{what} speaks protocol {version!r}, expected "
            f"{SHARD_PROTOCOL!r}; coordinator and workers must run the "
            "same version"
        )


def solve_request_to_wire(
    fingerprints: list[str],
    components: list[Component],
    config: MaxEntConfig,
    warm_starts: list[np.ndarray | None],
    trace_ctx: dict | None = None,
) -> dict:
    """Encode one batch of component jobs for a worker.

    ``trace_ctx`` is the coordinator's active span as a
    ``{"trace_id", "span_id"}`` dict; the worker parents its solve spans
    on it and ships them back, stitching one cross-machine trace.
    """
    jobs = []
    for fingerprint, component, warm in zip(
        fingerprints, components, warm_starts
    ):
        jobs.append(
            {
                "fingerprint": fingerprint,
                "component": component_to_wire(component),
                "warm_start": (
                    encode_array(warm, "<f8") if warm is not None else None
                ),
            }
        )
    payload = {
        "protocol": SHARD_PROTOCOL,
        "config": config_to_dict(config),
        "jobs": jobs,
    }
    if trace_ctx is not None:
        payload["trace"] = dict(trace_ctx)
    return payload


def _trace_from_wire(payload) -> dict | None:
    """Validate the optional ``trace`` field into a usable context."""
    trace = payload.get("trace")
    if not isinstance(trace, dict):
        return None
    trace_id = trace.get("trace_id")
    span_id = trace.get("span_id")
    if not isinstance(trace_id, str) or not trace_id:
        return None
    return {
        "trace_id": trace_id,
        "span_id": span_id if isinstance(span_id, str) else None,
    }


def solve_request_from_wire(payload) -> tuple[
    list[str],
    list[Component],
    MaxEntConfig,
    list[np.ndarray | None],
    dict | None,
]:
    """Decode a worker-side solve request (strict).

    Returns ``(fingerprints, components, config, warm_starts,
    trace_ctx)``; the trace context is ``None`` when the coordinator
    sent none (or an unusable one — tracing must never fail a solve).
    """
    check_protocol(payload, "solve request")
    unknown = set(payload) - {"protocol", "config", "jobs", "trace"}
    if unknown:
        raise ReproError(f"solve request has unknown field(s): {sorted(unknown)}")
    config = config_from_dict(payload.get("config"))
    jobs = payload.get("jobs")
    if not isinstance(jobs, list):
        raise ReproError("solve request jobs must be a JSON list")
    fingerprints: list[str] = []
    components: list[Component] = []
    warm_starts: list[np.ndarray | None] = []
    for index, job in enumerate(jobs):
        if not isinstance(job, dict):
            raise ReproError(f"job {index} must be a JSON object")
        unknown = set(job) - {"fingerprint", "component", "warm_start"}
        if unknown:
            raise ReproError(
                f"job {index} has unknown field(s): {sorted(unknown)}"
            )
        fingerprint = job.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise ReproError(f"job {index} needs a non-empty fingerprint")
        fingerprints.append(fingerprint)
        components.append(component_from_wire(job.get("component")))
        warm = job.get("warm_start")
        warm_starts.append(
            decode_array(warm, "<f8") if warm is not None else None
        )
    return fingerprints, components, config, warm_starts, _trace_from_wire(
        payload
    )


def solve_result_to_wire(
    fingerprint: str, result: ComponentSolve, *, cached: bool
) -> dict:
    """Encode one solved component for the response."""
    return {
        "fingerprint": fingerprint,
        "p": encode_array(result.p, "<f8"),
        "stats": stats_to_dict(result.stats),
        "multipliers": (
            encode_array(result.multipliers, "<f8")
            if result.multipliers is not None
            else None
        ),
        "cached": bool(cached),
    }


def solve_response_from_wire(payload) -> list[tuple[str, ComponentSolve, bool]]:
    """Decode a worker's response into ``(fingerprint, solve, cached)``."""
    check_protocol(payload, "solve response")
    results = payload.get("results")
    if not isinstance(results, list):
        raise ReproError("solve response results must be a JSON list")
    decoded: list[tuple[str, ComponentSolve, bool]] = []
    for index, entry in enumerate(results):
        if not isinstance(entry, dict):
            raise ReproError(f"result {index} must be a JSON object")
        fingerprint = entry.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise ReproError(f"result {index} needs a non-empty fingerprint")
        multipliers = entry.get("multipliers")
        decoded.append(
            (
                fingerprint,
                ComponentSolve(
                    p=decode_array(entry.get("p"), "<f8"),
                    stats=stats_from_dict(entry.get("stats")),
                    multipliers=(
                        decode_array(multipliers, "<f8")
                        if multipliers is not None
                        else None
                    ),
                ),
                bool(entry.get("cached", False)),
            )
        )
    return decoded


def _membership_to_wire(worker_id: str, host: str, port: int) -> dict:
    return {
        "protocol": SHARD_PROTOCOL,
        "worker_id": worker_id,
        "host": host,
        "port": int(port),
    }


def _membership_from_wire(payload, what: str) -> tuple[str, str, int]:
    """Decode a join/heartbeat announcement (strict, like solve requests)."""
    check_protocol(payload, what)
    unknown = set(payload) - {"protocol", "worker_id", "host", "port"}
    if unknown:
        raise ReproError(f"{what} has unknown field(s): {sorted(unknown)}")
    worker_id = payload.get("worker_id")
    if not isinstance(worker_id, str) or not worker_id.strip():
        raise ReproError(f"{what} needs a non-empty worker_id")
    host = payload.get("host")
    if not isinstance(host, str) or not host.strip():
        raise ReproError(f"{what} needs a non-empty host")
    port = payload.get("port")
    if not isinstance(port, int) or isinstance(port, bool) or not (
        0 < port < 65536
    ):
        raise ReproError(f"{what} needs a port in 1..65535, got {port!r}")
    return worker_id.strip(), host.strip(), port


def join_request_to_wire(worker_id: str, host: str, port: int) -> dict:
    """Encode a worker's self-registration announcement."""
    return _membership_to_wire(worker_id, host, port)


def join_request_from_wire(payload) -> tuple[str, str, int]:
    """Decode a ``POST /shard/v1/join`` body -> (worker_id, host, port)."""
    return _membership_from_wire(payload, "join request")


def heartbeat_request_to_wire(worker_id: str, host: str, port: int) -> dict:
    """Encode a worker's liveness heartbeat."""
    return _membership_to_wire(worker_id, host, port)


def heartbeat_request_from_wire(payload) -> tuple[str, str, int]:
    """Decode a ``POST /shard/v1/heartbeat`` body -> (worker_id, host, port)."""
    return _membership_from_wire(payload, "heartbeat")


def response_spans(payload) -> list[dict]:
    """The worker-captured spans riding a solve response (may be empty).

    Tolerant by design: spans are observability freight, so anything
    malformed decodes to nothing rather than failing the solve.
    """
    spans = payload.get("spans")
    if not isinstance(spans, list):
        return []
    return [span for span in spans if isinstance(span, dict)]


class ShardClient(ServiceClient):
    """Blocking client a coordinator drives one shard worker with."""

    def request(
        self, method: str, path: str, payload=None, *, extra_headers=None
    ) -> dict:
        """A raw JSON request (the forwarding primitive)."""
        return self._request(method, path, payload, extra_headers=extra_headers)

    def solve_components(self, payload: dict) -> dict:
        """POST one encoded solve batch; returns the raw response."""
        return self._request("POST", "/shard/v1/components", payload)

    def shard_state(self) -> dict:
        """The worker's shard-level identity and counters."""
        return self._request("GET", "/shard/v1/state")

    def join(self, payload: dict) -> dict:
        """Announce a worker to a membership authority (front-end)."""
        return self._request("POST", "/shard/v1/join", payload)

    def heartbeat(self, payload: dict) -> dict:
        """Refresh a worker's liveness with a membership authority."""
        return self._request("POST", "/shard/v1/heartbeat", payload)
