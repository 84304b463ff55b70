"""The asyncio serving front-end over a long-lived :class:`PrivacyEngine`.

One :class:`PrivacyService` = one engine + one session store + one
request layer (admission control, coalescing, micro-batching) + one
telemetry aggregate, exposed over a stdlib-only HTTP/JSON protocol:

====== ===================================== ==================================
method path                                  purpose
====== ===================================== ==================================
GET    ``/v1/healthz``                       liveness probe
GET    ``/v1/telemetry``                     engine + service counters
GET    ``/v1/releases``                      list registered releases
POST   ``/v1/releases``                      register a bucketized release
POST   ``/v1/releases/uploads``              begin a chunked upload
GET    ``/v1/releases/uploads``              list in-flight uploads
GET    ``/v1/releases/uploads/{uid}``        one upload's status
DELETE ``/v1/releases/uploads/{uid}``        abort an upload
POST   ``/v1/releases/{uid}/chunks``         append one chunk of buckets
POST   ``/v1/releases/{uid}/finalize``       register the accumulated upload
GET    ``/v1/releases/{id}``                 one release's summary
POST   ``/v1/releases/{id}/posterior``       solve ``P*(SA|QI)`` under knowledge
POST   ``/v1/releases/{id}/assess``          Section 4.3 (bound, score) table
====== ===================================== ==================================

The solve path is where the serving layer earns its keep: compiled
constraint systems are cached per release, finished results are cached by
the engine's canonical request fingerprint, identical in-flight solves
coalesce onto one computation, no-knowledge posteriors micro-batch into a
single vectorized Eq. (9) call, and everything else funnels through the
bounded admission queue onto worker threads over the shared engine (whose
own component cache and warm starts persist across requests — and across
restarts, with ``cache_path``).
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import time
from dataclasses import dataclass, field
from functools import partial

from repro.core.accuracy import estimation_accuracy
from repro.core.metrics import (
    bayes_vulnerability,
    effective_l,
    expected_posterior_entropy,
    max_disclosure,
)
from repro.core.quantifier import PosteriorTable
from repro.core.serialize import (
    bound_from_dict,
    config_from_dict,
    mining_config_from_dict,
    posterior_from_dict,
    posterior_to_dict,
    published_from_dict,
    statements_from_list,
    stats_to_dict,
    table_from_dict,
)
from repro.engine.engine import PrivacyEngine
from repro.errors import InfeasibleKnowledgeError, IngestError, ReproError
from repro.maxent.config import MaxEntConfig
from repro.maxent.solution import MaxEntSolution, SolverStats
from repro.obs.events import EventLog
from repro.obs.logging import get_logger
from repro.obs.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.obs.metrics import MetricsBuilder
from repro.obs.trace import get_tracer
from repro.service.admission import (
    AdmissionController,
    ClosedFormBatcher,
    Coalescer,
    QueueFullError,
)
from repro.service.deadline import (
    DEADLINE_HEADER,
    Deadline,
    DeadlineExceededError,
)
from repro.service.durability import DEFAULT_SNAPSHOT_EVERY, DurableState
from repro.service.ingest import (
    DEFAULT_MAX_SESSIONS,
    DEFAULT_TTL_SECONDS,
    IngestManager,
)
from repro.service.protocol import (
    MAX_BODY_BYTES,
    HttpError,
    HttpRequest,
    TextResponse,
    error_body,
    json_body,
    read_request,
    response_bytes,
)
from repro.service.store import SessionStore, release_digest
from repro.service.telemetry import LATENCY_BOUNDS, ServiceTelemetry

DEFAULT_PORT = 8711

#: Request header a client (or the sharded frontend) sets to link the
#: server-side trace into its own: ``"<trace_id>:<span_id>"``.
TRACE_HEADER = "x-repro-trace"

#: Seconds :meth:`PrivacyService.stop` gives a connection that is
#: mid-request to finish its response before cancelling its handler.
STOP_GRACE_SECONDS = 1.0

_log = get_logger("service")


def _trace_context(request: HttpRequest) -> dict | None:
    """Parse the optional :data:`TRACE_HEADER` into a trace context."""
    raw = request.headers.get(TRACE_HEADER, "")
    trace_id, sep, span_id = raw.partition(":")
    if not sep or not trace_id.strip() or not span_id.strip():
        return None
    return {"trace_id": trace_id.strip(), "span_id": span_id.strip()}


def engine_metrics(
    builder: MetricsBuilder, stats: dict, labels: dict | None = None
) -> None:
    """Emit one engine's :meth:`PrivacyEngine.stats` as Prometheus series.

    Shared between the single-engine ``/metrics`` endpoint and the
    sharded frontend's fleet aggregation (which calls it once per shard
    with a ``{"shard": ...}`` label set).
    """
    builder.counter(
        "engine_solves_total",
        stats.get("n_solves", 0),
        labels,
        "Full engine solves completed.",
    )
    builder.counter(
        "engine_component_solves_total",
        stats.get("component_solves", 0),
        labels,
        "Per-component solves completed (cache hits included).",
    )
    builder.counter(
        "engine_batched_components_total",
        stats.get("batched_components", 0),
        labels,
        "Components solved through the stacked block-diagonal dual.",
    )
    for phase in ("wall", "cpu", "build", "decompose", "fingerprint"):
        builder.counter(
            f"engine_{phase}_seconds_total",
            stats.get(f"{phase}_seconds", 0.0),
            labels,
            f"Cumulative engine {phase} time in seconds.",
        )
    cache = stats.get("cache", {})
    builder.gauge(
        "engine_cache_entries",
        cache.get("size", 0),
        labels,
        "Component solve-cache entries resident.",
    )
    for counter in ("hits", "misses", "evictions"):
        builder.counter(
            f"engine_cache_{counter}_total",
            cache.get(counter, 0),
            labels,
            f"Component solve-cache {counter}.",
        )
    builder.gauge(
        "engine_warm_starts",
        stats.get("warm_starts", 0),
        labels,
        "Warm-start dual vectors resident.",
    )


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment knobs of one service instance.

    Parameters
    ----------
    host, port:
        Bind address; port 0 asks the OS for a free port (tests).
    max_concurrency:
        Solves running at once (``None``: the engine's worker count, or 4
        for the serial executor — threads still overlap closed-form and
        packaging work with GIL-releasing numeric kernels).
    max_queue:
        Admitted-but-waiting solves beyond ``max_concurrency``; past
        both, requests get HTTP 429 (backpressure).
    batch_window_seconds, max_batch:
        Micro-batching window and cap for closed-form requests.
    result_cache_size:
        Finished-response LRU entries (keyed by release + request
        fingerprint).
    max_body_bytes:
        Request-body cap (HTTP 413 beyond).
    register_max_bytes:
        Tighter body cap for one-shot registration (HTTP 413 with a
        pointer to the chunked protocol) — large releases must stream,
        not arrive as one unbounded JSON document.
    max_ingest_sessions:
        Chunked uploads in flight at once; past this, ``begin`` answers
        HTTP 429 (the same backpressure contract as the solve queue).
    ingest_ttl_seconds:
        Idle time before an abandoned upload session is dropped.
    state_dir:
        Directory for the crash-safe state journal + snapshots (see
        :mod:`repro.service.durability`); ``None`` serves in-memory.
    snapshot_every:
        Journal records between periodic snapshot + truncation cycles.
    drain_timeout:
        Seconds a SIGTERM drain waits for in-flight solves to finish
        before the final snapshot and shutdown.
    engine:
        Execution-engine knobs (executor, workers, component cache size,
        ``cache_path`` for warm restarts).
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    max_concurrency: int | None = None
    max_queue: int = 64
    batch_window_seconds: float = 0.002
    max_batch: int = 64
    result_cache_size: int = 256
    max_body_bytes: int = MAX_BODY_BYTES
    register_max_bytes: int = 8 * 1024 * 1024
    max_ingest_sessions: int = DEFAULT_MAX_SESSIONS
    ingest_ttl_seconds: float = DEFAULT_TTL_SECONDS
    state_dir: str | None = None
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY
    drain_timeout: float = 30.0
    engine: MaxEntConfig = field(default_factory=MaxEntConfig)


class PrivacyService:
    """A long-lived privacy-quantification service over one engine."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        engine: PrivacyEngine | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.engine = engine or PrivacyEngine.from_config(self.config.engine)
        self._owns_engine = engine is None
        self.store = SessionStore(
            result_cache_size=self.config.result_cache_size
        )
        self.telemetry = ServiceTelemetry()
        concurrency = self.config.max_concurrency
        if concurrency is None:
            workers = getattr(self.engine, "_executor", None)
            concurrency = max(getattr(workers, "workers", 1), 4)
        self.admission = AdmissionController(
            max_concurrency=concurrency, max_queue=self.config.max_queue
        )
        self.coalescer = Coalescer()
        self.ingest = IngestManager(
            max_sessions=self.config.max_ingest_sessions,
            ttl_seconds=self.config.ingest_ttl_seconds,
        )
        self.batcher = ClosedFormBatcher(
            window_seconds=self.config.batch_window_seconds,
            max_batch=self.config.max_batch,
        )
        self._register_lock: asyncio.Lock | None = None
        self._server: asyncio.base_events.Server | None = None
        self.port = self.config.port
        self.events = EventLog()
        self._draining = False
        # Live connection handlers (task -> writer), the subset parked
        # between requests, and whether shutdown has begun closing them.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._idle: set[asyncio.Task] = set()
        self._closing = False
        self.durability: DurableState | None = None
        if self.config.state_dir:
            self.durability = DurableState(
                self.config.state_dir,
                snapshot_every=self.config.snapshot_every,
            )
            # Recovery runs before the socket opens: the first request a
            # restarted server answers already sees the pre-crash state.
            summary = self.durability.recover(self.store, self.ingest)
            if summary["recovered"]:
                self.events.record(
                    "journal_replayed",
                    replayed_records=summary["replayed_records"],
                    recovered_releases=summary["recovered_releases"],
                    torn_records_dropped=summary["torn_records_dropped"],
                    snapshot_loaded=summary["snapshot_loaded"],
                )
                for upload_id in summary["resumed_upload_ids"]:
                    self.events.record("ingest_resumed", upload_id=upload_id)
                _log.info(
                    "recovered durable service state",
                    extra={"fields": summary},
                )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (idempotent)."""
        if self._server is not None:
            return
        self._register_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until cancelled (``start`` is called if needed)."""
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and close the open ones.

        The engine outlives the socket.  Every connection handler has
        finished when this returns (see :meth:`_close_connections`).
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._close_connections(STOP_GRACE_SECONDS)

    async def _close_connections(self, grace: float) -> None:
        """Close idle keep-alive connections and await every handler.

        A handler parked between requests is woken by closing its
        transport: it reads end-of-stream and returns.  A handler that is
        mid-request sends its response with ``Connection: close`` if it
        finishes within ``grace`` seconds, and is cancelled otherwise.
        Either way no handler task outlives the event loop, which would
        otherwise report it destroyed while pending.
        """
        self._closing = True
        for task in self._idle:
            self._connections[task].close()
        handlers = list(self._connections)
        if not handlers:
            return
        _, late = await asyncio.wait(handlers, timeout=grace)
        for task in late:
            task.cancel()
        await asyncio.gather(*late, return_exceptions=True)

    async def drain(self, timeout: float | None = None) -> None:
        """Graceful SIGTERM drain: finish in-flight work, snapshot, stop.

        New connections are refused immediately (the listener closes;
        established keep-alive connections see ``/v1/healthz`` answer
        "draining"), in-flight solves get up to ``timeout`` seconds
        (default ``drain_timeout``) to finish, then the open connections
        close, and the final snapshot makes the journal replay on the
        next boot empty.
        """
        budget = self.config.drain_timeout if timeout is None else timeout
        self._draining = True
        self.events.record("drain_started", timeout_seconds=budget)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        give_up = loop.time() + budget
        while (
            self.admission.depth > 0 or self.coalescer.inflight > 0
        ) and loop.time() < give_up:
            await asyncio.sleep(0.02)
        await self._close_connections(max(give_up - loop.time(), 0.0))
        if self.durability is not None:
            path = await loop.run_in_executor(
                None, self.durability.write_snapshot, self.store, self.ingest
            )
            self.events.record("snapshot_written", path=path, reason="drain")
            self.telemetry.incr("snapshots_written")

    def close(self) -> None:
        """Release resources; closes (and persists) an owned engine.

        A durable service writes one last snapshot here, so a *graceful*
        shutdown leaves an empty journal — only a hard kill pays replay
        on the next boot.
        """
        if self.durability is not None:
            with contextlib.suppress(Exception):
                self.durability.write_snapshot(self.store, self.ingest)
            self.durability.close()
        if self._owns_engine:
            self.engine.close()

    def run(self) -> None:  # pragma: no cover - exercised by the CLI smoke
        """Blocking entry point: serve until SIGINT/SIGTERM, then clean up.

        Both signals shut down gracefully (persisting the solve cache
        when ``cache_path`` is set); SIGTERM additionally drains —
        in-flight solves finish (bounded by ``drain_timeout``) and the
        final state snapshot lands before exit, because service managers
        and CI send SIGTERM by default and expect no lost work.
        """
        async def main() -> None:
            loop = asyncio.get_running_loop()
            stopping = asyncio.Event()
            received: list[int] = []

            def on_signal(signum: int) -> None:
                received.append(signum)
                stopping.set()

            for signum in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(
                        signum, partial(on_signal, signum)
                    )
            await self.start()
            _log.info(
                "privacy-maxent service listening on "
                f"http://{self.config.host}:{self.port}",
                extra={
                    "fields": {
                        "host": self.config.host,
                        "port": self.port,
                        "engine": self.engine.describe(),
                    }
                },
            )
            await stopping.wait()
            if signal.SIGTERM in received:
                await self.drain()
            await self.stop()

        try:
            asyncio.run(main())
        except KeyboardInterrupt:
            pass
        finally:
            self.close()
            _log.info(
                "service stopped",
                extra={"fields": {"engine": self.engine.describe()}},
            )

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while not self._closing:
                self._idle.add(task)
                try:
                    request = await read_request(
                        reader, max_body=self.config.max_body_bytes
                    )
                except HttpError as exc:
                    writer.write(
                        response_bytes(
                            exc.status,
                            error_body(exc),
                            keep_alive=False,
                            extra_headers=exc.headers,
                        )
                    )
                    await writer.drain()
                    return
                finally:
                    self._idle.discard(task)
                if request is None:
                    return
                started = time.perf_counter()
                # One root span per request; a client-supplied trace
                # header links it into the caller's trace (the sharded
                # frontend forwards one so cross-process fan-out reads
                # as a single trace).
                with get_tracer().span(
                    "service.request",
                    ctx=_trace_context(request),
                    method=request.method,
                    path=request.path,
                ) as span:
                    endpoint, status, payload, headers = await self._dispatch(
                        request
                    )
                    span.set(endpoint=endpoint, status=status)
                keep_alive = request.keep_alive and not self._closing
                if isinstance(payload, TextResponse):
                    body = payload.encode()
                    content_type = payload.content_type
                else:
                    body = json_body(payload)
                    content_type = "application/json"
                writer.write(
                    response_bytes(
                        status,
                        body,
                        content_type=content_type,
                        keep_alive=keep_alive,
                        extra_headers=headers,
                    )
                )
                await writer.drain()
                self.telemetry.observe(
                    endpoint, status, time.perf_counter() - started
                )
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        finally:
            self._connections.pop(task, None)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(
        self, request: HttpRequest
    ) -> tuple[str, int, "dict | TextResponse", dict]:
        endpoint = request.method + " " + request.path
        try:
            # The deadline clock starts here, at arrival — queue wait,
            # compilation and solve time all burn the same budget.
            request.deadline = Deadline.from_header(
                request.headers.get(DEADLINE_HEADER)
            )
            if request.deadline is not None:
                request.deadline.check("arrival")
            endpoint, handler = self._route(request)
            if handler is None:
                raise HttpError(
                    404, f"no such endpoint: {request.path}", code="not_found"
                )
            status, payload = await handler(request)
            return endpoint, status, payload, {}
        except HttpError as exc:
            self.telemetry.incr("errors")
            return (
                endpoint,
                exc.status,
                {"error": {"code": exc.code, "message": exc.message}},
                exc.headers,
            )
        except QueueFullError as exc:
            self.telemetry.incr("rejected")
            return (
                endpoint,
                429,
                {"error": {"code": "queue_full", "message": str(exc)}},
                {"Retry-After": "1"},
            )
        except LookupError as exc:
            self.telemetry.incr("errors")
            return (
                endpoint,
                404,
                {"error": {"code": "unknown_release", "message": str(exc)}},
                {},
            )
        except InfeasibleKnowledgeError as exc:
            self.telemetry.incr("errors")
            return (
                endpoint,
                409,
                {"error": {"code": "infeasible_knowledge", "message": str(exc)}},
                {},
            )
        except IngestError as exc:
            # Protocol violations on an existing upload (sequence gaps,
            # digest mismatches, double-finalize) are conflicts with the
            # session's state, not malformed requests.
            self.telemetry.incr("errors")
            return (
                endpoint,
                409,
                {"error": {"code": "ingest_conflict", "message": str(exc)}},
                {},
            )
        except DeadlineExceededError as exc:
            # The budget ran out before solve work was committed: shed
            # with 503 + Retry-After so the client retries with a fresh
            # budget (or gives up knowing no partial work happened).
            self.telemetry.incr("deadline_shed")
            self.events.record(
                "deadline_shed",
                endpoint=endpoint,
                phase=exc.phase,
                budget_seconds=exc.budget,
                elapsed_seconds=exc.elapsed,
            )
            return (
                endpoint,
                503,
                {"error": {"code": "deadline_exceeded", "message": str(exc)}},
                {"Retry-After": "1"},
            )
        except ReproError as exc:
            self.telemetry.incr("errors")
            return (
                endpoint,
                400,
                {"error": {"code": "bad_request", "message": str(exc)}},
                {},
            )
        except Exception as exc:  # noqa: BLE001 - the service must not die
            self.telemetry.incr("errors")
            _log.exception(
                "unhandled error serving request",
                extra={"fields": {"endpoint": endpoint}},
            )
            return (
                endpoint,
                500,
                {
                    "error": {
                        "code": "internal",
                        "message": f"{type(exc).__name__}: {exc}",
                    }
                },
                {},
            )

    def _route(self, request: HttpRequest):
        """Map (method, path) to (endpoint label, handler coroutine)."""
        segments = request.segments
        method = request.method

        def allow(*methods: str) -> None:
            if method not in methods:
                raise_allowed = ", ".join(methods)
                raise HttpError(
                    405,
                    f"{method} not allowed here (allowed: {raise_allowed})",
                    code="method_not_allowed",
                    headers={"Allow": raise_allowed},
                )

        try:
            if segments == ():
                allow("GET")
                return "GET /", self._handle_root
            if segments == ("v1", "healthz"):
                allow("GET")
                return "GET /v1/healthz", self._handle_healthz
            if segments == ("v1", "telemetry"):
                allow("GET")
                return "GET /v1/telemetry", self._handle_telemetry
            if segments == ("metrics",):
                allow("GET")
                return "GET /metrics", self._handle_metrics
            if segments == ("v1", "traces"):
                allow("GET")
                return "GET /v1/traces", self._handle_traces
            if segments == ("v1", "releases"):
                allow("GET", "POST")
                if method == "GET":
                    return "GET /v1/releases", self._handle_list_releases
                return "POST /v1/releases", self._handle_register
            if segments == ("v1", "releases", "uploads"):
                allow("GET", "POST")
                if method == "GET":
                    return "GET /v1/releases/uploads", self._handle_list_uploads
                return "POST /v1/releases/uploads", self._handle_ingest_begin
            if len(segments) == 4 and segments[:3] == ("v1", "releases", "uploads"):
                allow("GET", "DELETE")
                if method == "GET":
                    return (
                        "GET /v1/releases/uploads/{uid}",
                        self._handle_ingest_status,
                    )
                return (
                    "DELETE /v1/releases/uploads/{uid}",
                    self._handle_ingest_abort,
                )
            if len(segments) == 3 and segments[:2] == ("v1", "releases"):
                allow("GET")
                return "GET /v1/releases/{id}", self._handle_release
            if len(segments) == 4 and segments[:2] == ("v1", "releases"):
                action = segments[3]
                if action == "posterior":
                    allow("POST")
                    return (
                        "POST /v1/releases/{id}/posterior",
                        self._handle_posterior,
                    )
                if action == "assess":
                    allow("POST")
                    return (
                        "POST /v1/releases/{id}/assess",
                        self._handle_assess,
                    )
                if action == "chunks":
                    allow("POST")
                    return (
                        "POST /v1/releases/{uid}/chunks",
                        self._handle_ingest_chunk,
                    )
                if action == "finalize":
                    allow("POST")
                    return (
                        "POST /v1/releases/{uid}/finalize",
                        self._handle_ingest_finalize,
                    )
        except HttpError:
            raise
        return request.method + " " + request.path, None

    # -- simple endpoints ----------------------------------------------------

    async def _handle_root(self, request: HttpRequest) -> tuple[int, dict]:
        return 200, {
            "service": "privacy-maxent",
            "endpoints": [
                "GET /v1/healthz",
                "GET /v1/telemetry",
                "GET /metrics",
                "GET /v1/traces",
                "GET /v1/releases",
                "POST /v1/releases",
                "GET /v1/releases/uploads",
                "POST /v1/releases/uploads",
                "GET /v1/releases/uploads/{uid}",
                "DELETE /v1/releases/uploads/{uid}",
                "POST /v1/releases/{uid}/chunks",
                "POST /v1/releases/{uid}/finalize",
                "GET /v1/releases/{id}",
                "POST /v1/releases/{id}/posterior",
                "POST /v1/releases/{id}/assess",
            ],
        }

    async def _handle_healthz(self, request: HttpRequest) -> tuple[int, dict]:
        # Liveness alone is not health: when the admission queue is full
        # the service is answering 429s, and load balancers and cluster
        # coordinators doing health checks must see that backpressure
        # here rather than keep routing traffic at a saturated instance.
        queue = self.admission.snapshot()
        saturated = queue["depth"] >= queue["capacity"]
        if self._draining:
            # A draining instance still answers its established
            # connections, but load balancers must stop routing to it.
            status, verdict = 503, "draining"
        elif saturated:
            status, verdict = 503, "degraded"
        else:
            status, verdict = 200, "ok"
        return status, {
            "status": verdict,
            "uptime_seconds": self.telemetry.uptime_seconds,
            "releases": len(self.store),
            "queue": queue,
        }

    async def _handle_telemetry(self, request: HttpRequest) -> tuple[int, dict]:
        return 200, {
            "status": "ok",
            "service": self.telemetry.snapshot(),
            "queue": self.admission.snapshot(),
            "coalescing": {
                "started": self.coalescer.started,
                "coalesced": self.coalescer.coalesced,
                "inflight": self.coalescer.inflight,
            },
            "batching": self.batcher.snapshot(),
            "ingest": self.ingest.snapshot(),
            "engine": self.engine.stats(),
            "store": self.store.snapshot(),
            "events": self.events.snapshot(limit=20),
            "durability": (
                self.durability.snapshot_counters()
                if self.durability is not None
                else None
            ),
        }

    # -- observability endpoints ---------------------------------------------

    def _metrics_builder(self) -> MetricsBuilder:
        """The Prometheus series for this instance (frontends extend this)."""
        builder = MetricsBuilder()
        builder.counter(
            "requests_total",
            self.telemetry.counters.get("requests_total", 0),
            help_text="HTTP requests served.",
        )
        for status, count in sorted(self.telemetry.status_counts.items()):
            builder.counter(
                "responses_total",
                count,
                {"status": str(status)},
                "HTTP responses by status code.",
            )
        for name, count in sorted(self.telemetry.counters.items()):
            if name == "requests_total":
                continue
            builder.counter(
                "service_events_total",
                count,
                {"event": name},
                "Service-level event counters.",
            )
        builder.gauge(
            "uptime_seconds",
            self.telemetry.uptime_seconds,
            help_text="Seconds since this service started.",
        )
        builder.gauge(
            "releases",
            len(self.store),
            help_text="Releases registered with this instance.",
        )
        queue = self.admission.snapshot()
        builder.gauge(
            "queue_depth", queue["depth"], help_text="Admitted solves waiting."
        )
        builder.gauge(
            "queue_capacity",
            queue["capacity"],
            help_text="Admission queue capacity.",
        )
        for endpoint, histogram in sorted(self.telemetry.endpoints.items()):
            builder.histogram(
                "request_duration_seconds",
                LATENCY_BOUNDS,
                histogram.counts,
                histogram.total_seconds,
                {"endpoint": endpoint},
                "Request latency by endpoint.",
            )
        for event, count in sorted(self.events.counts().items()):
            builder.counter(
                "service_recovery_events_total",
                count,
                {"event": event},
                "Durability and lifecycle events "
                "(journal_replayed, ingest_resumed, snapshot_written, "
                "deadline_shed, drain_started).",
            )
        if self.durability is not None:
            durable = self.durability.snapshot_counters()
            builder.counter(
                "durability_journal_records_total",
                durable["journal_records_appended"],
                help_text="Journal records fsync'd since this boot.",
            )
            builder.counter(
                "durability_journal_bytes_total",
                durable["journal_bytes_appended"],
                help_text="Journal bytes fsync'd since this boot.",
            )
            builder.counter(
                "durability_snapshots_written_total",
                durable["snapshots_written"],
                help_text="Atomic state snapshots written since this boot.",
            )
            builder.counter(
                "durability_replayed_records_total",
                durable["replayed_records"],
                help_text="Journal records replayed during boot recovery.",
            )
            builder.counter(
                "durability_torn_records_dropped_total",
                durable["torn_records_dropped"],
                help_text="Torn trailing journal records dropped at recovery.",
            )
            builder.gauge(
                "durability_records_since_snapshot",
                durable["records_since_snapshot"],
                help_text="Journal records appended since the last snapshot.",
            )
        self._engine_metrics_into(builder)
        return builder

    def _engine_metrics_into(self, builder: MetricsBuilder) -> None:
        """Engine series for ``/metrics`` (the sharded frontend swaps
        its idle local engine for per-shard fleet series here)."""
        engine_metrics(builder, self.engine.stats())

    async def _handle_metrics(
        self, request: HttpRequest
    ) -> tuple[int, TextResponse]:
        return 200, TextResponse(
            self._metrics_builder().render(), METRICS_CONTENT_TYPE
        )

    async def _handle_traces(self, request: HttpRequest) -> tuple[int, dict]:
        try:
            limit = int(request.query.get("limit", "20"))
        except ValueError as exc:
            raise HttpError(
                400, "limit must be an integer", code="bad_request"
            ) from exc
        slow_only = request.query.get("slow", "") in ("1", "true", "yes")
        tracer = get_tracer()
        return 200, {
            "enabled": tracer.enabled,
            "slow_threshold_seconds": tracer.slow_seconds,
            "sample_rate": tracer.sample_rate,
            "sampled_out": tracer.sampled_out,
            "traces": tracer.traces(limit=limit, slow_only=slow_only),
        }

    # -- the release registry ------------------------------------------------

    @staticmethod
    def _body_object(request: HttpRequest, allowed: tuple[str, ...]) -> dict:
        body = request.json()
        if body is None:
            body = {}
        if not isinstance(body, dict):
            raise HttpError(
                400, "request body must be a JSON object", code="bad_request"
            )
        unknown = set(body) - set(allowed)
        if unknown:
            raise HttpError(
                400,
                f"unknown request field(s): {sorted(unknown)}",
                code="bad_request",
            )
        return body

    async def _handle_list_releases(
        self, request: HttpRequest
    ) -> tuple[int, dict]:
        return 200, {"releases": self.store.list()}

    async def _handle_release(self, request: HttpRequest) -> tuple[int, dict]:
        record = self.store.get(request.segments[2])
        return 200, record.summary()

    def _guard_register_size(self, request: HttpRequest) -> None:
        """413 oversized one-shot registrations toward the chunked protocol.

        The global ``max_body_bytes`` cap protects the socket; this
        tighter cap protects the registration path specifically — a
        release too big to parse-and-index as one document must stream
        through ``POST /v1/releases/uploads`` + ``/chunks`` instead.
        """
        limit = self.config.register_max_bytes
        if limit and len(request.body) > limit:
            raise HttpError(
                413,
                f"registration body is {len(request.body)} bytes "
                f"(limit {limit}); use the chunked upload protocol instead "
                "(POST /v1/releases/uploads, then "
                "POST /v1/releases/{upload_id}/chunks and /finalize)",
                code="payload_too_large",
            )

    async def _handle_register(self, request: HttpRequest) -> tuple[int, dict]:
        self._guard_register_size(request)
        body = self._body_object(request, ("release", "original", "name"))
        release_payload = body.get("release")
        if release_payload is None:
            raise HttpError(
                400, "registration needs a 'release' object", code="bad_request"
            )
        loop = asyncio.get_running_loop()

        def build():
            digest = release_digest(release_payload)
            published = published_from_dict(release_payload)
            original = (
                table_from_dict(body["original"])
                if body.get("original") is not None
                else None
            )
            return digest, published, original

        digest, published, original = await loop.run_in_executor(None, build)
        assert self._register_lock is not None
        async with self._register_lock:
            record, created = await loop.run_in_executor(
                None,
                partial(
                    self.store.register_digest,
                    digest,
                    published,
                    name=body.get("name"),
                    original=original,
                ),
            )
            if self.durability is not None and (
                created or original is not None or body.get("name") is not None
            ):
                # Journaled under the register lock so journal order is
                # allocation order: replaying the journal hands out the
                # same release ids the crashed process already returned.
                await loop.run_in_executor(
                    None,
                    partial(
                        self.durability.record_register,
                        digest,
                        release_payload,
                        name=body.get("name"),
                        original_payload=body.get("original"),
                    ),
                )
        await self._maybe_snapshot()
        if created:
            self.telemetry.incr("releases_registered")
        summary = record.summary()
        summary["created"] = created
        return (201 if created else 200), summary

    async def _maybe_snapshot(self) -> None:
        """Snapshot + truncate when enough journal records accumulated.

        Called *after* handlers release the register lock (asyncio locks
        are not reentrant); re-checks under the lock so concurrent
        handlers cannot double-snapshot the same journal window.
        """
        if self.durability is None or not self.durability.should_snapshot():
            return
        assert self._register_lock is not None
        loop = asyncio.get_running_loop()
        async with self._register_lock:
            if not self.durability.should_snapshot():
                return
            path = await loop.run_in_executor(
                None, self.durability.write_snapshot, self.store, self.ingest
            )
        self.events.record("snapshot_written", path=path, reason="periodic")
        self.telemetry.incr("snapshots_written")

    # -- chunked (streaming) registration ------------------------------------

    async def _handle_ingest_begin(self, request: HttpRequest) -> tuple[int, dict]:
        body = self._body_object(request, ("schema", "name", "expect_digest"))
        schema_payload = body.get("schema")
        if schema_payload is None:
            raise HttpError(
                400,
                "a chunked upload needs the release 'schema' up front",
                code="bad_request",
            )
        session = self.ingest.begin(
            schema_payload,
            name=body.get("name"),
            expect_digest=body.get("expect_digest"),
        )
        if self.durability is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, self.durability.record_ingest_begin, session
            )
        self.telemetry.incr("ingest_uploads_started")
        return 201, {
            "upload_id": session.upload_id,
            "chunk_endpoint": f"/v1/releases/{session.upload_id}/chunks",
            "finalize_endpoint": f"/v1/releases/{session.upload_id}/finalize",
            "ttl_seconds": self.ingest.ttl_seconds,
        }

    async def _handle_ingest_chunk(self, request: HttpRequest) -> tuple[int, dict]:
        upload_id = request.segments[2]
        session = self.ingest.get(upload_id)
        body = self._body_object(request, ("seq", "buckets", "digest"))
        loop = asyncio.get_running_loop()
        journal = None
        if self.durability is not None:
            # Invoked by add_chunk under the session lock, after the
            # chunk validates but before it mutates the session — so the
            # journal's chunk order is exactly the order the digest
            # folded them in, even under concurrent posts.
            journal = partial(self.durability.record_ingest_chunk, upload_id)
        # Bucket parsing and digest folding are pure CPU over the chunk;
        # they run on a worker thread so a fat chunk cannot stall the
        # event loop under concurrent solve traffic.
        ack = await loop.run_in_executor(
            None,
            partial(
                session.add_chunk,
                body.get("seq"),
                body.get("buckets"),
                body.get("digest"),
                journal=journal,
            ),
        )
        await self._maybe_snapshot()
        self.telemetry.incr("ingest_chunks")
        if ack["duplicate"]:
            self.telemetry.incr("ingest_chunk_duplicates")
        return 200, ack

    async def _handle_ingest_finalize(
        self, request: HttpRequest
    ) -> tuple[int, dict]:
        session = self.ingest.get(request.segments[2])
        body = self._body_object(request, ("digest", "name"))
        loop = asyncio.get_running_loop()
        assert self._register_lock is not None
        async with self._register_lock:
            if session.finalized is not None:
                # Idempotent re-finalize: the registration already
                # happened; repeat the answer without rebuilding anything.
                summary = dict(session.finalized)
                summary["created"] = False
                summary["digest"] = session.release_digest
                return 200, summary
            digest, published = await loop.run_in_executor(
                None, partial(session.build, body.get("digest"))
            )
            record, created = await loop.run_in_executor(
                None,
                partial(
                    self.store.register_digest,
                    digest,
                    published,
                    name=body.get("name") or session.name,
                ),
            )
            if self.durability is not None:
                await loop.run_in_executor(
                    None,
                    partial(
                        self.durability.record_ingest_finalize,
                        session.upload_id,
                        digest,
                        name=body.get("name"),
                    ),
                )
        summary = record.summary()
        session.mark_registered(digest, summary)
        self.ingest.note_finalized()
        await self._maybe_snapshot()
        if created:
            self.telemetry.incr("releases_registered")
        self.telemetry.incr("ingest_uploads_finalized")
        summary = dict(summary)
        summary["created"] = created
        summary["digest"] = digest
        return (201 if created else 200), summary

    async def _handle_ingest_status(self, request: HttpRequest) -> tuple[int, dict]:
        session = self.ingest.get(request.segments[3])
        return 200, session.snapshot()

    async def _handle_ingest_abort(self, request: HttpRequest) -> tuple[int, dict]:
        upload_id = request.segments[3]
        ack = self.ingest.abort(upload_id)
        if self.durability is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, self.durability.record_ingest_abort, upload_id
            )
        self.telemetry.incr("ingest_uploads_aborted")
        return 200, ack

    async def _handle_list_uploads(self, request: HttpRequest) -> tuple[int, dict]:
        return 200, {"uploads": self.ingest.list(), **self.ingest.snapshot()}

    # -- the solve path ------------------------------------------------------

    async def _handle_posterior(self, request: HttpRequest) -> tuple[int, dict]:
        record = self.store.get(request.segments[2])
        body = self._body_object(request, ("statements", "config"))
        statements = statements_from_list(body.get("statements"))
        config = config_from_dict(body.get("config"))
        payload, served_from = await self._posterior_payload(
            record, statements, config, deadline=request.deadline
        )
        return 200, {
            "release_id": record.release_id,
            "served_from": served_from,
            **payload,
        }

    async def _posterior_payload(
        self, record, statements, config: MaxEntConfig, *, deadline=None
    ) -> tuple[dict, str]:
        """The cached/coalesced/solved posterior payload for one request."""
        loop = asyncio.get_running_loop()

        def prepare():
            system, n_rows, _, build_seconds = record.compiled_system(
                statements
            )
            fingerprint = self.engine.request_fingerprint(system, config)
            return system, n_rows, build_seconds, fingerprint

        system, n_rows, build_seconds, fingerprint = await loop.run_in_executor(
            None, prepare
        )
        if deadline is not None:
            deadline.check("compile")
        # The engine fingerprint identifies the *solution*; the response
        # additionally depends on the failure policy (raise vs return a
        # non-converged posterior), so that is part of the result key —
        # one client's lenient config must not answer a strict client.
        policy = (
            f"{int(config.raise_on_infeasible)}"
            f":{config.infeasibility_threshold!r}"
        )
        key = f"{record.release_id}:{fingerprint}:{policy}"
        cached = self.store.results.lookup(key)
        if cached is not None:
            return cached, "result-cache"
        # The request root span's context, captured here because the
        # engine solve runs on an executor thread where the contextvar
        # chain is gone — the engine parents its spans on this instead.
        trace_ctx = get_tracer().context()
        solve = lambda: self._solve_payload(  # noqa: E731
            record,
            system,
            n_rows,
            config,
            fingerprint,
            key,
            build_seconds,
            trace_ctx=trace_ctx,
            deadline=deadline,
        )

        async def compute():
            if n_rows == 0 and config.use_closed_form:
                # Closed-form requests are sub-millisecond reads: they
                # micro-batch with their peers instead of occupying (and
                # back-pressuring) solve slots.
                return await solve()
            # Coalesced joiners ride the *initiating* request's deadline:
            # the shared computation is only shed if nobody who started
            # it is still waiting, never because a late joiner was poor.
            return await self.admission.run(solve, deadline=deadline)

        payload, coalesced = await self.coalescer.run(key, compute)
        return payload, ("coalesced" if coalesced else "solve")

    async def _solve_payload(
        self,
        record,
        system,
        n_rows: int,
        config: MaxEntConfig,
        fingerprint: str,
        key: str,
        build_seconds: float = 0.0,
        *,
        trace_ctx: dict | None = None,
        deadline=None,
    ) -> dict:
        """Run one admitted solve (batched closed form or full engine)."""
        loop = asyncio.get_running_loop()
        if deadline is not None:
            # Last check before irreversible work: past this point the
            # solve runs to completion (and lands in the result cache)
            # even if the client's budget expires mid-iteration.
            deadline.check("solve")
        self.telemetry.incr("solves_started")
        if n_rows == 0 and config.use_closed_form:
            # No knowledge rows: Theorem 5's closed form, micro-batched
            # with whatever compatible requests are in flight.
            started = time.perf_counter()
            p = await self.batcher.compute(record.space)
            stats = SolverStats(
                solver="closed-form",
                iterations=0,
                seconds=time.perf_counter() - started,
                n_vars=record.space.n_vars,
                n_equalities=system.n_equalities,
                n_inequalities=system.n_inequalities,
                eq_residual=0.0,
                ineq_residual=0.0,
                converged=True,
                n_components=record.published.n_buckets,
            )
            solution = MaxEntSolution(record.space, p, stats)
        else:
            solution = await loop.run_in_executor(
                None,
                partial(
                    self.engine.solve,
                    record.space,
                    system,
                    config,
                    build_seconds=build_seconds,
                    trace_ctx=trace_ctx,
                ),
            )

        def package(result: MaxEntSolution) -> dict:
            posterior = PosteriorTable.from_solution(result)
            return {
                "posterior": posterior_to_dict(posterior),
                "stats": stats_to_dict(result.stats),
                "n_knowledge_rows": n_rows,
                "fingerprint": fingerprint,
            }

        payload = await loop.run_in_executor(None, package, solution)
        self.store.results.put(key, payload)
        self.telemetry.incr("solves_completed")
        return payload

    async def _handle_assess(self, request: HttpRequest) -> tuple[int, dict]:
        record = self.store.get(request.segments[2])
        body = self._body_object(
            request, ("bounds", "mining", "config", "exclude_sa")
        )
        raw_bounds = body.get("bounds")
        if not isinstance(raw_bounds, list) or not raw_bounds:
            raise HttpError(
                400,
                "assessment needs a non-empty 'bounds' list",
                code="bad_request",
            )
        bounds = [bound_from_dict(b) for b in raw_bounds]
        if not record.has_original:
            raise HttpError(
                409,
                f"release {record.release_id!r} was registered without its "
                "original table, so there is no ground truth to assess "
                "against; re-register with 'original'",
                code="no_original",
            )
        mining = mining_config_from_dict(body.get("mining"))
        config = config_from_dict(body.get("config"))
        exclude = frozenset(body.get("exclude_sa") or ())
        loop = asyncio.get_running_loop()
        rules = await loop.run_in_executor(None, record.rules, mining)

        async def one(bound) -> dict:
            statements = bound.statements(rules)
            payload, served_from = await self._posterior_payload(
                record, statements, config, deadline=request.deadline
            )

            def metrics() -> dict:
                posterior = posterior_from_dict(payload["posterior"])
                return {
                    "bound": bound.describe(),
                    "n_constraints": payload["n_knowledge_rows"],
                    "estimation_accuracy": estimation_accuracy(
                        record.truth, posterior
                    ),
                    "max_disclosure": max_disclosure(posterior, exclude=exclude),
                    "bayes_vulnerability": bayes_vulnerability(
                        posterior, exclude=exclude
                    ),
                    "effective_l": effective_l(posterior, exclude=exclude),
                    "expected_entropy_bits": expected_posterior_entropy(
                        posterior
                    ),
                    "stats": payload["stats"],
                    "served_from": served_from,
                }

            return await loop.run_in_executor(None, metrics)

        # Bounds fan out concurrently; shared components across their
        # growing knowledge sets meet again in the engine's solve cache.
        assessments = await asyncio.gather(*(one(bound) for bound in bounds))
        return 200, {
            "release_id": record.release_id,
            "assessments": list(assessments),
        }
