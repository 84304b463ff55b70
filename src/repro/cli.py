"""Command-line interface: ``privacy-maxent`` (or ``python -m repro``).

Subcommands cover the full workflow a data publisher runs:

- ``generate`` — write the Adult-shaped synthetic table to CSV,
- ``bucketize`` — anonymize a CSV into an l-diverse bucketization report,
- ``mine`` — show the strongest positive/negative association rules,
- ``assess`` — the Section 4.3 deliverable: a (bound, privacy score) table
  for a list of candidate Top-(K+, K-) bounds,
- ``figure`` — regenerate any of the paper's figures as tables + ASCII
  plots,
- ``serve`` — run the long-lived privacy-quantification service
  (:mod:`repro.service`) over a shared execution engine, or with
  ``--shards N`` the sharded multi-engine front-end (:mod:`repro.cluster`),
- ``shard-worker`` — run one cluster shard worker (an engine plus the
  shard wire-protocol endpoints a coordinator drives),
- ``ingest`` — stream a database table through a connector
  (:mod:`repro.data.connectors`), anonymize it chunk by chunk, and
  register it — against a running service via the chunked upload
  protocol, or into an embedded in-process store,
- ``workload`` — replay a seeded live-query mix (point / range /
  group-by / join-OLAP) against a release while the assumed adversary's
  background knowledge grows batch by batch,
- ``traces`` — fetch a running service's recent traces (``/v1/traces``)
  and render them as indented span trees.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.anonymize.anatomy import anatomize
from repro.core.privacy_maxent import assess
from repro.core.report import render_assessments
from repro.data.adult import load_adult_synthetic
from repro.data.io import write_csv
from repro.experiments.figures import (
    Figure5Config,
    Figure6Config,
    Figure7aConfig,
    Figure7bcConfig,
    figure5,
    figure6,
    figure7a,
    figure7bc,
)
from repro.knowledge.bounds import TopKBound
from repro.knowledge.mining import MiningConfig, mine_association_rules
from repro.maxent.config import EXECUTOR_NAMES, MaxEntConfig
from repro.utils.tabulate import render_table


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """Execution-engine knobs shared by every solving subcommand."""
    group = parser.add_argument_group("execution engine")
    group.add_argument(
        "--executor",
        choices=EXECUTOR_NAMES,
        default=None,
        help="where decomposed components are solved",
    )
    group.add_argument(
        "--cache-size",
        type=int,
        default=None,
        help="bound of the component solve cache (0 disables)",
    )
    group.add_argument(
        "--cluster-workers",
        default=None,
        help=(
            "host:port,host:port shard workers for --executor cluster "
            "(default: the REPRO_CLUSTER_WORKERS environment variable)"
        ),
    )
    group.add_argument(
        "--replay",
        choices=("tolerance", "bitwise"),
        default=None,
        help=(
            "solve-result contract: 'tolerance' (default) lets the batched "
            "path trade bit-identity for speed; 'bitwise' forces the "
            "per-component path so replays are bit-identical"
        ),
    )
    group.add_argument(
        "--kernel",
        choices=("auto", "numpy", "numba"),
        default=None,
        help=(
            "segment-kernel backend of the batched solver: 'auto' "
            "(default) uses numba when installed, else the numpy reference"
        ),
    )


def _engine_overrides(args: argparse.Namespace) -> dict:
    """The MaxEntConfig overrides the engine flags imply (unset: keep)."""
    overrides = {}
    if args.executor is not None:
        overrides["executor"] = args.executor
    if args.cache_size is not None:
        overrides["cache_size"] = args.cache_size
    if getattr(args, "cluster_workers", None) is not None:
        overrides["cluster_workers"] = args.cluster_workers
    if getattr(args, "replay", None) is not None:
        overrides["replay"] = args.replay
    if getattr(args, "kernel", None) is not None:
        overrides["kernel"] = args.kernel
    return overrides


def _cmd_generate(args: argparse.Namespace) -> int:
    table = load_adult_synthetic(n_records=args.records, seed=args.seed)
    write_csv(table, args.output)
    print(f"wrote {table.n_rows} records to {args.output}")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    table = load_adult_synthetic(n_records=args.records, seed=args.seed)
    rules = mine_association_rules(
        table,
        MiningConfig(
            min_support_count=args.min_support,
            max_antecedent=args.max_antecedent,
        ),
    )
    print(
        f"mined {rules.n_positive} positive and {rules.n_negative} negative "
        f"rules (min support {args.min_support}, antecedent <= "
        f"{args.max_antecedent})"
    )
    for family, items in (("positive", rules.positive), ("negative", rules.negative)):
        print(f"\ntop {args.top} {family} rules:")
        for rule in items[: args.top]:
            print(f"  {rule.describe()}")
    return 0


def _cmd_bucketize(args: argparse.Namespace) -> int:
    table = load_adult_synthetic(n_records=args.records, seed=args.seed)
    published = anatomize(table, l=args.l, seed=args.seed)
    sizes = [bucket.size for bucket in published.buckets]
    print(
        f"bucketized {published.n_records} records into "
        f"{published.n_buckets} buckets (sizes {min(sizes)}..{max(sizes)}) "
        f"at distinct {args.l}-diversity"
    )
    return 0


def _cmd_assess(args: argparse.Namespace) -> int:
    table = load_adult_synthetic(n_records=args.records, seed=args.seed)
    published = anatomize(table, l=args.l, seed=args.seed)
    bounds = [TopKBound(k // 2, k - k // 2) for k in args.k]
    bounds.insert(0, TopKBound(0, 0))
    assessments = assess(
        table,
        published,
        bounds,
        mining=MiningConfig(max_antecedent=args.max_antecedent),
        config=MaxEntConfig(**_engine_overrides(args)),
    )
    print(
        render_assessments(
            assessments,
            title=(
                f"Privacy of {published.n_buckets} buckets "
                f"({args.records} records, {args.l}-diversity) under "
                "candidate knowledge bounds"
            ),
        )
    )
    return 0


def _cmd_utility(args: argparse.Namespace) -> int:
    from repro.core.privacy_maxent import PrivacyMaxEnt, baseline_posterior
    from repro.core.utility import query_workload, relative_query_error

    table = load_adult_synthetic(n_records=args.records, seed=args.seed)
    published = anatomize(table, l=args.l, seed=args.seed)
    queries = query_workload(
        table,
        n_queries=args.queries,
        n_qi_attributes=args.qi_attributes,
        min_true_count=args.min_count,
        seed=args.seed,
    )
    rows = []
    baseline = baseline_posterior(published)
    report = relative_query_error(table, published, baseline, queries)
    rows.append(["no knowledge"] + report.row())
    if args.k:
        rules = mine_association_rules(
            table, MiningConfig(max_antecedent=args.max_antecedent)
        )
        config = MaxEntConfig(**_engine_overrides(args))
        for k in args.k:
            bound = TopKBound(k // 2, k - k // 2)
            engine = PrivacyMaxEnt(
                published, knowledge=bound.statements(rules), config=config
            )
            report = relative_query_error(
                table, published, engine.posterior(), queries
            )
            rows.append([bound.describe()] + report.row())
    print(
        render_table(
            ["posterior", "queries", "mean rel. error", "median", "worst"],
            rows,
            title="Aggregate-query utility of the release",
        )
    )
    return 0


def _with_engine(config, args: argparse.Namespace):
    """Apply the CLI's engine flags to a figure config's solver settings."""
    overrides = _engine_overrides(args)
    if not overrides:
        return config
    return dataclasses.replace(
        config, solver=dataclasses.replace(config.solver, **overrides)
    )


def _cmd_figure(args: argparse.Namespace) -> int:
    name = args.name.lower()
    if name == "5":
        config = _with_engine(Figure5Config(n_records=args.records), args)
        print(figure5(config).render())
    elif name == "6":
        config = _with_engine(Figure6Config(n_records=args.records), args)
        print(figure6(config).render())
    elif name == "7a":
        config = _with_engine(Figure7aConfig(n_records=args.records), args)
        print(figure7a(config).render())
    elif name in ("7b", "7c", "7bc"):
        time_result, iteration_result = figure7bc(
            _with_engine(Figure7bcConfig(), args)
        )
        if name in ("7b", "7bc"):
            print(time_result.render())
        if name in ("7c", "7bc"):
            print(iteration_result.render())
    else:
        print(f"unknown figure {args.name!r}; choose 5, 6, 7a, 7b, 7c", file=sys.stderr)
        return 2
    return 0


def _add_logging_args(parser: argparse.ArgumentParser) -> None:
    """Structured-logging knobs shared by the long-running commands."""
    group = parser.add_argument_group("logging")
    group.add_argument(
        "--log-format",
        choices=("text", "json"),
        default="text",
        help=(
            "stderr log format: human-readable text (default) or one "
            "JSON object per line (trace ids ride every record)"
        ),
    )
    group.add_argument(
        "--log-level",
        default=None,
        help="log level (default: REPRO_LOG_LEVEL, else INFO)",
    )


def _shard_worker_args(args: argparse.Namespace) -> list[str]:
    """CLI flags to replicate this serve command's engine on each shard."""
    forwarded: list[str] = []
    if args.cache_size is not None:
        forwarded += ["--cache-size", str(args.cache_size)]
    forwarded += ["--queue-size", str(args.queue_size)]
    if args.max_concurrency is not None:
        forwarded += ["--max-concurrency", str(args.max_concurrency)]
    forwarded += ["--log-format", args.log_format]
    if args.log_level is not None:
        forwarded += ["--log-level", args.log_level]
    return forwarded


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.logging import configure_logging, get_logger
    from repro.service.server import PrivacyService, ServiceConfig

    configure_logging(args.log_format, level=args.log_level)
    # --accept-joins alone (no spawned shards, no addresses) serves an
    # initially-empty elastic fleet; on an already-sharded serve, joins
    # default on and --no-accept-joins pins the fleet static.
    accept_joins = args.accept_joins is not False
    sharded = bool(
        args.shards > 0 or args.shard_address or args.accept_joins
    )
    engine_config = MaxEntConfig(
        **_engine_overrides(args),
        # In sharded mode the workers own the solve caches; the
        # front-end engine stays a cold default.
        cache_path=None if sharded else args.cache_path,
    )
    from repro.service.durability import DEFAULT_SNAPSHOT_EVERY

    service_config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        max_queue=args.queue_size,
        batch_window_seconds=args.batch_window,
        result_cache_size=args.result_cache_size,
        state_dir=args.state_dir,
        snapshot_every=(
            args.snapshot_every
            if args.snapshot_every is not None
            else DEFAULT_SNAPSHOT_EVERY
        ),
        drain_timeout=args.drain_timeout,
        engine=engine_config,
    )
    if sharded:
        from repro.cluster import (
            ClusterCoordinator,
            MembershipConfig,
            ShardedFrontend,
        )

        if args.shard_address:
            coordinator = ClusterCoordinator.attach(args.shard_address)
        elif args.shards > 0:
            coordinator = ClusterCoordinator.spawn_local(
                args.shards,
                worker_args=_shard_worker_args(args),
                cache_path=args.cache_path,
            )
        else:
            # An empty elastic fleet: workers dial in with
            # `repro shard-worker --join`.
            coordinator = ClusterCoordinator([], allow_empty=True)
        get_logger("cli").info(
            f"shard fleet: {', '.join(coordinator.router.worker_ids) or '(awaiting joins)'}",
            extra={"fields": {"shards": list(coordinator.router.worker_ids)}},
        )
        membership = MembershipConfig.from_env(
            heartbeat_interval=args.heartbeat_interval,
            liveness_timeout=args.liveness_timeout,
            replication=args.replication,
        )
        try:
            service = ShardedFrontend(
                service_config,
                coordinator=coordinator,
                forward_timeout=args.forward_timeout,
                health_timeout=args.health_timeout,
                membership=membership,
                accept_joins=accept_joins,
            )
            service.run()
        finally:
            # Idempotent after a clean run (service.close() already shut
            # the fleet down); load-bearing when construction or bind
            # fails — spawned shard workers must not outlive a front-end
            # that never served.
            coordinator.shutdown()
    else:
        service = PrivacyService(service_config)
        service.run()
    return 0


def _cmd_shard_worker(args: argparse.Namespace) -> int:
    from repro.cluster.membership import (
        DEFAULT_HEARTBEAT_INTERVAL,
        load_or_create_identity,
        parse_worker_address,
    )
    from repro.cluster.retry import cluster_env_float
    from repro.cluster.worker import ShardWorker
    from repro.obs.logging import configure_logging
    from repro.service.server import ServiceConfig

    configure_logging(args.log_format, level=args.log_level)
    engine_config = MaxEntConfig(
        **_engine_overrides(args),
        cache_path=args.cache_path,
    )
    worker_id = args.worker_id
    if args.identity_file:
        worker_id = load_or_create_identity(
            args.identity_file, explicit=args.worker_id
        )
    join_targets = [
        parse_worker_address(target)[1:] for target in args.join
    ]
    heartbeat_interval = (
        args.heartbeat_interval
        if args.heartbeat_interval is not None
        else cluster_env_float(
            "HEARTBEAT_INTERVAL", DEFAULT_HEARTBEAT_INTERVAL
        )
    )
    worker = ShardWorker(
        ServiceConfig(
            host=args.host,
            port=args.port,
            max_concurrency=args.max_concurrency,
            max_queue=args.queue_size,
            engine=engine_config,
        ),
        worker_id=worker_id,
        join=join_targets,
        heartbeat_interval=heartbeat_interval,
    )
    worker.run()
    return 0


def _bucket_payloads(published) -> list[dict]:
    """Wire-form bucket dicts of one anonymized chunk, in bucket order."""
    return [
        {
            "qi_tuples": [list(q) for q in bucket.qi_tuples],
            "sa_values": list(bucket.sa_values),
        }
        for bucket in published.buckets
    ]


def _open_connector(args: argparse.Namespace):
    """The source connector the ingest flags describe."""
    from repro.data.connectors import SQLiteConnector, connect_postgres

    qi = tuple(args.qi)
    if args.postgres:
        return connect_postgres(
            args.source,
            args.table,
            qi=qi,
            sa=args.sa,
            key_column=args.key_column or "id",
            null_label=args.null_label,
        )
    return SQLiteConnector(
        args.source,
        args.table,
        qi=qi,
        sa=args.sa,
        key_column=args.key_column or "rowid",
        null_label=args.null_label,
    )


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.errors import ReproError

    try:
        connector = _open_connector(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    with connector:
        try:
            schema = connector.schema()
            total_rows = connector.row_count()
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(
            f"source: {args.table!r} ({total_rows} rows, "
            f"qi={list(args.qi)}, sa={args.sa!r})"
        )

        def anonymized_chunks():
            for seq, chunk in enumerate(connector.chunks(args.chunk_rows)):
                published = anatomize(
                    chunk.to_table(schema), l=args.l, seed=args.seed
                )
                yield seq, len(chunk.rows), _bucket_payloads(published)

        try:
            if args.embedded:
                summary = _ingest_embedded(args, schema, anonymized_chunks())
            else:
                summary = _ingest_service(args, schema, anonymized_chunks())
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(
        f"registered release {summary['release_id']!r}: "
        f"{summary['n_records']} records in {summary['n_buckets']} buckets "
        f"(digest {summary['digest'][:16]}…)"
    )
    return 0


def _ingest_service(args, schema, chunks) -> dict:
    """Stream anonymized chunks into a running service; returns summary."""
    from repro.core.serialize import schema_to_dict
    from repro.service.client import ServiceClient

    with ServiceClient(args.host, args.port, timeout=args.timeout) as client:
        upload_id = client.begin_upload(
            schema_to_dict(schema), name=args.name
        )
        sent = 0
        for seq, n_rows, buckets in chunks:
            client.upload_chunk(upload_id, seq, buckets)
            sent += n_rows
            print(f"  chunk {seq}: {n_rows} rows -> {len(buckets)} buckets")
        result = client.finalize_upload(upload_id, name=args.name)
    return result


def _ingest_embedded(args, schema, chunks) -> dict:
    """Accumulate chunks through the in-process ingest machinery."""
    from repro.core.serialize import schema_to_dict
    from repro.service.ingest import IngestSession, chunk_digest
    from repro.service.store import SessionStore

    session = IngestSession(
        "cli-embedded", schema_to_dict(schema), name=args.name
    )
    for seq, n_rows, buckets in chunks:
        session.add_chunk(seq, buckets, chunk_digest(buckets))
        print(f"  chunk {seq}: {n_rows} rows -> {len(buckets)} buckets")
    digest, published = session.build(None)
    store = SessionStore()
    record, _created = store.register_digest(
        digest, published, name=args.name
    )
    summary = record.summary()
    summary["digest"] = digest
    return summary


def _cmd_workload(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ReproError
    from repro.workload import (
        EmbeddedBackend,
        ServiceBackend,
        WorkloadConfig,
        WorkloadDriver,
    )

    config = WorkloadConfig(
        n_batches=args.batches,
        queries_per_batch=args.queries_per_batch,
        knowledge_step=args.knowledge_step,
        epsilon=args.epsilon,
        seed=args.seed,
    )
    rules = None
    client = None
    if args.release:
        if args.knowledge_step > 0:
            print(
                "error: service-mode workloads cannot mine rules from the "
                "remote release; pass --knowledge-step 0 for a "
                "knowledge-free (throughput) replay",
                file=sys.stderr,
            )
            return 2
        from repro.service.client import ServiceClient

        client = ServiceClient(args.host, args.port, timeout=args.timeout)
        backend = ServiceBackend(client, args.release)
    else:
        from repro.experiments.workloads import build_adult_workload

        workload = build_adult_workload(
            n_records=args.records, l=args.l, seed=args.seed
        )
        rules = workload.rules
        backend = EmbeddedBackend(
            workload.published,
            config=MaxEntConfig(**_engine_overrides(args)),
        )
    try:
        report = WorkloadDriver(backend, rules=rules, config=config).run()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        backend.close()
        if client is not None:
            client.close()

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote workload report to {args.output}")
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    rows = [
        [
            batch["batch"],
            batch["k_rules"],
            f"{batch['solve_seconds']:.3f}",
            batch["served_from"],
            f"{batch['max_disclosure']:.4f}",
            f"{batch['effective_l']:.2f}",
            f"{batch['attacker']['coverage']:.3f}",
            f"{batch['attacker']['peak_disclosure']:.4f}",
        ]
        for batch in report["batches"]
    ]
    print(
        render_table(
            [
                "batch",
                "K rules",
                "solve s",
                "served",
                "max discl.",
                "eff. l",
                "coverage",
                "atk peak",
            ],
            rows,
            title=(
                f"Workload over {report['n_qi_tuples']} QI tuples: "
                f"{report['total_queries']} queries in "
                f"{len(report['batches'])} batches"
            ),
        )
    )
    shape_rows = [
        [
            shape,
            stats["count"],
            f"{stats['mean_seconds'] * 1e3:.3f}",
            f"{stats['p95_seconds'] * 1e3:.3f}",
        ]
        for shape, stats in report["shapes"].items()
    ]
    print()
    print(
        render_table(
            ["shape", "queries", "mean ms", "p95 ms"],
            shape_rows,
            title="Query latency by shape",
        )
    )
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    from repro.obs.trace import format_trace
    from repro.service.client import ServiceClient

    with ServiceClient(args.host, args.port, timeout=args.timeout) as client:
        payload = client.traces(limit=args.limit, slow_only=args.slow)
    traces = payload.get("traces", [])
    if not payload.get("enabled", True):
        print("tracing is disabled on the service (REPRO_TRACE=0)")
    if not traces:
        print("no finished traces retained")
        return 0
    for trace in traces:
        print(format_trace(trace))
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="privacy-maxent",
        description=(
            "Privacy-MaxEnt (SIGMOD 2008): quantify P(SA|QI) for bucketized "
            "releases under background knowledge"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="write the synthetic Adult CSV")
    generate.add_argument("output", help="destination CSV path")
    generate.add_argument("--records", type=int, default=14210)
    generate.add_argument("--seed", type=int, default=20080609)
    generate.set_defaults(func=_cmd_generate)

    mine = sub.add_parser("mine", help="show the strongest association rules")
    mine.add_argument("--records", type=int, default=2000)
    mine.add_argument("--seed", type=int, default=20080609)
    mine.add_argument("--min-support", type=int, default=3)
    mine.add_argument("--max-antecedent", type=int, default=3)
    mine.add_argument("--top", type=int, default=10)
    mine.set_defaults(func=_cmd_mine)

    bucketize = sub.add_parser("bucketize", help="anonymize and report")
    bucketize.add_argument("--records", type=int, default=2000)
    bucketize.add_argument("--seed", type=int, default=20080609)
    bucketize.add_argument("-l", type=int, default=5)
    bucketize.set_defaults(func=_cmd_bucketize)

    assess_cmd = sub.add_parser(
        "assess", help="(bound, privacy score) table for candidate bounds"
    )
    assess_cmd.add_argument("--records", type=int, default=1500)
    assess_cmd.add_argument("--seed", type=int, default=20080609)
    assess_cmd.add_argument("-l", type=int, default=5)
    assess_cmd.add_argument("--max-antecedent", type=int, default=2)
    assess_cmd.add_argument(
        "--k",
        type=int,
        nargs="+",
        default=[50, 200, 800],
        help="total rule counts to assess (split half positive, half negative)",
    )
    _add_engine_args(assess_cmd)
    assess_cmd.set_defaults(func=_cmd_assess)

    utility = sub.add_parser(
        "utility", help="aggregate-query utility of a release"
    )
    utility.add_argument("--records", type=int, default=1000)
    utility.add_argument("--seed", type=int, default=20080609)
    utility.add_argument("-l", type=int, default=5)
    utility.add_argument("--queries", type=int, default=40)
    utility.add_argument("--qi-attributes", type=int, default=1)
    utility.add_argument("--min-count", type=int, default=5)
    utility.add_argument("--max-antecedent", type=int, default=2)
    utility.add_argument(
        "--k",
        type=int,
        nargs="*",
        default=[],
        help="optionally also score knowledge-informed posteriors",
    )
    _add_engine_args(utility)
    utility.set_defaults(func=_cmd_utility)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name", help="5, 6, 7a, 7b or 7c")
    figure.add_argument("--records", type=int, default=1200)
    _add_engine_args(figure)
    figure.set_defaults(func=_cmd_figure)

    serve = sub.add_parser(
        "serve", help="run the long-lived privacy-quantification service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8711)
    serve.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="admitted-but-waiting solves before backpressure (429)",
    )
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=None,
        help="solves running at once (default: engine worker count)",
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.002,
        help="micro-batching window for closed-form requests (seconds)",
    )
    serve.add_argument(
        "--result-cache-size",
        type=int,
        default=256,
        help="finished-response LRU entries",
    )
    serve.add_argument(
        "--cache-path",
        default=None,
        help=(
            "persist the engine solve cache here (warm restarts); with "
            "--shards each worker gets a per-shard '<path>.shardN' file "
            "(spawned workers carry stable 'shardN' identities, so a "
            "restarted fleet keeps its routing and cache warmth even "
            "though every port changed)"
        ),
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        help=(
            "serve durably: journal release registrations and chunked-"
            "upload transitions to this directory (crash-safe, fsync'd) "
            "with periodic atomic snapshots, so a killed server recovers "
            "its releases and resumes in-flight uploads on restart"
        ),
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        help=(
            "journal records between snapshot+truncate cycles "
            "(default: 64; only meaningful with --state-dir)"
        ),
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help=(
            "seconds a SIGTERM drain waits for in-flight solves before "
            "the final snapshot and exit (default: 30)"
        ),
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        help=(
            "spawn N local shard workers and serve through the sharded "
            "front-end (releases partitioned across worker engines)"
        ),
    )
    serve.add_argument(
        "--shard-address",
        action="append",
        default=[],
        metavar="[ID@]HOST:PORT",
        help=(
            "attach to an already-running `repro shard-worker` instead of "
            "spawning locally (repeatable; an id@ prefix gives the worker "
            "a stable routing identity that survives respawns)"
        ),
    )
    serve.add_argument(
        "--accept-joins",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "accept workers dialing in via `repro shard-worker --join` "
            "(default: on for sharded serves; alone, serves an "
            "initially-empty elastic fleet; --no-accept-joins pins a "
            "sharded fleet static)"
        ),
    )
    serve.add_argument(
        "--forward-timeout",
        type=float,
        default=None,
        help=(
            "per-forward HTTP timeout in seconds (default: "
            "REPRO_CLUSTER_FORWARD_TIMEOUT, else 600)"
        ),
    )
    serve.add_argument(
        "--health-timeout",
        type=float,
        default=None,
        help=(
            "per-worker health probe timeout in seconds (default: "
            "REPRO_CLUSTER_HEALTH_TIMEOUT, else 2)"
        ),
    )
    serve.add_argument(
        "--replication",
        type=int,
        default=None,
        help=(
            "register each release on its top-K rendezvous owners "
            "(default: REPRO_CLUSTER_REPLICATION, else 2)"
        ),
    )
    serve.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        help=(
            "expected worker heartbeat cadence in seconds (default: "
            "REPRO_CLUSTER_HEARTBEAT_INTERVAL, else 2)"
        ),
    )
    serve.add_argument(
        "--liveness-timeout",
        type=float,
        default=None,
        help=(
            "heartbeat silence before a joined worker is marked dead "
            "(default: REPRO_CLUSTER_LIVENESS_TIMEOUT, else 3x the "
            "heartbeat interval)"
        ),
    )
    _add_engine_args(serve)
    _add_logging_args(serve)
    serve.set_defaults(func=_cmd_serve)

    shard_worker = sub.add_parser(
        "shard-worker",
        help="run one cluster shard worker (engine + shard endpoints)",
    )
    shard_worker.add_argument("--host", default="127.0.0.1")
    shard_worker.add_argument("--port", type=int, default=0)
    shard_worker.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="admitted-but-waiting solves before backpressure (429)",
    )
    shard_worker.add_argument(
        "--max-concurrency",
        type=int,
        default=None,
        help="solves running at once (default: engine worker count)",
    )
    shard_worker.add_argument(
        "--cache-path",
        default=None,
        help="persist this shard's solve cache here (warm restarts)",
    )
    shard_worker.add_argument(
        "--worker-id",
        default=None,
        help=(
            "stable routing identity (default: the identity file's "
            "content, else host:port); a respawn announcing the same id "
            "reclaims its rendezvous slot instead of re-routing keys"
        ),
    )
    shard_worker.add_argument(
        "--identity-file",
        default=None,
        help=(
            "persist the worker identity here: generated on first start, "
            "reused on respawn (an explicit --worker-id is written through)"
        ),
    )
    shard_worker.add_argument(
        "--join",
        action="append",
        default=[],
        metavar="HOST:PORT",
        help=(
            "dial this front-end at startup (POST /shard/v1/join) and "
            "heartbeat it (repeatable)"
        ),
    )
    shard_worker.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        help=(
            "seconds between heartbeats to --join targets (default: "
            "REPRO_CLUSTER_HEARTBEAT_INTERVAL, else 2)"
        ),
    )
    _add_engine_args(shard_worker)
    _add_logging_args(shard_worker)
    shard_worker.set_defaults(func=_cmd_shard_worker)

    ingest = sub.add_parser(
        "ingest",
        help="stream a database table into a registered release",
        description=(
            "Open a connector on a database table, discover its schema, "
            "anonymize it chunk by chunk (Anatomy, l-diversity), and "
            "register the result — through the service's chunked upload "
            "protocol, or into an embedded in-process store with "
            "--embedded.  Memory stays bounded by the chunk size; the "
            "full table is never materialized."
        ),
    )
    ingest.add_argument(
        "source",
        help="SQLite database path (or a DSN with --postgres)",
    )
    ingest.add_argument(
        "--table", default="records", help="source table name"
    )
    ingest.add_argument(
        "--qi",
        nargs="+",
        required=True,
        help="quasi-identifier column names, in order",
    )
    ingest.add_argument(
        "--sa", required=True, help="sensitive-attribute column name"
    )
    ingest.add_argument(
        "--key-column",
        default=None,
        help=(
            "unique pagination key (default: rowid for SQLite, id for "
            "--postgres)"
        ),
    )
    ingest.add_argument(
        "--null-label",
        default=None,
        help="label for NULLs (default: NULLs are an error)",
    )
    ingest.add_argument(
        "--postgres",
        action="store_true",
        help=(
            "treat SOURCE as a PostgreSQL DSN (needs the optional "
            "repro[postgres] extra)"
        ),
    )
    ingest.add_argument(
        "--chunk-rows",
        type=int,
        default=50_000,
        help="rows fetched, anonymized and uploaded per chunk",
    )
    ingest.add_argument("-l", type=int, default=5, help="l-diversity target")
    ingest.add_argument("--seed", type=int, default=20080609)
    ingest.add_argument("--name", default=None, help="release name")
    ingest.add_argument(
        "--embedded",
        action="store_true",
        help="register in-process instead of against a running service",
    )
    ingest.add_argument("--host", default="127.0.0.1")
    ingest.add_argument("--port", type=int, default=8711)
    ingest.add_argument("--timeout", type=float, default=120.0)
    ingest.set_defaults(func=_cmd_ingest)

    workload = sub.add_parser(
        "workload",
        help="replay a seeded live-query mix against a release",
        description=(
            "Replay batches of a seeded query mix (point / range / "
            "group-by / join-OLAP) against a release's posterior while "
            "the assumed adversary gains mined rules each batch, and "
            "report the privacy trajectory: posterior bounds, query "
            "latency by shape, and the attacker's accumulated view."
        ),
    )
    workload.add_argument(
        "--release",
        default=None,
        help=(
            "replay against this release id on a running service "
            "(default: build an embedded synthetic release)"
        ),
    )
    workload.add_argument("--host", default="127.0.0.1")
    workload.add_argument("--port", type=int, default=8711)
    workload.add_argument("--timeout", type=float, default=120.0)
    workload.add_argument(
        "--records",
        type=int,
        default=600,
        help="synthetic records for the embedded release",
    )
    workload.add_argument("-l", type=int, default=3, help="l-diversity target")
    workload.add_argument("--batches", type=int, default=6)
    workload.add_argument("--queries-per-batch", type=int, default=32)
    workload.add_argument(
        "--knowledge-step",
        type=int,
        default=2,
        help="mined rules the adversary gains per batch (0: knowledge-free)",
    )
    workload.add_argument(
        "--epsilon",
        type=float,
        default=0.0,
        help="vagueness radius for the adversary's rules",
    )
    workload.add_argument("--seed", type=int, default=20080609)
    workload.add_argument(
        "--json", action="store_true", help="print the full JSON report"
    )
    workload.add_argument(
        "--output", default=None, help="also write the JSON report here"
    )
    _add_engine_args(workload)
    workload.set_defaults(func=_cmd_workload)

    traces = sub.add_parser(
        "traces",
        help="fetch and render a running service's recent traces",
    )
    traces.add_argument("--host", default="127.0.0.1")
    traces.add_argument("--port", type=int, default=8711)
    traces.add_argument(
        "--limit", type=int, default=10, help="traces to fetch (most recent)"
    )
    traces.add_argument(
        "--slow",
        action="store_true",
        help="only traces at or above the service's slow threshold",
    )
    traces.add_argument("--timeout", type=float, default=10.0)
    traces.set_defaults(func=_cmd_traces)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
