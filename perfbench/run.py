"""The repository's benchmark: one command, three workloads, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload audit_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the seven end-to-end metrics; ``--trace 1`` runs
untraced and traced blocks alternately and prints the per-layer metrics
(span means per op, plus the tracing overhead).  The last stdout line is
the JSON result; a fuller record with host provenance is written under
``perfbench/results/``.  See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("audit_sweep", "worst_case_cold", "service_mixed")
#: Traced runs alternate untraced and traced blocks of about this length,
#: so drift (cache warm-up, host noise) falls on both sides alike.
TRACE_BLOCK_SECONDS = 5.0
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs (the self-tests)"
    )
    return parser.parse_args(argv)


def _make_workload(name: str, seed: int, seconds: float, tiny: bool):
    if name == "service_mixed":
        from service import ServiceMixed

        return ServiceMixed(seed, seconds, tiny=tiny)
    from embedded import AuditSweep, WorstCaseCold

    cls = AuditSweep if name == "audit_sweep" else WorstCaseCold
    return cls(seed, tiny=tiny)


def _blocks(seconds: float, traced: bool) -> list[tuple[bool, float]]:
    """(traced?, seconds) per block: one block, or U,T,U,T,... pairs."""
    if not traced:
        return [(False, seconds)]
    pairs = max(1, round(seconds / (2 * TRACE_BLOCK_SECONDS)))
    share = seconds / (2 * pairs)
    return [(flag, share) for _ in range(pairs) for flag in (False, True)]


def run(argv=None) -> dict:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC}; run from a checkout")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # One BLAS thread per process: an idle helper thread spinning beside
    # the solver doubled CPU time and made it depend on scheduling luck,
    # at no gain in latency.  Set before numpy loads; the server inherits it.
    for key in BLAS_THREAD_VARIABLES:
        os.environ[key] = "1"
    sys.path.insert(0, str(SRC))

    import harness
    import spans as span_module

    workload = _make_workload(args.workload, args.seed, args.seconds, args.tiny)
    recorder = span_module.Recorder() if args.trace else None
    state = harness.LoopState()
    blocks = []
    try:
        saved = span_module.install(recorder, workload.hooks()) if recorder else []
        setup_times = []
        try:
            for rep in range(workload.setup_reps):
                if rep:
                    workload.discard_setup()
                started = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - started)
        finally:
            span_module.uninstall(saved)
        setup_spans = list(recorder.spans) if recorder else []
        if recorder:
            recorder.spans.clear()
        # Set-up probes only where setup_s is reported: untraced runs.
        probe_every = None if args.trace else workload.setup_probe_every
        for traced, share in _blocks(args.seconds, bool(args.trace)):
            saved = span_module.install(recorder, workload.hooks()) if traced else []
            try:
                blocks.append(
                    harness.run_block(
                        workload,
                        share,
                        state,
                        recorder if traced else None,
                        probe_every,
                    )
                )
            finally:
                span_module.uninstall(saved)
        setup_times += [t for block in blocks for t in block.setup_probes]
        peak_rss = workload.peak_rss_mb()
        started = time.perf_counter()
        failures = dict(workload.verify())
        verify_seconds = time.perf_counter() - started
        kernel = workload.kernel_backend()
    finally:
        workload.close()

    for block in blocks:
        for record in block.records:
            if record.op_id in failures and record.ok:
                record.ok = False
                record.error = f"post-run check: {failures[record.op_id]}"
    records = [r for b in blocks for r in b.records]
    attempted = len(records)
    failed = sum(1 for r in records if not r.ok)
    if not attempted:
        raise SystemExit("error: the run attempted no op")

    if args.trace:
        summary = span_module.summarize(recorder.spans, workload.inner_seconds)
        untraced = harness.ops_per_second([b for b in blocks if not b.traced])
        traced_rate = harness.ops_per_second([b for b in blocks if b.traced])
        measured = workload.layer_metrics(summary, setup_spans, blocks)
        measured["unattributed_ms"] = (summary["unattributed_ms"], "ms")
        measured["bench.trace_overhead_pct"] = (
            (untraced - traced_rate) / untraced * 100.0 if untraced else 0.0,
            "%",
        )
        # Every per-layer name appears on every workload; a layer the
        # workload never enters reads 0 (no time, no count).
        catalogue = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        layers = {m["name"]: m["unit"] for m in catalogue["per_layer"]}
        unknown = set(measured) - set(layers)
        if unknown:
            raise SystemExit(f"error: metrics missing from BENCHMARK.json: {unknown}")
        metrics = {
            name: measured.get(name, (0.0, unit)) for name, unit in layers.items()
        }
    else:
        summary = None
        metrics = harness.end_to_end(blocks, setup_times, peak_rss)

    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "provenance": harness.provenance(args.seed, kernel),
        "attempted": attempted,
        "failed": failed,
        "samples_beyond_p95": harness.beyond_p95(blocks),
        "ops_by_class": dict(sorted(Counter(r.op_class for r in records).items())),
        "setup_seconds": setup_times,
        "verify_seconds": verify_seconds,
        "errors": sorted({r.error for r in records if r.error})[:20],
        **workload.extra_detail(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if summary is not None:
        detail["layer_self_ms"] = summary["self_ms"]
        detail["layer_total_ms"] = summary["total_ms"]
        detail["traced_ops"] = summary["ops"]
    harness.RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (harness.RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=2))
    if recorder:
        recorder.dump(harness.RESULTS / f"{stem}-spans.jsonl")

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{attempted} ops, {failed} failed, "
        f"{detail['samples_beyond_p95']} samples beyond p95, "
        f"ops by class {detail['ops_by_class']}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for error in detail["errors"]:
        print(f"  error: {error}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": detail["metrics"],
    }


def main(argv=None) -> int:
    result = run(argv)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
