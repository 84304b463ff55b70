"""Closed-loop runner, statistics and provenance shared by every workload.

A workload object supplies the program set-up, a seeded stream of ops and
the post-run output checks; this module times them.  Nothing here knows
which workload it runs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import resource
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
#: Added to ``error_rate`` so that it is never 0.
ERROR_RATE_FLOOR = 1e-6


class CheckFailed(Exception):
    """An op returned, but its output failed the benchmark's check."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


def rows_sum_to_one(posterior) -> bool:
    """Every row of a posterior table is a distribution (to 1e-6)."""
    return bool(np.allclose(posterior.matrix.sum(axis=1), 1.0, atol=1e-6))


@dataclass
class OpRecord:
    """One attempted op: its class, latency and verdict."""

    op_id: int
    caller: int
    op_class: str
    latency: float
    ok: bool
    error: str | None = None


@dataclass
class Block:
    """One closed-loop measuring window (traced or not)."""

    traced: bool
    records: list[OpRecord]
    #: Per caller: seconds from the block start to that caller's last op end,
    #: minus the seconds it spent generating op inputs.
    busy_seconds: list[float]
    #: Process CPU seconds spent inside the window, input generation excluded
    #: (plus the server's CPU for the service workload).
    cpu_seconds: float
    #: Seconds of each set-up probe taken in the window's pauses.
    setup_probes: list[float] = field(default_factory=list)


@dataclass
class LoopState:
    """Op-id counter shared by every block of one run."""

    next_id: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def take(self) -> int:
        with self.lock:
            self.next_id += 1
            return self.next_id


def run_block(
    workload,
    seconds: float,
    state: LoopState,
    recorder=None,
    probe_every: float | None = None,
) -> Block:
    """Run ``workload.callers`` closed-loop callers for ``seconds``.

    Each caller asks the workload for its next op (``next_op``: input
    generation, untimed), runs it (timed as the op's latency) and only then
    asks for the next.  With a ``recorder`` every op runs under a root span.
    With ``probe_every`` (one caller only) the caller also runs
    ``workload.probe_setup()`` that often, untimed like input generation;
    the window is extended by the probes' time, so they take no ops away.
    """
    callers = workload.callers
    if probe_every is not None and callers != 1:
        raise ValueError("set-up probes need a single caller")
    records: list[list[OpRecord]] = [[] for _ in range(callers)]
    probes: list[float] = []
    prep_wall = [0.0] * callers
    prep_cpu = [0.0] * callers
    ended = [0.0] * callers
    workload.block_begin(recorder is not None)
    cpu_before = time.process_time()
    started = time.perf_counter()
    deadline = started + seconds
    next_probe = started + (probe_every or 0.0)

    def caller(index: int) -> None:
        nonlocal deadline, next_probe
        sink = records[index]
        while time.perf_counter() < deadline:
            op_id = state.take()
            wall0 = time.perf_counter()
            cpu0 = time.thread_time()
            if probe_every is not None and wall0 >= next_probe:
                probes.append(workload.probe_setup())
                paused = time.perf_counter() - wall0
                deadline += paused
                next_probe += probe_every + paused
            op_class, execute = workload.next_op(index, op_id)
            prep_wall[index] += time.perf_counter() - wall0
            prep_cpu[index] += time.thread_time() - cpu0
            t0 = time.perf_counter()
            error = None
            try:
                if recorder is None:
                    execute()
                else:
                    recorder.root(op_id, op_class, execute)
            except CheckFailed as exc:
                error = f"check: {exc}"
            except Exception as exc:  # noqa: BLE001 - a failed op is data
                error = f"{type(exc).__name__}: {exc}"
            sink.append(
                OpRecord(
                    op_id,
                    index,
                    op_class,
                    time.perf_counter() - t0,
                    error is None,
                    error,
                )
            )
        ended[index] = time.perf_counter()

    if callers == 1:
        caller(0)
    else:
        threads = [
            threading.Thread(target=caller, args=(i,), name=f"caller-{i}")
            for i in range(callers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    cpu = time.process_time() - cpu_before - sum(prep_cpu)
    cpu += workload.block_end(recorder is not None)
    return Block(
        traced=recorder is not None,
        records=[r for sink in records for r in sink],
        busy_seconds=[ended[i] - started - prep_wall[i] for i in range(callers)],
        cpu_seconds=cpu,
        setup_probes=probes,
    )


def ops_per_second(blocks: list[Block]) -> float:
    """Completed ops per busy second, summed over callers."""
    if not blocks:
        return 0.0
    callers = len(blocks[0].busy_seconds)
    rate = 0.0
    for index in range(callers):
        busy = sum(b.busy_seconds[index] for b in blocks)
        done = sum(
            1 for b in blocks for r in b.records if r.ok and r.caller == index
        )
        rate += done / busy if busy > 0 else 0.0
    return rate


def end_to_end(blocks: list[Block], setup_times: list[float], peak_rss_mb: float) -> dict:
    """The seven end-to-end metrics of one untraced run."""
    records = [r for b in blocks for r in b.records]
    attempted = len(records)
    failed = sum(1 for r in records if not r.ok)
    completed = attempted - failed
    latencies = np.array([r.latency for r in records]) * 1000.0
    cpu = sum(b.cpu_seconds for b in blocks)
    return {
        "setup_s": (float(np.median(setup_times)), "s"),
        "ops_per_s": (ops_per_second(blocks), "op/s"),
        "latency_p50_ms": (float(np.percentile(latencies, 50)), "ms"),
        "latency_p95_ms": (float(np.percentile(latencies, 95)), "ms"),
        # The failed share plus a floor of 1e-6, so the metric never reads
        # 0 and does not depend on run length: with no failure it is the
        # floor on every run, and one failure moves it by orders of
        # magnitude.  The raw counts are the result line's attempted/failed.
        "error_rate": (failed / attempted + ERROR_RATE_FLOOR, "ratio"),
        "cpu_ms_per_op": (cpu * 1000.0 / max(completed, 1), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def beyond_p95(blocks: list[Block]) -> int:
    """How many latency samples lie strictly above the run's p95."""
    latencies = np.array([r.latency for b in blocks for r in b.records])
    if latencies.size == 0:
        return 0
    return int((latencies > np.percentile(latencies, 95)).sum())


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def program_environment() -> dict:
    """This environment minus the program's ``REPRO_*`` knobs.

    The benchmark measures the program as shipped: default
    ``MaxEntConfig``/``ServiceConfig`` and the default-on tracer.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over ``src/`` (path + content): identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, kernel_backend: str) -> dict:
    """Host and build facts recorded with every result."""
    import numpy
    import scipy

    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernel_backend,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "platform": platform.platform(),
    }
