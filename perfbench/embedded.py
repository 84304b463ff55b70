"""The two embedded workloads: ``audit_sweep`` and ``worst_case_cold``.

Both call the library the way the paper's users do, one caller in one
process, default ``MaxEntConfig``.  They share the layer hooks and the
per-layer metric names; only inputs, set-up and checks differ.
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections import Counter

import numpy as np

import repro.core.accuracy as accuracy_module
import repro.core.privacy_maxent as privacy_maxent_module
import repro.engine.engine as engine_module
import repro.knowledge.mining as mining_module
from harness import check, rows_sum_to_one, self_peak_rss_mb
from repro import PrivacyEngine, PrivacyMaxEnt, TopKBound, baseline_posterior
from repro.core.quantifier import PosteriorTable
from repro.experiments.workloads import build_adult_workload, build_synthetic_release
from repro.knowledge.statements import ConditionalProbability
from repro.knowledge.mining import MiningConfig
from repro.maxent.config import MaxEntConfig
from spans import Hook

#: Mining settings of the audit workload (``build_adult_workload`` with
#: ``max_antecedent=2`` and its default support).
AUDIT_MINING = MiningConfig(min_support_count=3, max_antecedent=2)


def _solve_counts(solution) -> dict:
    stats = solution.stats
    return {
        "iterations": stats.iterations,
        "components": stats.n_components,
        "cache_hits": stats.cache_hits,
        "batched": stats.batched_components,
        "presolve_s": stats.phase_seconds.get("presolve", 0.0),
        "dual_s": stats.phase_seconds.get("dual", 0.0),
        "fingerprint_s": stats.fingerprint_seconds,
    }


def embedded_hooks() -> list[Hook]:
    """The library's public entry points, one span name per layer."""
    return [
        Hook(mining_module, "mine_association_rules", "knowledge.mine"),
        Hook(TopKBound, "statements", "knowledge.select"),
        Hook(
            privacy_maxent_module,
            "compile_statements",
            "knowledge.compile",
            lambda system: {
                "knowledge_rows": system.n_equalities + system.n_inequalities
            },
        ),
        Hook(privacy_maxent_module, "GroupVariableSpace", "maxent.index"),
        Hook(privacy_maxent_module, "data_constraints", "maxent.invariants"),
        Hook(engine_module.PrivacyEngine, "solve", "engine.solve", _solve_counts),
        Hook(engine_module, "build_plan", "engine.plan"),
        Hook(engine_module, "closed_form_batch", "maxent.closed_form"),
        Hook(PosteriorTable, "from_solution", "core.posterior"),
        Hook(accuracy_module, "estimation_accuracy", "core.accuracy"),
    ]


def solve_inner_seconds(span) -> float:
    """Solve phases the engine timed itself, outside any wrapped child."""
    if span.name != "engine.solve" or not span.attrs:
        return 0.0
    a = span.attrs
    return a["presolve_s"] + a["dual_s"] + a["fingerprint_s"]


def embedded_layer_metrics(summary: dict, setup_spans: list) -> dict:
    """Per-layer metric values (per-op means) from a traced run's spans."""
    total = summary["total_ms"]
    counts = summary["counts"]
    components = counts.get("components", 0.0)
    mine = [s.duration * 1000.0 for s in setup_spans if s.name == "knowledge.mine"]
    return {
        "knowledge.mine_ms": (float(np.median(mine)) if mine else 0.0, "ms"),
        "knowledge.select_ms": (total.get("knowledge.select", 0.0), "ms"),
        "knowledge.compile_ms": (total.get("knowledge.compile", 0.0), "ms"),
        "knowledge.rows": (counts.get("knowledge_rows", 0.0), "count"),
        "maxent.index_ms": (total.get("maxent.index", 0.0), "ms"),
        "maxent.invariants_ms": (total.get("maxent.invariants", 0.0), "ms"),
        "maxent.presolve_ms": (counts.get("presolve_s", 0.0) * 1000.0, "ms"),
        "maxent.dual_ms": (counts.get("dual_s", 0.0) * 1000.0, "ms"),
        "maxent.closed_form_ms": (total.get("maxent.closed_form", 0.0), "ms"),
        "maxent.iterations": (counts.get("iterations", 0.0), "count"),
        "maxent.batched_ratio": (
            counts.get("batched", 0.0) / components if components else 0.0,
            "ratio",
        ),
        "engine.solve_ms": (total.get("engine.solve", 0.0), "ms"),
        "engine.plan_ms": (total.get("engine.plan", 0.0), "ms"),
        "engine.fingerprint_ms": (counts.get("fingerprint_s", 0.0) * 1000.0, "ms"),
        "engine.components": (components, "count"),
        "engine.cache_hit_ratio": (
            counts.get("cache_hits", 0.0) / components if components else 0.0,
            "ratio",
        ),
        "core.posterior_ms": (total.get("core.posterior", 0.0), "ms"),
        "core.accuracy_ms": (total.get("core.accuracy", 0.0), "ms"),
    }



class EmbeddedWorkload:
    """Shared plumbing of the single-caller, in-process workloads."""

    callers = 1
    #: Seconds of op time between set-up probes (None: no probes).
    setup_probe_every: float | None = None

    def __init__(self) -> None:
        self.engine: PrivacyEngine | None = None

    def hooks(self) -> list[Hook]:
        return embedded_hooks()

    inner_seconds = staticmethod(solve_inner_seconds)

    def discard_setup(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def block_begin(self, traced: bool) -> None:
        pass

    def block_end(self, traced: bool) -> float:
        return 0.0

    def verify(self) -> list[tuple[int, str]]:
        return []

    def extra_detail(self) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def kernel_backend(self) -> str:
        return self.engine.stats()["kernel_backend"]

    def layer_metrics(self, summary: dict, setup_spans: list, blocks: list) -> dict:
        return embedded_layer_metrics(summary, setup_spans)

    def close(self) -> None:
        self.discard_setup()


class AuditSweep(EmbeddedWorkload):
    """Section 4.3: releases assessed under many Top-(K+, K-) bounds.

    Input: ``RELEASES`` Adult-shaped tables (2,000 records each, ``l=5``,
    about 400 buckets), each from its own seed drawn from the run's seed.
    Set-up mines every table's rules, opens one long-lived engine (cache
    on) and computes each release's Eq. (9) baseline.  Ops take the
    releases in turn; each solves the next of that release's seeded,
    distinct (K+, K-) pairs and scores it.  A release's first op is the
    (0, 0) bound, checked against its baseline.
    """

    name = "audit_sweep"
    setup_reps = 3
    #: Rule coupling, and so op cost, depends on the table drawn; cycling
    #: over several tables per run keeps one table's shape from setting
    #: the whole run's figures.
    RELEASES = 4

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        super().__init__()
        rng = random.Random(f"audit:{seed}")
        k_max = 8 if tiny else 12
        self.sweeps = []
        for _ in range(self.RELEASES):
            workload = build_adult_workload(
                n_records=300 if tiny else 2000,
                l=5,
                max_antecedent=2,
                seed=rng.randrange(2**31),
            )
            pairs = [
                (kp, kn)
                for kp in range(k_max + 1)
                for kn in range(k_max + 1)
                if (kp, kn) != (0, 0)
            ]
            rng.shuffle(pairs)
            self.sweeps.append(_Sweep(workload, [(0, 0)] + pairs))
        self.position = 0

    def setup(self) -> None:
        self.engine = PrivacyEngine()
        for sweep in self.sweeps:
            sweep.rules = mining_module.mine_association_rules(
                sweep.workload.table, AUDIT_MINING
            )
            sweep.baseline = baseline_posterior(sweep.workload.published)
            check(
                sweep.rules == sweep.workload.rules,
                "set-up mining differs from the workload's own mining",
            )


    def next_op(self, caller: int, op_id: int):
        sweep = self.sweeps[self.position % len(self.sweeps)]
        k_positive, k_negative = sweep.pairs[
            (self.position // len(self.sweeps)) % len(sweep.pairs)
        ]
        self.position += 1
        published = sweep.workload.published
        truth = sweep.workload.truth
        rules = sweep.rules
        engine = self.engine
        baseline = sweep.baseline if (k_positive, k_negative) == (0, 0) else None

        def execute() -> None:
            quantifier = PrivacyMaxEnt(
                published,
                TopKBound(k_positive, k_negative).statements(rules),
                engine=engine,
            )
            posterior = quantifier.posterior()
            score = accuracy_module.estimation_accuracy(truth, posterior)
            check(quantifier.solve().stats.converged, "solve did not converge")
            check(rows_sum_to_one(posterior), "posterior rows do not sum to 1")
            check(np.isfinite(score), "estimation accuracy is not finite")
            if baseline is not None:
                check(
                    np.allclose(
                        posterior.aligned_to(baseline).matrix,
                        baseline.matrix,
                        rtol=0.0,
                        atol=1e-12,
                    ),
                    "(0, 0) bound differs from the Eq. (9) baseline",
                )

        return "audit", execute


def _feasible_per_bucket_statements(release) -> list[ConditionalProbability]:
    """``per_bucket_statements``' shape, kept where any p in (0, 1) is feasible.

    A bucket qualifies when its first QI tuple occurs nowhere else in the
    release and the bucket holds at least two distinct QI tuples and two
    distinct SA values: fixing one cell of its transportation polytope
    strictly inside its bounds then always leaves a completion.  Anatomy
    can leave a residue bucket with a single SA value, which pins the cell
    and would make every op fail.
    """
    counts = Counter(q for bucket in release.buckets for q in bucket.qi_tuples)
    qi_attributes = release.schema.qi_attributes
    return [
        ConditionalProbability(
            given=dict(zip(qi_attributes, bucket.qi_tuples[0])),
            sa_value=bucket.sa_values[0],
            probability=0.5,
        )
        for bucket in release.buckets
        if counts[bucket.qi_tuples[0]] == 1
        and len(set(bucket.qi_tuples)) > 1
        and len(set(bucket.sa_values)) > 1
    ]


@dataclasses.dataclass
class _Sweep:
    """One release of the audit and its bound sequence."""

    workload: object
    pairs: list
    rules: object = None
    baseline: object = None


class WorstCaseCold(EmbeddedWorkload):
    """Martin et al.'s adversary: a separate belief about every group.

    Input: one synthetic release with QI domains (60, 50, 40, 30), 6 SA
    values, ``l=5`` — nearly every QI tuple is unique, so one statement
    per bucket keeps every bucket its own tiny component.  Each op
    carries one statement per bucket (the ``per_bucket_statements``
    shape) with seeded probabilities, so no two ops share a fingerprint
    and the component cache never serves a solve.
    """

    name = "worst_case_cold"
    setup_reps = 5
    #: This set-up takes about 15 ms, and a shared host's speed can swing
    #: by half within seconds, so set-ups taken in one burst all land on
    #: one phase of it.  Besides the set-ups before the window, an untimed
    #: pause every 0.5 s of op time runs the same set-up on a throwaway
    #: engine (``probe_setup``); spread over the window, they sample the
    #: host as the ops do.
    setup_probe_every = 0.5

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        super().__init__()
        self.release = build_synthetic_release(
            200 if tiny else 800,
            qi_domain_sizes=(60, 50, 40, 30),
            n_sa_values=6,
            l=5,
            seed=seed,
        )
        self.template = _feasible_per_bucket_statements(self.release)
        self.rng = random.Random(f"worst:{seed}")
        self.tol = MaxEntConfig().tol

    def setup(self) -> None:
        self.engine = PrivacyEngine()
        PrivacyMaxEnt(self.release, engine=self.engine).posterior()

    def probe_setup(self) -> float:
        started = time.perf_counter()
        engine = PrivacyEngine()
        PrivacyMaxEnt(self.release, engine=engine).posterior()
        elapsed = time.perf_counter() - started
        engine.close()
        return elapsed

    def next_op(self, caller: int, op_id: int):
        uniform = self.rng.uniform
        statements = [
            dataclasses.replace(s, probability=round(uniform(0.05, 0.30), 6))
            for s in self.template
        ]
        release = self.release
        engine = self.engine
        tol = self.tol

        def execute() -> None:
            quantifier = PrivacyMaxEnt(release, statements, engine=engine)
            posterior = quantifier.posterior()
            stats = quantifier.solve().stats
            check(stats.converged, "solve did not converge")
            check(
                stats.residual <= tol,
                f"residual {stats.residual:.3g} exceeds tol {tol:g}",
            )
            check(rows_sum_to_one(posterior), "posterior rows do not sum to 1")

        return "worst_case", execute
