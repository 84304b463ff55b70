"""Tests for the JSON wire forms of request/response objects."""

import json

import numpy as np
import pytest

from repro.core import serialize as wire
from repro.core.privacy_maxent import PrivacyMaxEnt, assess
from repro.data.paper_example import Q2, S1, paper_published, paper_table
from repro.errors import KnowledgeError, ReproError
from repro.knowledge.bounds import TopKBound
from repro.knowledge.individuals import IndividualProbability, Pseudonym
from repro.knowledge.mining import MiningConfig
from repro.knowledge.statements import (
    Comparison,
    ConditionalInterval,
    ConditionalProbability,
    JointProbability,
)
from repro.maxent.config import MaxEntConfig


def json_round_trip(payload):
    """Force the payload through real JSON (catches non-serializable leaks)."""
    return json.loads(json.dumps(payload))


class TestSchemaAndTables:
    def test_schema_round_trip(self, paper_schema_fixture):
        payload = json_round_trip(wire.schema_to_dict(paper_schema_fixture))
        assert wire.schema_from_dict(payload) == paper_schema_fixture

    def test_table_round_trip(self):
        table = paper_table()
        rebuilt = wire.table_from_dict(
            json_round_trip(wire.table_to_dict(table))
        )
        assert rebuilt.records() == table.records()

    def test_published_round_trip(self):
        published = paper_published()
        rebuilt = wire.published_from_dict(
            json_round_trip(wire.published_to_dict(published))
        )
        assert rebuilt.n_buckets == published.n_buckets
        assert rebuilt.n_records == published.n_records
        for old, new in zip(published.buckets, rebuilt.buckets):
            assert old.qi_tuples == new.qi_tuples
            assert old.sa_values == new.sa_values

    def test_schema_rejects_unknown_keys(self, paper_schema_fixture):
        payload = wire.schema_to_dict(paper_schema_fixture)
        payload["surprise"] = 1
        with pytest.raises(ReproError, match="unknown field"):
            wire.schema_from_dict(payload)

    def test_release_needs_buckets(self, paper_schema_fixture):
        with pytest.raises(ReproError, match="non-empty"):
            wire.published_from_dict(
                {"schema": wire.schema_to_dict(paper_schema_fixture), "buckets": []}
            )

    def test_non_object_rejected(self):
        with pytest.raises(ReproError, match="JSON object"):
            wire.published_from_dict([1, 2, 3])


class TestStatements:
    @pytest.mark.parametrize(
        "statement",
        [
            ConditionalProbability(
                given={"gender": "male"}, sa_value="HIV", probability=0.25
            ),
            JointProbability(
                given={"degree": "college"}, sa_value="Flu", probability=0.1
            ),
            ConditionalInterval(
                given={"gender": "female"}, sa_value="Flu", low=0.1, high=0.4
            ),
            Comparison(
                given={"gender": "male"},
                more_likely="Flu",
                less_likely="HIV",
                margin=0.05,
            ),
        ],
    )
    def test_round_trip(self, statement):
        payload = json_round_trip(wire.statement_to_dict(statement))
        assert wire.statement_from_dict(payload) == statement

    def test_unknown_type_rejected(self):
        with pytest.raises(KnowledgeError, match="unknown statement type"):
            wire.statement_from_dict({"type": "telepathy"})

    def test_unknown_field_rejected(self):
        payload = wire.statement_to_dict(
            ConditionalProbability(
                given={"gender": "male"}, sa_value="HIV", probability=0.25
            )
        )
        payload["extra"] = True
        with pytest.raises(ReproError, match="unknown field"):
            wire.statement_from_dict(payload)

    def test_individual_statements_have_no_wire_form(self):
        statement = IndividualProbability(
            Pseudonym("i1", ("male", "college")), "HIV", 0.0
        )
        with pytest.raises(KnowledgeError, match="no wire form"):
            wire.statement_to_dict(statement)

    def test_statements_from_list(self):
        statement = ConditionalProbability(
            given={"gender": "male"}, sa_value="HIV", probability=0.25
        )
        assert wire.statements_from_list(None) == []
        assert wire.statements_from_list(
            [wire.statement_to_dict(statement)]
        ) == [statement]
        with pytest.raises(ReproError, match="JSON list"):
            wire.statements_from_list({"not": "a list"})


class TestConfigsAndBounds:
    def test_config_round_trip(self):
        config = MaxEntConfig(
            solver="newton", tol=1e-8, cache_path="/tmp/cache.pkl"
        )
        payload = json_round_trip(wire.config_to_dict(config))
        assert wire.config_from_dict(payload) == config

    def test_config_none_is_default(self):
        assert wire.config_from_dict(None) == MaxEntConfig()

    def test_config_unknown_knob_rejected(self):
        with pytest.raises(ReproError, match="unknown field"):
            wire.config_from_dict({"warp_speed": 9})
        # Knobs and executors that no longer exist are rejected, not
        # silently dropped.
        with pytest.raises(ReproError, match="unknown field"):
            wire.config_from_dict({"workers": 2})
        for removed in ("thread", "process"):
            with pytest.raises(ReproError, match="unknown executor"):
                wire.config_from_dict({"executor": removed})

    def test_bound_round_trip(self):
        bound = TopKBound(5, 3, epsilon=0.01)
        assert wire.bound_from_dict(
            json_round_trip(wire.bound_to_dict(bound))
        ) == bound

    def test_mining_config(self):
        assert wire.mining_config_from_dict(None) == MiningConfig()
        rebuilt = wire.mining_config_from_dict(
            {"min_support_count": 5, "max_antecedent": 1}
        )
        assert rebuilt == MiningConfig(min_support_count=5, max_antecedent=1)


class TestResults:
    def test_posterior_round_trip(self):
        posterior = PrivacyMaxEnt(paper_published()).posterior()
        rebuilt = wire.posterior_from_dict(
            json_round_trip(wire.posterior_to_dict(posterior))
        )
        assert rebuilt.qi_tuples == posterior.qi_tuples
        assert rebuilt.sa_domain == posterior.sa_domain
        np.testing.assert_allclose(rebuilt.matrix, posterior.matrix)
        assert rebuilt.prob(Q2, S1) == pytest.approx(posterior.prob(Q2, S1))

    def test_stats_dict_has_residual(self):
        solution = PrivacyMaxEnt(paper_published()).solve()
        payload = json_round_trip(wire.stats_to_dict(solution.stats))
        assert payload["solver"] == solution.stats.solver
        assert payload["residual"] == pytest.approx(solution.stats.residual)

    def test_assessment_round_trip(self):
        table = paper_table()
        published = paper_published()
        assessments = assess(
            table,
            published,
            [TopKBound(1, 1)],
            mining=MiningConfig(min_support_count=1, max_antecedent=1),
        )
        payload = json_round_trip(wire.assessment_to_dict(assessments[0]))
        rebuilt = wire.assessment_from_dict(payload)
        assert rebuilt.bound == assessments[0].bound
        assert rebuilt.max_disclosure == pytest.approx(
            assessments[0].max_disclosure
        )
        assert rebuilt.stats.solver == assessments[0].stats.solver
