"""Unit tests for the Top-(K+, K-) bound."""

import pytest

from repro.data.paper_example import paper_table
from repro.errors import KnowledgeError, ReproError
from repro.knowledge.bounds import TopKBound
from repro.knowledge.mining import MiningConfig, mine_association_rules
from repro.knowledge.rules import NegativeRule, PositiveRule
from repro.knowledge.statements import ConditionalInterval, ConditionalProbability


@pytest.fixture(scope="module")
def rules():
    return mine_association_rules(
        paper_table(), MiningConfig(min_support_count=1, max_antecedent=2)
    )


class TestSelection:
    def test_counts(self, rules):
        bound = TopKBound(3, 2)
        selected = bound.select(rules)
        positives = [r for r in selected if isinstance(r, PositiveRule)]
        negatives = [r for r in selected if isinstance(r, NegativeRule)]
        assert len(positives) == 3
        assert len(negatives) <= 2  # dedup may remove overlap

    def test_takes_strongest(self, rules):
        bound = TopKBound(5, 0)
        selected = bound.select(rules)
        assert [r.confidence for r in selected] == [
            r.confidence for r in rules.positive[:5]
        ]

    def test_more_than_available(self, rules):
        bound = TopKBound(10**6, 0)
        selected = bound.select(rules)
        assert len(selected) == rules.n_positive

    def test_zero_bound_empty(self, rules):
        assert TopKBound(0, 0).select(rules) == []

    def test_dedup_on_same_fact(self, rules):
        # A positive rule (Qv => s, conf c) and negative rule
        # (Qv => not s, conf 1-c) assert the same constraint; mixing the
        # full universes must not duplicate.
        bound = TopKBound(rules.n_positive, rules.n_negative)
        selected = bound.select(rules)
        keys = {
            (tuple(sorted(r.antecedent.items())), r.sa_value) for r in selected
        }
        assert len(keys) == len(selected)

    def test_total(self):
        assert TopKBound(30, 12).total == 42

    def test_describe(self):
        assert TopKBound(3, 4).describe() == "Top-(3+, 4-)"
        assert "epsilon" in TopKBound(3, 4, epsilon=0.1).describe()


class TestStatements:
    def test_exact_statements(self, rules):
        statements = TopKBound(2, 2).statements(rules)
        assert all(isinstance(s, ConditionalProbability) for s in statements)

    def test_epsilon_makes_intervals(self, rules):
        statements = TopKBound(2, 2, epsilon=0.05).statements(rules)
        assert all(isinstance(s, ConditionalInterval) for s in statements)
        for statement in statements:
            assert statement.high - statement.low <= 0.1 + 1e-12

    def test_negative_rule_statement_complements(self, rules):
        bound = TopKBound(0, 1)
        (statement,) = bound.statements(rules)
        rule = rules.negative[0]
        assert statement.probability == pytest.approx(1.0 - rule.confidence)


class TestValidation:
    def test_negative_k_rejected(self):
        with pytest.raises(Exception):
            TopKBound(-1, 0)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(KnowledgeError):
            TopKBound(1, 1, epsilon=-0.1)
        # Non-finite or non-real radii are rejected the same way.
        for epsilon in (float("nan"), float("inf"), "0.1", None, True):
            with pytest.raises(ReproError, match="epsilon"):
                TopKBound(1, 1, epsilon=epsilon)
