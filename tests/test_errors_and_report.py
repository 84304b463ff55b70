"""Tests for the exception hierarchy and assessment reports."""

import pytest

from repro.core.report import PrivacyAssessment, render_assessments
from repro.errors import (
    AnonymizationError,
    CompilationError,
    DiversityError,
    DomainError,
    InfeasibleKnowledgeError,
    KnowledgeError,
    NotSupportedError,
    ReproError,
    SchemaError,
)
from repro.maxent.solution import SolverStats


class TestHierarchy:
    """One catch-all: every library error derives from ReproError."""

    @pytest.mark.parametrize(
        "exc_type",
        [
            SchemaError,
            DomainError,
            AnonymizationError,
            DiversityError,
            KnowledgeError,
            CompilationError,
            InfeasibleKnowledgeError,
            NotSupportedError,
        ],
    )
    def test_subclass_of_repro_error(self, exc_type):
        assert issubclass(exc_type, ReproError)

    def test_diversity_is_anonymization(self):
        assert issubclass(DiversityError, AnonymizationError)

    def test_compilation_is_knowledge(self):
        assert issubclass(CompilationError, KnowledgeError)

    def test_infeasible_carries_residual(self):
        error = InfeasibleKnowledgeError("bad", residual=0.25)
        assert error.residual == 0.25
        assert InfeasibleKnowledgeError("bad").residual is None


def make_assessment(**overrides):
    base = dict(
        bound="Top-(5+, 5-)",
        n_constraints=10,
        estimation_accuracy=1.23,
        max_disclosure=0.5,
        bayes_vulnerability=0.4,
        effective_l=2.0,
        expected_entropy_bits=1.8,
        stats=SolverStats(
            solver="lbfgs",
            iterations=42,
            seconds=0.1,
            n_vars=100,
            n_equalities=50,
            n_inequalities=0,
            eq_residual=1e-9,
            ineq_residual=0.0,
            converged=True,
        ),
    )
    base.update(overrides)
    return PrivacyAssessment(**base)


class TestPrivacyAssessment:
    def test_row_matches_headers(self):
        assessment = make_assessment()
        assert len(assessment.row()) == len(PrivacyAssessment.headers())

    def test_row_contents(self):
        row = make_assessment().row()
        assert row[0] == "Top-(5+, 5-)"
        assert row[1] == 10
        assert row[-2] == 42  # iterations

    def test_render_multiple(self):
        text = render_assessments(
            [make_assessment(), make_assessment(bound="Top-(9+, 0-)")],
            title="Report",
        )
        assert "Report" in text
        assert "Top-(5+, 5-)" in text
        assert "Top-(9+, 0-)" in text
        assert text.count("\n") >= 4
