"""Direct unit tests for the dual machinery (repro.maxent.dual)."""

import numpy as np
import pytest

from repro.data.paper_example import paper_published
from repro.errors import ReproError
from repro.knowledge.compiler import compile_statements
from repro.knowledge.statements import ConditionalProbability
from repro.maxent.constraints import ConstraintSystem, data_constraints
from repro.maxent.dual import build_dual
from repro.maxent.indexing import GroupVariableSpace


def simple_system():
    """Two variables, one constraint: p0 + p1 = 1 with p0 = 0.3 target."""
    system = ConstraintSystem(2)
    system.add_equality([0, 1], [1.0, 1.0], 1.0, kind="qi")
    system.add_equality([0], [1.0], 0.3, kind="bk")
    return system


class TestBuildDual:
    def test_shapes(self):
        dual = build_dual(simple_system(), 1.0)
        assert dual.n_params == 2
        assert dual.n_vars == 2
        assert dual.n_equalities == 2
        assert dual.n_inequalities == 0

    def test_rejects_non_positive_mass(self):
        with pytest.raises(ReproError):
            build_dual(simple_system(), 0.0)

    def test_bounds_for_inequalities(self):
        system = simple_system()
        system.add_inequality([1], [1.0], 0.8, kind="bk")
        dual = build_dual(system, 1.0)
        bounds = dual.bounds()
        assert bounds[:2] == [(None, None), (None, None)]
        assert bounds[2] == (0.0, None)


class TestEvaluation:
    def test_primal_at_zero_is_uniform(self):
        dual = build_dual(simple_system(), 1.0)
        p = dual.primal(np.zeros(2))
        assert np.allclose(p, [0.5, 0.5])

    def test_primal_mass_preserved_at_any_multiplier(self):
        dual = build_dual(simple_system(), 0.7)
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = dual.primal(rng.standard_normal(2) * 3)
            assert p.sum() == pytest.approx(0.7)
            assert p.min() >= 0

    def test_gradient_is_negated_residual(self):
        dual = build_dual(simple_system(), 1.0)
        x = np.array([0.4, -0.2])
        _value, grad = dual.value_and_grad(x)
        p = dual.primal(x)
        expected = dual.rhs - dual.matrix @ p
        assert np.allclose(grad, expected)

    def test_gradient_matches_finite_differences(self):
        dual = build_dual(simple_system(), 1.0)
        x = np.array([0.1, 0.5])
        value, grad = dual.value_and_grad(x)
        eps = 1e-7
        for i in range(2):
            shifted = x.copy()
            shifted[i] += eps
            value_plus, _ = dual.value_and_grad(shifted)
            assert (value_plus - value) / eps == pytest.approx(
                grad[i], abs=1e-4
            )

    def test_convexity_along_random_segments(self):
        dual = build_dual(simple_system(), 1.0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal(2)
            b = rng.standard_normal(2)
            fa, _ = dual.value_and_grad(a)
            fb, _ = dual.value_and_grad(b)
            mid, _ = dual.value_and_grad((a + b) / 2)
            assert mid <= (fa + fb) / 2 + 1e-10

    def test_hess_vec_matches_finite_differences(self):
        # The paper's Figure 1 release plus one rule: a coupled system
        # large enough for the Newton-CG polish's curvature to matter.
        space = GroupVariableSpace(paper_published())
        system = data_constraints(space)
        system.extend(
            compile_statements(
                [
                    ConditionalProbability(
                        given={"gender": "male"}, sa_value="Flu", probability=0.3
                    )
                ],
                space,
            )
        )
        dual = build_dual(system, 1.0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(dual.n_params) * 0.1
        v = rng.standard_normal(dual.n_params)
        epsilon = 1e-6
        _f1, g_plus = dual.value_and_grad(x + epsilon * v)
        _f2, g_minus = dual.value_and_grad(x - epsilon * v)
        numeric = (g_plus - g_minus) / (2 * epsilon)
        # Gradient of the dual is c - R p(theta) with theta = -R^T x; the
        # two sign flips cancel, so hess_vec is the Hessian itself
        # (positive semidefinite, as convexity requires).
        analytic = dual.hess_vec(x, v)
        assert np.abs(numeric - analytic).max() < 1e-5 * max(
            1.0, np.abs(analytic).max()
        )
        # PSD spot-check: v' H v >= 0.
        assert float(v @ analytic) >= -1e-12

    def test_overflow_safe(self):
        dual = build_dual(simple_system(), 1.0)
        value, grad = dual.value_and_grad(np.array([1e4, -1e4]))
        assert np.isfinite(value)
        assert np.all(np.isfinite(grad))


class TestResiduals:
    def test_residuals_at_feasible_point(self):
        dual = build_dual(simple_system(), 1.0)
        p = np.array([0.3, 0.7])
        eq_res, ineq_res = dual.residuals(p)
        assert eq_res == pytest.approx(0.0)
        assert ineq_res == 0.0

    def test_inequality_residual_only_counts_excess(self):
        system = simple_system()
        system.add_inequality([1], [1.0], 0.8, kind="bk")
        dual = build_dual(system, 1.0)
        ok = np.array([0.3, 0.7])
        _eq, ineq = dual.residuals(ok)
        assert ineq == 0.0  # 0.7 <= 0.8: satisfied, no penalty
        bad = np.array([0.1, 0.9])
        _eq, ineq = dual.residuals(bad)
        assert ineq == pytest.approx(0.1)

    def test_residual_scale_positive(self):
        dual = build_dual(simple_system(), 1.0)
        assert dual.residual_scale() > 0
