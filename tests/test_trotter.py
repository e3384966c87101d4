"""Plan construction and convergence order of the product formulas."""

import numpy as np
import pytest

from mpfkit.hamiltonians import heisenberg_chain
from mpfkit.trotter import (
    TrotterEvaluator,
    build_plan,
    geometric_grid,
    loglog_slope,
    suzuki_fractions,
)


class TestPlanShapes:
    def test_first_order_two_groups(self):
        plan = build_plan(2, 1)
        assert plan.stages == ((1, 1.0), (2, 1.0))
        assert plan.stage_factor == 1.0
        assert not plan.symmetric

    def test_second_order_two_groups(self):
        plan = build_plan(2, 2)
        assert plan.stages == ((1, 0.5), (2, 0.5), (2, 0.5), (1, 0.5))
        assert plan.stage_factor == 2.0
        assert plan.symmetric

    def test_fourth_order_stage_count_and_symmetry(self):
        plan = build_plan(3, 4)
        assert len(plan.stages) == 30
        assert plan.stage_factor == 10.0
        assert plan.symmetric

    def test_sixth_order_stage_count(self):
        plan = build_plan(2, 6)
        assert plan.stage_factor == 50.0
        assert plan.symmetric

    def test_recursion_fraction_value(self):
        assert suzuki_fractions(4) == pytest.approx(1.0 / (4.0 - 4.0 ** (1.0 / 3.0)))
        with pytest.raises(ValueError):
            suzuki_fractions(3)

    def test_alphas_sum_to_one_per_group(self):
        for order in (1, 2, 4, 6):
            plan = build_plan(3, order)
            for g in range(1, 4):
                total = sum(a for grp, a in plan.stages if grp == g)
                assert total == pytest.approx(1.0), (order, g)

    def test_odd_order_above_one_rejected(self):
        with pytest.raises(ValueError):
            build_plan(2, 3)

    def test_merged_stages_collapse_palindrome_seam(self):
        plan = build_plan(3, 2)
        merged = plan.merged_stages()
        assert merged == (
            (1, 0.5),
            (2, 0.5),
            (3, 1.0),
            (2, 0.5),
            (1, 0.5),
        )


class TestEvaluation:
    def test_single_group_is_exact(self):
        spec = heisenberg_chain(2, coupling=1.0, field=0.0)
        assert spec.n_groups == 1
        plan = build_plan(1, 1)
        assert TrotterEvaluator(spec, plan).error(0.7) <= 1e-12

    def test_formula_unitarity(self):
        spec = heisenberg_chain(4, field=0.3)
        ev = TrotterEvaluator(spec, build_plan(spec.n_groups, 2))
        u = ev.formula_unitary(0.23)
        assert np.max(np.abs(u @ u.conj().T - np.eye(ev.dim))) <= 1e-12

    def test_first_order_ordering_convention(self):
        # stages[0] must act first: T(tau) = e^{-iH2 tau} e^{-iH1 tau}
        spec = heisenberg_chain(3, field=0.5)
        plan = build_plan(spec.n_groups, 1)
        ev = TrotterEvaluator(spec, plan)
        u = ev.formula_unitary(0.37)
        expected = np.eye(ev.dim, dtype=complex)
        for g in range(1, spec.n_groups + 1):
            stage = ev._group_facts[g - 1].expm_minus_i(0.37)
            expected = stage @ expected
        assert np.max(np.abs(u - expected)) <= 1e-12

    def test_second_order_is_conjugate_symmetric(self):
        # T_2(-tau)^dag == T_2(tau) for the palindromic plan
        spec = heisenberg_chain(4, field=0.2)
        ev = TrotterEvaluator(spec, build_plan(spec.n_groups, 2))
        u = ev.formula_unitary(0.19)
        v = ev.formula_unitary(-0.19)
        assert np.max(np.abs(v.conj().T - u)) <= 1e-12

    def test_group_count_mismatch_raises(self):
        spec = heisenberg_chain(4, field=0.0)
        with pytest.raises(ValueError, match="groups"):
            TrotterEvaluator(spec, build_plan(3, 2))


class TestConvergenceOrder:
    @pytest.mark.parametrize("order,threshold", [(1, 1.8), (2, 2.8), (4, 4.8)])
    def test_error_slope_meets_order(self, order, threshold):
        spec = heisenberg_chain(4, coupling=1.0, field=0.8)
        ev = TrotterEvaluator(spec, build_plan(spec.n_groups, order))
        taus = geometric_grid(1e-3, 1e-1, 12)
        errs = ev.error_sweep(taus)
        slope, used = loglog_slope(taus, errs)
        assert used >= 3
        assert slope >= threshold, (order, slope)

    def test_error_decreases_with_order(self):
        spec = heisenberg_chain(4, field=0.5)
        tau = 0.05
        errs = [
            TrotterEvaluator(spec, build_plan(spec.n_groups, p)).error(tau)
            for p in (1, 2, 4)
        ]
        assert errs[0] > errs[1] > errs[2]


class TestGridAndSlope:
    def test_geometric_grid_endpoints(self):
        g = geometric_grid(1e-3, 1e-1, 12)
        assert len(g) == 12
        assert g[0] == pytest.approx(1e-3)
        assert g[-1] == pytest.approx(1e-1)
        ratios = g[1:] / g[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_slope_of_pure_power_law(self):
        taus = geometric_grid(1e-3, 1e-1, 10)
        errs = 3.0 * taus**4
        slope, used = loglog_slope(taus, errs)
        assert slope == pytest.approx(4.0, abs=1e-9)
        assert used == 10

    def test_noise_floor_discard(self):
        taus = geometric_grid(1e-3, 1e-1, 10)
        errs = 1e-6 * taus**2
        errs[:4] = 1e-15
        slope, used = loglog_slope(taus, errs)
        assert used == 6
        assert slope == pytest.approx(2.0, abs=1e-9)

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError, match="noise floor"):
            loglog_slope(np.array([0.1, 0.2, 0.3]), np.array([1e-15, 1e-15, 1e-13]))

    def test_unitary_shortcut_matches_evaluator(self):
        spec = heisenberg_chain(3, field=0.4)
        plan = build_plan(spec.n_groups, 2)
        direct = TrotterEvaluator(spec, plan).formula_unitary(0.11)
        ev = TrotterEvaluator(spec, plan)
        assert np.max(np.abs(direct - ev.formula_unitary(0.11))) == 0.0
