"""Tests for the multi-product formula module."""

import numpy as np
import pytest

from mpfkit.hamiltonians import heisenberg_chain, make_spec
from mpfkit.pauli import PauliTerm
from mpfkit.formulas import (
    MAX_J,
    build_mpf,
    build_plan,
    closed_form_coefficients,
    exact_system_solve,
    loglog_slope,
    make_mpf_spec,
    solve_coefficients,
    vandermonde_residuals,
)
from mpfkit.mpf import MPFEvaluator
from mpfkit.trotter import TrotterEvaluator, geometric_grid
from oracles import (
    condition_report,
    error_sweep,
    exact_unitary,
    linear_k_specs,
    long_time_error,
)


class TestCoefficients:
    def test_single_term_is_identity_weight(self):
        spec = build_mpf(1)
        assert spec.k_values == (1,)
        assert spec.c_values == (1.0,)
        assert spec.m == 2
        assert spec.norm_c_1 == 1.0

    def test_two_term_weights_match_direct_solve(self):
        # independent oracle: solve c1 + c2 = 1, c1 + c2/4 = 0 by hand
        a = np.array([[1.0, 1.0], [1.0, 0.25]])
        oracle = np.linalg.solve(a, np.array([1.0, 0.0]))
        spec = build_mpf(2)
        assert spec.c_values == pytest.approx(tuple(oracle), abs=1e-14)
        assert spec.c_values[0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert spec.c_values[1] == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_three_term_weights_frozen(self):
        # worked out from the closed-form product by hand:
        #   c1 = 1/(1-4) * 1/(1-9)   = 1/24
        #   c2 = 4/(4-1) * 4/(4-9)   = -16/15
        #   c3 = 9/(9-1) * 9/(9-4)   = 81/40
        spec = build_mpf(3)
        assert spec.c_values == pytest.approx(
            (1.0 / 24.0, -16.0 / 15.0, 81.0 / 40.0), abs=1e-14
        )
        assert sum(spec.c_values) == pytest.approx(1.0, abs=1e-12)

    def test_residuals_small_for_all_supported_sizes(self):
        for j in range(1, MAX_J + 1):
            spec = build_mpf(j)
            res = vandermonde_residuals(spec.k_values, spec.c_values)
            assert max(res) <= 1e-10

    def test_closed_form_agrees_with_exact_elimination(self):
        for ks in [(1, 2), (1, 2, 3), (2, 3, 5), tuple(range(1, MAX_J + 1))]:
            closed = closed_form_coefficients(ks)
            solved = exact_system_solve(ks)
            assert closed == solved

    def test_gap_scheme_weights_sum_to_one(self):
        spec = solve_coefficients((1, 3, 4, 7))
        assert sum(spec.c_values) == pytest.approx(1.0, abs=1e-12)
        res = vandermonde_residuals(spec.k_values, spec.c_values)
        assert max(res) <= 1e-10

    def test_node_validation(self):
        with pytest.raises(ValueError):
            solve_coefficients((1, 2, 2))
        with pytest.raises(ValueError):
            solve_coefficients((2, 1))
        with pytest.raises(ValueError):
            solve_coefficients((0, 1))
        with pytest.raises(ValueError):
            solve_coefficients(())
        with pytest.raises(ValueError):
            solve_coefficients(range(1, MAX_J + 2))

    def test_make_spec_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            make_mpf_spec((1, 2), (0.5, 0.5))

    def test_odd_base_order_rejected(self):
        with pytest.raises(ValueError):
            make_mpf_spec((1, 2), (-1.0 / 3.0, 4.0 / 3.0), base_order=3)


def commuting_two_group_spec():
    return make_spec(
        2,
        [
            (PauliTerm.from_label("ZI", 0.7), 1),
            (PauliTerm.from_label("IZ", -0.4), 2),
        ],
    )


class TestEvaluation:
    def test_single_term_equals_base_formula(self):
        spec = heisenberg_chain(3, field=0.5)
        plan = build_plan(spec.n_groups, 2)
        ev = MPFEvaluator(build_mpf(1), TrotterEvaluator(spec, plan))
        m = ev.step(0.2)
        base = ev._trotter.formula_unitary(0.2)
        assert np.allclose(m, base, atol=1e-15)

    def test_commuting_groups_reproduce_exact_propagator(self):
        spec = commuting_two_group_spec()
        plan = build_plan(2, 2)
        trotter = TrotterEvaluator(spec, plan)
        ev = MPFEvaluator(build_mpf(2), trotter)
        for tau in (0.1, 0.7, 2.3):
            assert np.allclose(ev.step(tau), exact_unitary(trotter, tau), atol=1e-12)

    def test_operator_norm_bounded_by_weight_norm(self):
        rng = np.random.default_rng(7)
        spec = heisenberg_chain(3, field=0.9)
        plan = build_plan(spec.n_groups, 2)
        for j in (1, 2, 3):
            mpf = build_mpf(j)
            ev = MPFEvaluator(mpf, TrotterEvaluator(spec, plan))
            for tau in rng.uniform(0.01, 2.0, size=4):
                assert np.linalg.norm(ev.step(tau), 2) <= mpf.norm_c_1 + 1e-10

    def test_renormalized_weights_change_nothing(self):
        spec = heisenberg_chain(3, field=0.5)
        plan = build_plan(spec.n_groups, 2)
        mpf = build_mpf(2)
        total = sum(mpf.c_values)
        rescaled = make_mpf_spec(
            mpf.k_values, [c / total for c in mpf.c_values]
        )
        a = MPFEvaluator(mpf, TrotterEvaluator(spec, plan)).step(0.3)
        b = MPFEvaluator(rescaled, TrotterEvaluator(spec, plan)).step(0.3)
        assert np.allclose(a, b, atol=1e-14)

    def test_error_vanishes_at_zero_time(self):
        spec = heisenberg_chain(3, field=0.5)
        plan = build_plan(spec.n_groups, 2)
        ev = MPFEvaluator(build_mpf(2), TrotterEvaluator(spec, plan))
        assert ev.error(0.0) == pytest.approx(0.0, abs=1e-14)

    def test_two_terms_beat_one_at_small_step(self):
        spec = heisenberg_chain(4, field=0.8)
        plan = build_plan(spec.n_groups, 2)
        e1 = MPFEvaluator(build_mpf(1), TrotterEvaluator(spec, plan)).error(0.05)
        e2 = MPFEvaluator(build_mpf(2), TrotterEvaluator(spec, plan)).error(0.05)
        assert e2 < e1

    def test_asymmetric_plan_rejected(self):
        spec = heisenberg_chain(3, field=0.5)
        with pytest.raises(ValueError):
            MPFEvaluator(
                build_mpf(2), TrotterEvaluator(spec, build_plan(spec.n_groups, 1))
            )

    def test_plan_order_must_match_base_order(self):
        spec = heisenberg_chain(3, field=0.5)
        with pytest.raises(ValueError):
            MPFEvaluator(
                build_mpf(2, base_order=4),
                TrotterEvaluator(spec, build_plan(spec.n_groups, 2)),
            )

    def test_shared_trotter_evaluator_gives_the_same_errors(self):
        spec = heisenberg_chain(4, field=0.8)
        plan = build_plan(spec.n_groups, 2)
        shared = TrotterEvaluator(spec, plan)
        for j in (1, 2, 3):
            mspec = build_mpf(j)
            for tau in (0.05, 0.2):
                fresh = MPFEvaluator(mspec, TrotterEvaluator(spec, plan))
                assert MPFEvaluator(mspec, shared).error(tau) == fresh.error(tau)


class TestOrderCondition:
    def test_slope_reaches_twice_term_count(self):
        spec = heisenberg_chain(4, field=0.8)
        plan = build_plan(spec.n_groups, 2)
        taus = geometric_grid(0.01, 0.3, 12)
        for j in (1, 2, 3):
            ev = MPFEvaluator(build_mpf(j), TrotterEvaluator(spec, plan))
            slope, used = loglog_slope(taus, error_sweep(ev, taus))
            assert used >= 3
            assert slope >= 2 * j + 0.8

    def test_unbalanced_weights_stay_at_base_order(self):
        # weights that ignore the cancellation system fall back to the
        # base formula's order, confirming the slope fit detects the system
        spec = heisenberg_chain(4, field=0.8)
        plan = build_plan(spec.n_groups, 2)
        loose = build_mpf(2)._replace(c_values=(0.5, 0.5), norm_c_1=1.0)
        taus = geometric_grid(0.02, 0.3, 10)
        ev = MPFEvaluator(loose, TrotterEvaluator(spec, plan))
        slope, _ = loglog_slope(taus, error_sweep(ev, taus))
        assert slope < 3.5


class TestLongTime:
    def test_single_step_matches_step_error(self):
        spec = heisenberg_chain(3, field=0.5)
        plan = build_plan(spec.n_groups, 2)
        mpf = build_mpf(2)
        ev = MPFEvaluator(mpf, TrotterEvaluator(spec, plan))
        a = long_time_error(ev, 0.4, 1)
        b = ev.error(0.4)
        assert a == pytest.approx(b, rel=1e-12)

    def test_more_steps_reduce_error(self):
        spec = heisenberg_chain(3, field=0.7)
        plan = build_plan(spec.n_groups, 2)
        ev = MPFEvaluator(build_mpf(2), TrotterEvaluator(spec, plan))
        errs = [long_time_error(ev, 1.0, r) for r in (2, 4, 8, 16)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_long_time_error_rejects_zero_steps(self):
        spec = heisenberg_chain(3, field=0.5)
        plan = build_plan(spec.n_groups, 2)
        ev = MPFEvaluator(build_mpf(2), TrotterEvaluator(spec, plan))
        with pytest.raises(ValueError):
            long_time_error(ev, 1.0, 0)


class TestConditionReport:
    def test_node_norm_is_triangular_number(self):
        specs = linear_k_specs(8, j_min=2)
        for s in specs:
            j = s.j_count
            assert s.norm_k_1 == j * (j + 1) / 2

    def test_weight_norm_growth_reported(self):
        report = condition_report(linear_k_specs(8, j_min=2))
        assert report.j_values == tuple(range(2, 9))
        assert all(
            a < b
            for a, b in zip(report.norm_c_values, report.norm_c_values[1:])
        )
        # the linear scheme's weight norm grows fast; the report just
        # quantifies it without asserting a regime
        assert report.power_exponent > 0
        assert isinstance(report.subpolynomial, bool)

    def test_too_few_specs_rejected(self):
        with pytest.raises(ValueError):
            condition_report(linear_k_specs(2))
