"""Tests for the closed-form budget formulas."""

import itertools
import math

import pytest

from mpfkit import bounds
from mpfkit.commutators import (
    factorial_commutator_bound,
    mu_from_alphas,
    mu_window_bound,
    nested_commutator_sum,
    power_commutator_bound,
)
from mpfkit.formulas import build_mpf, build_plan
from mpfkit.hamiltonians import heisenberg_chain
from oracles import helper_inequality_check, helper_inequality_x


class TestTruncationOrder:
    def test_frozen_example(self):
        # ln(3 * 8 / 0.01) = ln 2400 = 7.78...
        assert bounds.truncation_order(8, 0.01) == 8

    def test_integer_boundary_resolves_exactly(self):
        # 3 N / eps = e^4 analytically; the ceiling must not overshoot to 5
        assert bounds.truncation_order(1, 3.0 / math.e**4) == 4

    def test_monotone_in_accuracy(self):
        orders = [bounds.truncation_order(8, e) for e in (0.5, 0.05, 0.005)]
        assert orders == sorted(orders)

    def test_degenerate_accuracy_rejected(self):
        with pytest.raises(ValueError):
            bounds.truncation_order(4, 12.0)
        with pytest.raises(ValueError):
            bounds.truncation_order(4, 0.0)
        with pytest.raises(ValueError):
            bounds.truncation_order(0, 0.1)


class TestTimeConditions:
    def test_frozen_value(self):
        # p0(4, 0.25) = ceil(ln 48) = 4
        want = 1.0 / (8.0 * math.e**3 * 2.0 * 4 * 2 * 6.0)
        p0 = bounds.truncation_order(4, 0.25)
        got = bounds.bch_time_condition(p0, 2.0, 2, 6.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_doubling_extensiveness_halves_bound(self):
        p0 = bounds.truncation_order(4, 0.25)
        a = bounds.bch_time_condition(p0, 2.0, 2, 6.0)
        b = bounds.bch_time_condition(p0, 2.0, 2, 12.0)
        assert b == pytest.approx(a / 2.0, rel=1e-12)

    def test_tighter_accuracy_shrinks_bound(self):
        p0_loose = bounds.truncation_order(4, 0.25)
        p0_tight = bounds.truncation_order(4, 1e-6)
        loose = bounds.bch_time_condition(p0_loose, 2.0, 2, 6.0)
        tight = bounds.bch_time_condition(p0_tight, 2.0, 2, 6.0)
        assert tight < loose

    def test_validation(self):
        with pytest.raises(ValueError):
            bounds.bch_time_condition(bounds.truncation_order(4, 0.25), 2.0, 2, 0.0)
        with pytest.raises(ValueError):
            bounds.mpf_time_condition(0.0, 1.0)
        with pytest.raises(ValueError):
            bounds.mpf_time_condition(2.0, -1.0)

    def test_commuting_window_is_unbounded(self):
        assert bounds.mpf_time_condition(2.0, 0.0) == math.inf


class TestStepErrorBound:
    def test_zero_step_leaves_truncation_term(self):
        out = bounds.step_error_bound(0.0, 2.0, 3.0, 2.0, 5.0, 4, 1e-4, 0.1)
        assert out.series_term == 0.0
        assert out.value == pytest.approx(2.0 * 3.0 * 1e-4, rel=1e-12)
        assert out.admissible

    def test_commuting_case_keeps_only_truncation(self):
        out = bounds.step_error_bound(0.3, 2.0, 3.0, 2.0, 0.0, 4, 1e-4, 0.1)
        assert out.series_term == 0.0
        assert out.tau_max_mpf == math.inf
        assert out.tau_max == 0.1

    def test_inadmissible_step_is_flagged_not_raised(self):
        out = bounds.step_error_bound(0.5, 2.0, 3.0, 2.0, 5.0, 4, 1e-4, 0.1)
        assert not out.admissible
        assert out.value > 0.0

    def test_value_composition(self):
        out = bounds.step_error_bound(0.01, 1.5, 3.0, 2.0, 4.0, 2, 1e-5, 1.0)
        series = 2.0 * math.sqrt(math.e) * 1.5 * (2.0 * 4.0 * 0.01) ** 3
        assert out.series_term == pytest.approx(series, rel=1e-12)
        assert out.value == pytest.approx(series + 1.5 * 3.0 * 1e-5, rel=1e-12)


class TestSelectOrder:
    def test_frozen_example(self):
        # ln(4 * 6 * 1 / 1e-3) = ln 24000 = 10.08...
        assert bounds.select_order(4, 6.0, 1.0, 1e-3) == 11

    def test_boundary_squared(self):
        assert bounds.select_order(1, 1.0, 1.0, math.exp(-2.0)) == 2

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            bounds.select_order(1, 1.0, 1.0, 2.0)


class TestTrotterNumber:
    def kwargs(self, **over):
        base = dict(
            n_sites=16,
            k=2,
            g=2.0,
            t=1.0,
            eps=1e-3,
            p=2,
            c_p=2.0,
            m=4,
            norm_c_1=5.0 / 3.0,
            norm_k_1=3.0,
        )
        base.update(over)
        return base

    def test_combined_count_is_ceiling_of_max(self):
        nums = bounds.trotter_number(**self.kwargs())
        assert nums.r == math.ceil(max(nums.r1, nums.r2))

    def test_accuracy_scaling_of_first_count(self):
        a = bounds.trotter_number(**self.kwargs())
        b = bounds.trotter_number(**self.kwargs(eps=1e-4))
        assert b.r1 / a.r1 == pytest.approx(10.0 ** (1.0 / 4), rel=1e-12)

    def test_time_scaling_of_first_count(self):
        a = bounds.trotter_number(**self.kwargs())
        b = bounds.trotter_number(**self.kwargs(t=2.0))
        assert b.r1 / a.r1 == pytest.approx(2.0 * 2.0 ** (1.0 / 4), rel=1e-12)

    def test_second_count_moves_only_logarithmically_with_size(self):
        a = bounds.trotter_number(**self.kwargs())
        b = bounds.trotter_number(**self.kwargs(n_sites=32))
        assert b.r2 / a.r2 < 1.05
        assert b.r1 / a.r1 == pytest.approx(
            2.0 ** (1.0 / 3) * 2.0 ** (1.0 / (3 * 4)), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            bounds.trotter_number(**self.kwargs(m=0))
        with pytest.raises(ValueError):
            bounds.trotter_number(**self.kwargs(g=0.0))


class TestHelperInequality:
    def test_holds_across_grid(self):
        grid_a = (0.2, 0.1, 0.03, 1e-3, 1e-6, 1e-9, 1e-12)
        for a, m in itertools.product(grid_a, range(1, 13)):
            check = helper_inequality_check(a, m)
            assert check.holds, (a, m, check.lhs)

    def test_holds_beyond_threshold(self):
        for mult in (1.0, 2.0, 10.0, 100.0):
            for a, m in ((0.1, 3), (1e-4, 1), (1e-8, 12)):
                x = helper_inequality_x(a, m) * mult
                lhs = (math.log(x) + 1.0) ** (m + 1) / x**m
                assert lhs <= a

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            helper_inequality_x(0.21, 2)
        with pytest.raises(ValueError):
            helper_inequality_x(0.1, 0)


def desk_report(j_count=2, t=1.0, eps=1e-3):
    ham = heisenberg_chain(4, field=0.8)
    plan = build_plan(ham.n_groups, 2)
    return bounds.report_from_parts(ham, plan, build_mpf(j_count), t, eps)


class TestBoundReport:
    def test_field_relations(self):
        rep = desk_report()
        i = rep.inputs
        assert rep.r == math.ceil(max(rep.r1, rep.r2))
        assert rep.tau == pytest.approx(i.t / rep.r, rel=1e-15)
        assert rep.eps_step == pytest.approx(
            i.eps / (4.0 * i.norm_c_1 * i.norm_k_1 * rep.r), rel=1e-15
        )
        assert rep.p0_step == bounds.truncation_order(i.n_sites, rep.eps_step)
        assert rep.query_count == pytest.approx(
            i.norm_c_1 * i.norm_k_1 * rep.r, rel=1e-15
        )
        assert rep.tau_max == min(rep.tau_max_bch, rep.tau_max_mpf)
        assert rep.tau_max_mpf == bounds.mpf_time_condition(
            i.stage_factor, rep.mu_ceiling
        )

    def test_report_matches_scalar_assembly(self):
        ham = heisenberg_chain(4, field=0.8)
        plan = build_plan(ham.n_groups, 2)
        spec = build_mpf(2)
        a = bounds.report_from_parts(ham, plan, spec, 1.0, 1e-3)
        b = bounds.build_report(
            ham.n_sites,
            ham.locality,
            ham.extensiveness,
            ham.n_groups,
            plan.stage_factor,
            spec,
            1.0,
            1e-3,
        )
        assert a == b

    def test_plan_mismatch_rejected(self):
        ham = heisenberg_chain(4, field=0.8)
        plan = build_plan(ham.n_groups, 4)
        with pytest.raises(ValueError):
            bounds.report_from_parts(ham, plan, build_mpf(2), 1.0, 1e-3)

    def test_per_step_accuracy_that_underflows_names_the_configured_eps(self):
        # eps / (4 ||c||_1 ||k||_1 r) = 1e-300 / (20 r) underflows to 0 for a
        # large enough r; the message names eps, not the zero it became
        assert bounds.step_error_allocation(1e-300, 5 / 3, 3, 10**4) > 0.0
        with pytest.raises(ValueError, match=r"eps = 1e-300 leaves .* underflows"):
            bounds.step_error_allocation(1e-300, 5 / 3, 3, 10**30)
        ham = heisenberg_chain(4, field=0.8)
        plan = build_plan(ham.n_groups, 2)
        with pytest.raises(ValueError, match=r"eps = 1e-300 leaves"):
            bounds.report_from_parts(ham, plan, build_mpf(2), 1.0, 1e-300)

    def test_error_bound_at_constructed_step_is_admissible(self):
        rep = desk_report()
        i = rep.inputs
        out = bounds.step_error_bound(
            rep.tau,
            i.norm_c_1,
            i.norm_k_1,
            i.stage_factor,
            rep.mu_ceiling,
            i.m,
            rep.eps_step,
            rep.tau_max_bch,
        )
        assert out.admissible
        assert out.value <= rep.inputs.eps / (2.0 * rep.r) * (1.0 + 1e-9)


class TestSelfConsistencyAndChain:
    def test_desk_instance_holds(self):
        rep = desk_report()
        sc = bounds.self_consistency(rep)
        assert sc.locality_holds and sc.truncation_holds and sc.holds
        ch = bounds.admissibility_chain(rep)
        assert ch.order_ok
        assert ch.step_holds and ch.window_holds and ch.shrinks and ch.holds
        assert ch.exp_factor < 1.0

    def test_matched_sweep_has_no_violations(self):
        cases = itertools.product(
            (4, 64, 1024),
            (1.0, 6.5),
            (0.1, 1.0),
            (1e-2, 1e-3),
            (2, 3),
        )
        checked = 0
        for n, g, t, eps, k in cases:
            spec = bounds.matched_mpf_spec(n, g, t, eps)
            rep = bounds.build_report(n, k, g, 2, 2.0, spec, t, eps)
            sc = bounds.self_consistency(rep)
            ch = bounds.admissibility_chain(rep)
            assert sc.holds, (n, g, t, eps, k)
            assert ch.holds and ch.order_ok, (n, g, t, eps, k)
            checked += 1
        assert checked == 48

    def test_matched_spec_tracks_selected_order(self):
        spec = bounds.matched_mpf_spec(4, 6.0, 1.0, 1e-3)
        assert spec.m == 11
        assert spec.j_count == 6


class TestEnumeratedMu:
    def test_ceiling_dominates_enumeration(self):
        ham = heisenberg_chain(3, field=0.5)
        for p0 in (4, 6):
            alphas = {
                q: nested_commutator_sum(ham, q) for q in range(3, p0 + 1)
            }
            mu = mu_from_alphas(alphas, 2, p0)
            ceiling = mu_window_bound(
                ham.n_sites, 2, p0, ham.locality, ham.extensiveness
            )
            assert 0.0 < mu <= ceiling


class TestQueryCount:
    def test_value_and_strings(self):
        # build_mpf(2): |c|_1 = 5/3 and |k|_1 = 3, so 5 queries per step
        rep = desk_report(j_count=2)
        assert rep.query_count == pytest.approx(5.0 * rep.r, rel=1e-12)
        assert "polylog" in bounds.QUERY_SCALING
        assert "polylog" in bounds.PRIOR_QUERY_SCALING

    def test_single_term_reduces_to_step_count(self):
        rep = desk_report(j_count=1)
        assert rep.query_count == float(rep.r)


class TestGateCostTable:
    def test_finite_range_rows(self):
        rows = bounds.gate_cost_table(64, 2.0, 1.0, 1e-3, 2)
        names = [r.algorithm for r in rows]
        assert names == ["trotter", "lcu", "qsvt", "mpf", "hhkl"]
        by_name = {r.algorithm: r for r in rows}
        load = 64 * 2.0 * 1.0 / 1e-3
        want_mpf = 64 * (64 ** (1.0 / 3) + math.log(load) ** 2) * 2.0
        assert by_name["mpf"].value == pytest.approx(want_mpf, rel=1e-12)
        assert by_name["mpf"].polylog_pending
        assert by_name["hhkl"].polylog_pending
        assert not by_name["trotter"].polylog_pending

    def test_accuracy_rescaling(self):
        a = {r.algorithm: r for r in bounds.gate_cost_table(64, 2.0, 1.0, 1e-3, 2)}
        b = {r.algorithm: r for r in bounds.gate_cost_table(64, 2.0, 1.0, 1e-4, 2)}
        trotter_ratio = b["trotter"].value / a["trotter"].value
        assert trotter_ratio == pytest.approx(10.0 ** 0.5, rel=1e-12)
        mpf_ratio = b["mpf"].value / a["mpf"].value
        assert 1.0 < mpf_ratio < trotter_ratio

    def test_long_range_rows(self):
        short = bounds.gate_cost_table(
            64, 2.0, 1.0, 1e-3, 2, range_class="long", k=2, nu=1.5, d=1
        )
        assert [r.algorithm for r in short] == ["trotter", "lcu", "qsvt", "mpf"]
        full = bounds.gate_cost_table(
            64, 2.0, 1.0, 1e-3, 2, range_class="long", k=2, nu=3.0, d=1
        )
        assert [r.algorithm for r in full][-1] == "hhkl"
        load = 64 * 2.0 * 1.0 / 1e-3
        want = 64 * 2.0 * load ** (2.0 * 1 / (3.0 - 1))
        assert full[-1].value == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            bounds.gate_cost_table(64, 2.0, 1.0, 1e-3, 2, range_class="medium")
        with pytest.raises(ValueError):
            bounds.gate_cost_table(64, 2.0, 1.0, 1e-3, 2, range_class="long")
        with pytest.raises(ValueError):
            # N g t / eps below e starves the log factors
            bounds.gate_cost_table(1, 1.0, 1.0, 0.9, 2)

    def test_rows_frozen_for_both_range_classes(self):
        # the finite class is the long-range rows at k = 1 plus its own hhkl
        # row; these literals pin every expression and value bit for bit
        args = (37, 1.7, 0.9, 3e-4, 4)
        finite = (
            ("trotter", "N g t (N g t / eps)^(1/p)", 1179.8753554286902, False),
            (
                "lcu",
                "N^2 g t log(N g t / eps) / loglog(N g t / eps)",
                10189.447889323019,
                False,
            ),
            (
                "qsvt",
                "N (N g t + log(1/eps) / loglog(1/eps))",
                2237.9476202840997,
                False,
            ),
            (
                "mpf",
                "N {N^(1/(p+1)) + log^2(N g t / eps)} g t * polylog",
                8470.595747632045,
                True,
            ),
            ("hhkl", "N g t * polylog", 56.61, True),
        )
        long_range = (
            ("trotter", "N^k g t (N g t / eps)^(1/p)", 1615249.361581877, False),
            (
                "lcu",
                "N^(k+1) g t log(N g t / eps) / loglog(N g t / eps)",
                13949354.160483211,
                False,
            ),
            (
                "qsvt",
                "N^k (N g t + log(1/eps) / loglog(1/eps))",
                3063750.2921689325,
                False,
            ),
            (
                "mpf",
                "N^k {N^(1/(p+1)) + log^2(N g t / eps)} g t * polylog",
                11596245.57850827,
                True,
            ),
        )
        decay_row = (
            "hhkl",
            "N g t (N g t / eps)^(2d/(nu-d))",
            612711015.7270671,
            False,
        )
        cases = (
            ({}, finite),
            # nu > 2d adds the decay row; nu <= 2d leaves it out
            (dict(range_class="long", k=3, nu=2.5, d=1), long_range + (decay_row,)),
            (dict(range_class="long", k=3, nu=2.0, d=1), long_range),
        )
        for kwargs, want in cases:
            rows = bounds.gate_cost_table(*args, **kwargs)
            got = tuple(
                (r.algorithm, r.expression, r.value, r.polylog_pending) for r in rows
            )
            assert got == want, kwargs


class TestDivergenceDiagnostics:
    def test_heisenberg_window(self):
        ham = heisenberg_chain(3, field=0.5)
        diag = bounds.divergence_diagnostics(
            ham.locality, ham.extensiveness, ham.n_sites, ham.total_one_norm, 8
        )
        assert diag.q_values == tuple(range(2, 9))
        assert diag.factorial_tail_increasing
        assert diag.plateau_value == pytest.approx(
            2.0 * ham.total_one_norm, rel=1e-12
        )
        for cand in diag.one_norm_candidates:
            assert cand == pytest.approx(diag.plateau_value, rel=1e-12)

    def test_candidates_are_the_closed_forms_roots(self):
        k, g, n, total = 2, 3.8, 5, 12.2
        diag = bounds.divergence_diagnostics(k, g, n, total, 6)
        assert diag.factorial_candidates == tuple(
            factorial_commutator_bound(q, k, g, n) ** (1.0 / q) for q in range(2, 7)
        )
        assert diag.one_norm_candidates == tuple(
            power_commutator_bound(q, total) ** (1.0 / q) for q in range(2, 7)
        )

    def test_window_is_formed_order_by_order(self):
        # (q-1)! leaves float range at q = 172, long before a window of a
        # billion orders could be held
        top = bounds.divergence_diagnostics(2, 1.0, 4, 1.0, 171)
        assert top.q_values[-1] == 171
        with pytest.raises(OverflowError, match="int too large"):
            bounds.divergence_diagnostics(2, 1.0, 4, 1.0, 10**9)
