"""Effective-generator coefficients: conventions, vanishing, bounds, oracle."""

import numpy as np
import pytest

from mpfkit import dense
from mpfkit.bch import (
    check_truncated_generator,
    compute_phi,
    compute_phi_range,
    effective_generator,
    oracle_phi_from_logs,
    phi_extensiveness_bound,
    phi_locality_bound,
    phi_norm_bound,
    phi_report,
    truncated_step_unitary,
    truncation_defect,
)
from mpfkit.commutators import nested_commutator_sum
from mpfkit.hamiltonians import heisenberg_chain, make_spec
from mpfkit.pauli import PauliSum, PauliTerm
from mpfkit.trotter import TrotterEvaluator, build_plan, geometric_grid


def toy_spec():
    return make_spec(
        2,
        [
            (PauliTerm.from_label("XX", 1.0), 1),
            (PauliTerm.from_label("ZI", 0.7), 2),
            (PauliTerm.from_label("IZ", 0.4), 2),
        ],
    )


def coeff_distance(a: PauliSum, b: PauliSum) -> float:
    d = a - b
    return max((abs(c) for _, c in d.items()), default=0.0)


def random_two_site_spec(rng: np.random.Generator):
    labels = ["XI", "IX", "ZI", "IZ", "XX", "YY", "ZZ", "XZ"]
    terms = []
    for i, lab in enumerate(labels):
        group = 1 if i % 2 == 0 else 2
        terms.append((PauliTerm.from_label(lab, float(rng.uniform(-1, 1))), group))
    return make_spec(2, terms)


class TestLeadingCoefficient:
    def test_first_order_second_coefficient_closed_form(self):
        # one sweep over two groups: Phi_2 = -(i/2) [H_2, H_1], exactly
        spec = toy_spec()
        plan = build_plan(2, 1)
        phi2 = compute_phi(plan, spec, 2)
        expected = spec.group_sum(2).commutator(spec.group_sum(1)).scale(-0.5j)
        assert coeff_distance(phi2, expected) == 0.0
        assert phi2.hermiticity_defect() <= 1e-12

    def test_order_one_recovers_hamiltonian(self):
        spec = heisenberg_chain(3, field=0.5)
        for order in (1, 2, 4):
            plan = build_plan(spec.n_groups, order)
            phi1 = compute_phi(plan, spec, 1)
            assert coeff_distance(phi1, spec.full_sum()) <= 1e-12

    def test_vanishing_below_plan_order(self):
        spec = heisenberg_chain(4, field=0.5)
        plan2 = build_plan(spec.n_groups, 2)
        assert compute_phi(plan2, spec, 2).one_norm() <= 1e-10
        spec3 = heisenberg_chain(3, field=0.3)
        plan4 = build_plan(spec3.n_groups, 4)
        for q in (2, 3, 4):
            assert compute_phi(plan4, spec3, q).one_norm() <= 1e-10, q

    def test_symmetric_plans_kill_even_orders(self):
        # palindromic stage lists give generators odd in tau
        spec = toy_spec()
        plan = build_plan(2, 2)
        assert compute_phi(plan, spec, 4).one_norm() <= 1e-10
        assert compute_phi(plan, spec, 3).one_norm() > 1e-3

    def test_hermiticity_through_order_six(self):
        spec = heisenberg_chain(3, field=0.4)
        plan = build_plan(spec.n_groups, 1)
        for q, op in compute_phi_range(plan, spec, 6).items():
            assert op.hermiticity_defect() <= 1e-10, q


class TestBounds:
    def test_norm_bound_holds(self):
        spec = heisenberg_chain(4, field=0.5)
        for order in (1, 2):
            plan = build_plan(spec.n_groups, order)
            for q in range(order + 1, 6):
                op = compute_phi(plan, spec, q)
                norm = (
                    dense.spectral_norm(dense.from_pauli_sum(op)) if op else 0.0
                )
                alpha = nested_commutator_sum(spec, q)
                cap = phi_norm_bound(plan.stage_factor, alpha, q)
                assert norm <= cap * (1 + 1e-9), (order, q)

    def test_locality_bound_holds(self):
        spec = heisenberg_chain(4, field=0.5)
        plan = build_plan(spec.n_groups, 1)
        for q in (2, 3, 4):
            op = compute_phi(plan, spec, q)
            assert op.locality() <= phi_locality_bound(q, spec.locality), q

    def test_extensiveness_bound_holds(self):
        spec = heisenberg_chain(4, field=0.5)
        for order in (1, 2):
            plan = build_plan(spec.n_groups, order)
            for q in range(order + 1, 6):
                op = compute_phi(plan, spec, q)
                cap = phi_extensiveness_bound(
                    q, plan.stage_factor, spec.locality, spec.extensiveness
                )
                assert op.extensiveness() <= cap * (1 + 1e-9), (order, q)

    def test_phi_report_fields(self):
        spec = heisenberg_chain(3, field=0.2)
        plan = build_plan(spec.n_groups, 1)
        rep = phi_report(
            plan,
            spec,
            3,
            phi_q=compute_phi(plan, spec, 3),
            alpha_q=nested_commutator_sum(spec, 3),
        )
        assert rep.q == 3
        assert rep.norm_exact is not None
        assert rep.norm_exact <= rep.norm_bound
        assert rep.locality <= rep.locality_bound
        assert rep.extensiveness <= rep.extensiveness_bound
        assert rep.hermiticity_defect <= 1e-10


class TestMatrixLogOracle:
    def test_first_and_second_order_plans_match_fit(self):
        # five guard orders soak up the series truncation; the window is wide
        # enough that the order-4 signal clears the matrix-log rounding noise
        rng = np.random.default_rng(23)
        taus = np.linspace(0.008, 0.1, 28)
        for trial in range(4):
            spec = random_two_site_spec(rng)
            for order in (1, 2):
                plan = build_plan(2, order)
                oracle = oracle_phi_from_logs(plan, spec, 9, taus)
                for q in (2, 3, 4):
                    mine = compute_phi(plan, spec, q)
                    dev = coeff_distance(mine, oracle[q - 1])
                    assert dev <= 1e-6, (trial, order, q, dev)


class TestTruncatedGenerator:
    def test_defect_shrinks_with_truncation_order(self):
        spec = heisenberg_chain(3, field=0.5)
        plan = build_plan(spec.n_groups, 1)
        ev = TrotterEvaluator(spec, plan)
        tau = 0.05
        defects = []
        for p0 in (2, 3, 4):
            phis = compute_phi_range(plan, spec, p0)
            defects.append(truncation_defect(ev, phis, tau, p0))
        assert defects[0] > defects[1] > defects[2]

    def test_truncated_unitary_is_unitary(self):
        spec = heisenberg_chain(3, field=0.3)
        plan = build_plan(spec.n_groups, 2)
        u = truncated_step_unitary(spec, 0.08, 4, compute_phi_range(plan, spec, 4))
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) <= 1e-11

    def test_effective_generator_terms(self):
        spec = toy_spec()
        plan = build_plan(2, 1)
        tau = 0.1
        gen = effective_generator(spec, tau, 2, compute_phi_range(plan, spec, 2))
        manual = spec.full_sum() + compute_phi(plan, spec, 2).scale(tau)
        assert coeff_distance(gen, manual) <= 1e-14

    def test_check_runs_below_boundary(self):
        spec = heisenberg_chain(3, field=0.5)
        plan = build_plan(spec.n_groups, 1)
        check = check_truncated_generator(
            TrotterEvaluator(spec, plan),
            compute_phi_range(plan, spec, 4),
            epsilon=0.3,
            p0=4,
            tau_boundary=2e-4,
            slope_grid=geometric_grid(2e-2, 2e-1, 10),
        )
        assert check.passed
        assert check.margin > 0
        assert check.slope is not None
        assert check.slope >= 4.8
