"""Effective-generator coefficients: conventions, vanishing, bounds, oracle."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mpfkit import bch, dense
from mpfkit.bch import (
    check_truncated_generator,
    compute_phi,
    effective_generator,
    phi_extensiveness_bound,
    phi_locality_bound,
    phi_norm_bound,
    phi_report,
)
from mpfkit.bch import _pair_weights, _word_weights
from mpfkit.commutators import commutator_sums, nested_commutator_sum
from mpfkit.dense import SectorLeakError
from mpfkit.hamiltonians import heisenberg_chain, long_range_zz_chain, make_spec
from mpfkit.pauli import PauliSum, PauliTerm
from mpfkit.trotter import TrotterEvaluator, geometric_grid
from mpfkit.formulas import build_plan, loglog_slope
from oracles import (
    composition_phi,
    composition_word_weights,
    compositions,
    fraction_log_coefficients,
    fraction_pair_coefficients,
    fraction_phi,
    fraction_word_weights,
    full_matrix_norm,
    oracle_phi_from_logs,
    truncated_step_unitary,
)
from oracles import truncation_defect as oracle_defect
from test_trotter import anisotropic_chain, blocked_specs


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
    d = a + b.scale(-1.0)
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
        expected = spec.group_sums[1].commutator(spec.group_sums[0]).scale(-0.5j)
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
        phis = commutator_sums(spec, 6, None, plan=plan)[1]
        for q in range(2, 7):
            assert phis[q].hermiticity_defect() <= 1e-10, q


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
        assert rep.norm_is_exact
        assert rep.norm <= rep.norm_bound
        assert rep.locality <= rep.locality_bound
        assert rep.extensiveness <= rep.extensiveness_bound
        assert rep.hermiticity_defect <= 1e-10


class TestBlockedPhiNorm:
    @settings(max_examples=30, deadline=None)
    @given(spec=blocked_specs(), p=st.sampled_from([1, 2]), extra=st.integers(1, 2))
    @example(spec=heisenberg_chain(6, coupling=1.05, field=0.8), p=2, extra=2)
    @example(spec=heisenberg_chain(5, coupling=0.9, field=0.6), p=2, extra=1)
    @example(spec=anisotropic_chain(4, 1.0, 0.4, 0.8, field=0.6), p=1, extra=2)
    @example(spec=long_range_zz_chain(5, 1.5), p=2, extra=1)
    @example(spec=heisenberg_chain(4, field=0.5), p=4, extra=1)
    def test_matches_the_full_matrix_norm(self, spec, p, extra):
        # reflected (even), unsplit (odd), XYZ and long-range specs alike
        plan = build_plan(spec.n_groups, p)
        q = p + extra
        phi = compute_phi(plan, spec, q)
        rep = phi_report(plan, spec, q, phi_q=phi, alpha_q=0.0)
        want = full_matrix_norm(phi)
        assert abs(rep.norm - want) <= 1e-13 * want


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
            phis = commutator_sums(spec, p0, None, plan=plan)[1]
            defects.extend(check_truncated_generator(ev, phis, p0, [tau]))
        assert defects[0] > defects[1] > defects[2]

    def test_truncated_unitary_is_unitary(self):
        spec = heisenberg_chain(3, field=0.3)
        plan = build_plan(spec.n_groups, 2)
        u = truncated_step_unitary(spec, 0.08, 4, commutator_sums(spec, 4, None, plan=plan)[1])
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) <= 1e-11

    def test_effective_generator_terms(self):
        spec = toy_spec()
        plan = build_plan(2, 1)
        tau = 0.1
        gen = effective_generator(spec, tau, 2, commutator_sums(spec, 2, None, plan=plan)[1])
        manual = spec.full_sum() + compute_phi(plan, spec, 2).scale(tau)
        assert coeff_distance(gen, manual) <= 1e-14

    def test_check_runs_below_boundary(self):
        spec = heisenberg_chain(3, field=0.5)
        plan = build_plan(spec.n_groups, 1)
        ev = TrotterEvaluator(spec, plan)
        phis = commutator_sums(spec, 4, None, plan=plan)[1]
        defects = check_truncated_generator(ev, phis, 4, [2e-4, 1e-4, 5e-5])
        assert len(defects) == 3
        assert max(defects) < 0.3
        grid = geometric_grid(2e-2, 2e-1, 10)
        slope, _ = loglog_slope(grid, check_truncated_generator(ev, phis, 4, grid))
        assert slope >= 4.8

    def test_float_built_generator_passes_the_leak_rule(self):
        # Phi_q breaks the mirror symmetry and the sectors by rounding only
        spec = heisenberg_chain(6, coupling=1.05, field=0.8)
        plan = build_plan(spec.n_groups, 2)
        ev = TrotterEvaluator(spec, plan)
        assert ev.frame.reflected
        phis = commutator_sums(spec, 5, None, plan=plan)[1]
        for q in range(2, 6):
            assert dense.mirror_odd_norm(phis[q]) <= 1e-13, q
        [defect] = check_truncated_generator(ev, phis, 5, [0.1])
        assert defect == pytest.approx(oracle_defect(ev, phis, 0.1, 5), abs=1e-12)

    @pytest.mark.parametrize(
        "label, match",
        [("ZIIIII", "mirror-odd"), ("XIIIII", "outside the sectors")],
        ids=["mirror-odd", "sector-leak"],
    )
    def test_perturbed_series_coefficient_is_refused(self, label, match):
        # Z on one end site keeps the sectors but not the reflection; X on it
        # links two magnetization shells
        spec = heisenberg_chain(6, coupling=1.05, field=0.8)
        plan = build_plan(spec.n_groups, 2)
        ev = TrotterEvaluator(spec, plan)
        phis = commutator_sums(spec, 3, None, plan=plan)[1]
        phis[3] = phis[3] + PauliSum.from_label(label, 1e-3)
        with pytest.raises(SectorLeakError, match=match):
            check_truncated_generator(ev, phis, 3, [0.1])
        assert not issubclass(SectorLeakError, ValueError)


# -- log coefficients against the Fraction and per-composition oracles ------


def recursive_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def stage_slots(n_groups, p):
    return build_plan(n_groups, p).merged_stages()[::-1]


def scaled_word_weights(slots, q):
    """B(u) = I(u) / (|u|! 2^(S |u|)) from the integers of _word_weights."""
    shift, weights = _word_weights(slots, q)
    return {
        u: Fraction(i, math.factorial(len(u)) << (shift * len(u)))
        for u, i in weights.items()
    }


def walked_log_coefficients(plan, q_max):
    """The nonzero N / D of every word r of length 1..q_max that the nest walk
    weighs, r_1 < r_2 from length 2 on and nothing pruned: c_r of a word of
    one group, c_r - c_r' of a longer one.  Keyed by the word w, not by the
    reversed word r the walk spells."""
    weigh, out = _pair_weights(plan, q_max), {}

    def walk(r, chains):
        n, den, grown = weigh(r, chains)
        if n:
            out[r[::-1]] = Fraction(n, den)
        if len(r) < q_max:
            for g in range(r[0] + 1 if len(r) == 1 else 1, plan.n_groups + 1):
                walk(r + (g,), grown)

    for g in range(1, plan.n_groups + 1):
        walk((g,), None)
    return out


def fraction_coefficients_to(plan, q_max):
    """The oracle's nonzero pair weights of lengths 1..q_max over the
    product's factors."""
    slots = plan.merged_stages()[::-1]
    return {
        w: c for q in range(1, q_max + 1) for w, c in fraction_pair_coefficients(slots, q).items()
    }


def generic_spec(n_groups):
    """Each group holds every two-site Pauli string at a random weight, so no
    nest of up to five groups vanishes and the walk prunes nothing."""
    rng = np.random.default_rng(7)
    labels = [a + b for a in "IXYZ" for b in "IXYZ"][1:]
    return make_spec(
        2,
        [
            (PauliTerm.from_label(label, rng.uniform(0.5, 1.5)), g)
            for g in range(1, n_groups + 1)
            for label in labels
        ],
    )


@st.composite
def asymmetric_plans(draw):
    """Plans of two or three groups with random stage lists and fractions,
    rarely their own reverse."""
    n_groups = draw(st.integers(2, 3))
    stages = draw(
        st.lists(
            st.tuples(st.integers(1, n_groups), st.floats(-1.5, 1.5)),
            min_size=2,
            max_size=6,
        )
    )
    stages += [(g, 1.0) for g in range(1, n_groups + 1)]
    return build_plan(n_groups, 1)._replace(stages=tuple(stages))


@st.composite
def three_site_specs(draw):
    """Bond and field terms on three sites, split into one to three groups."""
    n_groups = draw(st.integers(1, 3))
    value = st.floats(-2.0, 2.0).filter(lambda c: abs(c) >= 1e-3)
    terms = []
    for bond in range(2):
        for pauli in "XYZ":
            label = "".join(pauli if i in (bond, bond + 1) else "I" for i in range(3))
            term = PauliTerm.from_label(label, draw(value))
            terms.append((term, min(bond + 1, n_groups)))
    if n_groups == 3 or draw(st.booleans()):
        for site in range(3):
            label = "".join("Z" if i == site else "I" for i in range(3))
            terms.append((PauliTerm.from_label(label, draw(value)), n_groups))
    return make_spec(3, terms)


# compute_phi(build_plan(3, p), heisenberg_chain(3, field=0.4), q) keyed by
# (p, q), each word pair's log coefficient difference rounded once
FROZEN_PHI_THREE_SITES = {
    (1, 1): {
        (3, 0): 1.0, (3, 3): 1.0, (0, 3): 1.0, (6, 0): 1.0, (6, 6): 1.0, (0, 6): 1.0,
        (0, 1): 0.4, (0, 2): 0.4, (0, 4): 0.4,
    },
    (1, 2): {
        (5, 3): 1.0, (6, 3): -1.0, (5, 6): -1.0, (6, 5): 1.0, (3, 6): 1.0, (3, 5): -1.0,
    },
    (1, 3): {
        (6, 6): -0.6666666666666666, (5, 5): 1.3333333333333333,
        (0, 6): -0.6666666666666666, (0, 5): 1.3333333333333333,
        (6, 0): -0.6666666666666666, (5, 0): 1.3333333333333333,
        (3, 3): -0.6666666666666666, (0, 3): -0.6666666666666666,
        (3, 0): -0.6666666666666666,
    },
    (1, 4): {
        (3, 5): 0.6666666666666666, (6, 5): -0.6666666666666666,
        (6, 3): 0.6666666666666666, (3, 6): -0.6666666666666666,
        (5, 3): -0.6666666666666666, (5, 6): 0.6666666666666666,
    },
    (1, 5): {},
    (2, 1): {
        (3, 0): 1.0, (3, 3): 1.0, (0, 3): 1.0, (6, 0): 1.0, (6, 6): 1.0, (0, 6): 1.0,
        (0, 1): 0.4, (0, 2): 0.4, (0, 4): 0.4,
    },
    (2, 2): {},
    (2, 3): {
        (6, 6): 0.3333333333333333, (5, 5): 0.3333333333333333,
        (0, 6): 0.3333333333333333, (0, 5): 0.3333333333333333,
        (6, 0): 0.3333333333333333, (5, 0): 0.3333333333333333,
        (3, 3): -0.6666666666666666, (0, 3): -0.6666666666666666,
        (3, 0): -0.6666666666666666,
    },
    (2, 4): {},
    (2, 5): {
        (6, 6): -0.3333333333333333, (5, 5): 0.3333333333333333,
        (0, 6): -0.3333333333333333, (0, 5): 0.3333333333333333,
        (6, 0): -0.3333333333333333, (5, 0): 0.3333333333333333,
    },
    (4, 1): {
        (3, 0): 1.0, (3, 3): 1.0, (0, 3): 1.0, (6, 0): 1.0, (6, 6): 1.0, (0, 6): 1.0,
        (0, 1): 0.4, (0, 2): 0.4, (0, 4): 0.4,
    },
    (4, 2): {},
    (4, 3): {},
    (4, 4): {},
    (4, 5): {
        (6, 6): -0.0076835363700171, (5, 5): -0.024791998465440973,
        (0, 6): -0.0076835363700171, (0, 5): -0.024791998465440973,
        (6, 0): -0.0076835363700171, (5, 0): -0.024791998465440973,
        (3, 3): 0.03247553483545808, (0, 3): 0.03247553483545808,
        (3, 0): 0.03247553483545808,
    },
}

# Phi_5 of the fourth-order plan on heisenberg_chain(4, field=0.0), the
# coefficient the `series` benchmark workload spends its time on
FROZEN_PHI_SERIES = {
    (6, 6): -0.11502694026256771, (5, 5): -0.03966719754470555,
    (9, 6): 0.06495106967091616, (5, 10): -0.06495106967091616,
    (0, 6): -0.11502694026256771, (0, 5): -0.03966719754470555,
    (15, 6): 0.06495106967091616, (15, 10): -0.06495106967091616,
    (15, 5): -0.06495106967091616, (15, 9): 0.06495106967091616,
    (10, 5): -0.06495106967091616, (6, 9): 0.06495106967091616,
    (10, 10): -0.03966719754470555, (0, 10): -0.03966719754470555,
    (0, 9): -0.01487519907926459, (9, 9): -0.01487519907926459,
    (6, 0): -0.11502694026256771, (5, 0): -0.03966719754470555,
    (9, 15): 0.06495106967091616, (5, 15): -0.06495106967091616,
    (10, 15): -0.06495106967091616, (6, 15): 0.06495106967091616,
    (10, 0): -0.03966719754470555, (9, 0): -0.01487519907926459,
    (3, 3): 0.10461826721562172, (0, 3): 0.10461826721562172,
    (12, 12): 0.10461826721562172, (0, 12): 0.10461826721562172,
    (3, 0): 0.10461826721562172, (12, 0): 0.10461826721562172,
}


# the largest relative error of a FROZEN_PHI_SERIES coefficient against the
# exact Phi_5 (the table is at 3.53e-16; rounded once per word it was at
# 1.05e-15, against a bound of 1.5e-15)
SERIES_RELATIVE_ERROR = 5e-16


class TestWordAggregation:
    @settings(max_examples=30, deadline=None)
    @given(
        spec=three_site_specs(), p=st.sampled_from([1, 2, 4, 6]), q=st.integers(1, 7)
    )
    @example(spec=heisenberg_chain(3, coupling=-0.9, field=0.0), p=4, q=5)
    @example(spec=heisenberg_chain(3, coupling=1.3, field=0.7), p=6, q=7)
    def test_matches_the_fraction_oracle(self, spec, p, q):
        # bitwise: one correctly rounded division per word pair (r, r'), then
        # the same nests summed in the same order
        plan = build_plan(spec.n_groups, p)
        mine = list(compute_phi(plan, spec, q).items())
        assert mine == list(fraction_phi(plan, spec, q).items())

    @settings(max_examples=30, deadline=None)
    @given(spec=three_site_specs(), p=st.sampled_from([1, 2, 4]), q=st.integers(1, 5))
    @example(spec=heisenberg_chain(3, coupling=-0.9, field=0.0), p=4, q=5)
    @example(spec=heisenberg_chain(3, coupling=1.3, field=0.7), p=4, q=5)
    def test_matches_the_per_composition_oracle(self, spec, p, q):
        # the two routes differ only in rounding; the summed composition
        # weights are at most c^q and each nest at most (2 L)^q in one-norm
        plan = build_plan(spec.n_groups, p)
        mine = dict(compute_phi(plan, spec, q).items())
        oracle = dict(composition_phi(plan, spec, q).items())
        tol = 1e-15 * (2 * plan.stage_factor * spec.total_one_norm) ** q
        for key in mine.keys() | oracle.keys():
            assert abs(mine.get(key, 0) - oracle.get(key, 0)) <= tol, key

    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("n_groups", [1, 2, 3])
    def test_word_weights_round_no_worse_than_the_compositions(self, n_groups, p):
        # the integer weights, scaled back, are the exact Fraction sums of the
        # float stage fractions: they do not round at all
        slots = stage_slots(n_groups, p)
        mine = scaled_word_weights(slots, 5)
        for q in range(1, 6):
            exact = composition_word_weights(slots, q, exact=True)
            assert {u: b for u, b in mine.items() if len(u) == q} == exact, q
            assert composition_word_weights(slots, q).keys() == exact.keys()

    @settings(max_examples=30, deadline=None)
    @given(
        n_groups=st.integers(1, 3), p=st.sampled_from([1, 2, 4, 6]), q=st.integers(1, 7)
    )
    def test_word_weights_are_the_composition_sums(self, n_groups, p, q):
        # wherever the per-composition oracle stays small
        slots = stage_slots(n_groups, p)
        assume(math.comb(q + len(slots), q) <= 20_000)
        mine = scaled_word_weights(slots, q)
        for l in range(1, q + 1):
            exact = composition_word_weights(slots, l, exact=True)
            assert {u: b for u, b in mine.items() if len(u) == l} == exact, l

    @settings(max_examples=30, deadline=None)
    @given(
        n_groups=st.integers(1, 3), p=st.sampled_from([1, 2, 4, 6]), q=st.integers(1, 7)
    )
    @example(n_groups=3, p=6, q=7)
    def test_log_coefficients_are_the_fraction_dp(self, n_groups, p, q):
        # the walk spells reversed words on the stages in their own order;
        # at p = 1 the stage list is not its own reverse.  Its pair weights
        # c_r - c_r' are exact: they are the Fraction DP's differences
        slots = stage_slots(n_groups, p)
        assert scaled_word_weights(slots, q) == fraction_word_weights(slots, q)
        plan = build_plan(n_groups, p)
        assert walked_log_coefficients(plan, q) == fraction_coefficients_to(plan, q)

    @settings(max_examples=30, deadline=None)
    @given(plan=asymmetric_plans(), q=st.integers(1, 5))
    def test_walk_reverses_an_asymmetric_product(self, plan, q):
        assert walked_log_coefficients(plan, q) == fraction_coefficients_to(plan, q)

    @pytest.mark.parametrize("q", range(1, 9))
    def test_integer_weights_are_the_fractions(self, q):
        # the integer log coefficients of the `series` plan and of the
        # three-group Strang plan are the Fraction DP's, word by word
        for n_groups, p in ((2, 4), (3, 2)):
            plan = build_plan(n_groups, p)
            exact = fraction_coefficients_to(plan, q)
            assert walked_log_coefficients(plan, q) == exact, (n_groups, p)

    @pytest.mark.parametrize(
        "spec, p",
        [
            (heisenberg_chain(6, coupling=1.1, field=0.8), 2),
            (heisenberg_chain(4, coupling=0.9, field=0.0), 4),
        ],
        ids=["certify", "series"],
    )
    def test_integer_weights_keep_every_item_bitwise(self, spec, p):
        # each c_w is its Fraction coefficient, correctly rounded
        plan = build_plan(spec.n_groups, p)
        got = [list(compute_phi(plan, spec, q).items()) for q in range(2, 6)]
        want = [list(fraction_phi(plan, spec, q).items()) for q in range(2, 6)]
        assert [[(k, repr(c)) for k, c in items] for items in got] == [
            [(k, repr(c)) for k, c in items] for items in want
        ]

    def test_enumeration_order_matches_the_recursive_generator(self):
        for parts in range(1, 13):
            for total in range(1, 7):
                dense_parts = []
                for comp in compositions(total, parts):
                    full = [0] * parts
                    for v, q_v in comp:
                        full[v] = q_v
                    dense_parts.append(tuple(full))
                assert dense_parts == list(recursive_compositions(total, parts))

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_three_site_coefficients_are_frozen(self, p):
        spec = heisenberg_chain(3, field=0.4)
        plan = build_plan(spec.n_groups, p)
        for q in range(1, 6):
            phi = dict(compute_phi(plan, spec, q).items())
            assert phi == FROZEN_PHI_THREE_SITES[(p, q)], q

    def test_series_coefficient_is_frozen(self):
        spec = heisenberg_chain(4, field=0.0)
        plan = build_plan(spec.n_groups, 4)
        assert dict(compute_phi(plan, spec, 5).items()) == FROZEN_PHI_SERIES

    def test_series_coefficient_is_within_rounding_of_the_exact_one(self):
        # at coupling 1 and field 0 every nest has integer coefficients, so
        # Phi_5 = (1/5) sum_w c_w nest(w) is exact from the Fraction c_w
        spec = heisenberg_chain(4, field=0.0)
        plan = build_plan(spec.n_groups, 4)
        exact: dict[tuple[int, int], Fraction] = {}
        for w, c in fraction_log_coefficients(plan.merged_stages()[::-1], 5).items():
            nest = spec.group_sums[w[-1] - 1]
            for g in reversed(w[:-1]):
                nest = spec.group_sums[g - 1].commutator(nest)
            for key, v in nest.items():
                assert v == int(v.real), (w, key)
                exact[key] = exact.get(key, 0) + c * int(v.real) / 5
        exact = {key: v for key, v in exact.items() if v}
        assert exact.keys() == FROZEN_PHI_SERIES.keys()
        for key, value in FROZEN_PHI_SERIES.items():
            error = abs(Fraction(value) - exact[key])
            assert error <= SERIES_RELATIVE_ERROR * abs(exact[key]), key


class TestVanishingOrders:
    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_even_orders_of_palindromic_plans_make_no_nest(self, monkeypatch, p):
        # the log of a palindromic product is odd in time: every even-order
        # coefficient cancels exactly, so the walk forms no nest at an even
        # top order, and Phi_2 costs no commutator at all
        spec = heisenberg_chain(4, field=0.5)
        plan = build_plan(spec.n_groups, p)
        assert plan.merged_stages()[::-1] == plan.merged_stages()
        formed = []  # (order, nest): each nest is kept, so no id is reused
        orders = {}
        commutator = PauliSum.commutator

        def counting(self, other):
            nest = commutator(self, other)
            orders[id(nest)] = orders.get(id(other), 1) + 1
            formed.append((orders[id(nest)], nest))
            return nest

        monkeypatch.setattr(PauliSum, "commutator", counting)
        assert not compute_phi(plan, spec, 2)
        assert formed == []
        for q in (2, 4, 6):
            assert all(len(w) % 2 for w in walked_log_coefficients(plan, q)), q
            assert not compute_phi(plan, spec, q), q
            assert q not in {order for order, _ in formed}, q
        formed.clear()
        assert compute_phi(plan, spec, p + 1)
        assert formed


class TestOneWalk:
    @settings(max_examples=30, deadline=None)
    @given(
        spec=three_site_specs(), p=st.sampled_from([1, 2, 4, 6]), q_max=st.integers(2, 6)
    )
    @example(spec=heisenberg_chain(3, coupling=1.3, field=0.7), p=1, q_max=6)
    def test_table_orders_are_the_single_orders(self, spec, p, q_max):
        # the walk to q_max forms every nest below q_max, the walk to q
        # only those with a nonzero coefficient at q: bitwise, key order too
        plan = build_plan(spec.n_groups, p)
        table = commutator_sums(spec, q_max, None, plan=plan)[1]
        assert sorted(table) == list(range(1, q_max + 1))
        for q in range(2, q_max + 1):
            single = compute_phi(plan, spec, q)
            assert [(k, repr(c)) for k, c in table[q].items()] == [
                (k, repr(c)) for k, c in single.items()
            ], q

    @pytest.mark.parametrize(
        "spec, p, q_max, ceiling",
        [
            # seven commuting ZZ groups: every nest of two groups is empty,
            # so the walk stops at the 7 x 6 ordered pairs
            (long_range_zz_chain(8, 2.0), 2, 7, 42),
            (heisenberg_chain(4, field=0.8), 2, 10, 768),
        ],
        ids=["long-range", "heisenberg"],
    )
    def test_empty_nests_prune_their_words(self, monkeypatch, spec, p, q_max, ceiling):
        calls = []
        commutator = PauliSum.commutator

        def counting(self, other):
            calls.append(other)
            return commutator(self, other)

        monkeypatch.setattr(PauliSum, "commutator", counting)
        table = commutator_sums(spec, q_max, None, plan=build_plan(spec.n_groups, p))[1]
        assert sorted(table) == list(range(1, q_max + 1))
        assert 0 < len(calls) <= ceiling


def parent_counts(plan, q_max):
    """The compositions and per-word walks the composition loop's preflight
    counted: C(q+V-1, q) and q! (1 + min(n_groups^q, C(q+V-1, q))) per order."""
    v, n = len(plan.merged_stages()), plan.n_groups
    orders = range(2, q_max + 1)
    comps = sum(math.comb(q + v - 1, q) for q in orders)
    walked = sum(
        math.factorial(q) * (1 + min(n**q, math.comb(q + v - 1, q))) for q in orders
    )
    return comps, walked


# the composition loop's budgets: compositions and per-word walks
PARENT_BUDGETS = (10**6, 3 * 10**7)


def budget_grid(p):
    """(plan, q_max) for 1 to 15 groups and q_max 2..13 within the tuple budget."""
    for n_groups in range(1, 16):
        plan = build_plan(n_groups, p)
        for q_max in range(2, 14):
            if n_groups**q_max <= 10**6:
                yield plan, q_max


# (p, n_groups, q_max) in budget_grid that the permutation-weight count (the
# stored weights, a walk per equality pattern and a relabel per
# rearrangement, against 3 x 10^7, with the word recursion against 10^6)
# refused.  The series count admits the first set and refuses the second;
# it admits every other table of the grid.  Counting the one walk to q_max
# instead of a split DP per order admitted (4, 3, 11): 4,979,430 updates.
ADMITTED_OVER_THE_PERMUTATION_COUNT = {
    (1, 1, 11), (1, 1, 12), (1, 1, 13), (1, 2, 10), (1, 2, 11), (1, 2, 12),
    (1, 2, 13), (1, 3, 10), (1, 3, 11), (1, 3, 12), (1, 4, 9),
    (2, 1, 11), (2, 1, 12), (2, 1, 13), (2, 2, 10), (2, 2, 11), (2, 2, 12),
    (2, 2, 13), (2, 3, 9), (2, 3, 10), (2, 3, 11), (2, 3, 12), (2, 4, 9),
    (2, 5, 8),
    (4, 1, 11), (4, 1, 12), (4, 1, 13), (4, 2, 9), (4, 2, 10), (4, 2, 11),
    (4, 2, 12), (4, 2, 13), (4, 3, 8), (4, 3, 9), (4, 3, 10), (4, 4, 8),
    (4, 5, 7), (4, 7, 6), (4, 9, 5), (4, 10, 5), (4, 11, 5),
    (6, 1, 11), (6, 1, 12), (6, 1, 13), (6, 2, 9), (6, 2, 10), (6, 2, 11),
    (6, 2, 12), (6, 2, 13), (6, 3, 8), (6, 3, 9), (6, 4, 7), (6, 5, 6),
    (6, 7, 5), (6, 8, 5), (6, 10, 4), (6, 11, 4), (6, 12, 4), (6, 13, 4),
    (6, 14, 4),
}
REFUSED_BY_THE_SERIES_COUNT = {
    (4, 3, 12), (4, 4, 9), (4, 5, 8), (4, 6, 7), (4, 7, 7),
    (4, 8, 6), (4, 9, 6), (4, 10, 6), (4, 12, 5), (4, 13, 5), (4, 14, 5),
    (4, 15, 5),
    (6, 3, 10), (6, 3, 11), (6, 3, 12), (6, 4, 8), (6, 4, 9), (6, 5, 7),
    (6, 5, 8), (6, 6, 6), (6, 6, 7), (6, 7, 6), (6, 7, 7), (6, 8, 6),
    (6, 9, 5), (6, 9, 6), (6, 10, 5), (6, 10, 6), (6, 11, 5), (6, 12, 5),
    (6, 13, 5), (6, 14, 5), (6, 15, 4), (6, 15, 5),
}


def replayed_updates(plan, q_max):
    """The series updates of Phi_2..Phi_qmax replayed on word sets, as
    ``(recursion, split, spelled)``: the recursion's (prefix, k) per stage
    to q_max, words of length q_max leaving the prefixes; one split update
    per spelled suffix of every word of length 1..q_max, the walk with
    nothing pruned, as a dict keyed by word; and the spelled words."""
    recursion = 0
    prefixes, words = {()}, set()
    for g, _ in plan.merged_stages():
        recursion += sum(q_max - len(w) + 1 for w in prefixes)
        grown = {w + (g,) * k for w in prefixes for k in range(q_max - len(w) + 1)}
        words |= {w for w in grown if len(w) == q_max}
        prefixes = grown - words
    spelled = (words | prefixes) - {()}
    split = {
        r: sum(r[j:] in spelled for j in range(len(r)))
        for i in range(1, q_max + 1)
        for r in itertools.product(range(1, plan.n_groups + 1), repeat=i)
    }
    return recursion, split, spelled


class TestCompositionBudget:
    def test_checked_before_any_coefficient(self, monkeypatch):
        # two merged stages over two groups spell 1, 2; 11, 12, 22; 111, 112,
        # 122, 222.  The recursion to q = 3 makes 4 + 9 updates; the walk
        # meets each of the 2^j prefixes of length j < 3 with every spelled
        # word of length at most 3 - j: 9 + 2 * 5 + 4 * 2
        plan = build_plan(2, 1)
        monkeypatch.setattr(bch, "DEFAULT_SERIES_BUDGET", 40)
        assert sorted(commutator_sums(toy_spec(), 3, None, plan=plan)[1]) == [1, 2, 3]
        monkeypatch.setattr(bch, "DEFAULT_SERIES_BUDGET", 39)
        monkeypatch.setattr(bch, "_pair_weights", None)
        with pytest.raises(ValueError, match="40 series updates, over the budget 39"):
            commutator_sums(toy_spec(), 3, None, plan=plan)

    def test_single_order_is_refused_before_its_walk(self, monkeypatch):
        monkeypatch.setattr(bch, "_pair_weights", None)
        with pytest.raises(ValueError, match="make 7557646 series updates"):
            compute_phi(build_plan(3, 6), heisenberg_chain(4, field=0.8), 10)

    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    @pytest.mark.parametrize("n_groups", [1, 2, 3])
    def test_counts_the_replayed_updates(self, monkeypatch, n_groups, p):
        plan = build_plan(n_groups, p)
        recursion, split, spelled = replayed_updates(plan, 5)
        assert spelled == set(_word_weights(plan.merged_stages(), 5)[1])
        updates = recursion + sum(split.values())
        monkeypatch.setattr(bch, "DEFAULT_SERIES_BUDGET", updates)
        bch.check_series_budget(plan, 5)
        monkeypatch.setattr(bch, "DEFAULT_SERIES_BUDGET", updates - 1)
        with pytest.raises(ValueError, match=f"make {updates} series updates"):
            bch.check_series_budget(plan, 5)


class TestPermutationBudget:
    """The series count on the tables the permutation-weight count sized
    before the log coefficients replaced the permutation walk."""

    def test_counted_before_any_coefficient(self, monkeypatch):
        # two groups on a Strang plan merge into three stages, 1 2 1; the
        # walk's 2^j prefixes of each length j about double the count with
        # each order
        spec = heisenberg_chain(4, field=0.0)
        plan = build_plan(spec.n_groups, 2)
        walks = []
        pair_weights = bch._pair_weights

        def weighing(plan, q_max):
            walks.append(q_max)
            return pair_weights(plan, q_max)

        # empty nests stop the walk at the pairs
        monkeypatch.setattr(PauliSum, "commutator", lambda a, b: PauliSum(a.n_sites))
        monkeypatch.setattr(bch, "_pair_weights", weighing)
        phis = commutator_sums(spec, 18, None, plan=plan)[1]
        assert sorted(phis) == list(range(1, 19))
        assert walks == [18]
        walks.clear()
        with pytest.raises(
            ValueError, match="make 5242814 series updates, over the budget 5000000"
        ):
            commutator_sums(spec, 19, None, plan=plan)
        assert walks == []

    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("n_groups", [1, 2, 3, 4])
    def test_counts_the_walks_and_relabels(self, monkeypatch, n_groups, p):
        # the count's closed form for the split updates, read off the real
        # walk: with no nest pruned it splits every word, each pair r_1 < r_2
        # with its swapped r', and meets every spelled suffix of each but
        # those under a repeated innermost pair, which it skips
        plan = build_plan(n_groups, p)
        recursion, split, spelled = replayed_updates(plan, 5)
        read = []
        word_weights = bch._word_weights

        class Reading(dict):
            def get(self, key, default=None):
                if key in self:
                    read.append(key)
                return super().get(key, default)

        def reading(stages, q):
            shift, weights = word_weights(stages, q)
            return shift, Reading(weights)

        monkeypatch.setattr(bch, "_word_weights", reading)
        assert commutator_sums(generic_spec(n_groups), 5, None, plan=plan)[1]
        skipped = sum(n for r, n in split.items() if r[1:2] == r[:1])
        assert len(read) == sum(split.values()) - skipped
        walked = sum(split.values())
        assert walked == sum(
            n_groups**j * sum(1 for u in spelled if len(u) <= 5 - j) for j in range(5)
        )
        monkeypatch.setattr(bch, "DEFAULT_SERIES_BUDGET", recursion + walked)
        bch.check_series_budget(plan, 5)
        monkeypatch.setattr(bch, "DEFAULT_SERIES_BUDGET", recursion + walked - 1)
        with pytest.raises(ValueError, match=f"make {recursion + walked} series"):
            bch.check_series_budget(plan, 5)

    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    def test_allows_every_table_the_composition_counts_allowed(self, p):
        for plan, q_max in budget_grid(p):
            comps, per_word = parent_counts(plan, q_max)
            if comps <= PARENT_BUDGETS[0] and per_word <= PARENT_BUDGETS[1]:
                bch.check_series_budget(plan, q_max)

    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    def test_refuses_the_tables_the_per_word_count_refused(self, p):
        # the series count refuses only tables the permutation count refused
        # too, and admits the listed ones of those
        grid, refused = set(), set()
        for plan, q_max in budget_grid(p):
            table = (p, plan.n_groups, q_max)
            grid.add(table)
            try:
                bch.check_series_budget(plan, q_max)
            except ValueError as over:
                assert "series updates, over the budget" in str(over)
                refused.add(table)
        assert refused == {t for t in REFUSED_BY_THE_SERIES_COUNT if t[0] == p}
        admitted = {t for t in ADMITTED_OVER_THE_PERMUTATION_COUNT if t[0] == p}
        assert admitted <= grid - refused
