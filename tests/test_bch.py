"""Effective-generator coefficients: conventions, vanishing, bounds, oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpfkit import bch, dense
from mpfkit.bch import (
    check_truncated_generator,
    compute_phi,
    compute_phi_range,
    effective_generator,
    phi_extensiveness_bound,
    phi_locality_bound,
    phi_norm_bound,
    phi_report,
    truncation_defect,
)
from mpfkit.bch import _perm_weights, _word_weights
from mpfkit.commutators import nested_commutator_sum
from mpfkit.hamiltonians import heisenberg_chain, long_range_zz_chain, make_spec
from mpfkit.pauli import PauliSum, PauliTerm
from mpfkit.trotter import TrotterEvaluator, geometric_grid
from mpfkit.formulas import SectorLeakError, build_plan
from oracles import (
    composition_phi,
    composition_word_weights,
    compositions,
    fraction_perm_weights,
    full_matrix_norm,
    nest_series_term,
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

    def test_float_built_generator_passes_the_leak_rule(self):
        # Phi_q breaks the mirror symmetry and the sectors by rounding only
        spec = heisenberg_chain(6, coupling=1.05, field=0.8)
        plan = build_plan(spec.n_groups, 2)
        ev = TrotterEvaluator(spec, plan)
        assert ev.frame.reflected
        phis = compute_phi_range(plan, spec, 5)
        for q, phi in phis.items():
            assert dense.mirror_odd_norm(phi) <= 1e-13, q
        defect = truncation_defect(ev, phis, 0.1, 5)
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
        phis = compute_phi_range(plan, spec, 3)
        phis[3] = phis[3] + PauliSum.from_label(label, 1e-3)
        with pytest.raises(SectorLeakError, match=match):
            truncation_defect(ev, phis, 0.1, 3)
        assert not issubclass(SectorLeakError, ValueError)


# -- word-level weight aggregation against the per-composition oracle -------


def recursive_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def fraction_oracle_phi(plan, spec, q):
    """compute_phi with the exact permutation weights summed per word, the
    words taken in the order the word recursion yields them."""
    agg: dict[tuple[int, ...], float] = {}
    for word, weight in _word_weights(plan.merged_stages()[::-1], q).items():
        local: dict[tuple[int, ...], Fraction] = {}
        for sigma, w in fraction_perm_weights(q):
            key = tuple(word[i] for i in sigma)
            local[key] = local.get(key, Fraction(0)) + w
        for key, fr in local.items():
            if fr:
                agg[key] = agg.get(key, 0.0) + float(fr) * weight
    return nest_series_term(spec, q, agg)


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
# (p, q), with the word weights summed by the prefix recursion
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
        (6, 6): -0.007683536370017161, (5, 5): -0.024791998465440952,
        (0, 6): -0.007683536370017161, (0, 5): -0.024791998465440952,
        (6, 0): -0.007683536370017161, (5, 0): -0.024791998465440952,
        (3, 3): 0.03247553483545811, (0, 3): 0.03247553483545811,
        (3, 0): 0.03247553483545811,
    },
}

# Phi_5 of the fourth-order plan on heisenberg_chain(4, field=0.0), the
# coefficient the `series` benchmark workload spends its time on
FROZEN_PHI_SERIES = {
    (6, 6): -0.1150269402625677, (5, 5): -0.03966719754470566,
    (9, 6): 0.06495106967091617, (5, 10): -0.06495106967091616,
    (0, 6): -0.1150269402625677, (0, 5): -0.03966719754470566,
    (15, 6): 0.06495106967091617, (15, 10): -0.06495106967091616,
    (15, 5): -0.06495106967091616, (15, 9): 0.06495106967091617,
    (10, 5): -0.06495106967091616, (6, 9): 0.06495106967091617,
    (10, 10): -0.03966719754470566, (0, 10): -0.03966719754470566,
    (0, 9): -0.014875199079264637, (9, 9): -0.014875199079264637,
    (6, 0): -0.1150269402625677, (5, 0): -0.03966719754470566,
    (9, 15): 0.06495106967091617, (5, 15): -0.06495106967091616,
    (10, 15): -0.06495106967091616, (6, 15): 0.06495106967091617,
    (10, 0): -0.03966719754470566, (9, 0): -0.014875199079264637,
    (3, 3): 0.10461826721562183, (0, 3): 0.10461826721562183,
    (12, 12): 0.10461826721562183, (0, 12): 0.10461826721562183,
    (3, 0): 0.10461826721562183, (12, 0): 0.10461826721562183,
}


class TestWordAggregation:
    @settings(max_examples=30, deadline=None)
    @given(spec=three_site_specs(), p=st.sampled_from([1, 2, 4]), q=st.integers(1, 5))
    @example(spec=heisenberg_chain(3, coupling=-0.9, field=0.0), p=4, q=5)
    @example(spec=heisenberg_chain(3, coupling=1.3, field=0.7), p=4, q=4)
    def test_matches_the_fraction_oracle(self, spec, p, q):
        plan = build_plan(spec.n_groups, p)
        mine = dict(compute_phi(plan, spec, q).items())
        assert mine == dict(fraction_oracle_phi(plan, spec, q).items())

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
        # against the exact Fraction sums of the float stage fractions
        slots = build_plan(n_groups, p).merged_stages()[::-1]
        for q in range(1, 6):
            exact = composition_word_weights(slots, q, exact=True)
            mine = _word_weights(slots, q)
            per_composition = composition_word_weights(slots, q)
            assert mine.keys() == exact.keys() == per_composition.keys()

            def worst(weights):
                return max(abs(Fraction(weights[w]) - exact[w]) for w in exact)

            assert worst(mine) <= worst(per_composition), q

    @pytest.mark.parametrize("q", range(1, 9))
    def test_integer_weights_are_the_fractions(self, q):
        den, weights = _perm_weights(q)
        oracle = fraction_perm_weights(q)
        assert [sigma for sigma, _ in weights] == [sigma for sigma, _ in oracle]
        assert all(Fraction(n, den) == w for (_, n), (_, w) in zip(weights, oracle))

    @pytest.mark.parametrize(
        "spec, p",
        [
            (heisenberg_chain(6, coupling=1.1, field=0.8), 2),
            (heisenberg_chain(4, coupling=0.9, field=0.0), 4),
        ],
        ids=["certify", "series"],
    )
    def test_integer_weights_keep_every_item_bitwise(self, monkeypatch, spec, p):
        # with the Fraction weights over the denominator 1, compute_phi turns
        # each summed Fraction into a float as it did before the integer sums
        plan = build_plan(spec.n_groups, p)
        got = [list(compute_phi(plan, spec, q).items()) for q in range(2, 6)]
        monkeypatch.setattr(bch, "_perm_weights", lambda q: (1, fraction_perm_weights(q)))
        want = [list(compute_phi(plan, spec, q).items()) for q in range(2, 6)]
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


def budget_grid(p):
    """(plan, q_max) for 1 to 15 groups and q_max 2..13 within the tuple budget."""
    for n_groups in range(1, 16):
        plan = build_plan(n_groups, p)
        for q_max in range(2, 14):
            if n_groups**q_max <= 10**6:
                yield plan, q_max


# (p, n_groups, q_max) over the per-word walk budget whose walks and
# relabels, counted as compute_phi makes them, fit in the budget
ADMITTED_OVER_THE_PER_WORD_COUNT = {
    (2, 4, 8), (2, 5, 7), (2, 6, 7), (2, 7, 7), (2, 9, 6), (2, 10, 6),
    (4, 4, 7), (4, 6, 6),
}


class TestCompositionBudget:
    def test_checked_before_any_coefficient(self, monkeypatch):
        # two merged stages over two groups: before the first the empty
        # prefix makes q+1 updates, before the second each prefix 1^l, l < q,
        # makes q-l+1: 3 + 5 for q = 2 and 4 + 9 for q = 3
        plan = build_plan(2, 1)
        monkeypatch.setattr(bch, "DEFAULT_RECURSION_BUDGET", 21)
        assert sorted(compute_phi_range(plan, toy_spec(), 3)) == [2, 3]
        monkeypatch.setattr(bch, "DEFAULT_RECURSION_BUDGET", 20)
        monkeypatch.setattr(bch, "compute_phi", None)
        with pytest.raises(
            ValueError, match="21 word-recursion updates, over the budget 20"
        ):
            compute_phi_range(plan, toy_spec(), 3)

    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    @pytest.mark.parametrize("n_groups", [1, 2, 3])
    def test_counts_the_replayed_updates(self, monkeypatch, n_groups, p):
        # replay the recursion on word sets alone, counting each (prefix, k);
        # words of length q leave the prefixes
        plan = build_plan(n_groups, p)
        slots = plan.merged_stages()[::-1]
        updates = 0
        for q in range(2, 6):
            prefixes, words = {()}, set()
            for g, _ in slots:
                updates += sum(q - len(w) + 1 for w in prefixes)
                grown = {w + (g,) * k for w in prefixes for k in range(q - len(w) + 1)}
                words |= {w for w in grown if len(w) == q}
                prefixes = grown - words
            assert words == set(_word_weights(slots, q)), q
        monkeypatch.setattr(bch, "DEFAULT_RECURSION_BUDGET", updates)
        bch.check_series_budget(plan, 5)
        monkeypatch.setattr(bch, "DEFAULT_RECURSION_BUDGET", updates - 1)
        with pytest.raises(ValueError, match=f"make {updates} word-recursion"):
            bch.check_series_budget(plan, 5)


class TestPermutationBudget:
    def test_counted_before_any_coefficient(self, monkeypatch):
        # two groups on a Strang plan merge into three stages, 1 2 1: order q
        # walks q! weights once per pattern, 1 + (q-1) + C(q-1, 2) of them,
        # and relabels the distinct rearrangements of each word
        spec = heisenberg_chain(4, field=0.0)
        plan = build_plan(spec.n_groups, 2)
        orders = []

        def stub(plan, spec, q):
            orders.append(q)
            return PauliSum(spec.n_sites)

        monkeypatch.setattr(bch, "compute_phi", stub)
        assert sorted(compute_phi_range(plan, spec, 9)) == list(range(2, 10))
        assert orders == list(range(2, 10))
        orders.clear()
        with pytest.raises(
            ValueError, match="walk 185693674 permutation weights, over the budget"
        ):
            compute_phi_range(plan, spec, 10)
        assert orders == []

    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("n_groups", [1, 2, 3, 4])
    def test_counts_the_walks_and_relabels(self, monkeypatch, n_groups, p):
        # q! stored weights, q! per pattern of the words and q!/prod_j c_j!
        # per word; compute_phi's relabels, the pattern's nonzero keys, are
        # at most that
        plan = build_plan(n_groups, p)
        slots = plan.merged_stages()[::-1]
        walked = made = 0
        for q in range(2, 6):
            relabels: dict[tuple[int, ...], int] = {}  # per pattern
            for w in _word_weights(slots, q):
                pattern = tuple(list(dict.fromkeys(w)).index(g) for g in w)
                if pattern not in relabels:
                    keys = {}
                    for sigma, n in _perm_weights(q)[1]:
                        key = tuple(pattern[i] for i in sigma)
                        keys[key] = keys.get(key, 0) + n
                    relabels[pattern] = sum(1 for n in keys.values() if n)
                made += relabels[pattern]
                walked += math.factorial(q) // math.prod(
                    math.factorial(pattern.count(j)) for j in set(pattern)
                )
            walked += math.factorial(q) * (1 + len(relabels))
            made += math.factorial(q) * (1 + len(relabels))
        assert made <= walked
        monkeypatch.setattr(bch, "DEFAULT_PERMUTATION_BUDGET", walked)
        bch.check_series_budget(plan, 5)
        monkeypatch.setattr(bch, "DEFAULT_PERMUTATION_BUDGET", walked - 1)
        with pytest.raises(ValueError, match=f"walk {walked} permutation weights"):
            bch.check_series_budget(plan, 5)

    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    def test_allows_every_table_the_composition_counts_allowed(self, p):
        for plan, q_max in budget_grid(p):
            comps, per_word = parent_counts(plan, q_max)
            if comps <= 10**6 and per_word <= bch.DEFAULT_PERMUTATION_BUDGET:
                bch.check_series_budget(plan, q_max)

    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    def test_refuses_the_tables_the_per_word_count_refused(self, p):
        # except the listed ones, which make fewer walks and relabels than
        # the budget allows
        admitted = set()
        for plan, q_max in budget_grid(p):
            if parent_counts(plan, q_max)[1] > bch.DEFAULT_PERMUTATION_BUDGET:
                try:
                    bch.check_series_budget(plan, q_max)
                except ValueError as refused:
                    assert "over the budget" in str(refused)
                else:
                    admitted.add((p, plan.n_groups, q_max))
        assert admitted == {t for t in ADMITTED_OVER_THE_PER_WORD_COUNT if t[0] == p}
