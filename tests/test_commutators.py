"""Nested-commutator enumeration against brute force, bounds, window constant."""

import itertools
import math

import numpy as np
import pytest

from mpfkit import dense
from mpfkit.commutators import (
    commutator_sums,
    factorial_commutator_bound,
    inserted_commutator_sum,
    insertion_bound,
    mu_from_alphas,
    mu_window_bound,
    nested_commutator_sum,
    power_commutator_bound,
)
from mpfkit.hamiltonians import heisenberg_chain, long_range_zz_chain, make_spec
from mpfkit.pauli import PauliSum, PauliTerm


def two_group_toy():
    """H1 = XX, H2 = Z1 + Z2 on two sites."""
    return make_spec(
        2,
        [
            (PauliTerm.from_label("XX", 1.0), 1),
            (PauliTerm.from_label("ZI", 1.0), 2),
            (PauliTerm.from_label("IZ", 1.0), 2),
        ],
    )


def brute_alpha(spec, q: int) -> float:
    """Independent enumeration with plain numpy loops."""
    mats = [dense.from_pauli_sum(s) for s in spec.group_sums]
    total = 0.0
    for tup in itertools.product(range(spec.n_groups), repeat=q):
        m = mats[tup[0]]
        for g in tup[1:]:
            m = mats[g] @ m - m @ mats[g]
        total += np.linalg.norm(m, ord=2)
    return total


class TestNestedSum:
    def test_toy_value_is_eight(self):
        # [Z1+Z2, XX] = 2i(YX + XY), norm 4; both orderings contribute
        assert nested_commutator_sum(two_group_toy(), 2) == pytest.approx(8.0)

    def test_matches_brute_force(self):
        specs = [
            two_group_toy(),
            heisenberg_chain(3, field=0.5),
            heisenberg_chain(4, field=0.0),
        ]
        for spec in specs:
            for q in (2, 3):
                got = nested_commutator_sum(spec, q)
                ref = brute_alpha(spec, q)
                assert got == pytest.approx(ref, rel=1e-9), (spec.n_sites, q)

    def test_commuting_spec_vanishes(self):
        spec = long_range_zz_chain(5, exponent=1.5)
        for q in (2, 3, 4):
            assert nested_commutator_sum(spec, q) == 0.0

    def test_order_one_is_sum_of_group_norms(self):
        spec = two_group_toy()
        got = nested_commutator_sum(spec, 1)
        assert got == pytest.approx(1.0 + 2.0)

    def test_one_norm_mode_dominates_exact(self):
        spec = heisenberg_chain(4, field=0.7)
        for q in (2, 3, 4):
            exact = nested_commutator_sum(spec, q, "exact")
            loose = nested_commutator_sum(spec, q, "one-norm")
            assert exact <= loose * (1 + 1e-12), q

    def test_budget_guard(self):
        spec = heisenberg_chain(4, field=0.5)
        with pytest.raises(ValueError, match="budget"):
            nested_commutator_sum(spec, 5, budget=100)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="norm mode"):
            nested_commutator_sum(two_group_toy(), 2, mode="fro")


class TestCommutatorSums:
    def test_one_search_matches_brute_force_at_every_order(self):
        specs = [
            two_group_toy(),
            heisenberg_chain(3, field=0.5),
            heisenberg_chain(4, field=0.0),
        ]
        for spec in specs:
            sums = commutator_sums(spec, 4)
            assert list(sums) == [2, 3, 4]
            sums[1] = nested_commutator_sum(spec, 1)
            for q, got in sums.items():
                ref = brute_alpha(spec, q)
                assert got == pytest.approx(ref, rel=1e-9), (spec.n_sites, q)

    def test_frozen_values_keep_their_summation_order(self):
        # values of a search stopped at each order; == holds only while
        # every alpha_q adds its nests in lexicographic tuple order
        spec = heisenberg_chain(4, field=0.5)
        assert nested_commutator_sum(spec, 1) == 11.0
        assert nested_commutator_sum(spec, 1, "one-norm") == 11.0
        assert commutator_sums(spec, 5) == {
            2: 27.71281292110204,
            3: 332.55375505322445,
            4: 3103.835047163428,
            5: 37246.02056596114,
        }
        assert commutator_sums(spec, 5, "one-norm") == {
            2: 48.0,
            3: 576.0,
            4: 5376.0,
            5: 64512.0,
        }


class TestClosedFormBounds:
    def test_factorial_bound_dominates(self):
        for n, field in ((3, 0.5), (4, 0.0), (5, 0.9)):
            spec = heisenberg_chain(n, field=field)
            for q in (2, 3, 4):
                alpha = nested_commutator_sum(spec, q)
                cap = factorial_commutator_bound(
                    q, spec.locality, spec.extensiveness, spec.n_sites
                )
                assert alpha <= cap, (n, q)

    def test_power_bound_dominates_one_norm(self):
        for n in (3, 4, 5):
            spec = heisenberg_chain(n, field=0.3)
            for q in (2, 3, 4):
                loose = nested_commutator_sum(spec, q, "one-norm")
                cap = power_commutator_bound(q, spec.total_one_norm)
                assert loose <= cap, (n, q)

    def test_table_columns_are_ordered(self):
        spec = heisenberg_chain(4, field=0.5)
        exact = commutator_sums(spec, 4)
        loose = commutator_sums(spec, 4, "one-norm")
        for q in range(2, 5):
            factorial = factorial_commutator_bound(
                q, spec.locality, spec.extensiveness, spec.n_sites
            )
            power = power_commutator_bound(q, spec.total_one_norm)
            assert exact[q] <= loose[q] * (1 + 1e-12)
            assert loose[q] <= power * (1 + 1e-12)
            assert exact[q] <= factorial
            assert exact[q] == nested_commutator_sum(spec, q)

    def test_table_without_exact_column(self):
        # the one-norm table needs no dense matrix, so no dense cap applies
        spec = heisenberg_chain(3)
        loose = commutator_sums(spec, 3, "one-norm", cap=1)
        assert list(loose) == [2, 3]
        with pytest.raises(ValueError, match="exceeds cap"):
            commutator_sums(spec, 3, "exact", cap=1)

    def test_closed_form_values(self):
        assert factorial_commutator_bound(3, 2, 6.0, 4) == pytest.approx(
            2 * 24.0**2 * 24.0
        )
        assert power_commutator_bound(3, 4.5) == pytest.approx(9.0**3)


class TestInsertedSum:
    def brute_inserted(self, spec, obs, q: int, pos: int) -> float:
        mats = [dense.from_pauli_sum(s) for s in spec.group_sums]
        o = dense.from_pauli_sum(obs)
        total = 0.0
        for tup in itertools.product(range(spec.n_groups), repeat=q):
            m = mats[tup[0]]
            consumed = 1
            if consumed == pos:
                m = o @ m - m @ o
            for g in tup[1:]:
                m = mats[g] @ m - m @ mats[g]
                consumed += 1
                if consumed == pos:
                    m = o @ m - m @ o
            total += np.linalg.norm(m, ord=2)
        return total

    def test_matches_brute_force_all_positions(self):
        spec = heisenberg_chain(3, field=0.5)
        obs = PauliSum.from_label("XII", 0.7)
        for q in (2, 3):
            for pos in range(1, q + 1):
                got = inserted_commutator_sum(spec, obs, q, pos)
                ref = self.brute_inserted(spec, obs, q, pos)
                assert got == pytest.approx(ref, rel=1e-9), (q, pos)

    def test_insertion_bound_holds(self):
        spec = heisenberg_chain(4, field=0.5)
        obs = PauliSum.from_label("IXII", 1.0)
        obs_norm = dense.spectral_norm(dense.from_pauli_sum(obs))
        for q in (2, 3):
            cap = insertion_bound(q, spec.locality, spec.extensiveness, obs_norm)
            for pos in range(1, q + 1):
                val = inserted_commutator_sum(spec, obs, q, pos)
                assert val <= cap, (q, pos)

    def test_commuting_observable_vanishes(self):
        spec = long_range_zz_chain(4, exponent=2.0)
        obs = PauliSum.from_label("ZIII", 2.0)
        assert inserted_commutator_sum(spec, obs, 2, 1) == 0.0

    def test_position_validation(self):
        spec = heisenberg_chain(3)
        obs = PauliSum.from_label("XII")
        with pytest.raises(ValueError, match="insert_after"):
            inserted_commutator_sum(spec, obs, 2, 3)


class TestMu:
    def test_degenerate_window_closed_form(self):
        # single admissible part size: every candidate collapses to
        # alpha^{1/(p+1)} and the witness is the smallest (q, n)
        a3 = 5.0
        res = mu_from_alphas({3: a3}, p=2, m=4, p0=3, n_max=8)
        assert res.value == pytest.approx(a3 ** (1.0 / 3.0))
        assert res.witness == (5, 2)
        assert res.converged

    def test_empty_alphas_give_zero(self):
        res = mu_from_alphas({3: 0.0, 4: 0.0}, p=2, m=4, p0=4)
        assert res.value == 0.0
        assert res.witness is None
        assert res.converged

    def test_window_enlargement_stability(self):
        spec = heisenberg_chain(4, field=0.5)
        alphas = commutator_sums(spec, 4)
        base = mu_from_alphas(alphas, p=2, m=4, p0=4, n_max=8)
        wider = mu_from_alphas(alphas, p=2, m=4, p0=4, n_max=10)
        if base.converged:
            assert wider.value <= base.value * (1 + 1e-9)
            assert wider.value >= base.value * (1 - 1e-9)

    def test_enumerated_value_below_window_bound(self):
        spec = heisenberg_chain(4, field=0.5)
        res = mu_from_alphas(commutator_sums(spec, 4), p=2, m=4, p0=4)
        cap = mu_window_bound(
            spec.n_sites, 2, 4, spec.locality, spec.extensiveness
        )
        assert res.value <= cap

    def test_missing_alpha_detected(self):
        with pytest.raises(KeyError, match="alpha"):
            mu_from_alphas({3: 1.0}, p=2, m=2, p0=4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            mu_from_alphas({3: 1.0}, p=2, m=2, p0=2)
        with pytest.raises(ValueError):
            mu_window_bound(4, 2, 2, 2, 6.0)

    def test_window_bound_value(self):
        # max(3 * 4^{1/3}, e^3 * 4) = e^3 * 4; times 4 k g
        expected = 4.0 * math.e**3 * 4 * 2 * 6.0
        assert mu_window_bound(4, 2, 4, 2, 6.0) == pytest.approx(expected)
