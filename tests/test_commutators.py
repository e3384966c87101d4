"""Nested-commutator enumeration against brute force, bounds, step constant."""

import functools
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mpfkit import commutators, dense
from mpfkit.commutators import (
    commutator_sums,
    factorial_commutator_bound,
    mu_from_alphas,
    mu_window_bound,
    nested_commutator_sum,
    power_commutator_bound,
)
from mpfkit.dense import SectorLeakError
from mpfkit.hamiltonians import heisenberg_chain, long_range_zz_chain, make_spec
from mpfkit.pauli import PauliSum, PauliTerm
from oracles import all_tuples_commutator_sums, full_matrix_norm, window_maxima
from test_trotter import anisotropic_chain, blocked_specs


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


def pair_order_alpha(spec, q: int, norm) -> float:
    """alpha_q summed in the documented order: over the q-tuples with
    g_1 < g_2 in lexicographic order, twice each nest's norm."""
    total = 0.0
    for tup in itertools.product(range(spec.n_groups), repeat=q):
        if tup[0] < tup[1]:
            nest = spec.group_sums[tup[0]]
            for g in tup[1:]:
                nest = spec.group_sums[g].commutator(nest)
            if nest:
                total += 2.0 * norm(nest)
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

    def test_order_one_is_refused(self):
        with pytest.raises(ValueError, match="q must be >= 2"):
            nested_commutator_sum(two_group_toy(), 1)

    def test_one_norm_mode_dominates_exact(self):
        spec = heisenberg_chain(4, field=0.7)
        for q in (2, 3, 4):
            exact = nested_commutator_sum(spec, q, "exact")
            loose = nested_commutator_sum(spec, q, "one-norm")
            assert exact <= loose * (1 + 1e-12), q

    def test_budget_guard(self, monkeypatch):
        spec = heisenberg_chain(4, field=0.5)
        monkeypatch.setattr(commutators, "DEFAULT_TUPLE_BUDGET", 100)
        with pytest.raises(ValueError, match="budget"):
            nested_commutator_sum(spec, 5)

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
            sums, phis = commutator_sums(spec, 4)
            assert list(sums) == [2, 3, 4] and phis == {}
            for q, got in sums.items():
                ref = brute_alpha(spec, q)
                assert got == pytest.approx(ref, rel=1e-9), (spec.n_sites, q)

    def test_frozen_values_keep_their_summation_order(self, monkeypatch):
        # with the full-matrix norm put in for the blocked one, == holds only
        # while alpha_q adds its nests in the documented pair order; in the
        # Heisenberg chain the field commutes with both bond groups, so only
        # the XYZ chain has more than one nonzero pair
        spec = heisenberg_chain(4, field=0.5)
        monkeypatch.setattr(dense.SectorFrame, "norm", lambda _, s, scale: full_matrix_norm(s))
        for s in (spec, anisotropic_chain(4, 1.0, 0.4, 0.8, field=0.6)):
            assert commutator_sums(s, 5)[0] == {
                q: pair_order_alpha(s, q, full_matrix_norm) for q in range(2, 6)
            }
        monkeypatch.undo()
        # values of a search stopped at each order, with the blocked norm
        assert commutator_sums(spec, 5)[0] == {
            2: 27.712812921102042,
            3: 332.55375505322456,
            4: 3103.8350471634285,
            5: 37246.02056596115,
        }
        assert commutator_sums(spec, 5, "one-norm")[0] == {
            2: 48.0,
            3: 576.0,
            4: 5376.0,
            5: 64512.0,
        }


@st.composite
def nests(draw):
    """A spec, a nest of q groups (zero or not), and q."""
    spec = draw(blocked_specs())
    groups = st.integers(0, spec.n_groups - 1)
    tup = draw(st.lists(groups, min_size=1, max_size=4))
    nest = None
    for g in tup:
        h = spec.group_sums[g]
        nest = h if nest is None else h.commutator(nest)
    return spec, nest, len(tup)


def frame_norm(spec, nest: PauliSum, q: int) -> float:
    """The norm of a nest of q groups as the walk reads it: on the groups'
    sector frame at the scale (2 L)^q."""
    frame = dense.SectorFrame.of(spec.group_sums)
    return frame.norm(nest, (2.0 * spec.total_one_norm) ** q)


class TestSectorBlockedNorm:
    @settings(max_examples=60, deadline=None)
    @given(case=nests())
    def test_matches_the_full_matrix_norm(self, case):
        spec, nest, q = case
        assume(nest)
        got = frame_norm(spec, nest, q)
        want = full_matrix_norm(nest)
        assert abs(got - want) <= 1e-13 * want

    def test_table_builds_no_full_matrix(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a full matrix was built")

        monkeypatch.setattr(dense, "from_pauli_sum", refused)
        assert commutator_sums(heisenberg_chain(5, field=0.5), 4)[0][4] > 0.0

    def test_planted_out_of_sector_term_is_refused(self):
        spec = heisenberg_chain(4, field=0.5)
        first, second = spec.group_sums[:2]
        nest = second.commutator(first) + PauliSum.from_label("XIII", 1e-3)
        # its Frobenius norm 4e-3 is far above LEAK_TOL (2 L)^2 = 4.8e-10
        with pytest.raises(SectorLeakError, match="outside the sectors"):
            frame_norm(spec, nest, 2)
        # the CLI maps a ValueError to a configuration error (exit 2)
        assert not issubclass(SectorLeakError, ValueError)

    @pytest.mark.parametrize("q, small", [(2, 1e-3), (3, 1e-3j), (2, 0.7), (3, 0.7j)])
    def test_mixed_sum_is_bounded_by_its_larger_part(self, q, small):
        # a nest has real (q odd) or imaginary (q even) coefficients; the
        # added diagonal sum keeps the magnetization sectors and the mirror
        spec = heisenberg_chain(4, field=0.5)
        first, second = spec.group_sums[:2]
        nest = second.commutator(first)
        if q == 3:
            nest = first.commutator(nest)
        added = (PauliSum.from_label("ZIIZ") + PauliSum.from_label("IZZI")).scale(small)
        mixed = nest + added
        smaller = min(
            sum(abs(c.real) for _, c in mixed.items()),
            sum(abs(c.imag) for _, c in mixed.items()),
        )
        assert smaller > 0.0
        got = frame_norm(spec, mixed, q)
        want = full_matrix_norm(mixed)
        # ||M|| <= ||larger part|| + ||smaller part||_1 <= ||M|| + ||smaller part||_1
        assert want * (1 - 1e-13) <= got <= (want + smaller) * (1 + 1e-13)

    def test_planted_mirror_odd_term_is_refused(self):
        # Z on one end site keeps the magnetization sectors but breaks the
        # reflection that splits the even chain's sectors
        spec = heisenberg_chain(4, field=0.5)
        first, second = spec.group_sums[:2]
        nest = second.commutator(first) + PauliSum.from_label("ZIII", 1e-3)
        with pytest.raises(SectorLeakError, match="mirror-odd"):
            frame_norm(spec, nest, 2)


class TestHalvedTraversal:
    @settings(max_examples=40, deadline=None)
    @given(
        spec=blocked_specs(),
        q_max=st.integers(2, 4),
        mode=st.sampled_from(["exact", "one-norm"]),
    )
    @example(spec=heisenberg_chain(5, coupling=1.0, field=0.0), q_max=4, mode="exact")
    @example(spec=anisotropic_chain(4, 1.0, 0.4, 0.8, field=0.6), q_max=4, mode="exact")
    # one order-5 nest is a rounding residue of about 1e-13 that lies wholly
    # outside the magnetization sectors
    @example(spec=heisenberg_chain(4, coupling=1.1937, field=0.6123), q_max=5, mode="exact")
    def test_table_matches_every_tuple(self, spec, q_max, mode):
        got, _ = commutator_sums(spec, q_max, mode)
        want = all_tuples_commutator_sums(spec, q_max, mode)
        assert list(got) == list(want)
        for q in want:
            assert abs(got[q] - want[q]) <= 1e-14 * want[q], q


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
        exact, _ = commutator_sums(spec, 4)
        loose, _ = commutator_sums(spec, 4, "one-norm")
        for q in range(2, 5):
            factorial = factorial_commutator_bound(
                q, spec.locality, spec.extensiveness, spec.n_sites
            )
            power = power_commutator_bound(q, spec.total_one_norm)
            assert exact[q] <= loose[q] * (1 + 1e-12)
            assert loose[q] <= power * (1 + 1e-12)
            assert exact[q] <= factorial
            assert exact[q] == nested_commutator_sum(spec, q)
            assert loose[q] == nested_commutator_sum(spec, q, "one-norm")

    def test_table_without_exact_column(self):
        # the one-norm table needs no dense matrix, so no dense cap applies
        spec = heisenberg_chain(3)
        loose, _ = commutator_sums(spec, 3, "one-norm", cap=1)
        assert list(loose) == [2, 3]
        with pytest.raises(ValueError, match="exceeds cap"):
            commutator_sums(spec, 3, "exact", cap=1)

    def test_closed_form_values(self):
        assert factorial_commutator_bound(3, 2, 6.0, 4) == pytest.approx(
            2 * 24.0**2 * 24.0
        )
        assert power_commutator_bound(3, 4.5) == pytest.approx(9.0**3)


class TestInsertedSum:
    """alpha_q with the observable O commuted onto each nest once it holds
    pos groups, from the all-tuples oracle."""

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
                got = all_tuples_commutator_sums(spec, q, "exact", (obs, pos))[q]
                ref = self.brute_inserted(spec, obs, q, pos)
                assert got == pytest.approx(ref, rel=1e-9), (q, pos)

    def test_insertion_bound_holds(self):
        spec = heisenberg_chain(4, field=0.5)
        obs = PauliSum.from_label("IXII", 1.0)
        obs_norm = dense.spectral_norm(dense.from_pauli_sum(obs))
        for q in (2, 3):
            spread = 2.0 * spec.locality * spec.extensiveness
            cap = math.factorial(q) * spread**q * obs_norm  # q! (2 k g)^q ||O||
            for pos in range(1, q + 1):
                val = all_tuples_commutator_sums(spec, q, "exact", (obs, pos))[q]
                assert val <= cap, (q, pos)

    def test_commuting_observable_vanishes(self):
        spec = long_range_zz_chain(4, exponent=2.0)
        obs = PauliSum.from_label("ZIII", 2.0)
        assert all_tuples_commutator_sums(spec, 2, "exact", (obs, 1))[2] == 0.0


# the certify chain's table: 6 sites, coupling 1, field 0.8, p = 2, p0 = 5
CERTIFY_MU = 11.99517023557582


@functools.cache
def certify_alphas():
    return commutator_sums(heisenberg_chain(6, field=0.8), 5)[0]


@st.composite
def alpha_tables(draw):
    """(alphas, p, p0): nonnegative tables over [p+1, p0], zeros included."""
    p = draw(st.integers(1, 3))
    p0 = p + draw(st.integers(1, 4))
    value = st.one_of(st.just(0.0), st.floats(0.0, 1e12))
    return {v: draw(value) for v in range(p + 1, p0 + 1)}, p, p0


class TestMu:
    def test_degenerate_window_closed_form(self):
        # one admissible part size: mu is alpha^{1/(p+1)}
        mu = mu_from_alphas({3: 5.0}, p=2, p0=3)
        assert mu == pytest.approx(5.0 ** (1.0 / 3.0), rel=1e-15)

    def test_empty_alphas_give_zero(self):
        assert mu_from_alphas({3: 0.0, 4: 0.0}, p=2, p0=4) == 0.0

    def test_certify_chain_value(self):
        mu = mu_from_alphas(certify_alphas(), 2, 5)
        assert mu == pytest.approx(CERTIFY_MU, rel=1e-12)

    def test_windows_rise_toward_mu(self):
        # m = 4 as for the default J = 2 formula; the windows never
        # converge: each doubling of n_max closes part of the gap
        alphas = certify_alphas()
        mu = mu_from_alphas(alphas, 2, 5)
        maxima = window_maxima(alphas, 2, 4, 5, 32)
        windows = [maxima[n_max - 1] for n_max in (8, 16, 32)]
        assert windows[0] == pytest.approx(11.340764549149819, rel=1e-12)
        assert windows[0] < windows[1] < windows[2] < mu
        assert mu - windows[2] < mu - windows[0]

    @settings(max_examples=60, deadline=None)
    @given(alpha_tables(), st.integers(1, 8))
    @example(({3: 5.0}, 2, 3), 4)
    def test_no_window_exceeds_mu(self, table, m):
        alphas, p, p0 = table
        mu = mu_from_alphas(alphas, p, p0)
        maxima = window_maxima(alphas, p, m, p0, 16)
        for n_max in (4, 8, 16):
            assert maxima[n_max - 1] <= mu * (1 + 1e-12), n_max

    @settings(max_examples=60, deadline=None)
    @given(alpha_tables(), st.sampled_from([1e-30, 0.5, 3.0, 1e30]))
    def test_scaling_alpha_v_by_lambda_v_scales_mu(self, table, lam):
        alphas, p, p0 = table
        scaled = {v: a * lam**v for v, a in alphas.items()}
        # every nonzero alpha stays a finite normal float
        normal = sys.float_info.min
        assume(all(normal <= scaled[v] < math.inf for v, a in alphas.items() if a))
        expected = mu_from_alphas(alphas, p, p0) * lam
        assert mu_from_alphas(scaled, p, p0) == pytest.approx(expected, rel=1e-12)

    def test_enumerated_value_below_window_bound(self):
        spec = heisenberg_chain(4, field=0.5)
        mu = mu_from_alphas(commutator_sums(spec, 4)[0], p=2, p0=4)
        cap = mu_window_bound(
            spec.n_sites, 2, 4, spec.locality, spec.extensiveness
        )
        assert 0.0 < mu <= cap

    def test_missing_alpha_detected(self):
        with pytest.raises(KeyError, match="alpha"):
            mu_from_alphas({3: 1.0}, p=2, p0=4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            mu_from_alphas({3: 1.0}, p=2, p0=2)
        with pytest.raises(ValueError):
            mu_from_alphas({1: 1.0}, p=0, p0=1)
        with pytest.raises(ValueError):
            mu_window_bound(4, 2, 2, 2, 6.0)

    def test_window_bound_value(self):
        # max(3 * 4^{1/3}, e^3 * 4) = e^3 * 4; times 4 k g
        expected = 4.0 * math.e**3 * 4 * 2 * 6.0
        assert mu_window_bound(4, 2, 4, 2, 6.0) == pytest.approx(expected)
