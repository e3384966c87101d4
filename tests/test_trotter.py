"""Plan construction, blocked evaluation and convergence order of the product formulas."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpfkit import dense
from mpfkit.bch import check_truncated_generator
from mpfkit.commutators import commutator_sums
from mpfkit.formulas import build_mpf, build_plan, loglog_slope, suzuki_fractions
from mpfkit.hamiltonians import (
    HamiltonianSpec,
    heisenberg_chain,
    long_range_zz_chain,
    make_spec,
)
from mpfkit.mpf import MPFEvaluator
from mpfkit.pauli import PauliTerm
from mpfkit.trotter import TrotterEvaluator, difference_norm, geometric_grid

import oracles
from oracles import (
    FullMatrixEvaluator,
    error_sweep,
    exact_unitary,
    expm_minus_i,
    invariant_sectors,
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
        assert np.max(np.abs(u @ u.conj().T - np.eye(ev.frame.dim))) <= 1e-12

    def test_first_order_ordering_convention(self):
        # stages[0] must act first: T(tau) = e^{-iH2 tau} e^{-iH1 tau}
        spec = heisenberg_chain(3, field=0.5)
        plan = build_plan(spec.n_groups, 1)
        ev = TrotterEvaluator(spec, plan)
        u = ev.formula_unitary(0.37)
        expected = np.eye(ev.frame.dim, dtype=complex)
        for g in range(1, spec.n_groups + 1):
            stage = expm_minus_i(dense.from_pauli_sum(spec.group_sums[g - 1]), 0.37)
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
        errs = error_sweep(ev, taus)
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


def anisotropic_chain(
    n_sites: int, jx: float, jy: float, jz: float = 1.0, field: float = 0.0
) -> HamiltonianSpec:
    """XYZ chain grouped like the Heisenberg chain: even bonds, odd bonds, field.

    With ``jx != jy`` the bonds change total magnetization by two, so only
    the parity of the number of flipped spins is conserved.
    """
    tagged = []
    for b in range(n_sites - 1):
        pair = (1 << b) | (1 << (b + 1))
        for x_mask, z_mask, c in ((pair, 0, jx), (pair, pair, jy), (0, pair, jz)):
            tagged.append((PauliTerm(n_sites, x_mask, z_mask, complex(c)), 1 + b % 2))
    if field:
        field_group = 3 if n_sites > 2 else 2
        for s in range(n_sites):
            tagged.append((PauliTerm(n_sites, 0, 1 << s, complex(field)), field_group))
    return make_spec(n_sites, tagged)


def single_group_chain(n_sites: int, coupling: float, field: float) -> HamiltonianSpec:
    """Every term of a Heisenberg chain in one group: the plan is exact."""
    spec = heisenberg_chain(n_sites, coupling=coupling, field=field)
    return make_spec(n_sites, [(t, 1) for t, _ in spec.terms])


def one_end_field_chain(n_sites: int, coupling: float, field: float) -> HamiltonianSpec:
    """A Heisenberg chain with a field on site 0 only: no mirror symmetry."""
    spec = heisenberg_chain(n_sites, coupling=coupling)
    end = PauliTerm(n_sites, 0, 1, complex(field))
    return make_spec(n_sites, [*spec.terms, (end, spec.n_groups + 1)])


def block_mask(ev: TrotterEvaluator) -> np.ndarray:
    """True on the entries inside the evaluator's sectors."""
    mask = np.zeros((ev.frame.dim, ev.frame.dim), dtype=bool)
    for idx in ev.frame.sectors:
        mask[idx[:, :, None], idx[:, None, :]] = True
    return mask


def sector_sizes(ev: TrotterEvaluator) -> list[int]:
    return sorted(idx.shape[1] for idx in ev.frame.sectors for _ in idx)


class TestInvariantSectors:
    @pytest.mark.parametrize(
        "spec",
        [
            heisenberg_chain(6, coupling=0.9, field=0.8),
            heisenberg_chain(5, field=0.4, periodic=True),
            anisotropic_chain(5, 1.0, 0.6, 0.3, field=0.5),
            long_range_zz_chain(5, 1.5),
            single_group_chain(4, 1.1, 0.3),
        ],
    )
    def test_every_matrix_is_block_diagonal(self, spec):
        ev = TrotterEvaluator(spec, build_plan(spec.n_groups, 2))
        outside = ~block_mask(ev)
        sums = [*spec.group_sums, spec.full_sum()]
        for m in (dense.from_pauli_sum(s) for s in sums):
            assert np.all(m[outside] == 0.0)
        # the sectors partition the basis
        assert sorted(np.concatenate([idx.ravel() for idx in ev.frame.sectors])) == list(
            range(ev.frame.dim)
        )

    def test_heisenberg_sectors_are_magnetization_shells(self):
        spec = heisenberg_chain(8, field=0.8)
        ev = TrotterEvaluator(spec, build_plan(spec.n_groups, 2))
        assert sector_sizes(ev) == sorted(math.comb(8, m) for m in range(9))
        for idx in ev.frame.sectors:
            for row in idx:
                assert len({int(b).bit_count() for b in row}) == 1

    def test_anisotropic_chain_keeps_only_parity(self):
        spec = anisotropic_chain(6, 1.0, 0.5, 0.7, field=0.3)
        ev = TrotterEvaluator(spec, build_plan(spec.n_groups, 2))
        assert sector_sizes(ev) == [32, 32]

    def test_diagonal_hamiltonian_splits_into_basis_states(self):
        spec = long_range_zz_chain(6, 1.0)
        ev = TrotterEvaluator(spec, build_plan(spec.n_groups, 2))
        assert sector_sizes(ev) == [1] * 64


def basis_sizes(ev: TrotterEvaluator) -> list[int]:
    return sorted(p.index.shape[1] for p in ev.frame.basis for _ in p.index)


class TestReflectionSplit:
    def test_even_chain_splits_each_shell_by_parity(self):
        spec = heisenberg_chain(8, field=0.8)
        ev = TrotterEvaluator(spec, build_plan(spec.n_groups, 2))
        assert ev.frame.reflected
        # shell m of C(8, m) states holds C(4, m / 2) palindromes for even m
        expected = []
        for m in range(9):
            pal = math.comb(4, m // 2) if m % 2 == 0 else 0
            pairs = (math.comb(8, m) - pal) // 2
            expected += [pairs + pal] + ([pairs] if pairs else [])
        assert basis_sizes(ev) == sorted(expected)
        assert sorted(set(basis_sizes(ev))) == [1, 4, 12, 16, 28, 32, 38]
        for p in ev.frame.basis:
            assert np.all(p.index <= p.mirror)
            assert np.all(p.sign[np.any(p.index == p.mirror, axis=1)] == 1.0)

    @pytest.mark.parametrize(
        "spec",
        [
            heisenberg_chain(7, field=0.8),
            one_end_field_chain(6, 1.0, 0.7),
            anisotropic_chain(5, 1.0, 0.5, 0.7, field=0.3),
        ],
        ids=["odd", "one-end-field", "odd-xyz"],
    )
    def test_asymmetric_specs_keep_the_sectors(self, spec):
        ev = TrotterEvaluator(spec, build_plan(spec.n_groups, 2))
        assert not ev.frame.reflected
        assert len(ev.frame.basis) == len(ev.frame.sectors)
        for p, idx in zip(ev.frame.basis, ev.frame.sectors):
            assert np.array_equal(p.index, idx) and np.array_equal(p.mirror, idx)
            assert np.all(p.sign == 1.0)

    def test_sectors_mapped_onto_others_stay_whole(self):
        # every 1 x 1 sector of the diagonal chain maps onto its mirror
        # state's; only the palindromes map onto themselves
        spec = long_range_zz_chain(6, 1.5)
        ev = TrotterEvaluator(spec, build_plan(spec.n_groups, 2))
        assert ev.frame.reflected
        assert basis_sizes(ev) == [1] * 64
        (p,) = ev.frame.basis
        assert sorted(p.index.ravel()) == list(range(64))
        assert np.all(p.sign == 1.0)
        assert np.sum(p.index != p.mirror) == 0

    def test_step_keeps_only_the_end_eigenvectors(self):
        spec = heisenberg_chain(6, field=0.8)
        ev = TrotterEvaluator(spec, build_plan(spec.n_groups, 2))
        # stages 1, 2, 3, 2, 1: group 1's eigenvectors and W(1, 2), W(2, 3)
        for facts, transitions in zip(ev._group_facts, ev._transitions):
            assert [f.vecs is not None for f in facts] == [True, False, False]
            assert sorted(transitions) == [(0, 1), (1, 2)]


@st.composite
def blocked_specs(draw):
    n = draw(st.integers(2, 6))
    kind = draw(
        st.sampled_from(
            ["heisenberg", "periodic", "zz", "single", "anisotropic", "one-end"]
        )
    )
    coupling = draw(st.floats(0.3, 1.5)) * draw(st.sampled_from([-1.0, 1.0]))
    field = draw(st.floats(-1.0, 1.0))
    if kind == "heisenberg":
        return heisenberg_chain(n, coupling=coupling, field=field)
    if kind == "periodic":
        return heisenberg_chain(max(n, 3), coupling=coupling, field=field, periodic=True)
    if kind == "one-end":
        return one_end_field_chain(n, coupling, field or 0.5)
    if kind == "zz":
        return long_range_zz_chain(n, draw(st.floats(0.5, 3.0)), coupling)
    if kind == "single":
        return single_group_chain(n, coupling, field)
    jy = coupling + draw(st.floats(0.2, 1.0))
    return anisotropic_chain(n, coupling, jy, draw(st.floats(-1.0, 1.0)), field)


class TestMaskBuiltBlocks:
    @settings(max_examples=40, deadline=None)
    @given(spec=blocked_specs())
    # XX + YY cancels exactly on the aligned pairs of each bond; the XYZ
    # chain with XX != YY leaves every entry of a bond nonzero
    @example(spec=heisenberg_chain(5, coupling=1.0, field=0.0))
    @example(spec=anisotropic_chain(4, 1.0, 0.4, 0.8, field=0.6))
    def test_blocks_and_sectors_match_the_full_matrices(self, spec):
        ev = TrotterEvaluator(spec, build_plan(spec.n_groups, 2))
        sums = [*spec.group_sums, spec.full_sum()]
        mats = [dense.from_pauli_sum(s) for s in sums]
        expected = invariant_sectors(mats)
        assert [idx.shape for idx in ev.frame.sectors] == [idx.shape for idx in expected]
        for got, want in zip(ev.frame.sectors, expected):
            assert np.array_equal(got, want)
        for s, m in zip(sums, mats):
            diags = dense._stacked(dense.permuted_diagonals(s), ev.frame.dim)
            for idx in ev.frame.sectors:
                b = dense._fill(*diags, idx, idx)
                assert b.tobytes() == m[idx[:, :, None], idx[:, None, :]].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(spec=blocked_specs())
    @example(spec=heisenberg_chain(6, coupling=0.9, field=0.8))
    @example(spec=heisenberg_chain(4, coupling=1.1, field=0.4, periodic=True))
    @example(spec=anisotropic_chain(6, 1.0, 0.4, 0.8, field=0.6))
    def test_parity_blocks_are_the_rotated_matrices(self, spec):
        # each parity block equals Q^dag m Q on its slice of the explicit
        # rotation; a wrong sign or a missing palindrome weight breaks it
        ev = TrotterEvaluator(spec, build_plan(spec.n_groups, 2))
        q = oracles.parity_rotation(ev)
        assert np.max(np.abs(q.T @ q - np.eye(ev.frame.dim))) <= 1e-15
        for s in [*spec.group_sums, spec.full_sum()]:
            m = dense.from_pauli_sum(s)
            blocks = ev.frame.blocks(s, 2.0 * spec.total_one_norm)
            start = 0
            for b in (b for stack in blocks for b in stack):
                qs = q[:, start : start + len(b)]
                assert np.max(np.abs(qs.T @ m @ qs - b)) <= 1e-13
                start += len(b)


class TestBlockedAgainstFullMatrix:
    @settings(max_examples=40, deadline=None)
    @given(
        spec=blocked_specs(),
        p=st.sampled_from([1, 2, 4]),
        tau=st.floats(-0.8, 0.8),
        j_count=st.integers(1, 3),
    )
    @example(spec=heisenberg_chain(4, coupling=1.0, field=0.8), p=4, tau=-0.3, j_count=3)
    @example(spec=anisotropic_chain(4, 1.0, 0.4, 0.8, field=0.6), p=2, tau=0.5, j_count=2)
    @example(spec=anisotropic_chain(5, 0.7, 1.2, -0.4, field=0.3), p=4, tau=0.6, j_count=3)
    # even chains split by reflection; the rest keep their sectors
    @example(spec=heisenberg_chain(4, coupling=0.9, field=0.8), p=2, tau=0.7, j_count=3)
    @example(spec=heisenberg_chain(6, coupling=1.1, field=0.8), p=2, tau=-0.6, j_count=3)
    @example(spec=heisenberg_chain(8, coupling=1.0, field=0.8), p=2, tau=0.5, j_count=2)
    @example(spec=heisenberg_chain(6, 0.8, 0.5, periodic=True), p=4, tau=0.4, j_count=2)
    @example(spec=anisotropic_chain(6, 1.0, 0.4, 0.8, field=0.6), p=2, tau=0.5, j_count=3)
    @example(spec=heisenberg_chain(5, coupling=1.0, field=0.8), p=2, tau=0.5, j_count=3)
    @example(spec=long_range_zz_chain(6, 1.5), p=2, tau=0.7, j_count=2)
    @example(spec=one_end_field_chain(6, 1.0, 0.7), p=2, tau=0.6, j_count=3)
    def test_propagators_match_entrywise(self, spec, p, tau, j_count):
        plan = build_plan(spec.n_groups, p)
        ev = TrotterEvaluator(spec, plan)
        oracle = FullMatrixEvaluator(spec, plan)
        formula, exact = oracle.formula_unitary(tau), oracle.exact_unitary(tau)
        assert np.max(np.abs(ev.formula_unitary(tau) - formula)) <= 1e-12
        assert np.max(np.abs(exact_unitary(ev, tau) - exact)) <= 1e-12
        assert abs(ev.error(tau) - np.linalg.norm(exact - formula, 2)) <= 1e-12
        if p % 2 == 0:
            mpf_spec = build_mpf(j_count, p)
            mpf = MPFEvaluator(mpf_spec, ev)
            step = oracle.mpf_step(mpf_spec, tau)
            assert np.max(np.abs(mpf.step(tau) - step)) <= 1e-12
            assert abs(mpf.error(tau) - np.linalg.norm(exact - step, 2)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        spec=blocked_specs(),
        p=st.sampled_from([1, 2]),
        extra=st.integers(1, 2),
        tau=st.floats(-0.3, 0.3),
    )
    @example(spec=heisenberg_chain(4, coupling=0.9, field=0.8), p=2, extra=2, tau=0.2)
    @example(spec=heisenberg_chain(6, coupling=1.1, field=0.8), p=2, extra=1, tau=-0.25)
    @example(spec=heisenberg_chain(8, coupling=1.0, field=0.8), p=2, extra=1, tau=0.15)
    @example(spec=heisenberg_chain(6, 0.8, 0.5, periodic=True), p=1, extra=2, tau=0.2)
    @example(spec=anisotropic_chain(6, 1.0, 0.4, 0.8, field=0.6), p=2, extra=1, tau=0.2)
    @example(spec=heisenberg_chain(5, coupling=1.0, field=0.8), p=2, extra=2, tau=0.3)
    @example(spec=long_range_zz_chain(6, 1.5), p=2, extra=1, tau=0.3)
    @example(spec=one_end_field_chain(6, 1.0, 0.7), p=2, extra=1, tau=0.25)
    def test_truncation_defect_matches_the_full_matrix(self, spec, p, extra, tau):
        plan = build_plan(spec.n_groups, p)
        ev = TrotterEvaluator(spec, plan)
        p0 = p + extra
        phis = commutator_sums(spec, p0, None, plan=plan)[1]
        # one call over several taus gives each its own defect, in order
        taus = (tau, 0.5 * tau, -tau)
        defects = check_truncated_generator(ev, phis, p0, taus)
        assert len(defects) == len(taus)
        for t, defect in zip(taus, defects):
            assert abs(defect - oracles.truncation_defect(ev, phis, t, p0)) <= 1e-12

    def test_difference_norm_is_the_full_spectral_norm(self):
        rng = np.random.default_rng(5)
        spec = heisenberg_chain(4, field=0.3)
        ev = TrotterEvaluator(spec, build_plan(spec.n_groups, 2))
        shapes = [p.index.shape + p.index.shape[-1:] for p in ev.frame.basis]
        # the largest block norm sits in each stack in turn
        for big in range(len(shapes)):
            a = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
            a[big] *= 10.0
            b = [rng.normal(size=s) for s in shapes]
            full = np.linalg.norm(ev.scatter(a) - ev.scatter(b), ord=2)
            assert difference_norm(a, b) == pytest.approx(full, rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            heisenberg_chain(6, field=0.3),
            heisenberg_chain(5, field=0.3),
            long_range_zz_chain(4, 1.0),
        ],
        ids=["even", "odd", "zz"],
    )
    def test_scatter_is_the_explicit_rotation(self, spec):
        rng = np.random.default_rng(8)
        ev = TrotterEvaluator(spec, build_plan(spec.n_groups, 2))
        shapes = [p.index.shape + p.index.shape[-1:] for p in ev.frame.basis]
        a = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
        got, want = ev.scatter(a), oracles.rotate_back(ev, a)
        assert np.max(np.abs(got - want)) <= 1e-14
