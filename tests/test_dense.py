"""Dense backend: signed-permutation builds against the Kronecker oracle,
exact exponentials, norms, matrix logs and the Pauli decomposition."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpfkit import dense
from mpfkit.formulas import DenseCapError
from mpfkit.hamiltonians import heisenberg_chain
from mpfkit.pauli import PauliSum, PauliTerm, parse_label
from oracles import expm_minus_i, log_series_fit, pauli_decompose, unitary_log

MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
SITE_MATS = {(0, 0): MATS["I"], (1, 0): MATS["X"], (0, 1): MATS["Z"], (1, 1): MATS["Y"]}


def label_matrix(label: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for ch in label:
        out = np.kron(out, MATS[ch])
    return out


def kron_oracle(s: PauliSum) -> np.ndarray:
    """The Kronecker-product build, one n-fold product per string."""
    dim = 1 << s.n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for (x, z), c in s.items():
        m = np.eye(1, dtype=complex)
        for j in range(s.n_sites):
            m = np.kron(m, SITE_MATS[((x >> j) & 1, (z >> j) & 1)])
        out += c * m
    return out


def basis_loop_decompose(mat: np.ndarray, n_sites: int, tol: float = 1e-12) -> PauliSum:
    """``tr(P mat) / 2^n`` from one dense build and matmul per basis string."""
    dim = 1 << n_sites
    acc: dict[tuple[int, int], complex] = {}
    for x in range(dim):
        for z in range(dim):
            p = kron_oracle(PauliSum(n_sites, {(x, z): 1.0}))
            c = np.trace(p @ mat) / dim
            if abs(c) > tol:
                acc[(x, z)] = c
    return PauliSum(n_sites, acc)


def heisenberg_nest(n_sites: int) -> PauliSum:
    """[H_odd, [H_even, [H_odd, H_even]]] of a Heisenberg chain."""
    even, odd = heisenberg_chain(n_sites, coupling=0.7).group_sums
    return odd.commutator(even.commutator(odd.commutator(even)))


# one site: the nest [X + Y + Z, [X, 0.3 Z]] of the single-site spin letters
ONE_SITE_NEST = PauliSum.from_terms(
    [PauliTerm.from_label(l) for l in "XYZ"]
).commutator(PauliSum.from_label("X").commutator(PauliSum.from_label("Z", 0.3)))

# three strings on one permuted diagonal whose float sum depends on the order
# they are added in: (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
ORDER_SENSITIVE = PauliSum(3, {(0, 0): 0.1, (0, 1): 0.2, (0, 2): 0.3})

_COEFFS = st.one_of(
    st.floats(-2.0, 2.0).map(complex),
    st.floats(-2.0, 2.0).map(lambda v: complex(0.0, v)),
    st.floats(-2.0, 0.0).map(complex),
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)


@st.composite
def pauli_sums(draw, max_sites: int = 8) -> PauliSum:
    """Sums of 0-12 strings on 1..max_sites sites.

    The x-masks come from a pool of at most three, so strings often share a
    permuted diagonal; z is often x itself (a Y on every flipped site) or 0,
    and the identity string is always available.
    """
    n = draw(st.integers(1, max_sites))
    top = (1 << n) - 1
    pool = draw(st.lists(st.integers(0, top), min_size=1, max_size=3))
    data: dict[tuple[int, int], complex] = {}
    for _ in range(draw(st.integers(0, 12))):
        x = draw(st.one_of(st.sampled_from(pool), st.just(0)))
        z = draw(st.one_of(st.integers(0, top), st.just(x), st.just(0)))
        data[(x, z)] = draw(_COEFFS)
    return PauliSum(n, data)


class TestSignedPermutationBuild:
    @settings(max_examples=200, deadline=None)
    @given(s=pauli_sums())
    @example(s=ONE_SITE_NEST)
    @example(s=heisenberg_nest(8))
    @example(s=ORDER_SENSITIVE)
    @example(s=PauliSum(5))
    @example(s=PauliSum.from_label("IIII", -1.5j))
    def test_bitwise_equal_to_kron_oracle(self, s):
        got = dense.from_pauli_sum(s)
        assert got.dtype == complex and got.flags.c_contiguous
        assert got.tobytes() == kron_oracle(s).tobytes()

    def test_pinned_nests_are_nontrivial(self):
        assert len(dict(ONE_SITE_NEST.items())) == 2
        assert len(dict(heisenberg_nest(8).items())) > 50


def test_from_pauli_sum_matches_label_kron():
    s = PauliSum.from_terms(
        [
            PauliTerm.from_label("XYZ", 0.7),
            PauliTerm.from_label("ZII", -0.2),
            PauliTerm.from_label("IIY", 1.5j),
        ]
    )
    expected = (
        0.7 * label_matrix("XYZ")
        - 0.2 * label_matrix("ZII")
        + 1.5j * label_matrix("IIY")
    )
    got = dense.from_pauli_sum(s)
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_dense_cap_enforced():
    s = PauliSum.from_label("I" * 13)
    with pytest.raises(DenseCapError):
        dense.from_pauli_sum(s)
    dense.from_pauli_sum(s, cap=13)


def test_expm_single_qubit_phase():
    h = dense.from_pauli_sum(PauliSum.from_label("Z"))
    u = expm_minus_i(h, 0.3)
    expected = np.diag([np.exp(-0.3j), np.exp(0.3j)])
    assert np.max(np.abs(u - expected)) <= 1e-12


def test_expm_matches_scipy_on_random_hermitian():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (a + a.conj().T) / 2
    u = expm_minus_i(h, 0.47)
    ref = scipy.linalg.expm(-0.47j * h)
    assert np.max(np.abs(u - ref)) <= 1e-10
    assert np.max(np.abs(u @ u.conj().T - np.eye(8))) <= 1e-12


@pytest.mark.parametrize(
    "terms, odd",
    [
        # (s - R s R) / 2 = 0.375 (ZII - IIZ); XIX is its own mirror image
        ([("ZII", 1.0), ("IIZ", 0.25), ("XIX", 0.5)], 0.75),
        # a string whose mirror image is absent: (ZII - IIZ) / 2
        ([("ZII", 1.0)], 1.0),
        ([("XYZ", 0.5), ("ZYX", 0.5), ("IYI", 2.0)], 0.0),
    ],
)
def test_mirror_odd_norm(terms, odd):
    s = PauliSum.from_terms([PauliTerm.from_label(lab, c) for lab, c in terms])
    assert dense.mirror_odd_norm(s) == odd


# IZZI keeps the magnetization shells of the 4-site chain and its mirror
# image; X on both end sites links two shells, Z on one end site breaks R
LEAK_GROUPS = heisenberg_chain(4, field=0.5).group_sums
LEAK_SCALE = 37.0


@pytest.mark.parametrize("factor", [1 + 1e-6, 1 - 1e-6], ids=["above", "below"])
@pytest.mark.parametrize(
    "labels, size, match",
    [
        # two diagonals of 16 entries c each: Frobenius norm sqrt(32) c
        (("XIII", "IIIX"), math.sqrt(32.0), "outside the sectors"),
        # (ZIII - IIIZ) c / 2, one-norm c
        (("ZIII",), 1.0, "is mirror-odd"),
    ],
    ids=["sector-leak", "mirror-odd"],
)
def test_leak_allowance_is_leak_tol_times_scale(labels, size, match, factor):
    frame = dense.SectorFrame.of(LEAK_GROUPS)
    assert frame.reflected
    c = factor * dense.LEAK_TOL * LEAK_SCALE / size
    s = PauliSum.from_label("IZZI")
    for label in labels:
        s = s + PauliSum.from_label(label, c)
    if factor > 1:
        with pytest.raises(dense.SectorLeakError, match=match):
            frame.norm(s, LEAK_SCALE)
    else:
        assert abs(frame.norm(s, LEAK_SCALE) - 1.0) <= 2 * c


def test_expm_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        expm_minus_i(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


@pytest.mark.parametrize("herm_tol", [1e-10, 1e-8])
def test_defect_just_above_herm_tol_rejected(herm_tol):
    rng = np.random.default_rng(11)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    h = (a + a.conj().T) / 2
    skew = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    skew = (skew - skew.conj().T) / 2
    # scale the anti-Hermitian part so the spectral defect is 1.01 herm_tol
    skew *= 1.01 * herm_tol / np.linalg.norm(2 * skew, ord=2)
    with pytest.raises(ValueError, match="Hermitian"):
        dense.HermitianFactorization.of(h + skew, herm_tol)
    dense.HermitianFactorization.of(h, herm_tol)


def test_factorization_reuse_is_consistent():
    h = dense.from_pauli_sum(
        PauliSum.from_label("XX") + PauliSum.from_label("ZI", 0.5)
    )
    fact = dense.HermitianFactorization.of(h)
    for tau in (0.1, 0.2, 0.7):
        ref = scipy.linalg.expm(-1j * tau * h)
        assert np.max(np.abs(fact.expm_minus_i(tau) - ref)) <= 1e-11


class TestSpectralNorm:
    def test_hermitian_path(self):
        h = label_matrix("X") + label_matrix("Z")
        assert dense.spectral_norm(h) == pytest.approx(np.sqrt(2.0))

    def test_zero_matrix(self):
        assert dense.spectral_norm(np.zeros((4, 4), dtype=complex)) == 0.0


class TestUnitaryLog:
    def test_recovers_small_generator(self):
        h = dense.from_pauli_sum(
            PauliSum.from_label("XY") + PauliSum.from_label("ZZ", 0.3)
        )
        tau = 0.05
        u = expm_minus_i(h, tau)
        lg = unitary_log(u)
        assert np.max(np.abs(lg - (-1j * tau * h))) <= 1e-12

    def test_rejects_branch_cut_proximity(self):
        h = dense.from_pauli_sum(PauliSum.from_label("Z", 1.0))
        u = expm_minus_i(h, 3.1)
        with pytest.raises(ValueError, match="branch"):
            unitary_log(u)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            unitary_log(np.diag([1.0, 0.5]).astype(complex))


def test_pauli_decompose_round_trip():
    rng = np.random.default_rng(9)
    labels = ["XI", "IZ", "YY", "ZX"]
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    s = PauliSum.from_terms(
        [PauliTerm.from_label(l, c) for l, c in zip(labels, coeffs)]
    )
    back = pauli_decompose(dense.from_pauli_sum(s), 2)
    want = {parse_label(l): pytest.approx(c, abs=1e-12) for l, c in zip(labels, coeffs)}
    assert dict(back.items()) == want


@settings(max_examples=60, deadline=None)
@given(
    n_sites=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    sparse=st.booleans(),
)
def test_pauli_decompose_matches_basis_loop(n_sites, seed, sparse):
    rng = np.random.default_rng(seed)
    dim = 1 << n_sites
    if sparse:
        keys = rng.integers(0, dim, size=(3, 2))
        mat = dense.from_pauli_sum(
            PauliSum(n_sites, {(int(x), int(z)): complex(*rng.normal(size=2)) for x, z in keys})
        )
    else:
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    got = dict(pauli_decompose(mat, n_sites).items())
    want = dict(basis_loop_decompose(mat, n_sites).items())
    assert list(got) == list(want)
    assert all(abs(got[k] - want[k]) <= 1e-12 for k in want)


def test_log_series_fit_recovers_polynomial_generator():
    # U(tau) = exp(-i (H tau + G tau^2)) with known H and G; the fitted
    # order-1 and order-2 coefficients must be -iH and -iG.
    h = dense.from_pauli_sum(PauliSum.from_label("XI") + PauliSum.from_label("ZZ", 0.6))
    g = dense.from_pauli_sum(PauliSum.from_label("YI", 0.4))
    taus = np.linspace(0.004, 0.04, 10)
    unitaries = [
        scipy.linalg.expm(-1j * (h * t + g * t**2)) for t in taus
    ]
    c1, c2, c3, c4 = log_series_fit(taus, list(unitaries), 4)
    assert np.max(np.abs(c1 - (-1j) * h)) <= 1e-8
    assert np.max(np.abs(c2 - (-1j) * g)) <= 1e-6
    assert np.max(np.abs(c3)) <= 1e-4
    as_pauli = log_series_fit(taus, list(unitaries), 4, n_sites=2)
    assert dict(as_pauli[0].items())[parse_label("XI")] == pytest.approx(-1j, abs=1e-8)
    assert dict(as_pauli[1].items())[parse_label("YI")] == pytest.approx(-0.4j, abs=1e-6)
