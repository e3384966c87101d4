"""Pauli algebra against an independent dense-matrix oracle.

The oracle here builds 2^n matrices from string labels with its own Kronecker
code and never touches the package's dense backend, so the bit-mask phase
bookkeeping is checked against textbook matrix arithmetic.
"""

import numpy as np
import pytest

from mpfkit.pauli import PauliSum, PauliTerm, parse_label, term_product

MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def label_matrix(label: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for ch in label:
        out = np.kron(out, MATS[ch])
    return out


def sum_matrix(s: PauliSum) -> np.ndarray:
    dim = 2**s.n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for (x, z), c in s.items():
        out += c * label_matrix(PauliTerm(s.n_sites, x, z, c).label)
    return out


def all_labels(n: int) -> list[str]:
    labels = [""]
    for _ in range(n):
        labels = [lab + ch for lab in labels for ch in "IXYZ"]
    return labels


def random_sum(rng: np.random.Generator, n: int, n_terms: int) -> PauliSum:
    labels = all_labels(n)
    picks = rng.choice(len(labels), size=n_terms, replace=False)
    terms = [
        PauliTerm.from_label(labels[i], complex(rng.normal(), rng.normal()))
        for i in picks
    ]
    return PauliSum.from_terms(terms, n_sites=n)


def product(a: str, b: str) -> PauliTerm:
    """The string of ``a`` times the string of ``b`` by :func:`term_product`,
    its phase as the coefficient."""
    x, z, phase = term_product(*parse_label(a), *parse_label(b))
    return PauliTerm(len(a), x, z, phase)


class TestTermProducts:
    def test_single_site_table_matches_dense(self):
        for a in "IXYZ":
            for b in "IXYZ":
                prod = product(a, b)
                expected = MATS[a] @ MATS[b]
                got = prod.coeff * label_matrix(prod.label)
                assert np.max(np.abs(got - expected)) <= 1e-12, (a, b)

    def test_two_site_exhaustive(self):
        labels = all_labels(2)
        for la in labels:
            for lb in labels:
                prod = product(la, lb)
                expected = label_matrix(la) @ label_matrix(lb)
                got = prod.coeff * label_matrix(prod.label)
                assert np.max(np.abs(got - expected)) <= 1e-12, (la, lb)

    def test_x_times_z_gives_minus_i_y(self):
        prod = product("XI", "ZI")
        assert prod.label == "YI"
        assert prod.coeff == pytest.approx(-1j)

    def test_commutator_of_x_and_z(self):
        comm = PauliSum.from_label("X").commutator(PauliSum.from_label("Z"))
        assert comm
        assert dict(comm.items()) == {parse_label("Y"): pytest.approx(-2j)}

    def test_commuting_strings_return_none(self):
        assert not PauliSum.from_label("XX").commutator(PauliSum.from_label("YY"))

    def test_commutation_predicate_exhaustive_two_sites(self):
        labels = all_labels(2)
        for la in labels:
            for lb in labels:
                dense = label_matrix(la) @ label_matrix(lb) - label_matrix(
                    lb
                ) @ label_matrix(la)
                expected = np.max(np.abs(dense)) <= 1e-12
                got = not PauliSum.from_label(la).commutator(PauliSum.from_label(lb))
                assert got == expected, (la, lb)


class TestPauliSum:
    def test_x_plus_z_squares_to_two_identity(self):
        # X X + X Z + Z X + Z Z, term by term; X Z and Z X cancel
        sq = PauliSum(1)
        for a in "XZ":
            for b in "XZ":
                prod = product(a, b)
                sq = sq + PauliSum(1, {(prod.x_mask, prod.z_mask): prod.coeff})
        assert dict(sq.items()) == {parse_label("I"): pytest.approx(2.0)}

    def test_cancellation_prunes_to_empty(self):
        s = PauliSum.from_label("XY", 1.0) + PauliSum.from_label("XY", -1.0)
        assert not s

    def test_structure_measures(self):
        s = PauliSum.from_terms(
            [
                PauliTerm.from_label("XX", 1.0),
                PauliTerm.from_label("ZI", 0.5),
            ]
        )
        assert s.one_norm() == pytest.approx(1.5)
        assert s.locality() == 2
        assert s.extensiveness() == pytest.approx(1.5)

    def test_identity_does_not_count_toward_extensiveness(self):
        s = PauliSum.from_terms(
            [
                PauliTerm.from_label("II", 5.0),
                PauliTerm.from_label("XI", 1.0),
            ]
        )
        assert s.extensiveness() == pytest.approx(1.0)
        assert s.locality() == 1

    def test_hermiticity_defect(self):
        real = PauliSum.from_label("XZ", 2.0)
        assert real.hermiticity_defect() == 0.0
        assert real.hermiticity_defect() <= 1e-10
        imag = PauliSum.from_label("XZ", 1j)
        assert imag.hermiticity_defect() == pytest.approx(2.0)
        assert not imag.hermiticity_defect() <= 1e-10

    def test_label_round_trip(self):
        t = PauliTerm.from_label("IXYZ", 0.25)
        assert t.label == "IXYZ"

    def test_site_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            PauliSum.from_label("X") + PauliSum.from_label("XX")


class TestRandomAgainstDense:
    def test_ring_operations_match_dense(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = random_sum(rng, 3, int(rng.integers(1, 9)))
            b = random_sum(rng, 3, int(rng.integers(1, 9)))
            da, db = sum_matrix(a), sum_matrix(b)
            assert np.max(np.abs(sum_matrix(a + b) - (da + db))) <= 1e-12
            comm = a.commutator(b)
            assert np.max(np.abs(sum_matrix(comm) - (da @ db - db @ da))) <= 1e-11

    def test_one_norm_dominates_spectral_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = random_sum(rng, 3, int(rng.integers(1, 12)))
            dense_norm = np.linalg.norm(sum_matrix(s), ord=2)
            assert dense_norm <= s.one_norm() + 1e-10

    def test_scale_and_subtract(self):
        rng = np.random.default_rng(3)
        s = random_sum(rng, 2, 5)
        z = s + s.scale(-1.0)
        assert not z
        half = s.scale(0.5)
        assert np.max(np.abs(sum_matrix(half) - 0.5 * sum_matrix(s))) <= 1e-12
