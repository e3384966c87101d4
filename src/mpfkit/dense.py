"""Dense-matrix backend for desk-scale verification.

Everything here builds 2^n x 2^n complex matrices with numpy and is meant for
small n (default cap 12 qubits).  Symbolic Pauli work lives in
:mod:`mpfkit.pauli`; this module converts to matrices, exponentiates
Hermitian generators exactly through eigendecomposition, and measures
spectral norms.

Conversion rests on one index map: a Pauli string is a signed permutation
of the computational basis.  :func:`from_pauli_sum` scatters each string
into its permuted diagonal in O(2^n), adding strings in the sum's order, so
the result is bitwise the Kronecker-product build's.

Matrices that share invariant sectors are worked on block by block:
:func:`invariant_sectors` finds the sectors, and the factorization and the
norm below accept a stack of equal-size blocks ``(count, size, size)`` as
well as a single matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulas import DEFAULT_DENSE_CAP, DenseCapError, check_dense_cap
from .pauli import PauliSum

__all__ = [
    "DEFAULT_DENSE_CAP",
    "DenseCapError",
    "HermitianFactorization",
    "check_dense_cap",
    "from_pauli_sum",
    "invariant_sectors",
    "expm_minus_i",
    "spectral_norm",
]

# i^k, the phase of a string with k sites carrying Y
_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _bit_reverse(mask: int, n_sites: int) -> int:
    """Move site j of a Pauli mask to bit n-1-j of a basis index."""
    return int(format(mask, f"0{n_sites}b")[::-1], 2)


def _popcounts(n_sites: int) -> np.ndarray:
    """``pop[b]`` is the number of set bits of every index b < 2^n."""
    pop = np.zeros(1, dtype=np.int64)
    for _ in range(n_sites):
        pop = np.concatenate([pop, pop + 1])
    return pop


def from_pauli_sum(s: PauliSum, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Dense matrix of a Pauli sum, one signed permutation per string.

    Site 0 is the most significant bit of the basis index, matching the
    left-to-right reading of string labels.  With ``xr`` and ``zr`` the
    bit-reversed masks, a string acts as

        P(x, z) |b> = i^{|x&z|} (-1)^{|zr&b|} |b XOR xr>,

    so it fills the one permuted diagonal ``out[b ^ xr, b]``.  Strings are
    added in the sum's own order, so every entry receives its contributions
    in the order, and with the exact values, of the Kronecker-product build
    ``sum c * (site_0 (x) ... (x) site_{n-1})``: the two matrices are
    bitwise identical, signed zeros included (a sum started at +0 never
    holds a -0).  Cost is O(2^n) per string plus one O(4^n) allocation.
    """
    check_dense_cap(s.n_sites, cap)
    n = s.n_sites
    dim = 1 << n
    idx = np.arange(dim)
    odd = (_popcounts(n) & 1).astype(bool)
    out = np.zeros((dim, dim), dtype=complex)
    for (x, z), c in s.items():
        v = c * _PHASES[(x & z).bit_count() & 3]
        flip = odd[idx & _bit_reverse(z, n)]
        out[idx ^ _bit_reverse(x, n), idx] += np.where(flip, -v, v)
    return out


def invariant_sectors(mats: list[np.ndarray]) -> list[np.ndarray]:
    """Joint invariant sectors of equal-shape square matrices, grouped by size.

    The sectors are the connected components of the union of the exact
    nonzero patterns, so every matrix is exactly block diagonal on them:
    total magnetization for a Heisenberg chain, single basis states for a
    diagonal Hamiltonian, one sector when nothing splits.  Returns one int
    array of shape ``(count, size)`` per distinct sector size, ascending in
    size; each row lists one sector's basis indices in ascending order, and
    rows are ordered by their smallest index.  Cost is O(4^n) for the
    pattern plus a few passes over its nonzeros.
    """
    dim = mats[0].shape[0]
    linked = np.zeros((dim, dim), dtype=bool)
    for m in mats:
        linked |= m != 0
    rows, cols = np.nonzero(linked | linked.T)
    # each index takes its smallest neighbour's label, then jumps to its
    # label's label; labels only fall and stay inside the component, and at
    # the fixed point every component carries its smallest index
    label = np.arange(dim)
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    _, comp, counts = np.unique(label, return_inverse=True, return_counts=True)
    size = counts[comp]
    order = np.lexsort((np.arange(dim), label, size))
    cuts = np.flatnonzero(np.diff(size[order])) + 1
    return [chunk.reshape(-1, size[chunk[0]]) for chunk in np.split(order, cuts)]


def _adjoint(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2).conj()


def _inf_norm(a: np.ndarray) -> float:
    """Largest absolute row sum over a matrix or a stack of matrices."""
    return float(np.max(np.sum(np.abs(a), axis=-1)))


@dataclass(frozen=True)
class HermitianFactorization:
    """Cached eigendecomposition ``h = vecs @ diag(vals) @ vecs^dag``.

    Built once per Hamiltonian group so that stage exponentials at many
    different time arguments are a diagonal rescale each.  ``h`` may be a
    stack of blocks; every array then carries the stack axis first.
    """

    vals: np.ndarray
    vecs: np.ndarray

    @classmethod
    def of(cls, h: np.ndarray, herm_tol: float = 1e-10) -> "HermitianFactorization":
        # the defect is anti-Hermitian, so its inf-norm (max row sum) bounds
        # its spectral norm from above at O(4^n) cost, without an SVD; over
        # a stack of blocks it is the inf-norm of their direct sum
        defect = _inf_norm(h - _adjoint(h))
        if defect > herm_tol:
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
        vals, vecs = np.linalg.eigh(h)
        return cls(vals=vals, vecs=vecs)

    def expm_minus_i(self, tau: float) -> np.ndarray:
        """``exp(-i h tau)``, exactly unitary up to rounding."""
        phases = np.exp(-1j * self.vals * tau)
        return (self.vecs * phases[..., None, :]) @ _adjoint(self.vecs)


def expm_minus_i(h: np.ndarray, tau: float, herm_tol: float = 1e-10) -> np.ndarray:
    """``exp(-i h tau)`` for Hermitian ``h`` via exact eigendecomposition."""
    return HermitianFactorization.of(h, herm_tol).expm_minus_i(tau)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value, with fast exact paths for (anti-)Hermitian input.

    Hermitian and anti-Hermitian matrices are detected to tight tolerance and
    routed through ``eigvalsh`` (their singular values are |eigenvalues|);
    everything else falls back to the SVD route.  A stack of blocks gives
    the norm of their direct sum, the largest of the block norms.
    """
    if a.size == 0:
        return 0.0
    scale = np.max(np.abs(a))
    if scale == 0.0:
        return 0.0
    tol = 1e-13 * scale
    if _inf_norm(a - _adjoint(a)) <= tol:
        return float(np.max(np.abs(np.linalg.eigvalsh(a))))
    if _inf_norm(a + _adjoint(a)) <= tol:
        return float(np.max(np.abs(np.linalg.eigvalsh(1j * a))))
    return float(np.max(np.linalg.svd(a, compute_uv=False)))
