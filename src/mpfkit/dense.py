"""Dense-matrix backend for desk-scale verification.

Everything here builds 2^n x 2^n complex matrices with numpy and is meant for
small n (default cap 12 qubits).  Symbolic Pauli work lives in
:mod:`mpfkit.pauli`; this module converts to matrices, exponentiates
Hermitian generators exactly through eigendecomposition, measures spectral
norms, and extracts effective generators from unitaries via the principal
matrix logarithm.

Conversion in both directions rests on one index map: a Pauli string is a
signed permutation of the computational basis.  :func:`from_pauli_sum`
scatters each string into its permuted diagonal in O(2^n), adding strings
in the sum's order, so the result is bitwise the Kronecker-product build's;
:func:`pauli_decompose` reads each permuted diagonal once and gets every
z-coefficient from its parity signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .pauli import PauliSum

__all__ = [
    "DEFAULT_DENSE_CAP",
    "DenseCapError",
    "HermitianFactorization",
    "check_dense_cap",
    "from_pauli_sum",
    "pauli_decompose",
    "expm_minus_i",
    "spectral_norm",
    "unitary_log",
    "log_series_fit",
    "fit_line",
]

DEFAULT_DENSE_CAP = 12

# i^k, the phase of a string with k sites carrying Y
_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


class DenseCapError(ValueError):
    """Raised when a dense build would exceed the configured qubit cap."""


def check_dense_cap(n_sites: int, cap: int = DEFAULT_DENSE_CAP) -> None:
    if n_sites > cap:
        raise DenseCapError(
            f"dense build on {n_sites} sites exceeds cap {cap}; "
            "raise the cap explicitly if this is intended"
        )


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


def pauli_decompose(mat: np.ndarray, n_sites: int, tol: float = 1e-12) -> PauliSum:
    """Expand a dense matrix in the Pauli-string basis.

    Coefficients are ``tr(P mat) / 2^n``; entries below ``tol`` are dropped.
    Exact for any matrix since the strings form a basis.  Each x-mask reads
    its permuted diagonal ``mat[b, b ^ xr]`` once; the parity signs of all
    z-masks then make a Walsh-Hadamard transform of that diagonal, so the
    whole expansion costs O(n 4^n).  Terms are ordered by x-mask, then
    z-mask.
    """
    dim = 1 << n_sites
    if mat.shape != (dim, dim):
        raise ValueError(f"matrix shape {mat.shape} does not match n_sites={n_sites}")
    masks = np.arange(dim)
    rev = np.array([_bit_reverse(m, n_sites) for m in range(dim)], dtype=np.int64)
    # row x holds the permuted diagonal of string x
    w = np.asarray(mat, dtype=complex)[masks, masks ^ rev[:, None]]
    half = 1
    while half < dim:
        w = w.reshape(dim, -1, 2, half)
        a, b = w[:, :, :1], w[:, :, 1:]
        w = np.concatenate([a + b, a - b], axis=2)
        half *= 2
    # w[x, zr] = sum_b (-1)^{|zr&b|} mat[b, b ^ xr]
    phase = np.array(_PHASES)[_popcounts(n_sites)[masks[:, None] & masks] & 3]
    coeffs = w.reshape(dim, dim)[:, rev] * phase / dim
    keep = np.abs(coeffs) > tol
    return PauliSum(
        n_sites,
        {(int(x), int(z)): coeffs[x, z] for x, z in zip(*np.nonzero(keep))},
    )


@dataclass(frozen=True)
class HermitianFactorization:
    """Cached eigendecomposition ``h = vecs @ diag(vals) @ vecs^dag``.

    Built once per Hamiltonian group so that stage exponentials at many
    different time arguments are a diagonal rescale each.
    """

    vals: np.ndarray
    vecs: np.ndarray

    @classmethod
    def of(cls, h: np.ndarray, herm_tol: float = 1e-10) -> "HermitianFactorization":
        # the defect is anti-Hermitian, so its inf-norm (max row sum) bounds
        # its spectral norm from above at O(4^n) cost, without an SVD
        defect = np.linalg.norm(h - h.conj().T, ord=np.inf)
        if defect > herm_tol:
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
        vals, vecs = np.linalg.eigh(h)
        return cls(vals=vals, vecs=vecs)

    def expm_minus_i(self, tau: float) -> np.ndarray:
        """``exp(-i h tau)``, exactly unitary up to rounding."""
        phases = np.exp(-1j * self.vals * tau)
        return (self.vecs * phases) @ self.vecs.conj().T


def expm_minus_i(h: np.ndarray, tau: float, herm_tol: float = 1e-10) -> np.ndarray:
    """``exp(-i h tau)`` for Hermitian ``h`` via exact eigendecomposition."""
    return HermitianFactorization.of(h, herm_tol).expm_minus_i(tau)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value, with fast exact paths for (anti-)Hermitian input.

    Hermitian and anti-Hermitian matrices are detected to tight tolerance and
    routed through ``eigvalsh`` (their singular values are |eigenvalues|);
    everything else falls back to the SVD route.
    """
    if a.size == 0:
        return 0.0
    scale = np.max(np.abs(a))
    if scale == 0.0:
        return 0.0
    tol = 1e-13 * scale
    if np.linalg.norm(a - a.conj().T, ord=np.inf) <= tol:
        return float(np.max(np.abs(np.linalg.eigvalsh(a))))
    if np.linalg.norm(a + a.conj().T, ord=np.inf) <= tol:
        return float(np.max(np.abs(np.linalg.eigvalsh(1j * a))))
    return float(np.linalg.norm(a, ord=2))


def unitary_log(u: np.ndarray, *, unitary_tol: float = 1e-10, branch_margin: float = 0.3) -> np.ndarray:
    """Principal logarithm of a unitary matrix through its Schur form.

    For unitary (hence normal) input the complex Schur form is diagonal, so
    the log is ``Q diag(i * angle) Q^dag`` with angles in (-pi, pi].  Samples
    whose eigenphases come within ``branch_margin`` of the +-pi branch cut are
    rejected: the principal branch would misread them and a polynomial fit
    built on top would silently corrupt.
    """
    dim = u.shape[0]
    defect = np.linalg.norm(u @ u.conj().T - np.eye(dim), ord=2)
    if defect > unitary_tol:
        raise ValueError(f"input is not unitary (defect {defect:.3e})")
    t, q = scipy.linalg.schur(u, output="complex")
    off = np.linalg.norm(t - np.diag(np.diag(t)))
    if off > 1e-8:
        raise ValueError(f"Schur form not diagonal (off-diagonal {off:.3e})")
    phases = np.angle(np.diag(t))
    if np.any(np.abs(phases) > np.pi - branch_margin):
        worst = float(np.max(np.abs(phases)))
        raise ValueError(
            f"eigenphase {worst:.4f} within {branch_margin} of the branch cut; "
            "shrink the time argument"
        )
    return (q * (1j * phases)) @ q.conj().T


def log_series_fit(
    taus: np.ndarray,
    unitaries: list[np.ndarray],
    max_order: int,
    *,
    n_sites: int | None = None,
    decompose_tol: float = 1e-9,
) -> list[PauliSum] | list[np.ndarray]:
    """Fit ``log U(tau) = sum_q C_q tau^q`` from sampled unitaries.

    Takes the principal log of each sample (rejecting branch-cut cases), then
    solves one least-squares problem for the matrix-valued polynomial with
    zero constant term.  Returns the coefficient matrices for orders
    ``1..max_order``; when ``n_sites`` is given each is Pauli-decomposed.

    The fit window must keep ``tau * ||H||`` well inside (-pi, pi) and small
    enough that orders above ``max_order`` are negligible; in practice pass a
    couple of guard orders beyond the ones you intend to read.
    """
    taus = np.asarray(taus, dtype=float)
    if len(taus) != len(unitaries):
        raise ValueError("sample count mismatch")
    if len(taus) < max_order + 1:
        raise ValueError("need more samples than fitted orders")
    logs = np.stack([unitary_log(u).reshape(-1) for u in unitaries])
    design = np.vander(taus, N=max_order + 1, increasing=True)[:, 1:]
    # column scaling: raw monomial columns span many decades and would
    # poison the least-squares conditioning
    col = np.linalg.norm(design, axis=0)
    coeffs, *_ = np.linalg.lstsq(design / col, logs, rcond=None)
    coeffs = coeffs / col[:, None]
    dim = unitaries[0].shape[0]
    mats = [coeffs[q].reshape(dim, dim) for q in range(max_order)]
    if n_sites is None:
        return mats
    return [pauli_decompose(m, n_sites, tol=decompose_tol) for m in mats]


def fit_line(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Least-squares line ``ys ~ a xs + b``: returns (a, RMS residual)."""
    design = np.vstack([xs, np.ones_like(xs)]).T
    sol, *_ = np.linalg.lstsq(design, ys, rcond=None)
    residual = float(np.sqrt(np.mean((design @ sol - ys) ** 2)))
    return float(sol[0]), residual
