"""Dense-matrix backend for desk-scale verification.

Everything here works on complex matrices of side up to 2^n with numpy and
is meant for small n (default cap 12 qubits).  It converts Pauli sums
(:mod:`mpfkit.pauli`) to matrix blocks, exponentiates Hermitian generators
exactly through eigendecomposition, and measures Hermitian spectral norms.

Conversion rests on one index map: a Pauli string is a signed permutation
of the computational basis.  :func:`permuted_diagonals` adds each string
into its permuted diagonal in O(2^n), in the sum's order, so every entry is
bitwise the Kronecker-product build's.  Every exact norm and factorization
reads its blocks from one :class:`SectorFrame`, built once per run from a
Hamiltonian's groups: the :func:`invariant_sectors` their diagonals link,
each halved into ``(|b> +- |R b>) / sqrt 2`` combinations when every group
commutes with the site reflection R, the one rule for the rounding by which
a float-built sum leaves them, and the one route that reads a sum's norm.
Factorization and norm take a stack ``(count, size, size)`` of blocks too.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .formulas import DEFAULT_DENSE_CAP, check_dense_cap
from .pauli import PauliSum

__all__ = [
    "HermitianFactorization",
    "LEAK_TOL",
    "ParityStack",
    "SectorFrame",
    "SectorLeakError",
    "adjoint",
    "from_pauli_sum",
    "invariant_sectors",
    "mirror_odd_norm",
    "permuted_diagonals",
    "spectral_norm",
]

# i^k, the phase of a string with k sites carrying Y
_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

# rounding a sum may leave outside the sectors, per unit of its a-priori scale
LEAK_TOL = 1e-12


class SectorLeakError(RuntimeError):
    """A sum leaks more than rounding outside the sectors it should keep: a
    fault of the program, not a ``ValueError``, so the CLI reports a crash."""


@functools.cache
def _bit_reverse(mask: int, n_sites: int) -> int:
    """Move site j of a Pauli mask to bit n-1-j of a basis index."""
    return int(format(mask, f"0{n_sites}b")[::-1], 2)


def _popcounts(n_sites: int) -> np.ndarray:
    """``pop[b]`` is the number of set bits of every index b < 2^n."""
    pop = np.zeros(1, dtype=np.int64)
    for _ in range(n_sites):
        pop = np.concatenate([pop, pop + 1])
    return pop


def permuted_diagonals(s: PauliSum) -> dict[int, np.ndarray]:
    """A Pauli sum as one permuted diagonal per x-mask.

    Site 0 is the most significant bit of the basis index, matching the
    left-to-right reading of string labels.  With ``xr`` and ``zr`` the
    bit-reversed masks, a string acts as

        P(x, z) |b> = i^{|x&z|} (-1)^{|zr&b|} |b XOR xr>,

    so ``diags[xr][b]`` is the sum's entry ``(b ^ xr, b)``.  Strings are
    added in the sum's order from +0, so each entry gets the exact terms, in
    the same order, of the Kronecker-product build ``sum c * (site_0 (x) ...
    (x) site_{n-1})``: the two are bitwise equal, signed zeros included (a
    sum started at +0 never holds a -0).  Cost is O(2^n) per string.  An
    entry that overflows raises ``FloatingPointError``.
    """
    n = s.n_sites
    idx = np.arange(1 << n)
    odd = (_popcounts(n) & 1).astype(bool)
    diags: dict[int, np.ndarray] = {}
    with np.errstate(over="raise"):
        for (x, z), c in s.items():
            v = c * _PHASES[(x & z).bit_count() & 3]
            flip = odd[idx & _bit_reverse(z, n)]
            d = diags.setdefault(_bit_reverse(x, n), np.zeros(1 << n, dtype=complex))
            d += np.where(flip, -v, v)
    return diags


def from_pauli_sum(s: PauliSum, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Dense matrix of a Pauli sum: the one block of the whole basis."""
    check_dense_cap(s.n_sites, cap)
    idx = np.arange(1 << s.n_sites)[None]
    return _fill(*_stacked(permuted_diagonals(s), 1 << s.n_sites), idx, idx)[0]


def invariant_sectors(
    dim: int, pairs: list[tuple[int, np.ndarray]]
) -> list[np.ndarray]:
    """Invariant sectors of the basis ``0..dim-1`` under linked index pairs.

    Each ``(xr, b)`` in ``pairs`` links each index in the array ``b`` with
    ``b ^ xr``, as the nonzeros of a permuted diagonal do.  The sectors are
    the connected components, so a matrix with only linked nonzeros is
    exactly block diagonal on them: total magnetization for a Heisenberg
    chain, single basis states for a diagonal Hamiltonian, one sector when
    nothing splits.  Returns one int array of shape ``(count, size)`` per
    distinct sector size, ascending in size; each row lists one sector's
    basis indices in ascending order, rows ordered by their smallest index.
    """
    # self-links change no component and keep the lists nonempty
    near = np.concatenate([np.arange(dim)] + [b for _, b in pairs])
    far = np.concatenate([np.arange(dim)] + [b ^ xr for xr, b in pairs])
    rows, cols = np.concatenate([near, far]), np.concatenate([far, near])
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


def _stacked(diags: dict[int, np.ndarray], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The x-masks of ``diags`` and the diagonals as one ``(count, dim)`` array."""
    xrs = np.array(list(diags), dtype=np.int64)
    return xrs, np.array(list(diags.values())).reshape(len(xrs), dim)


def _fill(
    xrs: np.ndarray, vals: np.ndarray, idx: np.ndarray, jdx: np.ndarray
) -> np.ndarray:
    """The blocks ``m[idx[:, :, None], jdx[:, None, :]]`` from the :func:`_stacked`
    diagonals of m, for row pairs ``idx[c]``, ``jdx[c]`` that share m's sectors."""
    # a row index outside idx lands in a spare last row, cut off below
    row = np.full(vals.shape[1], -1)
    row[idx] = np.arange(idx.shape[1])
    size, flat = jdx.shape[1], jdx.ravel()
    block = np.zeros((len(idx), idx.shape[1] + 1, size), dtype=complex)
    cut = vals[:, flat]
    k, e = np.nonzero(cut)  # the nonzeros of diagonal k at column entry e
    block[e // size, row[flat[e] ^ xrs[k]], e % size] = cut[k, e]
    return block[:, :-1]


def mirror_odd_norm(s: PauliSum) -> float:
    """One-norm of the part (s - R s R) / 2 of s that is odd under the site
    reflection R (site j to n-1-j), a bound on its norm; 0 when s = R s R."""
    n, d = s.n_sites, dict(s.items())
    m = {(_bit_reverse(x, n), _bit_reverse(z, n)): c for (x, z), c in d.items()}
    return 0.5 * sum(abs(d.get(k, 0.0) - m.get(k, 0.0)) for k in d.keys() | m.keys())


class ParityStack(NamedTuple):
    """Stacked blocks, row c of ``index``, ``mirror`` (``(count, size)``) and
    ``sign`` (``(count,)``) giving block c's basis ``(|a> + s |R a>) / sqrt 2``,
    or ``|a>`` where ``a = mirror`` (a palindrome, or an unsplit sector).
    :meth:`of` fixes, once per stack, what :func:`_parity_fill` gathers:
    ``cols``, the columns ``index`` then ``mirror``, and ``halves``, the
    number f_i + f_j of palindromes in entry (i, j)'s pair, which picks its
    weight from ``_PAIR_WEIGHTS``; both are None when every index is its own
    mirror."""

    index: np.ndarray
    mirror: np.ndarray
    sign: np.ndarray
    cols: np.ndarray | None
    halves: np.ndarray | None

    @classmethod
    def of(
        cls, index: np.ndarray, mirror: np.ndarray, sign: np.ndarray
    ) -> "ParityStack":
        if np.array_equal(index, mirror):
            return cls(index, mirror, sign, None, None)
        f = (index == mirror).astype(np.int8)
        halves = f[:, :, None] + f[:, None, :]
        return cls(index, mirror, sign, np.hstack([index, mirror]), halves)


# 0.5 ** (f_i + f_j), square-rooted: 1, 1/sqrt 2, or exactly 1/2
_PAIR_WEIGHTS = np.sqrt(0.5 ** np.arange(3.0))


def _parity_fill(xrs: np.ndarray, vals: np.ndarray, p: ParityStack) -> np.ndarray:
    """The blocks ``w_i w_j (m[a_i, a_j] + s m[a_i, r_j])`` on ``p`` (a = index,
    r = mirror, s = sign; w = 1/sqrt 2 where a = r, else 1) of a matrix m that
    commutes with R, from its :func:`_stacked` diagonals in one gather."""
    if p.cols is None:
        return _fill(xrs, vals, p.index, p.index)
    both = _fill(xrs, vals, p.index, p.cols)
    x, y = np.split(both, [p.index.shape[1]], axis=2)
    return _PAIR_WEIGHTS[p.halves] * (x + p.sign[:, None, None] * y)


class SectorFrame:
    """The blocks that some Pauli sums, and every sum they conserve, split into.

    ``sectors`` are the :func:`invariant_sectors` of the sums' nonzeros and
    ``label`` names each basis index's sector by its smallest index.  When
    every sum equals its mirror image under R (``reflected``), each sector
    that R maps onto itself splits into its symmetric and antisymmetric
    halves.  ``basis`` lists the block stacks by size as :class:`ParityStack` s.
    """

    def __init__(self, sums: Sequence[PauliSum]) -> None:
        n = sums[0].n_sites
        self.dim = 1 << n
        diags = (d for s in sums for d in permuted_diagonals(s).items())
        pairs = [(xr, np.flatnonzero(d)) for xr, d in diags]
        self.sectors = invariant_sectors(self.dim, pairs)
        self.label = np.empty(self.dim, dtype=np.int64)
        for idx in self.sectors:
            self.label[idx] = idx[:, :1]
        self.reflected = not any(map(mirror_odd_norm, sums))
        rev = np.arange(self.dim)
        if self.reflected:
            rev = sum(((rev >> j) & 1) << (n - 1 - j) for j in range(n))
        rows = []
        for row in (row for idx in self.sectors for row in idx):
            if self.label[rev[row[0]]] != row[0]:
                rows.append((row, row, 1.0))
                continue
            for sign, a in ((1.0, row[row <= rev[row]]), (-1.0, row[row < rev[row]])):
                if a.size:
                    rows.append((a, rev[a], sign))
        self.basis = [
            ParityStack.of(*map(np.array, zip(*(t for t in rows if t[0].size == size))))
            for size in sorted({a.size for a, _, _ in rows})
        ]

    @staticmethod
    @functools.lru_cache(maxsize=8)
    def of(sums: tuple[PauliSum, ...]) -> "SectorFrame":
        """The frame of ``sums``, built once per tuple of (identity-hashed) sums."""
        return SectorFrame(sums)

    def blocks(self, s: PauliSum, scale: float) -> Iterator[np.ndarray]:
        """The blocks of ``s`` on ``basis``, one stack at a time.

        Entries of ``s`` that link two sectors are zeroed.  When their
        Frobenius norm, or on a reflected frame the one-norm of the mirror-odd
        part, exceeds ``LEAK_TOL`` times ``scale``, the caller's a-priori size
        of ``s``, :class:`SectorLeakError` is raised before any block is filled.
        """
        tol = LEAK_TOL * scale
        xrs, vals = _stacked(permuted_diagonals(s), self.dim)
        outside = self.label[np.arange(self.dim) ^ xrs[:, None]] != self.label
        leak = math.sqrt(float(np.sum(np.abs(vals[outside]) ** 2)))
        vals[outside] = 0.0
        odd = mirror_odd_norm(s) if self.reflected else 0.0
        for size, what in ((leak, "leaks outside the sectors"), (odd, "is mirror-odd")):
            if size > tol:
                raise SectorLeakError(f"sum {what} by {size:.3e}, over {tol:.3e}")
        return (_parity_fill(xrs, vals, p) for p in self.basis)

    def norm(self, s: PauliSum, scale: float) -> float:
        """The exact norm of ``s`` from its :meth:`blocks`.  Real coefficients
        give Hermitian blocks; imaginary ones (a nest of an even number of
        groups) anti-Hermitian blocks, rotated by i.  A sum with both is
        bounded by the norm of its larger part plus the smaller's one-norm."""
        stacks = self.blocks(s, scale)  # the leak rule reads the whole sum
        re = sum(abs(c.real) for _, c in s.items())
        im = sum(abs(c.imag) for _, c in s.items())
        if re and im:
            sign = 1.0 if re >= im else -1.0
            stacks = map(lambda b: 0.5 * (b + sign * adjoint(b)), stacks)
        if im > re:
            stacks = map(lambda b: 1j * b, stacks)
        # map, unlike a generator, holds no stack past its norm
        return max(map(spectral_norm, stacks)) + min(re, im)


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every block of a stack."""
    return np.swapaxes(a, -1, -2).conj()


class HermitianFactorization(NamedTuple):
    """Cached eigendecomposition ``h = vecs @ diag(vals) @ vecs^dag``.

    Built once per Hamiltonian group so that stage exponentials at many
    different time arguments are a diagonal rescale each.  ``h`` may be a
    stack of blocks; every array then carries the stack axis first.
    """

    vals: np.ndarray
    vecs: np.ndarray

    @classmethod
    def of(cls, h: np.ndarray, herm_tol: float = 1e-10) -> "HermitianFactorization":
        # entries that overflowed to inf (or nan) leave the defect nan, which
        # no comparison refuses, and send eigh into NaNs
        if not np.isfinite(h).all():
            raise OverflowError("a Hamiltonian block has non-finite entries")
        # the defect is anti-Hermitian, so its inf-norm (max row sum) bounds
        # its spectral norm from above at O(4^n) cost, without an SVD; over
        # a stack of blocks it is the inf-norm of their direct sum
        defect = float(np.max(np.sum(np.abs(h - adjoint(h)), axis=-1)))
        if not defect <= herm_tol:
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
        vals, vecs = np.linalg.eigh(h)
        return cls(vals=vals, vecs=vecs)

    def phases(self, tau: float) -> np.ndarray:
        """The eigenvalues ``exp(-i vals tau)`` of ``exp(-i h tau)``; an angle
        that overflows raises ``FloatingPointError``."""
        with np.errstate(over="raise"):
            return np.exp(-1j * (self.vals * tau))

    def expm_minus_i(self, tau: float) -> np.ndarray:
        """``exp(-i h tau)``, exactly unitary up to rounding."""
        return (self.vecs * self.phases(tau)[..., None, :]) @ adjoint(self.vecs)


def spectral_norm(h: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix, its largest |eigenvalue|; for a
    stack of blocks, that of their direct sum, and 0 for an empty stack.
    ``eigvalsh`` reads one triangle, so the caller vouches for Hermiticity."""
    if h.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))
