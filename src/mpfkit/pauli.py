"""Bit-packed Pauli strings and real-time Pauli-sum algebra.

A Pauli string on ``n`` sites is encoded by two integer bitmasks ``(x, z)``,
bit ``j`` referring to site ``j``.  The operator represented is the canonical
Hermitian string

    P(x, z) = prod_j  i^{x_j z_j} X_j^{x_j} Z_j^{z_j}

so the per-site letters are I=(0,0), X=(1,0), Z=(0,1), Y=(1,1).  Products of
two strings are again a single string up to a power of ``i``; that power is
tracked exactly from popcounts of the masks, never from dense matrices.  Two
strings commute iff the symplectic product ``|x1&z2| + |z1&x2|`` is even.

Sums of strings are held in :class:`PauliSum` as a mapping
``(x, z) -> complex`` with like terms merged and entries below
``PRUNE_TOL`` dropped after every arithmetic operation.  All operations
return new objects; nothing mutates in place.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Iterator, Mapping

__all__ = [
    "PRUNE_TOL",
    "PauliTerm",
    "PauliSum",
    "parse_label",
    "term_product",
]

PRUNE_TOL = 1e-14

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
_LETTERS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_LETTER_OF = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


def parse_label(label: str) -> tuple[int, int]:
    """Translate a string like ``"XIZY"`` into ``(x_mask, z_mask)``.

    Character ``label[j]`` is the letter on site ``j``.  Raises
    ``ValueError`` on anything outside ``IXYZ``.
    """
    x = z = 0
    for j, ch in enumerate(label):
        try:
            xb, zb = _LETTERS[ch]
        except KeyError:
            raise ValueError(f"invalid Pauli letter {ch!r} in {label!r}") from None
        x |= xb << j
        z |= zb << j
    return x, z


def _mask_label(n_sites: int, x: int, z: int) -> str:
    return "".join(
        _LETTER_OF[((x >> j) & 1, (z >> j) & 1)] for j in range(n_sites)
    )


def term_product(x1: int, z1: int, x2: int, z2: int) -> tuple[int, int, complex]:
    """Multiply two canonical strings: ``P(x1,z1) P(x2,z2) = phase * P(x3,z3)``.

    The phase is ``i**e`` with
    ``e = |x1&z1| + |x2&z2| - |x3&z3| + 2|z1&x2|  (mod 4)``,
    which is exact integer bookkeeping for the i^{xz} X^x Z^z convention.
    """
    x3 = x1 ^ x2
    z3 = z1 ^ z2
    e = (
        (x1 & z1).bit_count()
        + (x2 & z2).bit_count()
        - (x3 & z3).bit_count()
        + 2 * (z1 & x2).bit_count()
    )
    return x3, z3, _PHASES[e & 3]


class PauliTerm(namedtuple("PauliTerm", "n_sites x_mask z_mask coeff")):
    """One weighted Pauli string.

    Attributes
    ----------
    n_sites:
        Number of sites the masks refer to.
    x_mask, z_mask:
        Bit ``j`` set means X (resp. Z) acts on site ``j``; both set means Y.
    coeff:
        Complex weight of the string.

    A named tuple, so immutable; ``__new__`` checks the site count and masks.
    """

    __slots__ = ()

    def __new__(cls, n_sites: int, x_mask: int, z_mask: int, coeff: complex):
        if n_sites < 1:
            raise ValueError("n_sites must be positive")
        top = 1 << n_sites
        if not (0 <= x_mask < top and 0 <= z_mask < top):
            raise ValueError("mask exceeds n_sites")
        return tuple.__new__(cls, (n_sites, x_mask, z_mask, coeff))

    @classmethod
    def from_label(cls, label: str, coeff: complex = 1.0) -> "PauliTerm":
        x, z = parse_label(label)
        return cls(len(label), x, z, complex(coeff))

    @property
    def label(self) -> str:
        return _mask_label(self.n_sites, self.x_mask, self.z_mask)


class PauliSum:
    """Canonical sum of Pauli strings on a fixed number of sites.

    Internally a dict ``(x_mask, z_mask) -> complex`` with like strings
    merged; entries with ``|coeff| < PRUNE_TOL`` are removed whenever a sum
    is built.  Instances are treated as immutable.
    """

    __slots__ = ("n_sites", "_data")

    def __init__(
        self,
        n_sites: int,
        data: Mapping[tuple[int, int], complex] | None = None,
    ) -> None:
        if n_sites < 1:
            raise ValueError("n_sites must be positive")
        self.n_sites = n_sites
        self._data = {
            key: complex(c) for key, c in (data or {}).items() if abs(c) >= PRUNE_TOL
        }

    # -- construction ------------------------------------------------------

    @classmethod
    def from_terms(cls, terms: Iterable[PauliTerm], n_sites: int | None = None) -> "PauliSum":
        terms = list(terms)
        if n_sites is None:
            if not terms:
                raise ValueError("n_sites required for an empty term list")
            n_sites = terms[0].n_sites
        acc: dict[tuple[int, int], complex] = {}
        for t in terms:
            if t.n_sites != n_sites:
                raise ValueError("site-count mismatch in term list")
            key = (t.x_mask, t.z_mask)
            acc[key] = acc.get(key, 0.0) + t.coeff
        return cls(n_sites, acc)

    @classmethod
    def from_label(cls, label: str, coeff: complex = 1.0) -> "PauliSum":
        t = PauliTerm.from_label(label, coeff)
        return cls(t.n_sites, {(t.x_mask, t.z_mask): t.coeff})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[tuple[int, int], complex]]:
        return iter(self._data.items())

    def __bool__(self) -> bool:
        return bool(self._data)

    def __repr__(self) -> str:
        parts = [
            f"({c:+.6g})*{_mask_label(self.n_sites, x, z)}"
            for (x, z), c in sorted(self._data.items())
        ]
        body = " ".join(parts) if parts else "0"
        return f"PauliSum[n={self.n_sites}: {body}]"

    # -- linear structure --------------------------------------------------

    def _check(self, other: "PauliSum") -> None:
        if self.n_sites != other.n_sites:
            raise ValueError("site-count mismatch")

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._check(other)
        acc = dict(self._data)
        for key, c in other._data.items():
            acc[key] = acc.get(key, 0.0) + c
        return PauliSum(self.n_sites, acc)

    def scale(self, factor: complex) -> "PauliSum":
        return PauliSum(
            self.n_sites, {key: factor * c for key, c in self._data.items()}
        )

    # -- multiplicative structure -----------------------------------------

    def commutator(self, other: "PauliSum") -> "PauliSum":
        """``[self, other]`` using the term-pair rule (skip commuting pairs)."""
        self._check(other)
        acc: dict[tuple[int, int], complex] = {}
        for (x1, z1), c1 in self._data.items():
            for (x2, z2), c2 in other._data.items():
                if not ((x1 & z2) ^ (z1 & x2)).bit_count() & 1:
                    continue
                x3, z3, ph = term_product(x1, z1, x2, z2)
                key = (x3, z3)
                acc[key] = acc.get(key, 0.0) + 2.0 * ph * c1 * c2
        return PauliSum(self.n_sites, acc)

    # -- norms and structure measures -------------------------------------

    def one_norm(self) -> float:
        """Sum of absolute coefficients (an upper bound on the spectral norm)."""
        return float(sum(abs(c) for c in self._data.values()))

    def locality(self) -> int:
        """Largest support size among the strings present (0 for empty sums)."""
        if not self._data:
            return 0
        return max((x | z).bit_count() for (x, z) in self._data)

    def extensiveness(self) -> float:
        """Max over sites of the total absolute weight of strings touching it.

        Identity strings touch no site and never contribute.  Returns 0.0
        for sums with no non-identity content.
        """
        per_site = [0.0] * self.n_sites
        for (x, z), c in self._data.items():
            m = x | z
            if not m:
                continue
            a = abs(c)
            j = 0
            while m:
                if m & 1:
                    per_site[j] += a
                m >>= 1
                j += 1
        return max(per_site) if per_site else 0.0

    def hermiticity_defect(self) -> float:
        """One-norm of ``self - adjoint(self)``; 0 for exactly real coefficients."""
        return float(sum(2.0 * abs(c.imag) for c in self._data.values()))
