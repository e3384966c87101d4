"""Dense evaluation of product-formula plans.

A plan (:mod:`mpfkit.formulas`) is a flat list of stages ``(group, alpha)``
with ``stages[0]`` acting first.  Each stage exponential is exact (group
eigendecomposition, cached per group), so measured errors are purely the
formula's own, down to rounding.  Every group and the full Hamiltonian are
block diagonal on the same invariant sectors, so the evaluator factorizes
and multiplies block by block.
"""

from __future__ import annotations

import numpy as np

from . import dense
from .formulas import ProductFormulaPlan, build_plan, loglog_slope, suzuki_fractions
from .hamiltonians import HamiltonianSpec

__all__ = [
    "ProductFormulaPlan",
    "build_plan",
    "suzuki_fractions",
    "TrotterEvaluator",
    "difference_norm",
    "geometric_grid",
    "loglog_slope",
]


class TrotterEvaluator:
    """Dense evaluator over the Hamiltonian's invariant sectors.

    Built once per (spec, plan).  The sectors are the connected components
    of the union of the nonzero patterns of every group matrix and the full
    Hamiltonian (:func:`dense.invariant_sectors`); every one of those
    matrices is exactly block diagonal on them.  Each group and the full
    Hamiltonian is factorized once per block, and every propagator is formed
    block by block: total magnetization splits a Heisenberg chain into
    blocks of sizes C(n, m), and a diagonal Hamiltonian into 1x1 blocks.
    A Hamiltonian with one sector is one block.

    Blocks of equal size are stacked.  The ``*_blocks`` methods return one
    ``(count, size, size)`` array per entry of ``sectors``, in that order;
    :func:`difference_norm` reads errors from them, and :meth:`scatter`
    writes them into the full matrix, which :meth:`formula_unitary` and
    :meth:`exact_unitary` return.
    """

    def __init__(
        self,
        spec: HamiltonianSpec,
        plan: ProductFormulaPlan,
        cap: int = dense.DEFAULT_DENSE_CAP,
    ) -> None:
        if plan.n_groups != spec.n_groups:
            raise ValueError(
                f"plan built for {plan.n_groups} groups, spec has {spec.n_groups}"
            )
        dense.check_dense_cap(spec.n_sites, cap)
        self.spec = spec
        self.plan = plan
        self.dim = 1 << spec.n_sites
        mats = [dense.from_pauli_sum(s, cap) for s in spec.group_sums]
        mats.append(dense.from_pauli_sum(spec.full_sum(), cap))
        self.sectors = dense.invariant_sectors(mats)
        # facts[s][m] factorizes matrix m on the stack of blocks sectors[s]
        facts = [
            [dense.HermitianFactorization.of(m[idx[:, :, None], idx[:, None, :]])
             for m in mats]
            for idx in self.sectors
        ]
        self._group_facts = [f[:-1] for f in facts]
        self._full_fact = [f[-1] for f in facts]

    def scatter(self, blocks: list[np.ndarray]) -> np.ndarray:
        """The full matrix whose blocks on ``sectors`` are ``blocks``."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for idx, b in zip(self.sectors, blocks, strict=True):
            out[idx[:, :, None], idx[:, None, :]] = b
        return out

    def exact_blocks(self, tau: float) -> list[np.ndarray]:
        return [f.expm_minus_i(tau) for f in self._full_fact]

    def formula_blocks(self, tau: float) -> list[np.ndarray]:
        out = []
        for facts in self._group_facts:
            u = None
            for g, a in self.plan.stages:
                stage = facts[g - 1].expm_minus_i(a * tau)
                u = stage if u is None else stage @ u
            out.append(u)
        return out

    def power_blocks(self, tau: float, k: int) -> list[np.ndarray]:
        """``T(tau/k)^k``: k formula steps of size tau/k."""
        return [np.linalg.matrix_power(b, k) for b in self.formula_blocks(tau / k)]

    def exact_unitary(self, tau: float) -> np.ndarray:
        return self.scatter(self.exact_blocks(tau))

    def formula_unitary(self, tau: float) -> np.ndarray:
        return self.scatter(self.formula_blocks(tau))

    def error(self, tau: float) -> float:
        return difference_norm(self.exact_blocks(tau), self.formula_blocks(tau))

    def error_sweep(self, taus: np.ndarray) -> np.ndarray:
        return np.array([self.error(t) for t in taus])


def difference_norm(a: list[np.ndarray], b: list[np.ndarray]) -> float:
    """``||A - B||_2`` for block-diagonal A and B given as stacks of blocks.

    The norm of a direct sum is the largest block norm.
    """
    return max(dense.spectral_norm(x - y) for x, y in zip(a, b, strict=True))


def geometric_grid(start: float, stop: float, points: int = 12) -> np.ndarray:
    """Geometrically spaced time arguments, ascending."""
    if not (0 < start < stop):
        raise ValueError("need 0 < start < stop")
    if points < 2:
        raise ValueError("need at least two points")
    return np.geomspace(start, stop, points)
