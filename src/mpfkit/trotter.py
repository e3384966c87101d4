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

    Built once per (spec, plan) without a 2^n x 2^n matrix: the sectors are
    the components of the nonzeros of the groups' and H's permuted diagonals
    (magnetization shells of sizes C(n, m) for a Heisenberg chain), and each
    is factorized per block.  A step runs through the group eigenbases along
    the merged stages, ``T = V_last P_last W ... W P_first V_first^dag``,
    with each ``P`` a stage's phases and ``W = V_next^dag V_prev`` formed
    once, so a stage costs one matrix product.

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
        diags = list(map(dense.permuted_diagonals, (*spec.group_sums, spec.full_sum())))
        nonzero = [(xr, np.flatnonzero(d)) for ds in diags for xr, d in ds.items()]
        self.sectors = dense.invariant_sectors(self.dim, nonzero)
        # facts[m][s] factorizes sum m on the stack of blocks sectors[s]
        blocks = (dense.sector_blocks(ds, self.sectors) for ds in diags)
        facts = [list(map(dense.HermitianFactorization.of, b)) for b in blocks]
        self._group_facts = list(zip(*facts[:-1]))
        self._full_fact = facts[-1]
        # stages by 0-based group, and W[g, h] = V_h^dag V_g per stack
        self._stages = [(g - 1, a) for g, a in plan.merged_stages()]
        steps = {(g, h) for (g, _), (h, _) in zip(self._stages, self._stages[1:])}
        self._transitions = [
            {(g, h): dense.adjoint(f[h].vecs) @ f[g].vecs for g, h in steps}
            for f in self._group_facts
        ]

    def scatter(self, blocks: list[np.ndarray]) -> np.ndarray:
        """The full matrix whose blocks on ``sectors`` are ``blocks``."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for idx, b in zip(self.sectors, blocks, strict=True):
            out[idx[:, :, None], idx[:, None, :]] = b
        return out

    def exact_blocks(self, tau: float) -> list[np.ndarray]:
        return [f.expm_minus_i(tau) for f in self._full_fact]

    def formula_blocks(self, tau: float) -> list[np.ndarray]:
        (first, a), *rest = self._stages
        out = []
        for facts, transitions in zip(self._group_facts, self._transitions):
            g = first
            u = facts[g].phases(a * tau)[..., None] * dense.adjoint(facts[g].vecs)
            for h, b in rest:
                u = facts[h].phases(b * tau)[..., None] * (transitions[g, h] @ u)
                g = h
            out.append(facts[g].vecs @ u)
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
    pairs = zip(a, b, strict=True)
    return float(max(np.linalg.svd(x - y, compute_uv=False).max() for x, y in pairs))


def geometric_grid(start: float, stop: float, points: int = 12) -> np.ndarray:
    """Geometrically spaced time arguments, ascending."""
    if not (0 < start < stop):
        raise ValueError("need 0 < start < stop")
    if points < 2:
        raise ValueError("need at least two points")
    return np.geomspace(start, stop, points)
