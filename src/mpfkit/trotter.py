"""Dense evaluation of product-formula plans.

A plan (:mod:`mpfkit.formulas`) is a flat list of stages ``(group, alpha)``
with ``stages[0]`` acting first.  Each stage exponential is exact (group
eigendecomposition, cached per group), so measured errors are purely the
formula's own, down to rounding.  Every group and the full Hamiltonian are
block diagonal on the same invariant sectors, and, when every group is its
own mirror image under the site reflection, on the symmetric and
antisymmetric halves of each sector that the reflection maps onto itself;
the evaluator factorizes and multiplies block by block on those blocks.
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
    (magnetization shells of sizes C(n, m) for a Heisenberg chain).  When
    every group equals its mirror image under the site reflection R
    (j -> n-1-j), as on an even-length chain, each sector that R maps onto
    itself splits further into its symmetric and antisymmetric blocks
    (``reflected`` is then true).  ``basis`` lists the block stacks, as
    :class:`mpfkit.dense.ParityStack` s, and ``sectors`` the unsplit
    sectors.  Each sum is factorized per block.  A step
    runs through the group eigenbases along the merged stages,
    ``T = V_last P_last W ... W P_first V_first^dag``, with each ``P`` a
    stage's phases and ``W = V_next^dag V_prev`` formed once per pair of
    groups (its adjoint serves the reverse step), so a stage costs one
    matrix product; only the first and last groups keep their eigenvectors.

    Blocks of equal size are stacked.  The ``*_blocks`` methods return one
    ``(count, size, size)`` array per entry of ``basis``, in that order;
    :func:`difference_norm` reads errors from them.  :meth:`scatter` rotates
    them back into the full matrix, which :meth:`formula_unitary` returns.
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
        sums = (*spec.group_sums, spec.full_sum())
        diags = list(map(dense.permuted_diagonals, sums))
        nonzero = [(xr, np.flatnonzero(d)) for ds in diags for xr, d in ds.items()]
        self.sectors = dense.invariant_sectors(self.dim, nonzero)
        self.reflected = not any(map(dense.mirror_odd_norm, sums))
        self.basis = dense.parity_basis(
            self.sectors, spec.n_sites if self.reflected else None
        )
        # facts[m][s] factorizes sum m on the stack of blocks basis[s]
        blocks = (dense.parity_blocks(ds, self.basis) for ds in diags)
        facts = [list(map(dense.HermitianFactorization.of, b)) for b in blocks]
        self._full_fact = facts[-1]
        # stages by 0-based group, W[g, h] = V_h^dag V_g per stack for g < h,
        # and eigenvectors kept for the first and last stage groups only
        self._stages = [(g - 1, a) for g, a in plan.merged_stages()]
        groups = [g for g, _ in self._stages]
        steps = {(min(gh), max(gh)) for gh in zip(groups, groups[1:])}
        ends = (groups[0], groups[-1])
        self._transitions = [
            {(g, h): dense.adjoint(f[h].vecs) @ f[g].vecs for g, h in steps}
            for f in zip(*facts[:-1])
        ]
        self._group_facts = [
            [x if g in ends else x._replace(vecs=None) for g, x in enumerate(f)]
            for f in zip(*facts[:-1])
        ]

    def scatter(self, blocks: list[np.ndarray]) -> np.ndarray:
        """The full matrix ``sum Q B Q^dag`` whose blocks on ``basis`` are
        ``blocks``, Q's columns being the basis vectors ``u |a> + v |r>``."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for p, b in zip(self.basis, blocks, strict=True):
            pair = p.index != p.mirror
            u = np.where(pair, 0.5**0.5, 1.0)
            v = np.where(pair, 0.5**0.5, 0.0) * p.sign[:, None]
            # a stack may hold both parity blocks of one sector, so add.at
            for rows, x in ((p.index, u), (p.mirror, v)):
                for cols, y in ((p.index, u), (p.mirror, v)):
                    val = x[:, :, None] * b * y[:, None, :]
                    np.add.at(out, (rows[:, :, None], cols[:, None, :]), val)
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
                w = transitions[g, h] if g < h else dense.adjoint(transitions[h, g])
                u = facts[h].phases(b * tau)[..., None] * (w @ u)
                g = h
            out.append(facts[g].vecs @ u)
        return out

    def power_blocks(self, tau: float, k: int) -> list[np.ndarray]:
        """``T(tau/k)^k``: k formula steps of size tau/k."""
        return [np.linalg.matrix_power(b, k) for b in self.formula_blocks(tau / k)]

    def formula_unitary(self, tau: float) -> np.ndarray:
        return self.scatter(self.formula_blocks(tau))

    def error(self, tau: float) -> float:
        return difference_norm(self.exact_blocks(tau), self.formula_blocks(tau))


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
