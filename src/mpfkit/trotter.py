"""Dense evaluation of product-formula plans.

A plan (built in :mod:`mpfkit.formulas`) is a flat list of stages ``(group, alpha)``
with ``stages[0]`` acting first.  Each stage exponential is exact (group
eigendecomposition, cached per group), so measured errors are purely the
formula's own, down to rounding.  The evaluator factorizes and multiplies
block by block on the groups' :class:`mpfkit.dense.SectorFrame`.
"""

from __future__ import annotations

import numpy as np

from . import dense
from .formulas import DEFAULT_DENSE_CAP, ProductFormulaPlan, check_dense_cap
from .hamiltonians import HamiltonianSpec

__all__ = ["TrotterEvaluator", "difference_norm", "geometric_grid"]


class TrotterEvaluator:
    """Dense evaluator on the blocks of the groups' sector frame.

    Built once per (spec, plan) without a 2^n x 2^n matrix: ``frame`` is
    the :class:`mpfkit.dense.SectorFrame` of the groups, which H conserves
    too (magnetization shells of sizes C(n, m) for a Heisenberg chain, each
    split by the site reflection on an even-length chain).  Each group and H
    is factorized per block.  A step runs through the group eigenbases along
    the merged stages, ``T = V_last P_last W ... W P_first V_first^dag``,
    with each ``P`` a stage's phases and ``W = V_next^dag V_prev`` formed
    once per pair of groups (its adjoint serves the reverse step), so a
    stage costs one matrix product; only the first and last groups keep
    their eigenvectors.

    Blocks of equal size are stacked.  The ``*_blocks`` methods return one
    ``(count, size, size)`` array per entry of ``frame.basis``, in that
    order; :func:`difference_norm` reads errors from them.  :meth:`scatter`
    rotates them back into the full matrix, which :meth:`formula_unitary`
    returns.
    """

    def __init__(
        self,
        spec: HamiltonianSpec,
        plan: ProductFormulaPlan,
        cap: int = DEFAULT_DENSE_CAP,
    ) -> None:
        if plan.n_groups != spec.n_groups:
            raise ValueError(
                f"plan built for {plan.n_groups} groups, spec has {spec.n_groups}"
            )
        check_dense_cap(spec.n_sites, cap)
        self.spec = spec
        self.plan = plan
        self.frame = dense.SectorFrame.of(spec.group_sums)
        # facts[m][s] factorizes sum m on the stack of blocks frame.basis[s];
        # the groups keep the frame exactly and H up to its sum's rounding
        scale = 2.0 * spec.total_one_norm
        facts = [
            list(map(dense.HermitianFactorization.of, self.frame.blocks(s, scale)))
            for s in (*spec.group_sums, spec.full_sum())
        ]
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
        """The full matrix ``sum Q B Q^dag`` whose blocks on ``frame.basis``
        are ``blocks``, Q's columns being the basis vectors ``u |a> + v |r>``."""
        out = np.zeros((self.frame.dim,) * 2, dtype=complex)
        for p, b in zip(self.frame.basis, blocks, strict=True):
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
