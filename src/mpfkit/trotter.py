"""Product-formula plans and their dense evaluation.

A plan is a flat list of stages ``(group, alpha)``; the simulated unitary is

    T(tau) = U_V ... U_2 U_1,      U_v = exp(-i H_{group_v} alpha_v tau)

so ``stages[0]`` acts first (rightmost factor).  First order is one
left-to-right sweep over the groups; second order is the palindrome
``T_1(tau/2)`` followed by its reflection; higher even orders come from the
recursive five-block construction with

    u_p = 1 / (4 - 4^{1/(p-1)})

Each stage exponential is exact (group eigendecomposition, cached per group),
so measured errors are purely the formula's own, down to rounding.  Every
group and the full Hamiltonian are block diagonal on the same invariant
sectors, so the evaluator factorizes and multiplies block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dense
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


@dataclass(frozen=True)
class ProductFormulaPlan:
    """Stage list of one product-formula step.

    ``stage_factor`` is the literal stage count divided by the group count
    (1, 2, 10, 50 for orders 1, 2, 4, 6); ``symmetric`` records whether the
    stage list is its own reverse, which is what makes even-order error
    series odd in tau.
    """

    order: int
    n_groups: int
    stages: tuple[tuple[int, float], ...]
    stage_factor: float
    symmetric: bool

    def merged_stages(self) -> tuple[tuple[int, float], ...]:
        """Collapse adjacent stages acting with the same group.

        Exact for the product (same-generator exponentials compose by adding
        angles); used to shrink the slot count in series expansions.
        """
        out: list[tuple[int, float]] = []
        for g, a in self.stages:
            if out and out[-1][0] == g:
                out[-1] = (g, out[-1][1] + a)
            else:
                out.append((g, a))
        return tuple(out)


def suzuki_fractions(order: int) -> float:
    """The recursion fraction u_p for even order p >= 4."""
    if order < 4 or order % 2:
        raise ValueError("recursion fraction defined for even order >= 4")
    return 1.0 / (4.0 - 4.0 ** (1.0 / (order - 1)))


def _first_order(n_groups: int) -> list[tuple[int, float]]:
    return [(g, 1.0) for g in range(1, n_groups + 1)]


def _second_order(n_groups: int) -> list[tuple[int, float]]:
    forward = [(g, 0.5) for g in range(1, n_groups + 1)]
    return forward + forward[::-1]


def build_plan(n_groups: int, order: int) -> ProductFormulaPlan:
    """Construct the stage list for order 1, 2, or any even order >= 4."""
    if n_groups < 1:
        raise ValueError("need at least one group")
    if order == 1:
        stages = _first_order(n_groups)
    elif order == 2:
        stages = _second_order(n_groups)
    elif order >= 4 and order % 2 == 0:
        stages = _second_order(n_groups)
        for p in range(4, order + 1, 2):
            u = suzuki_fractions(p)
            outer = [(g, a * u) for g, a in stages]
            middle = [(g, a * (1.0 - 4.0 * u)) for g, a in stages]
            stages = outer + outer + middle + outer + outer
    else:
        raise ValueError(f"unsupported order {order} (use 1, 2, or even >= 4)")
    tup = tuple(stages)
    symmetric = tup == tup[::-1]
    return ProductFormulaPlan(
        order=order,
        n_groups=n_groups,
        stages=tup,
        stage_factor=len(tup) / n_groups,
        symmetric=symmetric,
    )


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


def loglog_slope(
    taus: np.ndarray,
    errors: np.ndarray,
    floor: float = 1e-12,
) -> tuple[float, int]:
    """Least-squares slope of log(error) vs log(tau) above a noise floor.

    Points whose error is below ``floor`` carry rounding noise rather than
    formula error and are discarded; at least three must survive.
    Returns (slope, points_used).
    """
    taus = np.asarray(taus, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors >= floor
    n_used = int(np.sum(mask))
    if n_used < 3:
        raise ValueError(
            f"only {n_used} points above the noise floor {floor:g}; "
            "enlarge the time grid"
        )
    slope, _ = dense.fit_line(np.log(taus[mask]), np.log(errors[mask]))
    return slope, n_used
