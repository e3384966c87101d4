"""Multi-product formulas built on a symmetric even-order base plan.

A multi-product step is the linear combination

    M(tau) = sum_j c_j T_p(tau / k_j)^{k_j}

with distinct positive integers k_j and real weights c_j solving the
Richardson system

    sum_j c_j = 1,     sum_j c_j k_j^{-2i} = 0   for i = 1..J-1.

Because the base formula is symmetric its error series per step is odd in
tau, so cancelling the first J-1 correction orders lifts the step accuracy
from O(tau^{p+1}) to O(tau^{2J+1}).  The closed-form solution

    c_j = prod_{i != j} k_j^2 / (k_j^2 - k_i^2)

is authoritative here; a Gaussian-elimination solve of the same system in
exact rational arithmetic is kept as a cross-check, since the float
Vandermonde solve loses all accuracy well before J = 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import dense
from .trotter import TrotterEvaluator, difference_norm

__all__ = [
    "MAX_J",
    "MPFSpec",
    "closed_form_coefficients",
    "exact_system_solve",
    "vandermonde_residuals",
    "make_mpf_spec",
    "solve_coefficients",
    "build_mpf",
    "MPFEvaluator",
    "ConditionReport",
    "condition_report",
    "linear_k_specs",
]

MAX_J = 12


@dataclass(frozen=True)
class MPFSpec:
    """A solved multi-product formula: base order, nodes, weights, norms.

    ``m`` is the achieved order of the combined step, equal to ``2 * j_count``
    for the Richardson construction over a symmetric base plan.
    """

    base_order: int
    j_count: int
    k_values: tuple[int, ...]
    c_values: tuple[float, ...]
    m: int
    norm_k_1: float
    norm_c_1: float


def _validated_k(k_values: Iterable[int]) -> tuple[int, ...]:
    ks = tuple(int(k) for k in k_values)
    if not ks:
        raise ValueError("need at least one subdivision count")
    if any(k <= 0 for k in ks):
        raise ValueError("subdivision counts must be positive integers")
    if len(set(ks)) != len(ks):
        raise ValueError(f"duplicate subdivision counts in {ks}")
    if any(a >= b for a, b in zip(ks, ks[1:])):
        raise ValueError("subdivision counts must be strictly increasing")
    return ks


def closed_form_coefficients(k_values: Iterable[int]) -> list[Fraction]:
    """Exact weights c_j = prod_{i != j} k_j^2 / (k_j^2 - k_i^2)."""
    ks = [Fraction(k) for k in _validated_k(k_values)]
    out = []
    for j, kj in enumerate(ks):
        c = Fraction(1)
        for i, ki in enumerate(ks):
            if i != j:
                c *= kj * kj / (kj * kj - ki * ki)
        out.append(c)
    return out


def exact_system_solve(k_values: Iterable[int]) -> list[Fraction]:
    """Solve the Richardson system by Gaussian elimination over rationals.

    Independent of the closed-form product; used as a cross-check because a
    float solve of this Vandermonde system is hopeless past J of about 6.
    """
    ks = _validated_k(k_values)
    n = len(ks)
    rows = [
        [Fraction(1, k ** (2 * i)) for k in ks] + [Fraction(1 if i == 0 else 0)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[r][n] for r in range(n)]


def vandermonde_residuals(
    k_values: Sequence[int], c_values: Sequence[float]
) -> np.ndarray:
    """Row-wise defect of the Richardson system in float arithmetic."""
    ks = np.asarray(k_values, dtype=float)
    cs = np.asarray(c_values, dtype=float)
    if ks.shape != cs.shape:
        raise ValueError("k and c lists must have equal length")
    out = np.empty(len(ks))
    for i in range(len(ks)):
        target = 1.0 if i == 0 else 0.0
        out[i] = abs(float(np.sum(cs * ks ** (-2.0 * i))) - target)
    return out


def make_mpf_spec(
    k_values: Iterable[int],
    c_values: Sequence[float],
    base_order: int = 2,
    m: int | None = None,
    residual_tol: float | None = 1e-10,
) -> MPFSpec:
    """Assemble a spec from explicit nodes and weights, checking the system.

    Pass ``residual_tol=None`` to admit weights that deliberately do not
    solve the Richardson system (the slope fit then reveals what order they
    actually achieve).
    """
    ks = _validated_k(k_values)
    cs = tuple(float(c) for c in c_values)
    if len(cs) != len(ks):
        raise ValueError("k and c lists must have equal length")
    if base_order < 2 or base_order % 2:
        raise ValueError("base order must be a positive even integer")
    if residual_tol is not None:
        worst = float(np.max(vandermonde_residuals(ks, cs)))
        if worst > residual_tol:
            raise ValueError(
                f"Richardson residual {worst:g} exceeds {residual_tol:g}"
            )
    j = len(ks)
    return MPFSpec(
        base_order=base_order,
        j_count=j,
        k_values=ks,
        c_values=cs,
        m=2 * j if m is None else int(m),
        norm_k_1=float(sum(ks)),
        norm_c_1=float(sum(abs(c) for c in cs)),
    )


def solve_coefficients(
    k_values: Iterable[int], base_order: int = 2
) -> MPFSpec:
    """Solve for the extrapolation weights of the given subdivision counts."""
    ks = _validated_k(k_values)
    if len(ks) > MAX_J:
        raise ValueError(f"J = {len(ks)} exceeds the supported maximum {MAX_J}")
    closed = closed_form_coefficients(ks)
    solved = exact_system_solve(ks)
    worst = max(abs(float(a - b)) for a, b in zip(closed, solved))
    if worst > 1e-8:
        raise ArithmeticError(
            f"closed form and system solve disagree by {worst:g}"
        )
    return make_mpf_spec(ks, [float(c) for c in closed], base_order)


def build_mpf(j_count: int, base_order: int = 2) -> MPFSpec:
    """The default scheme k_j = j for j = 1..J."""
    if j_count < 1:
        raise ValueError("need at least one term")
    return solve_coefficients(range(1, j_count + 1), base_order)


class MPFEvaluator:
    """Dense evaluation of the combined step against the exact propagator.

    Reads every base-formula factor from the given :class:`TrotterEvaluator`,
    so evaluators that share one reuse its cached group eigendecompositions;
    the k_j-fold powers are plain repeated matrix products.  Like the
    evaluator it works on the blocks of the invariant sectors; only
    :meth:`step` and :meth:`exact_unitary` return full matrices.
    """

    def __init__(self, mpf_spec: MPFSpec, trotter: TrotterEvaluator) -> None:
        plan = trotter.plan
        if not plan.symmetric or plan.order % 2:
            raise ValueError(
                "multi-product combination requires a symmetric even-order plan"
            )
        if plan.order != mpf_spec.base_order:
            raise ValueError(
                f"plan order {plan.order} != spec base order {mpf_spec.base_order}"
            )
        self.mpf_spec = mpf_spec
        self._trotter = trotter

    def exact_unitary(self, tau: float) -> np.ndarray:
        return self._trotter.exact_unitary(tau)

    def combine(self, powers: Iterable[list[np.ndarray]]) -> list[np.ndarray]:
        """``sum_j c_j P_j`` for the base powers ``P_j = T(tau/k_j)^{k_j}``.

        Each power is given as the evaluator's blocks
        (:meth:`TrotterEvaluator.power_blocks`) and the sum is returned the
        same way.  ``powers`` yields one power per node, in ``k_values``
        order, and is read one power at a time, so a generator keeps only
        one alive.
        """
        acc = [
            np.zeros(idx.shape + idx.shape[-1:], dtype=complex)
            for idx in self._trotter.sectors
        ]
        for c, power in zip(self.mpf_spec.c_values, powers, strict=True):
            for a, b in zip(acc, power, strict=True):
                a += c * b
        return acc

    def step_blocks(self, tau: float) -> list[np.ndarray]:
        return self.combine(
            self._trotter.power_blocks(tau, k) for k in self.mpf_spec.k_values
        )

    def step(self, tau: float) -> np.ndarray:
        return self._trotter.scatter(self.step_blocks(tau))

    def error(self, tau: float) -> float:
        return difference_norm(self._trotter.exact_blocks(tau), self.step_blocks(tau))

    def error_sweep(self, taus: np.ndarray) -> np.ndarray:
        return np.array([self.error(t) for t in taus])

    def long_time_error(self, t: float, steps: int) -> float:
        """Actual deviation of the repeated step over a full evolution.

        The combined step is not unitary, so the r-fold product is formed
        explicitly (binary powering) rather than bounded term by term.
        """
        if steps < 1:
            raise ValueError("need a positive step count")
        repeated = [np.linalg.matrix_power(b, steps) for b in self.step_blocks(t / steps)]
        return difference_norm(self._trotter.exact_blocks(t), repeated)


@dataclass(frozen=True)
class ConditionReport:
    """Growth of the weight and node 1-norms across a J-sweep."""

    j_values: tuple[int, ...]
    norm_c_values: tuple[float, ...]
    norm_k_values: tuple[float, ...]
    power_exponent: float
    power_residual: float
    log_residual: float
    subpolynomial: bool


def linear_k_specs(
    j_max: int, base_order: int = 2, j_min: int = 1
) -> list[MPFSpec]:
    """Solved specs for the k_j = j scheme across J = j_min..j_max."""
    return [build_mpf(j, base_order) for j in range(j_min, j_max + 1)]


def condition_report(specs: Sequence[MPFSpec]) -> ConditionReport:
    """Fit how the weight 1-norm grows with the term count.

    Compares a power law ``norm ~ J^s`` against a logarithmic model
    ``norm ~ a + b ln J``; the scheme counts as sub-polynomial when the
    logarithmic model fits at least as well.  Purely diagnostic.
    """
    ordered = sorted(specs, key=lambda s: s.j_count)
    js = [s.j_count for s in ordered]
    if len(js) < 3 or len(set(js)) != len(js):
        raise ValueError("need at least three specs with distinct term counts")
    norm_c = np.array([s.norm_c_1 for s in ordered])
    norm_k = np.array([s.norm_k_1 for s in ordered])
    ln_j = np.log(np.asarray(js, dtype=float))
    power_exponent, power_residual = dense.fit_line(ln_j, np.log(norm_c))
    _, log_residual = dense.fit_line(ln_j, norm_c)
    log_residual /= float(np.mean(norm_c))
    return ConditionReport(
        j_values=tuple(js),
        norm_c_values=tuple(float(x) for x in norm_c),
        norm_k_values=tuple(float(x) for x in norm_k),
        power_exponent=power_exponent,
        power_residual=power_residual,
        log_residual=log_residual,
        subpolynomial=log_residual <= power_residual,
    )
