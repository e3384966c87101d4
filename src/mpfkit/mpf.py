"""Dense evaluation of multi-product formulas.

A multi-product step ``M(tau) = sum_j c_j T_p(tau / k_j)^{k_j}`` combines
powers of a symmetric even-order base step.  The nodes and weights are
solved in :mod:`mpfkit.formulas`; :class:`MPFEvaluator` forms the
combination densely and measures its error.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .formulas import MPFSpec
# outside __all__: perfbench/tracer.py wraps the solve as mpf.solve_coefficients
from .formulas import solve_coefficients  # noqa: F401
from .trotter import TrotterEvaluator, difference_norm

__all__ = ["MPFEvaluator"]


class MPFEvaluator:
    """Dense evaluation of the combined step against the exact propagator.

    Reads every base-formula factor from the given :class:`TrotterEvaluator`,
    so evaluators that share one reuse its cached group eigendecompositions;
    the k_j-fold powers are plain repeated matrix products.  Like the
    evaluator it works on the blocks of its basis; only :meth:`step`
    returns a full matrix.
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

    def combine(self, powers: Iterable[list[np.ndarray]]) -> list[np.ndarray]:
        """``sum_j c_j P_j`` for the base powers ``P_j = T(tau/k_j)^{k_j}``.

        Each power is given as the evaluator's blocks
        (:meth:`TrotterEvaluator.power_blocks`) and the sum is returned the
        same way, sized from the powers.  ``powers`` yields one power per
        node, in ``k_values`` order, and is read one power at a time, so a
        generator keeps only one alive.
        """
        terms = zip(self.mpf_spec.c_values, powers, strict=True)
        c, power = next(terms)
        acc = [c * b for b in power]
        for c, power in terms:
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
