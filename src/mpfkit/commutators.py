"""Nested-commutator sums, their closed-form bounds, and the step constant.

The central quantity is the order-q commutator sum of a grouped Hamiltonian,

    alpha_q = sum over (g_1..g_q) of || [H_{g_q}, ... [H_{g_2}, H_{g_1}]] ||

with the rightmost pair innermost.  It is enumerated exactly by depth-first
search over group tuples with the partial nests shared along prefixes and
zero branches pruned; one search, :func:`commutator_sums`, yields every
order up to q_max and, given a product-formula plan, that plan's series
coefficients Phi_q from the same nests (see :mod:`mpfkit.bch`).  It refuses
its own tuple and series budgets before any nest is built.  It starts
from the pairs g_1 < g_2 only and counts each nest twice, since the swapped
pair negates the whole subtree, and takes exact norms block by block on the
groups' sector frame.  Two closed forms dominate it: the
factorial/locality form  (q-1)! (2 k g)^{q-1} N g  and the crude power form
(2 L)^q  with L the total one-norm.

On top of the alpha table sits the step-size constant mu, which controls how
far the multi-product step can be pushed: the supremum over compositions of
the T-th root of the summed alpha products whose orders add up to T.  It is
1/x0 for the root x0 of sum_v alpha_v x^v = 1, found by bisection.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping

from .formulas import DEFAULT_DENSE_CAP, ProductFormulaPlan, check_dense_cap
from .hamiltonians import HamiltonianSpec
from .pauli import PauliSum

__all__ = [
    "DEFAULT_TUPLE_BUDGET",
    "check_tuple_budget",
    "commutator_sums",
    "nested_commutator_sum",
    "factorial_commutator_bound",
    "power_commutator_bound",
    "mu_from_alphas",
    "mu_window_bound",
]

DEFAULT_TUPLE_BUDGET = 10**6


def check_tuple_budget(n_groups: int, q_max: int) -> None:
    """Refuse an enumeration to order q_max over ``DEFAULT_TUPLE_BUDGET``
    group tuples, n_groups^q_max, or a one-group walk's q_max - 1 orders."""
    if n_groups == 1 and q_max - 1 > DEFAULT_TUPLE_BUDGET:
        raise ValueError(
            f"a one-group walk's {q_max - 1} orders exceed the budget "
            f"{DEFAULT_TUPLE_BUDGET}; lower q_max"
        )
    # 2^b exceeds the budget at its bit length b, so the power stops at b
    if n_groups ** min(q_max, DEFAULT_TUPLE_BUDGET.bit_length()) > DEFAULT_TUPLE_BUDGET:
        raise ValueError(
            f"{n_groups}^{q_max} tuples exceed the budget "
            f"{DEFAULT_TUPLE_BUDGET}; lower q_max"
        )


def commutator_sums(
    spec: HamiltonianSpec,
    q_max: int,
    mode: str | None = "exact",
    cap: int = DEFAULT_DENSE_CAP,
    plan: ProductFormulaPlan | None = None,
) -> tuple[dict[int, float], dict[int, PauliSum]]:
    """``(alphas, phis)``: the norm sums alpha_2..alpha_qmax of the nonzero
    nests, by order, and the series coefficients Phi_1..Phi_qmax of ``plan``
    ({} without one), from one enumeration.

    One depth-first search walks the group tuples, extending each nonzero
    nest by every group and descending only while its order is below
    q_max.  From order 2 on it starts from the pairs g_1 < g_2 alone, in
    lexicographic order, and adds each nest's norm with weight 2: the pair
    (g_2, g_1) gives the negated nest and negates its whole subtree.
    ``mode="exact"`` measures spectral norms on the groups' sector frame
    (:meth:`mpfkit.dense.SectorFrame.norm` at the scale (2 L)^q, the frame
    found at the first nonzero nest);
    ``mode="one-norm"`` replaces every norm by the coefficient one-norm of
    the same symbolically exact nest (an upper bound, no dense work);
    ``mode=None`` takes none.  Before any nest or weight is built it refuses
    the tuple budget, the norm mode, the dense cap, the plan's group count
    and then :func:`mpfkit.bch.check_series_budget`.  A plan's walk adds
    each nest r times c_r - c_r' to Phi_q (:func:`mpfkit.bch._pair_weights`);
    without norms it forms a top-order nest only for a nonzero difference.
    """
    if q_max < 1:
        raise ValueError("q must be >= 1")
    check_tuple_budget(spec.n_groups, q_max)
    if mode not in ("exact", "one-norm", None):
        raise ValueError(f"unknown norm mode {mode!r} (use 'exact' or 'one-norm')")
    if mode == "exact":
        check_dense_cap(spec.n_sites, cap)
    weigh = None
    if plan is not None:
        from .bch import _pair_weights, check_series_budget

        if plan.n_groups != spec.n_groups:
            raise ValueError("plan and spec disagree on the group count")
        check_series_budget(plan, q_max)
        weigh = _pair_weights(plan, q_max)
    alphas = dict.fromkeys(range(2, q_max + 1), 0.0)
    acc: dict[int, dict[tuple[int, int], complex]] = {q: {} for q in range(1, q_max + 1)}
    two_l = 2.0 * spec.total_one_norm

    @functools.cache
    def frame():
        from .dense import SectorFrame  # numpy loads with the first nest normed

        return SectorFrame.of(spec.group_sums)

    def descend(word: tuple[int, ...], nest: PauliSum | None, chains) -> None:
        depth = len(word)
        if mode and depth >= 2:
            norm = frame().norm(nest, two_l**depth) if mode == "exact" else nest.one_norm()
            alphas[depth] += 2.0 * norm
        if depth == q_max:
            return
        first = word[0] if depth == 1 else 0
        for g, h in enumerate(spec.group_sums[first:], first + 1):
            n, den, grown = weigh(word + (g,), chains) if weigh else (0, 1, None)
            if not (n or mode or depth + 1 < q_max):
                continue
            nxt = h.commutator(nest) if depth else h
            if nxt:
                if n:  # the one rounding of the pair's coefficient
                    c, into = n / den, acc[depth + 1]
                    for key, x in nxt.items():
                        into[key] = into.get(key, 0.0) + c * x
                descend(word + (g,), nxt, grown)

    descend((), None, None)
    overall = {q: (-1j) ** (q - 1) / q for q in acc if weigh}  # none without a plan
    return alphas, {q: PauliSum(spec.n_sites, acc[q]).scale(f) for q, f in overall.items()}


def nested_commutator_sum(
    spec: HamiltonianSpec,
    q: int,
    mode: str = "exact",
    cap: int = DEFAULT_DENSE_CAP,
) -> float:
    """The order-q commutator sum, q >= 2, as :func:`commutator_sums` has it."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return commutator_sums(spec, q, mode, cap)[0][q]


def factorial_commutator_bound(q: int, k: int, g: float, n_sites: int) -> float:
    """Closed form (q-1)! (2 k g)^{q-1} N g for k-local, g-extensive input."""
    if q < 1:
        raise ValueError("q must be >= 1")
    bound = math.factorial(q - 1) * (2.0 * k * g) ** (q - 1) * n_sites * g
    if not math.isfinite(bound):
        raise OverflowError(f"the factorial bound on alpha_{q} is {bound}")
    return bound


def power_commutator_bound(q: int, total_one_norm: float) -> float:
    """Crude bound (2 L)^q with L the summed absolute term weights."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return (2.0 * total_one_norm) ** q


# -- the step constant mu --------------------------------------------------


def mu_from_alphas(alphas: Mapping[int, float], p: int, p0: int) -> float:
    """The step constant mu: the supremum over n >= 1 and T of
    ([x^T] A(x)^n)^(1/T), with A(x) = sum_{v=p+1}^{p0} alpha_v x^v.

    A has nonnegative coefficients, so [x^T] A(x)^n <= A(x)^n / x^T at every
    x > 0: at the root x0 of A(x0) = 1 every candidate is at most 1/x0, and
    the candidates approach it as n grows.  So mu = 1/x0 whatever the
    combination order.  In y = 1/x, with r_v = alpha_v^(1/v), the root of
    sum (r_v / y)^v = 1 lies in [t, K t] for t the largest r_v over the K
    nonzero alphas; bisection returns the first float above its upper end.
    The alphas mapping must cover [p+1, p0]; all zero gives 0.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if p0 < p + 1:
        raise ValueError("p0 must be at least p+1")
    for v in range(p + 1, p0 + 1):
        if v not in alphas:
            raise KeyError(f"alpha({v}) missing from the table")
    roots = [(v, alphas[v] ** (1.0 / v)) for v in range(p + 1, p0 + 1) if alphas[v]]
    if not roots:
        return 0.0
    lo = max(r for _, r in roots)
    hi = len(roots) * lo
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if math.fsum((r / mid) ** v for v, r in roots) <= 1.0:
            hi = mid
        else:
            lo = mid
    return math.nextafter(hi, math.inf)


def mu_window_bound(n_sites: int, p: int, p0: int, k: int, g: float) -> float:
    """Closed-form ceiling 4 max((p+1) N^{1/(p+1)}, e^3 p0) k g."""
    if p < 1 or p0 < p + 1:
        raise ValueError("need p >= 1 and p0 >= p+1")
    return (
        4.0
        * max((p + 1) * n_sites ** (1.0 / (p + 1)), math.e**3 * p0)
        * k
        * g
    )
