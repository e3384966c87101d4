"""Effective-generator series of a product formula.

A product-formula step is exactly ``exp(-i H_eff(tau) tau)`` with

    H_eff(tau) = H + sum_{q >= 2} Phi_q tau^{q-1}

and this module computes the operators ``Phi_q`` symbolically, in the
Dynkin-Specht-Wever form

    Phi_q = ((-i)^{q-1} / q) sum_w c_w [H_{w_1}, [H_{w_2}, ... H_{w_q}]]

over the group words w of length q, where c_w is the coefficient of w in
``log prod_v exp(a_v X_{g_v})``, the product's merged stages taken leftmost
factor first (Reutenauer, *Free Lie Algebras*, 1993; Casas and Murua,
J. Math. Phys. 50, 033513, 2009).  Expanding the log,

    c_w = sum_m (-1)^{m-1} / m  sum_{w = u_1 .. u_m}  prod_i B(u_i),

where B(u) sums prod_v a_v^{k_v} / k_v! over the ways (k_1..k_V) the stages
spell the word u.  Every float stage fraction is n_v / 2^S for one common
S, so B, the splits and the log run in exact integers and each c_w comes
from one correctly rounded division.  Words whose coefficient is zero, and
words ending in a repeated group (their nest vanishes), are dropped, so
the even orders of a palindromic plan evaluate no nest; the surviving
nested commutators share common suffixes.  :func:`check_series_budget`
counts this work before any order is built.

Orders ``q <= p`` vanish for an order-p plan, every ``Phi_q`` is Hermitian,
and the series truncated at order p0 reproduces the step unitary to
``3 N e^{-p0}`` accuracy inside the admissible time window.  Those are the
facts the verification helpers at the bottom measure.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .formulas import (
    DEFAULT_DENSE_CAP,
    LEAK_TOL,
    ProductFormulaPlan,
    loglog_slope,
)
from .hamiltonians import HamiltonianSpec
from .pauli import PauliSum

# numpy and the dense layer load in the dense checks only
if TYPE_CHECKING:
    import numpy as np

    from .trotter import TrotterEvaluator

__all__ = [
    "DEFAULT_SERIES_BUDGET",
    "check_series_budget",
    "compute_phi",
    "compute_phi_range",
    "phi_norm_bound",
    "phi_locality_bound",
    "phi_extensiveness_bound",
    "PhiReport",
    "phi_report",
    "effective_generator",
    "truncation_defect",
    "TruncationCheck",
    "check_truncated_generator",
]

DEFAULT_SERIES_BUDGET = 5 * 10**6


def _word_weights(
    slots: Sequence[tuple[int, float]], q: int
) -> tuple[int, dict[tuple[int, ...], int]]:
    """``(S, I)``: the integers I(u) = |u|! 2^{S |u|} B(u) of every word u of
    length 1..q that the stages spell, each stage fraction being n_v / 2^S.

    Built slot by slot, leftmost factor first: every prefix w of length l < q
    grows to ``w + (g_v,) * k`` for k = 0..q-l, its integer times
    C(l+k, k) n_v^k, and the words of length q it reaches leave the prefixes.
    """
    ratios = [(g, a.as_integer_ratio()) for g, a in slots]
    shift = max(d.bit_length() - 1 for _, (_, d) in ratios)
    prefixes: dict[tuple[int, ...], int] = {(): 1}
    words: dict[tuple[int, ...], int] = {}
    for g, (n, d) in ratios:
        n <<= shift - d.bit_length() + 1
        steps = [[math.comb(l + k, k) * n**k for k in range(q - l + 1)] for l in range(q)]
        grown: dict[tuple[int, ...], int] = {}
        for w, c in prefixes.items():
            for k, f in enumerate(steps[len(w)]):
                key = w + (g,) * k
                into = words if len(key) == q else grown
                into[key] = into.get(key, 0) + c * f
        prefixes = grown
    del prefixes[()]
    return shift, prefixes | words


def _log_coefficients(
    slots: Sequence[tuple[int, float]], q: int
) -> tuple[int, dict[tuple[int, ...], int]]:
    """``(D, N)`` with c_w = N[w] / D for every word w of length q over the
    stages' groups, exactly.

    A split DP runs forward over prefixes, shortest first: G[pre][m] is
    |pre|! 2^{S |pre|} times the sum over splits of pre into m spelled words
    of prod_i B(u_i), and each spelled word u with |pre| + |u| <= q extends
    it, G[pre + u][m + 1] += G[pre][m] C(|pre| + |u|, |pre|) I(u).  A word
    of length q closes the split, so its numerator
    sum_m (-1)^{m-1} (L / m) G[w][m], with L = lcm(1..q), is summed
    directly, and D = q! L 2^{S q}.
    """
    shift, weights = _word_weights(slots, q)
    by_len: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(q + 1)]
    for u, i in weights.items():
        by_len[len(u)].append((u, i))
    lcm = math.lcm(*range(1, q + 1))
    levels: list[dict[tuple[int, ...], list[int]]] = [{} for _ in range(q)]
    levels[0][()] = [1]
    numerators: dict[tuple[int, ...], int] = {}
    for j, level in enumerate(levels):
        for pre, vec in level.items():
            for l in range(1, q - j):
                into = levels[j + l]
                f = math.comb(j + l, j)
                for u, i in by_len[l]:
                    key = pre + u
                    t = into.get(key)
                    if t is None:
                        t = into[key] = [0] * (j + l + 1)
                    c = f * i
                    for m, x in enumerate(vec):
                        t[m + 1] += c * x
            # the last word makes m + 1 pieces: sign (-1)^m, weight L / (m + 1)
            s = math.comb(q, j) * sum(
                (-x if m % 2 else x) * (lcm // (m + 1)) for m, x in enumerate(vec)
            )
            for u, i in by_len[q - j]:
                key = pre + u
                numerators[key] = numerators.get(key, 0) + s * i
        level.clear()
    return math.factorial(q) * lcm << (shift * q), numerators


def compute_phi(plan: ProductFormulaPlan, spec: HamiltonianSpec, q: int) -> PauliSum:
    """The order-q coefficient of the effective-generator series.

    ``q = 1`` returns the Hamiltonian itself (the stage fractions sum to one
    per group).  Each word's coefficient c_w comes exactly from
    :func:`_log_coefficients` and is rounded once.  No budget is checked
    here; see :func:`compute_phi_range`.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if plan.n_groups != spec.n_groups:
        raise ValueError("plan and spec disagree on the group count")
    den, numerators = _log_coefficients(plan.merged_stages()[::-1], q)
    # [H_g, H_g] = 0 ends the nest of a word whose last two letters agree; a
    # one-letter word has no such pair
    agg = {w: n / den for w, n in numerators.items() if n and w[-2:-1] != w[-1:]}

    # evaluate the surviving nested commutators, sharing common suffixes
    acc: dict[tuple[int, int], complex] = {}
    stack: list[PauliSum | None] = [None] * q
    prev: tuple[int, ...] | None = None
    for seq in sorted(agg, key=lambda s: s[::-1]):
        weight = agg[seq]
        start = q - 1
        while prev and start >= 0 and prev[start] == seq[start]:
            start -= 1
        for j in range(start, -1, -1):
            h = spec.group_sum(seq[j])
            stack[j] = h if j == q - 1 else h.commutator(stack[j + 1])
        prev = seq
        nest = stack[0]
        if nest:
            for key, c in nest.items():
                acc[key] = acc.get(key, 0.0) + weight * c

    overall = (-1j) ** (q - 1) / q
    return PauliSum(spec.n_sites, {k: overall * c for k, c in acc.items()})


def check_series_budget(plan: ProductFormulaPlan, q_max: int) -> None:
    """Refuse a table Phi_2..Phi_qmax over ``DEFAULT_SERIES_BUDGET`` updates.

    Counted exactly, per order q: the word recursion's (prefix, k) updates
    in :func:`_word_weights`, and the split DP's (prefix, word) updates in
    :func:`_log_coefficients`, where each of the n_groups^j prefixes of a
    length j < q meets every spelled word of length at most q - j.
    """
    # replay the recursion on counts of the distinct prefixes by length, in
    # all and ending in each group: one ending in g after stage g is one not
    # ending in g and a run of g; one of length l < q makes q-l+1 updates
    orders = range(2, q_max + 1)
    by_len, ends, count = [1] + [0] * q_max, {}, 0
    for g, _ in plan.merged_stages()[::-1]:
        count += sum(by_len[l] * (q - l + 1) for q in orders for l in range(q))
        old = ends.get(g, [0] * (q_max + 1))
        ends[g] = [sum(by_len[j] - old[j] for j in range(l)) for l in range(q_max + 1)]
        by_len = [t - o + e for t, o, e in zip(by_len, old, ends[g])]
    # by_len[l] now counts the spelled words of length l
    count += sum(
        plan.n_groups**j * sum(by_len[1 : q - j + 1]) for q in orders for j in range(q)
    )
    if count > DEFAULT_SERIES_BUDGET:
        raise ValueError(
            f"Phi_2..Phi_{q_max} make {count} series updates, over the budget "
            f"{DEFAULT_SERIES_BUDGET}; lower q_max or the plan order"
        )


def compute_phi_range(
    plan: ProductFormulaPlan, spec: HamiltonianSpec, q_max: int
) -> dict[int, PauliSum]:
    """The table Phi_2..Phi_qmax, keyed by order, refused before any work
    by :func:`check_series_budget`."""
    check_series_budget(plan, q_max)
    return {q: compute_phi(plan, spec, q) for q in range(2, q_max + 1)}


def phi_norm_bound(stage_factor: float, alpha_q: float, q: int) -> float:
    """Series-coefficient bound: (stage factor)^q alpha_q / q^2."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return stage_factor**q * alpha_q / (q * q)


def phi_locality_bound(q: int, k: int) -> int:
    """Nested commutators of q k-local factors act on at most q k sites."""
    return q * k


def phi_extensiveness_bound(
    q: int, stage_factor: float, k: int, g: float
) -> float:
    """Extensiveness ceiling ((q-1)!/q) (2 c k g)^{q-1} c g for c = stage factor."""
    if q < 1:
        raise ValueError("q must be >= 1")
    spread = (2.0 * stage_factor * k * g) ** (q - 1)
    return math.factorial(q - 1) / q * spread * stage_factor * g


class PhiReport(NamedTuple):
    """One series coefficient with its measured and bounded sizes."""

    q: int
    norm: float
    norm_is_exact: bool
    norm_bound: float
    hermiticity_defect: float
    locality: int
    locality_bound: int
    extensiveness: float
    extensiveness_bound: float


def phi_report(
    plan: ProductFormulaPlan,
    spec: HamiltonianSpec,
    q: int,
    *,
    phi_q: PauliSum,
    alpha_q: float,
    norm_mode: str = "exact",
    cap: int = DEFAULT_DENSE_CAP,
) -> PhiReport:
    """Measure Phi_q and evaluate every bound the tables need.

    ``phi_q`` is the order-q series coefficient, taken from the table the
    caller built with :func:`compute_phi_range`; ``alpha_q`` is the order-q
    commutator sum, from :func:`mpfkit.commutators.commutator_sums`.  The
    exact norm is read as a nest's norm is, under the same allowance;
    in the one-norm mode or beyond the dense cap ``norm`` is the coefficient
    one-norm, an upper bound, and ``norm_is_exact`` is False.
    """
    norm_is_exact = norm_mode == "exact" and spec.n_sites <= cap
    if norm_is_exact:
        from .commutators import _sector_norm

        norm = _sector_norm(spec, None)(phi_q, q)
    else:
        norm = phi_q.one_norm()
    return PhiReport(
        q=q,
        norm=norm,
        norm_is_exact=norm_is_exact,
        norm_bound=phi_norm_bound(plan.stage_factor, alpha_q, q),
        hermiticity_defect=phi_q.hermiticity_defect(),
        locality=phi_q.locality(),
        locality_bound=phi_locality_bound(q, spec.locality),
        extensiveness=phi_q.extensiveness(),
        extensiveness_bound=phi_extensiveness_bound(
            q, plan.stage_factor, spec.locality, spec.extensiveness
        ),
    )


# -- truncated effective generator ----------------------------------------


def effective_generator(
    spec: HamiltonianSpec, tau: float, p0: int, phis: dict[int, PauliSum]
) -> PauliSum:
    """H + sum_{q=2}^{p0} Phi_q tau^{q-1}, the generator of one step."""
    if p0 < 1:
        raise ValueError("truncation order must be >= 1")
    gen = spec.full_sum()
    for q in range(2, p0 + 1):
        gen = gen + phis[q].scale(tau ** (q - 1))
    return gen


def truncation_defect(
    evaluator: TrotterEvaluator, phis: dict[int, PauliSum], tau: float, p0: int
) -> float:
    """|| T(tau) - exp(-i H_eff^{(p0)}(tau) tau) || at one time argument.

    The truncated generator is filled on the evaluator's frame, under the
    leak allowance ``LEAK_TOL sum_q (2 L)^q |tau|^(q-1)``, and factorized
    per stack.
    """
    from . import dense
    from .trotter import difference_norm

    spec = evaluator.spec
    gen = effective_generator(spec, tau, p0, phis)
    two_l = 2.0 * spec.total_one_norm
    tol = LEAK_TOL * sum(two_l**q * abs(tau) ** (q - 1) for q in range(1, p0 + 1))
    blocks = evaluator.frame.blocks(gen, tol)
    # the series coefficients carry float-product noise; symmetrized check
    facts = (dense.HermitianFactorization.of(b, herm_tol=1e-8) for b in blocks)
    exact = [f.expm_minus_i(tau) for f in facts]
    return difference_norm(evaluator.formula_blocks(tau), exact)


class TruncationCheck(NamedTuple):
    """Measured truncation defects at and below the admissible boundary."""

    p0: int
    epsilon: float
    tau_boundary: float
    taus: tuple[float, ...]
    defects: tuple[float, ...]
    passed: bool
    margin: float
    slope: float | None
    slope_points: int


def check_truncated_generator(
    evaluator: TrotterEvaluator,
    phis: dict[int, PauliSum],
    epsilon: float,
    p0: int,
    tau_boundary: float,
    *,
    subdivisions: Sequence[float] = (1.0, 0.5, 0.25),
    slope_grid: np.ndarray | None = None,
) -> TruncationCheck:
    """Verify the truncated series reproduces the step to epsilon.

    ``evaluator`` supplies the dense step of its plan and ``phis`` that
    plan's series coefficients Phi_2..Phi_p0 (higher orders are ignored).
    Measures the defect at ``tau_boundary`` scaled by each subdivision (all
    must come in below epsilon) and, when a slope grid is supplied, fits the
    defect's convergence order on it (expected about p0 + 1).
    """
    taus = tuple(tau_boundary * s for s in subdivisions)
    defects = tuple(truncation_defect(evaluator, phis, t, p0) for t in taus)
    worst = max(defects)
    slope = None
    n_used = 0
    if slope_grid is not None:
        errs = [truncation_defect(evaluator, phis, t, p0) for t in slope_grid]
        slope, n_used = loglog_slope(slope_grid, errs)
    return TruncationCheck(
        p0=p0,
        epsilon=epsilon,
        tau_boundary=tau_boundary,
        taus=taus,
        defects=defects,
        passed=worst <= epsilon,
        margin=epsilon - worst,
        slope=slope,
        slope_points=n_used,
    )
