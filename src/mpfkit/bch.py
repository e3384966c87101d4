"""Effective-generator series of a product formula.

A product-formula step is exactly ``exp(-i H_eff(tau) tau)`` with

    H_eff(tau) = H + sum_{q >= 2} Phi_q tau^{q-1}

and this module computes the operators ``Phi_q`` symbolically.  Each one is
assembled from the log of a product of exponentials: summing over
compositions ``(q_1..q_V)`` of q across the product's factors (leftmost
factor first) with weight ``prod_v alpha_v^{q_v} / q_v!``, of a fixed
permutation average

    phi_q(A_1..A_q) = (1/q^2) sum_{sigma} (-1)^{d_sigma} / C(q-1, d_sigma)
                      [A_{sigma(1)}, [A_{sigma(2)}, ... A_{sigma(q)}]]

where ``d_sigma`` counts adjacent descents, times an overall ``(-i)^{q-1}``.
The average depends on a composition only through its group word (the
group labels it spells out), so a recursion over word prefixes, one merged
stage at a time, sums the weights per word instead of visiting all
C(q+V-1, V-1) compositions.  Permutation weights are summed as exact
integers once per word's equality pattern and relabelled for each word, so
sequences whose weights cancel are never evaluated; the surviving nested
commutators share common suffixes.  :func:`check_series_budget` counts this
work before any order is built.

Orders ``q <= p`` vanish for an order-p plan, every ``Phi_q`` is Hermitian,
and the series truncated at order p0 reproduces the step unitary to
``3 N e^{-p0}`` accuracy inside the admissible time window.  Those are the
facts the verification helpers at the bottom measure.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
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
    "DEFAULT_RECURSION_BUDGET",
    "DEFAULT_PERMUTATION_BUDGET",
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

DEFAULT_RECURSION_BUDGET = 10**6
DEFAULT_PERMUTATION_BUDGET = 3 * 10**7


@lru_cache(maxsize=16)
def _perm_weights(q: int) -> tuple[int, tuple[tuple[tuple[int, ...], int], ...]]:
    """``(den, ((sigma, n), ...))`` over the permutations of 0..q-1, with
    ``n / den = (-1)^d / C(q-1, d)`` exactly and ``den = lcm_d C(q-1, d)``."""
    den = math.lcm(*(math.comb(q - 1, d) for d in range(q)))
    out = []
    for sigma in itertools.permutations(range(q)):
        d = sum(1 for i in range(q - 1) if sigma[i] > sigma[i + 1])
        out.append((sigma, (-1) ** d * (den // math.comb(q - 1, d))))
    return den, tuple(out)


def _word_weights(
    slots: Sequence[tuple[int, float]], q: int
) -> dict[tuple[int, ...], float]:
    """Sum over compositions (q_1..q_V) of q of prod_v a_v^{q_v} / q_v!, keyed
    by the group word g_1^{q_1} .. g_V^{q_V} each one spells.

    Built slot by slot, leftmost factor first: every prefix w of length l < q
    grows to ``w + (g_v,) * k`` for k = 0..q-l with weight a_v^k / k!, and
    the words of length q it reaches leave the prefixes.
    """
    prefixes: dict[tuple[int, ...], float] = {(): 1.0}
    words: dict[tuple[int, ...], float] = {}
    for g, a in slots:
        powers = [a**k / math.factorial(k) for k in range(q + 1)]
        grown: dict[tuple[int, ...], float] = {}
        for w, c in prefixes.items():
            for k in range(q - len(w) + 1):
                key = w + (g,) * k
                into = words if len(key) == q else grown
                into[key] = into.get(key, 0.0) + c * powers[k]
        prefixes = grown
    return words


def compute_phi(plan: ProductFormulaPlan, spec: HamiltonianSpec, q: int) -> PauliSum:
    """The order-q coefficient of the effective-generator series.

    ``q = 1`` returns the Hamiltonian itself (the stage fractions sum to one
    per group).  One weight per group word comes from :func:`_word_weights`,
    and exact permutation weights are summed once per equality pattern of
    its at most n_groups^q words.  No budget is checked here; see
    :func:`compute_phi_range`.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if plan.n_groups != spec.n_groups:
        raise ValueError("plan and spec disagree on the group count")
    # sum the exact weights once per equality pattern of a group word (the
    # word relabelled 0, 1, ... by first occurrence), then relabel them for
    # each word: distinct keys stay distinct, and int / int rounds correctly
    den, weights = _perm_weights(q)
    patterns: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    agg: dict[tuple[int, ...], float] = {}
    slots = plan.merged_stages()[::-1]  # leftmost product factor first
    for word, weight in _word_weights(slots, q).items():
        labels = list(dict.fromkeys(word))
        pattern = tuple(labels.index(g) for g in word)
        if pattern not in patterns:
            local: dict[tuple[int, ...], int] = {}
            for sigma, w in weights:
                key = tuple(pattern[i] for i in sigma)
                local[key] = local.get(key, 0) + w
            patterns[pattern] = [(key, n) for key, n in local.items() if n]
        for key, n in patterns[pattern]:
            seq = tuple(labels[i] for i in key)
            agg[seq] = agg.get(seq, 0.0) + n / den * weight

    # evaluate the surviving nested commutators, sharing common suffixes
    acc: dict[tuple[int, int], complex] = {}
    stack: list[PauliSum | None] = [None] * q
    prev: tuple[int, ...] | None = None
    for seq in sorted(agg, key=lambda s: s[::-1]):
        weight = agg[seq]
        if abs(weight) < 1e-300:
            continue
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

    overall = (-1j) ** (q - 1) / (q * q)
    return PauliSum(spec.n_sites, {k: overall * c for k, c in acc.items()})


def check_series_budget(plan: ProductFormulaPlan, q_max: int) -> None:
    """Refuse a table Phi_2..Phi_qmax over either series budget.

    The word recursion's (prefix, k) updates are counted exactly against
    ``DEFAULT_RECURSION_BUDGET``.  Against ``DEFAULT_PERMUTATION_BUDGET`` go,
    per order q, the q! stored permutation weights, q! per equality pattern
    of the words, and per word its distinct rearrangements, the most keys it
    relabels.
    """
    # replay the recursion on counts of the distinct prefixes by length, in
    # all and ending in each group: one ending in g after stage g is one not
    # ending in g and a run of g; one of length l < q makes q-l+1 updates
    slots = plan.merged_stages()[::-1]
    orders = range(2, q_max + 1)
    by_len, ends, count = [1] + [0] * q_max, {}, 0
    for g, _ in slots:
        count += sum(by_len[l] * (q - l + 1) for q in orders for l in range(q))
        old = ends.get(g, [0] * (q_max + 1))
        ends[g] = [sum(by_len[j] - old[j] for j in range(l)) for l in range(q_max + 1)]
        by_len = [t - o + e for t, o, e in zip(by_len, old, ends[g])]
    if count > DEFAULT_RECURSION_BUDGET:
        raise ValueError(
            f"Phi_2..Phi_{q_max} make {count} word-recursion updates, over the "
            f"budget {DEFAULT_RECURSION_BUDGET}; lower q_max or the plan order"
        )
    # a word is a run sequence the stages spell in order, with positive run
    # lengths: C(q-1, m-1) patterns per relabelled m-run sequence.  A group
    # with k runs takes c letters in C(c-1, k-1) ways, and a word with c_j
    # letters of group j has q!/prod_j c_j! distinct rearrangements
    runs: set[tuple[int, ...]] = {()}
    for g, _ in slots:
        runs |= {r + (g,) for r in runs if len(r) < q_max and r[-1:] != (g,)}
    runs.discard(())
    shapes = {tuple(list(dict.fromkeys(r)).index(g) for g in r) for r in runs}
    walked = sum(
        math.factorial(q) * (1 + sum(math.comb(q - 1, len(s) - 1) for s in shapes))
        for q in orders
    )
    for split, n_runs in Counter(tuple(Counter(r).values()) for r in runs).items():
        ways = [1] + [0] * q_max  # by the letters placed so far
        for k in split:
            ways = [
                sum(ways[t - c] * math.comb(t, c) * math.comb(c - 1, k - 1)
                    for c in range(k, t + 1))
                for t in range(q_max + 1)
            ]
        walked += n_runs * sum(ways[2:])
    if walked > DEFAULT_PERMUTATION_BUDGET:
        raise ValueError(
            f"Phi_2..Phi_{q_max} walk {walked} permutation weights, over the "
            f"budget {DEFAULT_PERMUTATION_BUDGET}; lower q_max"
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
