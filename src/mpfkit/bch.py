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
S, so B, the splits and the log run in exact integers.  The nests are those
of the alpha_q walk, :func:`mpfkit.commutators.commutator_sums`, which
visits only the pairs r_1 < r_2 of the reversed words r; each nest takes
c_r - c_r', r' being r with its innermost pair swapped, from one correctly
rounded division.  :func:`check_series_budget` counts this work, and the
walk calls it before any order is built.

Orders ``q <= p`` vanish for an order-p plan, every ``Phi_q`` is Hermitian,
and the series truncated at order p0 reproduces the step unitary to
``3 N e^{-p0}`` accuracy inside the admissible time window.  Those are the
facts the verification helpers at the bottom measure.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .commutators import commutator_sums
from .formulas import DEFAULT_DENSE_CAP, ProductFormulaPlan
from .hamiltonians import HamiltonianSpec
from .pauli import PauliSum

# the dense layer loads in the dense checks only
if TYPE_CHECKING:
    from .trotter import TrotterEvaluator

__all__ = [
    "DEFAULT_SERIES_BUDGET",
    "check_series_budget",
    "compute_phi",
    "phi_norm_bound",
    "phi_locality_bound",
    "phi_extensiveness_bound",
    "PhiReport",
    "phi_report",
    "effective_generator",
    "check_truncated_generator",
]

DEFAULT_SERIES_BUDGET = 5 * 10**6


def _word_weights(
    slots: Sequence[tuple[int, float]], q: int
) -> tuple[int, dict[tuple[int, ...], int]]:
    """``(S, I)``: the integers I(u) = |u|! 2^{S |u|} B(u) of every word u of
    length 1..q that the stages spell, each stage fraction being n_v / 2^S.

    Built slot by slot, in the order given: every prefix w of length l < q
    grows to ``w + (g_v,) * k`` for k = 0..q-l, its integer times
    C(l+k, k) n_v^k, and the words of length q it reaches leave the prefixes.
    The factors are tabled only for the prefix lengths present.
    """
    ratios = [(g, a.as_integer_ratio()) for g, a in slots]
    shift = max(d.bit_length() - 1 for _, (_, d) in ratios)
    prefixes: dict[tuple[int, ...], int] = {(): 1}
    words: dict[tuple[int, ...], int] = {}
    for g, (n, d) in ratios:
        n <<= shift - d.bit_length() + 1
        lengths = {len(w) for w in prefixes}
        steps = {l: [math.comb(l + k, k) * n**k for k in range(q - l + 1)] for l in lengths}
        grown: dict[tuple[int, ...], int] = {}
        for w, c in prefixes.items():
            for k, f in enumerate(steps[len(w)]):
                key = w + (g,) * k
                into = words if len(key) == q else grown
                into[key] = into.get(key, 0) + c * f
        prefixes = grown
    del prefixes[()]
    return shift, prefixes | words


def _pair_weights(plan: ProductFormulaPlan, q_max: int) -> Callable:
    """``weigh(r, chains) -> (N, D, chains)`` for the nest walk of
    :func:`mpfkit.commutators.commutator_sums`, which spells each word reversed,
    r = w_q .. w_1, innermost group first, and visits only r_1 < r_2.

    It reads the word weights of the merged stages in their own order: c_w
    over the product's factors is c_r over the same factors reversed.  A word
    r of length i has the split vector G[r][m], i! 2^{S i} times the sum of
    prod_k B(u_k) over the splits of r into m spelled words, summed over its
    spelled suffixes r[j:] until the first unspelled one:

        G[r][m + 1] += C(i, j) I(r[j:]) G[r[:j]][m].

    Then c_r = N_r / D with N_r = sum_m (-1)^{m-1} (L / m) G[r][m],
    D = i! L 2^{S i} and L = lcm(1..i).  The word r' that swaps the innermost
    pair of r has the negated nest, so ``N`` is N_r - N_r' (N_r at i = 1);
    ``chains`` holds the split vectors of the prefixes of r and of r'.
    """
    shift, weights = _word_weights(plan.merged_stages(), q_max)
    lcms = list(accumulate(range(1, q_max + 1), math.lcm, initial=1))
    facts = accumulate(range(1, q_max + 1), operator.mul, initial=1)
    dens = [f * lcm << (shift * i) for i, (f, lcm) in enumerate(zip(facts, lcms))]

    def split(r, splits):
        i = len(r)
        vec = [0] * (i + 1)
        for j in range(i - 1, -1, -1):
            u = weights.get(r[j:])
            if u is None:
                break
            f = math.comb(i, j) * u
            for m, x in enumerate(splits[j]):
                vec[m + 1] += f * x
        n = sum(lcms[i] // m * (x if m % 2 else -x) for m, x in enumerate(vec[1:], 1))
        return vec, n

    firsts = {g: split((g,), ([1],)) for g in range(1, plan.n_groups + 1)}

    def weigh(r, chains):
        if len(r) == 1:
            return firsts[r[0]][1], dens[1], None
        if len(r) == 2:
            chains = ([1], firsts[r[0]][0]), ([1], firsts[r[1]][0])
        a, b = chains
        va, na = split(r, a)
        vb, nb = split(r[1::-1] + r[2:], b)
        return na - nb, dens[len(r)], (a + (va,), b + (vb,))

    return weigh


def compute_phi(plan: ProductFormulaPlan, spec: HamiltonianSpec, q: int) -> PauliSum:
    """The order-q coefficient of the effective-generator series.

    ``q = 1`` returns the Hamiltonian itself (the stage fractions sum to one
    per group).  The nest walk runs to q without norms and gives Phi_q bit
    for bit as the walk to any q_max >= q has it.
    """
    return commutator_sums(spec, q, None, plan=plan)[1][q]


def check_series_budget(plan: ProductFormulaPlan, q_max: int) -> None:
    """Refuse a table Phi_2..Phi_qmax over ``DEFAULT_SERIES_BUDGET`` updates.

    Counted exactly before pruning: the word recursion's (prefix, k) updates
    in :func:`_word_weights` to q_max, and the walk's split updates, where
    each of the n_groups^j prefixes of a length j < q_max meets every
    spelled word of length at most q_max - j.  Splitting r and its swapped r'
    at each r_1 < r_2, the walk splits each word once (the count keeps r_1 = r_2).
    """
    # replay the recursion on counts of the distinct prefixes by length, in all
    # and ending in each group: one ending in g after stage g is one not ending
    # in g and a run of g; one of length l < q_max makes q_max-l+1 updates
    by_len, ends, count = [1] + [0] * q_max, {}, 0
    for g, _ in plan.merged_stages():
        count += sum(by_len[l] * (q_max - l + 1) for l in range(q_max))
        old = ends.get(g, [0] * (q_max + 1))
        ends[g] = [sum(by_len[j] - old[j] for j in range(l)) for l in range(q_max + 1)]
        by_len = [t - o + e for t, o, e in zip(by_len, old, ends[g])]
    # by_len[l] now counts the spelled words of length l
    count += sum(plan.n_groups**j * sum(by_len[1 : q_max - j + 1]) for j in range(q_max))
    if count > DEFAULT_SERIES_BUDGET:
        raise ValueError(
            f"Phi_2..Phi_{q_max} make {count} series updates, over the budget "
            f"{DEFAULT_SERIES_BUDGET}; lower q_max or the plan order"
        )


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

    ``phi_q`` is the order-q series coefficient and ``alpha_q`` the order-q
    commutator sum, from the tables the caller built in one walk with
    :func:`mpfkit.commutators.commutator_sums` and the plan.  The
    exact norm is read as a nest's norm is, by
    :meth:`mpfkit.dense.SectorFrame.norm` at the scale (2 L)^q;
    in the one-norm mode or beyond the dense cap ``norm`` is the coefficient
    one-norm, an upper bound, and ``norm_is_exact`` is False.
    """
    norm_is_exact = norm_mode == "exact" and spec.n_sites <= cap
    if norm_is_exact:
        from .dense import SectorFrame  # numpy loads in the exact mode only

        norm = SectorFrame.of(spec.group_sums).norm(phi_q, (2.0 * spec.total_one_norm) ** q)
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


def check_truncated_generator(
    evaluator: TrotterEvaluator,
    phis: dict[int, PauliSum],
    p0: int,
    taus: Sequence[float],
) -> list[float]:
    """|| T(tau) - exp(-i H_eff^{(p0)}(tau) tau) || at each tau, in order.

    ``evaluator`` supplies the dense step of its plan and ``phis`` that
    plan's series coefficients Phi_2..Phi_p0 (higher orders are ignored).
    Each truncated generator is filled on the evaluator's frame at the
    scale ``sum_q (2 L)^q |tau|^(q-1)`` and factorized per stack.
    """
    from . import dense
    from .trotter import difference_norm

    spec = evaluator.spec
    two_l = 2.0 * spec.total_one_norm
    defects = []
    for tau in taus:
        gen = effective_generator(spec, tau, p0, phis)
        scale = sum(two_l**q * abs(tau) ** (q - 1) for q in range(1, p0 + 1))
        blocks = evaluator.frame.blocks(gen, scale)
        # the series coefficients carry float-product noise; symmetrized check
        facts = (dense.HermitianFactorization.of(b, herm_tol=1e-8) for b in blocks)
        exact = [f.expm_minus_i(tau) for f in facts]
        defects.append(difference_norm(evaluator.formula_blocks(tau), exact))
    return defects
