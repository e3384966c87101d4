"""Nested-commutator sums, their closed-form bounds, and the window constant.

The central quantity is the order-q commutator sum of a grouped Hamiltonian,

    alpha_q = sum over (g_1..g_q) of || [H_{g_q}, ... [H_{g_2}, H_{g_1}]] ||

with the rightmost pair innermost.  It is enumerated exactly by depth-first
search over group tuples with the partial nests shared along prefixes and
zero branches pruned; one search yields every order up to q_max.  It starts
from the pairs g_1 < g_2 only and counts each nest twice, since the swapped
pair negates the whole subtree, and takes exact norms block by block on the
groups' sector frame.  Two closed forms dominate it: the
factorial/locality form  (q-1)! (2 k g)^{q-1} N g  and the crude power form
(2 L)^q  with L the total one-norm.  An observable can be spliced into the
nest at any depth; the corresponding sum is bounded by  q! (2 k g)^q ||O||.

On top of the alpha table sits the step-size constant mu: a supremum over
composition sums of alpha values whose (q+n-1)-th root controls how far the
multi-product step can be pushed.  Enumeration is windowed in the part count
n; the result records its witness and whether the window was wide enough.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Mapping, NamedTuple

from .formulas import DEFAULT_DENSE_CAP, LEAK_TOL, ProductFormulaPlan, check_dense_cap
from .hamiltonians import HamiltonianSpec
from .pauli import PauliSum

__all__ = [
    "DEFAULT_TUPLE_BUDGET",
    "check_tuple_budget",
    "commutator_sums",
    "nested_commutator_sum",
    "factorial_commutator_bound",
    "power_commutator_bound",
    "inserted_commutator_sum",
    "insertion_bound",
    "MuResult",
    "mu_from_alphas",
    "mu_window_bound",
]

DEFAULT_TUPLE_BUDGET = 10**6


def check_tuple_budget(n_groups: int, q_max: int) -> None:
    """Refuse an enumeration to order q_max over ``DEFAULT_TUPLE_BUDGET``
    group tuples, n_groups^q_max."""
    if n_groups**q_max > DEFAULT_TUPLE_BUDGET:
        raise ValueError(
            f"{n_groups}^{q_max} tuples exceed the budget "
            f"{DEFAULT_TUPLE_BUDGET}; lower q_max"
        )


def _sector_norm(
    spec: HamiltonianSpec, observable: PauliSum | None
) -> Callable[[PauliSum, int], float]:
    """``norm(nest, q)``: the exact norm of a nest of q groups, read one block
    stack at a time from the sector frame of the groups (and the observable)
    under the leak allowance ``LEAK_TOL (2 L)^q`` (times ``2 ||O||_1``).
    Real coefficients give Hermitian blocks; imaginary ones (a nest of an even
    number of groups) anti-Hermitian blocks, rotated by i.  A sum with both
    is bounded by the norm of its larger part plus the smaller's one-norm."""
    from . import dense  # numpy loads with the first nest that needs a matrix

    frame = dense.SectorFrame.of(
        (*spec.group_sums, observable) if observable else spec.group_sums
    )
    allowance = LEAK_TOL * (2.0 * observable.one_norm() if observable else 1.0)

    def norm(nest: PauliSum, q: int) -> float:
        tol = allowance * (2.0 * spec.total_one_norm) ** q
        stacks = frame.blocks(nest, tol)  # the leak rule reads the whole sum
        re = sum(abs(c.real) for _, c in nest.items())
        im = sum(abs(c.imag) for _, c in nest.items())
        if re and im:
            sign = 1.0 if re >= im else -1.0
            stacks = map(lambda b: 0.5 * (b + sign * dense.adjoint(b)), stacks)
        if im > re:
            stacks = map(lambda b: 1j * b, stacks)
        # map, unlike a generator, holds no stack past its norm
        return max(map(dense.spectral_norm, stacks)) + min(re, im)

    return norm


def _nest_sums(
    spec: HamiltonianSpec,
    q_min: int,
    q_max: int,
    mode: str | None = None,
    cap: int = DEFAULT_DENSE_CAP,
    splice: tuple[PauliSum, int] | None = None,
    plan: ProductFormulaPlan | None = None,
) -> tuple[dict[int, float], dict[int, PauliSum]]:
    """Norm sums of the nonzero nests of orders q_min..q_max, by order, and
    the series coefficients Phi_1..Phi_qmax of ``plan`` ({} without one).

    One depth-first search walks the group tuples, extending each nonzero
    nest by every group and descending only while its order is below
    q_max.  From order 2 on it starts from the pairs g_1 < g_2 alone, in
    lexicographic order, and adds each nest's norm with weight 2: the pair
    (g_2, g_1) gives the negated nest and negates its whole subtree.
    ``splice = (O, j)`` commutes O onto each nest once it holds j groups;
    at j = 1 the antisymmetry fails and every tuple is walked.  Exact norms
    come from :func:`_sector_norm`, built at the first nonzero nest;
    ``mode=None`` takes none.  The tuple budget, the norm mode and the
    dense cap are checked before any nest is built.  A plan's walk adds each
    nest r times c_r - c_r' to Phi_q (:func:`mpfkit.bch._pair_weights`);
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
        from .bch import _pair_weights

        if plan.n_groups != spec.n_groups:
            raise ValueError("plan and spec disagree on the group count")
        weigh = _pair_weights(plan, q_max)
    observable, insert_after = splice or (None, None)
    pairs = q_min > 1 and insert_after != 1
    alphas = dict.fromkeys(range(q_min, q_max + 1), 0.0)
    acc: dict[int, dict[tuple[int, int], complex]] = {q: {} for q in range(1, q_max + 1)}
    sector_norm = functools.cache(lambda: _sector_norm(spec, observable))

    def descend(word: tuple[int, ...], nest: PauliSum | None, chains) -> None:
        depth = len(word)
        if depth == insert_after:
            nest = observable.commutator(nest)
            if not nest:
                return
        if mode and depth >= q_min:
            norm = sector_norm()(nest, depth) if mode == "exact" else nest.one_norm()
            alphas[depth] += (2.0 if pairs else 1.0) * norm
        if depth == q_max:
            return
        first = word[0] if pairs and depth == 1 else 0
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


def commutator_sums(
    spec: HamiltonianSpec,
    q_max: int,
    mode: str = "exact",
    cap: int = DEFAULT_DENSE_CAP,
    plan: ProductFormulaPlan | None = None,
) -> dict[int, float] | tuple[dict[int, float], dict[int, PauliSum]]:
    """Every commutator sum alpha_2..alpha_{q_max} from one enumeration.

    Each nonzero nest of q groups with g_1 < g_2 adds twice its norm to
    alpha_q, in lexicographic tuple order, as a search stopped at q would.
    Orders start at 2: alpha_1, the sum of the group norms
    (:func:`nested_commutator_sum` at q = 1), enters no bound.

    ``mode="exact"`` measures spectral norms on the groups' sector frame
    (:func:`_sector_norm`); ``mode="one-norm"`` replaces every norm by the
    coefficient one-norm of the same symbolically exact nest (an upper
    bound, no dense work).  With a ``plan`` the same walk, refused first by
    :func:`mpfkit.bch.check_series_budget`, returns ``(alphas, phis)``, with
    Phi_1..Phi_qmax bitwise as :func:`mpfkit.bch.compute_phi_range` has them.
    """
    if plan is None:
        return _nest_sums(spec, 2, q_max, mode, cap)[0]
    from .bch import check_series_budget

    check_series_budget(plan, q_max)
    return _nest_sums(spec, 2, q_max, mode, cap, plan=plan)


def nested_commutator_sum(
    spec: HamiltonianSpec,
    q: int,
    mode: str = "exact",
    cap: int = DEFAULT_DENSE_CAP,
) -> float:
    """The order-q commutator sum alone; see :func:`commutator_sums`."""
    return _nest_sums(spec, q, q, mode, cap)[0][q]


def factorial_commutator_bound(q: int, k: int, g: float, n_sites: int) -> float:
    """Closed form (q-1)! (2 k g)^{q-1} N g for k-local, g-extensive input."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return math.factorial(q - 1) * (2.0 * k * g) ** (q - 1) * n_sites * g


def power_commutator_bound(q: int, total_one_norm: float) -> float:
    """Crude bound (2 L)^q with L the summed absolute term weights."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return (2.0 * total_one_norm) ** q


def inserted_commutator_sum(
    spec: HamiltonianSpec,
    observable: PauliSum,
    q: int,
    insert_after: int,
    mode: str = "exact",
    cap: int = DEFAULT_DENSE_CAP,
) -> float:
    """Commutator sum with an observable spliced into the nest.

    ``insert_after = j`` (1 <= j <= q) places the observable outside the
    innermost j group factors:

        j = q:  sum || [O, [H_{g_q}, ... [H_{g_2}, H_{g_1}]]] ||
        j = 1:  sum || [H_{g_q}, ... [H_{g_2}, [O, H_{g_1}]]] ||

    Every position obeys the same  q! (2 k g)^q ||O||  bound.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if not 1 <= insert_after <= q:
        raise ValueError(f"insert_after must be in 1..{q}")
    if observable.n_sites != spec.n_sites:
        raise ValueError("observable site count differs from spec")
    splice = (observable, insert_after)
    return _nest_sums(spec, q, q, mode, cap, splice)[0][q]


def insertion_bound(q: int, k: int, g: float, observable_norm: float) -> float:
    """Closed form q! (2 k g)^q ||O|| for the spliced commutator sum."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return math.factorial(q) * (2.0 * k * g) ** q * observable_norm


# -- the window constant mu ------------------------------------------------


class MuResult(NamedTuple):
    """Windowed supremum defining the admissible-step constant.

    ``witness`` is the (q, n) pair attaining the supremum (lexicographically
    smallest among ties), ``best_per_n`` the per-part-count maxima, and
    ``converged`` whether the witness sat strictly inside the n window with
    the edge values already decreasing.
    """

    value: float
    witness: tuple[int, int] | None
    converged: bool
    n_max: int
    best_per_n: tuple[float, ...]


def _composition_sums(
    alphas: Mapping[int, float], n: int, lo: int, hi: int
) -> dict[int, float]:
    """sum over (q_1..q_n), lo <= q_i <= hi, of prod alpha_{q_i}, keyed by total."""
    current = {0: 1.0}
    for _ in range(n):
        nxt: dict[int, float] = {}
        for s, w in current.items():
            for v in range(lo, hi + 1):
                a = alphas.get(v)
                if a is None:
                    raise KeyError(f"alpha({v}) missing from the table")
                if a == 0.0:
                    continue
                nxt[s + v] = nxt.get(s + v, 0.0) + w * a
        current = nxt
    return current


def mu_from_alphas(
    alphas: Mapping[int, float],
    p: int,
    m: int,
    p0: int,
    n_max: int = 8,
) -> MuResult:
    """Enumerate the windowed supremum over (q, n) candidates.

    Candidates are ``(sum over compositions of q+n-1 into n parts from
    [p+1, p0] of the alpha product) ** (1/(q+n-1))`` for q >= m+1 and
    n >= 1; parts constrain q to [n p + 1, n (p0 - 1) + 1].  The alphas
    mapping must cover [p+1, p0].
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if p0 < p + 1:
        raise ValueError("p0 must be at least p+1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    lo, hi = p + 1, p0
    best: float = 0.0
    witness: tuple[int, int] | None = None
    best_per_n: list[float] = []
    candidates: list[tuple[float, int, int]] = []
    for n in range(1, n_max + 1):
        by_total = _composition_sums(alphas, n, lo, hi)
        n_best = 0.0
        q_lo = max(m + 1, n * p + 1)
        q_hi = n * (p0 - 1) + 1
        for q in range(q_lo, q_hi + 1):
            s = by_total.get(q + n - 1, 0.0)
            if s <= 0.0:
                continue
            val = s ** (1.0 / (q + n - 1))
            candidates.append((val, q, n))
            n_best = max(n_best, val)
        best_per_n.append(n_best)
    if candidates:
        best = max(v for v, _, _ in candidates)
        ties = [
            (q, n) for v, q, n in candidates if v >= best * (1.0 - 1e-12)
        ]
        witness = min(ties)
    if witness is None:
        converged = True
    else:
        inside = witness[1] <= n_max - 2
        tail_flat = (
            n_max >= 3
            and best_per_n[-1] <= best_per_n[-2] * (1.0 + 1e-12)
            and best_per_n[-2] <= best_per_n[-3] * (1.0 + 1e-12)
        )
        converged = inside and tail_flat
    return MuResult(
        value=best,
        witness=witness,
        converged=converged,
        n_max=n_max,
        best_per_n=tuple(best_per_n),
    )


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
