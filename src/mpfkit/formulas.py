"""Product-formula plans, multi-product weights and line fits, without numpy.

Everything here is plain Python, so the budget arithmetic, the ``cost``
sweeps and the command line load it without the dense layer.

A plan is a flat list of stages ``(group, alpha)``; the simulated unitary is

    T(tau) = U_V ... U_2 U_1,      U_v = exp(-i H_{group_v} alpha_v tau)

so ``stages[0]`` acts first (rightmost factor).  First order is one
left-to-right sweep over the groups; second order is the palindrome
``T_1(tau/2)`` followed by its reflection; higher even orders come from the
recursive five-block construction with

    u_p = 1 / (4 - 4^{1/(p-1)})

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

The dense-cap guard lives here too, so that callers can refuse a dense
build before anything imports numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "DEFAULT_DENSE_CAP",
    "DenseCapError",
    "check_dense_cap",
    "ProductFormulaPlan",
    "build_plan",
    "suzuki_fractions",
    "MAX_J",
    "MPFSpec",
    "closed_form_coefficients",
    "exact_system_solve",
    "vandermonde_residuals",
    "make_mpf_spec",
    "solve_coefficients",
    "build_mpf",
    "fit_line",
    "loglog_slope",
]

DEFAULT_DENSE_CAP = 12
MAX_J = 12


class DenseCapError(ValueError):
    """Raised when a dense build would exceed the configured qubit cap."""


def check_dense_cap(n_sites: int, cap: int = DEFAULT_DENSE_CAP) -> None:
    if n_sites > cap:
        raise DenseCapError(
            f"dense build on {n_sites} sites exceeds cap {cap}; "
            "raise the cap explicitly if this is intended"
        )


# -- product-formula plans -------------------------------------------------


class ProductFormulaPlan(NamedTuple):
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


# -- multi-product weights -------------------------------------------------


class MPFSpec(NamedTuple):
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
    """Exact weights c_j = prod_{i != j} k_j^2 / (k_j^2 - k_i^2), each one
    integer quotient of products, reduced once."""
    squares = [k * k for k in _validated_k(k_values)]
    return [
        Fraction(s ** (len(squares) - 1), math.prod(s - t for t in squares if t != s))
        for s in squares
    ]


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
) -> list[float]:
    """Row-wise defect of the Richardson system in float arithmetic."""
    ks = [float(k) for k in k_values]
    cs = [float(c) for c in c_values]
    if len(ks) != len(cs):
        raise ValueError("k and c lists must have equal length")
    return [
        abs(sum(c * k ** (-2.0 * i) for c, k in zip(cs, ks)) - float(i == 0))
        for i in range(len(ks))
    ]


def make_mpf_spec(
    k_values: Iterable[int],
    c_values: Sequence[float],
    base_order: int = 2,
    m: int | None = None,
) -> MPFSpec:
    """Assemble a spec from explicit nodes and weights, refusing weights
    whose Richardson residual exceeds 1e-10."""
    ks = _validated_k(k_values)
    cs = tuple(float(c) for c in c_values)
    if len(cs) != len(ks):
        raise ValueError("k and c lists must have equal length")
    if base_order < 2 or base_order % 2:
        raise ValueError("base order must be a positive even integer")
    worst = max(vandermonde_residuals(ks, cs))
    if worst > 1e-10:
        raise ValueError(f"Richardson residual {worst:g} exceeds 1e-10")
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


# -- line fits -------------------------------------------------------------


def fit_line(xs: Iterable[float], ys: Iterable[float]) -> tuple[float, float]:
    """Least-squares line ``ys ~ a xs + b``: returns (a, RMS residual).

    Solved in centred form, every sum a correctly rounded ``math.fsum``.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError("x and y lists must have equal length")
    x0 = math.fsum(xs) / len(xs)
    y0 = math.fsum(ys) / len(ys)
    dx = [x - x0 for x in xs]
    dy = [y - y0 for y in ys]
    sxx = math.fsum(d * d for d in dx)
    if sxx == 0.0:
        raise ValueError("a line fit needs two distinct x values")
    a = math.fsum(u * v for u, v in zip(dx, dy)) / sxx
    squares = math.fsum((a * u - v) ** 2 for u, v in zip(dx, dy))
    return a, math.sqrt(squares / len(xs))


def loglog_slope(
    taus: Iterable[float],
    errors: Iterable[float],
    floor: float = 1e-12,
) -> tuple[float, int]:
    """Least-squares slope of log(error) vs log(tau) above a noise floor.

    Points whose error is below ``floor`` carry rounding noise rather than
    formula error and are discarded; at least three must survive.
    Returns (slope, points_used).
    """
    kept = [(t, e) for t, e in zip(taus, errors) if e >= floor]
    if len(kept) < 3:
        raise ValueError(
            f"only {len(kept)} points above the noise floor {floor:g}; "
            "enlarge the time grid"
        )
    log_t = [math.log(t) for t, _ in kept]
    slope, _ = fit_line(log_t, [math.log(e) for _, e in kept])
    return slope, len(kept)
