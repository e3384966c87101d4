"""Closed-form accuracy and cost budgets for multi-product simulation.

Everything here is plain arithmetic on a handful of scalars: system size N,
interaction locality k, extensiveness g, stage factor c_p of the base plan,
base order p, combination order m, evolution time t and target accuracy
eps.  The formulas come in four families:

* the series truncation order p0 and the time-step conditions under which
  the truncated effective generator is trustworthy;
* the per-step error bound for a multi-product step together with its
  admissibility check;
* the step-count selection r = ceil(max(r1, r2)) with its two defining
  inequalities and the a-posteriori admissibility chain for tau = t/r;
* query counts and the gate-cost table across named competing algorithms.

A budget reads the Hamiltonian through k, g and N alone: the step
constant mu is always its closed-form ceiling from the locality data, and
no enumerated commutator sum enters.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .commutators import (
    factorial_commutator_bound,
    power_commutator_bound,
    mu_window_bound,
)
from .formulas import (
    MAX_J,
    MPFSpec,
    ProductFormulaPlan,
    closed_form_coefficients,
    make_mpf_spec,
)
from .hamiltonians import HamiltonianSpec

__all__ = [
    "truncation_order",
    "bch_time_condition",
    "mpf_time_condition",
    "StepErrorBound",
    "step_error_bound",
    "select_order",
    "matched_mpf_spec",
    "TrotterNumbers",
    "trotter_number",
    "step_error_allocation",
    "BoundInputs",
    "BoundReport",
    "build_report",
    "report_from_parts",
    "ConsistencyCheck",
    "self_consistency",
    "ChainCheck",
    "admissibility_chain",
    "QUERY_SCALING",
    "PRIOR_QUERY_SCALING",
    "CostRow",
    "gate_cost_table",
    "DivergenceDiagnostics",
    "divergence_diagnostics",
]

_E3 = math.exp(3.0)
_INT_SNAP = 1e-9
# relative slack of the step-count and chain inequalities checked at r
_CHECK_TOL = 1e-9


def _ceil_snapped(value: float) -> int:
    """Ceiling that resolves float dust at integer boundaries downward.

    log-of-ratio arguments frequently land on exact integers analytically
    (say log(e^4) = 4) while the float evaluation overshoots by one ulp;
    snapping within 1e-9 keeps the analytic answer.
    """
    nearest = round(value)
    if abs(value - nearest) <= _INT_SNAP:
        return int(nearest)
    return math.ceil(value)


def truncation_order(n_sites: int, eps: float) -> int:
    """Series cut ceil(ln(3 N / eps)) for target step accuracy eps."""
    if n_sites < 1:
        raise ValueError("system size must be positive")
    if not (0.0 < eps < 3.0 * n_sites):
        raise ValueError(
            f"accuracy must sit in (0, 3N) = (0, {3 * n_sites}); got {eps}"
        )
    return _ceil_snapped(math.log(3.0 * n_sites / eps))


def bch_time_condition(p0: int, c_p: float, k: int, g: float) -> float:
    """Largest step 1/(8 e^3 c_p p0 k g) for a trustworthy truncation at
    series order p0 (:func:`truncation_order`)."""
    if g <= 0.0:
        raise ValueError("extensiveness must be positive")
    if c_p <= 0.0 or k < 1:
        raise ValueError("need positive stage factor and locality")
    return 1.0 / (8.0 * _E3 * c_p * p0 * k * g)


def mpf_time_condition(c_p: float, mu: float) -> float:
    """Largest step 1/(2 c_p mu) for the combination's series to converge."""
    if c_p <= 0.0:
        raise ValueError("stage factor must be positive")
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    if mu == 0.0:
        return math.inf
    return 1.0 / (2.0 * c_p * mu)


class StepErrorBound(NamedTuple):
    """Per-step error budget split into its two contributions."""

    value: float
    series_term: float
    truncation_term: float
    tau: float
    tau_max_bch: float
    tau_max_mpf: float
    tau_max: float
    admissible: bool


def step_error_bound(
    tau: float,
    norm_c_1: float,
    norm_k_1: float,
    c_p: float,
    mu: float,
    m: int,
    eps_step: float,
    tau_max_bch: float,
) -> StepErrorBound:
    """Evaluate 2 sqrt(e) ||c||_1 (c_p mu tau)^(m+1) + ||c||_1 ||k||_1 eps.

    The record carries an ``admissible`` flag instead of raising when tau
    exceeds min(tau_max_bch, 1/(2 c_p mu)); callers decide how loud to be.
    """
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    if m < 1:
        raise ValueError("combination order must be >= 1")
    series = 2.0 * math.sqrt(math.e) * norm_c_1 * (c_p * mu * tau) ** (m + 1)
    trunc = norm_c_1 * norm_k_1 * eps_step
    tau_max_mpf = mpf_time_condition(c_p, mu)
    tau_max = min(tau_max_bch, tau_max_mpf)
    return StepErrorBound(
        value=series + trunc,
        series_term=series,
        truncation_term=trunc,
        tau=tau,
        tau_max_bch=tau_max_bch,
        tau_max_mpf=tau_max_mpf,
        tau_max=tau_max,
        admissible=tau <= tau_max * (1.0 + 1e-12),
    )


def select_order(n_sites: int, g: float, t: float, eps: float) -> int:
    """Combination order ceil(ln(N g t / eps)) matching the step count."""
    if n_sites < 1 or g <= 0.0 or t <= 0.0 or eps <= 0.0:
        raise ValueError("need positive N, g, t, eps")
    ratio = n_sites * g * t / eps
    if ratio <= 1.0:
        raise ValueError(f"N g t / eps = {ratio:g} must exceed 1")
    return _ceil_snapped(math.log(ratio))


def matched_mpf_spec(
    n_sites: int, g: float, t: float, eps: float, base_order: int = 2
) -> MPFSpec:
    """Richardson weights whose order tracks the selected combination order.

    Uses ceil(m/2) terms of the k_j = j scheme, which achieves order 2J >=
    m; the returned ``m`` field is set to the selected order itself, which
    is valid (an order-2J step is in particular order-m accurate) and keeps
    the budget formulas on the construction they assume.
    """
    m = select_order(n_sites, g, t, eps)
    j = (m + 1) // 2
    if j > MAX_J:
        raise ValueError(
            f"selected order {m} needs {j} terms, beyond the supported {MAX_J}"
        )
    ks = tuple(range(1, j + 1))
    cs = [float(c) for c in closed_form_coefficients(ks)]
    return make_mpf_spec(ks, cs, base_order=base_order, m=m)


class TrotterNumbers(NamedTuple):
    """The two step-count lower bounds and their combined ceiling."""

    r1: float
    r2: float
    r: int


def trotter_number(
    n_sites: int,
    k: int,
    g: float,
    t: float,
    eps: float,
    p: int,
    c_p: float,
    m: int,
    norm_c_1: float,
    norm_k_1: float,
) -> TrotterNumbers:
    """Evaluate both closed-form step counts and r = ceil(max(r1, r2))."""
    if min(n_sites, k, p, m) < 1:
        raise ValueError("need positive integer N, k, p, m")
    if min(g, t, eps, c_p, norm_c_1, norm_k_1) <= 0.0:
        raise ValueError("need positive g, t, eps, c_p and norms")
    root = n_sites ** (1.0 / (p + 1))
    r1 = (
        8.0
        * c_p
        * (p + 1)
        * k
        * root
        * g
        * t
        * (32.0 * c_p * (p + 1) * k * norm_c_1 * root * g * t / eps)
        ** (1.0 / m)
    )
    log_arg = (8.0 * _E3 * c_p * k * g * t) * (
        12.0 * norm_c_1 * norm_k_1 * n_sites
    ) / eps
    if log_arg <= 1.0:
        raise ValueError("step-count log argument must exceed 1")
    r2 = (
        40.0
        * math.exp(4.0)
        * c_p
        * k
        * g
        * t
        * (m + 1)
        * (160.0 * _E3 * norm_c_1 * c_p * k * g * t / eps) ** (1.0 / m)
        * math.log(log_arg) ** (1.0 + 1.0 / m)
    )
    return TrotterNumbers(r1=r1, r2=r2, r=int(math.ceil(max(r1, r2))))


def step_error_allocation(
    eps: float, norm_c_1: float, norm_k_1: float, r: int
) -> float:
    """Per-step accuracy eps / (4 ||c||_1 ||k||_1 r), refused when it
    underflows to 0."""
    if r < 1:
        raise ValueError("step count must be positive")
    eps_step = eps / (4.0 * norm_c_1 * norm_k_1 * r)
    if eps > 0.0 and eps_step == 0.0:
        raise ValueError(
            f"eps = {eps!r} leaves a per-step accuracy "
            "eps / (4 ||c||_1 ||k||_1 r) that underflows to 0; raise eps"
        )
    return eps_step


class BoundInputs(NamedTuple):
    """Scalar inputs the budget formulas consume."""

    n_sites: int
    locality: int
    extensiveness: float
    n_groups: int
    stage_factor: float
    base_order: int
    m: int
    j_count: int
    t: float
    eps: float
    norm_c_1: float
    norm_k_1: float


class BoundReport(NamedTuple):
    """Budget summary: step counts, admissible windows, query cost.

    ``mu_ceiling`` is the closed-form ceiling on the supremum mu
    at truncation order ``p0_step``; ``tau_max_mpf`` reads it.
    """

    inputs: BoundInputs
    m_selected: int
    r1: float
    r2: float
    r: int
    tau: float
    eps_step: float
    p0_step: int
    mu_ceiling: float
    tau_max_bch: float
    tau_max_mpf: float
    tau_max: float
    query_count: float


def build_report(
    n_sites: int,
    locality: int,
    extensiveness: float,
    n_groups: int,
    stage_factor: float,
    mpf_spec: MPFSpec,
    t: float,
    eps: float,
) -> BoundReport:
    """Assemble the full budget for one simulation instance."""
    p = mpf_spec.base_order
    m = mpf_spec.m
    nums = trotter_number(
        n_sites,
        locality,
        extensiveness,
        t,
        eps,
        p,
        stage_factor,
        m,
        mpf_spec.norm_c_1,
        mpf_spec.norm_k_1,
    )
    eps_step = step_error_allocation(
        eps, mpf_spec.norm_c_1, mpf_spec.norm_k_1, nums.r
    )
    p0_step = truncation_order(n_sites, eps_step)
    mu_ceiling = mu_window_bound(n_sites, p, p0_step, locality, extensiveness)
    tau_max_bch = bch_time_condition(p0_step, stage_factor, locality, extensiveness)
    tau_max_mpf = mpf_time_condition(stage_factor, mu_ceiling)
    return BoundReport(
        inputs=BoundInputs(
            n_sites=n_sites,
            locality=locality,
            extensiveness=extensiveness,
            n_groups=n_groups,
            stage_factor=stage_factor,
            base_order=p,
            m=m,
            j_count=mpf_spec.j_count,
            t=t,
            eps=eps,
            norm_c_1=mpf_spec.norm_c_1,
            norm_k_1=mpf_spec.norm_k_1,
        ),
        m_selected=select_order(n_sites, extensiveness, t, eps),
        r1=nums.r1,
        r2=nums.r2,
        r=nums.r,
        tau=t / nums.r,
        eps_step=eps_step,
        p0_step=p0_step,
        mu_ceiling=mu_ceiling,
        tau_max_bch=tau_max_bch,
        tau_max_mpf=tau_max_mpf,
        tau_max=min(tau_max_bch, tau_max_mpf),
        query_count=mpf_spec.norm_c_1 * mpf_spec.norm_k_1 * nums.r,
    )


def report_from_parts(
    ham: HamiltonianSpec,
    plan: ProductFormulaPlan,
    mpf_spec: MPFSpec,
    t: float,
    eps: float,
) -> BoundReport:
    """Pull the scalar inputs out of the structured objects."""
    if plan.order != mpf_spec.base_order:
        raise ValueError("plan order and combination base order differ")
    return build_report(
        ham.n_sites,
        ham.locality,
        ham.extensiveness,
        ham.n_groups,
        plan.stage_factor,
        mpf_spec,
        t,
        eps,
    )


class ConsistencyCheck(NamedTuple):
    """Both defining inequalities of the step count, evaluated at r."""

    rhs: float
    locality_lhs: float
    truncation_lhs: float
    locality_holds: bool
    truncation_holds: bool
    holds: bool


def self_consistency(report: BoundReport) -> ConsistencyCheck:
    """Substitute the report's r back into its two defining inequalities.

    The first uses the locality prefactor 4 c_p (p+1) N^(1/(p+1)) k g, the
    second the truncation prefactor 4 e^3 c_p p0 k g with p0 evaluated at
    the per-step allocation; both left sides carry the literal 2*2^m slack
    and must come out at or below eps/(2r), up to ``_CHECK_TOL`` relative.
    """
    i = report.inputs
    tau = report.tau
    rhs = i.eps / (2.0 * report.r)
    shared = i.eps / (4.0 * report.r)
    root = i.n_sites ** (1.0 / (i.base_order + 1))
    b_loc = 4.0 * i.stage_factor * (i.base_order + 1) * root * i.locality * i.extensiveness
    b_tru = 4.0 * _E3 * i.stage_factor * report.p0_step * i.locality * i.extensiveness
    common = 2.0 * 2.0**i.m * i.norm_c_1
    lhs_loc = common * (b_loc * tau) ** (i.m + 1) + shared
    lhs_tru = common * (b_tru * tau) ** (i.m + 1) + shared
    ok_loc = lhs_loc <= rhs * (1.0 + _CHECK_TOL)
    ok_tru = lhs_tru <= rhs * (1.0 + _CHECK_TOL)
    return ConsistencyCheck(
        rhs=rhs,
        locality_lhs=lhs_loc,
        truncation_lhs=lhs_tru,
        locality_holds=ok_loc,
        truncation_holds=ok_tru,
        holds=ok_loc and ok_tru,
    )


class ChainCheck(NamedTuple):
    """Admissibility chain for the realized step tau = t/r.

    ``step_holds``: tau clears the max-prefactor bound with the allocation
    exponent 1/(m+1).  ``window_holds``: that bound in turn sits below the
    admissible-window minimum damped by the exponential factor built from
    the selected order.  ``shrinks``: the exponential factor is < 1.  The
    middle link needs m <= m_selected, reported as ``order_ok``.
    """

    tau: float
    first_bound: float
    second_bound: float
    exp_factor: float
    order_ok: bool
    step_holds: bool
    window_holds: bool
    shrinks: bool
    holds: bool


def admissibility_chain(report: BoundReport) -> ChainCheck:
    i = report.inputs
    tau = report.tau
    root = i.n_sites ** (1.0 / (i.base_order + 1))
    spread = max((i.base_order + 1) * root, _E3 * report.p0_step)
    pre = 1.0 / (8.0 * i.stage_factor * spread * i.locality * i.extensiveness)
    first = pre * (i.eps / (4.0 * i.norm_c_1 * report.r)) ** (
        1.0 / (i.m + 1)
    )
    log_ratio = math.log(4.0 * i.norm_c_1 * report.r / i.eps)
    exp_factor = math.exp(-log_ratio / (report.m_selected + 1))
    second = report.tau_max * exp_factor
    order_ok = i.m <= report.m_selected
    step_holds = tau <= first * (1.0 + _CHECK_TOL)
    window_holds = first <= second * (1.0 + _CHECK_TOL)
    shrinks = exp_factor < 1.0
    return ChainCheck(
        tau=tau,
        first_bound=first,
        second_bound=second,
        exp_factor=exp_factor,
        order_ok=order_ok,
        step_holds=step_holds,
        window_holds=window_holds,
        shrinks=shrinks,
        holds=step_holds and window_holds and shrinks,
    )


# symbolic scalings of BoundReport.query_count, here and in prior work
QUERY_SCALING = (
    "{N^(1/(p+1)) + log^2(N g t / eps)} g t * polylog(N g t / eps)"
)
PRIOR_QUERY_SCALING = "N^(1/(p+1)) g t * polylog(N g t / eps)"


class CostRow(NamedTuple):
    """One algorithm's gate-count expression evaluated at the inputs.

    ``polylog_pending`` marks rows whose literal value omits an unresolved
    polylog factor with unknown constants.
    """

    algorithm: str
    expression: str
    value: float
    polylog_pending: bool


def _log_over_loglog(x: float) -> float:
    if x <= math.e:
        raise ValueError(f"log factor needs argument > e, got {x:g}")
    return math.log(x) / math.log(math.log(x))


def gate_cost_table(
    n_sites: int,
    g: float,
    t: float,
    eps: float,
    p: int,
    range_class: str = "finite",
    k: int | None = None,
    nu: float | None = None,
    d: int | None = None,
) -> tuple[CostRow, ...]:
    """Evaluate every applicable gate-count row at the given inputs.

    ``range_class="finite"`` covers finite-range interactions; ``"long"``
    covers k-local long-range interactions and then requires ``k``, while
    its distance-decay row additionally requires ``nu`` and ``d`` and is
    emitted only when nu > 2d.  A value past the float range raises
    OverflowError.
    """
    if range_class not in ("finite", "long"):
        raise ValueError(f"unknown range class {range_class!r}")
    if min(n_sites, p) < 1 or min(g, t, eps) <= 0.0:
        raise ValueError("need positive N, p, g, t, eps")
    load = n_sites * g * t / eps
    gt = g * t
    n = float(n_sites)
    # a finite range is the k = 1 case; n**1 == n and n**(1+1) == n**2 exactly
    if range_class == "finite":
        k, n_k, n_k1 = 1, "N", "N^2"
    elif k is None or k < 1:
        raise ValueError("long-range rows need the locality k")
    else:
        n_k, n_k1 = "N^k", "N^(k+1)"
    rows = [
        CostRow(
            "trotter",
            f"{n_k} g t (N g t / eps)^(1/p)",
            n**k * gt * load ** (1.0 / p),
            False,
        ),
        CostRow(
            "lcu",
            f"{n_k1} g t log(N g t / eps) / loglog(N g t / eps)",
            n ** (k + 1) * gt * _log_over_loglog(load),
            False,
        ),
        CostRow(
            "qsvt",
            f"{n_k} (N g t + log(1/eps) / loglog(1/eps))",
            n**k * (n * gt + _log_over_loglog(1.0 / eps)),
            False,
        ),
        CostRow(
            "mpf",
            f"{n_k} {{N^(1/(p+1)) + log^2(N g t / eps)}} g t * polylog",
            n**k * (n ** (1.0 / (p + 1)) + math.log(load) ** 2) * gt,
            True,
        ),
    ]
    if range_class == "finite":
        rows.append(CostRow("hhkl", "N g t * polylog", n * gt, True))
    elif nu is not None and d is not None and nu > 2 * d:
        rows.append(
            CostRow(
                "hhkl",
                "N g t (N g t / eps)^(2d/(nu-d))",
                n * gt * load ** (2.0 * d / (nu - d)),
                False,
            )
        )
    for row in rows:
        if not math.isfinite(row.value):
            raise OverflowError(f"the {row.algorithm} gate cost is {row.value}")
    return tuple(rows)


class DivergenceDiagnostics(NamedTuple):
    """Sup-candidate sequences (alpha_q)^(1/q) from the two closed forms.

    The factorial source grows without bound as q increases (its candidates
    eventually rise factorially) and the one-norm source is flat at twice the
    coefficient one-norm; no unbounded supremum is asserted, the sequences
    just exhibit the contrast over the window.
    """

    q_values: tuple[int, ...]
    factorial_candidates: tuple[float, ...]
    one_norm_candidates: tuple[float, ...]
    factorial_tail_increasing: bool
    plateau_value: float


def divergence_diagnostics(
    k: int, g: float, n_sites: int, total_one_norm: float, q_max: int
) -> DivergenceDiagnostics:
    """Both closed forms' candidates over the orders 2..q_max, from the
    locality k, extensiveness g, site count and total one-norm L.

    They are formed order by order, so an oversized q_max meets the first
    factorial candidate past the float range without ever holding its window.
    """
    factorial = tuple(
        factorial_commutator_bound(q, k, g, n_sites) ** (1.0 / q)
        for q in range(2, q_max + 1)
    )
    qs = tuple(range(2, q_max + 1))
    one_norm = tuple(
        power_commutator_bound(q, total_one_norm) ** (1.0 / q) for q in qs
    )
    tail = factorial[len(factorial) // 2 :]
    return DivergenceDiagnostics(
        q_values=qs,
        factorial_candidates=factorial,
        one_norm_candidates=one_norm,
        factorial_tail_increasing=all(
            a < b for a, b in zip(tail, tail[1:])
        ),
        plateau_value=2.0 * total_one_norm,
    )
