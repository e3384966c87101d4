"""Acceptance gate: every release-blocking property in one module.

Each test covers one numbered criterion, prints one PASS/FAIL line with the
measured quantity and its tolerance, and asserts the stated runtime budget.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import time

import numpy as np

from mpfkit import dense
from mpfkit.bch import (
    check_truncated_generator,
    compute_phi,
    phi_report,
)
from mpfkit.bounds import (
    admissibility_chain,
    bch_time_condition,
    build_report,
    matched_mpf_spec,
    mpf_time_condition,
    report_from_parts,
    self_consistency,
    step_error_bound,
    truncation_order,
    trotter_number,
)
from mpfkit.commutators import (
    commutator_sums,
    factorial_commutator_bound,
    mu_from_alphas,
    mu_window_bound,
    nested_commutator_sum,
    power_commutator_bound,
)
from mpfkit.formulas import (
    build_mpf,
    build_plan,
    loglog_slope,
    solve_coefficients,
    vandermonde_residuals,
)
from mpfkit.hamiltonians import heisenberg_chain, long_range_zz_chain, make_spec
from mpfkit.mpf import MPFEvaluator
from mpfkit.pauli import PauliSum, PauliTerm, parse_label, term_product
from mpfkit.trotter import TrotterEvaluator, geometric_grid
from oracles import (
    all_tuples_commutator_sums,
    error_sweep,
    helper_inequality_check,
    long_time_error,
    oracle_phi_from_logs,
)


def report(number: int, ok: bool, detail: str, elapsed: float, budget: float):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"criterion {number:02d} {verdict}: {detail} [{elapsed:.1f}s of {budget:.0f}s]"
    )
    assert ok, detail
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def desk_chain(n_sites: int = 4):
    return heisenberg_chain(n_sites, field=0.8)


def test_criterion_01_pauli_oracle_exhaustive():
    start = time.monotonic()
    worst = 0.0
    for n in (1, 2, 3):
        labels = ["".join(s) for s in itertools.product("IXYZ", repeat=n)]
        mats = {
            lab: dense.from_pauli_sum(PauliSum.from_label(lab)) for lab in labels
        }
        for la, lb in itertools.product(labels, repeat=2):
            x, z, phase = term_product(*parse_label(la), *parse_label(lb))
            prod = PauliTerm(n, x, z, phase)
            dev = np.max(
                np.abs(prod.coeff * mats[prod.label] - mats[la] @ mats[lb])
            )
            worst = max(worst, float(dev))
            comm = PauliSum.from_label(la).commutator(PauliSum.from_label(lb))
            target = mats[la] @ mats[lb] - mats[lb] @ mats[la]
            got = dense.from_pauli_sum(comm)
            worst = max(worst, float(np.max(np.abs(got - target))))
    report(
        1,
        worst <= 1e-12,
        f"exhaustive product/commutator deviation {worst:.2e} <= 1e-12",
        time.monotonic() - start,
        10.0,
    )


def test_criterion_02_trotter_order_and_envelope():
    start = time.monotonic()
    spec = desk_chain()
    details = []
    ok = True
    for p, (lo, hi) in ((1, (0.01, 0.3)), (2, (0.01, 0.3)), (4, (0.05, 0.5))):
        plan = build_plan(spec.n_groups, p)
        taus = geometric_grid(lo, hi, 12)
        errors = error_sweep(TrotterEvaluator(spec, plan), taus)
        slope, _ = loglog_slope(taus, errors)
        alpha = nested_commutator_sum(spec, p + 1, "exact")
        model = alpha * taus ** (p + 1)
        prefactor = float(np.exp(np.mean(np.log(errors / model))))
        envelope_ok = bool(np.all(errors <= 1.5 * prefactor * model))
        ok = ok and slope >= p + 0.8 and envelope_ok
        details.append(f"p={p} slope {slope:.2f} >= {p + 0.8}")
    report(
        2,
        ok,
        "; ".join(details) + "; errors within 1.5x fitted envelope",
        time.monotonic() - start,
        60.0,
    )


def test_criterion_03_commutator_bounds_and_insertion():
    start = time.monotonic()
    violations = 0
    checked = 0
    for n in (3, 4, 5, 6):
        spec = desk_chain(n)
        for q in (2, 3, 4, 5):
            alpha = nested_commutator_sum(spec, q, "exact")
            factorial = factorial_commutator_bound(
                q, spec.locality, spec.extensiveness, spec.n_sites
            )
            one_norm = power_commutator_bound(q, spec.total_one_norm)
            checked += 2
            violations += alpha > factorial
            violations += alpha > one_norm
        obs = PauliSum.from_label("X" + "I" * (n - 1), 0.9)
        obs_norm = dense.spectral_norm(dense.from_pauli_sum(obs))
        for q in (2, 3, 4):
            # the observable spliced in after pos groups: q! (2 k g)^q ||O||
            spread = 2.0 * spec.locality * spec.extensiveness
            cap = math.factorial(q) * spread**q * obs_norm
            for pos in range(1, q + 1):
                checked += 1
                spliced = all_tuples_commutator_sums(spec, q, "exact", (obs, pos))
                violations += spliced[q] > cap
    report(
        3,
        violations == 0,
        f"{checked} bound comparisons on 3..6-site chains, {violations} violations",
        time.monotonic() - start,
        300.0,
    )


def random_two_site_spec(rng: np.random.Generator):
    labels = ["XI", "IX", "ZI", "IZ", "XX", "YY", "ZZ", "XZ"]
    terms = []
    for i, lab in enumerate(labels):
        group = 1 if i % 2 == 0 else 2
        terms.append((PauliTerm.from_label(lab, float(rng.uniform(-1, 1))), group))
    return make_spec(2, terms)


def test_criterion_04_series_coefficients():
    start = time.monotonic()
    spec = desk_chain()
    worst_zero = 0.0
    worst_herm = 0.0
    bound_ok = True
    shape_ok = True
    alphas, _ = commutator_sums(spec, 5)
    for p in (1, 2):
        plan = build_plan(spec.n_groups, p)
        phis = commutator_sums(spec, 5, None, plan=plan)[1]
        for q in range(2, 6):
            rep = phi_report(plan, spec, q, phi_q=phis[q], alpha_q=alphas[q])
            if q <= p:
                worst_zero = max(worst_zero, rep.norm)
            worst_herm = max(worst_herm, rep.hermiticity_defect)
            bound_ok = bound_ok and rep.norm <= rep.norm_bound * (1 + 1e-12)
            shape_ok = shape_ok and rep.locality <= rep.locality_bound
            shape_ok = (
                shape_ok
                and rep.extensiveness <= rep.extensiveness_bound * (1 + 1e-12)
            )
    rng = np.random.default_rng(23)
    taus = np.linspace(0.008, 0.1, 28)
    worst_oracle = 0.0
    for _ in range(4):
        rand_spec = random_two_site_spec(rng)
        for order in (1, 2):
            plan = build_plan(2, order)
            oracle = oracle_phi_from_logs(plan, rand_spec, 9, taus)
            for q in (2, 3, 4):
                diff = compute_phi(plan, rand_spec, q) + oracle[q - 1].scale(-1.0)
                dev = max((abs(c) for _, c in diff.items()), default=0.0)
                worst_oracle = max(worst_oracle, dev)
    ok = (
        worst_zero <= 1e-10
        and worst_herm <= 1e-10
        and bound_ok
        and shape_ok
        and worst_oracle <= 1e-6
    )
    report(
        4,
        ok,
        f"vanishing {worst_zero:.1e} <= 1e-10, hermiticity {worst_herm:.1e} <= "
        f"1e-10, norm/locality/extensiveness bounds hold, matrix-log oracle "
        f"deviation {worst_oracle:.1e} <= 1e-6",
        time.monotonic() - start,
        300.0,
    )


def test_criterion_05_truncated_generator():
    start = time.monotonic()
    spec = desk_chain()
    plan = build_plan(spec.n_groups, 2)
    eps = 0.25
    p0 = truncation_order(spec.n_sites, eps)
    assert p0 == 4
    boundary = bch_time_condition(
        p0, plan.stage_factor, spec.locality, spec.extensiveness
    )
    ev = TrotterEvaluator(spec, plan)
    phis = commutator_sums(spec, p0, None, plan=plan)[1]
    worst = max(
        check_truncated_generator(ev, phis, p0, [boundary * s for s in (1.0, 0.5, 0.25)])
    )
    grid = geometric_grid(0.02, 0.2, 10)
    slope, _ = loglog_slope(grid, check_truncated_generator(ev, phis, p0, grid))
    ok = worst <= eps and slope >= p0 + 0.8
    report(
        5,
        ok,
        f"defect {worst:.2e} <= {eps} at tau <= {boundary:.2e}, "
        f"slope {slope:.2f} >= {p0 + 0.8}",
        time.monotonic() - start,
        120.0,
    )


def test_criterion_06_extrapolation_order():
    start = time.monotonic()
    spec = desk_chain()
    plan = build_plan(spec.n_groups, 2)
    taus = geometric_grid(0.01, 0.3, 12)
    trotter = TrotterEvaluator(spec, plan)
    slope_ok = True
    slopes = []
    residual_ok = True
    for j in (1, 2, 3):
        mspec = build_mpf(j)
        errors = error_sweep(MPFEvaluator(mspec, trotter), taus)
        slope, _ = loglog_slope(taus, errors)
        slopes.append(slope)
        slope_ok = slope_ok and slope >= mspec.m + 0.8
        residual_ok = (
            residual_ok
            and float(
                np.max(vandermonde_residuals(mspec.k_values, mspec.c_values))
            )
            <= 1e-10
        )
    pair = solve_coefficients((1, 2))
    exact_ok = (
        abs(pair.c_values[0] + 1.0 / 3.0) <= 1e-12
        and abs(pair.c_values[1] - 4.0 / 3.0) <= 1e-12
    )
    ok = slope_ok and residual_ok and exact_ok
    report(
        6,
        ok,
        f"slopes {', '.join(f'{s:.2f}' for s in slopes)} vs thresholds 2.8/4.8/6.8, "
        "residuals <= 1e-10, pair weights match -1/3 and 4/3 to 1e-12",
        time.monotonic() - start,
        120.0,
    )


def test_criterion_07_step_bound_with_enumerated_mu():
    start = time.monotonic()
    spec = desk_chain()
    plan = build_plan(spec.n_groups, 2)
    eps = 0.25
    p0 = truncation_order(spec.n_sites, eps)
    alphas = {
        q: nested_commutator_sum(spec, q, "exact") for q in range(3, p0 + 1)
    }
    ceiling = mu_window_bound(
        spec.n_sites, 2, p0, spec.locality, spec.extensiveness
    )
    boundary = bch_time_condition(
        p0, plan.stage_factor, spec.locality, spec.extensiveness
    )
    trotter = TrotterEvaluator(spec, plan)
    mu = mu_from_alphas(alphas, 2, p0)
    violations = int(mu > ceiling)
    details = []
    for j in (1, 2):
        mspec = build_mpf(j)
        tau = 0.8 * min(boundary, mpf_time_condition(plan.stage_factor, mu))
        bound = step_error_bound(
            tau,
            mspec.norm_c_1,
            mspec.norm_k_1,
            plan.stage_factor,
            mu,
            mspec.m,
            eps,
            boundary,
        )
        measured = MPFEvaluator(mspec, trotter).error(tau)
        violations += not bound.admissible
        violations += measured > bound.value
        details.append(f"J={j} measured {measured:.1e} <= bound {bound.value:.1e}")
    report(
        7,
        violations == 0,
        "; ".join(details) + f", mu {mu:.2f} <= ceiling {ceiling:.0f}",
        time.monotonic() - start,
        300.0,
    )


def test_criterion_08_step_count_self_consistency():
    start = time.monotonic()
    cases = 0
    violations = 0
    for n, g, t, eps, k in itertools.product(
        (4, 16, 64, 256, 1024, 4096),
        (1.0, 6.5),
        (0.1, 1.0),
        (1e-2, 1e-3, 1e-4),
        (2, 3),
    ):
        mspec = matched_mpf_spec(n, g, t, eps)
        rep = build_report(n, k, g, 3, 2.0, mspec, t, eps)
        cases += 1
        consistent = self_consistency(rep)
        chain = admissibility_chain(rep)
        violations += not (consistent.holds and chain.holds)
    helper_cases = 0
    for a, m in itertools.product(
        (0.2, 0.05, 1e-3, 1e-6, 1e-9), range(1, 13)
    ):
        helper_cases += 1
        violations += not helper_inequality_check(a, m).holds
    report(
        8,
        violations == 0,
        f"{cases} step-count cases and {helper_cases} helper-inequality cases, "
        f"{violations} violations",
        time.monotonic() - start,
        60.0,
    )


def test_criterion_09_long_time_desk_simulation():
    start = time.monotonic()
    spec = desk_chain()
    plan = build_plan(spec.n_groups, 2)
    mspec = build_mpf(2)
    rep = report_from_parts(spec, plan, mspec, 1.0, 1e-3)
    trotter = TrotterEvaluator(spec, plan)
    error = long_time_error(MPFEvaluator(mspec, trotter), 1.0, rep.r)
    report(
        9,
        error <= 1e-3,
        f"r = {rep.r}, measured long-time error {error:.2e} <= 1e-3",
        time.monotonic() - start,
        120.0,
    )


def test_criterion_10_scaling_exponents():
    start = time.monotonic()
    sizes = (64, 128, 256, 512)
    gs = [long_range_zz_chain(n, 0.5).extensiveness for n in sizes]
    g_slope = float(np.polyfit(np.log(sizes), np.log(gs), 1)[0])
    g_ok = abs(g_slope - 0.5) <= 0.1

    kwargs = dict(
        k=2, g=2.0, t=1.0, p=2, c_p=2.0, m=12, norm_c_1=5.0 / 3.0, norm_k_1=3.0
    )
    big = (1e14, 1e15, 1e16, 1e17)
    numbers = [trotter_number(n_sites=n, eps=1e-3, **kwargs) for n in big]
    dominated = all(tn.r1 >= tn.r2 for tn in numbers)
    r_slope = float(
        np.polyfit(np.log(big), np.log([tn.r for tn in numbers]), 1)[0]
    )
    r_ok = dominated and abs(r_slope - 1.0 / 3.0) <= 0.05

    spec = desk_chain()
    eps_grid = [10.0 ** (-2.0 - 0.5 * i) for i in range(13)]
    rs = []
    for eps in eps_grid:
        mspec = matched_mpf_spec(4, spec.extensiveness, 1.0, eps)
        rep = build_report(
            4, spec.locality, spec.extensiveness, 3, 2.0, mspec, 1.0, eps
        )
        rs.append(rep.r)
    log_inv = np.log([1.0 / e for e in eps_grid])
    log_r = np.log(rs)
    power = float(np.polyfit(log_inv, log_r, 1)[0])
    half = len(rs) // 2
    early = float(np.polyfit(log_inv[:half], log_r[:half], 1)[0])
    late = float(np.polyfit(log_inv[half:], log_r[half:], 1)[0])
    sub_poly = power <= 0.15 and late <= early + 0.02

    report(
        10,
        g_ok and r_ok and sub_poly,
        f"g slope {g_slope:.3f} within 0.1 of 0.5, step slope {r_slope:.3f} "
        f"within 0.05 of 1/3 (r1-dominated), eps power exponent {power:.3f} "
        "sub-polynomial",
        time.monotonic() - start,
        60.0,
    )
