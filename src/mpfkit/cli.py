"""Command-line entry points for verification suites and budget reports.

Every subcommand resolves one :class:`ExperimentConfig` (defaults, then a
JSON config file, then explicit flags) and hands it to its handler, which
touches no file: it returns its verdict and its result files' contents.
:func:`main` then makes the ``--out`` folder, writes every file, echoing the
resolved values into each JSON document, and sets the exit status, so a
refused or failed run leaves no folder behind.  The files are deterministic:
reruns with the same inputs produce byte-identical files.  Exit status is 0
when every checked inequality holds, 1 when a verification suite found a
violation, 2 for configuration problems (a finite setting that overflows a
float included), and 3 when the run itself failed (the traceback is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from csv import writer as csv_writer
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .formulas import (
    MAX_J,
    MPFSpec,
    build_mpf,
    build_plan,
    check_dense_cap,
    fit_line,
    loglog_slope,
    solve_coefficients,
)
from .hamiltonians import (
    HamiltonianSpec,
    coerce,
    family_constants,
    heisenberg_chain,
    load_spec,
    long_range_zz_chain,
)

# numpy and the modules built on it (dense, trotter, mpf, bch) are imported
# inside the code that builds matrices, so a run that builds none never
# loads them; bounds and commutators load in the handlers that use them
if TYPE_CHECKING:
    from .bch import PhiReport
    from .trotter import TrotterEvaluator

SLOPE_MARGIN = 0.8
NOISE_FLOOR = 1e-11
ENUMERATION_SITE_CAP = 16
_SITE_CAP_NOTE = "nested-commutator enumeration beyond the site cap"
N_SWEEP_SIZES = (64, 128, 256, 512, 1024)
EPS_SWEEP = tuple(10.0 ** (-2.0 - 0.5 * i) for i in range(13))

# the settings that take one of a few words
CHOICES = {
    "family": ("heisenberg", "long-range-zz", "file"),
    "norm_mode": ("exact", "one-norm"),
    "range_class": ("finite", "long"),
}


class ConfigError(Exception):
    """Raised for unusable configuration; mapped to exit status 2."""


class ExperimentConfig:
    """Resolved run parameters shared by all subcommands.  Each annotated
    attribute is the one declaration of a setting: its name (the config-file
    key, and the flag with "-" for "_"), its type and its default.  Keyword
    arguments override the defaults by name."""

    family: str = "heisenberg"
    n_sites: int = 4
    coupling: float = 1.0
    field: float = 0.8
    exponent: float = 2.0
    ham_file: str | None = None
    p: int = 2
    j_count: int = 2
    k_list: tuple[int, ...] | None = None
    tau_min: float = 0.01
    tau_max: float = 0.3
    tau_points: int = 12
    t: float = 1.0
    eps: float = 1e-3
    norm_mode: str = "exact"
    dense_cap: int = 12
    q_max: int = 5
    out: str = "."
    range_class: str = "finite"
    nu: float | None = None
    d: int = 1

    def __init__(self, **values) -> None:
        unknown = sorted(values.keys() - self.__annotations__.keys())
        if unknown:
            raise TypeError(f"unknown config fields: {', '.join(unknown)}")
        for name in self.__annotations__:
            setattr(self, name, values.get(name, getattr(self, name)))

    def echo(self) -> dict:
        doc = {name: getattr(self, name) for name in self.__annotations__}
        if doc["k_list"] is not None:
            doc["k_list"] = list(doc["k_list"])
        return doc


def _coerce_value(name: str, value, annotation: str):
    """Type one flag text or config-file value as its config field, by
    :func:`mpfkit.hamiltonians.coerce`; ``k_list`` may be comma-separated."""
    kind, _, optional = annotation.partition(" | ")
    if value is None and optional:
        return None
    try:
        if name != "k_list":
            kinds = {"int": int, "float": float, "str": str}
            return coerce(value, kinds[kind], f"setting {name!r} must be {annotation}")
        if isinstance(value, str):
            value = [piece.strip() for piece in value.split(",") if piece.strip()]
        if not isinstance(value, list) or not value:
            raise ValueError(f"setting 'k_list' must be a non-empty list, got {value!r}")
        return tuple(coerce(v, int, "setting 'k_list' must hold int entries") for v in value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _validate(cfg: ExperimentConfig) -> None:
    # nan passes every comparison below, and inf passes the lower bounds
    for name, kind in ExperimentConfig.__annotations__.items():
        value = getattr(cfg, name)
        if kind.startswith("float") and value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        if name in CHOICES and value not in CHOICES[name]:
            raise ConfigError(f"{name} must be one of {CHOICES[name]}, got {value!r}")
    if cfg.family == "file" and not cfg.ham_file:
        raise ConfigError("family 'file' needs --ham-file")
    if cfg.ham_file and cfg.family != "file":
        raise ConfigError("--ham-file is read only with --family file")
    if cfg.n_sites < 2:
        raise ConfigError("need at least two sites")
    if cfg.p < 1:
        raise ConfigError("formula order must be >= 1")
    if cfg.j_count < 1 or cfg.j_count > MAX_J:
        raise ConfigError(f"j_count must sit in [1, {MAX_J}]")
    if not (0.0 < cfg.tau_min < cfg.tau_max):
        raise ConfigError("need 0 < tau_min < tau_max")
    if cfg.tau_points < 4:
        raise ConfigError("need at least four grid points")
    if cfg.t <= 0.0:
        raise ConfigError("evolution time must be positive")
    if cfg.eps <= 0.0:
        raise ConfigError("target accuracy must be positive")
    if cfg.dense_cap < 1:
        raise ConfigError("dense cap must be positive")
    if cfg.q_max < 2:
        raise ConfigError("qmax must be >= 2")
    if cfg.range_class == "long" and cfg.nu is None:
        raise ConfigError("range class 'long' needs --nu")
    if cfg.d < 1:
        raise ConfigError("dimension must be >= 1")


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config-file values, and explicit flags, typing each
    value by the one rule of :func:`_coerce_value`, then validate."""
    cfg = ExperimentConfig()
    known = ExperimentConfig.__annotations__
    data = _load_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for name, value in data.items():
        setattr(cfg, name, _coerce_value(name, value, known[name]))
    for name in known:  # each flag given overrides the file
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, _coerce_value(name, value, known[name]))
    _validate(cfg)
    return cfg


def build_family(cfg: ExperimentConfig) -> HamiltonianSpec:
    """Construct the configured Hamiltonian and pin n_sites to it."""
    if cfg.family == "heisenberg":
        spec = heisenberg_chain(cfg.n_sites, coupling=cfg.coupling, field=cfg.field)
    elif cfg.family == "long-range-zz":
        spec = long_range_zz_chain(cfg.n_sites, cfg.exponent, base=cfg.coupling)
    else:
        try:
            spec = load_spec(cfg.ham_file)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot load Hamiltonian file: {exc}") from None
        cfg.n_sites = spec.n_sites
        _validate(cfg)  # the file's site count meets the flag's checks
    return spec


def _configured(compute, *args, **kwargs):
    """Call ``compute`` on configured values; its ValueError is a ConfigError."""
    try:
        return compute(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_mpf_spec(cfg: ExperimentConfig, base_order: int) -> MPFSpec:
    if cfg.k_list is not None:
        return _configured(solve_coefficients, cfg.k_list, base_order)
    return _configured(build_mpf, cfg.j_count, base_order)


# -- deterministic writers -------------------------------------------------


def _as_jsonable(value):
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: _as_jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_jsonable(item) for item in value]
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    return value


def write_json(path: Path, payload: dict) -> None:
    text = json.dumps(_as_jsonable(payload), indent=2, sort_keys=True)
    path.write_text(text + "\n")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as handle:
        sink = csv_writer(handle, lineterminator="\n")
        sink.writerow(header)
        for row in rows:
            sink.writerow(["" if v is None else v for v in row])


def _table(rows: list[dict]) -> tuple[list[str], list[list]]:
    """The CSV header (their keys) and rows of same-keyed row dicts."""
    return list(rows[0]), [list(r.values()) for r in rows]


def _out_dir(cfg: ExperimentConfig) -> Path:
    path = Path(cfg.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output folder: {exc}") from None
    return path


def _enumeration_mode(
    cfg: ExperimentConfig, spec: HamiltonianSpec, plan=None, *, required=False
) -> str | None:
    """The run's one preflight: how it measures nests and Phi_q; None beyond
    the site cap, where a run that ``required`` them is refused.  Within it
    the alpha table's tuples, then the series updates of ``plan``'s Phi_q
    table, are refused over budget before any work."""
    if cfg.n_sites > ENUMERATION_SITE_CAP:
        if required:
            raise ConfigError(
                "series coefficients need symbolic enumeration; n_sites = "
                f"{cfg.n_sites} exceeds the site cap {ENUMERATION_SITE_CAP}"
            )
        return None
    from .commutators import check_tuple_budget

    _configured(check_tuple_budget, spec.n_groups, cfg.q_max)
    if plan is not None:
        from .bch import check_series_budget

        _configured(check_series_budget, plan, cfg.q_max)
    if cfg.norm_mode == "exact" and cfg.n_sites <= cfg.dense_cap:
        return "exact"
    return "one-norm"


def _alpha_table(
    cfg: ExperimentConfig, spec: HamiltonianSpec, mode: str | None
) -> dict[int, float] | None:
    """The run's one table alpha_2..alpha_qmax; None without a mode."""
    from .commutators import commutator_sums

    if mode is None:
        return None
    return _configured(commutator_sums, spec, cfg.q_max, mode, cfg.dense_cap)


# -- verify-order ----------------------------------------------------------


def _slope_entry(
    taus: Sequence[float], errors: Sequence[float], threshold: float
) -> dict:
    entry: dict = {"threshold": threshold}
    if max(errors) <= NOISE_FLOOR:
        entry.update(slope=None, points_used=0, status="exact")
        return entry
    try:
        slope, n_used = loglog_slope(taus, errors, floor=NOISE_FLOOR)
    except ValueError as exc:
        entry.update(slope=None, points_used=0, status="fail", note=str(exc))
        return entry
    entry.update(
        slope=slope,
        points_used=n_used,
        status="pass" if slope >= threshold else "fail",
    )
    return entry


def cmd_verify_order(cfg: ExperimentConfig) -> tuple[bool, dict]:
    from .mpf import MPFEvaluator
    from .trotter import TrotterEvaluator, difference_norm, geometric_grid

    spec = build_family(cfg)
    _configured(check_dense_cap, cfg.n_sites, cfg.dense_cap)
    plan = _configured(build_plan, spec.n_groups, cfg.p)
    mpf_specs: list[MPFSpec] = []
    if cfg.p % 2 == 0:
        if cfg.k_list is not None:
            mpf_specs = [build_mpf_spec(cfg, cfg.p)]
        else:
            mpf_specs = [build_mpf(j, cfg.p) for j in range(1, cfg.j_count + 1)]
    taus = geometric_grid(cfg.tau_min, cfg.tau_max, cfg.tau_points)

    trotter = TrotterEvaluator(spec, plan, cfg.dense_cap)
    evaluators = [MPFEvaluator(mspec, trotter) for mspec in mpf_specs]

    # tau outer: the exact propagator and one base power T(tau/k)^k per
    # distinct k (k = 1 is the Trotter step) are formed once, block by block
    # over the Hamiltonian's invariant sectors, read by the Trotter error and
    # every extrapolation, and dropped before the next tau
    ks = sorted({1}.union(*(mspec.k_values for mspec in mpf_specs)))
    trotter_errors: list[float] = []
    mpf_errors: list[list[float]] = [[] for _ in evaluators]
    for tau in taus:
        exact = trotter.exact_blocks(tau)
        powers = {k: trotter.power_blocks(tau, k) for k in ks}
        trotter_errors.append(difference_norm(exact, powers[1]))
        for errors, ev in zip(mpf_errors, evaluators):
            if ev.mpf_spec.k_values == (1,) and ev.mpf_spec.c_values == (1.0,):
                errors.append(trotter_errors[-1])  # the Trotter step itself
                continue
            combined = ev.combine(powers[k] for k in ev.mpf_spec.k_values)
            errors.append(difference_norm(exact, combined))

    trotter_entry = _slope_entry(taus, trotter_errors, cfg.p + SLOPE_MARGIN)
    trotter_entry["order"] = cfg.p
    mpf_entries: list[dict] = []
    mpf_columns: list[tuple[str, list[float]]] = []
    for mspec, errors in zip(mpf_specs, mpf_errors):
        entry = _slope_entry(taus, errors, mspec.m + SLOPE_MARGIN)
        entry.update(
            j_count=mspec.j_count,
            k_values=list(mspec.k_values),
            order=mspec.m,
        )
        mpf_entries.append(entry)
        mpf_columns.append((f"mpf_j{mspec.j_count}", errors))

    passed = trotter_entry["status"] != "fail" and all(
        entry["status"] != "fail" for entry in mpf_entries
    )
    payload = {
        "grid": {
            "tau_min": cfg.tau_min,
            "tau_max": cfg.tau_max,
            "points": cfg.tau_points,
        },
        "trotter": trotter_entry,
        "mpf": mpf_entries,
    }
    header = ["tau", f"trotter_p{cfg.p}"] + [name for name, _ in mpf_columns]
    rows = []
    for i, tau in enumerate(taus):
        row = [float(tau), trotter_errors[i]]
        row.extend(col[i] for _, col in mpf_columns)
        rows.append(row)
    return passed, {
        "verify_order.json": payload,
        "order_sweep.csv": (header, rows),
    }


# -- verify-bounds ---------------------------------------------------------


def _row(name: str, lhs, rhs, *, note: str = "") -> dict:
    """The check lhs <= rhs up to 1e-12 relative plus 1e-12 absolute;
    untestable when ``lhs`` is None."""
    if lhs is None:
        status = "untestable"
    else:
        status = "pass" if lhs <= rhs * (1.0 + 1e-12) + 1e-12 else "fail"
    return {
        "name": name,
        "status": status,
        "lhs": lhs,
        "rhs": rhs,
        "margin": None if lhs is None else rhs - lhs,
        "note": note,
    }


def _alpha_rows(
    spec: HamiltonianSpec, q: int, alpha: float | None, mode: str | None
) -> list[dict]:
    """alpha_q against its factorial and one-norm bounds."""
    from .commutators import factorial_commutator_bound, power_commutator_bound

    factorial = factorial_commutator_bound(
        q, spec.locality, spec.extensiveness, spec.n_sites
    )
    one_norm = power_commutator_bound(q, spec.total_one_norm)
    return [
        _row(f"alpha_factorial[q={q}]", alpha, factorial, note=mode),
        _row(f"alpha_one_norm[q={q}]", alpha, one_norm, note=mode),
    ]


def _phi_rows(cfg: ExperimentConfig, report: PhiReport) -> list[dict]:
    """Phi_q's checks: it vanishes for q <= p and stays inside its bounds."""
    q = report.q
    note = "spectral norm" if report.norm_is_exact else "coefficient one-norm"
    rows = []
    if q <= cfg.p:
        rows.append(_row(f"phi_zero[q={q}]", report.norm, 1e-10, note=note))
    return rows + [
        _row(f"phi_norm[q={q}]", report.norm, report.norm_bound, note=note),
        _row(
            f"phi_hermiticity[q={q}]",
            report.hermiticity_defect,
            1e-10,
            note="anti-Hermitian part",
        ),
        _row(
            f"phi_locality[q={q}]",
            float(report.locality),
            float(report.locality_bound),
        ),
        _row(
            f"phi_extensiveness[q={q}]",
            report.extensiveness,
            report.extensiveness_bound,
        ),
    ]


def _phi_reports(cfg: ExperimentConfig, spec: HamiltonianSpec, plan, mode: str):
    """The run's alpha and Phi_q tables, from one walk, and one report per q."""
    from .bch import phi_report
    from .commutators import commutator_sums

    tables = (commutator_sums, spec, cfg.q_max, mode, cfg.dense_cap)
    alphas, phis = _configured(*tables, plan=plan)
    reports = [
        phi_report(
            plan,
            spec,
            q,
            phi_q=phis[q],
            alpha_q=alphas[q],
            norm_mode=mode,
            cap=cfg.dense_cap,
        )
        for q in range(2, cfg.q_max + 1)
    ]
    return alphas, phis, reports


def _dense_blocker(cfg: ExperimentConfig, p0: int, mode: str | None) -> str | None:
    """Why the dense checks at order p0 cannot run; None when they can."""
    if p0 > cfg.q_max:
        return f"p0 = {p0} exceeds the qmax window {cfg.q_max}"
    if cfg.n_sites > cfg.dense_cap:
        return "dense matrices beyond the cap"
    if mode is None:
        return _SITE_CAP_NOTE
    return None


def _step_bound_rows(
    cfg: ExperimentConfig,
    spec: HamiltonianSpec,
    evaluator: TrotterEvaluator | None,
    mpf_spec: MPFSpec,
    p0: int,
    alphas: dict[int, float] | None,
    mode: str | None,
    boundary_bch: float | None,
    blocked: str | None,
) -> list[dict]:
    # a p0 beyond the qmax window is reported first, through the blocker
    if p0 <= min(cfg.p, cfg.q_max):
        note = f"p0 = {p0} leaves no commutator window above p = {cfg.p}"
        return [_row("step_error_bound", None, None, note=note)]
    if blocked:
        return [_row("step_error_bound", None, None, note=blocked)]
    from .bounds import mpf_time_condition, step_error_bound
    from .commutators import mu_from_alphas, mu_window_bound
    from .mpf import MPFEvaluator

    plan = evaluator.plan
    mu = mu_from_alphas(alphas, cfg.p, mpf_spec.m, p0)
    ceiling = mu_window_bound(
        cfg.n_sites, cfg.p, p0, spec.locality, spec.extensiveness
    )
    rows = [_row("mu_ceiling", mu.value, ceiling, note=f"mu source: {mode}")]
    boundary_mpf = mpf_time_condition(plan.stage_factor, mu.value)
    tau = 0.8 * min(boundary_bch, boundary_mpf)
    bound = step_error_bound(
        tau,
        mpf_spec.norm_c_1,
        mpf_spec.norm_k_1,
        plan.stage_factor,
        mu.value,
        mpf_spec.m,
        cfg.eps,
        boundary_bch,
    )
    measured = MPFEvaluator(mpf_spec, evaluator).error(tau)
    rows.append(
        _row(
            "step_error_bound",
            measured,
            bound.value,
            note=f"tau = {tau:.6g}, admissible = {bound.admissible}",
        )
    )
    return rows


def cmd_verify_bounds(cfg: ExperimentConfig) -> tuple[bool, dict]:
    from .bch import check_truncated_generator
    from .bounds import bch_time_condition, truncation_order
    from .trotter import TrotterEvaluator

    spec = build_family(cfg)
    plan = _configured(build_plan, spec.n_groups, cfg.p)
    p0 = _configured(truncation_order, cfg.n_sites, cfg.eps)
    mode = _enumeration_mode(cfg, spec, plan)
    mpf_spec = build_mpf_spec(cfg, cfg.p) if cfg.p % 2 == 0 else None
    # the dense checks' one step boundary, refused before any table is built
    blocked = _dense_blocker(cfg, p0, mode)
    boundary = None if blocked else _configured(
        bch_time_condition, p0, plan.stage_factor, spec.locality, spec.extensiveness
    )
    orders = range(2, cfg.q_max + 1)
    if mode is None:
        alphas = phis = None
        rows = [
            _row(f"{name}[q={q}]", None, None, note=note)
            for name, note in (
                ("alpha_factorial", _SITE_CAP_NOTE),
                ("phi_norm", "series coefficients beyond the site cap"),
            )
            for q in orders
        ]
    else:
        alphas, phis, reports = _phi_reports(cfg, spec, plan, mode)
        rows = [row for q in orders for row in _alpha_rows(spec, q, alphas[q], mode)]
        for report in reports:
            rows.extend(_phi_rows(cfg, report))
    # the truncation check and the step bound share one dense evaluator
    if blocked:
        evaluator = None
        rows.append(_row("truncation_defect", None, None, note=blocked))
    else:
        evaluator = TrotterEvaluator(spec, plan, cfg.dense_cap)
        taus = (boundary, 0.5 * boundary)
        defects = check_truncated_generator(evaluator, phis, p0, taus)
        note = f"p0 = {p0}, tau <= {boundary:.6g}"
        rows.append(_row("truncation_defect", max(defects), cfg.eps, note=note))
    if mpf_spec is not None:
        rows.extend(
            _step_bound_rows(
                cfg, spec, evaluator, mpf_spec, p0, alphas, mode, boundary, blocked
            )
        )
    else:
        note = "extrapolation needs an even base order"
        rows.append(_row("step_error_bound", None, None, note=note))

    tally = {"pass": 0, "fail": 0, "untestable": 0}
    for row in rows:
        tally[row["status"]] += 1
    return tally["fail"] == 0, {
        "verify_bounds.json": {"rows": rows, "summary": tally},
        "verify_bounds.csv": _table(rows),
    }


# -- cost ------------------------------------------------------------------


def _gate_costs(cfg: ExperimentConfig, spec: HamiltonianSpec):
    from .bounds import gate_cost_table

    return _configured(
        gate_cost_table,
        cfg.n_sites,
        spec.extensiveness,
        cfg.t,
        cfg.eps,
        cfg.p,
        range_class=cfg.range_class,
        k=spec.locality,
        nu=cfg.nu,
        d=cfg.d,
    )


def _eps_sweep(cfg: ExperimentConfig, spec: HamiltonianSpec, plan) -> dict:
    from .bounds import matched_mpf_spec, report_from_parts

    rows = []
    for eps in EPS_SWEEP:
        try:
            matched = matched_mpf_spec(
                cfg.n_sites, spec.extensiveness, cfg.t, eps, cfg.p
            )
        except ValueError as exc:
            rows.append({"eps": eps, "note": str(exc)})
            continue
        report = report_from_parts(spec, plan, matched, cfg.t, eps)
        rows.append(
            {
                "eps": eps,
                "m": matched.m,
                "j_count": matched.j_count,
                "r1": report.r1,
                "r2": report.r2,
                "r": report.r,
            }
        )
    complete = [row for row in rows if "r" in row]
    fits: dict = {"rows": rows}
    if len(complete) >= 6:
        log_r = [math.log(row["r"]) for row in complete]
        log_inv = [math.log(1.0 / row["eps"]) for row in complete]
        power_slope, power_res = fit_line(log_inv, log_r)
        log_log_inv = [math.log(x) for x in log_inv]
        polylog_slope, polylog_res = fit_line(log_log_inv, log_r)
        half = len(complete) // 2
        early_slope, _ = fit_line(log_inv[:half], log_r[:half])
        late_slope, _ = fit_line(log_inv[half:], log_r[half:])
        fits.update(
            power_exponent=power_slope,
            power_residual=power_res,
            polylog_exponent=polylog_slope,
            polylog_residual=polylog_res,
            early_power_slope=early_slope,
            late_power_slope=late_slope,
            # a power law keeps its local slope; a polylog's slope decays
            sub_polynomial=(
                late_slope <= early_slope + 0.02 and power_slope < 0.5
            ),
        )
    return fits


def _n_sweep(cfg: ExperimentConfig, mpf_spec: MPFSpec) -> dict:
    from .bounds import build_report

    if cfg.family == "file":
        return {"rows": [], "note": "fixed-size Hamiltonian file; no size sweep"}
    rows = []
    for n in N_SWEEP_SIZES:
        k, g, n_groups = family_constants(
            cfg.family, n, cfg.coupling, cfg.field, cfg.exponent
        )
        plan = build_plan(n_groups, cfg.p)
        report = build_report(
            n, k, g, n_groups, plan.stage_factor, mpf_spec, cfg.t, cfg.eps
        )
        rows.append(
            {
                "n": n,
                "g": g,
                "r1": report.r1,
                "r2": report.r2,
                "r": report.r,
            }
        )
    slope, residual = fit_line(
        [math.log(row["n"]) for row in rows], [math.log(row["r1"]) for row in rows]
    )
    return {
        "rows": rows,
        "r1_slope": slope,
        "r1_slope_residual": residual,
        "r1_slope_expected": (1.0 + 1.0 / mpf_spec.m) / (cfg.p + 1),
        "r1_slope_reference": 1.0 / (cfg.p + 1),
        "r1_dominant": all(row["r1"] >= row["r2"] for row in rows),
    }


def cmd_cost(cfg: ExperimentConfig) -> tuple[bool, dict]:
    from .bounds import (
        PRIOR_QUERY_SCALING,
        QUERY_SCALING,
        admissibility_chain,
        divergence_diagnostics,
        report_from_parts,
        self_consistency,
    )

    if cfg.p % 2 != 0:
        raise ConfigError("cost reports need an even base order")
    spec = build_family(cfg)
    mode = _enumeration_mode(cfg, spec) if cfg.q_max >= 3 else None
    plan = build_plan(spec.n_groups, cfg.p)
    mpf_spec = build_mpf_spec(cfg, cfg.p)
    report = _configured(report_from_parts, spec, plan, mpf_spec, cfg.t, cfg.eps)
    table = _gate_costs(cfg, spec)
    consistency = self_consistency(report)
    chain = admissibility_chain(report)

    alphas = _alpha_table(cfg, spec, mode)
    if alphas is not None:
        window = {q: alphas[q] for q in range(2, cfg.q_max + 1)}
        diagnostics = divergence_diagnostics(spec, window)
    elif cfg.q_max < 3:
        diagnostics = {"note": "the window 2..qmax holds fewer than two orders"}
    else:
        diagnostics = {"note": "nested-commutator window beyond the site cap"}

    eps_sweep = _eps_sweep(cfg, spec, plan)
    n_sweep = _n_sweep(cfg, mpf_spec)
    payload = {
        "report": report,
        "consistency": consistency,
        "chain": chain,
        "query": {
            "value": report.query_count,
            "scaling": QUERY_SCALING,
            "prior_scaling": PRIOR_QUERY_SCALING,
        },
        "gate_table": table,
        "divergence": diagnostics,
        "eps_sweep": eps_sweep,
        "n_sweep": n_sweep,
    }
    csv_rows = []
    for row in eps_sweep["rows"]:
        if "r" in row:
            csv_rows.append(
                ["eps", row["eps"], spec.extensiveness, row["m"],
                 row["j_count"], row["r1"], row["r2"], row["r"]]
            )
    for row in n_sweep["rows"]:
        csv_rows.append(
            ["n", row["n"], row["g"], mpf_spec.m, mpf_spec.j_count,
             row["r1"], row["r2"], row["r"]]
        )
    header = ["sweep", "x", "g", "m", "j_count", "r1", "r2", "r"]
    return consistency.holds and chain.holds, {
        "cost_report.json": payload,
        "cost_sweeps.csv": (header, csv_rows),
    }


# -- table1 ----------------------------------------------------------------


def cmd_table1(cfg: ExperimentConfig) -> tuple[None, dict]:
    spec = build_family(cfg)
    rows = [row._asdict() for row in _gate_costs(cfg, spec)]
    return None, {
        "gate_costs.json": {"range_class": cfg.range_class, "rows": rows},
        "gate_costs.csv": _table(rows),
    }


# -- phi -------------------------------------------------------------------


def cmd_phi(cfg: ExperimentConfig) -> tuple[bool, dict]:
    spec = build_family(cfg)
    plan = _configured(build_plan, spec.n_groups, cfg.p)
    mode = _enumeration_mode(cfg, spec, plan, required=True)
    _, _, reports = _phi_reports(cfg, spec, plan, mode)
    rows = [
        {
            **report._asdict(),
            "bounds_hold": all(
                row["status"] == "pass" for row in _phi_rows(cfg, report)
            ),
        }
        for report in reports
    ]
    return all(row["bounds_hold"] for row in rows), {
        "phi_report.json": {"rows": rows},
        "phi_norms.csv": _table(rows),
    }


# -- alpha -----------------------------------------------------------------


def cmd_alpha(cfg: ExperimentConfig) -> tuple[bool, dict]:
    spec = build_family(cfg)
    mode = _enumeration_mode(cfg, spec)
    alphas = _alpha_table(cfg, spec, mode)
    holds = {"pass": True, "fail": False, "untestable": None}
    rows = []
    for q in range(2, cfg.q_max + 1):
        alpha = None if alphas is None else alphas[q]
        factorial, one_norm = _alpha_rows(spec, q, alpha, mode)
        rows.append(
            {
                "q": q,
                "alpha": alpha,
                "mode": mode or "untestable",
                "factorial_bound": factorial["rhs"],
                "factorial_holds": holds[factorial["status"]],
                "one_norm_bound": one_norm["rhs"],
                "one_norm_holds": holds[one_norm["status"]],
            }
        )
    passed = False not in {
        row[key] for row in rows for key in ("factorial_holds", "one_norm_holds")
    }
    return passed, {
        "alpha_table.json": {"rows": rows},
        "alpha_table.csv": _table(rows),
    }


# -- parser ----------------------------------------------------------------


# every flag sets the config field of its name, with "-" for "_", but these
_SPELLINGS = {"j_count": "--J", "q_max": "--qmax"}
_HELP = {
    "exponent": "decay power of the long-range family",
    "ham_file": "JSON Hamiltonian",
    "p": "base product-formula order",
    "j_count": "extrapolation term count",
    "k_list": "comma-separated subdivision counts, overrides --J",
    "t": "total evolution time",
    "eps": "target accuracy",
    "norm_mode": "measure operators by spectral norm or certified one-norm",
    "dense_cap": "largest site count allowed dense matrices",
    "q_max": "top commutator order checked",
    "out": "output directory (default: current)",
    "nu": "long-range decay power",
    "d": "lattice dimension",
}


def _shared_flags() -> argparse.ArgumentParser:
    """One flag per config field, kept as text for :func:`resolve_config`."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file; flags override it")
    for name in ExperimentConfig.__annotations__:
        shared.add_argument(
            _SPELLINGS.get(name, "--" + name.replace("_", "-")),
            dest=name,
            metavar="{%s}" % ",".join(CHOICES[name]) if name in CHOICES else None,
            help=_HELP.get(name),
        )
    return shared


_COMMANDS = {
    "verify-order": (
        cmd_verify_order,
        "measure convergence slopes against their order thresholds",
    ),
    "verify-bounds": (
        cmd_verify_bounds,
        "check every certified inequality on one Hamiltonian",
    ),
    "cost": (
        cmd_cost,
        "assemble the full step-count and query budget with sweeps",
    ),
    "table1": (
        cmd_table1,
        "emit the gate-cost comparison table",
    ),
    "phi": (
        cmd_phi,
        "tabulate series coefficients with their bounds",
    ),
    "alpha": (
        cmd_alpha,
        "tabulate nested-commutator sums with their bounds",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpfkit",
        description=(
            "verification suites and cost reports for extrapolated "
            "product-formula simulation"
        ),
    )
    shared = _shared_flags()
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary) in _COMMANDS.items():
        subparsers.add_parser(name, parents=[shared], help=summary)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        handler, _ = _COMMANDS[args.command]
        passed, files = handler(cfg)
        verdict = {} if passed is None else {"passed": passed}
        out = _out_dir(cfg)
        for name, doc in files.items():
            if name.endswith(".csv"):
                write_csv(out / name, *doc)
            else:
                write_json(out / name, {"config": cfg.echo(), **doc, **verdict})
        return 1 if passed is False else 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, FloatingPointError) as exc:
        # a finite setting so large that a bound, coefficient or matrix overflows
        print(f"error: the configured values overflow: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # only a failed run pays for it

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
