"""Command-line entry points for verification suites and budget reports.

One parser reads every run: the command, ``--config`` and one flag per
:class:`ExperimentConfig` field, in any order.  Each run resolves the config
(defaults, then a JSON config file, then explicit flags) for its handler,
which touches no file: it returns its verdict and its result files' contents.
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
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .formulas import (
    DEFAULT_DENSE_CAP,
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
    family_one_norm,
    heisenberg_chain,
    load_spec,
    long_range_zz_chain,
)

# numpy and the modules built on it (dense, trotter, mpf, bch) are imported
# inside the code that builds matrices, so a run that builds none never
# loads them; bounds and commutators load in the handlers that use them
if TYPE_CHECKING:
    from .bch import PhiReport

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
    dense_cap: int = DEFAULT_DENSE_CAP
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
    data = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for name, value in data.items():
        setattr(cfg, name, _coerce_value(name, value, known[name]))
    for name in known:  # each flag given overrides the file
        value = getattr(args, name)
        if value is not None:
            setattr(cfg, name, _coerce_value(name, value, known[name]))
    _validate(cfg)
    return cfg


def load_chain(
    cfg: ExperimentConfig, cap: str | None = None, terms_up_to: float = math.inf
) -> tuple[int, float, int, HamiltonianSpec | None]:
    """Every run's one Hamiltonian source: k, g and the group count, from a
    loaded file (which pins n_sites and whose spec is always kept) or from
    :func:`family_constants`, with a built-in chain's spec only when the run
    reads terms (n_sites <= ``terms_up_to``).  Once the size is known the
    run's ``cap`` ("dense" or "series") is refused before any term is built."""
    spec = None
    if cfg.family == "file":
        try:
            spec = load_spec(cfg.ham_file)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot load Hamiltonian file: {exc}") from None
        cfg.n_sites = spec.n_sites
        _validate(cfg)  # the file's site count meets the flag's checks
    if cap == "dense":
        _configured(check_dense_cap, cfg.n_sites, cfg.dense_cap)
    if cap == "series" and cfg.n_sites > ENUMERATION_SITE_CAP:
        raise ConfigError(
            "series coefficients need symbolic enumeration; n_sites = "
            f"{cfg.n_sites} exceeds the site cap {ENUMERATION_SITE_CAP}"
        )
    k, g, n_groups = _constants(cfg, cfg.n_sites) if spec is None else (
        spec.locality, spec.extensiveness, spec.n_groups
    )
    if spec is None and cfg.n_sites <= terms_up_to:
        if cfg.family == "heisenberg":
            spec = heisenberg_chain(cfg.n_sites, cfg.coupling, cfg.field)
        else:
            spec = long_range_zz_chain(cfg.n_sites, cfg.exponent, cfg.coupling)
    return k, g, n_groups, spec


def _one_norm(cfg: ExperimentConfig, spec: HamiltonianSpec | None) -> float:
    """The total one-norm L: the spec's, else a built-in chain's summed
    without terms by :func:`family_one_norm`, to the same bits."""
    if spec is None:
        return _constants(cfg, cfg.n_sites, family_one_norm)
    return spec.total_one_norm


def _constants(cfg: ExperimentConfig, n_sites: int, compute=family_constants):
    chain = (cfg.family, n_sites, cfg.coupling, cfg.field, cfg.exponent)
    return _configured(compute, *chain)


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


def _walk(cfg: ExperimentConfig, spec: HamiltonianSpec | None, plan=None):
    """The run's norm mode and its one nest walk, ``(mode, alphas, phis)``:
    spectral norms ("exact") when asked for and under the dense cap, else
    coefficient one-norms; ``(None, {}, {})`` beyond the site cap, where a
    built-in chain has no spec.  The walk refuses its own budgets before any
    nest is built."""
    from .commutators import commutator_sums

    if cfg.n_sites > ENUMERATION_SITE_CAP:
        return None, {}, {}
    exact = cfg.norm_mode == "exact" and cfg.n_sites <= cfg.dense_cap
    mode = "exact" if exact else "one-norm"
    alphas, phis = _configured(
        commutator_sums, spec, cfg.q_max, mode, cfg.dense_cap, plan=plan
    )
    return mode, alphas, phis


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

    _, _, n_groups, spec = load_chain(cfg, "dense")
    plan = _configured(build_plan, n_groups, cfg.p)
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
    cfg: ExperimentConfig, k: int, g: float, total: float, q: int, alpha, mode
) -> list[dict]:
    """alpha_q against its factorial bound, from k and g, and its one-norm
    bound, from the total one-norm."""
    from .commutators import factorial_commutator_bound, power_commutator_bound

    factorial = factorial_commutator_bound(q, k, g, cfg.n_sites)
    one_norm = power_commutator_bound(q, total)
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


def _phi_reports(
    cfg: ExperimentConfig, spec: HamiltonianSpec, plan, mode, alphas, phis
) -> list[PhiReport]:
    """One Phi_q report per q of the window, from the run's walk."""
    from .bch import phi_report

    report = partial(phi_report, plan, spec, norm_mode=mode, cap=cfg.dense_cap)
    orders = range(2, cfg.q_max + 1)
    return [report(q, phi_q=phis[q], alpha_q=alphas[q]) for q in orders]


def cmd_verify_bounds(cfg: ExperimentConfig) -> tuple[bool, dict]:
    from .bch import check_truncated_generator
    from .bounds import (
        bch_time_condition,
        mpf_time_condition,
        step_error_bound,
        truncation_order,
    )
    from .commutators import check_tuple_budget, mu_from_alphas, mu_window_bound
    from .mpf import MPFEvaluator
    from .trotter import TrotterEvaluator

    # past the site cap every row is untestable, and only the group count is read
    k, g, n_groups, spec = load_chain(cfg, terms_up_to=ENUMERATION_SITE_CAP)
    plan = _configured(build_plan, n_groups, cfg.p)
    p0 = _configured(truncation_order, cfg.n_sites, cfg.eps)
    mpf_spec = build_mpf_spec(cfg, cfg.p) if cfg.p % 2 == 0 else None
    # why the dense checks at order p0 cannot run, and the step bound's own
    # reasons before those; the one step boundary is refused before any table
    blocked = None
    if p0 > cfg.q_max:
        blocked = f"p0 = {p0} exceeds the qmax window {cfg.q_max}"
    elif cfg.n_sites > cfg.dense_cap:
        blocked = "dense matrices beyond the cap"
    elif cfg.n_sites > ENUMERATION_SITE_CAP:
        blocked = _SITE_CAP_NOTE
    step_blocked = blocked
    if mpf_spec is None:
        step_blocked = "extrapolation needs an even base order"
    elif p0 <= min(cfg.p, cfg.q_max):
        step_blocked = f"p0 = {p0} leaves no commutator window above p = {cfg.p}"
    boundary = None if blocked else _configured(
        bch_time_condition, p0, plan.stage_factor, k, g
    )
    mode, alphas, phis = _walk(cfg, spec, plan)
    orders = range(2, cfg.q_max + 1)
    if mode is None:
        # no walk runs past the site cap, but a window that the walk would
        # refuse at the cap (a file's at its own size) is refused before a row
        at_cap = _constants(cfg, ENUMERATION_SITE_CAP)[2] if spec is None else n_groups
        _configured(check_tuple_budget, at_cap, cfg.q_max)
        rows = [
            _row(f"{name}[q={q}]", None, None, note=note)
            for name, note in (
                ("alpha_factorial", _SITE_CAP_NOTE),
                ("phi_norm", "series coefficients beyond the site cap"),
            )
            for q in orders
        ]
    else:
        alpha_rows = partial(_alpha_rows, cfg, k, g, spec.total_one_norm)
        rows = [row for q in orders for row in alpha_rows(q, alphas[q], mode)]
        for report in _phi_reports(cfg, spec, plan, mode, alphas, phis):
            rows.extend(_phi_rows(cfg, report))
    # the truncation check and the step bound share one dense evaluator
    if blocked:
        rows.append(_row("truncation_defect", None, None, note=blocked))
    else:
        evaluator = TrotterEvaluator(spec, plan, cfg.dense_cap)
        taus = (boundary, 0.5 * boundary)
        defects = check_truncated_generator(evaluator, phis, p0, taus)
        note = f"p0 = {p0}, tau <= {boundary:.6g}"
        rows.append(_row("truncation_defect", max(defects), cfg.eps, note=note))
    if step_blocked:
        rows.append(_row("step_error_bound", None, None, note=step_blocked))
    else:
        mu = mu_from_alphas(alphas, cfg.p, p0)
        ceiling = mu_window_bound(cfg.n_sites, cfg.p, p0, k, g)
        rows.append(_row("mu_ceiling", mu, ceiling, note=f"mu source: {mode}"))
        tau = 0.8 * min(boundary, mpf_time_condition(plan.stage_factor, mu))
        bound = step_error_bound(
            tau,
            mpf_spec.norm_c_1,
            mpf_spec.norm_k_1,
            plan.stage_factor,
            mu,
            mpf_spec.m,
            cfg.eps,
            boundary,
        )
        measured = MPFEvaluator(mpf_spec, evaluator).error(tau)
        note = f"tau = {tau:.6g}, admissible = {bound.admissible}"
        rows.append(_row("step_error_bound", measured, bound.value, note=note))

    tally = {"pass": 0, "fail": 0, "untestable": 0}
    for row in rows:
        tally[row["status"]] += 1
    return tally["fail"] == 0, {
        "verify_bounds.json": {"rows": rows, "summary": tally},
        "verify_bounds.csv": _table(rows),
    }


# -- cost ------------------------------------------------------------------


def _gate_costs(cfg: ExperimentConfig, k: int, g: float):
    from .bounds import gate_cost_table

    return _configured(
        gate_cost_table,
        cfg.n_sites,
        g,
        cfg.t,
        cfg.eps,
        cfg.p,
        range_class=cfg.range_class,
        k=k,
        nu=cfg.nu,
        d=cfg.d,
    )


def _eps_sweep(cfg: ExperimentConfig, g: float, budget) -> dict:
    from .bounds import matched_mpf_spec

    rows = []
    for eps in EPS_SWEEP:
        try:
            matched = matched_mpf_spec(cfg.n_sites, g, cfg.t, eps, cfg.p)
        except ValueError as exc:
            rows.append({"eps": eps, "note": str(exc)})
            continue
        report = budget(matched, cfg.t, eps)
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
        k, g, n_groups = _constants(cfg, n)
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
        build_report,
        divergence_diagnostics,
        self_consistency,
    )

    if cfg.p % 2 != 0:
        raise ConfigError("cost reports need an even base order")
    # every figure is a closed form; a built-in chain's terms are never built
    k, g, n_groups, spec = load_chain(cfg, terms_up_to=0)
    plan = build_plan(n_groups, cfg.p)
    mpf_spec = build_mpf_spec(cfg, cfg.p)
    budget = partial(build_report, cfg.n_sites, k, g, n_groups, plan.stage_factor)
    report = _configured(budget, mpf_spec, cfg.t, cfg.eps)
    table = _gate_costs(cfg, k, g)
    consistency = self_consistency(report)
    chain = admissibility_chain(report)

    if cfg.q_max < 3:
        diagnostics = {"note": "the window 2..qmax holds fewer than two orders"}
    else:
        total = _one_norm(cfg, spec)
        diagnostics = divergence_diagnostics(k, g, cfg.n_sites, total, cfg.q_max)

    eps_sweep = _eps_sweep(cfg, g, budget)
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
                ["eps", row["eps"], g, row["m"],
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
    k, g, _, _ = load_chain(cfg, terms_up_to=0)
    rows = [row._asdict() for row in _gate_costs(cfg, k, g)]
    return None, {
        "gate_costs.json": {"range_class": cfg.range_class, "rows": rows},
        "gate_costs.csv": _table(rows),
    }


# -- phi -------------------------------------------------------------------


def cmd_phi(cfg: ExperimentConfig) -> tuple[bool, dict]:
    _, _, n_groups, spec = load_chain(cfg, "series")
    plan = _configured(build_plan, n_groups, cfg.p)
    reports = _phi_reports(cfg, spec, plan, *_walk(cfg, spec, plan))
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
    k, g, _, spec = load_chain(cfg, terms_up_to=ENUMERATION_SITE_CAP)
    total = _one_norm(cfg, spec)
    mode, alphas, _ = _walk(cfg, spec)
    holds = {"pass": True, "fail": False, "untestable": None}
    rows = []
    for q in range(2, cfg.q_max + 1):
        alpha = alphas.get(q)
        factorial, one_norm = _alpha_rows(cfg, k, g, total, q, alpha, mode)
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
    """One parser: the command, ``--config`` and one flag per config field,
    each flag kept as text for :func:`resolve_config`."""
    commands = "".join(
        f"\n  {name:<15}{summary}" for name, (_, summary) in _COMMANDS.items()
    )
    parser = argparse.ArgumentParser(
        prog="mpfkit",
        description="verification suites and cost reports for extrapolated\n"
        "product-formula simulation\n\ncommands:" + commands,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="one of the commands above")
    parser.add_argument("--config", help="JSON config file; flags override it")
    for name in ExperimentConfig.__annotations__:
        parser.add_argument(
            _SPELLINGS.get(name, "--" + name.replace("_", "-")),
            dest=name,
            metavar="{%s}" % ",".join(CHOICES[name]) if name in CHOICES else None,
            help=_HELP.get(name),
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
