"""Output checks for the benchmark workloads, computed apart from mpfkit.

Nothing here imports mpfkit.  Each workload has a ``*_reference`` function
that computes, once per run, the quantities its outputs must match (with
numpy, scipy and exact fractions, from the model's definition), and a
``check_*`` function that reads one subcommand's result folder and returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.linalg

E3 = math.exp(3.0)
REL = 1e-9  # float results recomputed along another summation order
NOISE_FLOOR = 1e-11  # errors below this are rounding, not formula error

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_BOND = np.kron(_X, _X) + np.kron(_Y, _Y) + np.kron(_Z, _Z)


# -- shared helpers -----------------------------------------------------------


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def holds(lhs: float, rhs: float) -> bool:
    return lhs <= rhs * (1.0 + 1e-12) + 1e-12


def _load_json(folder: Path, name: str) -> dict:
    return json.loads((folder / name).read_text())


def _placed(op: np.ndarray, first: int, n_sites: int) -> np.ndarray:
    """``op`` on sites ``first, first+1, ...``; site 0 is the leftmost factor."""
    width = op.shape[0].bit_length() - 1
    left = np.eye(1 << first, dtype=complex)
    right = np.eye(1 << (n_sites - first - width), dtype=complex)
    return np.kron(np.kron(left, op), right)


def heisenberg_groups(n_sites: int, coupling: float, field: float) -> list[np.ndarray]:
    """Dense group matrices of the open Heisenberg chain.

    Groups are even bonds, odd bonds and the Z field, in that order; a
    group with no terms (no field when ``field == 0``) is left out.
    """
    even = sum(coupling * _placed(_BOND, b, n_sites) for b in range(0, n_sites - 1, 2))
    odd = sum(coupling * _placed(_BOND, b, n_sites) for b in range(1, n_sites - 1, 2))
    groups = [even, odd]
    if field != 0.0:
        groups.append(sum(field * _placed(_Z, s, n_sites) for s in range(n_sites)))
    return groups


def heisenberg_constants(n_sites: int, coupling: float, field: float) -> dict:
    """Locality k, extensiveness g and one-norm L of the chain (n_sites >= 3)."""
    return {
        "k": 2,
        "g": 6.0 * abs(coupling) + abs(field),
        "L": 3.0 * (n_sites - 1) * abs(coupling) + n_sites * abs(field),
    }


def nested_alpha(groups: list[np.ndarray], q: int) -> float:
    """Sum over all q-tuples of ||[H_q, ... [H_2, H_1]]|| by dense products."""
    scale = max(np.max(np.abs(h)) for h in groups)
    total = 0.0

    def descend(depth: int, nest: np.ndarray) -> None:
        nonlocal total
        for h in groups:
            nxt = h @ nest - nest @ h
            if np.max(np.abs(nxt)) <= 1e-12 * scale:
                continue
            if depth == q:
                total += float(np.linalg.norm(nxt, ord=2))
            else:
                descend(depth + 1, nxt)

    for first in groups:
        descend(2, first)
    return total


def richardson_weights(k_values: list[int]) -> list[Fraction]:
    """Solve sum_j c_j k_j^(-2i) = [i == 0], i < J, over the rationals."""
    n = len(k_values)
    rows = [
        [Fraction(1, k ** (2 * i)) for k in k_values] + [Fraction(int(i == 0))]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n] for row in rows]


def closed_form_weights(k_values: list[int]) -> list[float]:
    """c_j = prod_{i != j} k_j^2 / (k_j^2 - k_i^2)."""
    out = []
    for kj in k_values:
        c = 1.0
        for ki in k_values:
            if ki != kj:
                c *= kj * kj / (kj * kj - ki * ki)
        out.append(c)
    return out


def second_order_step(groups: list[np.ndarray], tau: float) -> np.ndarray:
    """Symmetric split exp(-i H_1 tau/2) ... exp(-i H_G tau) ... exp(-i H_1 tau/2)."""
    half = [scipy.linalg.expm(-0.5j * tau * h) for h in groups[:-1]]
    u = scipy.linalg.expm(-1j * tau * groups[-1])
    for e in reversed(half):
        u = e @ u @ e
    return u


def loglog_fit(taus: np.ndarray, errors: np.ndarray) -> tuple[float, int]:
    keep = errors >= NOISE_FLOOR
    if np.count_nonzero(keep) < 3:
        return float("nan"), int(np.count_nonzero(keep))
    slope = np.polyfit(np.log(taus[keep]), np.log(errors[keep]), 1)[0]
    return float(slope), int(np.count_nonzero(keep))


# -- certify: verify-bounds and cost on the Heisenberg chain ------------------


def certify_reference(n_sites: int, coupling: float, field: float, eps: float,
                      q_max: int, j_count: int) -> dict:
    groups = heisenberg_groups(n_sites, coupling, field)
    ks = list(range(1, j_count + 1))
    weights = richardson_weights(ks)
    return {
        "n_sites": n_sites,
        "eps": eps,
        "q_max": q_max,
        "alpha": {q: nested_alpha(groups, q) for q in (2, 3)},
        "norm_c_1": float(sum(abs(c) for c in weights)),
        "norm_k_1": float(sum(ks)),
        **heisenberg_constants(n_sites, coupling, field),
    }


def check_verify_bounds(folder: Path, ref: dict) -> list[str]:
    doc = _load_json(folder, "verify_bounds.json")
    rows = {row["name"]: row for row in doc["rows"]}
    problems = []
    if doc["passed"] is not True or doc["summary"]["fail"] != 0:
        problems.append("verify-bounds did not pass")
    n, k, g, big_l = ref["n_sites"], ref["k"], ref["g"], ref["L"]
    c = 2.0  # stage factor of the second-order split: 2G stages over G groups
    p0 = math.ceil(math.log(3.0 * n / ref["eps"]))
    expected: dict[str, float] = {
        "mu_ceiling": 4.0 * max(3.0 * n ** (1.0 / 3.0), E3 * p0) * k * g,
    }
    for q in range(2, ref["q_max"] + 1):
        expected[f"alpha_factorial[q={q}]"] = (
            math.factorial(q - 1) * (2.0 * k * g) ** (q - 1) * n * g
        )
        expected[f"alpha_one_norm[q={q}]"] = (2.0 * big_l) ** q
        expected[f"phi_locality[q={q}]"] = float(q * k)
        expected[f"phi_extensiveness[q={q}]"] = (
            math.factorial(q - 1) / q * (2.0 * c * k * g) ** (q - 1) * c * g
        )
    for q, alpha in ref["alpha"].items():
        expected[f"phi_norm[q={q}]"] = c**q * alpha / (q * q)
        for name in (f"alpha_factorial[q={q}]", f"alpha_one_norm[q={q}]"):
            lhs = rows[name]["lhs"]
            if not close(lhs, alpha):
                problems.append(f"{name}: alpha_{q} {lhs!r} != dense {alpha!r}")
    for name, rhs in expected.items():
        row = rows.get(name)
        if row is None:
            problems.append(f"missing row {name}")
            continue
        if not close(row["rhs"], rhs):
            problems.append(f"{name}: bound {row['rhs']!r} != closed form {rhs!r}")
        if row["status"] != "pass" or not holds(row["lhs"], rhs):
            problems.append(f"{name}: {row['lhs']!r} exceeds {rhs!r}")
    return problems


def check_cost(folder: Path, ref: dict, g_of_n) -> list[str]:
    """Checks shared by every ``cost`` report; ``g_of_n(n)`` is the expected g."""
    doc = _load_json(folder, "cost_report.json")
    problems = []
    if doc["passed"] is not True:
        problems.append("cost did not pass")
    if doc["consistency"]["holds"] is not True:
        problems.append("self-consistency check failed")
    if doc["chain"]["holds"] is not True:
        problems.append("admissibility chain failed")
    inputs, r = doc["report"]["inputs"], doc["report"]["r"]
    if not close(inputs["norm_c_1"], ref["norm_c_1"], 1e-12):
        problems.append(f"||c||_1 {inputs['norm_c_1']!r} != Richardson {ref['norm_c_1']!r}")
    if inputs["norm_k_1"] != ref["norm_k_1"]:
        problems.append(f"||k||_1 {inputs['norm_k_1']!r} != {ref['norm_k_1']!r}")
    queries = ref["norm_c_1"] * ref["norm_k_1"] * r
    if not close(doc["query"]["value"], queries, 1e-12):
        problems.append(f"query count {doc['query']['value']!r} != ||c|| ||k|| r = {queries!r}")
    for row in doc["n_sweep"]["rows"]:
        want = g_of_n(row["n"])
        if not close(row["g"], want, 1e-11):
            problems.append(f"N-sweep g at N={row['n']}: {row['g']!r} != {want!r}")
    return problems


# -- series: Phi_q of a fourth-order formula -----------------------------------


def fourth_order_step(groups: list[np.ndarray], tau: float) -> np.ndarray:
    """Suzuki recursion S4(t) = S2(ut)^2 S2((1-4u)t) S2(ut)^2."""
    u = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
    outer = second_order_step(groups, u * tau)
    middle = second_order_step(groups, (1.0 - 4.0 * u) * tau)
    return outer @ outer @ middle @ outer @ outer


def series_reference(n_sites: int, coupling: float, field: float) -> dict:
    """||Phi_5|| from a polynomial fit of logm of the fourth-order step.

    An order-4 symmetric formula has log S(t) = -i H t + C_5 t^5 + C_7 t^7
    + ..., with ||C_5|| = ||Phi_5||.  (log S(t) + i H t) / t^5 is then a
    polynomial in t^2 whose constant term is C_5.
    """
    groups = heisenberg_groups(n_sites, coupling, field)
    h = sum(groups)
    taus = np.linspace(0.04, 0.2, 11)
    samples = np.stack([
        ((scipy.linalg.logm(fourth_order_step(groups, t)) + 1j * t * h) / t**5).ravel()
        for t in taus
    ])
    design = np.vander(taus**2, 5, increasing=True)
    coeffs, *_ = np.linalg.lstsq(design, samples, rcond=None)
    dim = h.shape[0]
    return {"phi5_norm": float(np.linalg.norm(coeffs[0].reshape(dim, dim), ord=2))}


def check_series(folder: Path, ref: dict) -> list[str]:
    doc = _load_json(folder, "phi_report.json")
    rows = {row["q"]: row for row in doc["rows"]}
    problems = []
    if doc["passed"] is not True:
        problems.append("phi did not pass")
    for q in (2, 3, 4):
        if not rows[q]["norm"] <= 1e-10:
            problems.append(f"||Phi_{q}|| = {rows[q]['norm']!r} > 1e-10 for an order-4 formula")
    for q, row in rows.items():
        if not row["hermiticity_defect"] <= 1e-10:
            problems.append(f"Phi_{q} hermiticity defect {row['hermiticity_defect']!r}")
    if not close(rows[5]["norm"], ref["phi5_norm"], 2e-7):
        problems.append(f"||Phi_5|| {rows[5]['norm']!r} != logm fit {ref['phi5_norm']!r}")
    return problems


# -- evolve: Trotter and MPF errors on the dense chain --------------------------


def evolve_reference(n_sites: int, coupling: float, field: float, j_count: int,
                     taus: np.ndarray) -> dict:
    """Errors at the two largest grid points from scipy.linalg.expm products."""
    groups = heisenberg_groups(n_sites, coupling, field)
    h = sum(groups)
    points = {}
    for tau in taus[-2:]:
        exact = scipy.linalg.expm(-1j * tau * h)
        errors = {"trotter_p2": np.linalg.norm(exact - second_order_step(groups, tau), ord=2)}
        for j in range(1, j_count + 1):
            ks = list(range(1, j + 1))
            combo = sum(
                c * np.linalg.matrix_power(second_order_step(groups, tau / k), k)
                for c, k in zip(closed_form_weights(ks), ks)
            )
            errors[f"mpf_j{j}"] = np.linalg.norm(exact - combo, ord=2)
        points[float(tau)] = {key: float(v) for key, v in errors.items()}
    return {"points": points, "j_count": j_count}


def read_sweep(folder: Path) -> tuple[list[str], np.ndarray]:
    with open(folder / "order_sweep.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def check_evolve(folder: Path, ref: dict) -> list[str]:
    doc = _load_json(folder, "verify_order.json")
    problems = []
    if doc["passed"] is not True:
        problems.append("verify-order did not pass")
    header, table = read_sweep(folder)
    columns = {name: table[:, i] for i, name in enumerate(header)}
    thresholds = {"trotter_p2": 2.8}
    thresholds.update({f"mpf_j{j}": 2 * j + 0.8 for j in range(1, ref["j_count"] + 1)})
    for name, threshold in thresholds.items():
        slope, used = loglog_fit(columns["tau"], columns[name])
        if not slope >= threshold:
            problems.append(f"{name}: fitted slope {slope:.4f} ({used} points) < {threshold}")
    for tau, errors in ref["points"].items():
        at = np.flatnonzero(np.isclose(columns["tau"], tau, rtol=1e-12, atol=0.0))
        if len(at) != 1:
            problems.append(f"grid point {tau!r} missing from order_sweep.csv")
            continue
        for name, want in errors.items():
            got = columns[name][at[0]]
            if not close(got, want, 1e-8):
                problems.append(f"{name} at tau={tau:.4g}: {got!r} != expm {want!r}")
    return problems


# -- sweep: long-range ZZ cost reports ------------------------------------------


def long_range_g(n: int, exponent: float, base: float) -> float:
    """max_i sum_{j != i} base / |i - j|^exponent."""
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(float)
    np.fill_diagonal(dist, np.inf)
    return float(np.max(np.sum(base / dist**exponent, axis=1)))


def sweep_reference(j_count: int) -> dict:
    ks = list(range(1, j_count + 1))
    return {
        "norm_c_1": float(sum(abs(c) for c in richardson_weights(ks))),
        "norm_k_1": float(sum(ks)),
    }


def check_sweep(folder: Path, ref: dict, exponent: float, base: float) -> list[str]:
    problems = check_cost(folder, ref, lambda n: long_range_g(n, exponent, base))
    doc = _load_json(folder, "cost_report.json")
    for row in doc["gate_table"]:
        value = row["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            problems.append(f"gate row {row['algorithm']}: value {value!r}")
    return problems

