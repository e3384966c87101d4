"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one round of every workload at seed 0 and requires its outputs to
pass their checks.  Then, for each perturbation below, it copies the
result folder, changes one value (an alpha or a g scaled by 1 + 1e-6, a
flipped ``passed``, ...) and requires the check to report a problem, so a
check that can never fail shows up here.  It also requires the metric
names in ``BENCHMARK.json`` to match those ``run.py`` prints.  Exits 0 when
every case behaves, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import random
import shutil
import sys
from pathlib import Path

import run  # sets the BLAS thread cap before numpy is imported

SCALE = 1.0 + 1e-6


def edit_json(name: str, change):
    def apply(folder: Path) -> None:
        path = folder / name
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
    return apply


def edit_csv(change):
    def apply(folder: Path) -> None:
        path = folder / "order_sweep.csv"
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        change(rows)
        with open(path, "w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
    return apply


def row(doc: dict, name: str) -> dict:
    return next(r for r in doc["rows"] if r["name"] == name)


def scale_row(name: str, key: str):
    def change(doc):
        row(doc, name)[key] *= SCALE
    return change


def set_row(name: str, key: str, value):
    def change(doc):
        row(doc, name)[key] = value
    return change


def set_key(*path_and_value):
    *path, value = path_and_value

    def change(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return change


def scale_csv(column: str, row_index: int):
    def change(rows):
        col = rows[0].index(column)
        rows[row_index][col] = repr(float(rows[row_index][col]) * SCALE)
    return change


def copy_csv_column(source: str, target: str):
    def change(rows):
        src, dst = rows[0].index(source), rows[0].index(target)
        for r in rows[1:]:
            r[dst] = r[src]
    return change


def times(factor):
    return lambda value: value * factor


VB, COST = "verify_bounds.json", "cost_report.json"
PERTURBATIONS = {
    ("certify", "verify-bounds"): {
        "alpha_2 scaled": edit_json(VB, scale_row("alpha_factorial[q=2]", "lhs")),
        "alpha_3 scaled": edit_json(VB, scale_row("alpha_one_norm[q=3]", "lhs")),
        "factorial bound scaled": edit_json(VB, scale_row("alpha_factorial[q=5]", "rhs")),
        "one-norm bound scaled": edit_json(VB, scale_row("alpha_one_norm[q=4]", "rhs")),
        "mu ceiling scaled": edit_json(VB, scale_row("mu_ceiling", "rhs")),
        "phi_2 bound scaled": edit_json(VB, scale_row("phi_norm[q=2]", "rhs")),
        "row status flipped": edit_json(VB, set_key("rows", 0, "status", "fail")),
        "locality above bound": edit_json(VB, set_row("phi_locality[q=3]", "lhs", 7.0)),
        "passed flipped": edit_json(VB, set_key("passed", False)),
    },
    ("certify", "cost"): {
        "N-sweep g scaled": edit_json(COST, set_key("n_sweep", "rows", -1, "g", times(SCALE))),
        "query count scaled": edit_json(COST, set_key("query", "value", times(SCALE))),
        "||c||_1 scaled": edit_json(COST, set_key("report", "inputs", "norm_c_1", times(SCALE))),
        "consistency flipped": edit_json(COST, set_key("consistency", "holds", False)),
        "chain flipped": edit_json(COST, set_key("chain", "holds", False)),
        "passed flipped": edit_json(COST, set_key("passed", False)),
    },
    ("series", "phi"): {
        "Phi_5 norm scaled": edit_json("phi_report.json", set_key("rows", 3, "norm", times(SCALE))),
        "Phi_3 not vanishing": edit_json("phi_report.json", set_key("rows", 1, "norm", 1e-9)),
        "hermiticity defect": edit_json("phi_report.json",
                                        set_key("rows", 0, "hermiticity_defect", 1e-9)),
        "passed flipped": edit_json("phi_report.json", set_key("passed", False)),
    },
    ("evolve", "verify-order"): {
        "Trotter error scaled": edit_csv(scale_csv("trotter_p2", -1)),
        "MPF J=3 error scaled": edit_csv(scale_csv("mpf_j3", -2)),
        "MPF J=3 slope too low": edit_csv(copy_csv_column("mpf_j2", "mpf_j3")),
        "passed flipped": edit_json("verify_order.json", set_key("passed", False)),
    },
}
for exponent in run.SWEEP_EXPONENTS:
    PERTURBATIONS[("sweep", f"cost-a{exponent}")] = {
        "N-sweep g scaled": edit_json(COST, set_key("n_sweep", "rows", 0, "g", times(SCALE))),
        "gate value negative": edit_json(COST, set_key("gate_table", 2, "value", -1.0)),
        "gate value infinite": edit_json(COST, set_key("gate_table", 0, "value", "inf")),
        "chain flipped": edit_json(COST, set_key("chain", "holds", False)),
        "passed flipped": edit_json(COST, set_key("passed", False)),
    }


def check_benchmark_json() -> list[str]:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    if declared != run.END_TO_END:
        problems.append(f"end_to_end {declared} != run.py {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
    if declared != run.PER_LAYER:
        problems.append("per_layer differs from run.PER_LAYER")
    if [w["name"] for w in doc["workloads"]] != list(run.WORKLOADS):
        problems.append("workload names differ from run.WORKLOADS")
    return problems


def main() -> int:
    problems = check_benchmark_json()
    work = run.WORK_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        meter = run.Meter()
        for name, spec in run.WORKLOADS.items():
            ops = spec.operations(spec.flags(random.Random(f"{name}:0")))
            r = run.run_round(meter, ops, work / name, traced=False)
            problems += [f"{name}/{label}: good output rejected: {why}"
                         for label, why in r["failures"].items()]
            for op in ops:
                cases = PERTURBATIONS[(name, op.label)]
                for case, perturb in cases.items():
                    copy = work / f"{name}-{op.label}-perturbed"
                    shutil.rmtree(copy, ignore_errors=True)
                    shutil.copytree(work / name / op.label, copy)
                    perturb(copy)
                    caught = run.check_output(op, copy)
                    print(f"{name}/{op.label}: {case}: "
                          f"{'rejected' if caught else 'NOT REJECTED'}")
                    if not caught:
                        problems.append(f"{name}/{op.label}: {case} not rejected")
    finally:
        run.remove_work(work)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
