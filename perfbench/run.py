"""Time-to-verified-table benchmark for the mpfkit command line.

    python3 perfbench/run.py --workload {certify,series,evolve,sweep} \
        --seed N --seconds S --trace {0,1}

Each operation is one mpfkit subcommand run as its own process, as a user
runs it, followed by checks of its result files against computations made
apart from mpfkit (see ``checks.py``).  A round runs every operation of
the workload once; a run repeats whole rounds for about ``--seconds``.

``--trace 0`` reports the end-to-end metrics: median wall and CPU time of
a round, the median over rounds of the largest peak RSS, and the median
set-up time (interpreter start, ``import mpfkit.cli`` and config
resolution).  ``--trace 1`` alternates untraced rounds with rounds whose
processes run under ``tracer.py`` and reports the per-layer metrics, the
tracing overhead, and whether counters and result files repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# One BLAS thread for mpfkit and for the checks, at or below nproc on any
# machine; set before numpy is imported so this process honours it too.
THREAD_CAP = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_CAP)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import MODULES as LAYERS  # noqa: E402  (one layer per mpfkit module)

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
CLI_SNIPPET = "import sys; from mpfkit.cli import main; sys.exit(main())"
SETUP_SNIPPET = (
    "import sys; from mpfkit.cli import build_parser, resolve_config; "
    "resolve_config(build_parser().parse_args(sys.argv[1:]))"
)
SETUP_REPEATS = 7
MIN_ROUNDS = 2

# Per-layer metrics of the traced run: name -> unit.  ``.s`` and ``self_s``
# are seconds, the rest counts; ``dense.bytes_built`` is computed from the
# build calls (4^n x 16 B each), not measured.
PER_LAYER = {
    "pauli.self_s": "s",
    "pauli.commutator.calls": "count",
    "pauli.commutator.nonzero": "count",
    "pauli.commutator.s": "s",
    "dense.self_s": "s",
    "dense.from_pauli_sum.calls": "count",
    "dense.from_pauli_sum.terms": "count",
    "dense.from_pauli_sum.s": "s",
    "dense.bytes_built": "B-computed",
    "dense.spectral_norm.calls": "count",
    "dense.spectral_norm.s": "s",
    "dense.eigh.calls": "count",
    "dense.eigh.s": "s",
    "dense.stage_exp.calls": "count",
    "dense.stage_exp.s": "s",
    "hamiltonians.self_s": "s",
    "hamiltonians.make_spec.calls": "count",
    "hamiltonians.make_spec.terms": "count",
    "hamiltonians.make_spec.s": "s",
    "commutators.self_s": "s",
    "commutators.nested_commutator_sum.calls": "count",
    "commutators.nested_commutator_sum.s": "s",
    "commutators.tuples": "count",
    "bch.self_s": "s",
    "bch.compute_phi.calls": "count",
    "bch.compute_phi.s": "s",
    "bch.compositions": "count",
    "bch.check_truncated_generator.s": "s",
    "trotter.self_s": "s",
    "trotter.evaluator_init.calls": "count",
    "trotter.evaluator_init.s": "s",
    "trotter.formula_unitary.calls": "count",
    "trotter.formula_unitary.s": "s",
    "mpf.self_s": "s",
    "mpf.evaluator_init.calls": "count",
    "mpf.step.calls": "count",
    "mpf.step.s": "s",
    "mpf.solve_coefficients.calls": "count",
    "mpf.solve_coefficients.s": "s",
    "bounds.self_s": "s",
    "bounds.report_from_parts.calls": "count",
    "bounds.report_from_parts.s": "s",
    "bounds.divergence_diagnostics.s": "s",
    "bounds.gate_cost_table.s": "s",
    "cli.self_s": "s",
    "cli.write.calls": "count",
    "cli.write.s": "s",
    "trace.overhead_s": "s",
}
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Operation:
    """One subcommand invocation and the check of its result folder."""

    label: str
    args: tuple[str, ...]
    check: Callable[[Path], list[str]]


@dataclass(frozen=True)
class Workload:
    """Seeded flag values, the round of operations, and what they are checked against."""

    flags: Callable[[random.Random], dict]
    operations: Callable[[dict], list[Operation]]


def _uniform(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


# -- workloads ------------------------------------------------------------------


def _certify_flags(rng):
    return {"coupling": _uniform(rng, 0.8, 1.2), "field": _uniform(rng, 0.6, 1.0)}


def _certify_ops(flags):
    n_sites, eps = 6, 0.25
    ref = checks.certify_reference(
        n_sites, float(flags["coupling"]), float(flags["field"]), eps,
        q_max=5, j_count=2,
    )
    shared = ("--n-sites", str(n_sites), "--eps", str(eps),
              "--coupling", flags["coupling"], "--field", flags["field"])
    return [
        Operation("verify-bounds", ("verify-bounds",) + shared,
                  lambda out: checks.check_verify_bounds(out, ref)),
        Operation("cost", ("cost",) + shared,
                  lambda out: checks.check_cost(out, ref, lambda n: ref["g"])),
    ]


def _series_flags(rng):
    return {"coupling": _uniform(rng, 0.8, 1.2)}


def _series_ops(flags):
    ref = checks.series_reference(4, float(flags["coupling"]), 0.0)
    args = ("phi", "--n-sites", "4", "--p", "4", "--qmax", "5",
            "--coupling", flags["coupling"], "--field", "0")
    return [Operation("phi", args, lambda out: checks.check_series(out, ref))]


def _evolve_flags(rng):
    return {"coupling": _uniform(rng, 0.9, 1.1), "field": _uniform(rng, 0.7, 0.9)}


def _evolve_ops(flags):
    n_sites, j_count, points = 8, 3, 6
    taus = np.geomspace(0.01, 0.3, points)  # verify-order's default tau range
    ref = checks.evolve_reference(
        n_sites, float(flags["coupling"]), float(flags["field"]), j_count, taus
    )
    args = ("verify-order", "--n-sites", str(n_sites), "--J", str(j_count),
            "--tau-points", str(points),
            "--coupling", flags["coupling"], "--field", flags["field"])
    return [Operation("verify-order", args, lambda out: checks.check_evolve(out, ref))]


SWEEP_EXPONENTS = ("0.5", "1.0", "3.0")  # constant, logarithmic and power regimes of g


def _sweep_flags(rng):
    return {"coupling": _uniform(rng, 0.5, 2.0)}


def _sweep_ops(flags):
    ref = checks.sweep_reference(j_count=2)
    base = float(flags["coupling"])

    def op(exponent: str) -> Operation:
        args = ("cost", "--family", "long-range-zz", "--n-sites", "6",
                "--exponent", exponent, "--coupling", flags["coupling"])
        return Operation(
            f"cost-a{exponent}", args,
            lambda out: checks.check_sweep(out, ref, float(exponent), base),
        )

    return [op(a) for a in SWEEP_EXPONENTS]


WORKLOADS = {
    "certify": Workload(_certify_flags, _certify_ops),
    "series": Workload(_series_flags, _series_ops),
    "evolve": Workload(_evolve_flags, _evolve_ops),
    "sweep": Workload(_sweep_flags, _sweep_ops),
}


# -- processes ------------------------------------------------------------------

# A shared machine's speed drifts, by up to 60% over seconds to minutes on
# a 2-core VM, with interpreter and BLAS work slowing together.  Every
# process is therefore bracketed by a fixed calibration loop run in this
# process, and its times are rescaled to the speed at which that loop takes
# CAL_REF_S seconds.
CAL_REF_S = 0.15
_CAL_MATRIX = np.random.default_rng(0).standard_normal((160, 160))
_CAL_MATRIX = _CAL_MATRIX + _CAL_MATRIX.T


def calibrate() -> float:
    """Duration of a fixed mix of interpreter and BLAS work."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(450_000):
        acc += i * i
        table[i & 1023] = acc
    for _ in range(27):
        np.linalg.eigh(_CAL_MATRIX)
    return time.perf_counter() - start


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_CAP)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Meter:
    """Runs processes to their exit and reports times in reference seconds."""

    def __init__(self) -> None:
        self.last_cal = calibrate()

    def launch(self, argv: list[str], cwd: Path, stderr_path: Path) -> dict:
        """Wall, CPU and peak RSS of one process, from perf_counter and wait4."""
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=child_env(), cwd=cwd,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cal = calibrate()
        scale = CAL_REF_S / (0.5 * (self.last_cal + cal))
        self.last_cal = cal
        return {
            "scale": scale,
            "raw_wall": wall,
            "wall": wall * scale,
            "cpu": (usage.ru_utime + usage.ru_stime) * scale,
            "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            "code": proc.returncode,
        }


def measure_setup(meter: Meter, args: tuple[str, ...], work: Path) -> float:
    """Median time of a process that starts, imports the CLI and resolves the config."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, *args, "--out", "setup"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        result = meter.launch(argv, work, work / "setup.stderr")
        if result["code"] != 0:
            raise RuntimeError("set-up probe failed: "
                               + (work / "setup.stderr").read_text(errors="replace")[-2000:])
        if i:  # the first launch warms the file cache and bytecode
            times.append(result["wall"])
    return statistics.median(times)


def remove_work(work: Path) -> None:
    """Delete a run's folder, and the shared parent once no run uses it."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass


def check_output(op: Operation, out: Path) -> list[str]:
    """The operation's check, with unreadable or malformed output as a problem."""
    try:
        return op.check(out)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def run_round(meter: Meter, ops: list[Operation], folder: Path, traced: bool) -> dict:
    """Run each operation once and check its outputs after its clock stopped.

    Processes run inside ``folder`` with ``--out <label>``, so the config
    echoed into the result files is the same in every round.
    """
    folder.mkdir(parents=True)
    procs, failures = [], {}
    for op in ops:
        if traced:
            head = [sys.executable, str(BENCH_DIR / "tracer.py"), f"{op.label}.trace.json"]
        else:
            head = [sys.executable, "-c", CLI_SNIPPET]
        stderr_path = folder / f"{op.label}.stderr"
        result = meter.launch(head + list(op.args) + ["--out", op.label], folder,
                              stderr_path)
        procs.append(result)
        if result["code"] != 0:
            failures[op.label] = [f"exit {result['code']}: "
                                  + stderr_path.read_text(errors="replace")[-2000:]]
            continue
        problems = check_output(op, folder / op.label)
        if problems:
            failures[op.label] = problems
    return {
        "wall": sum(p["wall"] for p in procs),
        "raw_wall": sum(p["raw_wall"] for p in procs),
        "cpu": sum(p["cpu"] for p in procs),
        "rss_mb": max(p["rss_mb"] for p in procs),
        "scales": [p["scale"] for p in procs],
        "failures": failures,
        "folder": folder,
        "traced": traced,
    }


# -- traces ---------------------------------------------------------------------


def layer_metrics(ops: list[Operation], r: dict) -> tuple[dict, dict]:
    """Counters and times of one traced round, summed over its processes.

    Span times are rescaled by their process's calibration factor, like
    the end-to-end times.
    """
    counts: dict[str, int] = {}
    times = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for op, scale in zip(ops, r["scales"]):
        doc = json.loads((r["folder"] / f"{op.label}.trace.json").read_text())
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, parent, start, end), inner in zip(spans, covered):
            times[name + ".s"] = times.get(name + ".s", 0.0) + (end - start) * scale
            layer = name.split(".")[0]
            times[f"{layer}.self_s"] += (end - start - inner) * scale
    return counts, times


def differing_files(a: Path, b: Path) -> list[str]:
    """Names of files that differ or exist on one side only, recursively."""
    cmp = filecmp.dircmp(a, b)
    diff = cmp.left_only + cmp.right_only + cmp.funny_files
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    diff += mismatch + errors
    for sub in cmp.common_dirs:
        diff += [f"{sub}/{name}" for name in differing_files(a / sub, b / sub)]
    return diff


def trace_report(ops: list[Operation], rounds: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and where it failed to repeat exactly."""
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    per_round = [layer_metrics(ops, r) for r in traced]
    problems = []
    first_counts = per_round[0][0]
    for counts, _ in per_round[1:]:
        if counts != first_counts:
            moved = sorted(k for k in set(counts) | set(first_counts)
                           if counts.get(k) != first_counts.get(k))
            problems.append(f"counters differ between traced rounds: {moved}")
    for r in rounds[1:]:
        for op in ops:
            diff = differing_files(rounds[0]["folder"] / op.label, r["folder"] / op.label)
            if diff:
                problems.append(f"{op.label}: result files of {r['folder'].name} "
                                f"differ from {rounds[0]['folder'].name}: {diff}")
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = (statistics.median(r["wall"] for r in traced)
                     - statistics.median(r["wall"] for r in plain))
        elif unit == "s":
            value = statistics.median(times.get(name, 0.0) for _, times in per_round)
        else:
            value = first_counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problems


# -- one run --------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[workload]
    flags = spec.flags(random.Random(f"{workload}:{seed}"))
    ops = spec.operations(flags)
    print(f"workload {workload}, seed {seed}: flags {flags}", flush=True)
    work = WORK_DIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        meter = Meter()
        setup_s = None if trace else measure_setup(meter, ops[0].args, work)
        # whole rounds until the next would end past --seconds; a traced run
        # alternates plain and traced rounds and needs two of each
        min_rounds = 4 if trace else MIN_ROUNDS
        rounds: list[dict] = []
        start = time.perf_counter()
        while True:
            traced = trace and len(rounds) % 2 == 1
            rounds.append(run_round(meter, ops, work / f"round-{len(rounds)}", traced))
            elapsed = time.perf_counter() - start
            if len(rounds) >= min_rounds and elapsed * (1 + 1 / len(rounds)) > seconds:
                break
        problems: list[str] = []
        if trace:
            metrics, problems = trace_report(ops, rounds)
        else:
            values = {
                "wall_s": statistics.median(r["wall"] for r in rounds),
                "cpu_s": statistics.median(r["cpu"] for r in rounds),
                "setup_s": setup_s,
                "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    finally:
        remove_work(work)
    attempted = len(ops) * len(rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    for r in rounds:
        for label, reasons in r["failures"].items():
            for reason in reasons:
                print(f"FAILED {r['folder'].name}/{label}: {reason}", file=sys.stderr)
    for problem in problems:
        print(f"NOT REPEATED {problem}", file=sys.stderr)
    raw = statistics.median(r["raw_wall"] for r in rounds)
    print(f"rounds {len(rounds)}, operations attempted {attempted}, failed {failed}; "
          f"unscaled median round wall {raw:.4f} s")
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:>14.6g} {metric['unit']}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mpfkit" / "cli.py").is_file():
        print(f"error: no mpfkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
