"""Outside-in layer trace of one mpfkit CLI process.

Run as ``python3 perfbench/tracer.py TRACE_FILE <mpfkit cli arguments>``.
It wraps the public functions listed in ``TRACED`` at every name through
which mpfkit code reaches them (module globals imported by name, methods
on their class), runs ``mpfkit.cli.main`` on the remaining arguments,
keeps every span in memory and writes spans and counters to TRACE_FILE
when main returns.  The CLI result files are untouched: the trace goes
only to TRACE_FILE, which the caller keeps outside the ``--out`` folder.

Nothing under ``src/`` is modified; the wrappers live in this process only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

MODULES = (
    "pauli", "dense", "hamiltonians", "commutators", "bch", "trotter",
    "mpf", "bounds", "cli",
)


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_commutator(counts, fn, result, args, kwargs):
    if result:
        counts["pauli.commutator.nonzero"] += 1


def _count_dense_build(counts, fn, result, args, kwargs):
    s = args[0]
    counts["dense.from_pauli_sum.terms"] += len(s)
    # computed, not measured: one complex128 matrix of side 2^n per call
    counts["dense.bytes_built"] += 16 * 4**s.n_sites


def _count_make_spec(counts, fn, result, args, kwargs):
    counts["hamiltonians.make_spec.terms"] += len(_bound_args(fn, args, kwargs)["terms"])


def _count_tuples(counts, fn, result, args, kwargs):
    a = _bound_args(fn, args, kwargs)
    counts["commutators.tuples"] += a["spec"].n_groups ** a["q"]


def _count_compositions(counts, fn, result, args, kwargs):
    a = _bound_args(fn, args, kwargs)
    v = len(a["plan"].merged_stages())
    counts["bch.compositions"] += math.comb(a["q"] + v - 1, v - 1)


# (span name, module, owner, attribute, extra counter).  ``owner`` is None
# for a module-level function, else the class name whose method is wrapped.
TRACED = (
    ("pauli.commutator", "pauli", "PauliSum", "commutator", _count_commutator),
    ("dense.from_pauli_sum", "dense", None, "from_pauli_sum", _count_dense_build),
    ("dense.spectral_norm", "dense", None, "spectral_norm", None),
    ("dense.eigh", "dense", "HermitianFactorization", "of", None),
    ("dense.stage_exp", "dense", "HermitianFactorization", "expm_minus_i", None),
    ("hamiltonians.make_spec", "hamiltonians", None, "make_spec", _count_make_spec),
    ("hamiltonians.heisenberg_chain", "hamiltonians", None, "heisenberg_chain", None),
    ("hamiltonians.long_range_zz_chain", "hamiltonians", None, "long_range_zz_chain", None),
    ("commutators.nested_commutator_sum", "commutators", None,
     "nested_commutator_sum", _count_tuples),
    ("bch.compute_phi", "bch", None, "compute_phi", _count_compositions),
    ("bch.phi_report", "bch", None, "phi_report", None),
    ("bch.check_truncated_generator", "bch", None, "check_truncated_generator", None),
    ("trotter.evaluator_init", "trotter", "TrotterEvaluator", "__init__", None),
    ("trotter.formula_unitary", "trotter", "TrotterEvaluator", "formula_unitary", None),
    ("mpf.evaluator_init", "mpf", "MPFEvaluator", "__init__", None),
    ("mpf.step", "mpf", "MPFEvaluator", "step", None),
    ("mpf.solve_coefficients", "mpf", None, "solve_coefficients", None),
    ("bounds.report_from_parts", "bounds", None, "report_from_parts", None),
    ("bounds.divergence_diagnostics", "bounds", None, "divergence_diagnostics", None),
    ("bounds.gate_cost_table", "bounds", None, "gate_cost_table", None),
    ("cli.write", "cli", None, "write_json", None),
    ("cli.write", "cli", None, "write_csv", None),
    ("cli.main", "cli", None, "main", None),
)


class Recorder:
    """Spans ``[name, parent index, start, end]`` and counters, in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, count=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            counts[name + ".calls"] += 1
            if count is not None:
                count(counts, fn, result, args, kwargs)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"counts": dict(self.counts), "spans": self.spans}, handle)


def install(recorder: Recorder) -> dict:
    """Wrap every entry of ``TRACED`` at each place mpfkit code looks it up."""
    mods = {name: importlib.import_module(f"mpfkit.{name}") for name in MODULES}
    every = [m for key, m in sys.modules.items() if key.split(".")[0] == "mpfkit"]
    for name, module, owner, attr, count in TRACED:
        if owner is not None:
            cls = getattr(mods[module], owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(recorder.wrap(name, raw.__func__, count)))
            else:
                setattr(cls, attr, recorder.wrap(name, raw, count))
            continue
        original = getattr(mods[module], attr)
        wrapped = recorder.wrap(name, original, count)
        for m in every:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    return mods


def main(argv: list[str]) -> int:
    trace_file, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    mods = install(recorder)
    try:
        return mods["cli"].main(cli_args)
    finally:
        recorder.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
