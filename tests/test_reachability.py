"""Every function of ``src/mpfkit`` is entered by some subcommand run.

Fixed command lines run through :func:`mpfkit.cli.main` in this process under
:func:`sys.setprofile`.  A def is keyed by its file and ``co_firstlineno`` (its
first decorator's line), which needs no ``co_qualname`` (Python 3.11+).  An
unentered def outside ``ALLOWED`` fails, and so does a stale ``ALLOWED`` entry.
"""

import ast
import importlib.util
import json
import sys
from pathlib import Path

from mpfkit.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "mpfkit"
_TRACED = "perfbench/tracer.py wraps it by name"
ALLOWED = {
    "bch.compute_phi": _TRACED,
    "bounds.report_from_parts": _TRACED,
    "commutators.nested_commutator_sum": _TRACED,
    "dense.from_pauli_sum": _TRACED,
    "trotter.TrotterEvaluator.formula_unitary": _TRACED,
    "trotter.TrotterEvaluator.scatter": "the traced formula_unitary calls it",
    "mpf.MPFEvaluator.step": _TRACED,
    "trotter.TrotterEvaluator.error": "the tests' error sweeps read it",
    "pauli.PauliSum.from_label": "the tests build Pauli sums from labels",
    "pauli.PauliSum.__repr__": "pytest prints Pauli sums in failure messages",
}
# (command line, exit status): the six defaults, the routes that reach the
# rest, and refused inputs, whose checks count as reached; {dir} is a folder
# holding ham.json, inf.json (a coefficient "inf") and config.json
DEFAULTS = ("verify-order", "verify-bounds", "cost", "table1", "phi", "alpha")
RUNS = [((command,), 0) for command in DEFAULTS] + [
    (("alpha", "--norm-mode", "one-norm"), 0),
    (("verify-order", "--p", "1"), 0),
    (("verify-order", "--p", "4"), 0),
    (("verify-order", "--k-list", "1,2,3"), 0),
    (("verify-bounds", "--eps", "0.5"), 0),  # p0 within qmax: the dense checks
    (("verify-bounds", "--n-sites", "17"), 0),  # past the site cap: no terms
    (("alpha", "--n-sites", "17"), 0),  # past the site cap: L without terms
    (("verify-bounds", "--config", "{dir}/config.json"), 0),
    (("cost", "--family", "long-range-zz", "--n-sites", "6"), 0),
    (("alpha", "--family", "long-range-zz", "--n-sites", "6"), 0),  # builds the chain
    (("alpha", "--family", "file", "--ham-file", "{dir}/ham.json"), 0),
    (("alpha", "--family", "file", "--ham-file", "{dir}/inf.json"), 2),
    (("cost", "--eps", "0"), 2),
    (("table1", "--coupling", "0", "--field", "0"), 2),
]


def defined(path: Path) -> dict[int, str]:
    """First line of each def in a module -> its dotted name there."""
    names = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                names[first] = prefix + child.name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{prefix}{child.name}."
            visit(child, inner)

    visit(ast.parse(path.read_text()), f"{path.stem}.")
    return names


def unreached(paths: list[Path], runs) -> list[str]:
    """The defs of ``paths`` that no Python call made by ``runs()`` enters."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        runs()
    finally:
        sys.setprofile(None)
    entered = {(str(Path(name).resolve()), line) for name, line in seen}
    return sorted(
        name for path in paths for line, name in defined(path).items()
        if (str(path.resolve()), line) not in entered
    )


def clear_caches() -> None:
    """Empty every functools cache of the package, so that a call an earlier
    test cached cannot hide the function behind it."""
    modules = [m for name, m in sys.modules.items() if name.startswith("mpfkit.")]
    classes = [c for m in modules for c in vars(m).values() if isinstance(c, type)]
    for value in (v for owner in [*modules, *classes] for v in vars(owner).values()):
        getattr(getattr(value, "__func__", value), "cache_clear", lambda: None)()


def test_every_def_is_entered_or_allowed(tmp_path):
    terms = [("XXI", 1.0, 1), ("IYY", 0.5, 2), ("ZII", 0.3, 3)]
    for name, n_sites, rows in (("ham", 3, terms), ("inf", 2, [("XX", "inf", 1)])):
        rows = [dict(zip(("pauli", "coeff", "group"), row)) for row in rows]
        doc = {"n_sites": n_sites, "terms": rows}
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    (tmp_path / "config.json").write_text(json.dumps({"n_sites": 5, "field": 0.5}))
    codes = []

    def runs():
        for i, (argv, _) in enumerate(RUNS):
            argv = [a.format(dir=tmp_path) for a in argv]
            codes.append(main([*argv, "--out", str(tmp_path / f"out{i}")]))

    clear_caches()
    missed = unreached(sorted(SRC.glob("*.py")), runs)
    assert codes == [code for _, code in RUNS]
    assert sorted(set(missed) - ALLOWED.keys()) == []
    # a stale entry is entered by a run or names no def
    assert sorted(ALLOWED.keys() - set(missed)) == []


def test_an_unreached_def_is_reported(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text(
        "import functools\n\n\ndef used():\n    return Box().kept()\n\n\nclass Box:\n"
        "    @functools.lru_cache\n    def kept(self):\n        return 1\n\n"
        "    @staticmethod\n    def never():\n        return 0\n"
    )
    spec = importlib.util.spec_from_file_location("planted", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert unreached([path], module.used) == ["planted.Box.never"]
