"""End-to-end checks of the command-line surface.

Each test drives ``main`` with an explicit argv and inspects the files it
writes, the same way a shell user would.
"""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from mpfkit import bch, bounds, cli, commutators, dense, hamiltonians, trotter
from mpfkit.bounds import mpf_time_condition, truncation_order
from mpfkit.cli import ExperimentConfig, main
from mpfkit.commutators import nested_commutator_sum
from mpfkit.formulas import build_mpf, build_plan
from mpfkit.hamiltonians import heisenberg_chain
from mpfkit.mpf import MPFEvaluator
from mpfkit.pauli import PauliSum, PauliTerm
from mpfkit.trotter import TrotterEvaluator

import oracles

SRC = Path(cli.__file__).resolve().parents[1]


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def load(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


@pytest.fixture
def no_chain(monkeypatch):
    """``make_spec`` and both chain builders raise, so a run that builds
    terms fails; a chain of a million sites would hold million-bit masks."""

    def refused(*args, **kwargs):
        raise AssertionError("a chain was built")

    monkeypatch.setattr(hamiltonians, "make_spec", refused)
    for name in ("heisenberg_chain", "long_range_zz_chain"):
        monkeypatch.setattr(cli, name, refused)


@pytest.fixture
def no_walk(monkeypatch):
    """The nest walk's inner work and the dense evaluator raise: a commutator,
    the plan's pair weights, the exact nest norm, a ``TrotterEvaluator``.
    Returns the list of calls that reached one of them."""
    calls = []

    def refused(*args, **kwargs):
        calls.append(args)
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(PauliSum, "commutator", refused)
    monkeypatch.setattr(bch, "_pair_weights", refused)
    monkeypatch.setattr(dense.SectorFrame, "norm", refused)
    monkeypatch.setattr(TrotterEvaluator, "__init__", refused)
    return calls


# texts for each config field's flag and config-file entry; the first is
# accepted and differs from the default, the rest probe the typing rule
FLAG_TEXTS = {
    "family": ["long-range-zz", "ising", "3"],
    "n_sites": ["5", "5.0", "five", "true"],
    "coupling": ["0.5", "-2", "1e-3", "strong"],
    "field": ["0.25", "nan", ""],
    "exponent": ["3", "1e400", "x"],
    "ham_file": ["chain.json", ""],
    "p": ["4", "4.5", "two"],
    "j_count": ["3", "3.0", "0"],
    "k_list": ["1,3", "1, 2, 4", "1.5,3", "a,b", ",", "true"],
    "tau_min": ["0.02", "0.5", "small"],
    "tau_max": ["0.5", "inf", "0.001"],
    "tau_points": ["6", "6.5", "3"],
    "t": ["2", "1e-2", "long"],
    "eps": ["0.25", "0", "1e-3"],
    "norm_mode": ["one-norm", "spectral", "exact"],
    "dense_cap": ["8", "big"],
    "q_max": ["4", "1", "4.0"],
    "out": ["elsewhere", "."],
    "range_class": ["long", "short"],
    "nu": ["2", "none"],
    "d": ["2", "2.5", "-1"],
}
# flags that the texts above need to pass the cross-field checks
FLAG_CONTEXT = {"ham_file": ["--family", "file"], "range_class": ["--nu", "2"]}


class TestConfigResolution:
    def test_defaults_echoed(self, tmp_path):
        assert run(tmp_path, "verify-order") == 0
        cfg = load(tmp_path, "verify_order.json")["config"]
        assert cfg["family"] == "heisenberg"
        assert cfg["n_sites"] == 4
        assert cfg["p"] == 2
        assert cfg["norm_mode"] == "exact"

    def test_config_file_then_flags(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"n_sites": 5, "eps": 0.25}))
        code = run(
            tmp_path,
            "verify-bounds",
            "--config",
            str(cfg_file),
            "--n-sites",
            "4",
        )
        assert code == 0
        cfg = load(tmp_path, "verify_bounds.json")["config"]
        assert cfg["n_sites"] == 4
        assert cfg["eps"] == 0.25

    def test_unknown_config_key(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"bogus_key": 3}))
        assert run(tmp_path, "cost", "--config", str(cfg_file)) == 2

    def test_seed_is_not_a_config_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"seed": 0}))
        assert run(tmp_path, "cost", "--config", str(cfg_file)) == 2
        assert "unknown config keys: seed" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text("not json at all")
        assert run(tmp_path, "cost", "--config", str(cfg_file)) == 2

    def test_config_string_is_coerced_to_field_type(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"n_sites": "4", "eps": "0.25"}))
        code = run(tmp_path, "alpha", "--config", str(cfg_file), "--qmax", "3")
        assert code == 0
        cfg = load(tmp_path, "alpha_table.json")["config"]
        assert cfg["n_sites"] == 4 and isinstance(cfg["n_sites"], int)
        assert cfg["eps"] == 0.25

    @pytest.mark.parametrize(
        "entry, expected",
        [
            ({"eps": "small"}, "float"),
            ({"n_sites": 4.5}, "int"),
            ({"n_sites": True}, "int"),
            ({"family": 3}, "str"),
            ({"k_list": [1.5, 2.7]}, "int"),
            ({"k_list": [True, 2]}, "int"),
            ({"k_list": {"1": 0, "3": 0}}, "list"),
        ],
    )
    def test_config_value_of_wrong_type(self, tmp_path, capsys, entry, expected):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(entry))
        assert run(tmp_path, "cost", "--config", str(cfg_file)) == 2
        err = capsys.readouterr().err
        assert repr(next(iter(entry))) in err and expected in err

    def test_internal_error_exits_3(self, tmp_path, monkeypatch, capsys):
        def broken(cfg):
            raise ValueError("internal slip")

        monkeypatch.setitem(cli._COMMANDS, "alpha", (broken, "broken"))
        assert run(tmp_path, "alpha") == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "internal slip" in err

    def test_sector_leak_exits_3(self, tmp_path, monkeypatch, capsys):
        # a negative allowance refuses the first nest, which is a fault of
        # the program and not of the configuration
        monkeypatch.setattr(dense, "LEAK_TOL", -1.0)
        assert run(tmp_path, "alpha", "--qmax", "3") == 3
        assert "SectorLeakError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-order", "--p", "3"),
            ("verify-order", "--k-list", "2,1"),
            ("verify-bounds", "--eps", "100"),
            ("cost", "--t", "1e-9"),
            ("table1", "--t", "1e-9"),
        ],
    )
    def test_values_the_library_rejects_exit_2(self, tmp_path, argv):
        assert run(tmp_path, *argv) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command, field",
        [
            ("verify-order", "coupling"),
            ("table1", "eps"),
            ("cost", "t"),
            ("alpha", "field"),
            ("cost", "exponent"),
            ("table1", "nu"),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_float_setting_exits_2(
        self, tmp_path, capsys, command, field, value, source
    ):
        # nan passes every bound check and inf every lower one
        if source == "flag":
            argv = (command, f"--{field}={value}")
        else:
            cfg_file = tmp_path / "run.json"
            cfg_file.write_text(json.dumps({field: value}))
            argv = (command, "--config", str(cfg_file))
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("coeff", ["NaN", "Infinity"])
    @pytest.mark.parametrize(
        "command", ["verify-order", "verify-bounds", "cost", "table1", "phi", "alpha"]
    )
    def test_non_finite_hamiltonian_coefficient_exits_2(
        self, tmp_path, capsys, command, coeff
    ):
        ham = tmp_path / "chain.json"
        doc = oracles.spec_to_document(heisenberg_chain(4, field=0.5))
        doc["terms"][1]["coeff"] = "COEFF"
        ham.write_text(json.dumps(doc).replace('"COEFF"', coeff))
        out = tmp_path / "out"
        argv = [command, "--family", "file", "--ham-file", str(ham), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "non-finite coefficient" in err and f"on {doc['terms'][1]['pauli']}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("cost", "--family", "long-range-zz", "--n-sites", "4", "--exponent", "2000"),
            ("cost", "--coupling", "1e308"),
            ("cost", "--t", "1e300"),
            # 11.0 ** 300 overflows in the N-sweep at N = 64
            ("cost", "--family", "long-range-zz", "--n-sites", "6", "--exponent", "300"),
            # these overflow inside the alpha or Phi_q tables
            ("verify-bounds", "--coupling", "1e300", "--n-sites", "4"),
            ("verify-bounds", "--coupling", "1e300", "--n-sites", "4", "--norm-mode", "one-norm"),
            ("alpha", "--coupling", "1e300"),
            ("phi", "--coupling", "1e200"),
            # these overflow in the dense blocks, then in the stage phases;
            # the nest norms read the same blocks
            ("verify-order", "--n-sites", "4", "--field", "1e308"),
            ("verify-order", "--n-sites", "4", "--tau-max", "1e308"),
            ("alpha", "--n-sites", "4", "--field", "1e308"),
            ("phi", "--field", "1e308"),
            # the factorial closed forms overflow to inf from q = 103 on
            ("cost", "--qmax", "103"),
            ("alpha", "--n-sites", "2", "--field", "0", "--qmax", "150"),
            ("phi", "--n-sites", "2", "--field", "0", "--qmax", "150"),
            ("verify-bounds", "--n-sites", "2", "--field", "0", "--qmax", "150"),
            # 2 L overflows, so no nest has a finite leak allowance
            ("alpha", "--coupling", "1e307", "--n-sites", "4"),
            # every weight is finite, the total one-norm is not
            ("alpha", "--coupling", "1e307", "--n-sites", "40"),
            # N g t overflows, so every gate row would be inf or nan
            ("table1", "--coupling", "1e307"),
        ],
        ids=[
            "exponent", "coupling", "time", "sweep-exponent",
            "verify-bounds", "verify-bounds-one-norm", "alpha", "phi",
            "verify-order-field", "verify-order-tau", "alpha-field", "phi-field",
            "cost-factorial", "alpha-factorial", "phi-extensiveness",
            "verify-bounds-factorial", "alpha-leak-allowance", "alpha-one-norm",
            "table1-gate-cost",
        ],
    )
    def test_finite_setting_that_overflows_exits_2(self, tmp_path, capsys, argv):
        # refused before numpy warns: a RuntimeWarning raised as an error
        # would crash the run with a traceback instead
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "overflow" in err and "Traceback" not in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    def test_bad_flag_values(self, tmp_path):
        assert run(tmp_path, "verify-order", "--eps", "-1.0") == 2
        assert run(tmp_path, "verify-order", "--tau-points", "2") == 2
        assert run(tmp_path, "alpha", "--k-list", "a,b") == 2

    def test_k_list_round_trip(self, tmp_path):
        assert run(tmp_path, "verify-order", "--k-list", "1,3") == 0
        doc = load(tmp_path, "verify_order.json")
        assert doc["config"]["k_list"] == [1, 3]
        assert doc["mpf"][0]["k_values"] == [1, 3]

    @pytest.mark.parametrize("command", ["alpha", "cost", "verify-order"])
    def test_one_site_hamiltonian_file_exits_2(self, tmp_path, capsys, command):
        # the file pins n_sites after the flags were checked, so the file's
        # count meets the same two-site floor as --n-sites
        ham = tmp_path / "site.json"
        doc = {"n_sites": 1, "terms": [{"pauli": "X", "coeff": 1.0, "group": 1}]}
        ham.write_text(json.dumps(doc))
        out = tmp_path / "out"
        flags = ["--family", "file", "--ham-file", str(ham), "--out", str(out)]
        assert main([command, *flags]) == 2
        assert "need at least two sites" in capsys.readouterr().err
        assert not out.exists()

    def test_hamiltonian_file_family(self, tmp_path):
        spec = heisenberg_chain(3, field=0.5)
        ham = tmp_path / "chain.json"
        ham.write_text(json.dumps(oracles.spec_to_document(spec)))
        code = run(
            tmp_path, "alpha", "--family", "file", "--ham-file", str(ham)
        )
        assert code == 0
        cfg = load(tmp_path, "alpha_table.json")["config"]
        assert cfg["n_sites"] == 3

    @pytest.mark.parametrize(
        "key, value", [("n_sites", 3.9), ("group", 1.7)], ids=["n_sites", "group"]
    )
    def test_hamiltonian_file_with_non_integral_count_exits_2(
        self, tmp_path, capsys, key, value
    ):
        doc = oracles.spec_to_document(heisenberg_chain(3, field=0.5))
        if key == "n_sites":
            doc["n_sites"] = value
        else:
            doc["terms"][0]["group"] = value
        ham = tmp_path / "chain.json"
        ham.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["alpha", "--family", "file", "--ham-file", str(ham), "--out", str(out)]
        assert main(argv) == 2
        assert f"{key} must be an integer, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [True, "x"], ids=["bool", "text"])
    def test_hamiltonian_file_with_non_numeric_coefficient_exits_2(
        self, tmp_path, capsys, value
    ):
        doc = oracles.spec_to_document(heisenberg_chain(3, field=0.5))
        doc["terms"][0]["coeff"] = value
        ham = tmp_path / "chain.json"
        ham.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["alpha", "--family", "file", "--ham-file", str(ham), "--out", str(out)]
        assert main(argv) == 2
        assert f"coeff must be a number, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", list(ExperimentConfig.__annotations__), ids=str)
    def test_flag_and_config_file_share_one_typing_rule(self, tmp_path, name):
        """A text as a flag and as a config-file value resolves alike, and
        every subcommand takes the flag."""
        flag = {"j_count": "--J", "q_max": "--qmax"}.get(
            name, "--" + name.replace("_", "-")
        )
        context = FLAG_CONTEXT.get(name, [])
        cfg_file = tmp_path / "run.json"
        for text in FLAG_TEXTS[name]:
            cfg_file.write_text(json.dumps({name: text}))
            from_flag = [f"{flag}={text}", *context]
            from_file = ["--config", str(cfg_file), *context]
            resolved = []
            for argv in (from_flag, from_file):
                out = tmp_path / "out"
                try:
                    args = cli.build_parser().parse_args(["cost", *argv])
                    resolved.append(cli.resolve_config(args).echo()[name])
                except cli.ConfigError:
                    assert main(["cost", *argv, "--out", str(out)]) == 2
                    assert not out.exists()
                    resolved.append("refused")
            assert resolved[0] == resolved[1], text
        # the first text of each field is accepted and differs from the default
        first = FLAG_TEXTS[name][0]
        args = cli.build_parser().parse_args(["cost", f"{flag}={first}", *context])
        assert cli.resolve_config(args).echo()[name] != ExperimentConfig().echo()[name]
        for command in cli._COMMANDS:
            args = cli.build_parser().parse_args([command, f"{flag}={first}"])
            assert getattr(args, name) == first

    @pytest.mark.parametrize("command", [*cli._COMMANDS, None])
    def test_help_exits_0(self, command, capsys):
        """``mpfkit --help`` and each ``mpfkit <command> --help`` print the
        one parser's page: every command's summary and every flag."""
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"] if command else ["--help"])
        assert stop.value.code == 0
        shown = capsys.readouterr().out
        assert "--qmax Q_MAX" in shown
        for name, (_, summary) in cli._COMMANDS.items():
            assert f"\n  {name:<15}{summary}\n" in shown

    @pytest.mark.parametrize(
        "command", ["cost", "alpha", "phi", "verify-order", "verify-bounds", "table1"]
    )
    def test_non_finite_chain_coefficient_exits_2(self, tmp_path, command, capsys):
        # 1 / 2^-1074 is inf; from 4 sites on, 3^-1074 also underflows to 0,
        # which is named first; every subcommand prints the same one line
        out = tmp_path / "out"
        argv = [command, "--family", "long-range-zz", "--exponent", "-1074"]
        for n_sites, line in (
            ("3", "error: 1.0/2.0**-1074.0 overflows, so the coupling at distance 2"),
            ("4", "error: 3.0**-1074.0 underflows to 0, so the coupling at distance 3"),
        ):
            assert main([*argv, "--n-sites", n_sites, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == line + " is out of float range\n"
            assert not out.exists()

    def test_ham_file_needs_file_family(self, tmp_path, capsys):
        assert run(tmp_path, "cost", "--ham-file", "nofile.json") == 2
        err = capsys.readouterr().err
        assert "--ham-file" in err and "--family file" in err
        assert not (tmp_path / "cost_report.json").exists()

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "afile"
        target.write_text("")
        assert main(["cost", "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert str(target) in err
        assert "Traceback" not in err

    def test_file_family_needs_path(self, tmp_path):
        assert run(tmp_path, "alpha", "--family", "file") == 2


class TestOneParser:
    """Every subcommand reads one parser: the command, ``--config`` and one
    flag per config field, in any order."""

    @pytest.mark.parametrize("argv", [[], ["nope"]], ids=["none", "unknown"])
    def test_missing_or_unknown_command_exits_2(self, tmp_path, argv, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as stop:
            main([*argv, "--n-sites", "5", "--out", str(out)])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: mpfkit ")
        assert "mpfkit: error: " in err and "Traceback" not in err
        assert not out.exists()

    def test_flags_before_the_command_resolve_alike(self, tmp_path, monkeypatch):
        flags = ["--n-sites", "5", "--t", "2", "--J", "3", "--out", "res"]
        orders = [["cost", *flags], [*flags, "cost"], [*flags[:4], "cost", *flags[4:]]]
        resolved = []
        for argv in orders:
            args = cli.build_parser().parse_args(argv)
            assert args.command == "cost"
            resolved.append(cli.resolve_config(args).echo())
        assert resolved[1] == resolved[0] and resolved[2] == resolved[0]
        # and the files agree byte for byte, each run in its own folder
        written = []
        for i, argv in enumerate(orders):
            (tmp_path / str(i)).mkdir()
            monkeypatch.chdir(tmp_path / str(i))
            assert main(argv) == 0
            written.append({f.name: f.read_bytes() for f in Path("res").iterdir()})
        assert written[1] == written[0] and written[2] == written[0]
        assert set(written[0]) == {"cost_report.json", "cost_sweeps.csv"}

    def test_options_are_the_command_config_and_fields(self):
        parser = cli.build_parser()
        actions = parser._actions
        options = {a.option_strings[0] if a.option_strings else a.dest for a in actions}
        fields = ExperimentConfig.__annotations__
        spellings = {"--" + name.replace("_", "-") for name in fields}
        spellings = spellings - {"--j-count", "--q-max"} | {"--J", "--qmax"}
        assert options == {"-h", "--config", "command"} | spellings
        assert {a.dest for a in actions} == {"help", "config", "command", *fields}
        assert len(actions) == len(fields) + 3

    def test_benchmark_setup_probe_argv_resolves(self, tmp_path):
        """The benchmark's set-up probe, on each workload's first operation's
        argv, goes through ``build_parser`` and ``resolve_config``."""
        bench = SRC.parent / "perfbench"
        listing = (
            "import json, random, run\n"
            "argvs = {}\n"
            "for name, spec in sorted(run.WORKLOADS.items()):\n"
            "    ops = spec.operations(spec.flags(random.Random(name + ':0')))\n"
            "    argvs[name] = [*ops[0].args, '--out', 'setup']\n"
            "print(json.dumps({'snippet': run.SETUP_SNIPPET, 'argvs': argvs}))"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", listing],
            cwd=bench, env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        probe = json.loads(done.stdout.splitlines()[-1])
        assert "build_parser" in probe["snippet"] and "resolve_config" in probe["snippet"]
        assert sorted(probe["argvs"]) == ["certify", "evolve", "series", "sweep"]
        for argv in probe["argvs"].values():
            cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
            assert cfg.out == "setup"
            done = subprocess.run(
                [sys.executable, "-c", probe["snippet"], *argv],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
        assert not (tmp_path / "setup").exists()


# verify-order --n-sites 8 --J 3 --tau-points 6 (coupling 1, field 0.8) as
# the full-matrix evaluator wrote it: order_sweep.csv rows, then each slope
FROZEN_ORDER_SWEEP = [
    [0.01, 1.5272830208964142e-05, 1.5272830208964142e-05,
     7.874289977990929e-10, 2.9410503113245794e-14],
    [0.019743504858348197, 0.00011748151661318747, 0.00011748151661318747,
     2.3633223812055558e-08, 2.468559297328349e-12],
    [0.03898059840916188, 0.0009023478764216141, 0.0009023478764216141,
     7.101411559395225e-07, 2.889199729366904e-10],
    [0.0769613634072608, 0.006890658376564018, 0.006890658376564018,
     2.1412824513598423e-05, 3.3890491148126834e-08],
    [0.15194870523363546, 0.051439904580984165, 0.051439904580984165,
     0.0006479810057409798, 3.975917484956521e-06],
    [0.3, 0.35075912387138364, 0.35075912387138364,
     0.019029761164833264, 0.00044340943195398335],
]
FROZEN_ORDER_SLOPES = {
    "trotter": (2.9606163934879643, 6),
    "mpf_j1": (2.9606163934879643, 6),
    "mpf_j2": (5.00099739864348, 6),
    "mpf_j3": (6.982311546267223, 4),
}


class TestVerifyOrder:
    def test_desk_run_passes(self, tmp_path):
        assert run(tmp_path, "verify-order") == 0
        doc = load(tmp_path, "verify_order.json")
        assert doc["passed"] is True
        assert doc["trotter"]["status"] == "pass"
        assert doc["trotter"]["slope"] > 2.8
        assert [entry["order"] for entry in doc["mpf"]] == [2, 4]
        assert all(entry["status"] == "pass" for entry in doc["mpf"])
        lines = (tmp_path / "order_sweep.csv").read_text().splitlines()
        assert lines[0] == "tau,trotter_p2,mpf_j1,mpf_j2"
        assert len(lines) == 1 + doc["config"]["tau_points"]

    def test_commuting_family_is_exact(self, tmp_path):
        code = run(
            tmp_path,
            "verify-order",
            "--family",
            "long-range-zz",
            "--n-sites",
            "5",
        )
        assert code == 0
        doc = load(tmp_path, "verify_order.json")
        assert doc["trotter"]["status"] == "exact"
        assert doc["trotter"]["slope"] is None
        assert doc["passed"] is True

    def test_grid_outside_regime_fails(self, tmp_path):
        code = run(
            tmp_path,
            "verify-order",
            "--tau-min",
            "1.5",
            "--tau-max",
            "4.0",
            "--tau-points",
            "6",
        )
        assert code == 1
        doc = load(tmp_path, "verify_order.json")
        assert doc["passed"] is False
        assert doc["trotter"]["status"] == "fail"

    def test_odd_order_skips_extrapolation(self, tmp_path):
        assert run(tmp_path, "verify-order", "--p", "1") == 0
        doc = load(tmp_path, "verify_order.json")
        assert doc["mpf"] == []
        assert doc["trotter"]["status"] == "pass"

    def test_each_tau_forms_one_power_per_distinct_k(self, tmp_path, monkeypatch):
        # J = 3 over 4 taus: one exact propagator per tau, and one base step
        # per (tau, k) for k = 1, 2, 3 shared by the Trotter error and all
        # three extrapolations; the sweep never forms a full matrix
        calls = dict.fromkeys(
            ("exact_blocks", "formula_blocks", "scatter", "formula_unitary"), 0
        )

        def counting(name):
            original = getattr(TrotterEvaluator, name)

            def counted(self, tau):
                calls[name] += 1
                return original(self, tau)

            return counted

        for name in calls:
            monkeypatch.setattr(TrotterEvaluator, name, counting(name))
        argv = ("verify-order", "--n-sites", "5", "--J", "3", "--tau-points", "4")
        assert run(tmp_path, *argv) == 0
        assert calls == {
            "exact_blocks": 4,
            "formula_blocks": 12,
            "scatter": 0,
            "formula_unitary": 0,
        }

    def test_one_node_extrapolation_reuses_the_trotter_error(
        self, tmp_path, monkeypatch
    ):
        # k = (1,), c = (1.0,) is the Trotter step itself: per tau, one SVD
        # pass for the Trotter error and one per extrapolation with J >= 2
        calls = []
        original = trotter.difference_norm

        def counted(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(trotter, "difference_norm", counted)
        argv = ("verify-order", "--n-sites", "5", "--J", "3", "--tau-points", "4")
        assert run(tmp_path, *argv) == 0
        assert len(calls) == 4 * 3
        lines = (tmp_path / "order_sweep.csv").read_text().splitlines()
        assert lines[0] == "tau,trotter_p2,mpf_j1,mpf_j2,mpf_j3"
        for line in lines[1:]:
            _, trotter_error, mpf_j1, *_ = line.split(",")
            assert mpf_j1 == trotter_error

    def test_evaluator_and_sweep_build_no_full_matrix(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a full matrix")

        monkeypatch.setattr(dense, "from_pauli_sum", refuse)
        spec = heisenberg_chain(5)
        TrotterEvaluator(spec, build_plan(spec.n_groups, 2))
        assert run(tmp_path, "verify-order", "--n-sites", "5") == 0

    def test_eight_site_order_sweep_is_frozen(self, tmp_path):
        argv = ("verify-order", "--n-sites", "8", "--J", "3", "--tau-points", "6")
        assert run(tmp_path, *argv) == 0
        lines = (tmp_path / "order_sweep.csv").read_text().splitlines()
        assert lines[0] == "tau,trotter_p2,mpf_j1,mpf_j2,mpf_j3"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert np.array(rows).shape == np.array(FROZEN_ORDER_SWEEP).shape
        assert np.max(np.abs(np.array(rows) - FROZEN_ORDER_SWEEP)) <= 1e-13
        doc = load(tmp_path, "verify_order.json")
        entries = {"trotter": doc["trotter"]}
        entries.update((f"mpf_j{e['j_count']}", e) for e in doc["mpf"])
        assert set(entries) == set(FROZEN_ORDER_SLOPES)
        for name, (slope, used) in FROZEN_ORDER_SLOPES.items():
            assert entries[name]["status"] == "pass", name
            assert entries[name]["points_used"] == used, name
            assert entries[name]["slope"] == pytest.approx(slope, abs=1e-5), name
        assert doc["passed"] is True


class TestNoFullMatrixPath:
    """No subcommand reaches the full-matrix builder ``dense.from_pauli_sum``
    or the full-matrix views of the blocked evaluator: each is stubbed to
    raise, and the runs exit as before."""

    @pytest.fixture(autouse=True)
    def refuse_full_matrices(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("reached a full-matrix path")

        for owner, name in [
            (dense, "from_pauli_sum"),
            (TrotterEvaluator, "scatter"),
            (TrotterEvaluator, "formula_unitary"),
            (MPFEvaluator, "step"),
            (oracles, "exact_unitary"),
            (oracles, "truncation_defect"),
            (oracles, "truncated_step_unitary"),
            (oracles, "expm_minus_i"),
        ]:
            monkeypatch.setattr(owner, name, refuse)

    def test_verify_order(self, tmp_path):
        argv = ("verify-order", "--n-sites", "6", "--J", "3", "--tau-points", "5")
        assert run(tmp_path, *argv) == 0
        assert load(tmp_path, "verify_order.json")["passed"] is True

    def test_verify_bounds(self, tmp_path):
        argv = ("verify-bounds", "--n-sites", "6", "--eps", "0.25")
        assert run(tmp_path, *argv) == 0
        rows = {r["name"]: r for r in load(tmp_path, "verify_bounds.json")["rows"]}
        assert rows["truncation_defect"]["status"] == "pass"
        assert rows["step_error_bound"]["status"] == "pass"
        assert rows["phi_norm[q=5]"]["note"] == "spectral norm"

    def test_phi(self, tmp_path):
        assert run(tmp_path, "phi", "--n-sites", "6") == 0
        rows = load(tmp_path, "phi_report.json")["rows"]
        assert all(row["norm_is_exact"] for row in rows)

    def test_alpha(self, tmp_path):
        assert run(tmp_path, "alpha", "--n-sites", "6") == 0


class TestHermitianNormInputs:
    """``dense.spectral_norm`` reads one triangle of each stack through
    ``eigvalsh``, so every stack a run hands it must be Hermitian: the nest
    norms pick the rotation from the Pauli coefficients, not from the
    blocks.  It is wrapped through whole runs, and each stack's defect
    ``||a - a^dag||_inf`` must stay within 1e-13 of its largest entry."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("alpha", "--n-sites", "6", "--qmax", "5"),
            ("alpha", "--n-sites", "5", "--field", "0", "--qmax", "5"),
            ("alpha", "--n-sites", "7", "--qmax", "4"),
            ("phi", "--n-sites", "4", "--p", "4", "--qmax", "5", "--field", "0"),
            ("phi", "--n-sites", "6", "--qmax", "5", "--field", "0.77"),
            ("verify-bounds", "--n-sites", "6", "--eps", "0.25"),
            ("verify-bounds", "--n-sites", "5", "--p", "4", "--eps", "0.5"),
        ],
        ids=["alpha", "alpha-no-field", "alpha-odd-chain", "phi-p4", "phi",
             "verify-bounds", "verify-bounds-p4"],
    )
    def test_every_stack_is_hermitian(self, tmp_path, monkeypatch, argv):
        norm, defects = dense.spectral_norm, []

        def checked(h):
            defect = np.max(np.sum(np.abs(h - dense.adjoint(h)), axis=-1))
            defects.append(defect / max(np.max(np.abs(h)), 1e-300))
            return norm(h)

        monkeypatch.setattr(dense, "spectral_norm", checked)
        assert run(tmp_path, *argv) == 0
        assert defects and max(defects) <= 1e-13


class TestVerifyBounds:
    def test_truncation_leak_exits_3(self, tmp_path, monkeypatch, capsys):
        # a negative allowance refuses the first sum read on the frame
        monkeypatch.setattr(dense, "LEAK_TOL", -1.0)
        assert run(tmp_path, "verify-bounds", "--eps", "0.25") == 3
        assert "SectorLeakError" in capsys.readouterr().err

    def test_small_eps_window_all_pass(self, tmp_path):
        assert run(tmp_path, "verify-bounds", "--eps", "0.25") == 0
        doc = load(tmp_path, "verify_bounds.json")
        assert doc["summary"] == {"pass": 28, "fail": 0, "untestable": 0}
        assert doc["passed"] is True
        names = [row["name"] for row in doc["rows"]]
        assert "truncation_defect" in names
        assert "step_error_bound" in names
        assert "mu_ceiling" in names

    def test_untestable_without_window_above_p(self, tmp_path):
        # p0 = ceil(ln(3 N / eps)) = 2 leaves no alpha_q with p < q <= p0
        code = run(tmp_path, "verify-bounds", "--n-sites", "2", "--eps", "1.0")
        assert code == 0
        rows = {r["name"]: r for r in load(tmp_path, "verify_bounds.json")["rows"]}
        assert rows["step_error_bound"]["status"] == "untestable"

    def test_untestable_beyond_qmax_window(self, tmp_path):
        assert run(tmp_path, "verify-bounds") == 0
        doc = load(tmp_path, "verify_bounds.json")
        flagged = [
            row["name"] for row in doc["rows"] if row["status"] == "untestable"
        ]
        assert flagged == ["truncation_defect", "step_error_bound"]
        assert doc["summary"]["fail"] == 0
        assert doc["passed"] is True

    @pytest.mark.parametrize(
        "argv, truncation, step",
        [
            (("--p", "1", "--eps", "0.25"),
             ("pass", "p0 = 4, tau <= 0.0001144"),
             "extrapolation needs an even base order"),
            (("--n-sites", "2", "--eps", "1.0"),
             ("pass", "p0 = 2, tau <= 0.000204717"),
             "p0 = 2 leaves no commutator window above p = 2"),
            ((),
             ("untestable", "p0 = 10 exceeds the qmax window 5"),
             "p0 = 10 exceeds the qmax window 5"),
            (("--n-sites", "13", "--eps", "0.25", "--qmax", "6"),
             ("untestable", "dense matrices beyond the cap"),
             "dense matrices beyond the cap"),
            (("--n-sites", "17", "--dense-cap", "17", "--qmax", "11"),
             ("untestable", "nested-commutator enumeration beyond the site cap"),
             "nested-commutator enumeration beyond the site cap"),
            (("--p", "1", "--n-sites", "17"),
             ("untestable", "p0 = 11 exceeds the qmax window 5"),
             "extrapolation needs an even base order"),
        ],
        ids=["odd-p", "no-window", "qmax", "dense-cap", "site-cap", "odd-p-qmax"],
    )
    def test_untestable_reasons(self, tmp_path, argv, truncation, step):
        # the step bound's own reasons come first, then p0 beyond qmax, the
        # dense cap and the site cap, which it shares with the truncation
        assert run(tmp_path, "verify-bounds", *argv) == 0
        rows = load(tmp_path, "verify_bounds.json")["rows"]
        found = {row["name"]: (row["status"], row["note"]) for row in rows}
        assert found["truncation_defect"] == truncation
        assert found["step_error_bound"] == ("untestable", step)
        assert "mu_ceiling" not in found

    def test_qmax_window_reaching_p0_tests_the_truncation(self, tmp_path):
        # at the default eps p0 = 10: the series table Phi_2..Phi_10 is
        # within the series budget, so both dense checks run
        assert run(tmp_path, "verify-bounds", "--qmax", "10") == 0
        doc = load(tmp_path, "verify_bounds.json")
        rows = {row["name"]: row for row in doc["rows"]}
        assert rows["truncation_defect"]["status"] == "pass"
        assert rows["step_error_bound"]["status"] == "pass"
        assert doc["summary"]["untestable"] == 0
        assert doc["passed"] is True

    @pytest.mark.parametrize(
        "family, n_sites",
        [("heisenberg", "1000000"), ("long-range-zz", "100000")],
    )
    def test_chain_beyond_the_site_cap_is_never_built(
        self, tmp_path, no_chain, family, n_sites
    ):
        # past the enumeration site cap every row is untestable, and the run
        # reads only the group count
        argv = ("verify-bounds", "--family", family, "--n-sites", n_sites)
        assert run(tmp_path, *argv) == 0
        doc = load(tmp_path, "verify_bounds.json")
        assert {row["status"] for row in doc["rows"]} == {"untestable"}
        assert doc["summary"]["untestable"] == len(doc["rows"]) == 10

    def test_one_norm_mode_still_meaningful(self, tmp_path):
        code = run(
            tmp_path,
            "verify-bounds",
            "--eps",
            "0.25",
            "--n-sites",
            "5",
            "--norm-mode",
            "one-norm",
        )
        assert code == 0
        doc = load(tmp_path, "verify_bounds.json")
        assert doc["summary"]["fail"] == 0
        phi_notes = {
            row["note"]
            for row in doc["rows"]
            if row["name"].startswith("phi_norm")
        }
        assert phi_notes == {"coefficient one-norm"}


class TestCost:
    def test_desk_report(self, tmp_path):
        assert run(tmp_path, "cost") == 0
        doc = load(tmp_path, "cost_report.json")
        report = doc["report"]
        assert report["r"] == 1446955693
        # the budget reads mu's closed-form ceiling; no enumerated mu is kept
        assert not {"mu_value", "mu_used", "mu_source"} & report.keys()
        assert report["tau_max_mpf"] == mpf_time_condition(
            report["inputs"]["stage_factor"], report["mu_ceiling"]
        )
        assert doc["consistency"]["holds"] is True
        assert doc["chain"]["holds"] is True
        assert doc["passed"] is True
        assert doc["eps_sweep"]["sub_polynomial"] is True
        ns = doc["n_sweep"]
        assert abs(ns["r1_slope"] - ns["r1_slope_expected"]) < 1e-3
        assert [row["algorithm"] for row in doc["gate_table"]] == [
            "trotter", "lcu", "qsvt", "mpf", "hhkl",
        ]
        assert doc["divergence"]["factorial_tail_increasing"] is True
        lines = (tmp_path / "cost_sweeps.csv").read_text().splitlines()
        eps_rows = [ln for ln in lines if ln.startswith("eps,")]
        n_rows = [ln for ln in lines if ln.startswith("n,")]
        assert len(eps_rows) == 13
        assert len(n_rows) == 5

    def test_too_many_nodes_fail_the_chain(self, tmp_path):
        # the budget selects the combination order m = 11; 2J = 12 nodes
        # exceed it, so the first bound of the window tops the second
        assert run(tmp_path / "j5", "cost", "--J", "5") == 0
        assert run(tmp_path / "j6", "cost", "--J", "6") == 1
        doc = load(tmp_path / "j6", "cost_report.json")
        assert doc["report"]["m_selected"] == 11
        chain = doc["chain"]
        assert chain["order_ok"] is False and chain["window_holds"] is False
        assert chain["first_bound"] > chain["second_bound"]

    def test_long_range_g_column_grows(self, tmp_path):
        code = run(
            tmp_path,
            "cost",
            "--family",
            "long-range-zz",
            "--n-sites",
            "6",
            "--exponent",
            "0.5",
        )
        assert code == 0
        doc = load(tmp_path, "cost_report.json")
        gs = [row["g"] for row in doc["n_sweep"]["rows"]]
        assert all(b > a for a, b in zip(gs, gs[1:]))

    @pytest.mark.parametrize("family", ["long-range-zz", "heisenberg"])
    def test_n_sweep_builds_no_terms(self, tmp_path, monkeypatch, family):
        built = []
        make_spec = hamiltonians.make_spec

        def counting(n_sites, terms):
            built.append(n_sites)
            return make_spec(n_sites, terms)

        monkeypatch.setattr(hamiltonians, "make_spec", counting)
        code = run(tmp_path, "cost", "--family", family, "--n-sites", "6")
        assert code == 0
        assert built == []
        doc = load(tmp_path, "cost_report.json")
        assert [row["n"] for row in doc["n_sweep"]["rows"]] == [
            64, 128, 256, 512, 1024,
        ]

    def test_short_window_note_names_the_window(self, tmp_path):
        # 4 sites are inside the site cap; qmax 2 leaves one order, not two
        assert run(tmp_path, "cost", "--qmax", "2") == 0
        note = load(tmp_path, "cost_report.json")["divergence"]["note"]
        assert note == "the window 2..qmax holds fewer than two orders"

    def test_underflowing_step_accuracy_names_the_configured_eps(
        self, tmp_path, capsys
    ):
        out = tmp_path / "out"
        assert main(["cost", "--eps", "1e-300", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "eps = 1e-300" in err and "underflows to 0" in err
        assert "got 0.0" not in err and "Traceback" not in err
        assert not out.exists()

    def test_odd_base_order_rejected(self, tmp_path):
        assert run(tmp_path, "cost", "--p", "3") == 2

    @pytest.mark.parametrize(
        "family, n_sites",
        [("heisenberg", "1000000"), ("long-range-zz", "100000")],
    )
    def test_chain_beyond_the_window_is_never_built(
        self, tmp_path, no_chain, family, n_sites
    ):
        # k, g and the group count come from family_constants, L from
        # family_one_norm; no part of the report reads terms
        assert run(tmp_path, "cost", "--family", family, "--n-sites", n_sites) == 0
        divergence = load(tmp_path, "cost_report.json")["divergence"]
        assert divergence["q_values"] == [2, 3, 4, 5]

    def test_oversized_qmax_meets_the_overflow_at_once(self, tmp_path, no_walk, capsys):
        # the window is formed order by order, so the factorial bound
        # overflows at q = 103 before a billion orders are held
        out = tmp_path / "out"
        started = time.perf_counter()
        assert main(["cost", "--qmax", "1000000000", "--out", str(out)]) == 2
        assert time.perf_counter() - started < 5.0
        assert capsys.readouterr().err == (
            "error: the configured values overflow: the factorial bound on alpha_103"
            " is inf\n"
        )
        assert no_walk == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--coupling", "1e308", "--n-sites", "1000000"),
             "error: the configured values overflow: intermediate overflow in fsum\n"),
            (("--family", "long-range-zz", "--coupling", "1e300", "--exponent",
              "-10", "--n-sites", "100000"),
             "error: 1e+300/7.0**-10.0 overflows, so the coupling at distance 7"
             " is out of float range\n"),
        ],
        ids=["heisenberg", "long-range-zz"],
    )
    def test_overflowing_constants_refused_before_any_chain(
        self, tmp_path, no_chain, capsys, argv, message
    ):
        out = tmp_path / "out"
        assert main(["cost", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize(
        "family, n_sites, coupling, field, exponent",
        [
            ("heisenberg", 4, 1.0, 0.8, 2.0),
            ("heisenberg", 5, 0.37, 0.0, 2.0),
            ("heisenberg", 8, 1.93, -0.61, 2.0),
            ("long-range-zz", 4, 1.0, 0.0, 0.5),
            ("long-range-zz", 6, 1.37, 0.0, 1.0),
            ("long-range-zz", 7, 0.61, 0.0, 3.0),
            ("long-range-zz", 8, 2.5, 0.0, -1.0),
        ],
    )
    @pytest.mark.parametrize("q_max", ["2", "3"])
    def test_budgets_match_the_built_spec(
        self, tmp_path, family, n_sites, coupling, field, exponent, q_max
    ):
        # report_from_parts on the built spec is the oracle; cost itself
        # builds no chain at either qmax
        argv = ("cost", "--family", family, "--n-sites", str(n_sites),
                "--coupling", str(coupling), "--field", str(field),
                "--exponent", str(exponent), "--qmax", q_max,
                "--norm-mode", "one-norm")
        assert run(tmp_path, *argv) == 0
        doc = load(tmp_path, "cost_report.json")
        if family == "heisenberg":
            spec = heisenberg_chain(n_sites, coupling, field)
        else:
            spec = hamiltonians.long_range_zz_chain(n_sites, exponent, coupling)
        plan = build_plan(spec.n_groups, 2)

        def as_json(value):
            return json.loads(json.dumps(cli._as_jsonable(value)))

        report = bounds.report_from_parts(spec, plan, build_mpf(2), 1.0, 1e-3)
        assert doc["report"] == as_json(report)
        for row in doc["eps_sweep"]["rows"]:
            eps = row["eps"]
            try:
                matched = bounds.matched_mpf_spec(
                    n_sites, spec.extensiveness, 1.0, eps, 2
                )
            except ValueError as exc:
                assert row == {"eps": eps, "note": str(exc)}
                continue
            swept = bounds.report_from_parts(spec, plan, matched, 1.0, eps)
            assert row == as_json(
                {"eps": eps, "m": matched.m, "j_count": matched.j_count,
                 "r1": swept.r1, "r2": swept.r2, "r": swept.r}
            )


class TestTable1:
    def test_finite_range_rows(self, tmp_path):
        assert run(tmp_path, "table1", "--n-sites", "64") == 0
        doc = load(tmp_path, "gate_costs.json")
        rows = {row["algorithm"]: row for row in doc["rows"]}
        assert list(rows) == ["trotter", "lcu", "qsvt", "mpf", "hhkl"]
        assert rows["mpf"]["polylog_pending"] is True
        assert rows["trotter"]["polylog_pending"] is False
        assert all(row["value"] > 0 for row in doc["rows"])
        lines = (tmp_path / "gate_costs.csv").read_text().splitlines()
        assert lines[0] == "algorithm,expression,value,polylog_pending"
        assert len(lines) == 6

    def test_long_range_row_set_depends_on_decay(self, tmp_path):
        fast = run(
            tmp_path, "table1", "--range-class", "long", "--nu", "3.0"
        )
        assert fast == 0
        doc = load(tmp_path, "gate_costs.json")
        rows = {row["algorithm"]: row for row in doc["rows"]}
        assert rows["hhkl"]["polylog_pending"] is False
        slow = run(
            tmp_path, "table1", "--range-class", "long", "--nu", "1.5"
        )
        assert slow == 0
        doc = load(tmp_path, "gate_costs.json")
        assert "hhkl" not in [row["algorithm"] for row in doc["rows"]]

    def test_long_range_needs_decay_power(self, tmp_path):
        assert run(tmp_path, "table1", "--range-class", "long") == 2

    @pytest.mark.parametrize("family", ["heisenberg", "long-range-zz"])
    def test_built_in_chain_is_never_built(self, tmp_path, no_chain, family):
        # k and g come from family_constants
        argv = ("table1", "--family", family, "--n-sites", "1000000")
        assert run(tmp_path, *argv) == 0


class TestPhiAlpha:
    def test_phi_table(self, tmp_path):
        assert run(tmp_path, "phi", "--qmax", "4") == 0
        doc = load(tmp_path, "phi_report.json")
        assert [row["q"] for row in doc["rows"]] == [2, 3, 4]
        assert doc["rows"][0]["norm"] == 0.0
        assert all(row["bounds_hold"] for row in doc["rows"])
        assert all(row["norm_is_exact"] for row in doc["rows"])

    def test_alpha_matches_library_enumeration(self, tmp_path):
        assert run(tmp_path, "alpha", "--qmax", "3") == 0
        doc = load(tmp_path, "alpha_table.json")
        spec = heisenberg_chain(4, field=0.8)
        for row in doc["rows"]:
            direct = nested_commutator_sum(spec, row["q"], "exact")
            assert row["alpha"] == pytest.approx(direct, rel=1e-12)
            assert row["factorial_holds"] and row["one_norm_holds"]

    def test_alpha_untestable_beyond_site_cap(self, tmp_path):
        assert run(tmp_path, "alpha", "--n-sites", "24") == 0
        doc = load(tmp_path, "alpha_table.json")
        assert all(row["alpha"] is None for row in doc["rows"])
        assert all(row["mode"] == "untestable" for row in doc["rows"])
        assert all(row["factorial_bound"] > 0 for row in doc["rows"])

    def test_phi_rejects_large_systems(self, tmp_path):
        assert run(tmp_path, "phi", "--n-sites", "24") == 2

    def test_phi_checks_that_orders_up_to_p_vanish(self, tmp_path, monkeypatch):
        # a mirror-even Phi_2 of norm 0.004 keeps inside the norm bound, so
        # only the vanishing check of the p = 2 plan can catch it; it is
        # planted in the Phi_q table of the one nest walk
        commutator_sums = commutators.commutator_sums
        planted = PauliSum.from_terms([PauliTerm(4, 0, 1 << j, 1e-3) for j in range(4)])

        def planting(*args, plan, **kwargs):
            alphas, phis = commutator_sums(*args, plan=plan, **kwargs)
            phis[2] = phis[2] + planted
            return alphas, phis

        monkeypatch.setattr(commutators, "commutator_sums", planting)
        assert run(tmp_path, "phi") == 1
        rows = load(tmp_path, "phi_report.json")["rows"]
        assert rows[0]["norm"] == pytest.approx(0.004, rel=1e-12)
        assert [row["bounds_hold"] for row in rows] == [False, True, True, True]
        assert run(tmp_path, "verify-bounds", "--eps", "0.25") == 1
        failed = [
            row["name"]
            for row in load(tmp_path, "verify_bounds.json")["rows"]
            if row["status"] == "fail"
        ]
        assert failed == ["phi_zero[q=2]"]

    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("--n-sites", "5", "--p", "4", "--eps", "0.5"),
            ("--norm-mode", "one-norm"),
        ],
        ids=["default", "fourth-order", "one-norm"],
    )
    def test_phi_bounds_hold_where_verify_bounds_passes(self, tmp_path, argv):
        assert run(tmp_path, "phi", *argv) in (0, 1)
        assert run(tmp_path, "verify-bounds", *argv) in (0, 1)
        passes: dict[int, bool] = {}
        for row in load(tmp_path, "verify_bounds.json")["rows"]:
            if row["name"].startswith("phi_"):
                q = int(row["name"].split("[q=")[1].rstrip("]"))
                passes[q] = passes.get(q, True) and row["status"] == "pass"
        rows = load(tmp_path, "phi_report.json")["rows"]
        assert {row["q"]: row["bounds_hold"] for row in rows} == passes


class TestAlpha:
    @pytest.mark.parametrize(
        "family, n_sites", [("heisenberg", 40000), ("long-range-zz", 2000)]
    )
    def test_built_in_chain_is_never_built(self, tmp_path, no_chain, family, n_sites):
        # k and g come from family_constants, L from family_one_norm
        argv = ("alpha", "--family", family, "--n-sites", str(n_sites))
        assert run(tmp_path, *argv) == 0
        total = hamiltonians.family_one_norm(family, n_sites, 1.0, 0.8, 2.0)
        rows = load(tmp_path, "alpha_table.json")["rows"]
        assert [row["mode"] for row in rows] == ["untestable"] * 4
        assert [row["one_norm_bound"] for row in rows] == [
            (2.0 * total) ** q for q in range(2, 6)
        ]


class TestOneAlphaTable:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-bounds", "--eps", "0.25"),
            ("cost", "--qmax", "4"),
            ("phi", "--qmax", "4"),
            ("alpha", "--qmax", "4"),
        ],
    )
    def test_each_command_enumerates_once(self, tmp_path, monkeypatch, argv):
        orders = []
        commutator_sums = commutators.commutator_sums

        def counting(spec, q_max, *args, **kwargs):
            orders.append(q_max)
            return commutator_sums(spec, q_max, *args, **kwargs)

        monkeypatch.setattr(commutators, "commutator_sums", counting)
        assert run(tmp_path, *argv) == 0
        # cost's report is closed-form: it walks no nest
        assert orders == {"verify-bounds": [5], "cost": []}.get(argv[0], [4])

    @pytest.mark.parametrize("command", ["alpha", "verify-bounds"])
    def test_over_budget_refused_before_any_commutator(
        self, tmp_path, monkeypatch, command
    ):
        calls = []
        commutator = PauliSum.commutator

        def counting(self, other):
            calls.append(1)
            return commutator(self, other)

        monkeypatch.setattr(PauliSum, "commutator", counting)
        assert run(tmp_path, command, "--qmax", "20") == 2
        assert calls == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--qmax", "10000000"), "error: 3^10000000 tuples exceed the budget"),
            (("--n-sites", "2", "--field", "0", "--qmax", "30000000"),
             "error: a one-group walk's 29999999 orders exceed the budget 1000000"),
        ],
        ids=["three-groups", "one-group"],
    )
    def test_oversized_qmax_refused_before_any_walk(
        self, tmp_path, no_walk, capsys, argv, message
    ):
        # decided without forming 3^(10^7); one group passes every tuple
        # count, so its walk's per-order tables are counted instead
        out = tmp_path / "out"
        assert main(["alpha", *argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_phi_over_budget_refused_before_any_series(self, tmp_path, no_walk):
        assert run(tmp_path, "phi", "--qmax", "13") == 2
        assert no_walk == []

    @pytest.mark.parametrize(
        "argv, tuples, series",
        [
            (("phi",), 1, 1),
            (("verify-bounds", "--eps", "0.25"), 1, 1),
            (("alpha",), 1, 0),
            (("cost",), 0, 0),
            (("verify-bounds", "--n-sites", "17"), 1, 0),
        ],
        ids=["phi", "verify-bounds", "alpha", "cost", "verify-bounds-past-the-cap"],
    )
    def test_each_budget_is_counted_once(
        self, tmp_path, monkeypatch, argv, tuples, series
    ):
        # the walk refuses its own budgets; the series budget applies only
        # to a walk with a plan; past the site cap verify-bounds refuses the
        # tuple budget itself, and cost walks no nest
        counted = []
        for owner, name in ((commutators, "check_tuple_budget"),
                            (bch, "check_series_budget")):
            check = getattr(owner, name)

            def counting(*args, name=name, check=check):
                counted.append(name)
                return check(*args)

            monkeypatch.setattr(owner, name, counting)
        assert run(tmp_path, *argv) == 0
        assert counted.count("check_tuple_budget") == tuples
        assert counted.count("check_series_budget") == series

    def test_step_bound_untestable_without_a_table(
        self, tmp_path, no_chain, no_walk
    ):
        # beyond the site cap no table is built, even when the dense cap allows
        assert truncation_order(17, 1e-3) == 11
        argv = ("--n-sites", "17", "--dense-cap", "17", "--qmax", "11")
        assert run(tmp_path, "verify-bounds", *argv) == 0
        assert no_walk == []
        rows = load(tmp_path, "verify_bounds.json")["rows"]
        steps = [row for row in rows if row["name"] == "step_error_bound"]
        assert [row["status"] for row in steps] == ["untestable"]
        assert "site cap" in steps[0]["note"]


class TestOneEvaluatorAndPhiTable:
    @pytest.mark.parametrize(
        "argv, builds",
        [
            (("verify-order", "--n-sites", "5", "--J", "3"), 1),
            (("verify-bounds", "--n-sites", "5", "--eps", "0.5"), 1),
            # p0 = 10 exceeds qmax = 5: both dense checks are untestable
            (("verify-bounds",), 0),
        ],
        ids=["verify-order", "verify-bounds", "verify-bounds-default"],
    )
    def test_dense_evaluator_built_at_most_once(
        self, tmp_path, monkeypatch, argv, builds
    ):
        calls = []
        init = TrotterEvaluator.__init__

        def counting(self, *args, **kwargs):
            calls.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TrotterEvaluator, "__init__", counting)
        assert run(tmp_path, *argv) == 0
        assert len(calls) == builds

    def test_verify_bounds_builds_one_sector_frame(self, tmp_path, monkeypatch):
        # the evaluator, the nest norms, the Phi_q norms and the truncation
        # defect all read the groups' frame, found by one sector search
        calls = []
        search = dense.invariant_sectors

        def counting(*args):
            calls.append(1)
            return search(*args)

        monkeypatch.setattr(dense, "invariant_sectors", counting)
        argv = ("verify-bounds", "--n-sites", "6", "--eps", "0.25")
        assert run(tmp_path, *argv) == 0
        rows = {r["name"]: r for r in load(tmp_path, "verify_bounds.json")["rows"]}
        assert rows["truncation_defect"]["status"] == "pass"
        assert len(calls) == 1

    def test_verify_bounds_builds_one_phi_table(self, tmp_path, monkeypatch):
        # p0 = 4 <= qmax = 5: the phi rows and the truncation check share it,
        # and the nest walk that builds it builds the alpha table too: one
        # walk weighs the plan's words, and every norm reads one frame
        walks, frames = [], []
        pair_weights, build = bch._pair_weights, dense.SectorFrame.__init__

        def weighing(plan, q_max):
            walks.append(q_max)
            return pair_weights(plan, q_max)

        def building(frame, sums):
            frames.append(sums)
            build(frame, sums)

        monkeypatch.setattr(bch, "_pair_weights", weighing)
        monkeypatch.setattr(dense.SectorFrame, "__init__", building)
        assert run(tmp_path, "verify-bounds", "--n-sites", "5", "--eps", "0.5") == 0
        assert walks == [5]
        assert len(frames) == 1


class TestOneNestWalk:
    @pytest.mark.parametrize(
        "argv, made",
        [
            (("--qmax", "10"), 768),
            (("--qmax", "12"), 3072),
            (("--n-sites", "6", "--eps", "0.25"), 24),
        ],
        ids=["qmax-10", "qmax-12", "certify"],
    )
    def test_phi_tables_cost_no_commutator_beyond_the_alpha_table(
        self, tmp_path, monkeypatch, argv, made
    ):
        # the walk that builds the alpha table builds Phi_q from the same
        # nests: one walk per run, where a second one doubled the count
        counts = {}
        commutator = PauliSum.commutator
        for command in ("alpha", "phi", "verify-bounds"):
            calls = []

            def counting(self, other):
                calls.append(1)
                return commutator(self, other)

            monkeypatch.setattr(PauliSum, "commutator", counting)
            assert run(tmp_path, command, *argv) == 0
            counts[command] = len(calls)
        assert counts == dict.fromkeys(counts, made)


class TestCompositionBudget:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-bounds", "--n-sites", "5", "--p", "6", "--qmax", "10"),
            ("phi", "--p", "6", "--qmax", "10"),
        ],
        ids=["verify-bounds", "phi"],
    )
    def test_over_budget_refused_before_any_series(
        self, tmp_path, no_walk, capsys, argv
    ):
        # three groups at p = 6 merge into 101 stages: the word recursion
        # and the walk's split updates make 7,557,646 updates to q = 10
        assert run(tmp_path, *argv) == 2
        assert no_walk == []
        err = capsys.readouterr().err
        assert "7557646 series updates, over the budget 5000000" in err

    @pytest.mark.parametrize("command", ["verify-bounds", "phi"])
    def test_over_budget_refused_before_the_alpha_table(
        self, tmp_path, no_walk, capsys, command
    ):
        # at 10 sites the exact alpha table alone takes about a minute
        argv = (command, "--n-sites", "10", "--p", "6", "--qmax", "10")
        assert run(tmp_path, *argv) == 2
        assert no_walk == []
        err = capsys.readouterr().err
        assert "7557646 series updates, over the budget 5000000" in err

    @pytest.mark.parametrize(
        "argv, walked",
        [
            # two groups, three merged stages 1 2 1: the walk meets 2^j
            # prefixes of each length j, so the count about doubles per
            # order (2,621,377 at --qmax 18)
            (("phi", "--field", "0", "--qmax", "19"), 5242814),
            # one group on two sites: one word of each length, so the count
            # grows like qmax^2 / 2
            (("phi", "--n-sites", "2", "--field", "0", "--qmax", "3162"), 5003866),
        ],
        ids=["two-groups", "one-group"],
    )
    def test_permutation_sums_refused_before_any_series(
        self, tmp_path, no_walk, capsys, argv, walked
    ):
        # the series count that replaced the permutation-weight count
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert no_walk == []
        err = capsys.readouterr().err
        assert f"make {walked} series updates, over the budget 5000000" in err
        assert not out.exists()

    def test_one_group_word_weights_take_linear_binomials(
        self, tmp_path, monkeypatch, capsys
    ):
        # one group on two sites: one word of each length, so the weights
        # need one binomial row, not one per prefix length at every stage
        calls = []
        comb = math.comb

        def counting(*args):
            calls.append(args)
            return comb(*args)

        monkeypatch.setattr(math, "comb", counting)
        argv = ("phi", "--n-sites", "2", "--field", "0", "--qmax", "1000")
        assert run(tmp_path, *argv) == 2
        # the walk runs to q_max; the report then meets an infinite ceiling
        err = capsys.readouterr().err
        assert "the extensiveness ceiling of Phi_105 is inf" in err
        assert 0 < len(calls) <= 2 * 1000

    def test_sixth_order_series_runs(self, tmp_path):
        # two groups at p = 6: 51 merged stages, C(57, 7) = 264,385,836
        # compositions at q = 7 alone, but 19,403 series updates in all
        argv = ("phi", "--n-sites", "4", "--p", "6", "--qmax", "7", "--field", "0")
        assert run(tmp_path, *argv) == 0
        rows = {row["q"]: row for row in load(tmp_path, "phi_report.json")["rows"]}
        assert sorted(rows) == list(range(2, 8))
        for q in range(2, 7):
            assert rows[q]["bounds_hold"] and rows[q]["norm"] <= 1e-12, q
        assert rows[7]["norm"] > 1e-3

    @pytest.mark.parametrize("command", ["phi", "verify-bounds"])
    def test_default_long_range_series_runs(self, tmp_path, command):
        # seven groups merge into 13 stages: C(17, 5) = 6,188 compositions at
        # q = 5 and 75,286 series updates in all, which the composition
        # loop's preflight allowed too
        argv = (command, "--family", "long-range-zz", "--n-sites", "8")
        assert run(tmp_path, *argv) == 0
        if command == "phi":
            rows = load(tmp_path, "phi_report.json")["rows"]
            assert [row["q"] for row in rows] == [2, 3, 4, 5]
        else:
            rows = load(tmp_path, "verify_bounds.json")["rows"]
            phi_rows = [row for row in rows if row["name"].startswith("phi_")]
            assert {row["name"] for row in phi_rows} >= {"phi_norm[q=5]", "phi_zero[q=2]"}
            assert all(row["status"] == "pass" for row in phi_rows)

    def test_tuple_budget_still_refuses_first(self, tmp_path, capsys):
        # 3^13 tuples exceed the tuple budget, and the p = 2 plan's
        # 9,943,345 series updates exceed their own; tuples come first
        assert run(tmp_path, "phi", "--qmax", "13") == 2
        assert "3^13 tuples exceed the budget 1000000" in capsys.readouterr().err


class TestPreflight:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("alpha", "--qmax", "20"), "3^20 tuples exceed the budget 1000000"),
            (
                ("verify-bounds", "--qmax", "20"),
                "3^20 tuples exceed the budget 1000000",
            ),
            # past the site cap no walk runs, but the window is refused as
            # the walk at the cap (16 sites, 15 long-range groups) refuses it
            (
                ("verify-bounds", "--n-sites", "17", "--qmax", "100000"),
                "3^100000 tuples exceed the budget 1000000",
            ),
            (
                ("verify-bounds", "--family", "long-range-zz", "--n-sites",
                 "100000", "--qmax", "6"),
                "15^6 tuples exceed the budget 1000000",
            ),
            (("phi", "--qmax", "13"), "3^13 tuples exceed the budget 1000000"),
            # the series count: the word recursion dominates at p = 6 on
            # three groups, the walk's split updates on two groups at p = 2
            (("phi", "--p", "6", "--qmax", "10"), "make 7557646 series updates"),
            (
                ("verify-bounds", "--n-sites", "10", "--p", "6", "--qmax", "10"),
                "make 7557646 series updates",
            ),
            (("phi", "--field", "0", "--qmax", "19"), "make 5242814 series updates"),
            (
                ("verify-bounds", "--n-sites", "8", "--field", "0", "--qmax", "19"),
                "make 5242814 series updates",
            ),
            (("phi", "--n-sites", "24"), "n_sites = 24 exceeds the site cap 16"),
            (("verify-order", "--n-sites", "13"), "on 13 sites exceeds cap 12"),
            # g = 0: the step boundary 1/(8 e^3 c_p p0 k g) does not exist
            (
                ("verify-bounds", "--coupling", "0", "--field", "0", "--eps", "0.25"),
                "error: extensiveness must be positive",
            ),
            (
                ("verify-bounds", "--family", "long-range-zz", "--coupling", "0",
                 "--n-sites", "4", "--eps", "0.25"),
                "error: extensiveness must be positive",
            ),
        ],
        ids=[
            "alpha-tuples", "verify-bounds-tuples", "verify-bounds-past-the-cap",
            "verify-bounds-past-the-cap-long-range", "phi-tuples",
            "phi-recursion", "verify-bounds-recursion",
            "phi-permutations", "verify-bounds-permutations",
            "phi-site-cap", "verify-order-dense-cap",
            "verify-bounds-zero-heisenberg", "verify-bounds-zero-long-range",
        ],
    )
    def test_refused_before_any_table_or_folder(
        self, tmp_path, no_walk, capsys, argv, message
    ):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert no_walk == []
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family", ["heisenberg", "long-range-zz"])
    @pytest.mark.parametrize(
        "command, message",
        [
            ("verify-order", "error: dense build on 1000000 sites exceeds cap 12"),
            ("phi", "n_sites = 1000000 exceeds the site cap 16"),
        ],
        ids=["verify-order", "phi"],
    )
    def test_caps_refused_before_the_chain_is_built(
        self, tmp_path, no_chain, capsys, family, command, message
    ):
        out = tmp_path / "out"
        argv = [command, "--family", family, "--n-sites", "1000000"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("cost", "--eps", "1e-300"), "eps = 1e-300 leaves a per-step"),
            (("cost", "--t", "1e-9"), "N g t / eps = 2.72e-05 must exceed 1"),
            (("table1", "--t", "1e-9"), "log factor needs argument > e"),
            (("verify-order", "--p", "3"), "unsupported order 3"),
            (("verify-order", "--k-list", "2,1"), "strictly increasing"),
            (("verify-bounds", "--k-list", "2,1"), "strictly increasing"),
            (("cost", "--k-list", "2,1"), "strictly increasing"),
        ],
        ids=[
            "cost-eps", "cost-t", "table1-t", "verify-order-p",
            "verify-order-k-list", "verify-bounds-k-list", "cost-k-list",
        ],
    )
    def test_plan_and_formula_refusals_come_before_the_folder(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        calls = []

        def refused(*args, **kwargs):
            calls.append(args)
            raise AssertionError("work started before the refusal")

        monkeypatch.setattr(commutators, "commutator_sums", refused)
        monkeypatch.setattr(TrotterEvaluator, "__init__", refused)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert calls == []
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, owner, name",
        [
            ("verify-order", TrotterEvaluator, "__init__"),
            ("verify-bounds", commutators, "commutator_sums"),
            ("cost", bounds, "gate_cost_table"),
            ("table1", bounds, "gate_cost_table"),
            ("phi", bch, "_pair_weights"),
            ("alpha", commutators, "commutator_sums"),
        ],
    )
    def test_failed_run_leaves_no_folder(
        self, tmp_path, monkeypatch, capsys, command, owner, name
    ):
        def broken(*args, **kwargs):
            raise RuntimeError("heavy call failed")

        monkeypatch.setattr(owner, name, broken)
        out = tmp_path / "out"
        assert main([command, "--out", str(out)]) == 3
        assert "heavy call failed" in capsys.readouterr().err
        assert not out.exists()


class TestReproducibility:
    def test_rerun_is_byte_identical(self, tmp_path):
        argv = ["verify-bounds", "--eps", "0.25"]
        assert run(tmp_path, *argv) == 0
        first = {
            name: (tmp_path / name).read_bytes()
            for name in ("verify_bounds.json", "verify_bounds.csv")
        }
        assert run(tmp_path, *argv) == 0
        for name, blob in first.items():
            assert (tmp_path / name).read_bytes() == blob

    def test_cost_rerun_is_byte_identical(self, tmp_path):
        assert run(tmp_path, "cost") == 0
        first = (tmp_path / "cost_report.json").read_bytes()
        assert run(tmp_path, "cost") == 0
        assert (tmp_path / "cost_report.json").read_bytes() == first

    @pytest.mark.parametrize(
        "command, names",
        [
            ("phi", ("phi_report.json", "phi_norms.csv")),
            ("alpha", ("alpha_table.json", "alpha_table.csv")),
            ("verify-order", ("verify_order.json", "order_sweep.csv")),
        ],
    )
    def test_table_rerun_is_byte_identical(self, tmp_path, command, names):
        assert run(tmp_path, command) == 0
        first = {name: (tmp_path / name).read_bytes() for name in names}
        assert run(tmp_path, command) == 0
        for name, blob in first.items():
            assert (tmp_path / name).read_bytes() == blob


class TestTracer:
    """``perfbench/tracer.py`` wraps mpfkit functions by name; a rename or a
    removal breaks it before any benchmark runs, so each run here starts
    a fresh interpreter on the tracer as the benchmark does."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-bounds", "--n-sites", "5", "--eps", "0.5"),
            ("phi", "--n-sites", "4", "--qmax", "4"),
        ],
        ids=["verify-bounds", "phi"],
    )
    def test_traced_run_builds_no_full_matrix(self, tmp_path, argv):
        tracer = SRC.parent / "perfbench" / "tracer.py"
        trace = tmp_path / "trace.json"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, str(tracer), str(trace), *argv, "--out", "out"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        counts = json.loads(trace.read_text())["counts"]
        assert counts["cli.main.calls"] == 1
        assert counts.get("dense.from_pauli_sum.calls", 0) == 0


class TestBenchmarkSelftest:
    def test_output_checks_pass_and_reject_perturbations(self):
        # runs every benchmark workload once and requires its output checks
        # to pass, then to catch each perturbed copy of the result files
        selftest = SRC.parent / "perfbench" / "selftest.py"
        done = subprocess.run(
            [sys.executable, str(selftest)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert done.returncode == 0, done.stdout + done.stderr


class TestNoScipyAtRunTime:
    """No CLI process imports scipy or ``dataclasses``, and none that builds
    no matrix imports numpy or ``inspect``.

    scipy is a test dependency only.  numpy loads with the dense layer, the
    first time a run builds a matrix, and it imports ``inspect`` itself.
    ``dataclasses`` (and the ``inspect`` it pulls in) would cost every run
    its start-up time, so the records are named tuples.  Each check runs in
    a fresh interpreter with ``PYTHONPATH`` set to the package's source
    folder, so nothing this test process imported counts; it prints the
    loaded scipy modules and then whether numpy, ``dataclasses`` and
    ``inspect`` are loaded.  A subcommand that needs scipy (say a
    sparse-norm ``scaling`` run built on ``scipy.sparse.linalg.eigsh``) may
    import it inside its own handler only, never at module level.
    """

    def check(self, code, cwd):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        probe = (
            code
            + "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
            + "\nprint('numpy' in sys.modules)"
            + "\nprint('dataclasses' in sys.modules)"
            + "\nprint('inspect' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()

    def test_importing_every_module(self, tmp_path):
        code = (
            "import importlib, pkgutil, sys\n"
            "import mpfkit, mpfkit.cli\n"
            "names = [m.name for m in pkgutil.iter_modules(mpfkit.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('mpfkit.' + name)\n"
            "print(sorted(names))"
        )
        names, *flags = self.check(code, tmp_path)
        for name in ("bch", "cli", "dense", "formulas", "mpf", "trotter"):
            assert repr(name) in names
        # scipy, numpy, dataclasses, inspect
        assert flags == ["[]", "True", "False", "True"]

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (("verify-order", "--n-sites", "5", "--tau-points", "4"), []),
            (("phi", "--n-sites", "4", "--norm-mode", "one-norm"), ["commutators"]),
        ],
        ids=["verify-order", "phi-one-norm"],
    )
    def test_handlers_load_bounds_and_commutators_on_use(self, tmp_path, argv, loaded):
        code = (
            "import sys\n"
            "from mpfkit.cli import main\n"
            f"assert main({list(argv)!r} + ['--out', 'out']) == 0\n"
            "mods = ('mpfkit.bounds', 'mpfkit.commutators')\n"
            "print(sorted(m[7:] for m in sys.modules if m in mods))"
        )
        assert self.check(code, tmp_path)[0] == repr(loaded)

    def test_importing_the_cli_leaves_numpy_unloaded(self, tmp_path):
        code = "import sys\nimport mpfkit.cli"
        assert self.check(code, tmp_path) == ["[]", "False", "False", "False"]

    @pytest.mark.parametrize(
        "argv",
        [("verify-order", "--n-sites", "5", "--tau-points", "4")],
        ids=["verify-order"],
    )
    def test_running_a_subcommand(self, tmp_path, argv):
        code = (
            "import sys\n"
            "from mpfkit.cli import main\n"
            f"assert main({list(argv)!r} + ['--out', 'out']) == 0"
        )
        # the run builds matrices, so the probe sees numpy when it is there,
        # and with it inspect
        assert self.check(code, tmp_path) == ["[]", "True", "False", "True"]
        assert any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize(
        "argv, status",
        [
            (("cost", "--family", "long-range-zz", "--n-sites", "6",
              "--exponent", exponent), 0)
            for exponent in ("0.5", "1", "3")
        ]
        + [
            # cost reads no terms on any chain, commuting or not
            (("cost",), 0),
            (("cost", "--n-sites", "5"), 0),
            (("cost", "--n-sites", "6", "--eps", "0.25"), 0),
            (("cost", "--n-sites", "13", "--dense-cap", "13"), 0),
            (("cost", "--family", "file", "--ham-file", "chain.json"), 0),
            (("table1",), 0),
            (("phi", "--n-sites", "4", "--norm-mode", "one-norm"), 0),
            (("verify-order", "--tau-min", "0.5", "--tau-max", "0.1"), 2),
            (("phi", "--qmax", "13"), 2),
            (("alpha", "--qmax", "20"), 2),
        ],
        ids=[
            "cost-a0.5", "cost-a1", "cost-a3", "cost-defaults", "cost-n5",
            "cost-n6", "cost-n13", "cost-file", "table1", "phi-one-norm",
            "config-error", "phi-refused", "alpha-refused",
        ],
    )
    def test_runs_without_matrices_leave_numpy_unloaded(
        self, tmp_path, argv, status
    ):
        chain = oracles.spec_to_document(heisenberg_chain(5, field=0.8))
        (tmp_path / "chain.json").write_text(json.dumps(chain))
        code = (
            "import sys\n"
            "from mpfkit.cli import main\n"
            f"assert main({list(argv)!r} + ['--out', 'out']) == {status}"
        )
        assert self.check(code, tmp_path) == ["[]", "False", "False", "False"]
