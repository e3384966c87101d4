"""The result records: immutable named tuples that the CLI writes as JSON objects."""

import json

import pytest

from mpfkit import bch, bounds, dense, formulas, hamiltonians, pauli
from mpfkit.cli import ExperimentConfig, main
from mpfkit.hamiltonians import heisenberg_chain
from mpfkit.pauli import PauliTerm
from oracles import HelperInequalityCheck

RECORDS = (
    pauli.PauliTerm,
    formulas.ProductFormulaPlan,
    formulas.MPFSpec,
    hamiltonians.HamiltonianSpec,
    bounds.StepErrorBound,
    bounds.TrotterNumbers,
    HelperInequalityCheck,
    bounds.BoundInputs,
    bounds.BoundReport,
    bounds.ConsistencyCheck,
    bounds.ChainCheck,
    bounds.CostRow,
    bounds.DivergenceDiagnostics,
    bch.PhiReport,
    dense.HermitianFactorization,
)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_refuse_assignment(cls):
    # _make skips PauliTerm's checks, which a range of field values may fail
    record = cls._make(range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, -1)
    with pytest.raises(AttributeError):
        record.extra = -1
    assert tuple(getattr(record, name) for name in cls._fields) == tuple(
        range(len(cls._fields))
    )


class TestPauliTermChecks:
    @pytest.mark.parametrize(
        "fields",
        [(0, 0, 0), (-1, 0, 0), (2, 4, 0), (2, 0, 4), (2, -1, 0), (2, 0, -1)],
    )
    def test_rejects_bad_site_counts_and_masks(self, fields):
        with pytest.raises(ValueError):
            PauliTerm(*fields, 1.0)

    def test_accepts_the_top_masks(self):
        t = PauliTerm(n_sites=2, x_mask=3, z_mask=3, coeff=0.5)
        assert t.label == "YY"
        assert (t.n_sites, t.x_mask, t.z_mask, t.coeff) == (2, 3, 3, 0.5)


def test_specs_compare_by_identity():
    a = heisenberg_chain(4)
    b = a._replace()  # every field the same object
    assert a == a and not a != a
    assert a != b and not a == b
    assert len({a, b, a}) == 2


class TestExperimentConfig:
    def test_refuses_an_unknown_name(self):
        with pytest.raises(TypeError, match="bogus"):
            ExperimentConfig(bogus=1)

    def test_overrides_keep_the_other_defaults(self):
        cfg = ExperimentConfig(n_sites=5, k_list=(1, 2))
        doc = cfg.echo()
        assert list(doc) == list(ExperimentConfig.__annotations__)
        assert doc["n_sites"] == 5 and doc["k_list"] == [1, 2]
        assert doc["family"] == "heisenberg" and doc["eps"] == 1e-3
        assert ExperimentConfig().n_sites == 4


def test_cost_report_writes_records_as_objects(tmp_path):
    assert main(["cost", "--qmax", "3", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "cost_report.json").read_text())
    for key in ("report", "consistency", "chain", "divergence"):
        assert isinstance(doc[key], dict)
    assert isinstance(doc["report"]["inputs"], dict)
    assert doc["report"]["inputs"]["n_sites"] == 4
    assert doc["divergence"]["q_values"] == [2, 3]
    assert doc["gate_table"]
    for row in doc["gate_table"]:
        assert isinstance(row, dict)
        assert list(row) == ["algorithm", "expression", "polylog_pending", "value"]
