"""Grouped Hamiltonian construction, derived constants, JSON round trip."""

import json
import math
import re
import sys
from functools import reduce
from itertools import repeat
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpfkit import hamiltonians
from mpfkit.cli import N_SWEEP_SIZES
from mpfkit.hamiltonians import (
    family_constants,
    family_one_norm,
    heisenberg_chain,
    load_spec,
    long_range_zz_chain,
    make_spec,
)
from mpfkit.pauli import PauliTerm
from oracles import (
    every_site_family_constants,
    g_scaling_report,
    groups_commute,
    spec_to_document,
)


class TestHeisenberg:
    def test_four_site_structure_constants(self):
        spec = heisenberg_chain(4, coupling=1.0, field=0.0)
        assert spec.n_sites == 4
        assert spec.n_groups == 2
        assert spec.locality == 2
        # interior site sits on two bonds, three strings each
        assert spec.extensiveness == pytest.approx(6.0)
        # 3 bonds x 3 strings x |J|=1
        assert spec.total_one_norm == pytest.approx(9.0)
        assert groups_commute(spec)

    def test_field_adds_a_group(self):
        spec = heisenberg_chain(4, coupling=1.0, field=0.5)
        assert spec.n_groups == 3
        assert spec.extensiveness == pytest.approx(6.5)
        assert spec.group_sums[2].one_norm() == pytest.approx(2.0)

    def test_two_sites_collapse_odd_group(self):
        spec = heisenberg_chain(2, coupling=1.0, field=0.3)
        # single bond: the odd-bond group is empty and must be dropped
        assert spec.n_groups == 2
        assert spec.group_sums[0].locality() == 2
        assert spec.group_sums[1].locality() == 1

    def test_group_partition_reconstructs_full_sum(self):
        spec = heisenberg_chain(5, coupling=0.7, field=0.2)
        full = spec.full_sum()
        total = {PauliTerm(5, x, z, c).label: c for (x, z), c in full.items()}
        acc: dict[str, complex] = {}
        for t, _ in spec.terms:
            acc[t.label] = acc.get(t.label, 0.0) + t.coeff
        assert set(acc) == set(total)
        for label, c in acc.items():
            assert total[label] == pytest.approx(c)

    def test_within_group_commutation_heisenberg(self):
        # XX, YY, ZZ on one bond mutually commute; disjoint bonds trivially so
        spec = heisenberg_chain(6, coupling=1.0, field=0.4)
        assert groups_commute(spec)

    def test_periodic_small_ring_flags_noncommuting_group(self):
        spec = heisenberg_chain(3, coupling=1.0, periodic=True)
        assert not groups_commute(spec)

    def test_extensiveness_independent_of_length(self):
        gs = {n: heisenberg_chain(n).extensiveness for n in (4, 6, 9)}
        assert gs[4] == gs[6] == gs[9] == pytest.approx(6.0)


class TestLongRange:
    def test_four_site_extensiveness(self):
        spec = long_range_zz_chain(4, exponent=2.0)
        # interior site: distance-1 both ways plus one distance-2 partner
        assert spec.extensiveness == pytest.approx(1.0 + 1.0 + 0.25)
        assert spec.n_groups == 3
        assert spec.locality == 2
        assert groups_commute(spec)

    def test_steep_exponent_approaches_nearest_neighbor(self):
        spec = long_range_zz_chain(6, exponent=50.0)
        assert spec.extensiveness == pytest.approx(2.0, abs=1e-10)

    def test_group_labels_are_distances(self):
        spec = long_range_zz_chain(5, exponent=1.0)
        for d in range(1, 5):
            items = list(spec.group_sums[d - 1].items())
            assert len(items) == 5 - d
            for (x, z), _ in items:
                support = x | z
                lo, hi = (support & -support).bit_length(), support.bit_length()
                assert hi - lo == d

    @pytest.mark.parametrize(
        "n, base, exponent, d",
        [(4, 1.0, -1074.0, 3), (4, 0.0, -700.0, 3), (64, -2.0, -180.0, 63)],
    )
    def test_underflowing_power_is_refused(self, n, base, exponent, d):
        # the chain and its constants refuse the first distance d whose
        # d**exponent is 0, as the quotient's float is then unknown
        message = f"{float(d)}**{exponent} underflows to 0"
        for route in (
            lambda: long_range_zz_chain(n, exponent, base),
            lambda: family_constants("long-range-zz", n, base, 0.0, exponent),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                route()

    @pytest.mark.parametrize(
        "n, base, exponent, d",
        [(3, 1.0, -1074.0, 2), (64, 1e307, -1.0, 18), (60, -2.0, -180.0, 52)],
    )
    def test_overflowing_coupling_is_refused(self, n, base, exponent, d):
        # without an underflowing power, the first distance d whose coupling
        # overflows is refused; make_spec never meets the inf coefficient
        message = f"{base}/{float(d)}**{exponent} overflows, so the coupling at "
        for route in (
            lambda: long_range_zz_chain(n, exponent, base),
            lambda: family_constants("long-range-zz", n, base, 0.0, exponent),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                route()


def _constants(spec):
    return spec.locality, spec.extensiveness, spec.n_groups


def _counted_folds(monkeypatch) -> list:
    """Records every fold that :mod:`mpfkit.hamiltonians` makes from now on."""
    folds = []

    def counted(*args):
        folds.append(args)
        return reduce(*args)

    monkeypatch.setattr(hamiltonians, "reduce", counted)
    return folds


# negative, zero and non-round values; exact equality must hold for all
_COUPLINGS = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


class TestFamilyConstants:
    """The streamed constants equal the built spec's, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 256),
        coupling=_COUPLINGS,
        field=st.one_of(st.just(0.0), _COUPLINGS),
    )
    @example(n=2, coupling=1.0, field=0.0)
    @example(n=2, coupling=-0.7, field=0.3)
    @example(n=3, coupling=0.1, field=0.0)
    @example(n=256, coupling=-1.2345678901, field=0.8)
    def test_heisenberg_matches_make_spec(self, n, coupling, field):
        spec = heisenberg_chain(n, coupling=coupling, field=field)
        got = family_constants("heisenberg", n, coupling=coupling, field=field)
        assert got == _constants(spec)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 256),
        exponent=st.one_of(st.just(0.0), st.floats(-3.0, 4.0)),
        base=_COUPLINGS,
    )
    @example(n=2, exponent=2.0, base=1.0)
    @example(n=256, exponent=0.5, base=-0.73)
    @example(n=256, exponent=1.0, base=1.0)
    @example(n=97, exponent=3.0, base=1.9)
    @example(n=128, exponent=0.0, base=1.0)
    @example(n=65, exponent=-1.0, base=0.6)
    @example(n=48, exponent=-1e-12, base=1.0)
    @example(n=48, exponent=1e-12, base=1.0)
    def test_long_range_matches_make_spec(self, n, exponent, base):
        spec = long_range_zz_chain(n, exponent, base=base)
        got = family_constants(
            "long-range-zz", n, coupling=base, exponent=exponent
        )
        assert got == _constants(spec)

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["heisenberg", "long-range-zz"]),
        n=st.integers(2, 64),
        coupling=st.one_of(st.just(0.0), _COUPLINGS),
        field=st.one_of(st.just(0.0), _COUPLINGS),
        exponent=st.floats(-3.0, 6.0),
    )
    @example(family="heisenberg", n=2, coupling=-0.7, field=-0.3, exponent=2.0)
    @example(family="long-range-zz", n=64, coupling=-1.3, field=0.8, exponent=-3.0)
    @example(family="long-range-zz", n=17, coupling=0.0, field=0.8, exponent=0.0)
    def test_one_norm_matches_make_spec(self, family, n, coupling, field, exponent):
        # the long-range family has no field, whatever field is passed
        if family == "heisenberg":
            spec = heisenberg_chain(n, coupling=coupling, field=field)
        else:
            spec = long_range_zz_chain(n, exponent, base=coupling)
        got = family_one_norm(family, n, coupling, field, exponent)
        assert got == spec.total_one_norm

    def test_rejects_unknown_family_and_short_chain(self):
        with pytest.raises(ValueError, match="family"):
            family_constants("file", 4)
        with pytest.raises(ValueError, match="two sites"):
            family_constants("heisenberg", 1)


class TestScreenedFold:
    """Folding only site 0 and the middle site when the weights are monotone
    in distance gives the every-site fold's constants, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 1024),
        exponent=st.floats(-2.0, 6.0),
        base=_COUPLINGS,
    )
    @example(n=1024, exponent=0.5, base=1.0)
    @example(n=1024, exponent=1.0, base=1.0)
    @example(n=1024, exponent=3.0, base=1.0)
    def test_long_range_matches_every_site_fold(self, n, exponent, base):
        args = ("long-range-zz", n, base, 0.0, exponent)
        assert family_constants(*args) == every_site_family_constants(*args)

    @pytest.mark.parametrize(
        "n, base, exponent",
        [(64, 1e306, -1.0), (1024, 1e305, -1.0), (1024, 1e308, 0.5)],
    )
    def test_non_finite_sum_folds_every_site(self, n, base, exponent):
        # every coupling is finite, but a site's sum is not: the dominating
        # site's fold overflows as the every-site maximum does
        args = ("long-range-zz", n, base, 0.0, exponent)
        got = family_constants(*args)
        assert got == every_site_family_constants(*args)
        assert got[1] == math.inf

    @pytest.mark.parametrize("n", [2, 3, 17, 1024])
    def test_zero_coupling_ties_everywhere(self, n):
        args = ("long-range-zz", n, 0.0, 0.0, 1.0)
        assert family_constants(*args) == every_site_family_constants(*args)
        assert family_constants(*args)[1] == 0.0
        if n <= 17:
            assert family_constants(*args) == _constants(
                long_range_zz_chain(n, 1.0, base=0.0)
            )

    @pytest.mark.parametrize("n", [2, 3, 8, 11])
    def test_steep_exponent_ties(self, n):
        # 1/d^300 vanishes against the nearest neighbours, so sites tie
        args = ("long-range-zz", n, 1.0, 0.0, 300.0)
        got = family_constants(*args)
        assert got == every_site_family_constants(*args)
        assert got == _constants(long_range_zz_chain(n, 300.0))

    def test_steep_exponent_overflow_is_kept(self):
        # 11.0 ** 300 overflows; both routes raise, as the built spec does
        for route in (family_constants, every_site_family_constants):
            with pytest.raises(OverflowError):
                route("long-range-zz", 64, 1.0, 0.0, 300.0)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("family", ["heisenberg", "long-range-zz"])
    def test_shortest_chains(self, family, n):
        args = (family, n, -0.7, 0.3, 1.5)
        assert family_constants(*args) == every_site_family_constants(*args)

    @pytest.mark.parametrize("exponent", [0.5, 1.0, 3.0, 0.0, -1.0])
    def test_few_exact_folds_per_size(self, monkeypatch, exponent):
        # monotone weights fold site 0 and the middle site, one fold each
        folds = _counted_folds(monkeypatch)
        for n in (*N_SWEEP_SIZES, 2**16):
            for family in ("long-range-zz", "heisenberg"):
                folds.clear()
                family_constants(family, n, 1.0, 0.8, exponent)
                assert len(folds) == len({0, (n - 1) // 2}), (family, n)

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_weights_that_are_not_monotone_fold_every_site(self, monkeypatch, n):
        # distance 2 outweighs its neighbours and distance 6 comes back up,
        # so site 2 (two bonds of distance 2 and one of distance 6) holds g
        def bumpy(n_sites, exponent, base):
            weights = {2: 5.0, 6: 4.0}
            return [complex(base * weights.get(d, 1.0)) for d in range(1, n_sites)]

        monkeypatch.setattr(hamiltonians, "_zz_couplings", bumpy)
        built = _constants(long_range_zz_chain(n, 2.0))
        folds = _counted_folds(monkeypatch)
        assert family_constants("long-range-zz", n, 1.0, 0.0, 2.0) == built
        assert len(folds) == n


@st.composite
def _repeated_sums(draw):
    """(x, a, n) with x, a >= 0; half the weights are ties, an odd multiple
    of half an ulp of a value at or above x, which the sums pass through,
    and half the starts lie within a few thousand ulps below a binade's end."""
    if draw(st.booleans()):
        x = draw(st.floats(0.0, 1e308))
    else:
        below = draw(st.integers(1, 3000))
        x = math.ldexp(2**53 - below, draw(st.integers(-1074, 970)))
    n = draw(st.integers(0, 5000))
    if draw(st.booleans()):
        scale = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 2.0**20]))
        half_ulp = math.ulp(min(x * scale, sys.float_info.max)) / 2
        a = (2 * draw(st.integers(0, 64)) + 1) * half_ulp
    else:
        a = draw(st.floats(0.0, 1e308))
    return x, a, n


class TestRepeatedAddition:
    """``_add_repeatedly`` jumps runs of equal increments, and is the plain
    one-addition-at-a-time fold bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_repeated_sums())
    @example((1.0, 2.0**-53, 4000))  # a tie from an even significand: saturates
    @example((1.0 + 2.0**-52, 2.0**-53, 4000))  # from an odd one: one step, then saturates
    @example((1.0, 3 * 2.0**-53, 4000))  # an odd tie multiple: rounds up to 2 ulps
    @example((1.0, 1e-17, 3000))  # below half an ulp: x + a == x at once
    @example((0.0, 0.1, 5000))  # crosses a dozen binades
    @example((0.0, 5e-324, 5000))  # the subnormal grid: every sum exact
    @example((1e308, 1e306, 1000))  # overflows to inf
    @example((1.7e308, 0.0, 10))
    def test_matches_the_plain_fold(self, case):
        x, a, n = case
        got = hamiltonians._add_repeatedly(x, a, n)
        assert got == reduce(add, repeat(a, n), x)

    @pytest.mark.parametrize("exponent", [3.0, 0.5, -1.0, 2.0])
    def test_long_range_one_norm_matches_the_plain_fold(self, exponent):
        # 2,999 distinct weights, each over its n - d bonds
        n = 3000
        weights = [abs(c) for c in hamiltonians._zz_couplings(n, exponent, 1.37)]
        plain = 0.0
        for d, weight in enumerate(weights, 1):
            plain = reduce(add, repeat(weight, n - d), plain)
        assert family_one_norm("long-range-zz", n, 1.37, 0.0, exponent) == plain


class TestDocumentForm:
    def test_round_trip(self, tmp_path):
        spec = heisenberg_chain(3, coupling=0.9, field=0.1)
        doc = spec_to_document(spec)
        path = tmp_path / "ham.json"
        path.write_text(json.dumps(doc))
        back = load_spec(path)
        assert back.n_sites == spec.n_sites
        assert back.n_groups == spec.n_groups
        assert back.extensiveness == pytest.approx(spec.extensiveness)
        assert back.total_one_norm == pytest.approx(spec.total_one_norm)
        assert [t.label for t, _ in back.terms] == [t.label for t, _ in spec.terms]

    def test_rejects_gapped_group_labels(self):
        doc = {
            "n_sites": 2,
            "terms": [
                {"pauli": "XX", "coeff": 1.0, "group": 1},
                {"pauli": "ZZ", "coeff": 1.0, "group": 3},
            ],
        }
        with pytest.raises(ValueError, match="consecutive"):
            load_spec(doc)

    def test_rejects_bad_label_length(self):
        doc = {
            "n_sites": 3,
            "terms": [{"pauli": "XX", "coeff": 1.0, "group": 1}],
        }
        with pytest.raises(ValueError, match="length"):
            load_spec(doc)

    @pytest.mark.parametrize(
        "key, value",
        [("n_sites", 2.9), ("n_sites", True), ("group", 1.7), ("group", True)],
    )
    def test_rejects_non_integral_counts(self, key, value):
        # int() would run a 2-site or group-1 Hamiltonian in their place
        doc = {
            "n_sites": 2,
            "terms": [
                {"pauli": "XX", "coeff": 1.0, "group": 1},
                {"pauli": "ZI", "coeff": 0.5, "group": 2},
            ],
        }
        if key == "n_sites":
            doc["n_sites"] = value
        else:
            doc["terms"][0]["group"] = value
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            load_spec(doc)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("coeff", True, "coeff must be a number"),
            ("coeff", "x", "coeff must be a number"),
            ("coeff", None, "coeff must be a number"),
            ("pauli", ["X", "X"], "pauli must be a string"),
            ("pauli", 5, "pauli must be a string"),
        ],
    )
    def test_rejects_mistyped_term_values(self, key, value, message):
        # float() would run a boolean coefficient as 1.0
        doc = {"n_sites": 2, "terms": [{"pauli": "XX", "coeff": 1.0, "group": 1}]}
        doc["terms"][0][key] = value
        with pytest.raises(ValueError, match=f"bad term entry #0: {message}"):
            load_spec(doc)

    def test_numbers_spelled_as_text_are_read(self):
        doc = {"n_sites": "2", "terms": [{"pauli": "XX", "coeff": "0.5", "group": "1"}]}
        spec = load_spec(doc)
        assert spec.n_sites == 2 and spec.terms[0][0].coeff == 0.5

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            load_spec({"terms": []})

    def test_rejects_complex_coefficient(self):
        with pytest.raises(ValueError, match="non-real"):
            make_spec(1, [(PauliTerm.from_label("X", 1j), 1)])

    @pytest.mark.parametrize("coeff", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_coefficient(self, coeff):
        # json reads NaN and Infinity; PauliSum would drop a NaN term silently
        text = (
            '{"n_sites": 2, "terms": [{"pauli": "XX", "coeff": 1.0, "group": 1},'
            f' {{"pauli": "ZI", "coeff": {coeff}, "group": 2}}]}}'
        )
        with pytest.raises(ValueError, match="non-finite coefficient .* on ZI"):
            load_spec(json.loads(text))


class TestGScaling:
    def test_shallow_power_law_regime(self):
        # small chains still feel the constant offset in sum(1/sqrt(d));
        # the fitted exponent settles onto 1 - exponent only at larger sizes
        report = g_scaling_report(
            lambda n: long_range_zz_chain(n, exponent=0.5), [64, 128, 256, 512]
        )
        assert report.regime == "power"
        assert report.power_slope == pytest.approx(0.5, abs=0.1)

    def test_finite_range_regime(self):
        report = g_scaling_report(
            lambda n: heisenberg_chain(n), [8, 16, 32, 64]
        )
        assert report.regime == "constant"
        assert abs(report.power_slope) <= 1e-12

    def test_critical_exponent_is_logarithmic(self):
        report = g_scaling_report(
            lambda n: long_range_zz_chain(n, exponent=1.0), [8, 16, 32, 64, 128]
        )
        assert report.regime == "logarithmic"

    def test_g_values_recorded(self):
        sizes = [4, 8, 16]
        report = g_scaling_report(
            lambda n: long_range_zz_chain(n, exponent=2.0), sizes
        )
        assert report.sizes == tuple(sizes)
        expected = [long_range_zz_chain(n, 2.0).extensiveness for n in sizes]
        assert np.allclose(report.g_values, expected)
