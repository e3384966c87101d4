"""Plain-float fits, residuals and Richardson weights against their oracles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpfkit.formulas import (
    MAX_J,
    build_mpf,
    closed_form_coefficients,
    fit_line,
    loglog_slope,
    vandermonde_residuals,
)
from oracles import (
    array_vandermonde_residuals,
    fraction_closed_form_coefficients,
    lstsq_fit_line,
)

_EPS = 2.0**-52
_COORDS = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


@st.composite
def _points(draw):
    n = draw(st.integers(2, 24))
    xs = draw(st.lists(_COORDS, min_size=n, max_size=n))
    ys = draw(st.lists(_COORDS, min_size=n, max_size=n))
    spread = max(xs) - min(xs)
    # a well-posed fit: the x values spread over more than their rounding
    if spread < 1e-3 * (1.0 + max(abs(x) for x in xs)):
        xs[-1] = xs[0] + 1.0
    return xs, ys


class TestFitLine:
    @settings(max_examples=200, deadline=None)
    @given(_points())
    def test_matches_lstsq(self, points):
        xs, ys = points
        slope, residual = fit_line(xs, ys)
        ref_slope, ref_residual = lstsq_fit_line(xs, ys)
        x0 = sum(xs) / len(xs)
        sxx = sum((x - x0) ** 2 for x in xs)
        scale = max(abs(y) for y in ys) + 1.0
        x_scale = max(abs(x) for x in xs) + 1.0
        # both solvers are backward stable: the slope is good to about
        # eps * cond, with cond ~ |x| sqrt(n) / sqrt(Sxx)
        slack = 1e3 * _EPS * len(xs) * scale * x_scale / math.sqrt(sxx)
        assert slope == pytest.approx(ref_slope, abs=slack)
        assert residual == pytest.approx(ref_residual, abs=1e3 * _EPS * len(xs) * scale)

    def test_exact_line_has_zero_residual(self):
        xs = [math.log(n) for n in (64, 128, 256, 512, 1024)]
        slope, residual = fit_line(xs, [5.0 / 12.0 * x - 3.0 for x in xs])
        assert slope == pytest.approx(5.0 / 12.0, abs=4 * _EPS)
        assert residual <= 1e-15

    def test_needs_two_distinct_x_values(self):
        with pytest.raises(ValueError, match="two distinct"):
            fit_line([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="equal length"):
            fit_line([1.0, 2.0], [0.0])

    def test_loglog_slope_keeps_points_above_the_floor(self):
        taus = [0.01 * 2.0**i for i in range(6)]
        errors = [1e-14, 1e-13] + [3.0 * t**3 for t in taus[2:]]
        slope, used = loglog_slope(taus, errors, floor=1e-12)
        assert used == 4
        assert slope == pytest.approx(3.0, abs=1e-12)


class TestVandermondeResiduals:
    @settings(max_examples=150, deadline=None)
    @given(
        ks=st.lists(st.integers(1, 40), min_size=1, max_size=MAX_J, unique=True),
        cs=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=MAX_J,
            max_size=MAX_J,
        ),
    )
    def test_matches_the_numpy_sum(self, ks, cs):
        ks = sorted(ks)
        cs = cs[: len(ks)]
        got = vandermonde_residuals(ks, cs)
        ref = array_vandermonde_residuals(ks, cs)
        assert len(got) == len(ref)
        for i, (a, b) in enumerate(zip(got, ref)):
            terms = sum(abs(c) * float(k) ** (-2.0 * i) for c, k in zip(cs, ks))
            assert a == pytest.approx(b, abs=4 * len(ks) * _EPS * (terms + 1.0))

    def test_solved_weights_pass_at_every_supported_size(self):
        for j in range(1, MAX_J + 1):
            spec = build_mpf(j)
            got = vandermonde_residuals(spec.k_values, spec.c_values)
            assert all(isinstance(r, float) for r in got)
            assert max(got) <= 1e-10

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            vandermonde_residuals([1, 2], [1.0])


class TestClosedFormCoefficients:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 60), min_size=1, max_size=MAX_J, unique=True))
    def test_integer_products_equal_the_fraction_loop(self, ks):
        ks = sorted(ks)
        got = closed_form_coefficients(ks)
        ref = fraction_closed_form_coefficients(ks)
        assert got == ref
        # the same Fractions, so every float weight is bitwise the same
        assert [float(c) for c in got] == [float(c) for c in ref]
