import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from clfrd.special import (
    kolmogorov_sf,
    lambert_w0,
    ln_gamma,
    lower_incomplete_gamma,
    regularized_gamma_p,
    regularized_gamma_q,
)


def bisect_w(z, lo=0.0, hi=1.0, tol=1e-12):
    # independent oracle: bisection on w e^w - z
    f = lambda w: w * math.exp(w) - z
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_unit_argument_vs_bisection(self):
        expected = bisect_w(1.0)
        assert lambert_w0(1.0) == pytest.approx(expected, abs=1e-11)
        assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, abs=1e-12)

    def test_branch_point(self):
        assert lambert_w0(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-6)

    def test_residual_over_domain(self):
        z = np.concatenate([
            np.linspace(-math.exp(-1.0) + 1e-6, 2.0, 2000),
            np.logspace(1, 6, 2000),
        ])
        w = lambert_w0(z)
        residual = np.abs(w * np.exp(w) - z) / np.maximum(1.0, np.abs(z))
        assert residual.max() <= 1e-10

    @pytest.mark.parametrize("z", [1e305, 1e308, np.finfo(float).max])
    def test_log_space_beyond_exp_700(self, z):
        # w e^w overflows here; the answer must come from w + log w = log z
        # without an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = lambert_w0(z)
            assert abs(w + math.log(w) - math.log(z)) <= 1e-15 * w
            np.testing.assert_array_equal(lambert_w0(np.array([1.0, z])), [lambert_w0(1.0), w])

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.5)
        with pytest.raises(ValueError):
            lambert_w0(float("nan"))

    def test_array_shape_and_scalar(self):
        out = lambert_w0(np.array([0.0, 1.0, 10.0]))
        assert out.shape == (3,)
        assert isinstance(lambert_w0(1.0), float)


class TestLnGamma:
    @pytest.mark.parametrize(
        "s,expected",
        [(1.0, 0.0), (5.0, math.log(24.0)), (0.5, math.log(math.sqrt(math.pi)))],
    )
    def test_known_values(self, s, expected):
        assert ln_gamma(s) == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            ln_gamma(0.0)
        with pytest.raises(ValueError):
            ln_gamma(-2.0)


class TestLowerIncompleteGamma:
    def test_exponential_special_case(self):
        for x in (0.1, 0.5, 1.0, 3.0, 10.0):
            assert lower_incomplete_gamma(1.0, x) == pytest.approx(-math.expm1(-x), rel=1e-13)

    def test_zero(self):
        assert lower_incomplete_gamma(3.7, 0.0) == 0.0

    def test_against_quadrature(self):
        expected = quad(lambda t: math.sqrt(t) * math.exp(-t), 0.0, 2.0, epsabs=1e-14)[0]
        assert lower_incomplete_gamma(1.5, 2.0) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.5, 7.0, 20.0])
    def test_limit_is_gamma(self, s):
        assert lower_incomplete_gamma(s, 50.0 * s) == pytest.approx(
            math.exp(ln_gamma(s)), rel=1e-9
        )

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 30.0, 400)
        vals = [lower_incomplete_gamma(2.3, float(x)) for x in xs]
        assert np.all(np.diff(vals) >= 0.0)

    def test_regularized_complement(self):
        for s, x in [(0.7, 0.2), (3.0, 2.0), (10.0, 30.0)]:
            assert regularized_gamma_p(s, x) + regularized_gamma_q(s, x) == pytest.approx(1.0, abs=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            lower_incomplete_gamma(-1.0, 2.0)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(1.0, -2.0)


class TestKolmogorovSf:
    def test_at_zero(self):
        assert kolmogorov_sf(0.0) == 1.0

    def test_tail(self):
        assert kolmogorov_sf(5.0) < 1e-10

    def test_published_anchor(self):
        # sqrt(48) * 0.1190-ish statistic from the first benchmark dataset
        assert kolmogorov_sf(0.8276) == pytest.approx(0.5048, abs=0.02)

    def test_nonincreasing(self):
        # slack matches the 1e-12 series truncation granularity
        grid = np.arange(0.0, 3.0001, 0.05)
        vals = [kolmogorov_sf(float(t)) for t in grid]
        assert np.all(np.diff(vals) <= 2e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            kolmogorov_sf(-0.1)
