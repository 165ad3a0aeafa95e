import math

import numpy as np
import pytest
from scipy.integrate import quad

from clfrd import (
    Clfrd,
    Exponential,
    GeneralizedExponential,
    LinearFailureRate,
    Rayleigh,
)

from conftest import PARAMETER_SETS


def bisect_quantile(model, q, lo=0.0, hi=100.0, tol=1e-12):
    # independent oracle: bisection on cdf - q
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if model.cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestClfrdSurvival:
    def test_at_zero(self):
        assert Clfrd(2, 2, 2).sf(0.0) == 1.0

    def test_large_x_limit(self):
        assert Clfrd(2, 2, 2).sf(50.0) == pytest.approx(0.0, abs=1e-300)

    def test_closed_form_and_quadrature(self):
        m = Clfrd(2, 2, 2)
        direct = math.exp(-1.25 - 2.0 + 2.0 * math.exp(-1.25))
        assert m.sf(0.5) == pytest.approx(direct, rel=1e-14)
        integral = quad(m.pdf, 0.0, 0.5, epsabs=1e-12)[0]
        assert m.sf(0.5) == pytest.approx(1.0 - integral, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            Clfrd(2, 2, 2).sf(-0.1)


class TestClfrdCdf:
    def test_at_zero(self):
        assert Clfrd(2, 2, 2).cdf(0.0) == 0.0

    def test_complement_identity(self):
        m = Clfrd(0.5, 2, 0.5)
        x = np.linspace(0.0, 5.0, 101)
        np.testing.assert_allclose(m.cdf(x) + m.sf(x), 1.0, atol=1e-15)

    def test_round_trip(self):
        m = Clfrd(2, 2, 2)
        assert m.cdf(m.quantile(0.3)) == pytest.approx(0.3, abs=1e-10)


class TestClfrdPdf:
    @pytest.mark.parametrize(
        "params,expected", [((2, 2, 2), 6.0), ((0.5, 0.5, 0.5), 0.75)]
    )
    def test_density_at_origin(self, params, expected):
        # alpha (1 + lambda) at x = 0
        assert Clfrd(*params).pdf(0.0) == pytest.approx(expected, rel=1e-14)

    def test_matches_cdf_derivative(self):
        m = Clfrd(2, 2, 2)
        h = 1e-5
        fd = (m.cdf(0.5 + h) - m.cdf(0.5 - h)) / (2.0 * h)
        assert m.pdf(0.5) == pytest.approx(fd, rel=1e-6)

    def test_log_pdf_stable_far_out(self):
        # no overflow: every exponential argument is nonpositive
        m = Clfrd(2, 2, 2)
        val = m.log_pdf(200.0)
        assert np.isfinite(val) and val < -1e4


class TestClfrdHazard:
    def test_at_zero(self):
        m = Clfrd(2, 0.5, 2)
        assert m.hazard(0.0) == pytest.approx(m.alpha * (1 + m.lam), rel=1e-14)

    def test_asymptote(self):
        m = Clfrd(2, 0.5, 2)
        x = 50.0
        assert m.hazard(x) / (m.alpha + m.beta * x) == pytest.approx(1.0, abs=1e-12)

    def test_equals_pdf_over_sf(self):
        m = Clfrd(2, 0.5, 2)
        x = 1.0
        assert m.hazard(x) == pytest.approx(m.pdf(x) / m.sf(x), rel=1e-10)

    def test_identity_on_grid(self):
        m = Clfrd(0.5, 0.5, 2)
        x = np.linspace(0.0, 4.0, 200)
        np.testing.assert_allclose(m.hazard(x) * m.sf(x), m.pdf(x), rtol=1e-12)

    def test_finite_when_sf_underflows(self):
        m = Clfrd(2, 2, 2)
        assert m.sf(60.0) == 0.0
        assert np.isfinite(m.hazard(60.0))


class TestClfrdReversedHazard:
    def test_identity(self):
        m = Clfrd(2, 2, 2)
        for x in (0.2, 0.5, 1.5):
            assert m.reversed_hazard(x) * m.cdf(x) == pytest.approx(m.pdf(x), abs=1e-12)

    def test_vanishes_at_infinity(self):
        assert Clfrd(2, 2, 2).reversed_hazard(30.0) == pytest.approx(0.0, abs=1e-200)

    def test_component_ratio(self):
        m = Clfrd(2, 2, 2)
        assert m.reversed_hazard(0.5) == pytest.approx(m.pdf(0.5) / m.cdf(0.5), rel=1e-13)

    def test_domain_error_at_zero(self):
        with pytest.raises(ValueError):
            Clfrd(2, 2, 2).reversed_hazard(0.0)


class TestClfrdQuantile:
    def test_zero(self):
        assert Clfrd(2, 2, 2).quantile(0.0) == 0.0

    def test_median_formula(self):
        from clfrd import median

        m = Clfrd(1.3, 0.7, 2.2)
        assert median(m) == m.quantile(0.5)

    def test_against_bisection(self):
        m = Clfrd(2, 2, 2)
        assert m.quantile(0.9) == pytest.approx(bisect_quantile(m, 0.9), abs=1e-9)

    def test_domain(self):
        m = Clfrd(2, 2, 2)
        with pytest.raises(ValueError):
            m.quantile(-0.1)
        with pytest.raises(ValueError):
            m.quantile(1.0)

    @pytest.mark.parametrize("params", PARAMETER_SETS)
    def test_round_trip_grid(self, params):
        m = Clfrd(*params)
        q = np.arange(0.01, 0.995, 0.01)
        np.testing.assert_allclose(m.cdf(m.quantile(q)), q, atol=1e-9)

    @pytest.mark.parametrize("lam", [703.0, 710.0, 1e3, 1e5])
    def test_round_trip_at_large_lam(self, lam):
        # lam (1 - q) e^lam, the Lambert W argument of the closed form,
        # overflows here; the Newton solve for the shift never forms it
        m = Clfrd(1.0, 1.0, lam)
        q = np.concatenate([[0.0, 1e-9, 1e-6], np.arange(0.01, 0.995, 0.01), [1.0 - 1e-12, 1.0 - 2.0**-53]])
        x = m.quantile(q)
        assert np.all(np.diff(x) >= 0.0)
        np.testing.assert_allclose(m.cdf(x), q, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("lam", [60.0, 100.0, 300.0, 500.0, 650.0])
    def test_round_trip_past_the_log_space_switch(self, lam):
        # named for the log-space switch of the former Lambert W quantile,
        # which lost three digits to cancellation in this range
        m = Clfrd(1.0, 1.0, lam)
        rng = np.random.default_rng(int(lam))
        q = np.concatenate([[0.0, 1e-300, 0.5, 1.0 - 2.0**-53], rng.random(1000)])
        np.testing.assert_array_less(np.abs(m.cdf(m.quantile(q)) - q), 1e-12)
        for v in q[:4]:
            assert abs(m.cdf(m.quantile(v)) - v) <= 1e-12

    # lam 0.5 and 2 start the upper tail at t - lam, the others every level
    # at t / (1 + lam); at lam 57, q = 1 - 2^-53 takes the most steps, six
    @pytest.mark.parametrize("lam", [0.5, 2.0, 57.0, 100.0, 1000.0])
    def test_quantile_does_not_depend_on_its_batch(self, lam):
        m = Clfrd(1.0, 1.0, lam)
        q = np.append(np.linspace(0.0, 0.999999, 20001), 1.0 - 2.0**-53)
        picks = np.append(np.arange(0, q.size, 50), q.size - 1)
        np.testing.assert_array_equal(m.quantile(q)[picks], [m.quantile(v) for v in q[picks]])

    @pytest.mark.parametrize("lam", [1e-6, math.exp(0.5), 57.0, 1e3, 1e5])
    def test_lower_tail_against_mpmath(self, lam):
        mpmath = pytest.importorskip("mpmath")
        m = Clfrd(1.0, 1.0, lam)
        levels = [1e-300, 1e-100, 1e-17, 2.0**-52, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5,
                  0.9, 1.0 - 1e-9, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
        x = m.quantile(np.array(levels))
        with mpmath.workdps(50):
            big_lam = mpmath.mpf(lam)
            for q, got in zip(levels, x):
                # y = x + x^2 / 2 solves y - lam expm1(-y) = -log(1 - q)
                target = -mpmath.log1p(-mpmath.mpf(q))
                y = mpmath.findroot(lambda y: y - big_lam * mpmath.expm1(-y) - target,
                                    target / (1 + big_lam))
                want = float(2 * y / (1 + mpmath.sqrt(1 + 2 * y)))
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        assert m.quantile(2.0**-52) >= m.quantile(1e-17)


@pytest.mark.parametrize("params", PARAMETER_SETS)
def test_pdf_normalization(params):
    m = Clfrd(*params)
    hi = m.quantile(1.0 - 1e-10)
    total = quad(m.pdf, 0.0, hi, epsabs=1e-10, limit=200)[0]
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("params", PARAMETER_SETS)
def test_cdf_strictly_increasing(params):
    m = Clfrd(*params)
    x = np.linspace(0.0, m.quantile(0.999), 500)
    assert np.all(np.diff(m.cdf(x)) > 0.0)


def test_lfr_nesting_as_lam_vanishes():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, b = np.exp(rng.uniform(np.log(0.1), np.log(5.0), 2))
        lfr = LinearFailureRate(a, b)
        m = Clfrd(a, b, 1e-8)
        x = np.linspace(0.0, lfr.quantile(0.999), 1000)
        assert np.max(np.abs(m.pdf(x) - lfr.pdf(x))) <= 1e-6
        assert np.max(np.abs(m.cdf(x) - lfr.cdf(x))) <= 1e-6


class TestLikelihoodRatioOrder:
    GRID = np.arange(0.0, 10.0001, 0.01)

    def _is_monotone(self, small, large):
        d = small.log_pdf(self.GRID) - large.log_pdf(self.GRID)
        return bool(np.all(np.diff(d) >= -1e-12))

    def test_proportional_pair(self):
        assert self._is_monotone(Clfrd(1, 1, 1), Clfrd(2, 2, 2))

    def test_ordered_pairs_with_slope_condition(self):
        # componentwise order alone does not imply the likelihood-ratio
        # order; requiring beta1/alpha1 >= beta2/alpha2 does on this grid
        rng = np.random.default_rng(1234)
        for _ in range(50):
            a1, b1, l1 = np.exp(rng.uniform(np.log(0.1), np.log(5.0), 3))
            ra = float(np.exp(rng.uniform(0.0, 1.0)))
            rb = float(np.exp(rng.uniform(0.0, math.log(ra)))) if ra > 1.0 else 1.0
            small = Clfrd(a1, b1, l1)
            large = Clfrd(a1 * ra, b1 * rb, l1 * float(np.exp(rng.uniform(0.0, 1.0))))
            assert self._is_monotone(small, large)

    def test_counterexample_without_slope_condition(self):
        # ordered componentwise, yet the ratio dips: the slope condition
        # above is not vacuous
        small = Clfrd(0.2198, 0.2732, 0.3792)
        large = Clfrd(0.2317, 0.3786, 0.4624)
        assert not self._is_monotone(small, large)


class TestBaselines:
    def test_lfr_cdf_origin(self):
        assert LinearFailureRate(1.0, 2.0).cdf(0.0) == 0.0

    def test_rayleigh_half_life(self):
        assert Rayleigh(1.0).sf(math.sqrt(2.0 * math.log(2.0))) == pytest.approx(0.5, rel=1e-14)

    def test_ged_reduces_to_exponential(self):
        ged = GeneralizedExponential(0.7, 1.0)
        ed = Exponential(0.7)
        x = np.linspace(0.0, 8.0, 100)
        np.testing.assert_allclose(ged.cdf(x), ed.cdf(x), atol=1e-13)

    @pytest.mark.parametrize(
        "model",
        [
            LinearFailureRate(0.4, 1.3),
            Rayleigh(2.2),
            Exponential(0.8),
            GeneralizedExponential(0.5, 2.4),
        ],
    )
    def test_quantile_round_trip(self, model):
        q = np.arange(0.05, 0.96, 0.05)
        np.testing.assert_allclose(model.cdf(model.quantile(q)), q, atol=1e-12)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: Clfrd(0.0, 1.0, 1.0),
            lambda: Clfrd(1.0, -1.0, 1.0),
            lambda: Clfrd(1.0, 1.0, 0.0),
            lambda: LinearFailureRate(1.0, 0.0),
            lambda: Rayleigh(-1.0),
            lambda: Exponential(0.0),
            lambda: GeneralizedExponential(1.0, 0.0),
        ],
    )
    def test_parameter_validation(self, factory):
        with pytest.raises(ValueError):
            factory()

    def test_negative_x_rejected_everywhere(self):
        for model in (
            Clfrd(1, 1, 1),
            LinearFailureRate(1, 1),
            Rayleigh(1.0),
            Exponential(1.0),
            GeneralizedExponential(1.0, 2.0),
        ):
            with pytest.raises(ValueError):
                model.pdf(-1.0)
