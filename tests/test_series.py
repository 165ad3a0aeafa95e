"""Cross-checks of the Poisson-mixture series against quadrature and mpmath.

The law is the minimum of k = 1 + j LFR(alpha, beta) lifetimes with
j ~ Poisson(lam), so both series are one-index Poisson sums of closed-form
LFR tail integrals.  Each must match ``mrl``/``mit`` (adaptive quadrature)
and mpmath to near machine precision wherever it reports convergence, and
flag a result whose truncation or rounding bound misses 1e-10 relative.
"""

import math

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clfrd import Clfrd, LinearFailureRate, median, mit, mit_series, mrl, mrl_series, raw_moment
from scipy.integrate import quad

from conftest import PARAMETER_SETS


@pytest.mark.parametrize(
    "params",
    [
        (2.0, 2.0, 2.0), (2.0, 2.0, 0.5), (2.0, 0.5, 2.0), (2.0, 0.5, 0.5),
        (0.5, 2.0, 2.0), (0.5, 2.0, 0.5), (0.5, 0.5, 2.0), (0.5, 0.5, 0.5),
    ],
)
def test_mit_series_matches_quadrature(params):
    m = Clfrd(*params)
    result = mit_series(m, 0.5)
    assert result.converged
    assert result.value == pytest.approx(mit(m, 0.5), abs=1e-10)


def test_mit_series_larger_age():
    m = Clfrd(2.0, 2.0, 2.0)
    result = mit_series(m, 2.0)
    assert result.converged
    assert result.value == pytest.approx(mit(m, 2.0), abs=1e-9)


_MIT_FLAG_CASES = [
    pytest.param(params, x, id=f"{x}-params{i}")
    for x in (1.0, 2.0)
    for i, params in enumerate([(0.5, 0.5, 0.5), (2.0, 2.0, 2.0), (0.5, 2.0, 2.0)])
] + [
    pytest.param((1e-4, 1.0, 1.0), 3.0, id="3.0-alpha1e-4"),
    pytest.param((1e-8, 1.0, 1.0), 8.0, id="8.0-alpha1e-8"),
]


@pytest.mark.parametrize("params, x", _MIT_FLAG_CASES)
def test_mit_series_accurate_whenever_flagged_converged(params, x):
    m = Clfrd(*params)
    result = mit_series(m, x)
    if result.converged:
        assert result.value == pytest.approx(mit(m, x), abs=1e-9)


def test_mit_series_domain():
    with pytest.raises(ValueError):
        mit_series(Clfrd(2, 2, 2), 0.0)


@pytest.mark.parametrize("x", [1e-6, 1e-5])
def test_mit_series_flags_the_cancelled_complement(x):
    # x - T_k(0) + T_k(x) cancels to about cdf(x) x / 2 at small ages
    result = mit_series(Clfrd(0.5, 0.5, 0.5), x)
    assert not result.converged
    assert result.tail_estimate > 1e-10 * result.value


class TestMrlSeries:
    def test_accurate_when_slope_is_small(self):
        m = Clfrd(2.0, 0.05, 0.3)
        result = mrl_series(m, 0.5)
        assert result.value == pytest.approx(mrl(m, 0.5), abs=max(1e-8, 3 * result.tail_estimate))

    def test_reduces_to_linear_failure_rate_for_tiny_lam(self):
        a, b = 2.0, 0.05
        m = Clfrd(a, b, 1e-10)
        lfr = LinearFailureRate(a, b)
        x = 0.5
        lfr_mrl = quad(lfr.sf, x, 40.0, epsabs=1e-12)[0] / lfr.sf(x)
        result = mrl_series(m, x)
        assert result.value == pytest.approx(lfr_mrl, abs=max(1e-8, 3 * result.tail_estimate))

    def test_agreement_at_moderate_parameters(self):
        m = Clfrd(0.5, 0.5, 0.5)
        result = mrl_series(m, 0.5)
        assert result.converged
        assert result.value == pytest.approx(mrl(m, 0.5), abs=1e-12)

    @pytest.mark.parametrize("params", PARAMETER_SETS)
    def test_mean_at_age_zero(self, params):
        m = Clfrd(*params)
        result = mrl_series(m, 0.0)
        assert result.converged
        assert result.value == pytest.approx(raw_moment(m, 1), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            mrl_series(Clfrd(2, 2, 2), -1.0)


# ---------------------------------------------------------------------------
# references in mpmath: the same mixture summed term by term, and the
# integrals of the survival function themselves


def loop_series(model, x):
    """(mrl, mit) as the Poisson mixture summed term by term at 30 digits."""
    with mpmath.workdps(30):
        a, b, lam, x = (mpmath.mpf(v) for v in (model.alpha, model.beta, model.lam, x))
        y = a * x + b * x * x / 2
        sf = mpmath.exp(-y + lam * mpmath.expm1(-y))

        def tail(k, t):  # integral of e^(-k (a s + b s^2 / 2)) over [t, inf)
            return (mpmath.sqrt(mpmath.pi / (2 * k * b)) * mpmath.erfc(mpmath.sqrt(k / (2 * b)) * (a + b * t))
                    * mpmath.exp(k * a * a / (2 * b)))

        upper = spent = mpmath.mpf(0)
        j = 0
        while True:
            p = mpmath.exp(j * mpmath.log(lam) - lam - mpmath.loggamma(j + 1))
            upper += p * tail(j + 1, x)
            spent += p * (tail(j + 1, 0) - tail(j + 1, x))
            if j > lam and p < mpmath.mpf(10) ** -35:
                break
            j += 1
        return float(upper / sf), float((x - spent) / -mpmath.expm1(mpmath.log(sf)))


def integral_references(model, x, dps):
    """(mrl, mit) by mpmath quadrature of the survival function; mit is nan at x = 0."""
    with mpmath.workdps(dps):
        a, b, lam, x = (mpmath.mpf(v) for v in (model.alpha, model.beta, model.lam, x))

        def log_sf(t):
            y = a * t + b * t * t / 2
            return -y + lam * mpmath.expm1(-y)

        # breakpoints from the decay length at x, where the hazard is
        # highest for large lam, out to 100 of the slowest decay lengths
        fast = 1 / ((a + b * x) * (1 + lam * mpmath.exp(-(a * x + b * x * x / 2))))
        slow = min(1 / (a + b * x), mpmath.sqrt(2 / b))
        points = [x]
        while fast < 100 * slow:
            points.append(x + fast)
            fast *= 4
        points += [x + 100 * slow, mpmath.inf]
        at_x = log_sf(x)
        residual = mpmath.quad(lambda t: mpmath.exp(log_sf(t) - at_x), points)
        if x == 0:
            return float(residual), math.nan
        inactive = mpmath.quad(lambda t: -mpmath.expm1(log_sf(t)), [0, x / 2, x]) / -mpmath.expm1(at_x)
        return float(residual), float(inactive)


@pytest.mark.parametrize("params", PARAMETER_SETS)
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_series_match_the_scalar_loop(params, x):
    m = Clfrd(*params)
    want_mrl, want_mit = loop_series(m, x)
    assert mrl_series(m, x).value == pytest.approx(want_mrl, rel=1e-12, abs=0.0)
    assert mit_series(m, x).value == pytest.approx(want_mit, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("params", PARAMETER_SETS)
@pytest.mark.parametrize("x", [0.1, 0.5, 2.0])
def test_series_match_mpmath_integrals_on_the_published_triples(params, x):
    m = Clfrd(*params)
    want_mrl, want_mit = integral_references(m, x, 30)
    for result, want in ((mrl_series(m, x), want_mrl), (mit_series(m, x), want_mit)):
        assert result.converged
        assert result.value == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam", [1e4, 1e5, 1e7])
def test_series_at_large_lam_match_mpmath_integrals(lam):
    # the Poisson weights' ratio recurrence keeps no term that grows with lam
    m = Clfrd(1.0, 1.0, lam)
    for x in (0.0, median(m)):
        result = mrl_series(m, x)
        assert result.converged
        assert result.value == pytest.approx(integral_references(m, x, 30)[0], rel=1e-12, abs=0.0)
    result = mit_series(m, 0.5)
    assert result.converged
    assert result.value == pytest.approx(integral_references(m, 0.5, 30)[1], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam, x", [(1e3, 0.3), (1e3, 0.5), (1e4, 0.01), (1e5, 0.005), (1e7, 5e-6)])
def test_mrl_past_the_last_quantile_at_large_lam(lam, x):
    # past the 1 - 1e-12 quantile sf(x) is tiny and its decay length 1 / hazard(x)
    # far below 1: the integrand is scaled by sf(x) and the first leg sized by hazard(x)
    m = Clfrd(1.0, 1.0, lam)
    assert x > m.quantile(1.0 - 1e-12)
    assert mrl(m, x) == pytest.approx(integral_references(m, x, 30)[0], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam", [1e4, 1e5, 1e6, 1e7])
@pytest.mark.parametrize("x", [0.5, 2.0])
def test_mit_sees_the_rise_of_the_cdf_at_large_lam(lam, x):
    # the cdf rises within about 1/lam of 0, far inside the range [0, x]
    m = Clfrd(1.0, 1.0, lam)
    assert mit(m, x) == pytest.approx(integral_references(m, x, 30)[1], rel=1e-12, abs=0.0)


log_uniform = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)


@settings(max_examples=40)
@given(log_uniform, log_uniform, st.floats(math.log(1e-6), math.log(1e3)).map(math.exp),
       st.floats(math.log(1e-6), math.log(10.0)).map(math.exp))
@example(1.0, 1.0, 1e3, 1e-6)
@example(1.0, 100.0, 0.1, 1e-3)
@example(100.0, 1.0, 1e3, 10.0)
def test_converged_series_are_within_1e10_of_mpmath(alpha, beta, lam, x):
    assume(alpha * alpha / beta <= 1e4)
    m = Clfrd(alpha, beta, lam)
    want_mrl, want_mit = integral_references(m, x, 20)
    for result, want in ((mrl_series(m, x), want_mrl), (mit_series(m, x), want_mit)):
        if result.converged:
            assert result.value == pytest.approx(want, rel=1e-10, abs=0.0)
