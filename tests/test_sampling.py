import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from clfrd import (
    Clfrd,
    Exponential,
    GeneralizedExponential,
    LinearFailureRate,
    Rayleigh,
    SeededStream,
    raw_moment,
    sample_compound,
    sample_inverse,
)

from conftest import PARAMETER_SETS


class TestSeededStream:
    def test_determinism(self):
        m = Clfrd(2, 2, 2)
        a = sample_inverse(m, 1000, SeededStream(123, 5))
        b = sample_inverse(m, 1000, SeededStream(123, 5))
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        m = Clfrd(2, 2, 2)
        a = sample_inverse(m, 1000, SeededStream(123, 0))
        b = sample_inverse(m, 1000, SeededStream(123, 1))
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            SeededStream(-1)
        with pytest.raises(ValueError):
            SeededStream(1, -2)


class TestInverseSampler:
    def test_count_validation(self):
        m = Clfrd(2, 2, 2)
        with pytest.raises(ValueError):
            sample_inverse(m, 0, SeededStream(1))

    def test_empirical_cdf_close(self):
        m = Clfrd(2, 2, 2)
        n = 10**5
        draws = np.sort(sample_inverse(m, n, SeededStream(77)))
        u = m.cdf(draws)
        i = np.arange(1, n + 1)
        distance = np.max(np.maximum(i / n - u, u - (i - 1) / n))
        assert distance < 1.95 / math.sqrt(n)

    def test_compound_matches_inverse(self):
        m = Clfrd(2, 2, 2)
        a = sample_inverse(m, 10**4, SeededStream(11))
        b = sample_compound(m, 10**4, SeededStream(12))
        assert ks_2samp(a, b).pvalue > 0.01

    def test_compound_matches_inverse_at_large_lam(self):
        # lam e^lam overflows float64 here
        m = Clfrd(1.0, 1.0, 1e3)
        a = sample_inverse(m, 10**4, SeededStream(13))
        b = sample_compound(m, 10**4, SeededStream(14))
        assert np.all(np.isfinite(a)) and np.all(a >= 0.0)
        assert ks_2samp(a, b).pvalue > 0.01


class TestCompoundSampler:
    def test_lfr_limit(self):
        a, b = 1.3, 0.6
        compound = sample_compound(Clfrd(a, b, 1e-9), 10**4, SeededStream(21))
        lfr = sample_inverse(LinearFailureRate(a, b), 10**4, SeededStream(22))
        assert ks_2samp(compound, lfr).pvalue > 0.01

    def test_nonnegative_and_finite(self):
        draws = sample_compound(Clfrd(0.5, 0.5, 3.0), 5000, SeededStream(3))
        assert np.all(draws >= 0.0) and np.all(np.isfinite(draws))

    def test_more_shocks_shift_minimum_down(self):
        # stochastic ordering in lam: larger shock counts kill earlier
        lo = sample_compound(Clfrd(1, 1, 0.2), 20000, SeededStream(9))
        hi = sample_compound(Clfrd(1, 1, 4.0), 20000, SeededStream(9))
        assert hi.mean() < lo.mean()

    @pytest.mark.parametrize("params", PARAMETER_SETS)
    def test_agreement_across_samplers(self, params):
        m = Clfrd(*params)
        a = sample_inverse(m, 10**4, SeededStream(1001))
        b = sample_compound(m, 10**4, SeededStream(2002))
        assert ks_2samp(a, b).pvalue > 0.001


class TestBaselineSampler:
    def test_exponential_mean(self):
        draws = sample_inverse(Exponential(1.0), 10**6, SeededStream(5))
        assert draws.mean() == pytest.approx(1.0, abs=0.01)

    def test_rayleigh_mean(self):
        draws = sample_inverse(Rayleigh(1.0), 10**6, SeededStream(6))
        assert draws.mean() == pytest.approx(math.sqrt(math.pi / 2.0), abs=0.01)

    def test_ged_shape_one_is_exponential(self):
        a = sample_inverse(GeneralizedExponential(0.8, 1.0), 10**4, SeededStream(7))
        b = sample_inverse(Exponential(0.8), 10**4, SeededStream(8))
        assert ks_2samp(a, b).pvalue > 0.01


def test_sample_moments_match_quadrature():
    m = Clfrd(2, 2, 2)
    draws = sample_inverse(m, 10**6, SeededStream(40))
    for r in (1, 2):
        moments = draws**r
        se = moments.std(ddof=1) / math.sqrt(draws.size)
        assert abs(moments.mean() - raw_moment(m, r)) <= 4.0 * se
