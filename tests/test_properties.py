import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from clfrd import (
    Clfrd,
    HazardShape,
    PdfShape,
    SeededStream,
    hazard_shape,
    lr_monotone_check,
    median,
    mit,
    mrl,
    order_stat_pdf,
    pdf_shape,
    raw_moment,
    sample_inverse,
)

from conftest import PARAMETER_SETS, integral_references

# the published triples and two where the mass sits far below age 1
MEAN_CASES = PARAMETER_SETS + ((1.0, 1.0, 703.0), (1.0, 1.0, 1e5))

# published reference tables: residual life and inactivity time at age 0.5
MRL_TABLE = {
    (2.0, 2.0, 2.0): 0.2211234,
    (2.0, 2.0, 0.5): 0.2668270,
    (2.0, 0.5, 2.0): 0.2994618,
    (2.0, 0.5, 0.5): 0.3773817,
    (0.5, 2.0, 2.0): 0.2831307,
    (0.5, 2.0, 0.5): 0.3962282,
    (0.5, 0.5, 2.0): 0.5214610,
    (0.5, 0.5, 0.5): 0.7728661,
}
MIT_TABLE = {
    (2.0, 2.0, 2.0): 0.3592062,
    (2.0, 2.0, 0.5): 0.3090133,
    (2.0, 0.5, 2.0): 0.3578331,
    (2.0, 0.5, 0.5): 0.3114150,
    (0.5, 2.0, 2.0): 0.2714062,
    (0.5, 2.0, 0.5): 0.2417515,
    (0.5, 0.5, 2.0): 0.2763928,
    (0.5, 0.5, 0.5): 0.2556945,
}

# mrl at ages 0.5, 1, 2, mit at 0.5, 1, 2, and raw moments 1-2, from the
# quadrature over the public sf/cdf/pdf methods (repr of each float)
QUADRATURE_VALUES = {
    (2.0, 2.0, 2.0): (0.22112344158245384, 0.21592158812842338, 0.15858369028361424, 0.3592062402745745, 0.8270604223856429, 1.8193869370272162, 0.18070292296945695, 0.07092651244277969),
    (2.0, 2.0, 0.5): (0.2668270102506259, 0.2236712462548347, 0.15862265032397474, 0.3090133011839446, 0.7228375108188994, 1.6939119792819817, 0.3064650161462755, 0.1740086482821821),
    (2.0, 0.5, 2.0): (0.29946203710314095, 0.3380168736435859, 0.315193151089286, 0.3578331223703863, 0.8168078836328123, 1.7984231716770844, 0.20353034573835868, 0.10108666761990538),
    (2.0, 0.5, 0.5): (0.37738170414539224, 0.36427637475444186, 0.31675002375185723, 0.3114150248591442, 0.7123531195666744, 1.647858085937467, 0.36019791315401106, 0.26617141706684383),
    (0.5, 2.0, 2.0): (0.2831307099710317, 0.2679809234069543, 0.20347403254164445, 0.27140616366559495, 0.6621772028333291, 1.619975674407566, 0.3817096554795765, 0.24147753064190536),
    (0.5, 2.0, 0.5): (0.3962282412499075, 0.30993811929557363, 0.20446423497477245, 0.24175152848624817, 0.5547365333723804, 1.4306086855737445, 0.5760960337529624, 0.4988906636982519),
    (0.5, 0.5, 2.0): (0.5214661074434637, 0.515611545180915, 0.5039739766866193, 0.2763927586285451, 0.6222209421450093, 1.4828274804147263, 0.5648734967394611, 0.5995824400478522),
    (0.5, 0.5, 0.5): (0.7728661353227407, 0.68391603702276, 0.5524173436137448, 0.2556945361819028, 0.5427584676633337, 1.2565686987708555, 0.9023176900867494, 1.3431193421254333),
}


class TestPdfShape:
    def test_low_alpha_is_unimodal(self):
        assert pdf_shape(Clfrd(0.1, 2.0, 1.0)) is PdfShape.UNIMODAL

    def test_high_alpha_is_decreasing(self):
        assert pdf_shape(Clfrd(2.0, 0.5, 0.5)) is PdfShape.DECREASING

    def test_boundary_goes_decreasing(self):
        # alpha = 1, lam = 1, beta = 2.5 puts the threshold exactly at 1.0
        m = Clfrd(1.0, 2.5, 1.0)
        assert m.beta * (1 + m.lam) / (m.lam + (1 + m.lam) ** 2) == 1.0
        assert pdf_shape(m) is PdfShape.DECREASING

    def test_agrees_with_numeric_scan(self):
        rng = np.random.default_rng(20257)
        for _ in range(200):
            m = Clfrd(*np.exp(rng.uniform(np.log(0.1), np.log(5.0), 3)))
            label = pdf_shape(m)
            x = np.linspace(0.0, m.quantile(0.99), 2000)
            g = m.pdf(x)
            d = np.diff(g)
            scale = 1e-9 * np.max(np.abs(g))
            if label is PdfShape.DECREASING:
                assert np.all(d <= scale)
            else:
                # rises off zero before the eventual decay
                assert d[0] > -scale and np.any(d > scale)


def scan_hazard_pattern(m: Clfrd, points: int = 2000) -> str:
    """Sign pattern of h' from a dense scan: '+', '-+', '+-+', ...

    The window runs far past the 99% quantile because the final upturn of a
    bathtub can sit in the extreme tail.
    """
    x = np.linspace(0.0, m.quantile(1.0 - 1e-9), points)
    h = m.hazard(x)
    d = np.diff(h)
    tol = 1e-9 * np.max(np.abs(h))
    signs = []
    for v in d:
        if abs(v) <= tol:
            continue
        s = "+" if v > 0 else "-"
        if not signs or signs[-1] != s:
            signs.append(s)
    return "".join(signs) or "+"


_ALLOWED_PATTERNS = {
    HazardShape.INCREASING: {"+"},
    HazardShape.BATHTUB: {"-+"},
    HazardShape.INVERSE_BATHTUB: {"+-+"},
}


def near_classifier_boundary(m: Clfrd, tol: float = 1e-4) -> bool:
    # sign scans cannot resolve shapes whose turning values sit within
    # numerical noise of the classifier thresholds
    a2 = m.alpha**2
    h0 = m.beta * (1 + m.lam) - m.lam * a2
    checks = [abs(h0) / (m.beta * (1 + m.lam))]
    if m.lam > 0.5:
        knee = (3 * m.beta - a2) / (2 * m.beta)
        checks.append(abs(math.log(2 * m.lam) - knee))
    return min(checks) < tol


class TestHazardShape:
    def test_bathtub_example(self):
        assert hazard_shape(Clfrd(2.0, 0.5, 2.0)) is HazardShape.BATHTUB

    def test_increasing_example(self):
        assert hazard_shape(Clfrd(0.5, 2.0, 2.0)) is HazardShape.INCREASING

    def test_increasing_when_lam_at_most_half_and_alpha2_below_3beta(self):
        # h' has no dip at lam <= 1/2, and h0 > beta (1 - 2 lam) >= 0; the
        # last three are published triples
        for params in ((0.5, 2.0, 0.3), (2.0, 2.0, 0.5), (0.5, 2.0, 0.5), (0.5, 0.5, 0.5)):
            assert hazard_shape(Clfrd(*params)) is HazardShape.INCREASING, params

    @pytest.mark.parametrize("params", PARAMETER_SETS)
    def test_study_sets_match_sign_scan(self, params):
        m = Clfrd(*params)
        assert scan_hazard_pattern(m) in _ALLOWED_PATTERNS[hazard_shape(m)]

    def test_random_triples_match_sign_scan(self):
        rng = np.random.default_rng(99173)
        checked = 0
        for _ in range(200):
            m = Clfrd(*np.exp(rng.uniform(np.log(0.1), np.log(5.0), 3)))
            label = hazard_shape(m)
            if near_classifier_boundary(m):
                continue
            pattern = scan_hazard_pattern(m)
            assert pattern in _ALLOWED_PATTERNS[label], (m, pattern, label)
            checked += 1
        assert checked > 100


@pytest.mark.parametrize("params,expected", sorted(QUADRATURE_VALUES.items()))
def test_quadrature_on_raw_integrands_keeps_its_values(params, expected):
    m = Clfrd(*params)
    got = [mrl(m, x) for x in (0.5, 1.0, 2.0)] + [mit(m, x) for x in (0.5, 1.0, 2.0)]
    got += [raw_moment(m, 1), raw_moment(m, 2)]
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


class TestMrl:
    @pytest.mark.parametrize("params,expected", sorted(MRL_TABLE.items()))
    def test_reference_table(self, params, expected):
        assert mrl(Clfrd(*params), 0.5) == pytest.approx(expected, abs=1e-4)

    def test_at_zero_equals_mean(self):
        for params in MEAN_CASES:
            m = Clfrd(*params)
            assert mrl(m, 0.0) == raw_moment(m, 1), params

    def test_domain(self):
        for x in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                mrl(Clfrd(2, 2, 2), x)

    @pytest.mark.parametrize("params,x", [((2, 2, 2), 80.0), ((1, 1, 1e4), 0.3), ((0.5, 0.5, 0.5), 40.0)])
    def test_where_sf_underflows(self, params, x):
        # the mixture's weights are normalized over their window, so
        # sf(x) == 0 costs nothing
        m = Clfrd(*params)
        assert mrl(m, x) == pytest.approx(integral_references(m, x, 30)[0], rel=1e-10)

    @pytest.mark.parametrize("lam", [703.0, 1e3, 1e5])
    def test_at_large_lam(self, lam):
        # the mass sits far below age 1, and the Poisson window of the
        # mixture is hundreds of counts wide
        m = Clfrd(1.0, 1.0, lam)
        expected = quad(m.sf, 0.0, m.quantile(1.0 - 1e-15), epsabs=1e-15, limit=500)[0]
        assert mrl(m, 0.0) == pytest.approx(expected, rel=1e-9)
        assert raw_moment(m, 1) == pytest.approx(expected, rel=1e-9)

    def test_alpha_direction_in_table(self):
        # smaller initial hazard leaves more life after age 0.5
        for beta in (2.0, 0.5):
            for lam in (2.0, 0.5):
                assert MRL_TABLE[(0.5, beta, lam)] > MRL_TABLE[(2.0, beta, lam)]


class TestMit:
    @pytest.mark.parametrize("params,expected", sorted(MIT_TABLE.items()))
    def test_reference_table(self, params, expected):
        assert mit(Clfrd(*params), 0.5) == pytest.approx(expected, abs=1e-4)

    @pytest.mark.parametrize("x", [5e-324, 1e-200, 0.1, 0.5, 1.0, 2.5, 5.0])
    def test_bounds(self, x):
        m = Clfrd(0.5, 0.5, 2.0)
        if x == 5e-324:
            # the true value lies just below half the smallest subnormal,
            # so it rounds to 0.0
            assert 0.0 <= mit(m, x) <= x
            assert mit(Clfrd(0.1, 1.0, 0.1), x) == 0.0
            return
        assert 0.0 < mit(m, x) < x
        if x < 1e-100:
            # the cdf is linear there; its integral, ~x^2, underflows
            assert mit(m, x) == pytest.approx(x / 2, rel=1e-12)

    # the Gauss-Legendre leg, at ages where mit_series flags its cancelled
    # complement, then the leading-term leg where cdf(x) is tiny or subnormal
    @pytest.mark.parametrize("params,ages", [
        *((params, (1e-6, 1e-4, 1e-2)) for params in PARAMETER_SETS),
        ((1e-300, 1.0, 1.0), (1e-160,)),
        ((0.1, 1.0, 0.1), (1e-310,)),
        ((2.0, 2.0, 2.0), (1e-310,)),
    ], ids=[f"params{i}" for i in range(len(PARAMETER_SETS) + 3)])
    def test_small_ages_match_mpmath(self, params, ages):
        m = Clfrd(*params)
        for x in ages:
            assert mit(m, x) == pytest.approx(integral_references(m, x, 30)[1], rel=1e-12, abs=0.0)

    def test_continuity(self):
        m = Clfrd(2.0, 0.5, 0.5)
        xs = np.linspace(0.05, 3.0, 60)
        vals = np.array([mit(m, float(x)) for x in xs])
        assert np.max(np.abs(np.diff(vals))) < 0.1

    def test_domain(self):
        for x in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                mit(Clfrd(2, 2, 2), x)


class TestRawMoment:
    def test_first_moment_is_mrl_at_zero(self):
        for params in MEAN_CASES:
            m = Clfrd(*params)
            assert raw_moment(m, 1) == mrl(m, 0.0), params

    # the continued fraction serves all but the published triple, which the
    # forward recurrence serves; each fails where the other serves
    @pytest.mark.parametrize("params", [pytest.param((1.0, 1.0, lam), id=str(lam)) for lam in (1e3, 1e5, 1e7)]
                             + [pytest.param((20.0, 0.01, 1.0), id="alpha20-beta0.01"),
                                pytest.param((0.5, 2.0, 2.0), id="published-0.5-2-2")])
    def test_first_two_moments_match_mpmath(self, params):
        # E[U^r] = r * integral of t^(r-1) sf(t), at 40 digits, with
        # breakpoints at powers of 4 times the decay length 1 / hazard(0),
        # out to 100 of the slowest decay lengths
        with mpmath.workdps(40):
            a, b, lam = (mpmath.mpf(v) for v in params)

            def sf(t):
                y = a * t + b * t * t / 2
                return mpmath.exp(-y + lam * mpmath.expm1(-y))

            points, fast, slow = [mpmath.mpf(0)], 1 / (a * (1 + lam)), min(1 / a, mpmath.sqrt(2 / b))
            while fast < 100 * slow:
                points.append(fast)
                fast *= 4
            points += [100 * slow, mpmath.inf]
            mean = mpmath.quad(sf, points)
            second = 2 * mpmath.quad(lambda t: t * sf(t), points)
        m = Clfrd(*params)
        assert raw_moment(m, 1) == pytest.approx(float(mean), rel=2e-13, abs=0.0)
        assert raw_moment(m, 2) == pytest.approx(float(second), rel=2e-13, abs=0.0)

    @pytest.mark.parametrize("params", PARAMETER_SETS)
    def test_variance_positive(self, params):
        m = Clfrd(*params)
        assert raw_moment(m, 2) - raw_moment(m, 1) ** 2 > 0.0

    def test_monte_carlo_cross_check(self):
        m = Clfrd(2, 2, 2)
        draws = sample_inverse(m, 10**6, SeededStream(314159))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(raw_moment(m, 1) - draws.mean()) <= 3.0 * se

    def test_domain(self):
        for r in (0, math.nan, math.inf):
            with pytest.raises(ValueError):
                raw_moment(Clfrd(2, 2, 2), r)


class TestMedian:
    def test_equals_half_quantile(self):
        m = Clfrd(2, 2, 2)
        assert median(m) == pytest.approx(m.quantile(0.5), abs=1e-12)

    def test_round_trip(self):
        m = Clfrd(0.5, 2.0, 0.5)
        assert m.cdf(median(m)) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("lam", [703.0, 710.0, 1e3, 1e5])
    def test_large_lam(self, lam):
        m = Clfrd(1.0, 1.0, lam)
        assert median(m) == m.quantile(0.5)
        assert m.cdf(median(m)) == pytest.approx(0.5, abs=1e-9)

    def test_against_bisection(self):
        m = Clfrd(2, 2, 2)
        lo, hi = 0.0, 10.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if m.cdf(mid) < 0.5 else (lo, mid)
        assert median(m) == pytest.approx(0.5 * (lo + hi), abs=1e-10)


class TestOrderStatPdf:
    def test_minimum_closed_form(self):
        m = Clfrd(1.5, 0.5, 1.0)
        n = 7
        for x in (0.0, 0.3, 1.0, 2.0):
            expected = n * m.pdf(x) * m.sf(x) ** (n - 1)
            assert order_stat_pdf(m, n, 1, x) == pytest.approx(expected, abs=1e-12)

    def test_single_sample_identity(self):
        m = Clfrd(2, 2, 2)
        assert order_stat_pdf(m, 1, 1, 0.7) == pytest.approx(m.pdf(0.7), rel=1e-14)

    def test_normalization(self):
        m = Clfrd(2, 2, 2)
        total = quad(lambda t: order_stat_pdf(m, 5, 3, t), 0.0, m.quantile(1 - 1e-12),
                     epsabs=1e-10, limit=200)[0]
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_index_bounds(self):
        m = Clfrd(2, 2, 2)
        # integral floats count, as in raw_moment
        assert order_stat_pdf(m, 5.0, 3, 1.0) == order_stat_pdf(m, 5, 3, 1.0)
        for n, k in ((5, 0), (5, 6), (5, 2.5), (5.5, 3), (math.nan, 1), (math.inf, 1), (5, math.nan)):
            with pytest.raises(ValueError):
                order_stat_pdf(m, n, k, 1.0)


class TestLrMonotoneCheck:
    GRID = np.arange(0.0, 10.0001, 0.01)

    def test_identical_models(self):
        m = Clfrd(1, 1, 1)
        assert lr_monotone_check(m, m, self.GRID)

    def test_proportional_ordered_pair(self):
        assert lr_monotone_check(Clfrd(1, 1, 1), Clfrd(2, 2, 2), self.GRID)

    def test_crossed_pair_matches_direct_scan(self):
        m1, m2 = Clfrd(2, 1, 1), Clfrd(1, 2, 2)
        expected = bool(
            np.all(np.diff(m1.log_pdf(self.GRID) - m2.log_pdf(self.GRID)) >= -1e-12)
        )
        assert lr_monotone_check(m1, m2, self.GRID) is expected

    def test_grid_validation(self):
        m = Clfrd(1, 1, 1)
        with pytest.raises(ValueError):
            lr_monotone_check(m, m, [3.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            lr_monotone_check(m, m, [-1.0, 0.0, 1.0])
