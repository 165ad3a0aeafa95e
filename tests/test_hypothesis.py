"""Property-based checks of the distribution over the whole parameter space.

Parameters and observations are drawn log-uniform over [1e-6, 1e6];
every quantile list holds the extreme levels 0 and 1 - 2^-53.  The
monotonicity property draws lam log-uniform over [1e-6, 1e5] and adds
levels log-uniform down to 1e-300.  The finite-difference kernel of the
local fit is checked on blocks of up to six rows, each parameter
log-uniform over [e^-20, e^25], so that some take the fallback step,
with off-orthant values mixed in.

The likelihood-kernel properties draw samples with ties (repeated
values) at the scales 1e-6, 1 and 1e6, and compounded-model parameters
log-uniform over [e^-20, e^20].  The score is checked against central
differences of the kernel's own value with relative step 1e-5, within
1e-9 times the sum of the magnitudes of the log-likelihood's terms; the
differences' rounding and truncation are each about 2e-11 of that sum,
and 2e4 random draws (6e4 components) reached 5e-11.  The baseline
families' scores are held to the same tolerance, on the same samples and
parameter range; 5000 draws per family reached 6e-11, and 4.5e-10 for the
Rayleigh, whose ``x^2 / (2 sigma^2)`` term has a central-difference
truncation of 4e-10 of its size.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scipy.stats import ks_2samp

from clfrd import MODEL_REGISTRY, Clfrd, SeededStream, sample_compound, sample_inverse
from clfrd.estimation import _FAMILIES, _loglik_score, _neg_loglik_fd, _sample_sums

from test_estimation import expanded_form_loglik

log_uniform = st.floats(math.log(1e-6), math.log(1e6)).map(math.exp)
levels = st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30).map(
    lambda qs: [0.0, 1.0 - 2.0**-53, *qs])
tail_levels = st.lists(
    st.one_of(st.floats(0.0, 1.0, exclude_max=True),
              st.floats(math.log(1e-300), math.log(0.5)).map(math.exp)),
    max_size=30).map(lambda qs: sorted([0.0, 1.0 - 2.0**-53, *qs]))
fd_parameter = st.floats(-20.0, 25.0).map(math.exp)  # past 2^27, 1e-8 vanishes against it
off_orthant = st.sampled_from([0.0, -1.0, -1e-9, -math.inf, math.inf, math.nan])
kernel_parameter = st.floats(-20.0, 20.0).map(math.exp)


@st.composite
def tied_samples(draw):
    # repeated values in any order, at the scale 1e-6, 1 or 1e6
    values = draw(st.lists(st.floats(math.log(0.01), math.log(100.0)).map(math.exp), min_size=1, max_size=30))
    ties = draw(st.lists(st.sampled_from(values), max_size=30))
    return np.array(draw(st.permutations(values + ties))) * draw(st.sampled_from([1e-6, 1.0, 1e6]))


@given(log_uniform, log_uniform, log_uniform, levels)
def test_batched_quantile_equals_scalar_calls(alpha, beta, lam, qs):
    m = Clfrd(alpha, beta, lam)
    np.testing.assert_array_equal(m.quantile(np.array(qs)), [m.quantile(q) for q in qs])


@given(log_uniform, log_uniform, st.floats(math.log(1e-6), math.log(1e5)).map(math.exp), tail_levels)
@example(1.0, 1.0, math.exp(0.5), [1e-17, 2.0**-52])
def test_quantile_is_nondecreasing(alpha, beta, lam, qs):
    # up to one rounding: adjacent levels can dip by an ulp, as the
    # closed-form linear-failure-rate quantile does too
    x = Clfrd(alpha, beta, lam).quantile(np.array(qs))
    assert np.all(np.diff(x) >= -2.0 * np.finfo(float).eps * x[1:])


@given(log_uniform, log_uniform, log_uniform, levels)
def test_cdf_inverts_quantile(alpha, beta, lam, qs):
    m = Clfrd(alpha, beta, lam)
    q = np.array(qs)
    assert np.all(np.abs(m.cdf(m.quantile(q)) - q) <= 1e-9)


@given(log_uniform, log_uniform, log_uniform, log_uniform)
def test_cdf_and_sf_sum_to_one(alpha, beta, lam, x):
    m = Clfrd(alpha, beta, lam)
    assert abs(m.cdf(x) + m.sf(x) - 1.0) <= 4.0 * np.finfo(float).eps


@given(log_uniform, log_uniform, log_uniform, log_uniform)
@example(1.0, 1.0, 1.0, 1e3)  # sf underflows to 0 here
def test_hazard_is_finite_and_positive(alpha, beta, lam, x):
    h = Clfrd(alpha, beta, lam).hazard(x)
    assert math.isfinite(h) and h > 0.0


@given(log_uniform, log_uniform, st.floats(math.log(1e-6), math.log(1e4)).map(math.exp))
@example(1.0, 1.0, 1e2)
@example(1.0, 1.0, 1e3)
@example(1.0, 1.0, 1e4)
def test_samplers_agree_up_to_large_lam(alpha, beta, lam):
    # both samplers end in the same increasing linear-failure-rate map of
    # (alpha, beta), so the K-S statistic depends only on lam and the seeds
    m = Clfrd(alpha, beta, lam)
    inverse = sample_inverse(m, 20000, SeededStream(7))
    compound = sample_compound(m, 20000, SeededStream(8))
    for draws in (inverse, compound):
        assert np.all(np.isfinite(draws) & (draws >= 0.0))
    assert ks_2samp(inverse, compound).pvalue > 1e-3


@given(st.lists(st.tuples(fd_parameter, fd_parameter, fd_parameter), min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2), off_orthant), max_size=3),
       st.integers(1, 64), st.integers(0, 2**32 - 1))
@example([(2.0, 2.0, 2.0), (3e8, 0.5, 2.0)], [(0, 2, -1e-9)], 100, 0)
def test_fd_block_equals_its_rows_and_loglik_at_each_point(rows, off_cells, n, seed):
    theta = np.array(rows)
    for r, k, value in off_cells:
        theta[r % len(theta), k] = value
    x = np.random.default_rng(seed).uniform(0.01, 3.0, (len(theta), n))
    with np.errstate(invalid="ignore"):  # inf - inf in the gradients of off-orthant rows
        f, grad = _neg_loglik_fd(theta, x, _sample_sums(x))
        for r in range(len(theta)):
            value, g = _neg_loglik_fd(theta[r], x[r])
            assert value == f[r]
            np.testing.assert_array_equal(g, grad[r])
    for r, t in enumerate(theta):
        if not np.all((t > 0.0) & (t < math.inf)):
            assert f[r] == math.inf
            continue
        # scipy's step: absolute 1e-8, or relative where 1e-8 vanishes
        up = t + np.where(t + 1e-8 - t == 0.0, math.sqrt(np.finfo(float).eps) * np.maximum(1.0, t), 1e-8)
        assert f[r] == -expanded_form_loglik(t, x[r])
        for k in range(3):
            point = t.copy()
            point[k] = up[k]
            assert grad[r, k] == (-expanded_form_loglik(point, x[r]) - f[r]) / (up[k] - t[k])


@given(st.lists(st.tuples(kernel_parameter, kernel_parameter, kernel_parameter), min_size=1, max_size=10),
       tied_samples())
def test_clfrd_kernel_stack_equals_its_rows(rows, x):
    theta = np.array(rows)
    loglik, score = _loglik_score(theta, x)
    for r, t in enumerate(theta):
        value, gradient = _loglik_score(t, x)
        assert float(loglik[r]).hex() == float(value).hex()
        assert [g.hex() for g in score[r].tolist()] == [g.hex() for g in gradient.tolist()]


@given(kernel_parameter, kernel_parameter, kernel_parameter, tied_samples())
def test_clfrd_score_matches_central_differences_of_its_value(alpha, beta, lam, x):
    theta = np.array([alpha, beta, lam])
    score = _loglik_score(theta, x)[1]
    y = alpha * x + 0.5 * beta * x * x
    le = lam * np.exp(-y)
    # the sum of the magnitudes of the log-likelihood's terms, plus one per
    # observation, which bounds the third log-scale derivatives of its
    # log(alpha + beta x) and log1p terms
    magnitude = x.size * (1.0 + lam) + np.sum(y + le + np.abs(np.log(alpha + beta * x)) + np.log1p(le))
    for i in range(3):
        up, down = theta.copy(), theta.copy()
        up[i] *= 1.0 + 1e-5
        down[i] *= 1.0 - 1e-5
        fd = (_loglik_score(up, x)[0] - _loglik_score(down, x)[0]) / (up[i] - down[i])
        assert abs(theta[i] * (score[i] - fd)) <= 1e-9 * magnitude, i


# the sum of the magnitudes of each baseline log-likelihood's terms, plus one
# per observation (and |s - 1| more for the GE shape), which bounds the third
# log-scale derivatives of its log terms
BASELINE_MAGNITUDE = {
    "lfrd": lambda t, x: x.size + np.sum(np.abs(np.log(t[0] + t[1] * x)) + t[0] * x + 0.5 * t[1] * x * x),
    "ged": lambda t, x: x.size * (1.0 + abs(t[1] - 1.0)) + np.sum(
        abs(math.log(t[0] * t[1])) + t[0] * x + abs(t[1] - 1.0) * np.abs(np.log(-np.expm1(-t[0] * x)))),
    "rd": lambda t, x: x.size + np.sum(np.abs(np.log(x)) + 2.0 * abs(math.log(t[0])) + x * x / (2.0 * t[0] ** 2)),
    "ed": lambda t, x: x.size + np.sum(abs(math.log(t[0])) + t[0] * x),
}


@pytest.mark.parametrize("name", sorted(BASELINE_MAGNITUDE))
@given(kernel_parameter, kernel_parameter, tied_samples())
def test_baseline_score_matches_central_differences_of_its_value(name, first, second, x):
    theta = np.array([first, second][:len(MODEL_REGISTRY[name].param_names)])
    loglik_score = _FAMILIES[name].loglik_score
    score = loglik_score(theta, x)[1]
    magnitude = BASELINE_MAGNITUDE[name](theta, x)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] *= 1.0 + 1e-5
        down[i] *= 1.0 - 1e-5
        fd = (loglik_score(up, x)[0] - loglik_score(down, x)[0]) / (up[i] - down[i])
        assert abs(theta[i] * (score[i] - fd)) <= 1e-9 * magnitude, i
