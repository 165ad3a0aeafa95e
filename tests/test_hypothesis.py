"""Property-based checks of the distribution over the whole parameter space.

Parameters and observations are drawn log-uniform over [1e-6, 1e6];
every quantile list holds the extreme levels 0 and 1 - 2^-53.  The
monotonicity property draws lam log-uniform over [1e-6, 1e5] and adds
levels log-uniform down to 1e-300.  The finite-difference kernel of the
local fit is checked on blocks of up to six rows, each parameter
log-uniform over [e^-20, e^25], so that some take the fallback step,
with off-orthant values mixed in.
"""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from clfrd import Clfrd
from clfrd.distributions import lambert_w0
from clfrd.estimation import _loglik_score, _neg_loglik_fd, _sample_sums

log_uniform = st.floats(math.log(1e-6), math.log(1e6)).map(math.exp)
levels = st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30).map(
    lambda qs: [0.0, 1.0 - 2.0**-53, *qs])
tail_levels = st.lists(
    st.one_of(st.floats(0.0, 1.0, exclude_max=True),
              st.floats(math.log(1e-300), math.log(0.5)).map(math.exp)),
    max_size=30).map(lambda qs: sorted([0.0, 1.0 - 2.0**-53, *qs]))
fd_parameter = st.floats(-20.0, 25.0).map(math.exp)  # past 2^27, 1e-8 vanishes against it
off_orthant = st.sampled_from([0.0, -1.0, -1e-9, -math.inf, math.inf, math.nan])


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


@given(st.lists(st.floats(0.0, math.exp(60.0)), min_size=1, max_size=30))
def test_lambert_w0_residual_on_the_quantile_domain(zs):
    z = np.array(zs)
    w = lambert_w0(z)
    assert np.all(np.abs(w * np.exp(w) - z) <= 1e-12 * z)


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
        assert f[r] == -_loglik_score(t, x[r])[0]
        for k in range(3):
            point = t.copy()
            point[k] = up[k]
            assert grad[r, k] == (-_loglik_score(point, x[r])[0] - f[r]) / (up[k] - t[k])
