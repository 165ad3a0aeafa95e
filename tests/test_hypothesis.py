"""Property-based checks of the distribution over the whole parameter space.

Parameters and observations are drawn log-uniform over [1e-6, 1e6];
every quantile list holds the extreme levels 0 and 1 - 2^-53.  The
monotonicity property draws lam log-uniform over [1e-6, 1e5] and adds
levels log-uniform down to 1e-300.
"""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from clfrd import Clfrd
from clfrd.distributions import lambert_w0

log_uniform = st.floats(math.log(1e-6), math.log(1e6)).map(math.exp)
levels = st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30).map(
    lambda qs: [0.0, 1.0 - 2.0**-53, *qs])
tail_levels = st.lists(
    st.one_of(st.floats(0.0, 1.0, exclude_max=True),
              st.floats(math.log(1e-300), math.log(0.5)).map(math.exp)),
    max_size=30).map(lambda qs: sorted([0.0, 1.0 - 2.0**-53, *qs]))


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
