import math

import numpy as np
import pytest

from clfrd.distributions import lambert_w0

# the quantile's W argument lam (1 - q) e^lam stays in [0, e^60]
W_ARG_MAX = math.exp(60.0)


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

    def test_residual_over_domain(self):
        z = np.concatenate([
            np.linspace(0.0, 2.0, 2000),
            np.logspace(1, math.log10(W_ARG_MAX), 2000),
        ])
        w = lambert_w0(z)
        residual = np.abs(w * np.exp(w) - z) / np.maximum(1.0, np.abs(z))
        assert residual.max() <= 1e-10

    def test_array_shape_and_scalar(self):
        out = lambert_w0(np.array([0.0, 1.0, 10.0]))
        assert out.shape == (3,)
        assert isinstance(lambert_w0(1.0), float)

    def test_array_does_not_change_any_element(self):
        # both seeds, [0, e) and [e, e^60], mixed in one array
        z = np.concatenate([
            [0.0, 5e-324, math.e, W_ARG_MAX],
            np.linspace(0.0, math.e, 2001),
            np.exp(np.linspace(1.0, 60.0, 2001)),
        ])
        z = np.random.default_rng(5).permutation(z)
        alone = [lambert_w0(v) for v in z]
        np.testing.assert_array_equal(lambert_w0(z), alone)
        np.testing.assert_array_equal(lambert_w0(z[:4000].reshape(40, 100)).ravel(), alone[:4000])
