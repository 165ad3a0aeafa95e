import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import settings

from clfrd import Clfrd, StudyConfig, builtin, run_study

# property tests draw the same examples on every run and keep no example database
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")

# the eight parameter triples used across the recovery study and invariants
PARAMETER_SETS = (
    (2.0, 2.0, 2.0),
    (2.0, 2.0, 0.5),
    (2.0, 0.5, 2.0),
    (2.0, 0.5, 0.5),
    (0.5, 2.0, 2.0),
    (0.5, 2.0, 0.5),
    (0.5, 0.5, 2.0),
    (0.5, 0.5, 0.5),
)


@pytest.fixture(scope="session")
def parameter_sets():
    return tuple(Clfrd(*p) for p in PARAMETER_SETS)


@pytest.fixture(scope="session")
def students():
    return builtin("students").values


@pytest.fixture(scope="session")
def appliances():
    return builtin("appliances").values


@pytest.fixture(scope="session")
def devices():
    return builtin("devices").values


@pytest.fixture(scope="session")
def recovery_study():
    """Full 8x3 study at 500 replications; shared by every consumer."""
    start = time.time()
    summaries = run_study(StudyConfig(replications=500, base_seed=20250809))
    return summaries, time.time() - start


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def rel_err(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b)) / (1.0 + np.abs(np.asarray(b))))


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
        # mit = x * integral over s in [0, 1] of cdf(x s) / cdf(x): an O(1)
        # integrand, where cdf(t) itself on [0, x] can lie below quad's
        # absolute tolerance and stop it early
        cdf_x = -mpmath.expm1(at_x)
        inactive = x * mpmath.quad(lambda s: -mpmath.expm1(log_sf(x * s)) / cdf_x, [0, 0.5, 1])
        return float(residual), float(inactive)
