import time

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
