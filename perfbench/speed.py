"""Host speed probe.

The benchmark runs on shared virtual machines whose speed drifts by up to
1.5x over seconds and minutes; no statistic over one run separates that
drift from the speed of the program.  So the benchmark times a fixed probe
of its own just before and just after every timed library call and scales
the call's time by ``REFERENCE_S`` over the mean of the two probe times.
Times then read as times on a host that runs the probe in
``REFERENCE_S``.

The probe is a small BFGS minimisation through scipy: of the probes tried
(interpreted arithmetic, small and large numpy arrays, object churn) it
tracked the library's own slowdowns best, because the library spends its
time in the same kind of code.  It is benchmark code and scipy, so a
change to the library cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import minimize

# median probe time on the 2-vCPU VM the benchmark was tuned on
REFERENCE_S = 8.0e-4
PROBE_REPEATS = 3

_START = np.zeros(3)


def _quadratic(x):
    return float(((x - 1.0) ** 2).sum())


def probe_seconds() -> float:
    """Median time of a few runs of the probe."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        minimize(_quadratic, _START, method="BFGS")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(fn, *args):
    """Run ``fn`` between two probes: (result, raw seconds, speed factor).

    The speed factor is below 1 on a slow host; raw seconds times the
    factor is the time at the reference host speed.
    """
    before = probe_seconds()
    t0 = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - t0
    return result, seconds, 2.0 * REFERENCE_S / (before + probe_seconds())
