"""The traced benchmark run wraps library functions by name.

``perfbench/layers.py`` replaces functions in the namespaces where their
callers look them up; a library change that unbinds one of those names
breaks the traced run.  This guard finds that with the library's own
tests, in about a second, instead of in the benchmark's slower smoke run.
"""

import sys
from pathlib import Path

from clfrd import distributions, properties, sampling, simulation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_name_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing

    tracer = tracing.Tracer()
    try:
        layers.instrument(tracer)  # AttributeError for a name no longer bound
    finally:
        tracer.uninstall()
    assert properties.lambert_w0 is distributions.lambert_w0
    assert simulation.sample_inverse is sampling.sample_inverse
