"""Random variate generation with reproducible, splittable streams.

Two independent mechanisms generate compounded-model variates: inverse
transform through the closed-form quantile, and the compound construction
itself (minimum of a shifted-Poisson number of linear-failure-rate draws).
Their agreement is a distribution-level cross-check used throughout the
test suite.

Streams are keyed by ``(seed, stream_index)`` through numpy's
``SeedSequence`` spawn mechanism, so any worker can reproduce any stream
independently of scheduling or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Clfrd, LifetimeModel

__all__ = ["DEFAULT_SEED", "SeededStream", "sample_inverse", "sample_compound"]

# the seed of the CLI's streams and of the recovery study when none is given
DEFAULT_SEED = 20250809


@dataclass(frozen=True)
class SeededStream:
    """Value-like handle for one reproducible random stream.

    Equal ``(seed, stream_index)`` pairs always produce identical variate
    sequences.  A single stream must not be shared mutably between
    concurrent workers; give each worker its own index instead.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("SeededStream: seed must fit in an unsigned 64-bit integer")
        if int(self.stream_index) < 0:
            raise ValueError("SeededStream: stream_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream_index),))
        return np.random.Generator(np.random.PCG64(ss))


def _check_count(n: int) -> int:
    if int(n) != n or n < 1:
        raise ValueError(f"sample count must be a positive integer, got {n}")
    return int(n)


def sample_inverse(model: LifetimeModel, n: int, stream: SeededStream) -> np.ndarray:
    """Draw n variates of any model by inverse transform of uniforms on [0, 1)."""
    n = _check_count(n)
    u = stream.generator().random(n)
    return np.asarray(model.quantile(u), dtype=float)


def sample_compound(model: Clfrd, n: int, stream: SeededStream) -> np.ndarray:
    """Draw n variates through the compound minimum construction.

    Per variate: N = 1 + Poisson(lam) shock counts, and the minimum of N
    unit exponentials mapped through the linear-failure-rate inverse.  The
    inverse is increasing and the minimum of N unit exponentials is a unit
    exponential divided by N, so each variate maps one exponential over its
    count: n draws of each kind at any lam.
    """
    n = _check_count(n)
    rng = stream.generator()
    counts = 1 + rng.poisson(model.lam, size=n)
    e = rng.exponential(size=n) / counts
    # the linear-failure-rate lifetime with cumulative hazard e
    return 2.0 * e / (model.alpha + np.sqrt(model.alpha**2 + 2.0 * model.beta * e))
