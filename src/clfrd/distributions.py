"""Lifetime model contract and concrete distributions.

``Clfrd`` is the compounded linear failure rate model: the minimum of
``N`` i.i.d. linear-failure-rate lifetimes where ``N - 1`` is Poisson
distributed.  ``LinearFailureRate``, ``Rayleigh``, ``Exponential`` and
``GeneralizedExponential`` are the comparison baselines.  All models share
the ``LifetimeModel`` surface: ``pdf``, ``log_pdf``, ``cdf``, ``sf``,
``hazard``, ``quantile`` plus ``param_count``.  ``DEFAULT_PARAMETER_SETS``
holds the eight published ``Clfrd`` triples.

Evaluation methods accept scalars or numpy arrays and return a matching
shape.  Arguments are validated, never clamped: negative ``x`` raises.
Parameter objects are frozen dataclasses, so instances are immutable and
safe to share across threads.

The ``Clfrd`` quantile solves for the linear-failure-rate exponent
``alpha x + beta x^2 / 2`` by a monotone Newton iteration, then inverts
that quadratic in closed form.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "LifetimeModel",
    "Clfrd",
    "LinearFailureRate",
    "Rayleigh",
    "Exponential",
    "GeneralizedExponential",
    "MODEL_REGISTRY",
    "DEFAULT_PARAMETER_SETS",
]


def lambert_w0(z):
    """Principal branch W0 of the Lambert W function for ``0 <= z <= e^60``.

    No longer the ``Clfrd`` quantile's solver: nothing in the library calls
    it, and it is kept only because the benchmark's tracer binds it by name
    in ``distributions`` and ``properties``.  Arguments are not checked; for
    general use call ``scipy.special.lambertw``.  Accepts a scalar or array
    and returns a matching shape.

    Halley iteration (Corless et al., "On the Lambert W function", Adv.
    Comput. Math. 5, 1996) seeded by ``z / (1 + z)`` below ``e`` and by
    ``log z - log log z`` from ``e`` up.  Each element stops on its own
    tolerance, so its value is the same whether it is computed alone or in
    any array.
    """
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    lz = np.log(np.maximum(z, math.e))
    w = np.where(z < math.e, z / (1.0 + z), lz - np.log(lz))
    done = np.zeros(w.shape, dtype=bool)
    for _ in range(64):
        ew = np.exp(w)
        f = w * ew - z
        wp1 = w + 1.0
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        dw[done] = 0.0  # an element stops after its first step within tolerance
        w -= dw
        done |= np.abs(dw) <= 1e-15 * (1.0 + np.abs(w))
        if np.all(done):
            break
    return float(w[0]) if scalar else w


def _as_domain_array(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("x must be >= 0 and finite")
    return arr


def _match(x, values):
    # scalar in, scalar out
    if np.ndim(x) == 0:
        return float(np.asarray(values).reshape(()))
    return values


def _as_prob_array(q):
    arr = np.asarray(q, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise ValueError("quantile level must lie in [0, 1)")
    return arr


class LifetimeModel(abc.ABC):
    """Common evaluation surface for all lifetime models.

    Subclasses implement ``log_sf``, ``log_pdf``, ``hazard`` and
    ``quantile``; ``sf``, ``cdf`` and ``pdf`` derive from those so the
    identities ``cdf + sf = 1`` and ``pdf = exp(log_pdf)`` hold by
    construction.
    """

    name: str = ""
    param_count: int = 0
    param_names: tuple[str, ...] = ()

    @abc.abstractmethod
    def log_sf(self, x):
        ...

    @abc.abstractmethod
    def log_pdf(self, x):
        ...

    @abc.abstractmethod
    def hazard(self, x):
        ...

    @abc.abstractmethod
    def quantile(self, q):
        ...

    def sf(self, x):
        return _match(x, np.exp(self.log_sf(x)))

    def cdf(self, x):
        return _match(x, -np.expm1(self.log_sf(x)))

    def pdf(self, x):
        return _match(x, np.exp(self.log_pdf(x)))

    def params(self) -> dict[str, float]:
        """Parameter values keyed by their conventional names."""
        return dict(zip(self.param_names, self.to_vector().tolist()))

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)], dtype=float)


def _require_positive(obj, **named):
    for key, value in named.items():
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{type(obj).__name__}: {key} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class Clfrd(LifetimeModel):
    """Compounded linear failure rate distribution.

    ``alpha`` is the initial hazard level, ``beta`` the hazard slope and
    ``lam`` the mean of the shifted Poisson shock count.  All three must be
    strictly positive.
    """

    alpha: float
    beta: float
    lam: float

    name = "clfrd"
    param_count = 3
    param_names = ("alpha", "beta", "lambda")

    def __post_init__(self):
        _require_positive(self, alpha=self.alpha, beta=self.beta, lam=self.lam)

    def _cumulative_hazard_base(self, x):
        # alpha x + beta x^2 / 2, the underlying linear-failure-rate exponent
        return self.alpha * x + 0.5 * self.beta * x * x

    def log_sf(self, x):
        x = _as_domain_array(x)
        y = self._cumulative_hazard_base(x)
        return -y - self.lam + self.lam * np.exp(-y)

    def log_pdf(self, x):
        # stable for large x: every exponential argument is nonpositive
        x = _as_domain_array(x)
        y = self._cumulative_hazard_base(x)
        e = np.exp(-y)
        return np.log(self.alpha + self.beta * x) + np.log1p(self.lam * e) - y - self.lam + self.lam * e

    def hazard(self, x):
        # closed form; never computed as pdf/sf so it stays finite when sf underflows
        x = _as_domain_array(x)
        e = np.exp(-self._cumulative_hazard_base(x))
        return _match(x, (self.alpha + self.beta * x) * (1.0 + self.lam * e))

    def reversed_hazard(self, x):
        """pdf(x) / cdf(x); defined for x > 0 only."""
        x = _as_domain_array(x)
        if np.any(x <= 0.0):
            raise ValueError("reversed hazard requires x > 0 (cdf vanishes at 0)")
        return _match(x, np.exp(self.log_pdf(x)) / (-np.expm1(self.log_sf(x))))

    def quantile(self, q):
        # The shift y = alpha x + beta x^2 / 2 solves
        # g(y) = y - lam expm1(-y) - t = 0 with t = -log(1 - q).  g is
        # increasing and concave, and the start lies below the root, so the
        # Newton steps rise monotonically to it; no term cancels at small q.
        q = _as_prob_array(q)
        lam = self.lam
        # every work array is updated in place: fresh temporaries on 1e5
        # points raised the surface benchmark's peak RSS by 1-2 MB
        t = np.negative(q.reshape(-1))
        np.negative(np.log1p(t, out=t), out=t)
        y = t / (1.0 + lam)
        em1 = np.subtract(t, lam)
        np.maximum(y, em1, out=y)
        dy = np.empty_like(y)
        active = np.ones(y.shape, dtype=bool)
        for _ in range(64):
            # dy = (t - y + lam em1) / (1 + lam + lam em1), em1 = expm1(-y)
            np.expm1(np.negative(y, out=em1), out=em1)
            em1 *= lam
            np.subtract(t, y, out=dy)
            dy += em1
            em1 += 1.0 + lam
            dy /= em1
            np.add(y, dy, out=y, where=active)
            # an element stops after its first step within tolerance, so its
            # value is the same whether it is computed alone or in any array
            active &= dy > np.multiply(y, 4e-16, out=em1)
            if not active.any():
                break
        # conjugate form of (-alpha + sqrt(alpha^2 + 2 beta y)) / beta,
        # accurate when y is small
        root = np.multiply(y, 2.0 * self.beta, out=dy)
        root += self.alpha * self.alpha
        np.sqrt(root, out=root)
        root += self.alpha
        y *= 2.0
        y /= root
        return _match(q, y.reshape(q.shape))


@dataclass(frozen=True)
class LinearFailureRate(LifetimeModel):
    """Baseline model with hazard ``alpha + beta x``."""

    alpha: float
    beta: float

    name = "lfrd"
    param_count = 2
    param_names = ("alpha", "beta")

    def __post_init__(self):
        _require_positive(self, alpha=self.alpha, beta=self.beta)

    def log_sf(self, x):
        x = _as_domain_array(x)
        return -(self.alpha * x + 0.5 * self.beta * x * x)

    def log_pdf(self, x):
        x = _as_domain_array(x)
        return np.log(self.alpha + self.beta * x) - self.alpha * x - 0.5 * self.beta * x * x

    def hazard(self, x):
        x = _as_domain_array(x)
        return _match(x, self.alpha + self.beta * x)

    def quantile(self, q):
        q = _as_prob_array(q)
        e = -np.log1p(-q)
        root = self.alpha + np.sqrt(self.alpha * self.alpha + 2.0 * self.beta * e)
        return _match(q, 2.0 * e / root)


@dataclass(frozen=True)
class Rayleigh(LifetimeModel):
    """Rayleigh baseline with scale ``sigma``."""

    sigma: float

    name = "rd"
    param_count = 1
    param_names = ("sigma",)

    def __post_init__(self):
        _require_positive(self, sigma=self.sigma)

    def log_sf(self, x):
        x = _as_domain_array(x)
        return -x * x / (2.0 * self.sigma * self.sigma)

    def log_pdf(self, x):
        x = _as_domain_array(x)
        with np.errstate(divide="ignore"):
            return np.log(x) - 2.0 * math.log(self.sigma) - x * x / (2.0 * self.sigma * self.sigma)

    def hazard(self, x):
        x = _as_domain_array(x)
        return _match(x, x / (self.sigma * self.sigma))

    def quantile(self, q):
        q = _as_prob_array(q)
        return _match(q, self.sigma * np.sqrt(-2.0 * np.log1p(-q)))


@dataclass(frozen=True)
class Exponential(LifetimeModel):
    """Exponential baseline with failure rate ``rate``."""

    rate: float

    name = "ed"
    param_count = 1
    param_names = ("lambda",)

    def __post_init__(self):
        _require_positive(self, rate=self.rate)

    def log_sf(self, x):
        x = _as_domain_array(x)
        return -self.rate * x

    def log_pdf(self, x):
        x = _as_domain_array(x)
        return math.log(self.rate) - self.rate * x

    def hazard(self, x):
        x = _as_domain_array(x)
        return _match(x, np.full_like(x, self.rate))

    def quantile(self, q):
        q = _as_prob_array(q)
        return _match(q, -np.log1p(-q) / self.rate)


@dataclass(frozen=True)
class GeneralizedExponential(LifetimeModel):
    """Exponentiated-exponential baseline, CDF ``(1 - e^(-rate x))^shape``."""

    rate: float
    shape: float

    name = "ged"
    param_count = 2
    param_names = ("lambda", "alpha")

    def __post_init__(self):
        _require_positive(self, rate=self.rate, shape=self.shape)

    def _log_base_cdf(self, x):
        with np.errstate(divide="ignore"):
            return np.log(-np.expm1(-self.rate * x))

    def log_sf(self, x):
        x = _as_domain_array(x)
        with np.errstate(divide="ignore"):
            return np.log1p(-np.exp(self.shape * self._log_base_cdf(x)))

    def cdf(self, x):
        x = _as_domain_array(x)
        return _match(x, np.exp(self.shape * self._log_base_cdf(x)))

    def log_pdf(self, x):
        x = _as_domain_array(x)
        with np.errstate(invalid="ignore"):
            out = (
                math.log(self.shape * self.rate)
                - self.rate * x
                + (self.shape - 1.0) * self._log_base_cdf(x)
            )
        # x = 0: density is 0 for shape > 1, rate for shape = 1, +inf below
        if self.shape == 1.0:
            out = np.where(np.asarray(x) == 0.0, math.log(self.rate), out)
        return out

    def hazard(self, x):
        x = _as_domain_array(x)
        return _match(x, np.exp(self.log_pdf(x) - self.log_sf(x)))

    def quantile(self, q):
        q = _as_prob_array(q)
        with np.errstate(divide="ignore"):
            inner = np.power(q, 1.0 / self.shape)
        return _match(q, -np.log1p(-inner) / self.rate)


MODEL_REGISTRY: dict[str, type[LifetimeModel]] = {
    "clfrd": Clfrd,
    "lfrd": LinearFailureRate,
    "rd": Rayleigh,
    "ed": Exponential,
    "ged": GeneralizedExponential,
}

# the eight published parameter triples (alpha, beta, lambda) of the
# paper's tables, figures and recovery study
DEFAULT_PARAMETER_SETS: tuple[Clfrd, ...] = (
    Clfrd(2.0, 2.0, 2.0),
    Clfrd(2.0, 2.0, 0.5),
    Clfrd(2.0, 0.5, 2.0),
    Clfrd(2.0, 0.5, 0.5),
    Clfrd(0.5, 2.0, 2.0),
    Clfrd(0.5, 2.0, 0.5),
    Clfrd(0.5, 0.5, 2.0),
    Clfrd(0.5, 0.5, 0.5),
)
