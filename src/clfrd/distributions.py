"""Lifetime model contract and concrete distributions.

``Clfrd`` is the compounded linear failure rate model: the minimum of
``N`` i.i.d. linear-failure-rate lifetimes where ``N - 1`` is Poisson
distributed.  ``LinearFailureRate``, ``Rayleigh``, ``Exponential`` and
``GeneralizedExponential`` are the comparison baselines.  All models share
the ``LifetimeModel`` surface: ``pdf``, ``log_pdf``, ``cdf``, ``sf``,
``hazard``, ``quantile`` plus ``param_count``.

Evaluation methods accept scalars or numpy arrays and return a matching
shape.  Arguments are validated, never clamped: negative ``x`` raises.
Parameter objects are frozen dataclasses, so instances are immutable and
safe to share across threads.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, fields

import numpy as np

from .special import _w0_of_log, lambert_w0

# The quantile solves for W in log space once lam + log(lam), the log of
# its W argument at q = 0, passes this.  The direct form loses digits to
# cancellation in w - lam - log(1 - q) as lam grows; the log form needs
# log(lam) + log1p(-q) + lam well above 0 even at q = 1 - 2^-53, which
# fails below lam ~ 46.
_LOG_SPACE_QUANTILE = 60.0

__all__ = [
    "LifetimeModel",
    "Clfrd",
    "LinearFailureRate",
    "Rayleigh",
    "Exponential",
    "GeneralizedExponential",
    "MODEL_REGISTRY",
]


def _as_domain_array(x, minimum=0.0, name="x"):
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr < minimum):
        raise ValueError(f"{name} must be >= {minimum} and finite")
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
        return dict(zip(self.param_names, self.to_vector()))

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)], dtype=float)

    @classmethod
    def from_vector(cls, vector) -> "LifetimeModel":
        return cls(*(float(v) for v in vector))


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
        # with w = W0(lam (1 - q) e^lam), so w + log w = log(lam (1 - q)) + lam,
        # the exponent alpha x + beta x^2 / 2 is w - lam - log(1 - q) = log(lam / w)
        q = _as_prob_array(q)
        lam = self.lam
        if lam + math.log(lam) > _LOG_SPACE_QUANTILE:
            shift = np.log(lam / _w0_of_log(math.log(lam) + np.log1p(-q) + lam))
        else:
            shift = lambert_w0(lam * (1.0 - q) * math.exp(lam)) - lam - np.log1p(-q)
        shift = np.maximum(shift, 0.0)
        # conjugate form of (-alpha + sqrt(alpha^2 + 2 beta shift)) / beta,
        # accurate when shift is small
        root = self.alpha + np.sqrt(self.alpha * self.alpha + 2.0 * self.beta * shift)
        return _match(q, 2.0 * shift / root)


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
