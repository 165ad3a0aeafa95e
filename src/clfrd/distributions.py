"""Lifetime model contract and concrete distributions.

``Clfrd`` is the compounded linear failure rate model: the minimum of
``N`` i.i.d. linear-failure-rate lifetimes where ``N - 1`` is Poisson
distributed.  ``LinearFailureRate``, ``Rayleigh``, ``Exponential`` and
``GeneralizedExponential`` are the comparison baselines.  All models share
the ``LifetimeModel`` surface: ``pdf``, ``log_pdf``, ``cdf``, ``sf``,
``hazard``, ``quantile`` plus ``param_count``.  ``DEFAULT_PARAMETER_SETS``
holds the eight published ``Clfrd`` triples.

Evaluation methods accept scalars or numpy arrays and return a matching
shape, a ``float`` for a scalar.  Arguments are validated, never clamped:
a negative or non-finite ``x``, a level outside [0, 1) and a parameter
that is not finite and > 0 raise ``ValueError``.  All of these checks
live in ``LifetimeModel``, once for every model; the subclasses hold only
their parameters and formulas.  Parameter objects are frozen dataclasses,
so instances are immutable and safe to share across threads.

The ``Clfrd`` quantile solves for the linear-failure-rate exponent
``alpha x + beta x^2 / 2`` by a monotone Newton iteration, then inverts
that quadratic in closed form.
"""

from __future__ import annotations

import abc
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


def __getattr__(name):
    # only perfbench's tracer reads ``lambert_w0`` here and in ``properties``,
    # to wrap it; nothing in the package calls it.  Bound to scipy's solver
    # on first access, so that importing this module does not import
    # scipy.special.  Delete this with that binding.
    if name != "lambert_w0":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.special import lambertw

    globals()[name] = lambertw
    return lambertw


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

    This class is the models' one boundary.  ``__post_init__`` checks every
    dataclass field (finite and > 0); each public method checks its
    argument once, calls the subclass formula on the checked array, and
    returns a ``float`` for a scalar argument.  Subclasses implement the
    formulas ``_log_sf``, ``_log_pdf``, ``_hazard`` and ``_quantile`` on
    checked arrays; ``sf``, ``cdf`` and ``pdf`` derive from those so the
    identities ``cdf + sf = 1`` and ``pdf = exp(log_pdf)`` hold by
    construction.
    """

    name: str = ""
    param_count: int = 0
    param_names: tuple[str, ...] = ()

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{type(self).__name__}: {f.name} must be finite and > 0, got {value}")

    @abc.abstractmethod
    def _log_sf(self, x):
        ...

    @abc.abstractmethod
    def _log_pdf(self, x):
        ...

    @abc.abstractmethod
    def _hazard(self, x):
        ...

    @abc.abstractmethod
    def _quantile(self, q):
        ...

    def log_sf(self, x):
        x = _as_domain_array(x)
        return _match(x, self._log_sf(x))

    def log_pdf(self, x):
        x = _as_domain_array(x)
        return _match(x, self._log_pdf(x))

    def hazard(self, x):
        x = _as_domain_array(x)
        return _match(x, self._hazard(x))

    def quantile(self, q):
        q = _as_prob_array(q)
        return _match(q, self._quantile(q))

    def sf(self, x):
        x = _as_domain_array(x)
        return _match(x, np.exp(self._log_sf(x)))

    def cdf(self, x):
        x = _as_domain_array(x)
        return _match(x, -np.expm1(self._log_sf(x)))

    def pdf(self, x):
        x = _as_domain_array(x)
        return _match(x, np.exp(self._log_pdf(x)))

    def params(self) -> dict[str, float]:
        """Parameter values keyed by their conventional names."""
        return dict(zip(self.param_names, self.to_vector().tolist()))

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)], dtype=float)


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

    def _cumulative_hazard_base(self, x):
        # alpha x + beta x^2 / 2, the underlying linear-failure-rate exponent
        return self.alpha * x + 0.5 * self.beta * x * x

    def _log_sf(self, x):
        y = self._cumulative_hazard_base(x)
        return -y + self.lam * np.expm1(-y)

    def _log_pdf(self, x):
        # log hazard plus log_sf: lam * expm1(-y) does not cancel at large lam,
        # and every exponential argument is nonpositive
        y = self._cumulative_hazard_base(x)
        return np.log(self.alpha + self.beta * x) + np.log1p(self.lam * np.exp(-y)) - y + self.lam * np.expm1(-y)

    def _hazard(self, x):
        # closed form; never computed as pdf/sf so it stays finite when sf underflows
        e = np.exp(-self._cumulative_hazard_base(x))
        return (self.alpha + self.beta * x) * (1.0 + self.lam * e)

    def reversed_hazard(self, x):
        """pdf(x) / cdf(x); defined for x > 0 only."""
        x = _as_domain_array(x)
        if np.any(x <= 0.0):
            raise ValueError("reversed hazard requires x > 0 (cdf vanishes at 0)")
        return _match(x, np.exp(self._log_pdf(x)) / (-np.expm1(self._log_sf(x))))

    def _quantile(self, q):
        # The shift y = alpha x + beta x^2 / 2 solves
        # g(y) = y - lam expm1(-y) - t = 0 with t = -log(1 - q).  g is
        # increasing and concave, and the start lies below the root, so the
        # Newton steps rise monotonically to it; no term cancels at small q.
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
        return y.reshape(q.shape)


@dataclass(frozen=True)
class LinearFailureRate(LifetimeModel):
    """Baseline model with hazard ``alpha + beta x``."""

    alpha: float
    beta: float

    name = "lfrd"
    param_count = 2
    param_names = ("alpha", "beta")

    def _log_sf(self, x):
        return -(self.alpha * x + 0.5 * self.beta * x * x)

    def _log_pdf(self, x):
        return np.log(self.alpha + self.beta * x) - self.alpha * x - 0.5 * self.beta * x * x

    def _hazard(self, x):
        return self.alpha + self.beta * x

    def _quantile(self, q):
        e = -np.log1p(-q)
        root = self.alpha + np.sqrt(self.alpha * self.alpha + 2.0 * self.beta * e)
        return 2.0 * e / root


@dataclass(frozen=True)
class Rayleigh(LifetimeModel):
    """Rayleigh baseline with scale ``sigma``."""

    sigma: float

    name = "rd"
    param_count = 1
    param_names = ("sigma",)

    def _log_sf(self, x):
        return -x * x / (2.0 * self.sigma * self.sigma)

    def _log_pdf(self, x):
        with np.errstate(divide="ignore"):
            return np.log(x) - 2.0 * np.log(self.sigma) - x * x / (2.0 * self.sigma * self.sigma)

    def _hazard(self, x):
        return x / (self.sigma * self.sigma)

    def _quantile(self, q):
        return self.sigma * np.sqrt(-2.0 * np.log1p(-q))


@dataclass(frozen=True)
class Exponential(LifetimeModel):
    """Exponential baseline with failure rate ``rate``."""

    rate: float

    name = "ed"
    param_count = 1
    param_names = ("lambda",)

    def _log_sf(self, x):
        return -self.rate * x

    def _log_pdf(self, x):
        return np.log(self.rate) - self.rate * x

    def _hazard(self, x):
        return np.full_like(x, self.rate)

    def _quantile(self, q):
        return -np.log1p(-q) / self.rate


@dataclass(frozen=True)
class GeneralizedExponential(LifetimeModel):
    """Exponentiated-exponential baseline, CDF ``(1 - e^(-rate x))^shape``."""

    rate: float
    shape: float

    name = "ged"
    param_count = 2
    param_names = ("lambda", "alpha")

    def _log_base_cdf(self, x):
        with np.errstate(divide="ignore"):
            return np.log(-np.expm1(-self.rate * x))

    def _log_sf(self, x):
        with np.errstate(divide="ignore"):
            return np.log1p(-np.exp(self.shape * self._log_base_cdf(x)))

    def cdf(self, x):
        x = _as_domain_array(x)
        return _match(x, np.exp(self.shape * self._log_base_cdf(x)))

    def _log_pdf(self, x):
        with np.errstate(invalid="ignore"):
            out = (
                np.log(self.shape * self.rate)
                - self.rate * x
                + (self.shape - 1.0) * self._log_base_cdf(x)
            )
        # x = 0: density is 0 for shape > 1, rate for shape = 1, +inf below
        if self.shape == 1.0:
            out = np.where(x == 0.0, np.log(self.rate), out)
        return out

    def _hazard(self, x):
        return np.exp(self._log_pdf(x) - self._log_sf(x))

    def _quantile(self, q):
        with np.errstate(divide="ignore"):
            inner = np.power(q, 1.0 / self.shape)
        return -np.log1p(-inner) / self.rate


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
