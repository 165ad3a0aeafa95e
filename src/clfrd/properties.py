"""Reliability measures and structural classifiers for the compounded model.

Shape classification of the density and the hazard rate, mean residual
life, mean inactivity time, raw moments, median, order-statistic densities
and a likelihood-ratio-order grid check.

Quadrature is the primary computation for the integral quantities.  The
public functions check their arguments once; ``quad`` then integrates
plain-float copies of the model's survival function and density, not the
validating public methods.

The two series are cross-checks of ``mrl`` and ``mit`` that share no
code with them.  The law is a Poisson mixture of linear-failure-rate
laws: the minimum of k = 1 + j LFR(alpha, beta) lifetimes, j ~
Poisson(lam), is LFR(k alpha, k beta), and each of those has a closed-form
tail integral (``scipy.special.erfcx``).  The series are the one-index
Poisson sums of those terms, with a rigorous bound on the left-out
Poisson mass.  The paper's own MRL and moment rewrites, a k-expansion of
the Gaussian-tail factor integrated term by term over an infinite range,
diverge for every parameter value and are not implemented.  The median is
the quantile's Newton solve at one half.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import erfcx
from scipy.special import (  # named so: perfbench's tracer wraps them in this namespace
    gammainc as regularized_gamma_p,
    gammaincc as regularized_gamma_q,
    gammaln as ln_gamma,
)

from .distributions import Clfrd
from .distributions import lambert_w0  # noqa: F401  perfbench's tracer wraps it in this namespace

__all__ = [
    "PdfShape",
    "HazardShape",
    "pdf_shape",
    "hazard_shape",
    "mrl",
    "mit",
    "raw_moment",
    "median",
    "order_stat_pdf",
    "lr_monotone_check",
    "SeriesResult",
    "mrl_series",
    "mit_series",
]


class PdfShape(enum.Enum):
    UNIMODAL = "unimodal"
    DECREASING = "decreasing"


class HazardShape(enum.Enum):
    INCREASING = "increasing"
    BATHTUB = "bathtub"
    INVERSE_BATHTUB = "inverse_bathtub"
    UNCLASSIFIED = "unclassified"


def pdf_shape(model: Clfrd) -> PdfShape:
    """Classify the density as unimodal (interior sign change of g') or decreasing.

    Unimodal iff ``alpha^2 < beta (1 + lam) / (lam + (1 + lam)^2)``; the
    boundary equality falls in the decreasing branch (the weak inequality
    of the decreasing condition).
    """
    a, b, lam = model.alpha, model.beta, model.lam
    threshold = b * (1.0 + lam) / (lam + (1.0 + lam) ** 2)
    return PdfShape.UNIMODAL if a * a < threshold else PdfShape.DECREASING


def hazard_shape(model: Clfrd) -> HazardShape:
    """Classify the hazard rate as increasing, bathtub or inverse bathtub.

    Condition table on (alpha, beta, lam); checked in the order increasing,
    bathtub, inverse bathtub, so boundary equalities resolve to the earlier
    branch.  The inverse-bathtub branch carries the condition
    ``beta (1 + lam) >= lam alpha^2`` (the sign of h'(0)), which the
    increasing/decreasing dichotomy needs even though it is easy to drop
    when reading the case split casually.  Returns UNCLASSIFIED when no
    branch matches (e.g. ``lam <= 1/2`` with ``alpha^2 < 3 beta``, where
    log(2 lam) is nonpositive).
    """
    a, b, lam = model.alpha, model.beta, model.lam
    a2 = a * a
    h0 = b * (1.0 + lam) - lam * a2  # sign of h'(0)
    if a2 < 3.0 * b:
        log2lam = math.log(2.0 * lam)
        knee = (3.0 * b - a2) / (2.0 * b)
        if 0.0 < log2lam <= knee:
            return HazardShape.INCREASING
        if h0 <= 0.0 and log2lam > knee:
            return HazardShape.BATHTUB
        if h0 >= 0.0 and log2lam > knee:
            return HazardShape.INVERSE_BATHTUB
        return HazardShape.UNCLASSIFIED
    if h0 >= 0.0:
        return HazardShape.INCREASING
    return HazardShape.BATHTUB


def _tail_integral(func, lo: float, hi0: float, epsabs: float) -> float:
    # integrate func over [lo, inf): finite leg to hi0 (to lo + 1 when hi0
    # is not past lo), then doubling legs until a leg's contribution is
    # negligible.  A leg much wider than hi0 can step over all the mass.
    hi = hi0 if hi0 > lo else lo + 1.0
    total = quad(func, lo, hi, epsabs=epsabs, limit=200)[0]
    for _ in range(64):
        piece = quad(func, hi, 2.0 * hi, epsabs=epsabs, limit=200)[0]
        total += piece
        hi *= 2.0
        if abs(piece) < epsabs:
            break
    return total


def _integrands(model: Clfrd):
    """Plain-float log survival function and density for ``quad``.

    The formulas of ``Clfrd.log_sf`` and ``Clfrd.log_pdf``, without their
    argument checks and array handling: the public measures check their
    arguments once, and quad evaluates an integrand ~100 times per leg.
    """
    a, b, lam = model.alpha, model.beta, model.lam

    def log_sf(t):
        y = a * t + 0.5 * b * t * t
        return -y + lam * math.expm1(-y)

    def pdf(t):
        y = a * t + 0.5 * b * t * t
        e = math.exp(-y)
        return math.exp(math.log(a + b * t) + math.log1p(lam * e) - y - lam + lam * e)

    return log_sf, pdf


def mrl(model: Clfrd, x) -> float:
    """Mean residual life E[U - x | U > x] at age x >= 0.

    Integrated-survival form: ``(1 / sf(x)) * integral of sf over [x, inf)``
    by adaptive quadrature with absolute tolerance 1e-8.
    """
    x = float(x)
    if x < 0:
        raise ValueError("mrl: x must be nonnegative")
    s = model.sf(x)
    if s == 0.0:
        raise ArithmeticError("mrl: survival function underflows to zero at this age")
    hi0 = model.quantile(1.0 - 1e-12)
    log_sf, _ = _integrands(model)
    return _tail_integral(lambda t: math.exp(log_sf(t)), x, hi0, 1e-12) / s


def mit(model: Clfrd, x) -> float:
    """Mean inactivity time E[x - U | U <= x] at inspection time x > 0.

    ``(1 / cdf(x)) * integral of cdf over [0, x]`` by adaptive quadrature.
    """
    x = float(x)
    if x <= 0:
        raise ValueError("mit: x must be positive")
    c = model.cdf(x)
    log_sf, _ = _integrands(model)
    return quad(lambda t: -math.expm1(log_sf(t)), 0.0, x, epsabs=1e-12, limit=200)[0] / c


def raw_moment(model: Clfrd, r: int) -> float:
    """r-th raw moment E[U^r] by adaptive quadrature, r >= 1."""
    if int(r) != r or r < 1:
        raise ValueError("raw_moment: r must be a positive integer")
    r = int(r)
    hi0 = model.quantile(1.0 - 1e-12)
    _, pdf = _integrands(model)
    return _tail_integral(lambda t: t**r * pdf(t), 0.0, hi0, 1e-12)


def median(model: Clfrd) -> float:
    """Median: ``quantile(0.5)``, the quantile's monotone Newton solve."""
    return float(model.quantile(0.5))


def order_stat_pdf(model: Clfrd, n: int, k: int, x):
    """Density of the k-th order statistic of an i.i.d. sample of size n.

    ``n! / ((k-1)! (n-k)!) * pdf * cdf^(k-1) * sf^(n-k)``; the smallest
    order statistic (k = 1) reduces to ``n * pdf * sf^(n-1)``.
    """
    if n < 1 or k < 1 or k > n:
        raise ValueError("order_stat_pdf: need n >= 1 and 1 <= k <= n")
    coeff = float(n * math.comb(n - 1, k - 1))
    xs = np.asarray(x, dtype=float)
    value = coeff * model.pdf(xs) * model.cdf(xs) ** (k - 1) * model.sf(xs) ** (n - k)
    return float(value) if np.ndim(x) == 0 else value


def lr_monotone_check(model_small: Clfrd, model_large: Clfrd, grid) -> bool:
    """True when log pdf_small - log pdf_large is nondecreasing on the grid.

    Grid must be sorted ascending and nonnegative; a slack of 1e-12 per
    step absorbs floating noise.  Componentwise-ordered parameters do not
    guarantee a monotone ratio on their own; see the test suite for a
    sufficient side condition on the hazard slopes.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise ValueError("lr_monotone_check: grid must be a 1-d sequence with >= 2 points")
    if np.any(np.diff(g) < 0) or np.any(g < 0):
        raise ValueError("lr_monotone_check: grid must be sorted ascending and nonnegative")
    diff = model_small.log_pdf(g) - model_large.log_pdf(g)
    return bool(np.all(np.diff(diff) >= -1e-12))


_EPS = np.finfo(float).eps


class SeriesResult(NamedTuple):
    value: float
    converged: bool
    tail_estimate: float


def _poisson(lam: float, y: float):
    """Poisson weights of mean ``lam e^(-y)`` on the counts j within
    ``12 sqrt(mean) + 40`` of the mean, bounds on their relative rounding,
    and the Poisson mass outside that window.

    A weight is ``exp(j (log lam - y) - mean - ln_gamma(j + 1))``; its
    rounding grows with the size of those terms, about ``eps * lam log lam``
    at the mode, so results at very large lam come back flagged.
    """
    mean = lam * math.exp(-y)
    half = 12.0 * math.sqrt(mean) + 40.0
    lo, hi = max(math.ceil(mean - half), 0), math.floor(mean + half)
    j = np.arange(lo, hi + 1.0)
    log_factorial = ln_gamma(j + 1.0)
    p = np.exp(j * (math.log(lam) - y) - mean - log_factorial)
    rounding = 4.0 * _EPS * (1.0 + j * (abs(math.log(lam)) + y) + mean + log_factorial)
    outside = float(regularized_gamma_p(hi + 1.0, mean))
    if lo > 0:
        outside += float(regularized_gamma_q(lo, mean))
    return j, p, rounding, outside


def _lfr_mrl(model: Clfrd, k, x: float):
    """Mean residual life at x of LFR(k alpha, k beta), the minimum of k LFR lifetimes.

    Its tail integral is ``e^(-k y)`` times this, y = alpha x + beta x^2 / 2.
    """
    a, b = model.alpha, model.beta
    return np.sqrt(math.pi / (2.0 * b * k)) * erfcx(np.sqrt(k / (2.0 * b)) * (a + b * x))


def mrl_series(model: Clfrd, x) -> SeriesResult:
    """Mean residual life as the Poisson mixture of LFR laws, a cross-check of ``mrl``.

    The law is the minimum of k = 1 + j LFR(alpha, beta) lifetimes with
    j ~ Poisson(lam).  Given survival to x, j is Poisson with mean
    ``lam e^(-y)``: the weights ``p_j e^(-k y) / sf(x)``, combined in log
    space.  The mean residual life is that mixture of the LFR(k alpha,
    k beta) mean residual lives, so ``mrl_series(model, 0)`` is the mean.
    The tail estimate bounds the terms left out (the Poisson mass outside
    the window times the k = 1 term, the largest) plus the weights'
    rounding.
    """
    x = float(x)
    if x < 0:
        raise ValueError("mrl_series: x must be nonnegative")
    y = model.alpha * x + 0.5 * model.beta * x * x
    j, p, rounding, outside = _poisson(model.lam, y)
    terms = p * _lfr_mrl(model, j + 1.0, x)
    value = float(terms.sum())
    tail = outside * float(_lfr_mrl(model, 1.0, x)) + float(terms @ rounding)
    return SeriesResult(value, tail <= 1e-10 * value, tail)


def mit_series(model: Clfrd, x) -> SeriesResult:
    """Mean inactivity time as the Poisson mixture of LFR laws, a cross-check of ``mit``.

    ``(x - sum of p_j (T_k(0) - T_k(x))) / cdf(x)``, with T_k the tail
    integral of the minimum of k = 1 + j LFR lifetimes.  The weights sum
    to one, so the numerator is summed as ``sum of p_j (x - T_k(0) +
    T_k(x))``, and their rounding scales these nonnegative component
    terms, not a difference.  The terms left out add at most the Poisson
    mass outside the window times x.  A component's complement cancels
    when cdf(x) is small, so the tail estimate adds its rounding, with a
    margin over the few ulps of erfcx, exp and sqrt in each term: a
    cancelled result is flagged, not returned as converged.
    """
    x = float(x)
    if x <= 0:
        raise ValueError("mit_series: x must be positive")
    y = model.alpha * x + 0.5 * model.beta * x * x
    j, p, rounding, outside = _poisson(model.lam, 0.0)
    k = j + 1.0
    t0 = _lfr_mrl(model, k, 0.0)
    tx = np.exp(-k * y) * _lfr_mrl(model, k, x)
    inactive = x - t0 + tx
    c = model.cdf(x)
    value = float(p @ inactive) / c
    error = np.abs(inactive) * rounding + 16.0 * _EPS * (x + t0 + tx)
    tail = (outside * x + float(p @ error)) / c
    return SeriesResult(value, tail <= 1e-10 * value, tail)
