"""Reliability measures and structural classifiers for the compounded model.

Shape classification of the density and the hazard rate, mean residual
life, mean inactivity time, raw moments, median, order-statistic densities
and a likelihood-ratio-order grid check.

Quadrature of the survival function is the primary computation for the
integral quantities: ``mrl``, ``mit`` and ``raw_moment`` integrate one
integrand, a plain-float copy of the model's log survival function, not
the validating public methods, which check their arguments once.

The two series are cross-checks of ``mrl`` and ``mit`` that share no
code with them.  The law is a Poisson mixture of linear-failure-rate
laws: the minimum of k = 1 + j LFR(alpha, beta) lifetimes, j ~
Poisson(lam), is LFR(k alpha, k beta), and each of those has a closed-form
tail integral (``scipy.special.erfcx``).  The series are the one-index
Poisson sums of those terms.  The Poisson weights come from their ratio
recurrence, with no special function, on a window of counts whose
left-out mass is below a constant 2.1e-27 at every mean.  The paper's own
MRL and moment rewrites, a k-expansion of the Gaussian-tail factor
integrated term by term over an infinite range, diverge for every
parameter value and are not implemented.  The median is the quantile's
Newton solve at one half.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import erfcx
from scipy.special import (  # noqa: F401  uncalled: perfbench's tracer wraps them in this namespace
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


def _tail_integral(func, lo: float, hi: float, epsabs: float) -> float:
    # integrate func over [lo, inf): a first leg to hi, then doubling legs
    # until a leg's contribution is negligible.  A leg much wider than the
    # first can step over all the mass.
    total = quad(func, lo, hi, epsabs=epsabs, limit=200)[0]
    for _ in range(64):
        piece = quad(func, hi, 2.0 * hi, epsabs=epsabs, limit=200)[0]
        total += piece
        hi *= 2.0
        if abs(piece) < epsabs:
            break
    return total


def _log_sf(model: Clfrd):
    """Plain-float log survival function for ``quad``.

    The formula of ``Clfrd.log_sf``, without its argument checks and array
    handling: the public measures check their arguments once, and quad
    evaluates an integrand ~100 times per leg.
    """
    a, b, lam = model.alpha, model.beta, model.lam

    def log_sf(t):
        y = a * t + 0.5 * b * t * t
        return -y + lam * math.expm1(-y)

    return log_sf


def mrl(model: Clfrd, x) -> float:
    """Mean residual life E[U - x | U > x] at age x >= 0.

    The integral of ``sf(t) / sf(x)`` over [x, inf), by adaptive quadrature
    of ``exp(log_sf(t) - log_sf(x))``, which holds where ``sf(x)`` itself
    underflows.  The first leg ends at the
    1 - 1e-12 quantile, or 30 decay lengths ``1 / hazard(x)`` past an age
    beyond it.
    """
    x = float(x)
    if x < 0:
        raise ValueError("mrl: x must be nonnegative")
    hi = model.quantile(1.0 - 1e-12)
    if hi <= x:
        hi = x + 30.0 / model.hazard(x)
    log_sf = _log_sf(model)
    at_x = log_sf(x)
    return _tail_integral(lambda t: math.exp(log_sf(t) - at_x), x, hi, 1e-12)


def mit(model: Clfrd, x) -> float:
    """Mean inactivity time E[x - U | U <= x] at inspection time x > 0.

    ``(1 / cdf(x)) * integral of cdf over [0, x]`` by adaptive quadrature,
    with breakpoints at the median and the 1 - 1e-12 quantile where they
    lie below x: at large lam the cdf rises within about 1/lam of 0.
    """
    x = float(x)
    if x <= 0:
        raise ValueError("mit: x must be positive")
    c = model.cdf(x)
    log_sf = _log_sf(model)
    points = [t for t in model.quantile([0.5, 1.0 - 1e-12]).tolist() if t < x] or None
    return quad(lambda t: -math.expm1(log_sf(t)), 0.0, x, epsabs=1e-12, limit=200,
                points=points)[0] / c


def raw_moment(model: Clfrd, r: int) -> float:
    """r-th raw moment E[U^r] = r * integral of t^(r-1) sf(t) over [0, inf), r >= 1.

    The integrand of ``mrl`` at age 0 times ``r t^(r-1)``, so
    ``raw_moment(model, 1) == mrl(model, 0)`` exactly.
    """
    if int(r) != r or r < 1:
        raise ValueError("raw_moment: r must be a positive integer")
    r = int(r)
    log_sf = _log_sf(model)
    hi = model.quantile(1.0 - 1e-12)
    return r * _tail_integral(lambda t: t ** (r - 1) * math.exp(log_sf(t)), 0.0, hi, 1e-12)


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
# Bernstein's bound on the Poisson mass outside _poisson's window, at its
# largest over every mean (2.04e-27, near mean 0.007)
_LEFT_OUT = 2.1e-27


class SeriesResult(NamedTuple):
    value: float
    converged: bool
    tail_estimate: float


def _poisson(lam: float, y: float):
    """Poisson weights of mean ``lam e^(-y)`` on the counts j within
    ``12 sqrt(mean) + 40`` of the mean, and a bound on their relative rounding.

    The weights follow ``w_(j+1) = w_j mean / (j + 1)`` up and down from the
    mode and are normalized by their sum over the window, so no term grows
    with the mean.  Each carries the rounding of at most one multiply per
    count from the mode, which accumulates like a random walk: a few eps
    times the root of the window's length.  The Poisson mass outside the
    window is below ``_LEFT_OUT`` at every mean.
    """
    mean = lam * math.exp(-y)
    half = 12.0 * math.sqrt(mean) + 40.0
    lo, hi = max(math.ceil(mean - half), 0), math.floor(mean + half)
    mode = math.floor(mean)
    j = np.arange(lo, hi + 1.0)
    up = np.cumprod(mean / j[mode + 1 - lo:])
    down = np.cumprod(j[mode - lo:0:-1] / mean)
    w = np.concatenate([down[::-1], [1.0], up])
    return j, w / w.sum(), 4.0 * _EPS * math.sqrt(j.size)


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
    ``lam e^(-y)``, whose weights are ``p_j e^(-k y) / sf(x)``.  The mean
    residual life is that mixture of the LFR(k alpha, k beta) mean
    residual lives, so ``mrl_series(model, 0)`` is the mean.
    The tail estimate bounds the terms left out (the Poisson mass outside
    the window times the k = 1 term, the largest) plus the weights'
    rounding.
    """
    x = float(x)
    if x < 0:
        raise ValueError("mrl_series: x must be nonnegative")
    y = model.alpha * x + 0.5 * model.beta * x * x
    j, p, rounding = _poisson(model.lam, y)
    value = float(p @ _lfr_mrl(model, j + 1.0, x))
    tail = _LEFT_OUT * float(_lfr_mrl(model, 1.0, x)) + rounding * value
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
    j, p, rounding = _poisson(model.lam, 0.0)
    k = j + 1.0
    t0 = _lfr_mrl(model, k, 0.0)
    tx = np.exp(-k * y) * _lfr_mrl(model, k, x)
    inactive = x - t0 + tx
    c = model.cdf(x)
    value = float(p @ inactive) / c
    error = np.abs(inactive) * rounding + 16.0 * _EPS * (x + t0 + tx)
    tail = (_LEFT_OUT * x + float(p @ error)) / c
    return SeriesResult(value, tail <= 1e-10 * value, tail)
