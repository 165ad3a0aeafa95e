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
    """Shape of the hazard rate; every hazard ends increasing.

    INVERSE_BATHTUB is the up-down-up shape ("+-+"): the hazard rises, dips
    and rises again.
    """

    INCREASING = "increasing"
    BATHTUB = "bathtub"
    INVERSE_BATHTUB = "inverse_bathtub"


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

    With ``y = alpha x + beta x^2 / 2``, h'(x) has the sign of
    ``g(y) = beta e^y + beta lam - lam (alpha^2 + 2 beta y)``, which is
    convex in y and grows without bound, so every hazard ends increasing.
    ``h0 = g(0) = beta (1 + lam) - lam alpha^2``.  For ``lam > 1/2``, g is
    least at ``y = log(2 lam)``, where it is ``lam (3 beta - alpha^2 -
    2 beta log(2 lam))``.  When that least value is negative the hazard
    dips: bathtub if ``h0 <= 0``, else inverse bathtub, the up-down-up
    shape ("+-+").  Otherwise g changes sign at most once: increasing if
    ``h0 >= 0``, else bathtub.  Every triple gets one of the three labels.
    """
    a, b, lam = model.alpha, model.beta, model.lam
    a2 = a * a
    h0 = b * (1.0 + lam) - lam * a2
    if lam > 0.5 and math.log(2.0 * lam) > (3.0 * b - a2) / (2.0 * b):
        return HazardShape.BATHTUB if h0 <= 0.0 else HazardShape.INVERSE_BATHTUB
    return HazardShape.INCREASING if h0 >= 0.0 else HazardShape.BATHTUB


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


def _age(name: str, x, positive: bool) -> float:
    """The age argument of measure ``name`` as a float, finite and nonnegative,
    or positive where the measure divides by ``cdf(x)``."""
    x = float(x)
    if not (0.0 < x < math.inf if positive else 0.0 <= x < math.inf):
        raise ValueError(f"{name}: x must be finite and {'positive' if positive else 'nonnegative'}")
    return x


def mrl(model: Clfrd, x) -> float:
    """Mean residual life E[U - x | U > x] at age x >= 0.

    The integral of ``sf(t) / sf(x)`` over [x, inf), by adaptive quadrature
    of ``exp(log_sf(t) - log_sf(x))``, which holds where ``sf(x)`` itself
    underflows.  The first leg ends at the
    1 - 1e-12 quantile, or 30 decay lengths ``1 / hazard(x)`` past an age
    beyond it.
    """
    x = _age("mrl", x, positive=False)
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
    x = _age("mit", x, positive=True)
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
    if not (1 <= r < math.inf and int(r) == r):
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
    x = _age("mrl_series", x, positive=False)
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
    x = _age("mit_series", x, positive=True)
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
