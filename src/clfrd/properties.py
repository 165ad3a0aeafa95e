"""Reliability measures and structural classifiers for the compounded model.

Shape classification of the density and the hazard rate, mean residual
life, mean inactivity time, raw moments, median, order-statistic densities
and a likelihood-ratio-order grid check.

The integral measures are sums of closed forms.  The law is a Poisson
mixture of linear-failure-rate laws: the minimum of k = 1 + j LFR(alpha,
beta) lifetimes, j ~ Poisson(lam), is LFR(k alpha, k beta), whose tail
integrals (``scipy.special.erfcx``) and moments have closed forms.
``mrl``, ``raw_moment`` and, where cdf(x) > 1/2, ``mit`` are one-index
Poisson sums of those terms; below that ``mit`` integrates the cdf on 32
Gauss-Legendre nodes.  The Poisson weights come from their ratio
recurrence on a window of counts whose left-out mass is below a constant
2.1e-27 at every mean.  ``mrl_series`` and ``mit_series`` add an error
bound to the same sums.  The paper's own MRL and moment rewrites, a
k-expansion of the Gaussian-tail factor integrated term by term over an
infinite range, diverge for every parameter value and are not
implemented.  The median is the quantile's Newton solve at one half.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
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


def _age(name: str, x, positive: bool) -> float:
    """The age argument of measure ``name`` as a float, finite and nonnegative,
    or positive where the measure divides by ``cdf(x)``."""
    x = float(x)
    if not (0.0 < x < math.inf if positive else 0.0 <= x < math.inf):
        raise ValueError(f"{name}: x must be finite and {'positive' if positive else 'nonnegative'}")
    return x


def mrl(model: Clfrd, x) -> float:
    """Mean residual life E[U - x | U > x] at age x >= 0.

    The Poisson mixture of the LFR(k alpha, k beta) mean residual lives
    (``_mrl``).  Its weights are normalized over their window, so it holds
    where ``sf(x)`` itself underflows.
    """
    return _mrl(model, _age("mrl", x, positive=False))[0]


def mit(model: Clfrd, x) -> float:
    """Mean inactivity time E[x - U | U <= x] at inspection time x > 0.

    Where cdf(x) > 1/2, the Poisson mixture's complement (``_mit``).  Below
    that the complement cancels, and the integral of ``cdf(t) / cdf(x)``
    over [0, x] is taken on 32 Gauss-Legendre nodes: there the cdf is
    ``1 - e^(-E(t))`` with E an entire function of t below log 2.  Each
    node's cdf is divided by cdf(x) before the sum, which keeps the
    integral, about ``cdf'(0) x^2 / 2``, from underflowing at tiny ages.
    Where cdf(x) < 2^-60, the cdf is its leading term ``(1 + lam)(alpha t
    + beta t^2 / 2)`` to within cdf(x) relative, whose mit is
    ``x (3 alpha + beta x) / (6 alpha + 3 beta x)``: the nodes' ratios lose
    digits once cdf(x) is subnormal.
    """
    x = _age("mit", x, positive=True)
    c = model.cdf(x)
    if c > 0.5:
        return _mit(model, x, c)[0]
    if c < 2.0**-60:
        a, b = model.alpha, model.beta
        return x * ((3.0 * a + b * x) / (6.0 * a + 3.0 * b * x))
    return 0.5 * x * float(_WEIGHTS @ (model.cdf(0.5 * x * (_NODES + 1.0)) / c))


def raw_moment(model: Clfrd, r: int) -> float:
    """r-th raw moment E[U^r], r >= 1: the Poisson mixture of LFR moments.

    LFR(a, b), a = k alpha and b = k beta, has r-th moment ``r I_(r-1)``,
    I_m the integral of ``t^m e^(-(a t + b t^2 / 2))`` over [0, inf).  I_0
    is its mean residual life at age 0, so ``raw_moment(model, 1) ==
    mrl(model, 0)`` exactly.  By parts, ``b I_(m+1) = [m = 0] + m I_(m-1)
    - a I_m``.  Where ``a^2 / 2b < 8`` this runs forward; each step there
    can multiply the rounding by about ``a / sqrt(b)``, so at that switch
    E[U^3] is good to about 2e-14 and E[U^5] to 7e-13.  Above it, I_m is the
    recurrence's minimal solution, and the ratios ``I_m / I_(m-1) = m / (a
    + b I_(m+1) / I_m)`` come from this continued fraction, run down from
    depth 40 + r.
    """
    if not (1 <= r < math.inf and int(r) == r):
        raise ValueError("raw_moment: r must be a positive integer")
    r = int(r)
    if r == 1:
        return _mrl(model, 0.0)[0]
    j, p, _ = _poisson(model.lam, 0.0)
    k = j + 1.0
    a, b, integral = k * model.alpha, k * model.beta, _lfr_mrl(model, k, 0.0)
    up = a * a < 16.0 * b  # forward; the continued fraction elsewhere
    prev, cur = integral[up], (1.0 - a[up] * integral[up]) / b[up]
    for m in range(1, r - 1):
        prev, cur = cur, (m * prev - a[up] * cur) / b[up]
    a, b, ratio, product = a[~up], b[~up], 0.0, integral[~up]
    for m in range(40 + r, 0, -1):
        ratio = m / (a + b * ratio)
        if m < r:
            product = product * ratio
    integral[up], integral[~up] = cur, product
    return r * float(p @ integral)


def median(model: Clfrd) -> float:
    """Median: ``quantile(0.5)``, the quantile's monotone Newton solve."""
    return float(model.quantile(0.5))


def order_stat_pdf(model: Clfrd, n: int, k: int, x):
    """Density of the k-th order statistic of an i.i.d. sample of size n.

    ``n! / ((k-1)! (n-k)!) * pdf * cdf^(k-1) * sf^(n-k)``; the smallest
    order statistic (k = 1) reduces to ``n * pdf * sf^(n-1)``.
    """
    if not (1 <= k <= n < math.inf and int(n) == n and int(k) == k):
        raise ValueError("order_stat_pdf: need integers n >= 1 and 1 <= k <= n")
    n, k = int(n), int(k)
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
_MAX_WINDOW = 2**24  # counts; _poisson's window stays below this
_NODES, _WEIGHTS = leggauss(32)  # mit's rule on [-1, 1] where cdf(x) <= 1/2


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
    window is below ``_LEFT_OUT`` at every mean.  A window of ``_MAX_WINDOW``
    counts or more, a mean above about 4.9e11, raises ``ValueError``
    before anything is allocated: it would take about 80 bytes a count.
    """
    mean = lam * math.exp(-y)
    half = 12.0 * math.sqrt(mean) + 40.0
    lo, hi = max(math.ceil(mean - half), 0), math.floor(mean + half)
    if hi - lo >= _MAX_WINDOW:
        raise ValueError(f"lam = {lam:g} is too large: the Poisson mixture at mean lam*exp(-y) = "
                         f"{mean:.3g} needs {hi - lo + 1} terms, and at most 2^24 are summed")
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


def _mrl(model: Clfrd, x: float):
    """Mean residual life at x as the Poisson mixture of LFR laws, and a bound on its error.

    Given survival to x, j is Poisson with mean ``lam e^(-y)``, whose
    weights are ``p_j e^(-k y) / sf(x)``.  The mean residual life is that
    mixture of the LFR(k alpha, k beta) mean residual lives.  The bound is
    the terms left out (the Poisson mass outside the window times the
    k = 1 term, the largest) plus the weights' rounding.
    """
    y = model.alpha * x + 0.5 * model.beta * x * x
    j, p, rounding = _poisson(model.lam, y)
    value = float(p @ _lfr_mrl(model, j + 1.0, x))
    return value, _LEFT_OUT * float(_lfr_mrl(model, 1.0, x)) + rounding * value


def mrl_series(model: Clfrd, x) -> SeriesResult:
    """``mrl`` with ``_mrl``'s error bound as the tail estimate."""
    value, tail = _mrl(model, _age("mrl_series", x, positive=False))
    return SeriesResult(value, tail <= 1e-10 * value, tail)


def _mit(model: Clfrd, x: float, c: float):
    """Mean inactivity time at x, with ``c = cdf(x)``, as the Poisson mixture's complement.

    ``(x - sum of p_j (T_k(0) - T_k(x))) / c``, with T_k the tail integral
    of the minimum of k = 1 + j LFR lifetimes, and a bound on its error.
    The weights sum to one, so the numerator is summed as ``sum of p_j (x -
    T_k(0) + T_k(x))``, and their rounding scales these nonnegative
    component terms, not a difference.  The terms left out add at most the
    Poisson mass outside the window times x.  A component's complement
    cancels when c is small, so the bound adds its rounding, with a margin
    over the few ulps of erfcx, exp and sqrt in each term.
    """
    y = model.alpha * x + 0.5 * model.beta * x * x
    j, p, rounding = _poisson(model.lam, 0.0)
    k = j + 1.0
    t0 = _lfr_mrl(model, k, 0.0)
    tx = np.exp(-k * y) * _lfr_mrl(model, k, x)
    inactive = x - t0 + tx
    error = np.abs(inactive) * rounding + 16.0 * _EPS * (x + t0 + tx)
    return float(p @ inactive) / c, (_LEFT_OUT * x + float(p @ error)) / c


def mit_series(model: Clfrd, x) -> SeriesResult:
    """``_mit`` at every age with its error bound: ``mit`` where cdf(x) > 1/2, flagged where it cancels."""
    x = _age("mit_series", x, positive=True)
    value, tail = _mit(model, x, model.cdf(x))
    return SeriesResult(value, tail <= 1e-10 * value, tail)


def __getattr__(name):
    # only perfbench's tracer reads ``quad`` here, to wrap it; nothing in
    # the package calls it.  Bound on first access, so that importing this
    # module does not import scipy.integrate.  Delete this with that binding.
    if name != "quad":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import quad

    globals()[name] = quad
    return quad
