"""Reliability measures and structural classifiers for the compounded model.

Shape classification of the density and the hazard rate, mean residual
life, mean inactivity time, raw moments, median, order-statistic densities
and a likelihood-ratio-order grid check.

Quadrature is the primary computation for the integral quantities.  The
public functions check their arguments once; ``quad`` then integrates
plain-float copies of the model's survival function and density, not the
validating public methods.

The triple-series rewrites are provided as cross-checks only: their
k-expansion integrates a Gaussian-tail factor term by term over an
infinite range, so the k-sums for the mean residual life and the raw
moments have zero radius of convergence.  Those series are summed to the
smallest term (asymptotic truncation) and always report a truncation-error
estimate plus a convergence flag; they never silently return a value
whose tail test failed.  The mean inactivity time series integrates over a
finite range and genuinely converges.  The (shift, j) loop runs in Python;
each j block is one numpy (i, k) array, summed over k row by row with the
same stopping rules as a term-by-term loop.  The log-gamma and regularized
incomplete gamma factors are ``scipy.special.gammaln``, ``gammainc`` and
``gammaincc``; the median's Lambert W is the quantile's, in
``distributions``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
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
    "SeriesTruncation",
    "SeriesResult",
    "mrl_series",
    "mit_series",
    "raw_moment_series",
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
        return -y - lam + lam * math.exp(-y)

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
    """Closed-form median via the Lambert W function: ``quantile(0.5)``."""
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


@dataclass(frozen=True)
class SeriesTruncation:
    """Index caps and tail tolerance for the triple-series cross-checks.

    The i index never exceeds j (the binomial coefficient vanishes there),
    so ``max_i`` only matters when below ``max_j``.
    """

    max_i: int = 40
    max_j: int = 40
    max_k: int = 40
    tail_tolerance: float = 1e-10

    def __post_init__(self):
        if min(self.max_i, self.max_j, self.max_k) < 0:
            raise ValueError("SeriesTruncation: index caps must be nonnegative")
        if not self.tail_tolerance > 0:
            raise ValueError("SeriesTruncation: tail_tolerance must be positive")


class SeriesResult(NamedTuple):
    value: float
    converged: bool
    tail_estimate: float


def _k_sums(terms: np.ndarray, tol: float, allow_growth: bool):
    """Row-wise k accumulation of an (i, k) term array.

    A row stops after its first term below ``tol * |running total|``;
    without ``allow_growth`` it stops sooner, before its first term that is
    not smaller than the one before (the smallest term: asymptotic
    truncation for the divergent expansions).  Returns per row the total,
    the truncation-error estimate (the term a growth stop leaves out, 0
    after the tail test, the last term if finite when neither stop was
    met), whether the tail test was met, and the index of the last term
    reached.
    """
    n, width = terms.shape
    mag = np.abs(terms)
    with np.errstate(over="ignore", invalid="ignore"):
        # running[:, k] is the total before term k, summed from +0.0 in k order
        running = np.cumsum(np.concatenate([np.zeros((n, 1)), terms], axis=1), axis=1)
        small = mag < tol * np.maximum(np.abs(running[:, 1:]), 1e-300)
    if allow_growth:
        grew = np.zeros_like(small)
    else:
        grew = mag >= np.concatenate([np.full((n, 1), np.inf), mag[:, :-1]], axis=1)
    stop = small | grew
    hit = stop.any(axis=1)
    last = np.where(hit, stop.argmax(axis=1), width - 1)
    rows = np.arange(n)
    grew = grew[rows, last]
    ok = hit & ~grew
    tail = mag[rows, last]
    tail = np.where(ok | (~hit & ~np.isfinite(tail)), 0.0, tail)
    return running[rows, last + 1 - grew], tail, ok, last


def _log_gamma_integrals(s, c, x: float, upper: bool):
    """Log of the integral of t^(s-1) e^(-c t) over [x, inf) (upper) or [0, x].

    Also the log of a bound on its error: a regularized factor below the
    smallest normal float, ``tiny``, may be off by up to ``tiny`` (-inf elsewhere).
    """
    reg = regularized_gamma_q(s, c * x) if upper else regularized_gamma_p(s, c * x)
    log_gamma, log_c, tiny = ln_gamma(s), np.log(c), np.finfo(float).tiny
    with np.errstate(divide="ignore"):
        log_integral = log_gamma + np.log(reg) - s * log_c
    return log_integral, np.where(reg < tiny, log_gamma + math.log(tiny) - s * log_c, -np.inf)


def _sum_series(model: Clfrd, trunc: SeriesTruncation, x: float, upper: bool, parts,
                allow_growth: bool) -> tuple[float, float, bool]:
    """Triple sum over (shift, j, i, k) shared by the three series.

    The (i, k) term is ``sign * binom(j, i) lam^j / j! * beta^k (i+shift)^k
    / (2^k k!)`` times the sum over ``parts`` of ``coeff`` times the
    integral of ``t^(s-1) e^(-(i+shift) alpha t)`` over [x, inf) (upper)
    or [0, x], where each part is ``(coeff, s0)`` with ``s = 2k + s0``.  The
    gamma integrals of a shift are computed once for all its rows; each j
    block is then one (i, k) array, summed over k row by row with
    ``_k_sums``.  Blocks stop after two in a row below the tail tolerance.
    The flag also needs a bound on what gamma factors that underflowed left
    out of the reached terms to stay within the tolerance of the total.
    """
    a, b, lam = model.alpha, model.beta, model.lam
    tol = trunc.tail_tolerance
    k = np.arange(trunc.max_k + 1)
    log_fact = ln_gamma(np.arange(1.0, max(trunc.max_j, trunc.max_k) + 2.0))  # log n!
    ksign = np.where(k % 2, -1.0, 1.0)
    s = np.arange(1.0, 2.0 * trunc.max_k + max(s0 for _, s0 in parts) + 1.0)
    parts = [(coeff, s0) for coeff, s0 in parts if coeff != 0.0]
    total = 0.0
    tail = 0.0
    underflow_error = 0.0  # bound on what underflowed gamma factors left out
    k_ok = True
    j_ok = True
    for shift, outer in ((1, 1.0), (2, lam)):
        si = np.arange(min(trunc.max_j, trunc.max_i) + 1.0) + shift
        # log | beta^k (i+shift)^k / (2^k k!) |
        log_kw = k * (math.log(b) - math.log(2.0) + np.log(si))[:, None] - log_fact[k]
        integrals, errors = _log_gamma_integrals(s, si[:, None] * a, x, upper)
        log_parts = [(coeff, log_kw + integrals[:, s0 - 1:s0 + 2 * trunc.max_k:2]) for coeff, s0 in parts]
        log_errors = [(abs(coeff), log_kw + errors[:, s0 - 1:s0 + 2 * trunc.max_k:2]) for coeff, s0 in parts]
        any_error = bool(np.any(errors > -np.inf))
        small_blocks = 0
        for j in range(trunc.max_j + 1):
            n = min(j, trunc.max_i) + 1
            i = np.arange(n)
            # log |binom(j, i) lam^j / j!|
            log_coef = (log_fact[j] - log_fact[i] - log_fact[j - i] + j * math.log(lam) - log_fact[j])[:, None]
            with np.errstate(over="ignore", invalid="ignore"):
                terms = sum(coeff * np.exp(log_coef + log_part[:n]) for coeff, log_part in log_parts)
            terms = (np.where((i + j) % 2, -1.0, 1.0)[:, None] * ksign) * terms
            part, part_tail, part_ok, last = _k_sums(terms, tol, allow_growth)
            reached = k <= last[:, None]
            if not np.all(np.isfinite(terms[reached])):
                raise OverflowError("series term overflows float64")
            block = float((outer * part).sum())
            tail = max(tail, float((outer * part_tail).max()))
            k_ok = k_ok and bool(part_ok.all())
            if any_error:
                with np.errstate(over="ignore"):
                    error = sum(coeff * np.exp(log_coef + log_error[:n]) for coeff, log_error in log_errors)
                underflow_error += float(outer * error[reached].sum())
            total += block
            scale = max(abs(total), 1e-300)
            if abs(block) < tol * scale:
                small_blocks += 1
                if small_blocks >= 2:
                    break
            else:
                small_blocks = 0
        else:
            j_ok = False
    converged = k_ok and j_ok and max(tail, underflow_error) <= tol * max(abs(total), 1e-300)
    return total, tail, converged


def mrl_series(model: Clfrd, x, trunc: SeriesTruncation | None = None) -> SeriesResult:
    """Triple-series rewrite of the mean residual life, as a cross-check.

    The k-expansion of the quadratic exponential factor is summed to its
    smallest term: integrated over an infinite range it diverges for every
    parameter value, so only an asymptotic estimate exists.  The result
    carries that truncation-error estimate; ``converged`` reports whether
    the requested tail tolerance was actually met (for this series,
    normally not).  The gamma factors are upper incomplete, evaluated at
    ``(i + shift) * alpha * x``, and the coefficient on the middle term is
    ``alpha - beta x``; both reduce to the complete-gamma form at x = 0.
    """
    x = float(x)
    if x < 0:
        raise ValueError("mrl_series: x must be nonnegative")
    trunc = trunc or SeriesTruncation()
    a, b = model.alpha, model.beta
    parts = ((a - b * x, 2), (b, 3), (-a * x, 1))
    total, tail, converged = _sum_series(model, trunc, x, True, parts, allow_growth=False)
    s = model.sf(x)
    return SeriesResult(total / s, converged, tail / s)


def mit_series(model: Clfrd, x, trunc: SeriesTruncation | None = None) -> SeriesResult:
    """Triple-series rewrite of the mean inactivity time (convergent).

    Lower incomplete gamma factors over the finite range [0, x]; the
    k-terms decay factorially, so the series genuinely converges and the
    flag reflects the tail test at the requested tolerance.
    """
    x = float(x)
    if x <= 0:
        raise ValueError("mit_series: x must be positive")
    trunc = trunc or SeriesTruncation()
    parts = ((model.alpha, 2), (model.beta, 3))
    total, tail, converged = _sum_series(model, trunc, x, False, parts, allow_growth=True)
    c = model.cdf(x)
    return SeriesResult(x - total / c, converged, tail / c)


def raw_moment_series(model: Clfrd, r: int, trunc: SeriesTruncation | None = None) -> SeriesResult:
    """Triple-series rewrite of the r-th raw moment, as a cross-check.

    Same divergent k-expansion as the mean residual life series (infinite
    integration range, here from 0: complete gamma factors); summed to the
    smallest term with an error estimate.
    """
    if int(r) != r or r < 1:
        raise ValueError("raw_moment_series: r must be a positive integer")
    r = int(r)
    trunc = trunc or SeriesTruncation()
    parts = ((model.alpha, r + 1), (model.beta, r + 2))
    total, tail, converged = _sum_series(model, trunc, 0.0, True, parts, allow_growth=False)
    return SeriesResult(total, converged, tail)
