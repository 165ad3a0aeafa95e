"""Goodness-of-fit statistics and model comparison.

Kolmogorov-Smirnov, Anderson-Darling and Cramer-von-Mises statistics
against a fully specified CDF, AIC under two penalty conventions, and a
comparison runner that fits every registered model family and ranks the
results.

The K-S p-value uses the exact finite-sample null law for small untied
samples and the asymptotic Kolmogorov limit otherwise, mirroring the
switching rule of standard statistical software; parameters are treated
as known in either case, so p-values for fitted models carry the usual
optimistic bias and are comparison scores rather than calibrated tests.
The exact law is ``scipy.stats.kstwo`` and the limit is
``scipy.special.kolmogorov``, each imported in its own branch, and
``compare_models`` imports ``estimation`` (and so scipy's L-BFGS-B
extension) when it is called: the statistics themselves need numpy only,
and ``scipy.stats`` takes about half a second to import.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["GofReport", "GofWarning", "ks_test", "ad_stat", "cm_stat", "aic", "compare_models"]

_CLAMP = 1e-15


class GofWarning(UserWarning):
    """Raised-as-warning numerical events in the statistics (e.g. CDF clamping)."""


@dataclass
class GofReport:
    model_name: str
    ks_stat: float
    ks_pvalue: float
    ad_stat: float
    cm_stat: float
    neg2_loglik: float
    aic_standard: float
    aic_reduced: float
    error: str | None = None


def _probits(data, cdf) -> np.ndarray:
    x = np.sort(np.asarray(data, dtype=float).ravel())
    if x.size < 1:
        raise ValueError("need at least one observation")
    u = np.asarray(cdf(x), dtype=float)
    if np.any(~np.isfinite(u)) or np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError("cdf values must lie in [0, 1]")
    return u


def ks_test(data, cdf) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic and p-value against a fixed CDF.

    ``D = max_i max(i/n - u_i, u_i - (i-1)/n)`` over the sorted sample.
    The null law is chosen from the sample: the exact finite-n
    distribution when n < 100 and the sample has no ties, and the
    asymptotic law ``scipy.special.kolmogorov(sqrt(n) D)`` otherwise.
    """
    u = _probits(data, cdf)
    n = u.size
    i = np.arange(1, n + 1)
    stat = float(np.max(np.maximum(i / n - u, u - (i - 1) / n)))
    if n < 100 and np.unique(u).size == n:
        from scipy.stats import kstwo

        pvalue = float(kstwo.sf(stat, n))
    else:
        from scipy.special import kolmogorov

        pvalue = float(kolmogorov(math.sqrt(n) * stat))
    return stat, pvalue


def ad_stat(data, cdf) -> float:
    """Anderson-Darling statistic A^2 against a fixed CDF.

    CDF values are clamped away from {0, 1} by 1e-15 before the logs; a
    clamp event is surfaced as a ``GofWarning``.
    """
    u = _probits(data, cdf)
    n = u.size
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        warnings.warn("cdf values at 0 or 1 clamped before logs", GofWarning, stacklevel=2)
        u = np.clip(u, _CLAMP, 1.0 - _CLAMP)
    i = np.arange(1, n + 1)
    value = -n - np.mean((2 * i - 1) * (np.log(u) + np.log1p(-u[::-1])))
    return float(max(value, -1e-12))


def cm_stat(data, cdf) -> float:
    """Cramer-von-Mises statistic W^2 against a fixed CDF."""
    u = _probits(data, cdf)
    n = u.size
    i = np.arange(1, n + 1)
    return float(1.0 / (12.0 * n) + np.sum((u - (2 * i - 1) / (2.0 * n)) ** 2))


def aic(neg2_loglik: float, param_count: int) -> tuple[float, float]:
    """AIC under two conventions.

    Returns ``(standard, reduced)`` where standard is ``-2 loglik + 2k``
    and reduced is ``-2 loglik + 2 (k - 1)``; the reduced form penalizes
    one parameter fewer and matches the published comparison tables this
    toolkit reproduces.
    """
    if int(param_count) != param_count or param_count < 1:
        raise ValueError("aic: param_count must be a positive integer")
    k = int(param_count)
    return neg2_loglik + 2.0 * k, neg2_loglik + 2.0 * (k - 1)


def compare_models(data, models=("clfrd", "lfrd", "rd", "ed", "ged")) -> list[GofReport]:
    """Fit each named model and rank reports by standard AIC, ascending.

    A model that fails to fit (``NonConvergenceError``, ``ValueError``,
    ``ArithmeticError``) is captured on its row (NaN statistics, ``error``
    filled) and the comparison proceeds; failed rows sort last.  Ties
    break deterministically by model name.  Any other exception is a
    fault and propagates.
    """
    from . import estimation

    x = np.asarray(data, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("compare_models: empty dataset")
    reports: list[GofReport] = []
    for name in models:
        try:
            fit = estimation.fit_model(name, x)
            model = fit.model
            stat, pvalue = ks_test(x, model.cdf)
            a2 = ad_stat(x, model.cdf)
            w2 = cm_stat(x, model.cdf)
            aic_std, aic_red = aic(fit.neg2_loglik, model.param_count)
            reports.append(GofReport(name, stat, pvalue, a2, w2, fit.neg2_loglik, aic_std, aic_red))
        except (estimation.NonConvergenceError, ValueError, ArithmeticError) as exc:
            reports.append(GofReport(name, *[math.nan] * 7, error=str(exc)))
    reports.sort(key=lambda r: (math.isnan(r.aic_standard), r.aic_standard, r.model_name))
    return reports
