"""Maximum-likelihood fitting with analytic derivatives and Wald intervals.

The compounded-model log-likelihood, its exact gradient and observed
information matrix are implemented from a fresh differentiation of the
likelihood and gated by finite-difference tests.

One driver fits every family from a per-family table of raw loglik,
score, information and starts: BFGS over log-parameters (positivity by
construction) from each start, with a Nelder-Mead rescue for a start that
misses the gradient gate.

The likelihood surface carries a flat ridge in the compounding parameter:
as ``lam -> 0`` or ``lam -> inf`` (with the hazard parameters rescaled)
the model collapses to the plain linear-failure-rate law, so some samples
have no interior stationary point and the optimizer legitimately stops at
the edge of the search region.  Such fits are flagged ``boundary=True``.

Giving ``FitOptions.start`` selects a bounded L-BFGS-B search of the
compounded model from that start; the Monte Carlo recovery study uses it
with the true parameters as the start, the standard design for studying
the sampling behaviour of a local MLE on a ridged likelihood.  Its
gradient is L-BFGS-B's own forward difference, computed here in one numpy
pass over the point and its three shifted copies.  One loop runs scipy's
``setulb`` for a whole ``(reps, n)`` block of samples in lockstep
(``fit_clfrd_block``; a single fit is a block of one row): each round
steps every unfinished row to its next function request and answers them
all in one pass.  Every row's iterates, iteration count and stop are
those of ``minimize(method="L-BFGS-B")`` with scipy's finite differences
on that sample alone, bit for bit.  A local estimate pinned at the
``1e-10`` lower bound is flagged ``boundary=True``.

The public ``clfrd_loglik``/``clfrd_score``/``clfrd_observed_information``
and ``fit_*`` functions are the only validation point: they check the
data and parameters once and then call raw kernels, which optimizers
evaluate directly without re-validating.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize
from scipy.optimize._lbfgsb import setulb
from scipy.optimize._lbfgsb_py import status_messages as _LBFGSB_STATUS
from scipy.optimize._lbfgsb_py import task_messages as _LBFGSB_REASON
from scipy.special import ndtri

from .distributions import (
    Clfrd,
    Exponential,
    GeneralizedExponential,
    LifetimeModel,
    LinearFailureRate,
    MODEL_REGISTRY,
    Rayleigh,
)

__all__ = [
    "FitOptions",
    "FitResult",
    "LocalFits",
    "NonConvergenceError",
    "clfrd_loglik",
    "clfrd_score",
    "clfrd_observed_information",
    "fit_clfrd",
    "fit_clfrd_block",
    "fit_model",
    "fit_baselines",
    "wald_ci",
]

_LOG_EDGE = 25.0  # |log parameter| beyond this marks a ridge/boundary fit
_LOG_WALL = 600.0  # objective returns +inf past here to keep exp() finite
_GRADIENT_GATE = 1e-5  # scaled sup-norm of the log-scale gradient a fit must reach
_SIMPLEX_XATOL = 1e-9  # step tolerance of the Nelder-Mead rescue
_LOCAL_LOWER = 1e-10  # lower bound of every parameter in the local search
_FD_STEP = 1e-8  # L-BFGS-B's default absolute finite-difference step
_FD_FALLBACK = math.sqrt(np.finfo(float).eps)  # scipy's relative step when 1e-8 vanishes
# L-BFGS-B's default cap of 15000 evaluations, which counted each of the
# four points of a finite-difference gradient; one call now covers all four
_FD_MAXFUN = 15000 // 4
# the rest of minimize(method="L-BFGS-B")'s defaults, as setulb takes them
_LBFGSB_M = 10
_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps  # from its ftol
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
# setulb's task codes: (status, reason)
_TASK_FG, _TASK_NEW_X, _TASK_CONVERGENCE, _TASK_STOP = 3, 1, 4, 5
_TASK_EVALUATION_CAP, _TASK_ITERATION_CAP = 502, 504


class NonConvergenceError(RuntimeError):
    """No optimizer start satisfied the convergence gate."""


@dataclass
class FitOptions:
    max_iterations: int = 500
    ci_level: float = 0.95
    start: tuple | None = None  # natural-scale CLFRD start; selects the local fit
    compute_covariance: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("FitOptions: max_iterations must be positive")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("FitOptions: ci_level must lie in (0, 1)")
        if self.start is not None:
            start = np.asarray(self.start, dtype=float)
            if start.shape != (3,) or not np.all(np.isfinite(start) & (start > 0.0)):
                raise ValueError(f"FitOptions: start must be 3 finite, strictly positive values, "
                                 f"got {self.start!r}")


@dataclass
class FitResult:
    model: LifetimeModel
    params: dict[str, float]
    loglik: float
    neg2_loglik: float
    covariance: np.ndarray | None
    std_errors: dict[str, float] | None
    ci: dict[str, tuple[float, float]] | None
    ci_level: float
    converged: bool
    iterations: int
    n_restarts_used: int
    boundary: bool = False
    message: str = ""
    fisher_info: np.ndarray | None = field(default=None, repr=False)


def _check_data(data, minimum_size=1) -> np.ndarray:
    x = np.asarray(data, dtype=float).ravel()
    if x.size < minimum_size:
        raise ValueError(f"need at least {minimum_size} observations, got {x.size}")
    if np.any(~np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError("observations must be finite and strictly positive")
    return x


# ---------------------------------------------------------------------------
# raw kernels: no validation, for optimizers; the public functions below
# check their arguments once and call these


def _loglik_rows(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Log-likelihood at each row ``(alpha, beta, lam)`` of a ``(k, 3)`` stack.

    One numpy pass over a ``(k, n)`` array; every row is bit-identical to
    evaluating that row on its own.
    """
    a, b, lam = theta.T
    ac, bc, lc = a[:, None], b[:, None], lam[:, None]
    y = ac * x + 0.5 * bc * x * x
    e = np.exp(-y)
    return (
        -x.size * lam
        - a * x.sum()
        - 0.5 * b * (x * x).sum()
        + lam * e.sum(axis=1)
        + np.log(ac + bc * x).sum(axis=1)
        + np.log1p(lc * e).sum(axis=1)
    )


def _score(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    a, b, lam = theta
    y = a * x + 0.5 * b * x * x
    e = np.exp(-y)
    d = 1.0 + lam * e
    lin = a + b * x
    da = -x.sum() - lam * (x * e).sum() + (1.0 / lin).sum() - lam * (x * e / d).sum()
    db = (
        -0.5 * (x * x).sum()
        - 0.5 * lam * (x * x * e).sum()
        + (x / lin).sum()
        - 0.5 * lam * (x * x * e / d).sum()
    )
    dl = -float(x.size) + e.sum() + (e / d).sum()
    return np.array([da, db, dl])


def _information(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    a, b, lam = theta
    y = a * x + 0.5 * b * x * x
    e = np.exp(-y)
    d = 1.0 + lam * e
    lin = a + b * x
    w = 1.0 + 1.0 / (d * d)
    h_aa = (lam * x * x * e * w - 1.0 / lin**2).sum()
    h_ab = (0.5 * lam * x**3 * e * w - x / lin**2).sum()
    h_bb = (0.25 * lam * x**4 * e * w - x * x / lin**2).sum()
    h_al = -(x * e * w).sum()
    h_bl = -(0.5 * x * x * e * w).sum()
    h_ll = -(e * e / (d * d)).sum()
    hess = np.array([[h_aa, h_ab, h_al], [h_ab, h_bb, h_bl], [h_al, h_bl, h_ll]])
    return -hess


def _loglik(theta: np.ndarray, x: np.ndarray) -> float:
    return float(_loglik_rows(theta[None, :], x)[0])


def clfrd_loglik(model: Clfrd, data) -> float:
    """Log-likelihood of strictly positive observations under the model."""
    return _loglik(model.to_vector(), _check_data(data))


def clfrd_score(model: Clfrd, data) -> np.ndarray:
    """Exact gradient of the log-likelihood in (alpha, beta, lam)."""
    return _score(model.to_vector(), _check_data(data))


def clfrd_observed_information(model: Clfrd, data) -> np.ndarray:
    """Observed information: negative Hessian of the log-likelihood.

    Symmetric by construction; derived analytically and verified against
    finite differences of the score in the test suite.
    """
    return _information(model.to_vector(), _check_data(data))


def _hazard_starts(x: np.ndarray) -> list[tuple[float, float]]:
    # (alpha0, beta0) seeds around 1/mean and 1/mean^2
    m = float(x.mean())
    return [(c / m, d / m**2) for c, d in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5))]


def _default_starts(x: np.ndarray) -> list[tuple[float, float, float]]:
    return [(a0, b0, l0) for a0, b0 in _hazard_starts(x)[:2] for l0 in (0.1, 1.0, 3.0)]


# ---------------------------------------------------------------------------
# baseline kernels and the per-family table read by the fitting driver


def _log_pdf_sum(family: type[LifetimeModel]):
    return lambda theta, x: float(np.sum(family(*theta).log_pdf(x)))


def _lfr_score(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    a, b = theta
    lin = a + b * x
    return np.array([(1.0 / lin).sum() - x.sum(), (x / lin).sum() - 0.5 * (x * x).sum()])


def _lfr_information(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    a, b = theta
    lin = a + b * x
    return np.array(
        [[(1.0 / lin**2).sum(), (x / lin**2).sum()], [(x / lin**2).sum(), (x * x / lin**2).sum()]]
    )


def _ged_score(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    r, s = theta
    em = -np.expm1(-r * x)  # 1 - e^(-rx)
    ratio = x * np.exp(-r * x) / em
    return np.array(
        [x.size / r - x.sum() + (s - 1.0) * ratio.sum(), x.size / s + np.log(em).sum()]
    )


def _ged_information(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    r, s = theta
    em = -np.expm1(-r * x)
    grr = -x.size / r**2 - (s - 1.0) * (x * x * np.exp(-r * x) / em**2).sum()
    grs = (x * np.exp(-r * x) / em).sum()
    gss = -x.size / s**2
    return -np.array([[grr, grs], [grs, gss]])


# Raw kernels of one family in its natural parameters theta:
# loglik(theta, x), score(theta, x), information(theta, x) and starts(x)
_Family = namedtuple("_Family", "loglik score information starts")

# Keyed like MODEL_REGISTRY.  The exponential and Rayleigh starts are their
# closed-form estimates, where the gradient gate already holds.
_FAMILIES = {
    "clfrd": _Family(_loglik, _score, _information, _default_starts),
    "lfrd": _Family(_log_pdf_sum(LinearFailureRate), _lfr_score, _lfr_information, _hazard_starts),
    "rd": _Family(
        _log_pdf_sum(Rayleigh),
        lambda t, x: np.array([(x * x).sum() / t[0] ** 3 - 2.0 * x.size / t[0]]),
        lambda t, x: np.array([[3.0 * (x * x).sum() / t[0] ** 4 - 2.0 * x.size / t[0] ** 2]]),
        lambda x: [(math.sqrt(float((x * x).sum()) / (2.0 * x.size)),)],
    ),
    "ed": _Family(
        _log_pdf_sum(Exponential),
        lambda t, x: np.array([x.size / t[0] - x.sum()]),
        lambda t, x: np.array([[x.size / t[0] ** 2]]),
        lambda x: [(x.size / float(x.sum()),)],
    ),
    "ged": _Family(
        _log_pdf_sum(GeneralizedExponential), _ged_score, _ged_information,
        lambda x: [(1.0 / float(x.mean()), s0) for s0 in (0.5, 1.0, 2.5)],
    ),
}


# ---------------------------------------------------------------------------
# fitting: the multistart driver, the local compounded-model fit of the
# recovery study, and the entry points


def wald_ci(fit: FitResult, level: float | None = None) -> dict[str, tuple[float, float]]:
    """Normal-theory intervals est +/- z * stderr on the natural scale."""
    if fit.std_errors is None:
        raise ValueError("wald_ci: covariance unavailable for this fit")
    level = fit.ci_level if level is None else float(level)
    if not 0.0 < level < 1.0:
        raise ValueError("wald_ci: level must lie in (0, 1)")
    z = float(ndtri(0.5 + level / 2.0))
    return {
        name: (est - z * fit.std_errors[name], est + z * fit.std_errors[name])
        for name, est in fit.params.items()
    }


def _finalize(name, theta, x, opts, converged, iterations, restarts,
              boundary=False, message=""):
    family = _FAMILIES[name]
    model = MODEL_REGISTRY[name](*theta)
    ll = family.loglik(theta, x)
    covariance = std = info = None
    if opts.compute_covariance:
        info = np.asarray(family.information(theta, x), dtype=float)
        try:
            np.linalg.cholesky(info)
            covariance = np.linalg.inv(info)
        except np.linalg.LinAlgError:
            message = (message + "; " if message else "") + "observed information not positive definite"
        if covariance is not None:
            std = {nm: float(math.sqrt(covariance[i, i])) for i, nm in enumerate(model.param_names)}
    fit = FitResult(
        model=model,
        params=model.params(),
        loglik=ll,
        neg2_loglik=-2.0 * ll,
        covariance=covariance,
        std_errors=std,
        ci=None,
        ci_level=opts.ci_level,
        converged=converged,
        iterations=iterations,
        n_restarts_used=restarts,
        boundary=boundary,
        message=message,
        fisher_info=info,
    )
    if std is not None:
        fit.ci = wald_ci(fit)
    return fit


def _fit_multistart(name: str, x: np.ndarray, opts: FitOptions) -> FitResult:
    family = _FAMILIES[name]

    def neg_ll(lt):
        if np.any(np.abs(lt) > _LOG_WALL):
            return math.inf
        return -family.loglik(np.exp(lt), x)

    def neg_grad(lt):
        theta = np.exp(np.clip(lt, -_LOG_WALL, _LOG_WALL))
        return -family.score(theta, x) * theta

    def bfgs(lt0):
        return minimize(neg_ll, lt0, jac=neg_grad, method="BFGS",
                        options=dict(maxiter=opts.max_iterations, gtol=1e-9))

    best = None
    total_iter = 0
    starts = family.starts(x)
    for lt0 in (np.log(s) for s in starts):
        res = bfgs(lt0)
        iters = res.nit
        scaled = np.max(np.abs(neg_grad(res.x))) / x.size
        if scaled >= _GRADIENT_GATE:
            # simplex rescue, then polish again
            nm = minimize(neg_ll, res.x, method="Nelder-Mead",
                          options=dict(maxiter=4 * opts.max_iterations, maxfev=8 * opts.max_iterations,
                                       xatol=_SIMPLEX_XATOL, fatol=1e-12))
            res2 = bfgs(nm.x)
            iters += nm.nit + res2.nit
            if res2.fun <= res.fun:
                res = res2
            scaled = np.max(np.abs(neg_grad(res.x))) / x.size
        total_iter += iters
        if scaled < _GRADIENT_GATE and np.isfinite(res.fun):
            if best is None or -res.fun > best[0]:
                best = (-res.fun, res.x)
    if best is None:
        raise NonConvergenceError(f"{name}: no start satisfied the gradient gate")
    lt = best[1]
    boundary = bool(np.any(np.abs(lt) > _LOG_EDGE))
    message = "parameter at edge of search region (flat compounding ridge)" if boundary else ""
    return _finalize(name, np.exp(lt), x, opts, converged=True, iterations=total_iter,
                     restarts=len(starts), boundary=boundary, message=message)


def _neg_loglik_fd(theta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``-loglik`` at each theta and its forward-difference gradient, in one pass.

    ``theta`` is ``(..., 3)`` and ``x`` is ``(..., n)``: one sample per
    parameter row, broadcast against that row's four points (theta and its
    three forward points) rather than repeated.  The step is exactly the
    one L-BFGS-B takes itself (scipy's ``approx_derivative`` with absolute
    step 1e-8): a step that vanishes against a component falls back to
    ``sqrt(eps) * max(1, |theta|)``, and each difference is divided by the
    step actually taken, ``(theta + h) - theta``.  The lam-shifted point
    shares theta's ``exp(-y)`` and ``log(alpha + beta x)``, so three of each
    are computed per row.  Every row is bit-identical to ``-_loglik_rows`` at
    its points, so iterates match a run on ``-loglik`` with scipy's own
    finite differences bit for bit.  Points off the open positive orthant
    score ``+inf``.
    """
    vanishes = theta + _FD_STEP - theta == 0.0
    h = np.where(vanishes, _FD_FALLBACK * np.maximum(1.0, np.abs(theta)), _FD_STEP)
    up = theta + h
    a, b, lam = theta[..., :1], theta[..., 1:2], theta[..., 2:]
    # (alpha, beta) of theta and of its alpha- and beta-shifted points; lam of all four
    pa = np.concatenate([a, up[..., :1], a], axis=-1)
    pb = np.concatenate([b, b, up[..., 1:2]], axis=-1)
    pl = np.concatenate([lam, lam, lam, up[..., 2:]], axis=-1)
    ok_ab = np.isfinite(pa) & (pa > 0.0) & np.isfinite(pb) & (pb > 0.0)
    ok_lam = np.isfinite(pl) & (pl > 0.0)
    valid = np.concatenate([ok_ab, ok_ab[..., :1]], axis=-1) & ok_lam
    # off-orthant values are evaluated at 1 instead, which warns of nothing;
    # their points score +inf below
    pa, pb, pl = np.where(ok_ab, pa, 1.0), np.where(ok_ab, pb, 1.0), np.where(ok_lam, pl, 1.0)
    xs = x[..., None, :]
    ac, bc = pa[..., None], pb[..., None]
    e = np.exp(-(ac * xs + 0.5 * bc * xs * xs))
    log_lin = np.log(ac + bc * xs).sum(axis=-1)
    log_mix = np.concatenate([np.log1p(pl[..., :3, None] * e).sum(axis=-1),
                              np.log1p(pl[..., 3:] * e[..., 0, :]).sum(axis=-1, keepdims=True)],
                             axis=-1)
    pair = [0, 1, 2, 0]  # the (alpha, beta) each of the four points uses
    loglik = (
        -x.shape[-1] * pl
        - pa[..., pair] * x.sum(axis=-1, keepdims=True)
        - 0.5 * pb[..., pair] * (x * x).sum(axis=-1, keepdims=True)
        + pl * e.sum(axis=-1)[..., pair]
        + log_lin[..., pair]
        + log_mix
    )
    f = np.where(valid, -loglik, math.inf)
    return f[..., 0], (f[..., 1:] - f[..., :1]) / (up - theta)


class LocalFits(NamedTuple):
    """Outcome of the lockstep L-BFGS-B fits, one row per sample."""

    theta: np.ndarray  # (reps, 3) final iterates
    nit: np.ndarray  # (reps,) iterations
    task: np.ndarray  # (reps, 2) scipy's final (status, reason) task codes

    @property
    def converged(self) -> np.ndarray:
        return self.task[:, 0] == _TASK_CONVERGENCE

    @property
    def at_iteration_cap(self) -> np.ndarray:
        return self.task[:, 1] == _TASK_ITERATION_CAP

    @property
    def at_bound(self) -> np.ndarray:
        return np.any(self.theta <= _LOCAL_LOWER, axis=1)

    def message(self, row: int) -> str:
        """scipy's ``OptimizeResult.message`` for that row."""
        status, reason = self.task[row]
        return f"{_LBFGSB_STATUS[status]}: {_LBFGSB_REASON[reason]}"


def _lbfgsb_lockstep(samples: np.ndarray, start, max_iterations: int) -> LocalFits:
    """Bounded L-BFGS-B from ``start`` on every row of a ``(reps, n)`` block.

    Each row keeps its own scipy ``setulb`` state, with the settings of
    ``minimize(method="L-BFGS-B")`` on ``[1e-10, inf)`` bounds: m=10,
    default ``factr`` and ``pgtol``, ``maxls=20``, the ``max_iterations``
    and ``_FD_MAXFUN`` caps.  Each round steps every active row to its next
    function request and answers all requests with one ``_neg_loglik_fd``
    pass; a request at the point last evaluated reuses that value, as
    scipy's ``ScalarFunction`` does.  Each row's iterates, ``nit`` and stop
    are therefore those of ``minimize`` on that sample alone, whatever
    else shares the block.
    """
    reps, dim = samples.shape[0], 3
    x = np.tile(np.maximum(np.asarray(start, dtype=float), _LOCAL_LOWER), (reps, 1))
    # scipy evaluates the start before the first step
    f, g = _neg_loglik_fd(x, samples)
    evaluated_at = x.tolist()
    nit = np.zeros(reps, dtype=int)
    nfev = np.ones(reps, dtype=int)
    task = np.zeros((reps, 2), dtype=np.int32)
    workspace = list(zip(
        x, g, np.zeros((reps, 2 * _LBFGSB_M * dim + 5 * dim + 11 * _LBFGSB_M**2 + 8 * _LBFGSB_M)),
        np.zeros((reps, 3 * dim), dtype=np.int32), task, np.zeros((reps, 4), dtype=np.int32),
        np.zeros((reps, 44), dtype=np.int32), np.zeros((reps, 29)), np.zeros((reps, 2), dtype=np.int32),
    ))
    lower, upper = np.full(dim, _LOCAL_LOWER), np.zeros(dim)
    bound_kind = np.ones(dim, dtype=np.int32)  # lower bound only

    def requests_new_point(i: int) -> bool:
        # scipy's _minimize_lbfgsb loop for row i, up to its next
        # evaluation (True) or its stop (False)
        xi, gi, wa, iwa, ti, lsave, isave, dsave, ln_task = workspace[i]
        while True:
            setulb(_LBFGSB_M, xi, lower, upper, bound_kind, f[i], gi, _LBFGSB_FACTR,
                   _LBFGSB_PGTOL, wa, iwa, ti, lsave, isave, dsave, _LBFGSB_MAXLS, ln_task)
            if ti[0] == _TASK_FG:
                if xi.tolist() != evaluated_at[i]:
                    return True
            elif ti[0] == _TASK_NEW_X:
                nit[i] += 1
                if nit[i] >= max_iterations:
                    ti[:] = _TASK_STOP, _TASK_ITERATION_CAP
                elif nfev[i] > _FD_MAXFUN:
                    ti[:] = _TASK_STOP, _TASK_EVALUATION_CAP
            else:
                return False

    active = range(reps)
    while active:
        active = [i for i in active if requests_new_point(i)]
        if active:
            f[active], g[active] = _neg_loglik_fd(x[active], samples[active])
            nfev[active] += 1
            for i, point in zip(active, x[active].tolist()):
                evaluated_at[i] = point
    return LocalFits(x, nit, task)


def fit_clfrd_block(samples, opts: FitOptions) -> LocalFits:
    """Local L-BFGS-B fits of the compounded model, one per row of ``samples``.

    ``samples`` is a ``(reps, n)`` block of observations, validated once
    here, and ``opts.start`` is required.  Row ``r`` of the result is what
    ``fit_clfrd(samples[r], opts)`` reports, bit for bit: every row runs
    the same lockstep L-BFGS-B from the start.
    """
    block = np.asarray(samples, dtype=float)
    if block.ndim != 2 or block.shape[1] < 4:
        raise ValueError(f"need a (replications, n >= 4) block of observations, got shape {block.shape}")
    _check_data(block)
    if opts.start is None:
        raise ValueError("fit_clfrd_block: FitOptions.start is required")
    return _lbfgsb_lockstep(block, opts.start, opts.max_iterations)


def _fit_clfrd_local(x: np.ndarray, opts: FitOptions) -> FitResult:
    fits = _lbfgsb_lockstep(x[None, :], opts.start, opts.max_iterations)
    theta = fits.theta[0]
    converged = bool(fits.converged[0])
    pinned = [name for name, v in zip(Clfrd.param_names, theta) if v <= _LOCAL_LOWER]
    boundary = bool(pinned)
    message = "" if converged else fits.message(0)
    if boundary:
        note = f"{', '.join(pinned)} at the lower bound {_LOCAL_LOWER:g}"
        message = (message + "; " if message else "") + note
    return _finalize("clfrd", theta, x, opts, converged=converged, iterations=int(fits.nit[0]),
                     restarts=1, boundary=boundary, message=message)


def fit_clfrd(data, opts: FitOptions | None = None) -> FitResult:
    """Maximum-likelihood fit of the compounded model.

    Without ``opts.start``: the multistart driver over log-parameters from
    a deterministic grid of moment-based seeds (``alpha0 = 1/mean``,
    ``beta0 = 1/mean^2``, ``lam0`` in {0.1, 1, 3} plus scaled variants).
    Returns the best point passing the scaled-gradient gate; deterministic
    ties keep the earliest start.  With ``opts.start``: the local L-BFGS-B
    fit from that start.

    Raises ``NonConvergenceError`` when no multistart start converges.  A
    singular observed information leaves ``covariance``/``std_errors``/``ci``
    as None with a note in ``message``; the fit itself is still returned.
    """
    x = _check_data(data, minimum_size=4)
    opts = opts or FitOptions()
    if opts.start is not None:
        return _fit_clfrd_local(x, opts)
    return _fit_multistart("clfrd", x, opts)


def fit_model(name: str, data, opts: FitOptions | None = None) -> FitResult:
    """Fit one model family by name: clfrd, lfrd, rd, ed or ged.

    Every family runs the same multistart driver; the exponential and
    Rayleigh fits start at their closed-form estimates and stop there.
    ``opts.start`` selects the local fit, which only ``clfrd`` has; a
    baseline given a start raises ``ValueError``.
    """
    if name not in MODEL_REGISTRY:
        raise ValueError(f"unknown model {name!r}; expected one of {sorted(MODEL_REGISTRY)}")
    if name == "clfrd":
        return fit_clfrd(data, opts)
    opts = opts or FitOptions()
    if opts.start is not None:
        raise ValueError(f"FitOptions.start selects the local CLFRD fit; {name} has none")
    return _fit_multistart(name, _check_data(data, minimum_size=2), opts)


def fit_baselines(data, opts: FitOptions | None = None) -> dict[str, FitResult]:
    """Fit the four baseline families; keys lfrd, rd, ed, ged."""
    return {name: fit_model(name, data, opts) for name in ("lfrd", "rd", "ed", "ged")}
