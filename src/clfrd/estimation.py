"""Maximum-likelihood fitting with analytic derivatives and Wald intervals.

The compounded-model log-likelihood, its exact gradient and observed
information matrix are implemented from a fresh differentiation of the
likelihood and gated by finite-difference tests.  Fitting runs as an
unconstrained search over log-parameters (positivity by construction),
multi-started from a deterministic grid of moment-based seeds, with a
derivative-free simplex fallback behind a quasi-Newton polish.

The likelihood surface carries a flat ridge in the compounding parameter:
as ``lam -> 0`` or ``lam -> inf`` (with the hazard parameters rescaled)
the model collapses to the plain linear-failure-rate law, so some samples
have no interior stationary point and the optimizer legitimately stops at
the edge of the search region.  Such fits are flagged ``boundary=True``.

A separate ``"local"`` optimizer kind runs a bounded quasi-Newton search
(L-BFGS-B) from a caller-supplied start; the Monte Carlo recovery study
uses it with the true parameters as the start, the standard design for
studying the sampling behaviour of a local MLE on a ridged likelihood.
Its gradient is L-BFGS-B's own forward difference, computed here in one
numpy pass over the point and its three shifted copies, so the iterates
are those scipy's finite differences would give, bit for bit.  A local
estimate pinned at the ``1e-10`` lower bound is flagged ``boundary=True``.

The public ``clfrd_loglik``/``clfrd_score``/``clfrd_observed_information``
and ``fit_*`` functions are the only validation point: they check the
data and parameters once and then call raw kernels, which optimizers
evaluate directly without re-validating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
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
    "NonConvergenceError",
    "clfrd_loglik",
    "clfrd_score",
    "clfrd_observed_information",
    "fit_clfrd",
    "fit_model",
    "fit_baselines",
    "wald_ci",
]

_LOG_EDGE = 25.0  # |log parameter| beyond this marks a ridge/boundary fit
_LOG_WALL = 600.0  # objective returns +inf past here to keep exp() finite
_MAX_RESTARTS = 6  # size of the moment-based start grid of _default_starts
_LOCAL_LOWER = 1e-10  # lower bound of every parameter in the local search
_FD_STEP = 1e-8  # L-BFGS-B's default absolute finite-difference step
_FD_FALLBACK = math.sqrt(np.finfo(float).eps)  # scipy's relative step when 1e-8 vanishes
# L-BFGS-B's default cap of 15000 evaluations, which counted each of the
# four points of a finite-difference gradient; one call now covers all four
_FD_MAXFUN = 15000 // 4


class NonConvergenceError(RuntimeError):
    """No optimizer start satisfied the convergence gate."""


@dataclass
class FitOptions:
    max_iterations: int = 500
    restart_count: int = 6
    gradient_tolerance: float = 1e-5  # scaled sup-norm of the log-scale gradient
    step_tolerance: float = 1e-9
    ci_level: float = 0.95
    optimizer_kind: str = "multistart"  # or "local"
    start: tuple | None = None  # natural-scale start for the local kind
    compute_covariance: bool = True

    def __post_init__(self):
        if self.max_iterations < 1 or self.restart_count < 1:
            raise ValueError("FitOptions: iteration and restart counts must be positive")
        if self.restart_count > _MAX_RESTARTS:
            raise ValueError(f"FitOptions: restart_count must be at most {_MAX_RESTARTS}, "
                             f"the size of the start grid, got {self.restart_count}")
        if self.gradient_tolerance <= 0 or self.step_tolerance <= 0:
            raise ValueError("FitOptions: tolerances must be positive")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("FitOptions: ci_level must lie in (0, 1)")
        if self.optimizer_kind not in ("multistart", "local"):
            raise ValueError(f"FitOptions: unknown optimizer_kind {self.optimizer_kind!r}")
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


def clfrd_loglik(model: Clfrd, data) -> float:
    """Log-likelihood of strictly positive observations under the model."""
    return float(_loglik_rows(model.to_vector()[None, :], _check_data(data))[0])


def clfrd_score(model: Clfrd, data) -> np.ndarray:
    """Exact gradient of the log-likelihood in (alpha, beta, lam)."""
    return _score(model.to_vector(), _check_data(data))


def clfrd_observed_information(model: Clfrd, data) -> np.ndarray:
    """Observed information: negative Hessian of the log-likelihood.

    Symmetric by construction; derived analytically and verified against
    finite differences of the score in the test suite.
    """
    return _information(model.to_vector(), _check_data(data))


def _z_value(level: float) -> float:
    return float(ndtri(0.5 + level / 2.0))


def wald_ci(fit: FitResult, level: float | None = None) -> dict[str, tuple[float, float]]:
    """Normal-theory intervals est +/- z * stderr on the natural scale."""
    if fit.std_errors is None:
        raise ValueError("wald_ci: covariance unavailable for this fit")
    level = fit.ci_level if level is None else float(level)
    if not 0.0 < level < 1.0:
        raise ValueError("wald_ci: level must lie in (0, 1)")
    z = _z_value(level)
    return {
        name: (est - z * fit.std_errors[name], est + z * fit.std_errors[name])
        for name, est in fit.params.items()
    }


def _finalize(model, x, loglik_fn, info_fn, opts, converged, iterations, restarts,
              boundary=False, message=""):
    ll = loglik_fn(model, x)
    covariance = std = ci = None
    info = None
    if opts.compute_covariance:
        info = np.asarray(info_fn(model, x), dtype=float)
        try:
            np.linalg.cholesky(info)
            covariance = np.linalg.inv(info)
        except np.linalg.LinAlgError:
            covariance = None
            message = (message + "; " if message else "") + "observed information not positive definite"
        if covariance is not None:
            names = list(model.param_names)
            std = {nm: float(math.sqrt(covariance[i, i])) for i, nm in enumerate(names)}
            z = _z_value(opts.ci_level)
            est = model.to_vector()
            ci = {nm: (float(est[i] - z * std[nm]), float(est[i] + z * std[nm])) for i, nm in enumerate(names)}
    return FitResult(
        model=model,
        params=model.params(),
        loglik=ll,
        neg2_loglik=-2.0 * ll,
        covariance=covariance,
        std_errors=std,
        ci=ci,
        ci_level=opts.ci_level,
        converged=converged,
        iterations=iterations,
        n_restarts_used=restarts,
        boundary=boundary,
        message=message,
        fisher_info=info,
    )


# ---------------------------------------------------------------------------
# compounded-model fitting


def _neg_loglik_logscale(lt: np.ndarray, x: np.ndarray) -> float:
    if np.any(np.abs(lt) > _LOG_WALL):
        return math.inf
    return -float(_loglik_rows(np.exp(lt)[None, :], x)[0])


def _neg_grad_logscale(lt: np.ndarray, x: np.ndarray) -> np.ndarray:
    theta = np.exp(np.clip(lt, -_LOG_WALL, _LOG_WALL))
    return -_score(theta, x) * theta


def _default_starts(x: np.ndarray, count: int) -> list[tuple[float, float, float]]:
    m = float(x.mean())
    bases = [(1.0 / m, 1.0 / m**2), (0.5 / m, 2.0 / m**2)]
    starts = [(a0, b0, l0) for a0, b0 in bases for l0 in (0.1, 1.0, 3.0)]
    return starts[:count]


def _fit_clfrd_multistart(x: np.ndarray, opts: FitOptions) -> FitResult:
    best = None
    total_iter = 0
    starts = _default_starts(x, opts.restart_count)
    for lt0 in (np.log(s) for s in starts):
        res = minimize(
            _neg_loglik_logscale, lt0, args=(x,), jac=_neg_grad_logscale,
            method="BFGS", options=dict(maxiter=opts.max_iterations, gtol=1e-9),
        )
        iters = res.nit
        scaled = np.max(np.abs(_neg_grad_logscale(res.x, x))) / x.size
        if scaled >= opts.gradient_tolerance:
            # simplex rescue, then polish again
            nm = minimize(
                _neg_loglik_logscale, res.x, args=(x,), method="Nelder-Mead",
                options=dict(maxiter=4 * opts.max_iterations, maxfev=8 * opts.max_iterations,
                             xatol=opts.step_tolerance, fatol=1e-12),
            )
            res2 = minimize(
                _neg_loglik_logscale, nm.x, args=(x,), jac=_neg_grad_logscale,
                method="BFGS", options=dict(maxiter=opts.max_iterations, gtol=1e-9),
            )
            iters += nm.nit + res2.nit
            if res2.fun <= res.fun:
                res = res2
            scaled = np.max(np.abs(_neg_grad_logscale(res.x, x))) / x.size
        total_iter += iters
        if scaled < opts.gradient_tolerance and np.isfinite(res.fun):
            if best is None or -res.fun > best[0]:
                best = (-res.fun, res.x, iters)
    if best is None:
        raise NonConvergenceError("fit_clfrd: no start satisfied the gradient gate")
    _, lt, iters = best
    model = Clfrd(*np.exp(lt))
    boundary = bool(np.any(np.abs(lt) > _LOG_EDGE))
    message = "parameter at edge of search region (flat compounding ridge)" if boundary else ""
    return _finalize(model, x, clfrd_loglik, clfrd_observed_information, opts,
                     converged=True, iterations=total_iter, restarts=len(starts),
                     boundary=boundary, message=message)


def _neg_loglik_fd(theta: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """``-loglik`` at theta and its forward-difference gradient, in one pass.

    Evaluates theta and its three forward points as one ``(4, n)`` stack,
    with exactly the step L-BFGS-B takes itself (scipy's
    ``approx_derivative`` with absolute step 1e-8): a step that vanishes
    against a component falls back to ``sqrt(eps) * max(1, |theta|)``, and
    each difference is divided by the step actually taken,
    ``(theta + h) - theta``.  Iterates therefore match a run on ``-loglik``
    with scipy's own finite differences bit for bit.  Points off the open
    positive orthant score ``+inf``.
    """
    vanishes = theta + _FD_STEP - theta == 0.0
    h = np.where(vanishes, _FD_FALLBACK * np.maximum(1.0, np.abs(theta)), _FD_STEP)
    points = np.vstack([theta, theta + np.diag(h)])
    valid = np.all(np.isfinite(points) & (points > 0.0), axis=1)
    f = np.full(4, math.inf)
    f[valid] = -_loglik_rows(points[valid], x)
    return float(f[0]), (f[1:] - f[0]) / ((theta + h) - theta)


def _fit_clfrd_local(x: np.ndarray, opts: FitOptions) -> FitResult:
    if opts.start is None:
        raise ValueError("FitOptions.start is required for the local optimizer kind")
    res = minimize(
        _neg_loglik_fd, np.asarray(opts.start, dtype=float), args=(x,), jac=True,
        method="L-BFGS-B", bounds=[(_LOCAL_LOWER, None)] * 3,
        options=dict(maxiter=opts.max_iterations, maxfun=_FD_MAXFUN),
    )
    converged = res.status == 0
    pinned = [name for name, v in zip(Clfrd.param_names, res.x) if v <= _LOCAL_LOWER]
    boundary = bool(pinned)
    message = "" if converged else str(res.message)
    if boundary:
        note = f"{', '.join(pinned)} at the lower bound {_LOCAL_LOWER:g}"
        message = (message + "; " if message else "") + note
    model = Clfrd(*res.x)
    return _finalize(model, x, clfrd_loglik, clfrd_observed_information, opts,
                     converged=converged, iterations=res.nit, restarts=1,
                     boundary=boundary, message=message)


def fit_clfrd(data, opts: FitOptions | None = None) -> FitResult:
    """Maximum-likelihood fit of the compounded model.

    Multi-start search over log-parameters from a deterministic grid of
    moment-based seeds (``alpha0 = 1/mean``, ``beta0 = 1/mean^2``,
    ``lam0`` in {0.1, 1, 3} plus scaled variants); quasi-Newton with the
    analytic gradient, simplex fallback when a start stalls.  Returns the
    best point passing the scaled-gradient gate; deterministic ties keep
    the earliest start.

    Raises ``NonConvergenceError`` when no start converges.  A singular
    observed information leaves ``covariance``/``std_errors``/``ci`` as
    None with a note in ``message``; the fit itself is still returned.
    """
    x = _check_data(data, minimum_size=4)
    opts = opts or FitOptions()
    if opts.optimizer_kind == "local":
        return _fit_clfrd_local(x, opts)
    return _fit_clfrd_multistart(x, opts)


# ---------------------------------------------------------------------------
# baseline fits


def _loglik_of(model: LifetimeModel, x: np.ndarray) -> float:
    return float(np.sum(model.log_pdf(x)))


def _fit_exponential(x: np.ndarray, opts: FitOptions) -> FitResult:
    rate = x.size / float(x.sum())
    model = Exponential(rate)
    info_fn = lambda m, d: np.array([[d.size / m.rate**2]])
    return _finalize(model, x, _loglik_of, info_fn, opts, True, 0, 1)


def _fit_rayleigh(x: np.ndarray, opts: FitOptions) -> FitResult:
    sigma = math.sqrt(float((x * x).sum()) / (2.0 * x.size))
    model = Rayleigh(sigma)
    info_fn = lambda m, d: np.array([[4.0 * d.size / m.sigma**2]])
    return _finalize(model, x, _loglik_of, info_fn, opts, True, 0, 1)


def _lfr_score(model: LinearFailureRate, x: np.ndarray) -> np.ndarray:
    lin = model.alpha + model.beta * x
    return np.array([(1.0 / lin).sum() - x.sum(), (x / lin).sum() - 0.5 * (x * x).sum()])


def _lfr_information(model: LinearFailureRate, x: np.ndarray) -> np.ndarray:
    lin = model.alpha + model.beta * x
    return np.array(
        [[(1.0 / lin**2).sum(), (x / lin**2).sum()], [(x / lin**2).sum(), (x * x / lin**2).sum()]]
    )


def _ged_score(model: GeneralizedExponential, x: np.ndarray) -> np.ndarray:
    r, s = model.rate, model.shape
    em = -np.expm1(-r * x)  # 1 - e^(-rx)
    ratio = x * np.exp(-r * x) / em
    return np.array(
        [x.size / r - x.sum() + (s - 1.0) * ratio.sum(), x.size / s + np.log(em).sum()]
    )


def _ged_information(model: GeneralizedExponential, x: np.ndarray) -> np.ndarray:
    r, s = model.rate, model.shape
    em = -np.expm1(-r * x)
    grr = -x.size / r**2 - (s - 1.0) * (x * x * np.exp(-r * x) / em**2).sum()
    grs = (x * np.exp(-r * x) / em).sum()
    gss = -x.size / s**2
    return -np.array([[grr, grs], [grs, gss]])


def _fit_two_param(x, opts, family, score_fn, info_fn, starts) -> FitResult:
    def neg_ll(lt):
        if np.any(np.abs(lt) > _LOG_WALL):
            return math.inf
        return -_loglik_of(family(*np.exp(lt)), x)

    def neg_grad(lt):
        theta = np.exp(np.clip(lt, -_LOG_WALL, _LOG_WALL))
        return -score_fn(family(*theta), x) * theta

    best = None
    for s0 in starts:
        res = minimize(neg_ll, np.log(s0), jac=neg_grad, method="BFGS",
                       options=dict(maxiter=opts.max_iterations, gtol=1e-10))
        if np.isfinite(res.fun) and (best is None or -res.fun > best[0]):
            best = (-res.fun, res.x, res.nit)
    if best is None:
        raise NonConvergenceError(f"{family.__name__}: no start converged")
    _, lt, iters = best
    model = family(*np.exp(lt))
    scaled = np.max(np.abs(score_fn(model, x) * np.exp(lt))) / x.size
    return _finalize(model, x, _loglik_of, info_fn, opts,
                     converged=scaled < 1e-4, iterations=iters, restarts=len(starts))


def fit_model(name: str, data, opts: FitOptions | None = None) -> FitResult:
    """Fit one model family by name: clfrd, lfrd, rd, ed or ged.

    The exponential and Rayleigh estimates are closed form; the two- and
    three-parameter families run the numeric machinery.
    """
    if name not in MODEL_REGISTRY:
        raise ValueError(f"unknown model {name!r}; expected one of {sorted(MODEL_REGISTRY)}")
    opts = opts or FitOptions()
    if name == "clfrd":
        return fit_clfrd(data, opts)
    x = _check_data(data, minimum_size=2)
    if name == "ed":
        return _fit_exponential(x, opts)
    if name == "rd":
        return _fit_rayleigh(x, opts)
    m = float(x.mean())
    if name == "lfrd":
        starts = [(1.0 / m, 1.0 / m**2), (0.5 / m, 2.0 / m**2), (2.0 / m, 0.5 / m**2)]
        return _fit_two_param(x, opts, LinearFailureRate, _lfr_score, _lfr_information, starts)
    starts = [(1.0 / m, s0) for s0 in (0.5, 1.0, 2.5)]
    return _fit_two_param(x, opts, GeneralizedExponential, _ged_score, _ged_information, starts)


def fit_baselines(data, opts: FitOptions | None = None) -> dict[str, FitResult]:
    """Fit the four baseline families; keys lfrd, rd, ed, ged."""
    return {name: fit_model(name, data, opts) for name in ("lfrd", "rd", "ed", "ged")}
