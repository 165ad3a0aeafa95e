"""Maximum-likelihood fitting with analytic derivatives and Wald intervals.

The compounded-model log-likelihood, its exact gradient and observed
information matrix are implemented from a fresh differentiation of the
likelihood and gated by finite-difference tests.

One driver fits every family from a per-family table of raw kernels: the
loglik with its score from one pass, the information and the starts.  The
starts are the rows of one unbounded L-BFGS-B run over log-parameters
(positivity by construction) that takes value and gradient from that
kernel; a row is kept when its gradient at its final point meets the
gate, and its value there is the fit's loglik.  The loglik kernel takes
a ``(k, d)`` stack of points, each row broadcast against the data in one
numpy pass, so one kernel call per round answers every active start.

The likelihood surface carries a flat ridge in the compounding parameter:
as ``lam -> 0`` or ``lam -> inf`` (with the hazard parameters rescaled)
the model collapses to the plain linear-failure-rate law, so some samples
have no interior stationary point and the optimizer legitimately stops at
the edge of the search region.  Such fits are flagged ``boundary=True``.

``fit_clfrd_block`` is the other fit, the one the Monte Carlo recovery
study runs: a bounded L-BFGS-B search of the compounded model from a
given start, the true parameters in the study, the standard design for
studying the sampling behaviour of a local MLE on a ridged likelihood.
Its gradient is L-BFGS-B's own forward difference, computed here in one
numpy pass over the point and its three shifted copies, from each
sample's sum and sum of squares taken once per block, for a whole
``(reps, n)`` block in row passes of about 8192 observations, with scipy's
OpenBLAS held to one thread.  An estimate pinned at the ``1e-10`` lower
bound is flagged in ``LocalFits.at_bound``.

Both fits run one loop, ``_lbfgsb_lockstep``, which keeps a scipy
``setulb`` state per row, steps every unfinished row to its next function
request and answers them all at once.  Every row's iterates, iteration
count and stop are those of scipy's L-BFGS-B ``minimize`` with the same
settings on that row alone, bit for bit.

The public ``clfrd_loglik``/``clfrd_score``/``clfrd_observed_information``
and ``fit_*`` functions are the only validation point: they check the
data and parameters once and then call raw kernels, which optimizers
evaluate directly without re-validating.
"""

from __future__ import annotations

import ctypes
import functools
import math
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy
from scipy.optimize import minimize  # noqa: F401  perfbench's tracer wraps it in this namespace
from scipy.optimize._lbfgsb import setulb
from scipy.special import ndtri

from .distributions import Clfrd, LifetimeModel, MODEL_REGISTRY

__all__ = [
    "FitResult",
    "LocalFits",
    "NonConvergenceError",
    "clfrd_loglik",
    "clfrd_score",
    "clfrd_observed_information",
    "fit_clfrd",
    "fit_clfrd_block",
    "fit_model",
]

_MAX_ITERATIONS = 500  # L-BFGS-B cap of each start of the multistart driver
_FIT_FACTR, _FIT_PGTOL = 10.0, 1e-9  # its stops: ftol of 10 eps, gtol 1e-9
_LOCAL_MAX_ITERATIONS = 100  # L-BFGS-B cap of the local fit
_LOG_EDGE = 25.0  # |log parameter| beyond this marks a ridge/boundary fit
_LOG_WALL = 600.0  # objective returns +inf past here to keep exp() finite
_GRADIENT_GATE = 1e-5  # scaled sup-norm of the log-scale gradient a fit must reach
_LOCAL_LOWER = 1e-10  # lower bound of every parameter in the local search
_FD_STEP = 1e-8  # L-BFGS-B's default absolute finite-difference step
_FD_FALLBACK = math.sqrt(np.finfo(float).eps)  # scipy's relative step when 1e-8 vanishes
# L-BFGS-B's default cap of evaluations; the local fit's is a quarter of it, as
# scipy counts each of a finite-difference gradient's four points, one call here
_MAXFUN = 15000
_PASS_SIZE = 8192  # observations per _neg_loglik_fd pass of the lockstep fits
# the rest of scipy's L-BFGS-B defaults, as setulb takes them
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
    boundary: bool = False
    message: str = ""


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


def _loglik_score(theta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-likelihood and its exact gradient in (alpha, beta, lam), from one pass.

    ``theta`` is one point ``(3,)`` or a ``(k, 3)`` stack of them, every
    row broadcast against ``x`` in the same numpy pass; row ``i`` of the
    result is the call on ``theta[i]`` alone, bit for bit.

    The log-density is summed in its expanded form ``-y - lam + lam*e``,
    which cancels at large lam (``Clfrd.log_pdf`` uses the exact
    ``lam*expm1(-y)``): the study's ``_neg_loglik_fd`` writes the same
    expressions in the same order, so its value is ``-loglik`` bit for bit.
    """
    a, b, lam = theta[..., 0], theta[..., 1], theta[..., 2]
    ac, bc = a[..., None], b[..., None]
    y = ac * x + 0.5 * bc * x * x
    e = np.exp(-y)
    le = lam[..., None] * e
    d = 1.0 + le
    lin = ac + bc * x
    xx = x * x
    sx, sxx = x.sum(), xx.sum()
    xe, xxe = x * e, xx * e
    loglik = (-x.size * lam - a * sx - 0.5 * b * sxx + lam * e.sum(axis=-1) + np.log(lin).sum(axis=-1)
              + np.log1p(le).sum(axis=-1))
    da = -sx - lam * xe.sum(axis=-1) + (1.0 / lin).sum(axis=-1) - lam * (xe / d).sum(axis=-1)
    db = (-0.5 * sxx - 0.5 * lam * xxe.sum(axis=-1) + (x / lin).sum(axis=-1)
          - 0.5 * lam * (xxe / d).sum(axis=-1))
    dl = -float(x.size) + e.sum(axis=-1) + (e / d).sum(axis=-1)
    return loglik, np.stack([da, db, dl], axis=-1)


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
    return float(_loglik_score(model.to_vector(), _check_data(data))[0])


def clfrd_score(model: Clfrd, data) -> np.ndarray:
    """Exact gradient of the log-likelihood in (alpha, beta, lam)."""
    return _loglik_score(model.to_vector(), _check_data(data))[1]


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
    return [(a0, b0, l0) for a0, b0 in _hazard_starts(x)[:2] for l0 in (0.1, 1.0, 10.0, 100.0, 1000.0)]


# ---------------------------------------------------------------------------
# baseline kernels and the per-family table read by the fitting driver; each
# loglik keeps the expression order of its class's log_pdf, so a fit is the
# one through the public method bit for bit


def _math_log(v: np.ndarray) -> np.ndarray:
    # math.log of each entry: np.log differs from it in the last bit on some
    # arguments, and the classes' log_pdf take their constants from math.log
    return np.reshape([math.log(t) for t in v.ravel().tolist()], v.shape)


def _lfr_loglik_score(theta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b = theta[..., 0, None], theta[..., 1, None]
    lin = a + b * x
    loglik = np.sum(np.log(lin) - a * x - 0.5 * b * x * x, axis=-1)
    return loglik, np.stack([(1.0 / lin).sum(axis=-1) - x.sum(),
                             (x / lin).sum(axis=-1) - 0.5 * (x * x).sum()], axis=-1)


def _lfr_information(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    a, b = theta
    lin = a + b * x
    return np.array(
        [[(1.0 / lin**2).sum(), (x / lin**2).sum()], [(x / lin**2).sum(), (x * x / lin**2).sum()]]
    )


def _ged_loglik_score(theta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r, s = theta[..., 0], theta[..., 1]
    rc, sc = r[..., None], s[..., None]
    em = -np.expm1(-rc * x)  # 1 - e^(-rx)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_em = np.log(em)
        loglik = np.sum(_math_log(sc * rc) - rc * x + (sc - 1.0) * log_em, axis=-1)
    ratio = x * np.exp(-rc * x) / em
    return loglik, np.stack([x.size / r - x.sum() + (s - 1.0) * ratio.sum(axis=-1),
                             x.size / s + log_em.sum(axis=-1)], axis=-1)


def _ged_information(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    r, s = theta
    em = -np.expm1(-r * x)
    grr = -x.size / r**2 - (s - 1.0) * (x * x * np.exp(-r * x) / em**2).sum()
    grs = (x * np.exp(-r * x) / em).sum()
    gss = -x.size / s**2
    return -np.array([[grr, grs], [grs, gss]])


# Raw kernels of one family in its natural parameters theta:
# loglik_score(theta, x) -> (loglik, score), information(theta, x) and starts(x).
# loglik_score takes one point (d,) or a (k, d) stack, whose row i is the
# call on theta[i] alone, bit for bit; information takes one point
_Family = namedtuple("_Family", "loglik_score information starts")

# Keyed like MODEL_REGISTRY.  The exponential and Rayleigh starts are their
# closed-form estimates, where the gradient gate already holds.
_FAMILIES = {
    "clfrd": _Family(_loglik_score, _information, _default_starts),
    "lfrd": _Family(_lfr_loglik_score, _lfr_information, _hazard_starts),
    "rd": _Family(
        lambda t, x: (np.sum(np.log(x) - 2.0 * _math_log(t) - x * x / (2.0 * t * t), axis=-1),
                      (x * x).sum() / t ** 3 - 2.0 * x.size / t),
        lambda t, x: np.array([[3.0 * (x * x).sum() / t[0] ** 4 - 2.0 * x.size / t[0] ** 2]]),
        lambda x: [(math.sqrt(float((x * x).sum()) / (2.0 * x.size)),)],
    ),
    "ed": _Family(
        lambda t, x: (np.sum(_math_log(t) - t * x, axis=-1), x.size / t - x.sum()),
        lambda t, x: np.array([[x.size / t[0] ** 2]]),
        lambda x: [(x.size / float(x.sum()),)],
    ),
    "ged": _Family(
        _ged_loglik_score, _ged_information,
        lambda x: [(1.0 / float(x.mean()), s0) for s0 in (0.5, 1.0, 2.5)],
    ),
}


# ---------------------------------------------------------------------------
# fitting: the multistart driver, the local compounded-model fit of the
# recovery study, and the entry points


def _fit_multistart(name: str, x: np.ndarray, ci_level: float) -> FitResult:
    if not 0.0 < ci_level < 1.0:
        raise ValueError("ci_level must lie in (0, 1)")
    family = _FAMILIES[name]

    def evaluate(rows, points):
        # -loglik and its log-scale gradient at every active start's point, from
        # one kernel call on their stack; the value is +inf past the wall, the
        # gradient that at the clipped point, so exp() stays finite
        theta = np.exp(np.clip(points, -_LOG_WALL, _LOG_WALL))
        loglik, score = family.loglik_score(theta, x)
        f = np.where(np.any(np.abs(points) > _LOG_WALL, axis=1), math.inf, np.negative(loglik))
        return f, -score * theta

    starts = np.log(family.starts(x))
    fits = _lbfgsb_lockstep(evaluate, starts, None, _FIT_FACTR, _FIT_PGTOL, _MAX_ITERATIONS, _MAXFUN)
    # value and gradient at each row's final point: after a failed line search
    # setulb returns the previous iterate, not the point last evaluated
    f, g = evaluate(None, fits.theta)
    gradient = np.max(np.abs(g), axis=1) / x.size
    passed = (gradient < _GRADIENT_GATE) & np.isfinite(f)
    if not passed.any():
        raise NonConvergenceError(f"{name}: no start satisfied the gradient gate; the smallest scaled "
                                  f"gradient of its {len(starts)} starts is {gradient.min():.3g}, "
                                  f"with a cap of {_MAX_ITERATIONS} iterations")
    best = int(np.argmin(np.where(passed, f, math.inf)))  # ties keep the earliest start
    ll, lt = -float(f[best]), fits.theta[best]
    boundary = bool(np.any(np.abs(lt) > _LOG_EDGE))
    ridge = " (flat compounding ridge)" if name == "clfrd" else ""
    message = f"parameter at edge of search region{ridge}" if boundary else ""
    theta = np.exp(lt)
    model = MODEL_REGISTRY[name](*theta)
    info = np.asarray(family.information(theta, x), dtype=float)
    covariance = std = ci = None
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        message = (message + "; " if message else "") + "observed information not positive definite"
    else:
        covariance = np.linalg.inv(info)
        std = {nm: float(math.sqrt(covariance[i, i])) for i, nm in enumerate(model.param_names)}
        z = float(ndtri(0.5 + ci_level / 2.0))
        ci = {nm: (est - z * std[nm], est + z * std[nm]) for nm, est in model.params().items()}
    return FitResult(model=model, params=model.params(), loglik=ll, neg2_loglik=-2.0 * ll,
                     covariance=covariance, std_errors=std, ci=ci, ci_level=ci_level, converged=True,
                     iterations=int(fits.nit.sum()), boundary=boundary, message=message)


def _sample_sums(x: np.ndarray) -> np.ndarray:
    # (..., 2): sum(x) and sum(x^2) of each sample, as _neg_loglik_fd takes them
    return np.stack([x.sum(axis=-1), (x * x).sum(axis=-1)], axis=-1)


# which of the four points (theta and its three forward points) shifts
# which component, and the (alpha, beta) pair each point uses
_SHIFTED = np.array([[False] * 3, [True, False, False], [False, True, False], [False, False, True]])
_PAIR = np.array([0, 1, 2, 0])


def _neg_loglik_fd(theta: np.ndarray, x: np.ndarray, sums=None) -> tuple[np.ndarray, np.ndarray]:
    """``-loglik`` at each theta and its forward-difference gradient, in one pass.

    ``theta`` is ``(..., 3)`` and ``x`` is ``(..., n)``: one sample per
    parameter row, broadcast against that row's four points (theta and its
    three forward points) rather than repeated.  ``sums`` is
    ``_sample_sums(x)``, which a caller evaluating the same samples at many
    points computes once.  The step is exactly the one L-BFGS-B takes
    itself (scipy's ``approx_derivative`` with absolute step 1e-8): a step
    that vanishes against a component falls back to
    ``sqrt(eps) * max(1, |theta|)``, and each difference is divided by the
    step actually taken, ``(theta + h) - theta``.  The lam-shifted point
    shares theta's ``exp(-y)`` and ``log(alpha + beta x)``, so three of each
    are computed per row.  Every row is bit-identical to ``-clfrd_loglik`` at
    its points, so iterates match a run on ``-loglik`` with scipy's own
    finite differences bit for bit.  Points off the open positive orthant
    score ``+inf``.
    """
    if sums is None:
        sums = _sample_sums(x)
    sx, sxx = sums[..., :1], sums[..., 1:]
    up = theta + _FD_STEP
    step = up - theta
    if not step.all():
        up = np.where(step == 0.0, theta + _FD_FALLBACK * np.maximum(1.0, np.abs(theta)), up)
        step = up - theta
    p = np.where(_SHIFTED, up[..., None, :], theta[..., None, :])  # (..., 4, 3)
    inside = (p > 0.0) & (p < math.inf)
    everywhere = inside.all()
    if not everywhere:
        # off-orthant values are evaluated at 1 instead, which warns of
        # nothing; their points score +inf below
        p = np.where(inside, p, 1.0)
    a, b, lam = p[..., 0], p[..., 1], p[..., 2]
    xs = x[..., None, :]
    ac, bc = a[..., :3, None], b[..., :3, None]
    # (..., 3, n), one per pair.  Copying e_0 into a fourth slot saves numpy
    # calls, but at 25 rows of 300 its larger temporaries made malloc trim
    # and re-fault the heap every round: 16x the page faults and a slower study
    e = np.exp(-(ac * xs + 0.5 * bc * xs * xs))
    loglik = (
        -x.shape[-1] * lam
        - a * sx
        - 0.5 * b * sxx
        + lam * e.sum(axis=-1)[..., _PAIR]
        + np.log(ac + bc * xs).sum(axis=-1)[..., _PAIR]
        + np.concatenate([np.log1p(lam[..., :3, None] * e).sum(axis=-1),
                          np.log1p(lam[..., 3:] * e[..., 0, :]).sum(axis=-1, keepdims=True)], axis=-1)
    )
    f = -loglik if everywhere else np.where(inside.all(axis=-1), -loglik, math.inf)
    return f[..., 0], (f[..., 1:] - f[..., :1]) / step


def _neg_loglik_fd_passes(theta: np.ndarray, x: np.ndarray, sums: np.ndarray):
    """``_neg_loglik_fd`` on the rows of a block, ``_PASS_SIZE`` observations or one row a pass.

    A pass's ``(rows, 3, n)`` temporaries then stay in cache: one pass over
    500 rows of 300 observations took 1.7-2.2 times as long as 19 passes.
    """
    rows = max(1, _PASS_SIZE // x.shape[1])
    if len(x) <= rows:
        return _neg_loglik_fd(theta, x, sums)
    passes = [_neg_loglik_fd(theta[i:i + rows], x[i:i + rows], sums[i:i + rows])
              for i in range(0, len(x), rows)]
    return np.concatenate([f for f, _ in passes]), np.concatenate([g for _, g in passes])


class LocalFits(NamedTuple):
    """Outcome of the lockstep L-BFGS-B fits, one row per sample."""

    theta: np.ndarray  # (reps, 3) final iterates
    nit: np.ndarray  # (reps,) iterations
    task: np.ndarray  # (reps, 2) scipy's final (status, reason) task codes
    nfev: np.ndarray  # (reps,) evaluations of -loglik with its gradient

    @property
    def converged(self) -> np.ndarray:
        return self.task[:, 0] == _TASK_CONVERGENCE

    @property
    def at_iteration_cap(self) -> np.ndarray:
        return self.task[:, 1] == _TASK_ITERATION_CAP

    @property
    def at_bound(self) -> np.ndarray:
        return np.any(self.theta <= _LOCAL_LOWER, axis=1)


@functools.cache
def _openblas_threads():
    """``(get, set)`` of the thread count of scipy's bundled OpenBLAS, or None.

    scipy's wheels ship the library in ``scipy.libs`` (Linux, Windows) or
    ``scipy/.dylibs`` (macOS); a scipy built against another BLAS has none.
    """
    package = Path(scipy.__file__).parent
    for path in sorted([*package.parent.glob("scipy.libs/libscipy_openblas*"),
                        *package.glob(".dylibs/libscipy_openblas*")]):
        try:
            library = ctypes.CDLL(str(path))
            get = library.scipy_openblas_get_num_threads
            set_ = library.scipy_openblas_set_num_threads
        except (OSError, AttributeError):  # not loadable, or without the symbols
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Hold scipy's OpenBLAS to one thread in the body, then restore its count.

    ``setulb``'s BLAS calls are far too small to gain from threads, which
    only burn a second core.  The count is read and set through
    ``scipy_openblas_get/set_num_threads``, as threadpoolctl does; without
    the library or those symbols this does nothing.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    count = get()
    set_(1)
    try:
        yield
    finally:
        set_(count)


def _lbfgsb_lockstep(evaluate, start: np.ndarray, lower: float | None, factr: float, pgtol: float,
                     max_iterations: int, max_evaluations: int):
    """L-BFGS-B from every row of ``start``, the rows stepped in lockstep.

    ``evaluate(rows, points)`` returns the objective and its gradient at
    ``points``, the iterates of ``rows`` (a slice or index array).  Every
    parameter has the lower bound ``lower``, the start clipped to it, or
    none.  Each row keeps its own scipy ``setulb`` state with m=10,
    ``maxls=20`` and the given stops and caps, as scipy's L-BFGS-B
    ``minimize`` sets them.  Each round steps every active row to its next
    function request and answers them all with one ``evaluate`` call; a
    request at the point last evaluated reuses that value, as scipy's
    ``ScalarFunction`` does.  So each row's iterates, ``nit`` and stop are
    ``minimize``'s on that row alone, whatever else shares the run.
    """
    reps, dim = start.shape
    x = start.copy() if lower is None else np.maximum(start, lower)
    # scipy evaluates the start before the first step
    active, rows = list(range(reps)), slice(None)
    f, g = evaluate(rows, x)
    evaluated_at = x.tolist()
    nit, nfev = [0] * reps, [1] * reps
    task = np.zeros((reps, 2), dtype=np.int32)
    workspace = list(zip(
        x, g, np.zeros((reps, 2 * _LBFGSB_M * dim + 5 * dim + 11 * _LBFGSB_M**2 + 8 * _LBFGSB_M)),
        np.zeros((reps, 3 * dim), dtype=np.int32), task, np.zeros((reps, 4), dtype=np.int32),
        np.zeros((reps, 44), dtype=np.int32), np.zeros((reps, 29)), np.zeros((reps, 2), dtype=np.int32),
    ))
    low, upper = np.full(dim, 0.0 if lower is None else lower), np.zeros(dim)
    bound_kind = np.full(dim, lower is not None, dtype=np.int32)  # lower bound only, or none

    def requests_new_point(i: int) -> bool:
        # scipy's _minimize_lbfgsb loop for row i, up to its next
        # evaluation (True) or its stop (False)
        xi, gi, wa, iwa, ti, lsave, isave, dsave, ln_task = workspace[i]
        while True:
            setulb(_LBFGSB_M, xi, low, upper, bound_kind, f[i], gi, factr,
                   pgtol, wa, iwa, ti, lsave, isave, dsave, _LBFGSB_MAXLS, ln_task)
            if ti[0] == _TASK_FG:
                if xi.tolist() != evaluated_at[i]:
                    return True
            elif ti[0] == _TASK_NEW_X:
                nit[i] += 1
                if nit[i] >= max_iterations:
                    ti[:] = _TASK_STOP, _TASK_ITERATION_CAP
                elif nfev[i] > max_evaluations:
                    ti[:] = _TASK_STOP, _TASK_EVALUATION_CAP
            else:
                return False

    while True:
        requesting = [i for i in active if requests_new_point(i)]
        if not requesting:
            break
        if requesting != active:
            active = requesting
            # consecutive rows, a lone straggler among them, index as a view
            first, end = active[0], active[-1] + 1
            rows = slice(first, end) if end - first == len(active) else np.array(active)
        points = x[rows]
        f[rows], g[rows] = evaluate(rows, points)
        for i, point in zip(active, points.tolist()):
            evaluated_at[i] = point
            nfev[i] += 1
    return LocalFits(x, np.array(nit), task, np.array(nfev))


def fit_clfrd_block(samples, start) -> LocalFits:
    """Local L-BFGS-B fits of the compounded model, one per row of ``samples``.

    ``samples`` is a ``(reps, n)`` block of observations and ``start`` the
    natural-scale ``(alpha, beta, lam)`` every row starts from; both are
    validated once here.  Each row's result is what the same call on
    that row alone reports, bit for bit, and what scipy's
    L-BFGS-B ``minimize`` gives on that sample with bounds
    ``[1e-10, inf)`` and at most 100 iterations.  scipy's OpenBLAS runs
    on one thread during the fits and gets its thread count back after.
    """
    block = np.asarray(samples, dtype=float)
    if block.ndim != 2 or block.shape[1] < 4:
        raise ValueError(f"need a (replications, n >= 4) block of observations, got shape {block.shape}")
    _check_data(block)
    theta0 = np.asarray(start, dtype=float)
    if theta0.shape != (3,) or not np.all(np.isfinite(theta0) & (theta0 > 0.0)):
        raise ValueError(f"fit_clfrd_block: start must be 3 finite, strictly positive values, "
                         f"got {start!r}")
    sums = _sample_sums(block)

    def evaluate(rows, points):
        return _neg_loglik_fd_passes(points, block[rows], sums[rows])

    with _one_blas_thread():
        return _lbfgsb_lockstep(evaluate, np.tile(theta0, (len(block), 1)), _LOCAL_LOWER, _LBFGSB_FACTR,
                                _LBFGSB_PGTOL, _LOCAL_MAX_ITERATIONS, _MAXFUN // 4)


def fit_clfrd(data, ci_level: float = 0.95) -> FitResult:
    """Maximum-likelihood fit of the compounded model.

    The multistart driver over log-parameters from a deterministic grid of
    moment-based seeds (``alpha0 = 1/mean``, ``beta0 = 1/mean^2`` and a
    scaled variant, each with ``lam0`` on the decade ladder 0.1 to 1000, a
    start near each mode in lam).  Returns the best point passing the
    scaled-gradient gate, with Wald intervals at ``ci_level``;
    deterministic ties keep the earliest start.

    Raises ``NonConvergenceError`` when no start converges.  A singular
    observed information leaves ``covariance``/``std_errors``/``ci`` as
    None with a note in ``message``; the fit itself is still returned.
    """
    return _fit_multistart("clfrd", _check_data(data, minimum_size=4), ci_level)


def fit_model(name: str, data, ci_level: float = 0.95) -> FitResult:
    """Fit one model family by name: clfrd, lfrd, rd, ed or ged.

    Every family runs the same multistart driver; the exponential and
    Rayleigh fits start at their closed-form estimates and stop there.
    """
    if name not in MODEL_REGISTRY:
        raise ValueError(f"unknown model {name!r}; expected one of {sorted(MODEL_REGISTRY)}")
    if name == "clfrd":
        return fit_clfrd(data, ci_level)
    return _fit_multistart(name, _check_data(data, minimum_size=2), ci_level)
