"""Special functions: the principal-branch Lambert W, log-gamma, the
regularized incomplete gamma functions and the survival function of the
Kolmogorov limit law.

All but Lambert W are argument-checking wrappers over ``scipy.special``
that accept scalars or arrays.  Everything here is pure and safe for
concurrent callers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln, kolmogorov

__all__ = [
    "lambert_w0",
    "ln_gamma",
    "regularized_gamma_p",
    "regularized_gamma_q",
    "kolmogorov_sf",
]

_NEG_INV_E = -math.exp(-1.0)
_EPS = 2.220446049250313e-16


# Past this log z, W0 is solved in log space: the Halley step's w e^w
# overflows from z ~ e^702, and the CLFRD quantile's W argument
# lam (1 - q) e^lam overflows from lam ~ 703.2
_LOG_W_ARG_MAX = 700.0
_W_ARG_MAX = math.exp(_LOG_W_ARG_MAX)


def _w0_of_log(log_z):
    """W0(e^log_z) by Newton steps on w + log w = log_z; needs log_z > 1.

    The equation is concave in w, and for ``log_z > 1`` the start
    ``log_z - log(log_z)`` lies below the root, so the steps rise
    monotonically to it.
    """
    w = log_z - np.log(log_z)
    for _ in range(64):
        dw = (w + np.log(w) - log_z) * w / (w + 1.0)
        w = w - dw
        if np.all(np.abs(dw) <= 1e-15 * w):
            break
    return w


def lambert_w0(z):
    """Principal branch W0 of the Lambert W function.

    Solves ``w * exp(w) = z`` for ``z >= -1/e`` with ``w >= -1``.  Accepts a
    scalar or array and returns a matching shape.  Residual ``|w e^w - z|``
    stays below ``1e-12 * max(1, |z|)``.

    Halley iteration (Corless et al., "On the Lambert W function", Adv.
    Comput. Math. 5, 1996) seeded by a branch-point expansion near
    ``-1/e``, a rational guess for small arguments, and ``log z - log log
    z`` for large ones; past ``z = e^700``, where ``w e^w`` overflows,
    Newton steps on ``w + log w = log z`` instead.  Each element stops on
    its own tolerance, so its value is the same whether it is computed
    alone or in any array.  Kept in place of
    ``scipy.special.lambertw(z).real``, which took 25-29 ms on 1e5 points
    against 10-17 ms here, and the quantile and the inverse sampler call
    it on every point.

    Raises
    ------
    ValueError
        If any argument lies below ``-1/e`` or is NaN.
    """
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    w = np.atleast_1d(arr).copy()

    if np.any(np.isnan(w)):
        raise ValueError("lambert_w0: NaN argument")
    # tolerate representation noise right at the branch point
    below = w < _NEG_INV_E
    if np.any(below):
        if np.any(w < _NEG_INV_E - 1e-12 * abs(_NEG_INV_E)):
            raise ValueError("lambert_w0: argument below -1/e is outside the principal branch")
        w[below] = _NEG_INV_E
    # Halley runs on a copy clamped to e^700; the log-space result replaces it
    huge = w > _W_ARG_MAX
    w[huge] = _W_ARG_MAX

    out = np.empty_like(w)
    near = w <= _NEG_INV_E + 0.04
    mid = (~near) & (w < math.e)
    big = w >= math.e

    # branch-point series, p = sqrt(2 (e z + 1))
    p = np.sqrt(np.maximum(2.0 * (math.e * w[near] + 1.0), 0.0))
    out[near] = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    out[mid] = w[mid] / (1.0 + w[mid])
    lz = np.log(w[big])
    out[big] = lz - np.log(np.maximum(lz, _EPS))

    done = np.zeros(out.shape, dtype=bool)
    for _ in range(64):
        ew = np.exp(out)
        f = out * ew - w
        wp1 = out + 1.0
        wp1 = np.where(wp1 == 0.0, _EPS, wp1)
        dw = f / (ew * wp1 - (out + 2.0) * f / (2.0 * wp1))
        dw[done] = 0.0  # an element stops after its first step within tolerance
        out -= dw
        done |= np.abs(dw) <= 1e-15 * (1.0 + np.abs(out))
        if np.all(done):
            break
    out[huge] = _w0_of_log(np.log(np.atleast_1d(arr)[huge]))
    return float(out[0]) if scalar else out


def _scalar_or_array(value):
    return float(value) if np.ndim(value) == 0 else value


def ln_gamma(s):
    """log Gamma(s) for s > 0; scalar or array."""
    if not np.all(np.asarray(s) > 0):
        raise ValueError(f"ln_gamma: argument must be positive, got {s}")
    return _scalar_or_array(gammaln(s))


def _check_gamma_args(name, s, x):
    if not np.all(np.asarray(s) > 0):
        raise ValueError(f"{name}: s must be positive, got {s}")
    if np.any(np.asarray(x) < 0):
        raise ValueError(f"{name}: x must be nonnegative, got {x}")


def regularized_gamma_p(s, x):
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s); broadcasts."""
    _check_gamma_args("regularized_gamma_p", s, x)
    return _scalar_or_array(gammainc(s, x))


def regularized_gamma_q(s, x):
    """Regularized upper incomplete gamma Q(s, x) = 1 - P(s, x); broadcasts."""
    _check_gamma_args("regularized_gamma_q", s, x)
    return _scalar_or_array(gammaincc(s, x))


def kolmogorov_sf(t: float) -> float:
    """Survival function of the Kolmogorov limit law, P(K > t); 1 at t = 0."""
    if t < 0:
        raise ValueError(f"kolmogorov_sf: t must be nonnegative, got {t}")
    return float(kolmogorov(t))
