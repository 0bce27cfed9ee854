"""Principal branch of Lambert's W function.

W0(x) is the inverse of ``w * exp(w)`` on ``w >= -1``, defined for
``x >= -1/e``.  The whole package stands on this single special function,
so it is evaluated here from scratch and verified against the defining
identity ``W(x) * exp(W(x)) = x`` rather than delegated to a third-party
implementation.

Evaluation is a fast path plus a verified polish.  The fast path runs over
the whole array with no masks: Winitzki's starting value, one Fritsch step
(Fritsch, Shafer & Crowley, CACM 1973; Veberic, arXiv 1209.0735) and one
Halley step, which leave W within a few ulp, then one residual pass over
every point.  Points that fail the residual pass are solved again by a
masked Halley loop whose piecewise initial guesses (branch-point series,
small-argument rational, log-log asymptotic) keep it overflow-free up to
the largest representable arguments.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConvergenceError, DomainError

__all__ = ["BRANCH_POINT", "lambert_w0", "lambert_w0_prime"]

#: Location of the branch point -1/e where W0 equals -1.
BRANCH_POINT = -np.exp(-1.0)


# Stopping rule: the residual of the defining identity, relative to
# max(1, |x|), must reach _ABS_TOL; the same width sets the clamp band below
# the branch point inside which arguments are snapped to -1/e (round trips
# through the tail transform can land epsilon outside the domain).  The
# Halley loop and the log-scale Newton iteration stop after _MAX_ITER steps.
_ABS_TOL = 1e-14
_MAX_ITER = 64


def _initial_guess(x: np.ndarray) -> np.ndarray:
    """Piecewise starting values for Halley's method."""
    w = np.empty_like(x)

    # Square-root expansion around the branch point, accurate on [-1/e, -0.3).
    near = x < -0.3
    if near.any():
        p = np.sqrt(2.0 * (np.e * x[near] + 1.0))
        w[near] = -1.0 + p * (1.0 - p * (1.0 / 3.0) + p * p * (11.0 / 72.0))

    # Cheap rational guess in the middle; Halley converges cubically from it.
    mid = (~near) & (x < np.e)
    if mid.any():
        xm = x[mid]
        w[mid] = xm / (1.0 + xm)

    # Asymptotic guess L1 - L2 + L2/L1 + L2(L2-2)/(2 L1^2); never
    # exponentiates x, so arguments up to the float maximum are safe.
    big = x >= np.e
    if big.any():
        l1 = np.log(x[big])
        l2 = np.log(l1)
        w[big] = l1 - l2 + l2 / l1 + l2 * (l2 - 2.0) / (2.0 * l1 * l1)

    return w


def _fast_path(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W0 by two fixed steps over the whole array, plus the residual check.

    Winitzki's start ``L (1 - log1p(L) / (2 + L))`` with ``L = log1p(x)``,
    one Fritsch step (Fritsch, Shafer & Crowley 1973) and one Halley step.
    No masks: every element takes the same arithmetic.  Returns ``w`` and
    the mask of points whose residual meets ``_ABS_TOL``; the others (NaN,
    inf, 0, arguments near the branch point, and arguments so large that
    the residual is finer than one ulp of ``w``) are left to the loop.
    """
    with np.errstate(all="ignore"):
        lx = np.log1p(x)
        w = lx * (1.0 - np.log1p(lx) / (2.0 + lx))

        wp1 = w + 1.0
        zn = np.log(x / w) - w
        qn = 2.0 * wp1 * (wp1 + (2.0 / 3.0) * zn)
        w = w * (1.0 + zn / wp1 * (qn - zn) / (qn - 2.0 * zn))

        ew = np.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        w = w - f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        np.maximum(w, -1.0, out=w)

        # x >= -1/e here, so max(1, |x|) is max(1, x).
        ok = np.abs(w * np.exp(w) - x) <= _ABS_TOL * np.maximum(x, 1.0)
    return w, ok


def _halley(z: np.ndarray) -> np.ndarray:
    """Masked Halley iteration from :func:`_initial_guess`, for any ``z >= -1/e``.

    A point stops when its residual meets ``_ABS_TOL`` or its step falls
    below float resolution; NaN and inf pass through.  Raises
    :class:`ConvergenceError` when ``_MAX_ITER`` steps run out first.
    """
    nan_mask = np.isnan(z)
    inf_mask = np.isinf(z)
    w = _initial_guess(np.where(nan_mask | inf_mask, 1.0, z))
    w[inf_mask] = np.inf
    w[nan_mask] = np.nan

    tol = _ABS_TOL * np.maximum(1.0, np.abs(z))
    done = nan_mask | inf_mask
    eps = np.finfo(float).eps
    for _ in range(_MAX_ITER):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            done = done | (np.abs(w * np.exp(w) - z) <= tol)
            if done.all():
                break
            # Halley's step with numerator and denominator divided by
            # exp(w), so that neither overflows near the float maximum.
            g = w - z * np.exp(-w)
            wp1 = w + 1.0
            denom = wp1 - (w + 2.0) * g / (2.0 * wp1)
            step = np.where(done | (denom == 0.0), 0.0, g / denom)
        w = np.maximum(w - step, -1.0)
        # A step below float resolution means w is the representable fixed
        # point; for huge arguments the residual criterion alone is finer
        # than one ulp of w can express.
        done = done | (np.abs(step) <= 4.0 * eps * (1.0 + np.abs(w)))
        if done.all():
            break
    else:
        raise ConvergenceError(
            f"lambert_w0 did not reach tolerance {_ABS_TOL} "
            f"within {_MAX_ITER} iterations"
        )
    return w


def lambert_w0(x):
    """Evaluate the principal branch W0 at ``x``.

    Every point first takes the two fixed steps of the fast path; points
    whose residual then misses the tolerance (1e-14 relative to
    ``max(1, |x|)``) are solved again from scratch by the masked Halley
    loop, with a budget of 64 steps.

    Parameters
    ----------
    x : float or array_like
        Argument(s), each ``>= -1/e``.  Values within the tolerance below
        the branch point are clamped to it; values further below raise
        :class:`DomainError`.  ``+inf`` maps to ``+inf``, NaN propagates.

    Returns
    -------
    float or numpy.ndarray
        ``w >= -1`` with ``|w * exp(w) - x| <= 1e-14 * max(1, |x|)``, or,
        where that residual is finer than float resolution, the point at
        which the Halley step falls below one ulp of ``w``.

    Raises
    ------
    DomainError
        If any argument lies below the branch point beyond the clamp band.
    ConvergenceError
        If the Halley loop exhausts its budget (never returns a silently
        unconverged value).
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    z = np.atleast_1d(arr)

    if (z < BRANCH_POINT - _ABS_TOL).any():
        bad = float(np.nanmin(z))
        raise DomainError(
            f"lambert_w0 argument {bad!r} below the branch point -1/e"
        )
    z = np.maximum(z, BRANCH_POINT)

    w, ok = _fast_path(z)
    if not ok.all():
        redo = ~ok
        w[redo] = _halley(z[redo])

    return float(w[0]) if scalar else w


def _w0_from_log(log_x):
    """W0(exp(log_x)) for large ``log_x``, without forming ``exp(log_x)``.

    Solves ``w + log(w) = log_x`` by Newton steps.  Intended for arguments
    whose direct representation would overflow (``log_x`` of a few hundred
    and up); callers pass e.g. ``log(delta) + 2*log(|z|)``.
    """
    lx = np.asarray(log_x, dtype=float)
    scalar = lx.ndim == 0
    lx = np.atleast_1d(lx)
    w = lx - np.log(lx)
    for _ in range(_MAX_ITER):
        g = w + np.log(w) - lx
        if np.all(np.abs(g) <= _ABS_TOL * np.maximum(1.0, np.abs(lx))):
            break
        w = w - g * w / (w + 1.0)
    else:
        raise ConvergenceError("log-scale Lambert W iteration did not converge")
    return float(w[0]) if scalar else w


def lambert_w0_prime(x):
    """Derivative of W0, ``W(x) / (x * (1 + W(x)))``.

    Equals 1 at ``x = 0`` (the limit) and is singular at the branch point,
    so ``x <= -1/e`` raises :class:`DomainError`.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    z = np.atleast_1d(arr).astype(float)
    valid = ~np.isnan(z)
    if np.any(z[valid] <= BRANCH_POINT):
        raise DomainError("lambert_w0_prime is singular at and below -1/e")
    w = np.atleast_1d(lambert_w0(z))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(z == 0.0, 1.0, w / (z * (1.0 + w)))
    return float(out[0]) if scalar else out
