"""Bijective heavy-tail transform pair and its analytic derivatives.

The forward map ``h_delta(u) = u * exp(delta/2 * u^2)`` inflates the tails
of a standardized variable; its exact inverse ``w_delta`` is expressed
through the principal branch of Lambert's W.  ``h_tau`` / ``w_tau`` wrap the
pair in location/scale bookkeeping and dispatch separate left/right tail
parameters for the double-tail variant.  The three closed-form derivatives
at the bottom feed density and likelihood code.

All functions are pure, accept scalars or arrays, and treat ``delta = 0``
as the exact identity (the removable singularity of the inverse formula).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .lambertw import _w0_from_log, lambert_w0

__all__ = [
    "TailParams",
    "h_delta",
    "w_delta",
    "h_tau",
    "w_tau",
    "w_delta_dz",
    "w_delta_sq_ddelta",
    "w_delta_ddelta",
]


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not np.isfinite(delta) or delta < 0.0:
        raise DomainError(f"tail parameter must be finite and >= 0, got {delta!r}")
    return delta


@dataclass(frozen=True)
class TailParams:
    """Transformation vector: location, scale and tail parameter(s).

    ``delta`` is either a single nonnegative float (symmetric tail) or a
    ``(delta_left, delta_right)`` pair shaping the two tails separately.
    A symmetric ``delta`` and the pair ``(delta, delta)`` behave
    identically in every operation.
    """

    mu_x: float
    sigma_x: float
    delta: float | tuple[float, float]

    def __post_init__(self):
        if not np.isfinite(self.mu_x):
            raise DomainError("mu_x must be finite")
        if not (np.isfinite(self.sigma_x) and self.sigma_x > 0.0):
            raise DomainError(f"sigma_x must be positive, got {self.sigma_x!r}")
        object.__setattr__(self, "mu_x", float(self.mu_x))
        object.__setattr__(self, "sigma_x", float(self.sigma_x))
        if isinstance(self.delta, (tuple, list)):
            if len(self.delta) != 2:
                raise DomainError("double-tail delta needs exactly two values")
            pair = (_check_delta(self.delta[0]), _check_delta(self.delta[1]))
            object.__setattr__(self, "delta", pair)
        else:
            object.__setattr__(self, "delta", _check_delta(self.delta))

    @property
    def is_double(self) -> bool:
        return isinstance(self.delta, tuple)

    @property
    def delta_left(self) -> float:
        return self.delta[0] if self.is_double else self.delta

    @property
    def delta_right(self) -> float:
        return self.delta[1] if self.is_double else self.delta

    def as_array(self) -> np.ndarray:
        """Parameter vector (mu, sigma, delta) or (mu, sigma, dl, dr)."""
        if self.is_double:
            return np.array([self.mu_x, self.sigma_x, *self.delta])
        return np.array([self.mu_x, self.sigma_x, self.delta])


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(value: np.ndarray, scalar: bool):
    return float(value[()]) if scalar else value


# Arguments of W larger than this are recomputed on the log scale so that
# delta * z**2 never has to be represented directly.
_OVERFLOW_ARG = 1e300


def w_of_delta_z_sq(z, delta):
    """W(delta * z^2), overflow-safe in z.

    This combination appears in every inverse-side formula; for huge ``z``
    the product is evaluated as ``W(exp(log(delta) + 2 log|z|))`` on the
    log scale instead of overflowing to ``inf``.
    """
    delta = _check_delta(delta)
    z, scalar = _as_float_array(z)
    if delta == 0.0:
        return _ret(np.zeros_like(z), scalar)
    with np.errstate(over="ignore"):
        arg = delta * z * z
    return _ret(np.asarray(_w_of_arg(arg, z, delta)), scalar)


def _w_of_arg(arg, z, delta: float):
    """W(arg) for ``arg = delta * z**2`` with ``delta > 0``.

    Where ``arg`` exceeds ``_OVERFLOW_ARG`` (or overflowed to inf), W is
    taken on the log scale from ``log(delta) + 2 log|z|``.
    """
    huge = arg > _OVERFLOW_ARG
    if not huge.any():
        return lambert_w0(arg)
    out = np.empty_like(arg)
    safe = ~huge
    if safe.any():
        out[safe] = lambert_w0(arg[safe])
    with np.errstate(divide="ignore"):
        log_arg = np.log(delta) + 2.0 * np.log(np.abs(z[huge]))
    finite = np.isfinite(log_arg)
    vals = np.full(log_arg.shape, np.inf)
    if finite.any():
        vals[finite] = _w0_from_log(log_arg[finite])
    out[huge] = vals
    return out


def _w_and_w_delta(z, delta):
    """``(W(delta z^2), w_delta(z, delta))`` from one W evaluation.

    The inverse is ``z * sqrt(W(arg)/arg)`` with ``arg = delta * z**2``,
    which stays accurate when ``arg`` is tiny (the ratio tends smoothly to
    1) and never divides by a subnormal ``delta``.  The ratio lies in
    ``(0, 1]`` except where ``arg`` is 0 (``z == 0`` or underflow: the
    identity to double precision), inf (huge ``z``: ``sgn(z) sqrt(W /
    delta)``) or NaN; only those points take a second formula.
    """
    delta = _check_delta(delta)
    z, scalar = _as_float_array(z)
    if delta == 0.0:
        return _ret(np.zeros_like(z), scalar), _ret(z + 0.0, scalar)
    z1 = np.atleast_1d(z)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        arg = delta * z1 * z1
        wv = _w_of_arg(arg, z1, delta)
        ratio = wv / arg
    u = z1 * np.sqrt(ratio)
    if not (ratio > 0.0).all():
        redo = ~(ratio > 0.0)
        zr = z1[redo]
        u[redo] = np.where(arg[redo] == 0.0, zr, np.sign(zr) * np.sqrt(wv[redo] / delta))
    shape = np.shape(z)
    return _ret(wv.reshape(shape), scalar), _ret(u.reshape(shape), scalar)


def h_delta(u, delta):
    """Forward tail transform ``u * exp(delta/2 * u^2)``.

    Odd in ``u`` and strictly increasing for ``delta >= 0``.  May return
    ``+/-inf`` on floating overflow for extreme ``(u, delta)``; callers in
    estimation treat non-finite output as out-of-search-region.
    """
    delta = _check_delta(delta)
    u, scalar = _as_float_array(u)
    return _ret(_h(u, delta), scalar)


def _h(u, delta):
    """``u * exp(delta/2 * u^2)`` for a checked scalar or per-point ``delta``."""
    with np.errstate(over="ignore"):
        return u * np.exp(0.5 * delta * u * u)


def w_delta(z, delta):
    """Inverse tail transform ``sgn(z) * sqrt(W(delta z^2) / delta)``.

    Exact inverse of :func:`h_delta`; sign preserving, with
    ``|w_delta(z, delta)| <= |z|`` and equality only for ``delta = 0`` or
    ``z = 0``.  Evaluated by :func:`_w_and_w_delta`.
    """
    return _w_and_w_delta(z, delta)[1]


def _dispatch_sides(func, v, tau: TailParams):
    """Apply ``func(v, delta)`` with the side-appropriate tail parameter.

    ``v <= 0`` uses the left parameter (ties at 0 are assigned left for
    bit-reproducibility; both sides agree on the value there), and each
    side is evaluated on its own points only.  ``func`` may return an
    array or a tuple of arrays.  With equal parameters this reduces to a
    single symmetric evaluation.
    """
    if not tau.is_double or tau.delta_left == tau.delta_right:
        return func(v, tau.delta_left)
    v = np.asarray(v, dtype=float)
    left = v <= 0.0
    right = ~left

    def merge(on_left, on_right):
        out = np.empty(v.shape)
        out[left] = on_left
        out[right] = on_right
        return out

    lo = func(v[left], tau.delta_left)
    hi = func(v[right], tau.delta_right)
    if isinstance(lo, tuple):
        return tuple(map(merge, lo, hi))
    return merge(lo, hi)


def h_tau(x, tau: TailParams):
    """Location-scale forward transform.

    Standardizes ``u = (x - mu_x) / sigma_x``, applies the side-appropriate
    tail parameter (``u <= 0`` uses the left one) and rescales.
    """
    x, scalar = _as_float_array(x)
    u = (x - tau.mu_x) / tau.sigma_x
    # The forward map is cheap: one pass with a per-point tail parameter
    # costs less than splitting the points by side.
    delta = np.where(u <= 0.0, *tau.delta) if tau.is_double else tau.delta
    with np.errstate(over="ignore"):
        z = _h(u, delta) * tau.sigma_x + tau.mu_x
    return _ret(np.asarray(z), scalar)


def w_tau(y, tau: TailParams):
    """Location-scale inverse transform (the "Gaussianizing" map).

    Exact inverse of :func:`h_tau`: monotone increasing in ``y`` and fixing
    ``mu_x``.
    """
    y, scalar = _as_float_array(y)
    z = (y - tau.mu_x) / tau.sigma_x
    u = _dispatch_sides(w_delta, z, tau)
    return _ret(np.asarray(u * tau.sigma_x + tau.mu_x), scalar)


def w_delta_dz(z, delta):
    """d/dz of :func:`w_delta`: ``exp(-W(delta z^2)/2) / (1 + W(delta z^2))``.

    Strictly positive, equal to 1 at ``z = 0`` and identically 1 for
    ``delta = 0``.  This is also the per-point penalty factor of the
    transformed-data likelihood.
    """
    z, scalar = _as_float_array(z)
    wv = np.atleast_1d(w_of_delta_z_sq(z, delta))
    out = (np.exp(-0.5 * wv) / (1.0 + wv)).reshape(np.shape(z))
    return _ret(out, scalar)


def w_delta_sq_ddelta(z, delta):
    """d/d(delta) of ``w_delta(z)^2``: ``-w_delta(z)^4 / (1 + W(delta z^2))``.

    Always <= 0: increasing the tail parameter shrinks the back-transformed
    value toward zero.  At ``delta = 0`` this is the limit ``-z^4``.
    """
    wv, wd = _w_and_w_delta(z, delta)
    return -(wd**4) / (1.0 + wv)


def w_delta_ddelta(z, delta):
    """d/d(delta) of :func:`w_delta`: ``-w_delta(z)^3 / (2 (1 + W(delta z^2)))``.

    Sign opposite to ``z``; the ``delta = 0`` limit is ``-z^3 / 2``.
    """
    wv, wd = _w_and_w_delta(z, delta)
    return -0.5 * wd**3 / (1.0 + wv)
