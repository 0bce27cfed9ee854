"""Bijective heavy-tail transform pair.

The forward map ``h_delta(u) = u * exp(delta/2 * u^2)`` inflates the tails
of a standardized variable; its exact inverse ``w_delta`` is expressed
through the principal branch of Lambert's W.  ``h_tau`` / ``w_tau`` wrap the
pair in location/scale bookkeeping.  The double-tail variant gives each
point its own tail parameter (:func:`_tail_at`), so every map makes one
pass over all its points.

All functions are pure, accept scalars or arrays, and treat ``delta = 0``
as the exact identity (the removable singularity of the inverse formula).

``h_tau`` and ``w_tau`` run over arrays longer than 8192 points one block
at a time (:func:`~heavytail.lambertw._blocked`): each of their numpy
temporaries is then 64 KiB, which stays in cache instead of being mapped
fresh from the OS for every call on a long series.  The maps are pointwise,
so blocking changes no output bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .lambertw import _blocked, _w0_from_log, lambert_w0

__all__ = [
    "TailParams",
    "h_delta",
    "w_delta",
    "h_tau",
    "w_tau",
]


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 <= delta < math.inf:
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
    log scale instead of overflowing to ``inf``.  It is the W of
    :func:`_w_and_w_delta` for one tail.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _w_and_w_delta(z, _check_delta(delta))[0]


def _w_of_arg(arg, z, delta):
    """W(arg) for ``arg = delta * z**2`` with ``delta > 0`` (one, or one per point).

    Where ``arg`` exceeds ``_OVERFLOW_ARG`` (or overflowed to inf), W is
    taken on the log scale from ``log(delta) + 2 log|z|``.
    """
    # The max is NaN where arg has a NaN, which takes the masked path.
    if arg.max(initial=-np.inf) <= _OVERFLOW_ARG:
        return lambert_w0(arg)
    huge = arg > _OVERFLOW_ARG
    out = np.empty_like(arg)
    safe = ~huge
    if safe.any():
        out[safe] = lambert_w0(arg[safe])
    log_arg = np.log(_pick(delta, huge)) + 2.0 * np.log(np.abs(z[huge]))
    finite = np.isfinite(log_arg)
    vals = np.full(log_arg.shape, np.inf)
    if finite.any():
        vals[finite] = _w0_from_log(log_arg[finite])
    out[huge] = vals
    return out


def _w_and_w_delta(z, delta):
    """``(W(delta z^2), w_delta(z, delta))`` from one W evaluation.

    ``delta`` is one tail (checked here) or an array of one checked tail per
    point of ``z``; a point on a zero tail is the identity (``W = 0``, ``u =
    z``) and takes no W.  Elsewhere the inverse is ``z * sqrt(W(arg)/arg)``
    with ``arg = delta * z**2``, which stays accurate when ``arg`` is tiny
    (the ratio tends smoothly to 1) and never divides by a subnormal
    ``delta``.  The ratio lies in ``(0, 1]`` except where ``arg`` is 0
    (``z == 0`` or underflow: the identity to double precision), inf (huge
    ``z``: ``sgn(z) sqrt(W / delta)``) or NaN; only those points take a
    second formula.

    It runs under the caller's ``np.errstate``, which must ignore overflow,
    division by zero and invalid operations: each public map and each
    search evaluation enters that state once.  A 1-d float array, what every
    search passes, is evaluated as it is; any other input is flattened and
    the results take its shape (a float for a scalar).
    """
    if not (isinstance(z, np.ndarray) and z.ndim == 1 and z.dtype == np.float64):
        z, scalar = _as_float_array(z)
        if isinstance(delta, np.ndarray) and delta.ndim:
            delta = delta.reshape(-1)
        wv, u = _w_and_w_delta(z.reshape(-1), delta)
        return _ret(wv.reshape(z.shape), scalar), _ret(u.reshape(z.shape), scalar)
    if not isinstance(delta, np.ndarray) or delta.ndim == 0:
        delta = _check_delta(delta)
        if delta == 0.0:
            return np.zeros_like(z), z + 0.0
    elif not (live := delta != 0.0).all():
        wv, u = np.zeros_like(z), z + 0.0
        wv[live], u[live] = _w_and_w_delta(z[live], delta[live])
        return wv, u
    arg = delta * z * z
    wv = _w_of_arg(arg, z, delta)
    ratio = wv / arg
    u = z * np.sqrt(ratio)
    # The min is NaN where ratio has a NaN, which takes the second formula.
    if not ratio.min(initial=np.inf) > 0.0:
        redo = ~(ratio > 0.0)
        zr = z[redo]
        u[redo] = np.where(arg[redo] == 0.0, zr,
                           np.sign(zr) * np.sqrt(wv[redo] / _pick(delta, redo)))
    return wv, u


def _pick(delta, mask):
    """The tails of the points ``mask`` selects: ``delta`` is one or one per point."""
    return delta[mask] if isinstance(delta, np.ndarray) else delta


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
    """``u * exp(delta/2 * u^2)`` for a checked scalar or per-point ``delta``.

    ``+-inf`` maps to itself: with a zero tail the exponent there is
    ``0 * inf``, which is NaN, and ``fmax`` turns it into the exponent 0
    of the identity (every other exponent is already ``>= 0``).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return u * np.exp(np.fmax(0.5 * delta * u * u, 0.0))


def w_delta(z, delta):
    """Inverse tail transform ``sgn(z) * sqrt(W(delta z^2) / delta)``.

    Exact inverse of :func:`h_delta`; sign preserving, with
    ``|w_delta(z, delta)| <= |z|`` and equality only for ``delta = 0`` or
    ``z = 0``.  Evaluated by :func:`_w_and_w_delta`.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _w_and_w_delta(z, delta)[1]


def _tail_at(v, delta):
    """The tail parameter of each standardized point ``v``.

    ``delta`` follows the :class:`TailParams` convention.  With a
    ``(left, right)`` pair a point ``v <= 0`` takes the left tail (the tie
    at 0 goes left; both tails give the same value there) and any other
    point, NaN included, the right one.  One tail, or two equal ones, come
    back as that scalar, so the maps make a scalar-tail pass.
    """
    if not isinstance(delta, tuple):
        return delta
    left, right = delta
    return left if left == right else np.where(v <= 0.0, left, right)


def h_tau(x, tau: TailParams):
    """Location-scale forward transform.

    Standardizes ``u = (x - mu_x) / sigma_x``, applies each point's tail
    parameter (:func:`_tail_at`: ``u <= 0`` uses the left one) and rescales.
    """
    x, scalar = _as_float_array(x)
    return _ret(np.asarray(_blocked(_h_tau, x, tau)), scalar)


def _h_tau(x, tau: TailParams):
    u = (x - tau.mu_x) / tau.sigma_x
    with np.errstate(over="ignore"):
        return _h(u, _tail_at(u, tau.delta)) * tau.sigma_x + tau.mu_x


def w_tau(y, tau: TailParams):
    """Location-scale inverse transform (the "Gaussianizing" map).

    Exact inverse of :func:`h_tau`: monotone increasing in ``y`` and fixing
    ``mu_x``.
    """
    y, scalar = _as_float_array(y)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _ret(np.asarray(_blocked(_w_tau, y, tau)), scalar)


def _w_tau(y, tau: TailParams):
    z = (y - tau.mu_x) / tau.sigma_x
    return _w_and_w_delta(z, _tail_at(z, tau.delta))[1] * tau.sigma_x + tau.mu_x

