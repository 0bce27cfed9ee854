"""Parameter estimation for heavy-tail Lambert W x F_X models.

The observed-data log-likelihood splits into two additive pieces,

    total = sum log f_X(back-transformed data) + sum log R_i,

where each ``log R_i = -W(delta z_i^2)/2 - log(1 + W(delta z_i^2))`` is a
nonpositive penalty for transforming the data (zero only at delta = 0).
For Gaussian input with known location and scale the tail parameter has a
closed-form gradient and a unique maximizer: the estimate is exactly 0
when ``sum(z^4) / sum(z^2) <= 3`` and otherwise the single positive root
of the gradient.

Estimators provided here:

* :func:`mle_delta_only`   -- tail parameter only, via the gradient root.
* :func:`mle_joint`        -- (mu, sigma, delta[, delta_r][, nu]).  Every
  model has a closed-form score and Hessian (one W per point) and is
  searched by projected Newton steps with Levenberg-Marquardt damping in
  the box delta >= 0, which reaches the boundary delta = 0 exactly, until
  the Newton decrement is at most 1e-12 n; Student-t input, whose
  likelihood has several maxima in nu, from four starts, on r = log(1 -
  2/nu), each retired where it meets an end an earlier one found.
  Gaussian input starts from Tukey's letter-value estimate of (mu, sigma,
  delta).  The score and Hessian are formed in the coordinates the search
  steps in; standard errors come from the Hessian at the end of the
  search, taken to natural theta once.
* :func:`igmm` / :func:`igmm_double_tail` -- iterative generalized method
  of moments, solved at its fixed point: the back-transformed sample has
  mean 0 and sd 1, and the tails (in the box [0, 10]) are the
  least-squares match of its kurtosis (one tail) or of its skewness and
  kurtosis (two tails).  One damped Gauss-Newton search solves those
  conditions on (mu, log sigma, tails) at once, from closed-form
  derivatives of the moments (one W per point), until the Gauss-Newton
  decrement of its unit-free rows is at most 1e-24.
* :func:`taylor_delta`     -- rule-of-thumb tail start value from sample
  kurtosis.

:func:`mle_joint` and both IGMMs search on ``x = (y - m) / s``
(:func:`_standardized`, the one gate on which data can be fitted) and map
mu, sigma and their standard errors back, so ``fit(a y + b) = a fit(y) +
b``.  Every search is in the package: no path imports ``scipy.optimize``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import (
    _LOG_SQRT_2PI,
    Gaussian,
    LambertWDist,
    StudentT,
)
from .exceptions import ConvergenceError, DataError, DomainError
from .lambertw import _blocked
from .transform import TailParams, _tail_at, _w_and_w_delta

__all__ = [
    "LoglikParts",
    "FitResult",
    "SampleMoments",
    "sample_moments",
    "loglik",
    "grad_delta",
    "mle_delta_only",
    "mle_joint",
    "taylor_delta",
    "delta_gmm",
    "igmm",
    "igmm_double_tail",
]


class LoglikParts(NamedTuple):
    total: float
    input_part: float
    penalty_part: float


class SampleMoments(NamedTuple):
    mean: float
    sd: float
    skewness: float
    kurtosis: float
    median: float
    min: float
    max: float


class GMMDelta(NamedTuple):
    delta: float | tuple[float, float]
    at_upper_bound: bool


# IGMM stopping rule and search region: the search stops when the
# Gauss-Newton decrement of its fixed-point rows is at most
# _IGMM_DECREMENT_TOL, or after _IGMM_MAX_ITERATIONS steps (W passes);
# tail estimates stay in _DELTA_BOUNDS.
_IGMM_DECREMENT_TOL = 1e-24
_IGMM_MAX_ITERATIONS = 200
# A search that has not converged after this many steps is crawling along a
# minimum of its merit that is no fixed point (a converging one takes under
# 20 on two-tail fits of 30 points), and restarts after classic updates.
_IGMM_SEARCH_STEPS = 40
_DELTA_BOUNDS = (0.0, 10.0)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit: the fitted model, its parameters, uncertainty and diagnostics.

    ``tau`` is the transformation vector of the fitted model
    ``LambertWDist(input, tau.delta)`` (the input mean and sd with the
    tails), so ``w_tau(y, tau)`` inverts it.  ``params`` holds the
    estimates keyed by parameter name, in reporting order; for Student-t
    input ``params["sigma_x"]`` is the t scale s and ``tau.sigma_x`` the
    input sd s sqrt(nu / (nu - 2)).
    ``loglik_total`` always equals ``loglik_input + loglik_penalty``;
    the penalty part is nonpositive and zero only when every fitted tail
    parameter is zero.  ``std_errors`` comes from the inverse observed
    information, the exact Hessian of the log-likelihood at the estimate
    scaled by its diagonal; it is NaN for a tail parameter estimated at 0
    or a nu on its cap, and ``None`` for moment-based fits.
    ``boundary_hit`` flags estimates pinned at ``delta = 0`` or at the upper
    search bound.
    """

    tau: TailParams
    input: object
    method: str
    params: dict[str, float]
    loglik_total: float
    loglik_input: float
    loglik_penalty: float
    iterations: int
    converged: bool
    std_errors: dict[str, float] | None = None
    boundary_hit: str | None = None


def _check_series(data, min_n: int = 1) -> np.ndarray:
    arr = np.asarray(data, dtype=float).ravel()
    if arr.size < min_n:
        raise DataError(f"need at least {min_n} observations, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise DataError("data must be finite")
    return arr


def _central_moment_stats(x: np.ndarray) -> tuple[float, float]:
    """(skewness, kurtosis) as standardized central moments m3/m2^1.5, m4/m2^2."""
    c = x - x.mean()
    c2 = c * c
    m2 = np.mean(c2)
    if m2 == 0.0:
        raise DataError("degenerate data: zero variance")
    return float(np.mean(c2 * c) / m2**1.5), float(np.mean(c2 * c2) / (m2 * m2))


def _moment_residual(z: np.ndarray, delta, sides=None):
    """Moment rows of the back-transformed ``z``, their Jacobian and curvature.

    The sample is ``u = w_delta(z, delta)``, with ``delta`` one tail or the
    tail of each point (:func:`~heavytail.transform._tail_at`).  ``sides``
    is None for one tail, or one boolean mask per tail selecting the points
    it shapes.  Returns the rows ``r = (mean(u), var(u) - 1, skewness,
    kurtosis - 3)``, the variance with n - 1; their Jacobian in the columns
    (mu, log sigma, tails) of ``z = (y - mu) / sigma``, mu in units of
    sigma; and ``curvature``, described below.  W is evaluated once per
    point.  With ``W = W(delta z^2)``, ``i = 1 / (1 + W)`` and ``e =
    exp(-W/2) = u / z``, each point moves by

        du/dmu = -e i,  du/dlog sigma = -u i,  du/ddelta = -u^3 i / 2

    (the last on the tail's own side), and the central moments by ``dm_k =
    k (mean(c^(k-1) du) - m_(k-1) mean(du))`` with ``c = u - mean(u)`` and
    ``m_1 = 0``.

    ``curvature(w3, w4)`` is ``d^2 (w3 skewness + w4 kurtosis) / (ddelta_k
    dtheta)`` in the same columns, one row per tail.  With the weights the
    residual of the fitted rows it is the part of the Jacobian of the
    least-squares slopes ``J_k' r`` that the Gauss-Newton ``J_k' J`` leaves
    out; with the weights ``J_k`` it is ``J_k' dJ_k``.  It takes the second
    derivatives ``d^2 u / (ddelta dmu) = u^2 e i^2 (1/2 + i)``, ``d^2
    u / (ddelta dlog sigma) = u^3 i^2 (1/2 + i)`` and ``d^2 u / ddelta^2 =
    u^5 i^2 (3/4 + i/2)``, and no further W.

    Like :func:`~heavytail.transform._w_and_w_delta` it runs under the
    caller's ``np.errstate``, which ignores overflow, division by zero and
    invalid operations.
    """
    wv, u = _w_and_w_delta(z, delta)
    n = u.size
    mean = u.sum() / n
    inv = 1.0 / (1.0 + wv)
    # Rows of -du per column, then c; with the rows 1, c, c^2, c^3 one
    # product gives mean(c^j du) and the central moments m_(j+1).
    cols = np.empty((3 + (1 if sides is None else len(sides)), n))
    c = cols[-1]
    np.subtract(u, mean, out=c)
    np.exp(-0.5 * wv, out=cols[0])
    cols[0] *= inv
    np.multiply(u, inv, out=cols[1])
    if sides is None:
        np.multiply(0.5 * u * u, cols[1], out=cols[2])
    else:
        tail = 0.5 * u * u * cols[1]
        for k, side in enumerate(sides, start=2):
            np.multiply(tail, side, out=cols[k])
    powers = np.empty((4, n))
    powers[0] = 1.0
    powers[1] = c
    np.multiply(c, c, out=powers[2])
    np.multiply(powers[2], c, out=powers[3])
    sums = powers @ cols.T / n
    m2, m3, m4 = sums[1:, -1]
    if m2 == 0.0:
        raise DataError("degenerate data: zero variance")
    var = m2 * (n / (n - 1.0))
    # The ratios m3 / m2 and m4 / m2 come first: m4 * dm2 overflows on
    # heavy data whose moments are finite.  The coefficients are taken on
    # numpy scalars, which overflow to inf as the columns did; the 3 or 4
    # entries per row on floats, which cost less than calls on the columns
    # and give the same bits, but cannot divide by 0.
    a2, c3, p3, c4, p4 = (float(v) for v in (
        var / m2, 1.5 * (m3 / m2), m2**1.5, 2.0 * (m4 / m2), m2 * m2))
    if p4 == 0.0 or p3 == 0.0:
        raise DataError("degenerate data: the variance of the back-transformed data underflows")
    fm2, fm3 = float(m2), float(m3)
    mean_du, s1, s2, s3 = sums[:, :-1].tolist()
    dm2 = [2.0 * v for v in s1]
    jac = np.array([[-v for v in mean_du], [-(v * a2) for v in dm2],
                    [-((3.0 * (b - fm2 * a) - c3 * d) / p3) for a, b, d in zip(mean_du, s2, dm2)],
                    [-((4.0 * (b - fm3 * a) - c4 * d) / p4) for a, b, d in zip(mean_du, s3, dm2)]])
    r = np.array([mean, var - 1.0, m3 / p3, m4 / p4 - 3.0])
    tails = (True,) if sides is None else sides

    def curvature(w3: float, w4: float) -> np.ndarray:
        # phi = w3 m3 / m2^1.5 + w4 m4 / m2^2, the weights held fixed; the
        # result is d^2 phi / (ddelta_k dtheta) = sum_j f_j d^2 m_j +
        # sum_jl f_jl dm_j dm_l, with f_j =
        # dphi / dm_j, f_jl = d^2 phi / (dm_j dm_l) (f_33 = f_34 = f_44 = 0)
        # and d^2 m_j = j (j - 1) mean(c^(j-2) v_k v) + j mean(c^(j-1) w_k),
        # where v = du - mean(du) and w_k is the centred second derivative
        # of u.  psi and chi gather the powers of c.  The rows of du hold
        # -du, which a product of two of them does not see.
        du = cols[:-1]
        mean_du, dm2 = sums[0, :-1], 2.0 * sums[1, :-1]
        dm3 = 3.0 * (sums[2, :-1] - m2 * mean_du)
        dm4 = 4.0 * (sums[3, :-1] - m3 * mean_du)
        f3, f4 = w3 / m2**1.5, w4 / (m2 * m2)
        f2 = -1.5 * f3 * (m3 / m2) - 2.0 * f4 * (m4 / m2)
        f22 = (3.75 * f3 * (m3 / m2) + 6.0 * f4 * (m4 / m2)) / m2
        f23, f24 = -1.5 * f3 / m2, -2.0 * f4 / m2
        psi = np.array([2.0 * f2, 6.0 * f3, 12.0 * f4, 0.0]) @ powers
        chi = np.array([0.0, 2.0 * f2, 3.0 * f3, 4.0 * f4]) @ powers
        mean_psi, mean_chi = 2.0 * f2 + 12.0 * f4 * m2, 3.0 * f3 * m2 + 4.0 * f4 * m3
        psi_du = psi @ du.T / n
        half = 0.5 + inv
        u2i = u * cols[1]
        second = np.array([u2i * cols[0] * half, u2i * cols[1] * half,
                           u2i * u2i * u * (0.75 + 0.5 * inv)])
        out = np.empty((len(tails), du.shape[0]))
        for k, side in enumerate(tails):
            a = k + 2
            out[k] = ((psi * du[a]) @ du.T / n - mean_du[a] * psi_du - mean_du * psi_du[a]
                      + mean_du[a] * mean_psi * mean_du + f22 * dm2[a] * dm2
                      + f23 * (dm2[a] * dm3 + dm3[a] * dm2) + f24 * (dm2[a] * dm4 + dm4[a] * dm2))
            chi_u, mean_u = np.array([chi, powers[0]]) @ (second * side).T / n
            out[k, [0, 1, a]] += chi_u - mean_chi * mean_u
        return out

    return r, jac, curvature


def sample_moments(data) -> SampleMoments:
    """Summary moments of a series.

    Kurtosis is the non-excess standardized fourth moment (Gaussian
    reference value 3); the standard deviation uses the unbiased N-1
    denominator.  Skewness and kurtosis are NaN for fewer than 4 points;
    degenerate (zero-variance) data raises :class:`DataError`.  A moment
    that overflows (a point beyond about 1e154 for the sd) is not finite
    (inf or NaN), with no warning.
    """
    x = _check_series(data, min_n=2)
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(x, ddof=1))
        if sd == 0.0:
            raise DataError("degenerate data: zero variance")
        if x.size >= 4:
            skew, kurt = _central_moment_stats(x)
        else:
            skew, kurt = math.nan, math.nan
    return SampleMoments(
        mean=float(np.mean(x)),
        sd=sd,
        skewness=skew,
        kurtosis=kurt,
        median=float(np.median(x)),
        min=float(np.min(x)),
        max=float(np.max(x)),
    )


def loglik(data, dist: LambertWDist) -> LoglikParts:
    """Log-likelihood of ``data`` under ``dist``, split into input + penalty.

    ``total = input_part + penalty_part`` exactly; the total is ``-inf``
    (never an exception) when a candidate parameter point puts data
    outside the input support or otherwise produces non-finite terms, so
    optimizers can treat such points as rejected.
    """
    y = _check_series(data, min_n=1)
    # The per-point terms are filled by blocks, then each is summed in one
    # call, so the summation order does not depend on the blocks.
    input_terms, penalty_terms = _blocked(_loglik_terms, y, dist)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        input_part = float(np.sum(input_terms))
        penalty_part = float(np.sum(penalty_terms))
    total = input_part + penalty_part
    if not math.isfinite(total):
        total = -math.inf
    return LoglikParts(total, input_part, penalty_part)


def _loglik_terms(y, dist: LambertWDist):
    """Per-point input log-density and Jacobian penalty of :func:`loglik`."""
    wv, x = dist._w_and_input(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        return dist.input.logpdf(x), -0.5 * wv - np.log1p(wv)


def _fit_result(y, dist: LambertWDist, method: str, params: dict[str, float], iterations: int,
                converged: bool, std_errors=None, at_upper: bool = False) -> FitResult:
    """The :class:`FitResult` of the fitted model ``dist`` on the data ``y``.

    ``tau`` and ``input`` are those of ``dist``, and the likelihood split is
    :func:`loglik`'s.  ``boundary_hit`` is ``delta_upper`` when a tail ended
    on its upper search bound (``at_upper``), else ``delta_lower`` when a
    tail is 0.
    """
    tau = dist.tau
    boundary = None
    if at_upper:
        boundary = "delta_upper"
    elif min(tau.delta_left, tau.delta_right) == 0.0:
        boundary = "delta_lower"
    return FitResult(tau, dist.input, method, params, *loglik(y, dist), iterations, converged,
                     std_errors, boundary)


def grad_delta(delta: float, z_data) -> float:
    """Gradient of the Gaussian-input log-likelihood in the tail parameter.

    For standardized data (location 0, scale 1 known):

        D(delta) = sum z^2 W'(delta z^2)
                   * ( w_delta(z)^2 / 2 - 1/2 - 1/(1 + W(delta z^2)) )

    which at delta = 0 collapses to ``sum(z^4)/2 - 3 sum(z^2)/2``.  It is
    summed from the per-point terms ``u^2 (u^2 - 1 - 2/(1 + W)) / (2 (1 +
    W))`` of :func:`_delta_slope`, with ``u^2 = W / delta``, so huge
    observations cannot overflow.
    """
    delta = float(delta)
    if delta < 0:
        raise DomainError("delta must be >= 0")
    z = _check_series(z_data, min_n=1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _delta_slope(delta, z)[0]


_DELTA_BRACKET_LIMIT = 1e8
# The Newton searches (the tail-only root, the kurtosis match of delta_gmm,
# the joint MLE) stop when a step is at most _STEP_XTOL + _STEP_RTOL |x|, or
# after _STEP_MAX_ITERATIONS steps (_GMM_MAX_STEPS for the kurtosis match,
# which from a poor start can need more than 100 to reach a bound of its
# box); a coordinate within _BOUND_TOL of a bound of its box is held on
# that bound.
_STEP_XTOL = 1e-13
_STEP_RTOL = 8.9e-16
_BOUND_TOL = 1e-12
_STEP_MAX_ITERATIONS = 100
_GMM_MAX_STEPS = 300


def mle_delta_only(z_data) -> FitResult:
    """Maximum likelihood for the tail parameter with known location/scale.

    Implements the boundary dichotomy: if ``sum(z^4)/sum(z^2) <= 3`` the
    estimate is exactly 0 (flagged ``delta_lower``); otherwise the unique
    positive root of :func:`grad_delta` is bracketed by geometric growth
    and refined by safeguarded Newton steps on its closed-form derivative
    (a bisection of the bracket where a step would leave it), until a step
    is at most ``1e-13 + 8.9e-16 delta``.  The standard error is ``1 /
    sqrt(-D')``, with ``D'`` the derivative of :func:`grad_delta` that the
    last Newton step used, at a point at most that step from the root; an
    estimate of 0 has none.
    """
    z = _check_series(z_data, min_n=2)
    top = float(np.max(np.abs(z)))
    if top == 0.0:
        raise DataError("degenerate data: all zeros")
    # sum z^4 overflows once some |z| passes ~1e77; the ratio is formed from
    # z / max|z| (a float product top * top that overflows is inf, silently).
    vsq = np.square(z / top)
    ratio = float(np.sum(vsq * vsq)) / float(np.sum(vsq)) * top * top

    se = None
    if ratio <= 3.0:
        delta_hat, iterations = 0.0, 0
    else:
        # One error state for the whole search: each pass runs under it.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            hi = 0.5
            while _delta_slope(hi, z)[0] > 0.0:
                hi *= 2.0
                if hi > _DELTA_BRACKET_LIMIT:
                    raise ConvergenceError(
                        "tail-parameter bracket left the representable search "
                        "region; data too extreme for a finite estimate"
                    )
            # grad_delta is positive at lo (at 0, since the ratio exceeds 3)
            lo = 0.5 * hi if hi > 0.5 else 0.0
            delta_hat = 0.5 * (lo + hi)
            for iterations in range(1, _STEP_MAX_ITERATIONS + 1):
                slope, curvature = _delta_slope(delta_hat, z)
                if slope == 0.0:
                    break
                if slope > 0.0:
                    lo = delta_hat
                else:
                    hi = delta_hat
                step = -slope / curvature if curvature < 0.0 else math.inf
                if abs(step) <= _STEP_XTOL + _STEP_RTOL * delta_hat:
                    delta_hat += step
                    break
                if not lo < delta_hat + step < hi:
                    step = 0.5 * (lo + hi) - delta_hat
                delta_hat += step
            else:
                raise ConvergenceError("gradient root refinement did not converge")
        if delta_hat > 0.0 and -math.inf < curvature < 0.0:
            se = 1.0 / math.sqrt(-curvature)

    return _fit_result(
        z, LambertWDist(Gaussian(0.0, 1.0), delta_hat), "mle_delta_only",
        {"mu_x": 0.0, "sigma_x": 1.0, "delta": delta_hat}, iterations, True,
        {"delta": se} if se is not None else None,
    )


def _delta_slope(delta: float, z: np.ndarray) -> tuple[float, float]:
    """:func:`grad_delta` and its derivative in delta, from one W pass.

    They are the tail entries of the Gaussian score and Hessian at (mu,
    sigma, delta) = (0, 1, delta), from the same sums
    (:func:`_gaussian_derivatives`, :func:`_tail_entries`).  It runs under
    the caller's ``np.errstate``, as :func:`_moment_residual` does.
    """
    wv, u = _w_and_w_delta(z, delta)
    q = u * u
    inv = 1.0 / (1.0 + wv)
    qa = q * inv
    cols = np.array([np.ones(q.size), inv, inv * inv, q, qa])
    return _tail_entries(*(np.array([qa, qa * qa]) @ cols.T).tolist())


def taylor_delta(sample_kurtosis: float) -> float:
    """Rule-of-thumb tail parameter from a kurtosis value.

    Inverts the quadratic kurtosis expansion ``3 + 12 d + 66 d^2``:
    ``[sqrt(66 k - 162) - 6]_+ / 66``, with a negative discriminant
    clamped to zero.  Only a starting value, not an estimator.
    """
    g2 = float(sample_kurtosis)
    disc = 66.0 * g2 - 162.0
    if disc <= 0.0:
        return 0.0
    return max((math.sqrt(disc) - 6.0) / 66.0, 0.0)


def delta_gmm(z_data) -> GMMDelta:
    """Tail parameter minimizing the kurtosis mismatch of back-transformed data.

    For standardized data ``z`` this finds ``delta`` in [0, 10] with
    ``kurtosis(w_delta(z, delta))`` equal to 3, the Gaussian value.
    Back-transforming shrinks kurtosis monotonically, so when the data
    kurtosis exceeds the target the match is a root-finding problem; when
    it does not, the mismatch is minimized at the lower bound and 0 is
    returned.  A mismatch still nonnegative at the upper bound gives that
    bound, flagged.  The search (:func:`_gmm_step`) takes damped Newton
    steps from the rule-of-thumb :func:`taylor_delta` start; it stops when
    the step is at most ``1e-13 + 8.9e-16 delta``.  It is the
    tail update of one classic IGMM step; :func:`igmm` solves for the fixed
    point of those steps without taking them.
    """
    z = _check_series(z_data, min_n=4)
    delta = _gmm_step(z, [taylor_delta(_central_moment_stats(z)[1])]).x[0]
    return GMMDelta(delta, delta >= _DELTA_BOUNDS[1])


def _dot(x, y) -> float:
    return sum(map(operator.mul, x, y))


# The searches solve 1-4 coordinates in pure Python: at that size numpy's
# per-call cost outweighs the arithmetic.  A _box_newton on numpy arrays
# made fits at n = 1000 slower by 7 % (mle_joint h), 14 % (Student t), 52 %
# (igmm) and 36 % (igmm_double_tail) on 2 vCPUs, numpy 2.4.
def _cholesky(a: list[list[float]]) -> list[list[float]] | None:
    """The lower Cholesky factor of a small symmetric matrix.

    None when the matrix is not positive definite.
    """
    low = [[0.0] * len(a) for _ in a]
    for i, (ai, li) in enumerate(zip(a, low)):
        for j in range(i + 1):
            lj, s = low[j], ai[j]
            for k in range(j):
                s -= li[k] * lj[k]
            if i > j:
                li[j] = s / lj[j]
            elif s > 0.0:
                li[i] = math.sqrt(s)
            else:
                return None
    return low


def _forward(low: list[list[float]], b: list[float]) -> list[float]:
    """``L^-1 b`` for a lower triangular ``L``."""
    out = list(b)
    for i, row in enumerate(low):
        for k in range(i):
            out[i] -= row[k] * out[k]
        out[i] /= row[i]
    return out


def _backward(low: list[list[float]], b: list[float]) -> list[float]:
    """``L'^-1 b`` for a lower triangular ``L``."""
    out = list(b)
    for i in reversed(range(len(out))):
        for k in range(i + 1, len(out)):
            out[i] -= low[k][i] * out[k]
        out[i] /= low[i][i]
    return out


def _finite(value: float, grad, hess) -> bool:
    """Whether an evaluation's value, gradient and Hessian are all finite."""
    return (math.isfinite(value) and all(map(math.isfinite, grad))
            and all(all(map(math.isfinite, row)) for row in hess))


class _Search(NamedTuple):
    x: list[float]
    value: float
    payload: object  # what the objective returned with the value at x
    passes: int  # objective evaluations besides the one at the start
    converged: bool
    retired: bool = False  # stopped by ``stop``, short of its own end


def _projected_trial(x, free, g, h, damped, low, lo, hi) -> list[float]:
    """``x`` plus the damped Newton step of the ``free`` coordinates, kept in the box.

    ``low`` is the Cholesky factor of ``damped``, the damped ``h`` on the
    free coordinates.  A coordinate whose step would cross a bound is held on
    that bound, and the damped system is solved again for the others, with
    the held moves on its right-hand side, until no step crosses.  Should a
    reduced system not factor, the remaining steps are clipped to the box.
    """
    trial, live, rhs = list(x), list(range(len(free))), [-gi for gi in g]
    while True:
        cut = []
        for i, s in zip(live, _backward(low, _forward(low, [rhs[i] for i in live]))):
            k = free[i]
            trial[k] = x[k] + s
            if not lo[k] <= trial[k] <= hi[k]:
                trial[k] = min(max(trial[k], lo[k]), hi[k])
                cut.append(i)
        live = [i for i in live if i not in cut]
        if not (cut and live):
            return trial
        for i in live:
            rhs[i] -= _dot([h[i][j] for j in cut], [trial[free[j]] - x[free[j]] for j in cut])
        low = _cholesky([[damped[i][j] for j in live] for i in live])
        if low is None:
            return trial


def _box_newton(evaluate, x: list[float], lo, hi, tol: float,
                max_steps: int = _STEP_MAX_ITERATIONS, pull=None, stop=None) -> _Search:
    """Minimize ``f`` over the box ``lo <= x <= hi`` by damped Newton steps.

    ``evaluate(x)`` returns ``f(x)`` as a float, its gradient as a list, its
    Hessian (or a Gauss-Newton approximation) as a list of rows, and a
    payload.  Here alone an evaluation whose value, gradient or Hessian is
    not finite (``f = inf`` included) is rejected: at the start, which then
    ends the search with ``f = inf``, at every trial point and at the last
    evaluation.  A coordinate within 1e-12 of a bound whose
    descent direction points out of the box is held exactly on that bound;
    the direction is that of the gradient, or of ``-pull(payload)`` when
    ``pull`` is given.
    The free coordinates take the step ``s`` of ``(H + lam D) s = -g``, with
    ``D`` the absolute diagonal of ``H`` (Marquardt); ``lam`` grows until
    ``H + lam D`` is positive definite.  The step is projected as in the
    two-metric projection of Bertsekas (1982), "Projected Newton methods for
    optimization problems with simple constraints", SIAM J. Control Optim.
    20(2): a free coordinate whose step would cross its bound is held on
    that bound, and the damped system is solved again for the others with
    that move on its right-hand side (:func:`_projected_trial`), so they
    take the step of the model with the coordinate on its bound rather than
    the one solved for the uncut step.  A step that lowers ``f`` is taken
    and lowers ``lam`` by Nielsen's rule from the ratio of the actual to the
    predicted fall, one that does not raises it, so far from a minimum the
    step shortens towards scaled steepest descent.  A trial point rejected
    from this point (every free coordinate held on a bound, for every
    ``lam`` so far) is not evaluated again.

    It stops, converged, when no coordinate is free or the Newton decrement
    ``g' H^-1 g`` of the free ones is at most ``tol``, and
    unconverged when no coordinate moves by more than ``1e-13 + 8.9e-16
    |x|`` (where repeated failures to lower ``f`` end too) or after
    ``max_steps`` steps.  A coordinate held on a bound after the last
    evaluation is evaluated there once more, so the returned payload is
    that of ``x``; an evaluation there that is rejected leaves the search
    unconverged.  ``stop(x, f)``, when given, is asked before each step
    where ``H`` is positive definite, with the point the full Newton step
    reaches (in the box) and the value ``f - g' H^-1 g / 2`` the quadratic
    model predicts there; when it says so the search ends, retired and
    unconverged, at the last point evaluated.
    """
    value, grad, hess, payload = evaluate(x)
    if not _finite(value, grad, hess):
        return _Search(x, math.inf, payload, 0, False)
    at, passes, converged = x, 0, False
    lam, grow, rejected = 1e-6, 2.0, None
    for _ in range(max_steps):
        held, free = [], []
        for k, (xk, g) in enumerate(zip(x, grad if pull is None else pull(payload))):
            if xk <= lo[k] + _BOUND_TOL and g > 0.0:
                xk = lo[k]
            elif xk >= hi[k] - _BOUND_TOL and g < 0.0:
                xk = hi[k]
            else:
                free.append(k)
            held.append(xk)
        x = held
        if not free:
            converged = True
            break
        g = [grad[k] for k in free]
        h = [[hess[i][j] for j in free] for i in free]
        low = _cholesky(h)
        if low is not None:
            w = _forward(low, g)
            if _dot(w, w) <= tol:
                converged = True
                break
            if stop is not None:
                newton = list(x)
                for k, sk in zip(free, _backward(low, w)):
                    newton[k] = min(max(x[k] - sk, lo[k]), hi[k])
                if stop(newton, value - 0.5 * _dot(w, w)):
                    return _Search(at, value, payload, passes, False, True)
        scale = [abs(row[i]) or 1.0 for i, row in enumerate(h)]
        while True:
            damped = [[v + lam * scale[i] if i == j else v for j, v in enumerate(row)]
                      for i, row in enumerate(h)]
            low = _cholesky(damped)
            if low is not None or not lam < math.inf:
                break
            lam *= 4.0
        if low is None:
            break
        trial = _projected_trial(x, free, g, h, damped, low, lo, hi)
        if all(abs(t - xk) <= _STEP_XTOL + _STEP_RTOL * abs(xk) for t, xk in zip(trial, x)):
            break
        accepted = False
        if trial != rejected:
            passes += 1
            out = evaluate(trial)
            move = [trial[k] - x[k] for k in free]
            predicted = -(_dot(g, move) + 0.5 * _dot(move, [_dot(row, move) for row in h]))
            accepted = out[0] < value and predicted > 0.0 and _finite(*out[:3])
        if accepted:
            gain = (value - out[0]) / predicted
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            grow = 2.0
            x = at = trial
            value, grad, hess, payload = out
            rejected = None
        else:
            lam *= grow
            grow *= 2.0
            rejected = trial
    if x != at:
        passes += 1
        value, grad, hess, payload = evaluate(x)
        converged = converged and _finite(value, grad, hess)
    return _Search(x, value, payload, passes, converged)


def _gmm_step(z: np.ndarray, start: list[float], max_steps: int = _GMM_MAX_STEPS,
              tol: float = 0.0) -> _Search:
    """The classic IGMM tail update: match the moments of the back-transformed ``z``.

    One tail in ``start`` brings the kurtosis to 3 (:func:`delta_gmm`); a
    (left, right) pair, ``z <= 0`` on the left, brings the skewness to 0 and
    the kurtosis to 3 in a least-squares sense.  Either way it minimizes
    ``phi = |r|^2 / 2`` over [0, 10] per tail, for those rows ``r`` of
    :func:`_moment_residual`, by :func:`_box_newton` from ``start``, on the
    Gauss-Newton Hessian near a match and on the exact one (the curvature
    of :func:`_moment_residual` added) where ``|r|^2 > 1e-6``: on a match
    that keeps a residual Gauss-Newton can take a hundred steps.  A tail
    within 1e-12 of a bound whose descent
    direction points out of the box is held exactly on that bound, which
    gives :func:`delta_gmm` its end-point rules without evaluating the
    bounds; a tail the data do not need comes back as exactly 0.  Far from
    a match the damped step shortens towards steepest descent.  It stops
    when the Gauss-Newton decrement of ``phi`` is at most ``tol``, after
    ``max_steps`` steps, or when no tail moves by more than ``1e-13 +
    8.9e-16 delta``.
    """
    lo, hi = _DELTA_BOUNDS
    if len(start) == 1:
        sides, rows = None, slice(3, 4)
    else:
        left = z <= 0.0
        sides, rows = (left, ~left), slice(2, 4)

    def evaluate(d: list[float]):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            r, jac, curvature = _moment_residual(
                z, d[0] if sides is None else _tail_at(z, tuple(d)), sides)
        r, jac = r[rows], jac[rows, 2:]
        hess = jac.T @ jac
        if r @ r > 1e-6:
            # Gauss-Newton converges slowly on a least-squares match that
            # keeps a residual; its exact Hessian adds r times the curvature.
            c = curvature(*((r[0], r[1]) if sides is not None else (0.0, r[0])))[:, 2:]
            hess += 0.5 * (c + c.T)
        return 0.5 * float(r @ r), (jac.T @ r).tolist(), hess.tolist(), None

    d = [min(max(float(x), lo), hi) for x in start]
    return _box_newton(evaluate, d, [lo] * len(d), [hi] * len(d), tol, max_steps)


def _igmm(data, double_tail: bool) -> FitResult:
    """The IGMM fixed point shared by :func:`igmm` and :func:`igmm_double_tail`.

    The classic IGMM update standardizes ``z = (y - mu) / sigma``, matches
    the tails to the moments of ``u = w_delta(z)`` (:func:`_gmm_step`) and
    takes location and scale from the back-transformed ``u sigma + mu``.
    Its fixed point is where ``mean(u) = 0``, ``sd(u) = 1`` (n - 1) and the
    tails are the constrained least-squares match of the moment rows ``r``
    of :func:`_moment_residual`, the kurtosis for one tail and skewness and
    kurtosis for two: a free tail k has the slope ``J_k' r = 0``, and a tail
    on a bound of [0, 10] whose slope points out of the box is held there.
    One :func:`_box_newton` search on (mu, log sigma, tails), with one W
    pass per evaluation, solves those conditions at once.  Its rows are
    ``mean(u)``, ``var(u) - 1`` and, per free tail, ``J_k' r / |J_k|``, with
    the Gauss-Newton Jacobian rows ``J_k' J / |J_k|``; where the free tails
    zero the moment rows this is Newton's method on all rows.  Beside a
    held tail the rows keep a residual, and the free tail's row takes its
    exact Jacobian (the curvature of :func:`_moment_residual`) where that
    keeps its own slope rising.  It runs on the standardized data
    (:func:`_standardized`), mu in units of the start scale and sigma
    relative to it.

    It starts from Tukey's letter values (:func:`_default_start`, as
    :func:`mle_joint` does), and stops, converged, when the Gauss-Newton
    decrement ``|rows|^2`` is at most 1e-24, unless sigma is below 1e-8 in
    the units of the standardized data.  A search that stops short of
    that, stalled or after 40 steps, is at or crawling along a minimum of
    ``|rows|^2`` that is no fixed point (5 of 3000 random two-tail fits of
    30 or 60 points); 2^k classic updates after the k-th such stop move it
    off, and the search restarts.  A restart from a point that is no valid
    model ends the fit, unconverged, at the last search end with a finite
    value; a first start that is none raises :class:`ConvergenceError`.
    All of it shares a budget of 200 W passes, after which the fit is
    unconverged.  ``iterations`` counts those passes besides the one at the
    start.
    """
    y = _check_series(data, min_n=10)
    x, m, s, q = _standardized(y)
    names = ("mu_x", "sigma_x") + (("delta_left", "delta_right") if double_tail else ("delta",))
    start = _default_start(x, q, names)
    mu0, s0 = start["mu_x"], start["sigma_x"]
    lo, hi = _DELTA_BOUNDS
    moments = slice(2, 4) if double_tail else slice(3, 4)

    def pair(v) -> tuple[float, float]:
        """The weights of a moment-rows vector on (skewness, kurtosis)."""
        return (float(v[0]), float(v[1])) if double_tail else (0.0, float(v[0]))

    def evaluate(p: list[float]):
        # One errstate for the whole pass: a row or Jacobian entry that is
        # not finite (heavy data at a far scale) makes the value or the
        # Hessian not finite, and _box_newton rejects the point.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            try:
                mu, sigma = mu0 + s0 * p[0], s0 * math.exp(p[1])
                z = (x - mu) / sigma
                if double_tail:
                    left = z <= 0.0
                    r, jac, curvature = _moment_residual(z, _tail_at(z, tuple(p[2:])),
                                                         (left, ~left))
                else:
                    r, jac, curvature = _moment_residual(z, p[2])
                jac[:, 0] *= s0 / sigma
            except (DataError, ArithmeticError):
                return math.inf, None, None, None
            r_m, j_m = r[moments], jac[moments]
            slopes, gram = (r_m @ j_m).tolist(), (j_m.T @ j_m).tolist()
            held = [d <= lo + _BOUND_TOL and slope > 0.0 or d >= hi - _BOUND_TOL and slope < 0.0
                    for d, slope in zip(p[2:], slopes[2:])]
            rows, grads = r[:2].tolist(), jac[:2].tolist()
            for k, hold in enumerate(held, start=2):
                if hold:
                    continue
                norm = math.sqrt(gram[k][k]) or 1.0
                row = gram[k]
                if any(held):
                    # Beside a held tail the moment rows keep a residual, so
                    # the row's Jacobian is not J_k' J / |J_k|: it adds the
                    # slope's second-order part and the change of |J_k|.
                    extra = curvature(*pair(r_m))[k - 2]
                    turn = curvature(*pair(j_m[:, k]))[k - 2]
                    extra[0] *= s0 / sigma
                    turn[0] *= s0 / sigma
                    exact = [a + b for a, b in zip(row, extra.tolist())]
                    if exact[k] > 0.0:
                        row = [a - slopes[k] / norm**2 * b for a, b in zip(exact, turn.tolist())]
                rows.append(slopes[k] / norm)
                grads.append([v / norm for v in row])
            f, g = np.array(rows), np.array(grads)
            return 0.5 * float(f @ f), (g.T @ f).tolist(), (g.T @ g).tolist(), slopes

    def classic_update(p: list[float]) -> tuple[list[float], int]:
        """One classic update from ``p``, and its W passes."""
        mu, sigma = mu0 + s0 * p[0], s0 * math.exp(p[1])
        z = (x - mu) / sigma
        match = _gmm_step(z, p[2:], _IGMM_MAX_ITERATIONS - passes, 1e-16)
        u = _w_and_w_delta(z, _tail_at(z, tuple(match.x)) if double_tail else match.x[0])[1]
        return [p[0] + sigma / s0 * float(np.mean(u)),
                p[1] + math.log(np.std(u, ddof=1))] + match.x, match.passes + 2

    tails = len(names) - 2
    box = [-math.inf] * 2 + [lo] * tails, [math.inf] * 2 + [hi] * tails
    p, passes, stalls, end = [0.0, 0.0] + [min(start[name], hi) for name in names[2:]], 0, 0, None
    while True:
        steps = min(_IGMM_MAX_ITERATIONS - passes, _IGMM_SEARCH_STEPS)
        run = _box_newton(evaluate, p, *box, _IGMM_DECREMENT_TOL, steps,
                          pull=lambda slopes: slopes)
        passes += run.passes
        # A restart whose start is no valid point (classic updates can
        # overflow the scale) ends the fit at the last finite search end.
        if not math.isfinite(run.value):
            if end is None:
                raise ConvergenceError("the IGMM start gives no valid model on this data")
            break
        end = run
        if end.converged:
            break
        # A search that stops short of the decrement, stalled or out of
        # steps, is at or crawling along a minimum of |rows|^2 that is no
        # fixed point.  Classic updates move it off, 2^k of them after the
        # k-th stop, and the search restarts.
        p = end.x
        try:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                for _ in range(2**stalls):
                    if passes >= _IGMM_MAX_ITERATIONS:
                        break
                    p, used = classic_update(p)
                    passes += used
        except (DataError, ArithmeticError, ValueError):
            break
        if passes >= _IGMM_MAX_ITERATIONS:
            break
        passes += 1
        stalls += 1
    sigma = s0 * math.exp(end.x[1])
    converged = end.converged and sigma >= _COLLAPSED_SCALE
    mu, sigma = m + s * (mu0 + s0 * end.x[0]), s * sigma
    delta = tuple(end.x[2:]) if double_tail else end.x[2]
    return _fit_result(y, LambertWDist(Gaussian(mu, sigma), delta), "igmm",
                       {"mu_x": mu, "sigma_x": sigma, **dict(zip(names[2:], end.x[2:]))},
                       passes, converged, at_upper=max(end.x[2:]) >= hi)


def igmm(data) -> FitResult:
    """Iterative generalized method of moments for (mu_x, sigma_x, delta).

    The estimate is the fixed point of the classic IGMM update: standardize
    with the current location and scale, match the kurtosis of the
    back-transformed sample to 3 as :func:`delta_gmm` does, and refresh
    location and scale from the back-transformed data (mean and unbiased
    standard deviation).  That point is where the back-transformed sample
    has mean 0, sd 1 and kurtosis 3, or, when no tail in [0, 10] matches the
    kurtosis, the tail is on the bound nearest to a match.  It is solved
    for directly, on ``(y - m) / s`` for the median m and a letter-value
    spread s (:func:`_standardized`), by damped Gauss-Newton steps on (mu,
    log sigma, delta) with one W pass each (:func:`_igmm`), so the end
    depends on neither the start nor the data's units.  The search stops,
    converged, when the Gauss-Newton decrement of the unit-free rows (mean,
    variance - 1, kurtosis - 3) is at most 1e-24 at a sigma of at least
    1e-8 s; ``iterations`` counts its W passes.  A tail estimate at 0 is
    flagged ``delta_lower``, one at 10 ``delta_upper``.
    """
    return _igmm(data, False)


def igmm_double_tail(data) -> FitResult:
    """Double-tail variant of :func:`igmm`: a left and a right tail.

    At the fixed point the back-transformed sample has mean 0 and sd 1, and
    (delta_left, delta_right) in [0, 10]^2 bring its skewness and kurtosis
    to 0 and 3.  Where the data skew one way only, that match is a
    least-squares one with the other tail held exactly at 0, and the free
    tail zeroes the least-squares slope.  The search and its stop are those
    of :func:`igmm`.  ``delta_lower`` is flagged when either tail estimate
    is 0, ``delta_upper`` when either is at 10.
    """
    return _igmm(data, True)


_NU_CAP = 1e6
# The likelihood search stops when the Newton decrement of its free
# coordinates is at most _DECREMENT_TOL n, for n observations.  A later
# search from another start is retired where its Newton step would come
# within _RETIRE_STEP per coordinate and _RETIRE_VALUE n in value of an
# earlier converged end.
_DECREMENT_TOL = 1e-12
_RETIRE_STEP = 1e-3
_RETIRE_VALUE = 1e-7


class _Coordinate(NamedTuple):
    """A search coordinate p: maps to and from theta, ``(dtheta/dp, d^2 theta/dp^2)``, box."""
    to_search: Callable
    to_theta: Callable
    slopes: Callable
    lo: float = -math.inf
    hi: float = math.inf


_LINEAR = _Coordinate(float, float, lambda theta: (1.0, 0.0))
_TAIL = _LINEAR._replace(lo=0.0)
# sigma on log sigma, the tails at least 0, and nu on r = log(1 - 2/nu),
# with dnu/dr = nu (nu - 2) / 2, up to the r of nu = 2 + _NU_CAP.
_COORDINATES = {
    "mu_x": _LINEAR, "delta": _TAIL, "delta_left": _TAIL, "delta_right": _TAIL,
    "sigma_x": _Coordinate(math.log, math.exp, lambda sigma: (sigma, sigma)),
    "nu": _Coordinate(lambda nu: math.log1p(-2.0 / nu), lambda r: -2.0 / math.expm1(r),
                      lambda nu: (0.5 * nu * (nu - 2.0), (nu - 1.0) * (0.5 * nu * (nu - 2.0))),
                      hi=math.log1p(-2.0 / (_NU_CAP + 2.0))),
}


def _to_search(names, theta) -> list[float]:
    return [_COORDINATES[n].to_search(v) for n, v in zip(names, theta)]


def _to_theta(names, p) -> list[float]:
    return [_COORDINATES[n].to_theta(v) for n, v in zip(names, p)]


def _search_bounds(names) -> tuple[list[float], list[float]]:
    return [_COORDINATES[n].lo for n in names], [_COORDINATES[n].hi for n in names]


# Tukey's letter values p_k = 1 - 2^-k, k = 2..6, as standard normal
# quantiles z_k = ndtri(p_k) to the last bit: constants, so that a
# Gaussian-input start loads no scipy.
_LETTER_Z = (0.6744897501960817, 1.1503493803760079, 1.5341205443525463,
             1.8627318674216515, 2.1538746940614564)
# The percentiles 1 - p_6 .. 1 - p_2, the median and p_2 .. p_6, as the
# fractions np.percentile divides them to.
_LETTER_FRACTIONS = tuple(p / 100 for p in [100.0 * 2.0**-k for k in range(6, 1, -1)] + [50.0]
                          + [100.0 * (1.0 - 2.0**-k) for k in range(2, 7)])
# An end whose scale is below this in the units of x (:func:`_standardized`)
# has collapsed onto tied points: it is no fit, and not converged.
_COLLAPSED_SCALE = 1e-8


def _percentiles(ordered: np.ndarray, fractions) -> np.ndarray:
    """``np.percentile(ordered, 100 * fractions)`` bit for bit, of sorted data.

    numpy's default (linear) rule for a fraction ``f`` in (0, 1) of ``n >=
    2`` points: the index ``v = (n - 1) f`` falls between the order
    statistics ``a = y_(floor v)`` and ``b`` the next, and with ``t = v -
    floor v`` the value is ``a + (b - a) t``, or ``b - (b - a) (1 - t)``
    where ``t >= 1/2``.  np.percentile reaches the same statistics by
    partitions, at several times the cost on the small series of a fit;
    they may order -0.0 and 0.0 otherwise, so a zero can differ in sign.
    """
    v = (ordered.size - 1) * np.array(fractions)
    below = np.floor(v)
    t = v - below
    i = below.astype(np.intp)
    a, b = ordered[i], ordered[i + 1]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1.0 - t), out=out, where=t >= 0.5)
    return out


def _standardized(y: np.ndarray) -> tuple[np.ndarray, float, float, np.ndarray]:
    """The data the searches run on, ``x = (y - m) / s``, m, s and the letter values of x.

    m is the median and s the first positive letter-value spread ``(q(1 -
    2^-k) - q(2^-k)) / (2 z_k)``, k = 2..6, or half the range: order
    statistics, which no power of y overflows, and one sort gives those of
    x too.  Constant data, and data whose x is not finite (1e308 beside a
    spread of 1e-10), raise :class:`DataError` with no warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ordered = np.sort(y)
        q = _percentiles(ordered, _LETTER_FRACTIONS)
        m = float(q[5])
        for lo, hi, z in zip(q[4::-1].tolist(), q[6:].tolist(), _LETTER_Z):
            s = (hi - lo) / (2.0 * z)
            if s > 0.0:
                break
        else:
            top, bottom = float(ordered[-1]), float(ordered[0])
            if top == bottom:
                raise DataError("degenerate data: every value is the same")
            s = 0.5 * top - 0.5 * bottom
        x = (y - m) / s
    if not (s < math.inf and np.isfinite(x).all()):
        raise DataError("the data's standardized values are not finite")
    return x, m, s, _percentiles((ordered - m) / s, _LETTER_FRACTIONS)


def _line_fit(x) -> np.ndarray:
    """The matrix taking values at the abscissae ``x`` to the least-squares
    line's (intercept, slope), in closed form: no LAPACK call at import.
    """
    mean = sum(x) / len(x)
    sxx = sum((v - mean) ** 2 for v in x)
    slope = [(v - mean) / sxx for v in x]
    return np.array([[1.0 / len(x) - mean * w for w in slope], slope])


_LETTER_FIT = _line_fit([0.5 * z * z for z in _LETTER_Z])


def _letter_value_start(q: np.ndarray, names) -> dict[str, float] | None:
    """Tukey's estimate of (mu, sigma, tails) for Gaussian input from its letter values ``q``.

    Hoaglin (1985), "Summarizing shape numerically: the g-and-h
    distributions": the h transform of a Gaussian has the half-spreads
    ``HS_k = sigma z_k exp(delta z_k^2 / 2)`` about its median, so the line
    through ``log(HS_k / z_k)`` against ``z_k^2 / 2`` has slope delta and
    intercept log sigma.  One tail fits the mean of the lower and upper
    half-spreads, two tails fit each side on its own, and sigma is the exp
    of the mean intercept; mu is the median, and a tail is at least 1e-3.
    None when a half-spread is not positive (ties) or a value not finite.
    """
    tails = [n for n in names if n.startswith("delta")]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        med = float(q[5])
        lower, upper = med - q[4::-1], q[6:] - med
        spreads = [0.5 * (lower + upper)] if len(tails) == 1 else [lower, upper]
        intercept, slope = _LETTER_FIT @ np.log(np.array(spreads) / _LETTER_Z).T
        sigma = float(np.exp(np.mean(intercept)))
    if not (np.all(lower > 0.0) and np.all(upper > 0.0) and np.all(np.isfinite(slope))
            and 0.0 < sigma < math.inf):
        return None
    return {"mu_x": med, "sigma_x": sigma,
            **{n: max(float(d), 1e-3) for n, d in zip(tails, slope)}}


def _moment_start(q: np.ndarray, names, g2: float) -> dict[str, float]:
    """The start from the kurtosis ``g2`` and letter values ``q``: median, IQR scale, Taylor tail.

    The tail is :func:`taylor_delta` of ``g2``, at least 1e-3.  With nu in
    ``names`` the observed tail weight is split: nu from the kurtosis of a
    t, within [2.5, 100], and half the tail.  The scale is the interquartile
    range over that of the input, or 1.0, the unit of standardized data
    (:func:`_standardized`), where the IQR is 0.
    """
    q1, med, q3 = q[4:7].tolist()
    delta0 = max(taylor_delta(g2), 1e-3)
    start = {"mu_x": med, **{n: delta0 for n in names if n.startswith("delta")}}
    q75 = _LETTER_Z[0]  # the standard normal's upper quartile
    if "nu" in names:
        nu0 = (4.0 * g2 - 6.0) / (g2 - 3.0) if g2 > 3.5 else 30.0
        start["nu"] = float(min(max(nu0, 2.5), 100.0))
        start["delta"] = max(delta0 / 2.0, 1e-3)
        q75 = float(StudentT(start["nu"]).quantile(0.75))
    start["sigma_x"] = (q3 - q1) / (2.0 * q75) or 1.0
    return start


def _default_start(y: np.ndarray, q: np.ndarray, names) -> dict[str, float] | None:
    """The start of a likelihood search that is given none, and of IGMM.

    ``y`` is the standardized data and ``q`` its letter values
    (:func:`_standardized`).  Gaussian input starts from the letter values
    (:func:`_letter_value_start`), or where ties zero a half-spread from the
    moment start, as Student-t input does; that takes a kurtosis of 3 where
    that of ``y`` is not finite, or is None for nu.
    """
    start = None if "nu" in names else _letter_value_start(q, names)
    if start is None:
        with np.errstate(over="ignore", invalid="ignore"):
            g2 = _central_moment_stats(y)[1]
        if math.isfinite(g2) or "nu" not in names:
            start = _moment_start(q, names, g2 if math.isfinite(g2) else 3.0)
    return start


def _tail_entries(qa_sums, qa2_sums) -> tuple[float, float]:
    """The Gaussian tail score and curvature of one side, from its sums.

    With ``i = 1 / (1 + W)`` and ``qa = q i``, per point ``f_delta = -qa (1
    - q + 2 i) / 2`` and ``f_dd = qa^2 (1/2 + 3 i/2 + 2 i^2 - q - q i / 2)``
    (:func:`_log_scale_derivatives` with ``Phi = -q/2``).  ``qa_sums`` and
    ``qa2_sums`` are the sums of ``qa`` and of ``qa^2`` times the columns 1,
    ``i``, ``i^2``, ``q`` and ``qa``, in that order.
    """
    return (-0.5 * qa_sums[0] + 0.5 * qa_sums[3] - qa_sums[1],
            0.5 * qa2_sums[0] + 1.5 * qa2_sums[1] + 2.0 * qa2_sums[2] - qa2_sums[3]
            - 0.5 * qa2_sums[4])


def _gaussian_derivatives(u, wv, tails, sides, sigma):
    """Sum, gradient and Hessian of the Gaussian terms in (mu, log sigma, tails).

    Each point contributes ``f = -q/2 - W/2 - log1p(W)``, ``q = u^2``: the
    derivatives are those of :func:`_log_scale_derivatives` with ``Phi =
    -q/2``, ``a = -q``, ``c2 = -1`` and ``d = 0``, where, with ``i = 1 / (1
    + W)`` and each side's own tail ``delta``, they are polynomials in
    ``i`` and ``q``:

        P     = -(1 + delta) - 2 delta i,
        S     = 2 (delta - 1) i^2 - 8 delta i^3,
        S - P = (1 + delta) + 2 delta i + 2 (delta - 1) i^2 - 8 delta i^3,
        X     = i^2 - 4 i^3 + q i + q i^2,

    with ``f_delta`` and ``f_dd`` as in :func:`_tail_entries`.  So every sum
    is one entry of a single matrix product: the weight rows ``u e i``,
    ``q i``, ``e^2 i`` and ``(q i)^2`` of each side (``e = exp(-W/2)``),
    and a row of ones, against the columns 1, ``i``, ``i^2``, ``q``, ``q
    i``, ``i^3``, ``q i^2``, ``W`` and ``log1p(W)``; the side's tail weighs
    its sums.  ``tails`` holds one tail and ``sides`` is None, or a tail
    and a 0/1 weight array per side.
    """
    n = u.size
    q = u * u
    inv = 1.0 / (1.0 + wv)
    inv2 = inv * inv
    qa = q * inv
    e = np.exp(-0.5 * wv)
    ue = u * e * inv
    weights = [ue, qa, e * e * inv, qa * qa]
    if sides is not None:
        weights = [w * side for side in sides for w in weights]
    ones = np.ones(n)
    cols = np.array([ones, inv, inv2, q, qa, inv2 * inv, qa * inv, wv, np.log1p(wv)])
    sums = (np.array(weights + [ones]) @ cols.T).tolist()
    one = sums[-1]
    g0 = g1 = h00 = h01 = h11 = 0.0
    grad_t, h0t, h1t, htt = [], [], [], []
    for k, d in enumerate(tails):
        ue_s, qa_s, e2_s, qa2_s = sums[4 * k:4 * k + 4]
        c1, c2, c3 = 1.0 + d, 2.0 * (d - 1.0), 8.0 * d
        g0 += c1 * ue_s[0] + 2.0 * d * ue_s[1]
        g1 += c1 * qa_s[0] + 2.0 * d * qa_s[1]
        h00 += c1 * e2_s[0] + 2.0 * d * e2_s[1] + c2 * e2_s[2] - c3 * e2_s[5]
        h01 += c2 * ue_s[2] - c3 * ue_s[5]
        h11 += c2 * qa_s[2] - c3 * qa_s[5]
        h0t.append(-(ue_s[2] - 4.0 * ue_s[5] + ue_s[4] + ue_s[6]) / sigma)
        h1t.append(-(qa_s[2] - 4.0 * qa_s[5] + qa_s[4] + qa_s[6]))
        grad, curvature = _tail_entries(qa_s, qa2_s)
        grad_t.append(grad)
        htt.append(curvature)
    k = 2 + len(tails)
    hess = [[h00 / (sigma * sigma), h01 / sigma, *h0t], [h01 / sigma, h11, *h1t]]
    for j in range(2, k):
        hess.append([h0t[j - 2], h1t[j - 2]] + [htt[j - 2] if i == j else 0.0 for i in range(2, k)])
    total = -0.5 * one[3] - 0.5 * one[7] - one[8]
    return total, [g0 / sigma, g1 - n, *grad_t], hess


def _log_scale_derivatives(u, q, wv, delta, sigma, phi, a, c2, d, nu_terms):
    """Sum, gradient and Hessian of ``sum_i f(z_i)`` in (mu, log sigma, delta, nu).

    Each point contributes ``f = Phi(q) - W/2 - log1p(W)`` with ``q = u^2``,
    ``u = w_delta(z)`` and ``W = W(delta z^2)``; ``phi = f``, ``a = 2
    Phi'(q) q``, ``c2 = 2 Phi'(q)`` and ``d = Phi''(q) q`` are given per
    point.  With ``i = 1 / (1 + W)`` and ``e = exp(-W/2)``, from ``dq/dz =
    2 u e i``, ``dq/ddelta = -q^2 i``, ``dW/dz = delta dq/dz``, ``dW/ddelta
    = q i`` and ``W i = 1 - i``:

        f_z      = u e i P,         P = c2 - delta (1 + 2 i),
        f_zz     = e^2 i (S - P),   S = 2 i^2 (P + 2 delta (1 - i)) + 4 d i,
        f_zdelta = u e i X,         X = i^2 (1 - 4 i) - a i (1 + i) - 2 d q i,
        f_delta  = -q i (a + 1 + 2 i) / 2,
        f_dd     = (q i)^2 (d q + a (1 + i/2) + 1/2 + 3 i/2 + 2 i^2),

    and as ``z e = u``, the z-weighted sums ``z f_z = q i P`` and ``z f_z +
    z^2 f_zz = q i S`` stay finite.  ``nu_terms`` = (Phi_nu, 2 Phi'_nu q, 2
    Phi'_nu, Phi_nunu) per point give the last coordinate nu, which enters
    through Phi at fixed z.  Every sum is one entry of a single matrix
    product: the weight rows ``u e i``, ``q i`` and 1 against the per-point
    columns.  The gradient and Hessian come as lists.  The Gaussian, whose
    ``Phi`` is a polynomial, has its own cheaper form
    (:func:`_gaussian_derivatives`).
    """
    inv = 1.0 / (1.0 + wv)
    inv2 = inv * inv
    qa = q * inv
    e = np.exp(-0.5 * wv)
    ue = u * e * inv
    dq = d * q
    p = c2 - delta * (1.0 + 2.0 * inv)
    s = 2.0 * inv2 * (p + 2.0 * delta * (1.0 - inv)) + 4.0 * d * inv
    x = inv2 * (1.0 - 4.0 * inv) - a * inv * (1.0 + inv) - 2.0 * dq * inv
    f_delta = -0.5 * qa * (a + 1.0 + 2.0 * inv)
    f_dd = qa * qa * (dq + a * (1.0 + 0.5 * inv) + 0.5 + inv * (1.5 + 2.0 * inv))
    phi_nu, r, t, phi_nunu = nu_terms
    cols = np.array([p, s, x, f_delta, f_dd, e * e * inv * (s - p), phi,
                     t, r, r * inv, phi_nu, phi_nunu])
    (ue_s, qa_s, one) = (np.array([ue, qa, np.ones(u.size)]) @ cols.T).tolist()
    grad = [-ue_s[0] / sigma, -qa_s[0], one[3], one[10]]
    hess = [[one[5] / (sigma * sigma), ue_s[1] / sigma, -ue_s[2] / sigma, -ue_s[7] / sigma],
            [0.0, qa_s[1], -qa_s[2], -one[9]],
            [0.0, 0.0, one[4], -0.5 * qa_s[8]],
            [0.0, 0.0, 0.0, one[11]]]
    for i in range(4):
        for j in range(i):
            hess[i][j] = hess[j][i]
    return one[6], grad, hess


def _check_model(mu, sigma, tails) -> None:
    """Raise :class:`DomainError` where ``TailParams(mu, sigma, tails)`` would."""
    if not (math.isfinite(mu) and 0.0 < sigma < math.inf
            and all(0.0 <= d < math.inf for d in tails)):
        raise DomainError(f"no valid model at mu={mu!r}, sigma={sigma!r}, tails={tails!r}")


def _gaussian_loglik_score(y: np.ndarray, theta):
    """Gaussian-input log-likelihood, its score and Hessian in the search coordinates.

    ``theta`` is the natural (mu, sigma, delta) or (mu, sigma, delta_left,
    delta_right), and the derivatives are in (mu, log sigma, tails); a
    point that is no valid model raises :class:`DomainError`.  W is
    evaluated once per point, in the same pass as the likelihood.  With ``W
    = W(delta z^2)`` and ``u^2 = z^2 exp(-W)`` each point contributes
    ``-u^2/2 - W/2 - log1p(W) - log sigma - log sqrt(2 pi)``, whose first
    derivatives are

        d/dz     = -z exp(-W) (1 + delta (1 + 2/(1 + W))) / (1 + W),
        d/ddelta = u^2 (u^2 - 1 - 2/(1 + W)) / (2 (1 + W)),

    the latter ``z^4/2 - 3 z^2/2`` at delta = 0 (:func:`grad_delta`); the
    second derivatives are those of :func:`_log_scale_derivatives` with
    ``Phi = -q/2``.  Location and log scale follow by the chain rule
    through ``z = (y - mu) / sigma``, and ``-log sigma`` adds ``-1`` per
    point to the log-scale score; with two tails each point's tail
    derivatives add to its own side.
    """
    mu, sigma, *tails = theta
    _check_model(mu, sigma, tails)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z = (y - mu) / sigma
        sides = None
        if len(tails) == 2:
            left = z <= 0.0
            sides = (left * 1.0, ~left * 1.0)
        wv, u = _w_and_w_delta(z, _tail_at(z, tuple(tails)) if sides else tails[0])
        total, grad, hess = _gaussian_derivatives(u, wv, tails, sides, sigma)
    total -= y.size * (math.log(sigma) + _LOG_SQRT_2PI)
    return total, grad, hess


def _student_t_loglik_score(y: np.ndarray, theta):
    """Student-t-input log-likelihood, its score and Hessian in the search coordinates.

    ``theta`` is the natural (mu, s, delta, nu) with ``s`` the t scale, and
    the derivatives are in (mu, log s, delta, r = log(1 - 2/nu)); a point
    that is no valid model (nu <= 2 too) raises :class:`DomainError`.  The
    total is :func:`loglik`'s to rounding (within 1e-13 relative), from one
    W per point and one pass over the points.  With
    ``sigma = s sqrt(nu / (nu - 2))``, ``z = (y - mu) / sigma`` and ``u =
    w_delta(z)``, the t variate ``t`` has ``t^2 / nu = u^2 / (nu - 2)``,
    and each point adds ``Phi = -(nu + 1)/2 log1p(u^2 / (nu - 2))``, ``-
    W/2 - log1p(W) - log s`` to the log-normalizer.  With ``q = u^2`` and ``rho = q / (nu -
    2 + q)``,

        2 Phi' q = -(nu + 1) rho,    Phi'' q = (nu + 1) rho / (2 (nu - 2 + q)),
        Phi_nu   = (nu + 1) rho / (2 (nu - 2)) - log1p(q / (nu - 2)) / 2,
        Phi'_nu  = (3 - q) / (2 (nu - 2 + q)^2),
        Phi_nunu = rho ((nu + 1) rho - 6) / (2 (nu - 2)^2),

    which :func:`_log_scale_derivatives` turns into derivatives in (mu, log
    sigma, delta, nu).  One chain rule takes them to the search
    coordinates, through ``log sigma = log s - r/2`` and ``nu = -2 /
    expm1(r)`` (:data:`_COORDINATES`), and the normalizer ``n
    (log-normalizer(nu) - log s)`` is added there.  The input density is
    summed from the same ``log1p(q / (nu - 2))`` as ``Phi_nu``, not from a
    second pass of ``logpdf`` over the back-transformed points; a point
    where ``q`` overflows makes it ``-inf``, which rejects the point.  The
    normalizer and its nu derivatives are the triple the input
    :class:`~heavytail.distributions.StudentT` stores (``_log_norm``).

    On log(nu - 2) the likelihood nears its Gaussian limit like ``A + B
    exp(-log(nu - 2))``, where every Newton step is one unit long; r runs
    to 0 at nu = inf, with a likelihood about linear in it near there.
    """
    mu, s, delta, nu = theta
    t = StudentT(nu=nu, mu=mu, scale=s)
    sigma = t.sd_x
    _check_model(mu, sigma, (delta,))
    n, nu2, nu1 = y.size, nu - 2.0, nu + 1.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z = (y - mu) / sigma
        wv, u = _w_and_w_delta(z, delta)
        q = u * u
        # log1p(t^2 / nu) of the t variate; inf where q overflows, which
        # rejects the point.
        log_term = np.log1p(q / nu2)
        inv_q = 1.0 / (nu2 + q)
        # rho is 0 at u = 0 and 1 where q overflows; omega = (3 - q) inv_q.
        rho = 1.0 / (1.0 + nu2 / q)
        omega = nu1 * inv_q - 1.0
        nu_terms = (nu1 * rho / (2.0 * nu2) - 0.5 * log_term, omega * rho,
                    omega * inv_q, rho * (nu1 * rho - 6.0) / (2.0 * nu2 * nu2))
        total, grad, hess = _log_scale_derivatives(
            u, q, wv, delta, sigma, -0.5 * nu1 * log_term - 0.5 * wv - np.log1p(wv),
            -nu1 * rho, -nu1 * inv_q, 0.5 * nu1 * rho * inv_q, nu_terms)
    # log sigma = log s - r / 2, so d log sigma / dr = -1/2 with no second
    # derivative, and nu moves by dnu per unit of r; the other coordinates
    # carry over.  So the r column of the Hessian is -H_1 / 2 + dnu H_3, and
    # its r entry the same combination of that column.
    dnu, d2nu = _COORDINATES["nu"].slopes(nu)
    r_of_nu_row = -0.5 * hess[3][1] + dnu * hess[3][3]
    for row in hess[:3]:
        row[3] = -0.5 * row[1] + dnu * row[3]
    # plus the curvature of the map nu(r)
    hess[3][3] = -0.5 * hess[1][3] + dnu * r_of_nu_row + d2nu * grad[3]
    for i in range(3):
        hess[3][i] = hess[i][3]
    grad[3] = -0.5 * grad[1] + dnu * grad[3]
    # the normalizer n (log-normalizer(nu) - log s)
    norm, norm_dnu, norm_d2nu = t._log_norm
    total += n * (norm - math.log(s))
    grad[1] -= n
    grad[3] += n * dnu * norm_dnu
    hess[3][3] += n * (d2nu * norm_dnu + dnu * dnu * norm_d2nu)
    return total, grad, hess


class _Model(NamedTuple):
    names: tuple[str, ...]
    build: Callable  # natural theta -> LambertWDist
    # (y, natural theta) -> loglik, its gradient and Hessian rows in the search coordinates
    score: Callable


# Joint-MLE models keyed by (family, tail).  Adding a model is one entry
# here (and a new parameter name one in _COORDINATES).
_MODELS = {
    ("gaussian", "h"): _Model(
        ("mu_x", "sigma_x", "delta"),
        lambda t: LambertWDist(Gaussian(t[0], t[1]), t[2]),
        _gaussian_loglik_score,
    ),
    ("gaussian", "hh"): _Model(
        ("mu_x", "sigma_x", "delta_left", "delta_right"),
        lambda t: LambertWDist(Gaussian(t[0], t[1]), (t[2], t[3])),
        _gaussian_loglik_score,
    ),
    ("student-t", "h"): _Model(
        ("mu_x", "sigma_x", "delta", "nu"),
        lambda t: LambertWDist(StudentT(nu=t[3], mu=t[0], scale=t[1]), t[2]),
        _student_t_loglik_score,
    ),
}


def _objective(p: list[float], y: np.ndarray, model: _Model):
    """-loglik, its gradient and Hessian at search coordinates ``p``.

    ``model.score`` gives them in these coordinates, as a float and lists,
    so this only negates them; the fourth item is the log-likelihood's own
    (gradient, Hessian).  A point that is no valid model, such as nu == 2.0
    where ``expm1`` rounds to -1 or r >= 0 beyond nu = inf, gives +inf.  A
    likelihood or derivatives that are not finite (a scale whose square
    underflows) are rejected by :func:`_box_newton`.
    """
    try:
        total, score, hess = model.score(y, _to_theta(model.names, p))
    except (DomainError, ArithmeticError):
        return math.inf, None, None, None
    return -total, [-g for g in score], [[-v for v in row] for row in hess], (score, hess)


def _score_search(y, model: _Model, starts, default, family: str):
    """The damped Newton search (:func:`_box_newton`) of ``model`` from each start.

    A start of ``None`` is ``default`` (:func:`_default_start`), which also
    replaces a first start that gives no valid model; a default start that
    does not exist, and a start that gives no valid model, are skipped.  Each search
    stops when the Newton decrement is at most ``1e-12 n``.  A search is
    retired, and cannot win, once its next Newton step would enter the
    converged neighbourhood of an end that an earlier search reached
    converged: the Newton point has every coordinate within 1e-3 of that
    end's (mu in units of its sigma), and the value the quadratic model
    predicts there is within 1e-7 n of the end's.  Both bounds sit between
    one end reached from several starts (up to 2.9e-4 apart, values within
    4e-13 n) and two distinct ends (at least 0.018 apart, values 6.1e-7 n
    apart), over the Student-t fits of Gaussian and t_5 series at n = 60 to
    1000.  The run that ends lowest wins.  Returns it and the likelihood
    passes summed over the runs; :class:`ConvergenceError` when no start
    gives a valid model.
    """
    def objective(p):
        return _objective(p, y, model)

    lo, hi = _search_bounds(model.names)
    tol = _DECREMENT_TOL * y.size
    ends = []

    def found(p, value) -> bool:
        return any(abs(value - end.value) <= _RETIRE_VALUE * y.size
                   and abs(p[0] - end.x[0]) <= _RETIRE_STEP * math.exp(end.x[1])
                   and all(abs(a - b) <= _RETIRE_STEP for a, b in zip(p[1:], end.x[1:]))
                   for end in ends)

    def search(start):
        if start is None:
            return None
        p0 = _to_search(model.names, [start[n] for n in model.names])
        return _box_newton(objective, p0, lo, hi, tol, stop=found)

    best, passes = None, 0
    for k, start in enumerate(starts):
        run = search(default if start is None else start)
        if k == 0 and start is not None and (run is None or not math.isfinite(run.value)):
            run = search(default)
        if run is None or not math.isfinite(run.value):
            continue
        passes += run.passes
        if run.retired:
            continue
        if run.converged:
            ends.append(run)
        if best is None or run.value < best.value:
            best = run
    if best is None:
        raise ConvergenceError(
            "the likelihood search left the parameter space on this data: "
            f"no start point gives a valid {family} model")
    return best, passes


def _theta_derivatives(names, theta, grad, hess):
    """The log-likelihood's gradient and Hessian in natural ``theta``, as arrays.

    ``grad`` and ``hess`` are the score's list and rows in the search
    coordinates.  With ``J = dtheta/dp`` and ``K = d^2 theta/dp^2`` per
    coordinate (:data:`_COORDINATES`), ``g_p = J g_theta`` and ``H_p =
    H_theta J J' + diag(K g_theta)``.
    """
    jac, curv = np.array([_COORDINATES[n].slopes(t) for n, t in zip(names, theta)]).T
    # sigma^2 overflows at a far scale: that Hessian is not finite.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        g = grad / jac
        return g, (hess - np.diag(curv * g)) / np.outer(jac, jac)


def _std_errors(hess: np.ndarray, free: list[bool]) -> list[float]:
    """Standard errors from the log-likelihood Hessian in natural theta.

    Coordinates not in ``free`` (a tail estimate at 0, a nu on its cap) are
    held fixed and get NaN.  The observed information of the others is
    scaled to a unit diagonal (Jacobi) and pseudo-inverted with a
    condition-number guard (eigenvalues below 1e-10 of the largest in
    magnitude are dropped), so a parameter on a very different scale, such
    as a large nu, keeps its variance; a nonpositive variance, or an
    information that is not finite (its sigma^2 overflowed), gives NaN.
    """
    out = [math.nan] * len(hess)
    live = [k for k, f in enumerate(free) if f]
    info = -hess[live][:, live]
    diag = info.diagonal()
    if live and np.isfinite(info).all() and (diag > 0.0).all():
        root = np.sqrt(diag)
        # The pseudo-inverse's diagonal from one eigh: sum_k U_ik^2 / lam_k
        # over the eigenvalues above 1e-10 of the largest in magnitude, as
        # np.linalg.pinv(..., rcond=1e-10, hermitian=True) keeps them.
        lam, vec = np.linalg.eigh(info / (root[:, None] * root))
        size = np.abs(lam)
        keep = size > 1e-10 * size.max()
        var = (vec * vec) @ np.divide(1.0, lam, out=np.zeros_like(lam), where=keep) / diag
        for k, v in zip(live, var.tolist()):
            out[k] = math.sqrt(v) if v > 0 else math.nan
    return out


def mle_joint(
    data,
    family: str = "gaussian",
    tail: str = "h",
    start: dict[str, float] | None = None,
) -> FitResult:
    """Joint maximum likelihood over location, scale and tail parameters.

    The search runs on ``x = (y - m) / s`` (:func:`_standardized`); mu,
    sigma, their standard errors and a given ``start`` are mapped between
    the units of y and x, so ``fit(a y + b) = a fit(y) + b``, and the
    likelihood is that of y.  Every model has a closed-form score and Hessian, from one W pass per
    point.  The log-likelihood is maximized by projected Newton steps with
    Levenberg-Marquardt damping (:func:`_box_newton`) on (mu, log sigma,
    delta[, delta_r][, r = log(1 - 2/nu)]) in the box delta >= 0, which
    reaches delta = 0 exactly, and nu <= 2 + 1e6; a coordinate on a bound
    that the gradient pushes outwards is held there.  Near nu = 2, r is
    log(nu - 2) - log 2, and towards nu = inf the likelihood is about
    linear in r, so a start far from the cap reaches it in a step or two.
    The search stops when the Newton decrement of the free coordinates
    (twice the predicted gain of a full Newton step) is at most ``1e-12
    n`` for n observations, and ``converged`` says that it did; a search
    that runs out of steps (100) or of progress above rounding, or ends at
    a scale below 1e-8 s (collapsed onto tied points), is not converged.
    ``iterations`` counts the Newton steps tried, one likelihood pass
    (score and Hessian) each, besides the pass at each start.

    ``params`` is the searched theta keyed by the model's names: (mu_x,
    sigma_x, delta), (mu_x, sigma_x, delta_left, delta_right) or, for
    Student-t input, (mu_x, sigma_x, delta, nu) with ``sigma_x`` the t
    scale; ``tau`` is the fitted model's, whose ``sigma_x`` is the input sd.
    The standard errors, keyed the same way, come from the exact Hessian at
    the end of the search, scaled by its diagonal and pseudo-inverted with
    a condition-number guard; a tail estimate at 0 or a nu on its cap is
    held fixed and gets a NaN standard error.

    Without ``start``, Gaussian input starts from Tukey's letter values
    (:func:`_letter_value_start`; Hoaglin 1985), or where ties leave a
    half-spread at 0 from the moment start: the median, the interquartile
    scale and the tail from the sample kurtosis (:func:`_moment_start`).

    Student-t input has more than one local maximum in nu (a heavy t with
    a small tail against the Gaussian limit), so it is searched from the
    moment start (or ``start``), and from the Gaussian ``tail="h"`` optimum
    at nu = 3, 10 and 1e6, in that order, and the best end is kept; a
    moment start whose kurtosis is not finite is skipped.  A later search
    is retired once its next Newton step would come within 1e-3 per search
    coordinate (mu in units of sigma) and 1e-7 n in predicted
    log-likelihood of an end that an earlier search reached converged: it
    would end there too (:func:`_score_search`).  Its ``iterations`` sum
    over these searches and the Gaussian one.

    A start point that gives no valid model is replaced by the default
    start; :class:`ConvergenceError` is raised when no start gives a valid
    model.
    """
    y = _check_series(data, min_n=10)
    x, m, s, q = _standardized(y)
    model = _MODELS.get((family, tail))
    if model is None:
        raise DomainError(f"unsupported joint MLE model: family={family!r}, tail={tail!r}")

    if start is not None:
        start = {**start, "mu_x": (start["mu_x"] - m) / s, "sigma_x": start["sigma_x"] / s}
    starts, passes = [start], 0
    if "nu" in model.names:
        # Also start at the Gaussian-h optimum's location, tail and input
        # sd, at nu = 3, 10 and on the cap, where a likelihood that still
        # rises in nu holds r on its bound from the first step.
        try:
            gauss_h = _MODELS[("gaussian", "h")]
            gauss, passes = _score_search(x, gauss_h, [None], _default_start(x, q, gauss_h.names),
                                          "gaussian")
        except ConvergenceError:
            pass  # the moment start reports the failure
        else:
            mu, sd, delta = _to_theta(("mu_x", "sigma_x", "delta"), gauss.x)
            starts += [
                {"mu_x": mu, "sigma_x": sd * math.sqrt((nu - 2.0) / nu),
                 "delta": delta, "nu": nu}
                for nu in (3.0, 10.0, _NU_CAP + 2.0)
            ]
    best, searched = _score_search(x, model, starts, _default_start(x, q, model.names), family)
    theta = _to_theta(model.names, best.x)
    lo, hi = _search_bounds(model.names)
    hess = _theta_derivatives(model.names, theta, *best.payload)[1]
    se = _std_errors(hess, [a < p < b for a, p, b in zip(lo, best.x, hi)])
    converged = best.converged and theta[1] >= _COLLAPSED_SCALE
    theta[:2] = m + s * theta[0], s * theta[1]
    se[:2] = s * se[0], s * se[1]
    return _fit_result(y, model.build(theta), f"mle_{family}_{tail}", dict(zip(model.names, theta)),
                       passes + searched, converged, dict(zip(model.names, se)))


def fit_model(data, family: str, tail: str, method: str) -> FitResult:
    """Fit by method name, ``"igmm"`` (Gaussian input only) or ``"mle"``, and
    tail, ``"h"`` or ``"hh"``; any other choice raises :class:`DomainError`.
    """
    if tail not in ("h", "hh"):
        raise DomainError(f"tail must be 'h' or 'hh', got {tail!r}")
    if method == "mle":
        return mle_joint(data, family=family, tail=tail)
    if method != "igmm":
        raise DomainError(f"method must be 'igmm' or 'mle', got {method!r}")
    if family != "gaussian":
        raise DomainError("igmm supports the gaussian input family only")
    return igmm(data) if tail == "h" else igmm_double_tail(data)
