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
  2/nu).  Gaussian input starts from Tukey's letter-value estimate of
  (mu, sigma, delta).  The score and Hessian are formed in the coordinates
  the search steps in; standard errors come from the Hessian at the end of
  the search, taken to natural theta once.
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

Every search is in the package: no path imports ``scipy.optimize``.
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
    variance_factor,
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
    sides = (True,) if sides is None else sides
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
    du = cols[:-1]
    mean_du, dm2 = sums[0, :-1], 2.0 * sums[1, :-1]
    dm3 = 3.0 * (sums[2, :-1] - m2 * mean_du)
    dm4 = 4.0 * (sums[3, :-1] - m3 * mean_du)
    var = m2 * (n / (n - 1.0))
    # The ratios m3 / m2 and m4 / m2 come first: m4 * dm2 overflows on
    # heavy data whose moments are finite.
    jac = np.array([mean_du, dm2 * (var / m2), (dm3 - 1.5 * (m3 / m2) * dm2) / m2**1.5,
                    (dm4 - 2.0 * (m4 / m2) * dm2) / (m2 * m2)])
    r = np.array([mean, var - 1.0, m3 / m2**1.5, m4 / (m2 * m2) - 3.0])

    def curvature(w3: float, w4: float) -> np.ndarray:
        # phi = w3 m3 / m2^1.5 + w4 m4 / m2^2, the weights held fixed; the
        # result is d^2 phi / (ddelta_k dtheta) = sum_j f_j d^2 m_j +
        # sum_jl f_jl dm_j dm_l, with f_j =
        # dphi / dm_j, f_jl = d^2 phi / (dm_j dm_l) (f_33 = f_34 = f_44 = 0)
        # and d^2 m_j = j (j - 1) mean(c^(j-2) v_k v) + j mean(c^(j-1) w_k),
        # where v = du - mean(du) and w_k is the centred second derivative
        # of u.  psi and chi gather the powers of c.  The rows of du hold
        # -du, which a product of two of them does not see.
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
        out = np.empty((len(sides), du.shape[0]))
        for k, side in enumerate(sides):
            a = k + 2
            out[k] = ((psi * du[a]) @ du.T / n - mean_du[a] * psi_du - mean_du * psi_du[a]
                      + mean_du[a] * mean_psi * mean_du + f22 * dm2[a] * dm2
                      + f23 * (dm2[a] * dm3 + dm3[a] * dm2) + f24 * (dm2[a] * dm4 + dm4[a] * dm2))
            chi_u, mean_u = np.array([chi, powers[0]]) @ (second * side).T / n
            out[k, [0, 1, a]] += chi_u - mean_chi * mean_u
        return out

    return r, -jac, curvature


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
    return _delta_slope(delta, _check_series(z_data, min_n=1))[0]


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
    sigma, delta) = (0, 1, delta), summed from the same per-point terms
    (:func:`_tail_terms` with ``Phi = -q/2``).
    """
    wv, u = _w_and_w_delta(z, delta)
    q = u * u
    with np.errstate(over="ignore", invalid="ignore"):
        f_delta, f_dd = _tail_terms(q, 1.0 / (1.0 + wv), -q, 0.0)
    return float(f_delta.sum()), float(f_dd.sum())


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


class _Search(NamedTuple):
    x: list[float]
    value: float
    payload: object  # what the objective returned with the value at x
    passes: int  # objective evaluations besides the one at the start
    converged: bool


def _box_newton(evaluate, x: list[float], lo, hi, tol: float,
                max_steps: int = _STEP_MAX_ITERATIONS, pull=None) -> _Search:
    """Minimize ``f`` over the box ``lo <= x <= hi`` by damped Newton steps.

    ``evaluate(x)`` returns ``f(x)``, its gradient, its Hessian (or a
    Gauss-Newton approximation of it) and a payload; ``f = inf`` marks a
    point that is rejected.  A coordinate within 1e-12 of a bound whose
    descent direction points out of the box is held exactly on that bound;
    the direction is that of the gradient, or of ``-pull(payload)`` when
    ``pull`` is given.
    The free coordinates take the step ``s`` of ``(H + lam D) s = -g``, with
    ``D`` the absolute diagonal of ``H`` (Marquardt), projected onto the
    box; ``lam`` grows until ``H + lam D`` is positive definite.  A step
    that lowers ``f`` is taken and lowers ``lam`` by Nielsen's rule from the
    ratio of the actual to the predicted fall, one that does not raises it,
    so far from a minimum the step shortens towards scaled steepest
    descent.  A trial point rejected from this point (a step clipped to the
    box by every ``lam`` so far) is not evaluated again.

    It stops, converged, when no coordinate is free or the Newton decrement
    ``g' H^-1 g`` of the free ones is at most ``tol``, and
    unconverged when no coordinate moves by more than ``1e-13 + 8.9e-16
    |x|`` (where repeated failures to lower ``f`` end too) or after
    ``max_steps`` steps.  A coordinate held on a bound after the last
    evaluation is evaluated there once more, so the returned payload is
    that of ``x``.
    """
    value, grad, hess, payload = evaluate(x)
    if not math.isfinite(value):
        return _Search(x, value, payload, 0, False)
    grad, hess = grad.tolist(), hess.tolist()
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
        step = _backward(low, _forward(low, [-gi for gi in g]))
        trial = list(x)
        for k, sk in zip(free, step):
            trial[k] = min(max(x[k] + sk, lo[k]), hi[k])
        if all(abs(t - xk) <= _STEP_XTOL + _STEP_RTOL * abs(xk) for t, xk in zip(trial, x)):
            break
        accepted = False
        if trial != rejected:
            passes += 1
            out = evaluate(trial)
            move = [trial[k] - x[k] for k in free]
            predicted = -(_dot(g, move) + 0.5 * _dot(move, [_dot(row, move) for row in h]))
            accepted = out[0] < value and predicted > 0.0
        if accepted:
            gain = (value - out[0]) / predicted
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            grow = 2.0
            x = at = trial
            value, grad, hess, payload = out
            grad, hess = grad.tolist(), hess.tolist()
            rejected = None
        else:
            lam *= grow
            grow *= 2.0
            rejected = trial
    if x != at:
        passes += 1
        value, _, _, payload = evaluate(x)
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
        r, jac, curvature = _moment_residual(
            z, d[0] if sides is None else _tail_at(z, tuple(d)), sides)
        r, jac = r[rows], jac[rows, 2:]
        hess = jac.T @ jac
        if r @ r > 1e-6:
            # Gauss-Newton converges slowly on a least-squares match that
            # keeps a residual; its exact Hessian adds r times the curvature.
            c = curvature(*((r[0], r[1]) if sides is not None else (0.0, r[0])))[:, 2:]
            hess += 0.5 * (c + c.T)
        return 0.5 * float(r @ r), jac.T @ r, hess, None

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
    keeps its own slope rising.  mu moves in units of the start scale and
    sigma relative to it, so the steps and the stop are unit-free.

    It starts from Tukey's letter values (:func:`_default_start`, as
    :func:`mle_joint` does), and stops, converged, when the Gauss-Newton
    decrement ``|rows|^2`` is at most 1e-24.  A search that stops short of
    that, stalled or after 40 steps, is at or crawling along a minimum of
    ``|rows|^2`` that is no fixed point (5 of 3000 random two-tail fits of
    30 or 60 points); 2^k classic updates after the k-th such stop move it
    off, and the search restarts.  All of it shares a budget of 200 W
    passes, after which the fit is unconverged.  ``iterations`` counts
    those passes besides the one at the start.
    """
    y = _check_series(data, min_n=10)
    # A point near the float maximum overflows the start moments.
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(y, ddof=1))
    if sd == 0.0:
        raise DataError("degenerate data: zero variance")
    if not math.isfinite(sd):
        raise DataError(
            f"the sample scale of the data is not finite (sd = {sd}); rescale the data"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        g2 = _central_moment_stats(y)[1]
    if not math.isfinite(g2):
        raise DataError(
            "the sample kurtosis of the data is not finite (its fourth moment "
            "is out of floating-point range); rescale the data"
        )
    names = ("mu_x", "sigma_x") + (("delta_left", "delta_right") if double_tail else ("delta",))
    start = _default_start(y, names)
    mu0, s0 = start["mu_x"], start["sigma_x"]
    lo, hi = _DELTA_BOUNDS
    moments = slice(2, 4) if double_tail else slice(3, 4)

    def pair(v) -> tuple[float, float]:
        """The weights of a moment-rows vector on (skewness, kurtosis)."""
        return (float(v[0]), float(v[1])) if double_tail else (0.0, float(v[0]))

    def evaluate(p: list[float]):
        try:
            mu, sigma = mu0 + s0 * p[0], s0 * math.exp(p[1])
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                z = (y - mu) / sigma
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
                # Beside a held tail the moment rows keep a residual, so the
                # row's Jacobian is not J_k' J / |J_k|: it adds the slope's
                # second-order part and the change of |J_k|.
                with np.errstate(over="ignore", invalid="ignore"):
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
        with np.errstate(over="ignore", invalid="ignore"):
            value, hess = 0.5 * float(f @ f), g.T @ g
        if not (math.isfinite(value) and np.isfinite(hess).all()):
            return math.inf, None, None, None
        return value, g.T @ f, hess, slopes

    def classic_update(p: list[float]) -> tuple[list[float], int]:
        """One classic update from ``p``, and its W passes."""
        mu, sigma = mu0 + s0 * p[0], s0 * math.exp(p[1])
        z = (y - mu) / sigma
        match = _gmm_step(z, p[2:], _IGMM_MAX_ITERATIONS - passes, 1e-16)
        u = _w_and_w_delta(z, _tail_at(z, tuple(match.x)) if double_tail else match.x[0])[1]
        return [p[0] + sigma / s0 * float(np.mean(u)),
                p[1] + math.log(np.std(u, ddof=1))] + match.x, match.passes + 2

    tails = len(names) - 2
    box = [-math.inf] * 2 + [lo] * tails, [math.inf] * 2 + [hi] * tails
    x, passes, stalls = [0.0, 0.0] + [min(start[name], hi) for name in names[2:]], 0, 0
    while True:
        steps = min(_IGMM_MAX_ITERATIONS - passes, _IGMM_SEARCH_STEPS)
        end = _box_newton(evaluate, x, *box, _IGMM_DECREMENT_TOL, steps,
                          pull=lambda slopes: slopes)
        passes += end.passes
        if end.converged or not math.isfinite(end.value):
            break
        # A search that stops short of the decrement, stalled or out of
        # steps, is at or crawling along a minimum of |rows|^2 that is no
        # fixed point.  Classic updates move it off, 2^k of them after the
        # k-th stop, and the search restarts.
        x = end.x
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(2**stalls):
                    if passes >= _IGMM_MAX_ITERATIONS:
                        break
                    x, used = classic_update(x)
                    passes += used
        except (DataError, ArithmeticError, ValueError):
            break
        if passes >= _IGMM_MAX_ITERATIONS:
            break
        passes += 1
        stalls += 1
    mu, sigma = mu0 + s0 * end.x[0], s0 * math.exp(end.x[1])
    delta = tuple(end.x[2:]) if double_tail else end.x[2]
    return _fit_result(
        y, LambertWDist(Gaussian(mu, sigma), delta), "igmm",
        {"mu_x": mu, "sigma_x": sigma, **dict(zip(names[2:], end.x[2:]))}, passes,
        end.converged, at_upper=max(end.x[2:]) >= hi,
    )


def igmm(data) -> FitResult:
    """Iterative generalized method of moments for (mu_x, sigma_x, delta).

    The estimate is the fixed point of the classic IGMM update: standardize
    with the current location and scale, match the kurtosis of the
    back-transformed sample to 3 as :func:`delta_gmm` does, and refresh
    location and scale from the back-transformed data (mean and unbiased
    standard deviation).  That point is where the back-transformed sample
    has mean 0, sd 1 and kurtosis 3, or, when no tail in [0, 10] matches the
    kurtosis, the tail is on the bound nearest to a match.  It is solved
    for directly, by damped Gauss-Newton steps on (mu, log sigma, delta)
    with one W pass each (:func:`_igmm`), so the end depends on neither
    the start nor the data's units.  The search stops, converged, when the
    Gauss-Newton decrement of the unit-free rows (mean, variance - 1,
    kurtosis - 3) is at most 1e-24; ``iterations`` counts its W passes.  A
    tail estimate at 0 is flagged ``delta_lower``, one at the upper bound
    10 ``delta_upper``.
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
# coordinates is at most _DECREMENT_TOL n, for n observations.
_DECREMENT_TOL = 1e-12


def _to_search(names, theta) -> list[float]:
    """Natural theta to the search coordinates: log sigma, r = log(1 - 2/nu)."""
    return [math.log(v) if n == "sigma_x" else math.log1p(-2.0 / v) if n == "nu" else float(v)
            for n, v in zip(names, theta)]


def _to_theta(names, p) -> list[float]:
    return [math.exp(v) if n == "sigma_x" else -2.0 / math.expm1(v) if n == "nu" else float(v)
            for n, v in zip(names, p)]


def _search_slopes(name: str, theta: float) -> tuple[float, float]:
    """``dtheta/dp`` and ``d^2 theta/dp^2`` of one coordinate's search map.

    ``sigma = exp(p)`` gives ``(sigma, sigma)``; ``nu = -2 / expm1(r)`` gives
    ``nu (nu - 2) / 2`` and ``(nu - 1)`` times that.
    """
    if name == "sigma_x":
        return theta, theta
    if name == "nu":
        slope = 0.5 * theta * (theta - 2.0)
        return slope, (theta - 1.0) * slope
    return 1.0, 0.0


def _search_bounds(names) -> tuple[list[float], list[float]]:
    """The lower and upper ends of the search box, per coordinate.

    The tails are at least 0, and r at most the r of nu = 2 + _NU_CAP.
    """
    lo = [0.0 if n.startswith("delta") else -math.inf for n in names]
    hi = [math.log1p(-2.0 / (_NU_CAP + 2.0)) if n == "nu" else math.inf for n in names]
    return lo, hi


# Tukey's letter values p_k = 1 - 2^-k, k = 2..6, as standard normal
# quantiles z_k = ndtri(p_k) to the last bit: constants, so that a
# Gaussian-input start loads no scipy.
_LETTER_Z = (0.6744897501960817, 1.1503493803760079, 1.5341205443525463,
             1.8627318674216515, 2.1538746940614564)
# The percentiles 1 - p_6 .. 1 - p_2, the median and p_2 .. p_6.
_LETTER_PERCENTILES = [100.0 * 2.0**-k for k in range(6, 1, -1)] + [50.0] + [
    100.0 * (1.0 - 2.0**-k) for k in range(2, 7)]


def _line_fit(x) -> np.ndarray:
    """The matrix taking values at the abscissae ``x`` to the least-squares
    line's (intercept, slope), in closed form: no LAPACK call at import.
    """
    mean = sum(x) / len(x)
    sxx = sum((v - mean) ** 2 for v in x)
    slope = [(v - mean) / sxx for v in x]
    return np.array([[1.0 / len(x) - mean * w for w in slope], slope])


_LETTER_FIT = _line_fit([0.5 * z * z for z in _LETTER_Z])


def _letter_value_start(y: np.ndarray, names) -> dict[str, float] | None:
    """Tukey's letter-value estimate of (mu, sigma, tails) for Gaussian input.

    Hoaglin (1985), "Summarizing shape numerically: the g-and-h
    distributions": the h transform of a Gaussian has the half-spreads
    ``HS_k = sigma z_k exp(delta z_k^2 / 2)`` about its median, so the line
    through ``log(HS_k / z_k)`` against ``z_k^2 / 2`` has slope delta and
    intercept log sigma.  One tail fits the mean of the lower and upper
    half-spreads, two tails fit each side on its own, and sigma is the exp
    of the mean intercept; mu is the median, and a tail is at least 1e-3.
    None when a half-spread is not positive (ties) or a value not finite.
    """
    q = np.percentile(y, _LETTER_PERCENTILES)
    med = float(q[5])
    tails = [n for n in names if n.startswith("delta")]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lower, upper = med - q[4::-1], q[6:] - med
        spreads = [0.5 * (lower + upper)] if len(tails) == 1 else [lower, upper]
        intercept, slope = _LETTER_FIT @ np.log(np.array(spreads) / _LETTER_Z).T
        sigma = float(np.exp(np.mean(intercept)))
    if not (np.all(lower > 0.0) and np.all(upper > 0.0) and np.all(np.isfinite(slope))
            and 0.0 < sigma < math.inf):
        return None
    return {"mu_x": med, "sigma_x": sigma,
            **{n: max(float(d), 1e-3) for n, d in zip(tails, slope)}}


def _moment_start(y: np.ndarray, names, g2: float) -> dict[str, float]:
    """The start from the sample kurtosis ``g2``: median, IQR scale, Taylor tail.

    The tail is :func:`taylor_delta` of ``g2``, at least 1e-3.  With nu in
    ``names`` the observed tail weight is split: nu from the kurtosis of a
    t, within [2.5, 100], and half the tail.  The scale is the
    interquartile range over that of the input, or the sample sd over
    :func:`~heavytail.distributions.variance_factor` when the IQR is 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(y, ddof=1))
    delta0 = max(taylor_delta(g2), 1e-3)
    vf = variance_factor(min(delta0, 0.499)) or 1.0
    sigma0 = max(sd / vf, 1e-12)
    start = {"mu_x": float(np.median(y))}
    start.update({name: delta0 for name in names if name.startswith("delta")})
    q75 = _LETTER_Z[0]  # the standard normal's upper quartile
    if "nu" in names:
        nu0 = (4.0 * g2 - 6.0) / (g2 - 3.0) if g2 > 3.5 else 30.0
        start["nu"] = float(min(max(nu0, 2.5), 100.0))
        start["delta"] = max(delta0 / 2.0, 1e-3)
        q75 = float(StudentT(start["nu"]).quantile(0.75))
        sigma0 /= math.sqrt(start["nu"] / (start["nu"] - 2.0))
    # The scale from the interquartile range: heavy tails inflate the sd
    # (to 2.4e12 on a t_5 series of 1000 points with delta = 1), a search
    # from such a start has far to go, and it can run off to a scale near
    # 0, where the Student-t likelihood of such data has no upper bound.
    q1, q3 = np.percentile(y, [25.0, 75.0])
    start["sigma_x"] = float(q3 - q1) / (2.0 * q75) or sigma0
    return start


def _default_start(y: np.ndarray, names) -> dict[str, float] | None:
    """The start of a likelihood search that is given none, and of IGMM.

    Gaussian input starts from the letter values
    (:func:`_letter_value_start`), or from the moment start on the sample
    kurtosis where ties leave a half-spread at 0.  Student-t input starts
    from the moment start on the kurtosis of ``(y - median) / IQR``, which
    stays finite where the fourth moment of ``y`` itself overflows or
    underflows; None when it is not finite either.
    """
    if "nu" not in names:
        start = _letter_value_start(y, names)
        if start is None:
            with np.errstate(over="ignore", invalid="ignore"):
                start = _moment_start(y, names, _central_moment_stats(y)[1])
        return start
    q1, med, q3 = np.percentile(y, [25.0, 50.0, 75.0])
    with np.errstate(over="ignore", invalid="ignore"):
        x = (y - med) / (q3 - q1) if 0.0 < q3 - q1 < math.inf else y
        g2 = _central_moment_stats(x)[1]
    return _moment_start(y, names, g2) if math.isfinite(g2) else None


def _tail_terms(q, inv, a, d):
    """Per-point ``f_delta`` and ``f_dd`` of :func:`_log_scale_derivatives`."""
    qa = q * inv
    f_delta = -0.5 * qa * (a + 1.0 + 2.0 * inv)
    f_dd = qa * qa * (d * q + a * (1.0 + 0.5 * inv) + 0.5 + inv * (1.5 + 2.0 * inv))
    return f_delta, f_dd


def _log_scale_derivatives(u, wv, delta, sides, sigma, a, c2, d, nu_terms=None):
    """Gradient and Hessian of ``sum_i f(z_i)`` in (mu, log sigma, tails[, nu]).

    Each point contributes ``f = Phi(q) - W/2 - log1p(W)`` with ``q = u^2``,
    ``u = w_delta(z)`` and ``W = W(delta z^2)``; ``a = 2 Phi'(q) q``, ``c2 =
    2 Phi'(q)`` and ``d = Phi''(q) q`` are given per point (the Gaussian
    has ``Phi = -q/2``).  With ``i = 1 / (1 + W)`` and ``e = exp(-W/2)``,
    from ``dq/dz = 2 u e i``, ``dq/ddelta = -q^2 i``, ``dW/dz = delta
    dq/dz``, ``dW/ddelta = q i`` and ``W i = 1 - i``:

        f_z      = u e i P,         P = c2 - delta (1 + 2 i),
        f_zz     = e^2 i (S - P),   S = 2 i^2 (P + 2 delta (1 - i)) + 4 d i,
        f_zdelta = u e i X,         X = i^2 (1 - 4 i) - a i (1 + i) - 2 d q i,
        f_delta  = -q i (a + 1 + 2 i) / 2,
        f_dd     = (q i)^2 (d q + a (1 + i/2) + 1/2 + 3 i/2 + 2 i^2),

    and as ``z e = u``, the z-weighted sums ``z f_z = q i P`` and ``z f_z +
    z^2 f_zz = q i S`` stay finite.  ``sides`` is None for one tail, or one
    0/1 weight array per tail.  ``nu_terms`` = (Phi_nu, 2 Phi'_nu q, 2
    Phi'_nu, Phi_nunu) per point adds a last coordinate nu that enters
    through Phi at fixed z.  Without nu these are the search coordinates.
    """
    inv = 1.0 / (1.0 + wv)
    inv2 = inv * inv
    q = u * u
    qa = q * inv
    e = np.exp(-0.5 * wv)
    ue = u * e * inv
    p = c2 - delta * (1.0 + 2.0 * inv)
    s = 2.0 * inv2 * (p + 2.0 * delta * (1.0 - inv)) + 4.0 * d * inv
    x = inv2 * (1.0 - 4.0 * inv) - a * inv * (1.0 + inv) - 2.0 * d * q * inv
    f_delta, f_dd = _tail_terms(q, inv, a, d)
    tails = 1 if sides is None else len(sides)
    k = 2 + tails + (nu_terms is not None)
    grad, hess = np.empty(k), np.zeros((k, k))
    grad[0] = -(ue @ p) / sigma
    grad[1] = -(qa @ p)
    hess[0, 0] = (e * e * inv) @ (s - p) / (sigma * sigma)
    hess[0, 1] = (ue @ s) / sigma
    hess[1, 1] = qa @ s
    if sides is None:
        grad[2] = f_delta.sum()
        hess[0, 2] = -(ue @ x) / sigma
        hess[1, 2] = -(qa @ x)
        hess[2, 2] = f_dd.sum()
    else:
        uex, qax = ue * x, qa * x
        for j, side in enumerate(sides, start=2):
            grad[j] = f_delta @ side
            hess[0, j] = -(uex @ side) / sigma
            hess[1, j] = -(qax @ side)
            hess[j, j] = f_dd @ side
    if nu_terms is not None:
        phi_nu, r, t, phi_nunu = nu_terms
        grad[-1] = phi_nu.sum()
        hess[0, -1] = -(t @ ue) / sigma
        hess[1, -1] = -(r @ inv)
        hess[2, -1] = -0.5 * (r @ qa)
        hess[-1, -1] = phi_nunu.sum()
    hess += hess.T
    hess.flat[:: k + 1] *= 0.5
    return grad, hess


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
    tau = TailParams(theta[0], theta[1], theta[2] if len(theta) == 3 else tuple(theta[2:]))
    sigma = tau.sigma_x
    z = (y - tau.mu_x) / sigma
    delta = _tail_at(z, tau.delta)
    wv, u = _w_and_w_delta(z, delta)
    left = z <= 0.0
    sides = (left * 1.0, ~left * 1.0) if tau.is_double else None
    with np.errstate(over="ignore", invalid="ignore"):
        q = u * u
        total = float(np.sum(-0.5 * q - 0.5 * wv - np.log1p(wv)))
        total -= y.size * (math.log(sigma) + _LOG_SQRT_2PI)
        grad, hess = _log_scale_derivatives(u, wv, delta, sides, sigma, -q, -1.0, 0.0)
    grad[1] -= y.size
    return total, grad, hess


def _student_t_loglik_score(y: np.ndarray, theta):
    """Student-t-input log-likelihood, its score and Hessian in the search coordinates.

    ``theta`` is the natural (mu, s, delta, nu) with ``s`` the t scale, and
    the derivatives are in (mu, log s, delta, r = log(1 - 2/nu)); a point
    that is no valid model (nu <= 2 too) raises :class:`DomainError`.  The
    total is :func:`loglik`'s bit for bit, from one W per point.  With
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
    expm1(r)`` (:func:`_search_slopes`), and the normalizer ``n
    (log-normalizer(nu) - log s)`` is added there.  The normalizer's nu
    derivatives are the ones the input
    :class:`~heavytail.distributions.StudentT` stores with its
    log-normalizer when the likelihood's ``logpdf`` reads it.

    On log(nu - 2) the likelihood nears its Gaussian limit like ``A + B
    exp(-log(nu - 2))``, where every Newton step is one unit long; r runs
    to 0 at nu = inf, with a likelihood about linear in it near there.
    """
    mu, s, delta, nu = theta
    dist = LambertWDist(StudentT(nu=nu, mu=mu, scale=s), delta)
    sigma = dist.tau.sigma_x
    z = (y - dist.tau.mu_x) / sigma
    wv, u = _w_and_w_delta(z, delta)
    n, nu2, nu1 = y.size, nu - 2.0, nu + 1.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        input_part = float(np.sum(dist.input.logpdf(u * sigma + dist.tau.mu_x)))
        penalty_part = float(np.sum(-0.5 * wv - np.log1p(wv)))
        q = u * u
        inv_q = 1.0 / (nu2 + q)
        # rho is 0 at u = 0 and 1 where q overflows; omega = (3 - q) inv_q.
        rho = 1.0 / (1.0 + nu2 / q)
        omega = nu1 * inv_q - 1.0
        nu_terms = (nu1 * rho / (2.0 * nu2) - 0.5 * np.log1p(q / nu2), omega * rho,
                    omega * inv_q, rho * (nu1 * rho - 6.0) / (2.0 * nu2 * nu2))
        grad, hess = _log_scale_derivatives(
            u, wv, delta, None, sigma, -nu1 * rho, -nu1 * inv_q,
            0.5 * nu1 * rho * inv_q, nu_terms)
    # log sigma = log s - r / 2, so d log sigma / dr = -1/2 with no second
    # derivative; the other coordinates carry over.
    dnu, d2nu = _search_slopes("nu", nu)
    jac = np.eye(4)
    jac[1, 3], jac[3, 3] = -0.5, dnu
    curv = jac.T @ hess @ jac
    curv = 0.5 * (curv + curv.T)
    curv[3, 3] += d2nu * grad[3]
    grad = jac.T @ grad
    # the normalizer n (log-normalizer(nu) - log s)
    _, norm_dnu, norm_d2nu = dist.input._log_norm
    grad[1] -= n
    grad[3] += n * dnu * norm_dnu
    curv[3, 3] += n * (d2nu * norm_dnu + dnu * dnu * norm_d2nu)
    return input_part + penalty_part, grad, curv


class _Model(NamedTuple):
    names: tuple[str, ...]
    build: Callable  # natural theta -> LambertWDist
    # (y, natural theta) -> (loglik, its gradient and Hessian in the search coordinates)
    score: Callable


# Joint-MLE models keyed by (family, tail).  Adding a model is one entry
# here (and a new parameter name may need its map in _to_search, _to_theta,
# _search_slopes and _search_bounds).
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


def _objective(p: np.ndarray, y: np.ndarray, model: _Model):
    """-loglik, its gradient and Hessian at search coordinates ``p``.

    ``model.score`` gives them in these coordinates, so this only negates
    them; the fourth item is the log-likelihood's own (gradient, Hessian).
    A point that is no valid model, such as nu == 2.0 where ``expm1``
    rounds to -1 or r >= 0 beyond nu = inf, or whose likelihood or
    derivatives are not finite (a scale whose square underflows), gives +inf.
    """
    try:
        theta = _to_theta(model.names, p)
        # A scale that underflows or overflows gives non-finite derivatives
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            total, score, hess = model.score(y, theta)
    except (DomainError, ArithmeticError):
        return math.inf, None, None, None
    if not (math.isfinite(total) and np.all(np.isfinite(hess)) and np.all(np.isfinite(score))):
        return math.inf, None, None, None
    return -total, -score, -hess, (score, hess)


def _score_search(y, model: _Model, starts, family: str):
    """The damped Newton search (:func:`_box_newton`) of ``model`` from each start.

    A start of ``None`` is :func:`_default_start`, which also replaces a
    first start that gives no valid model; a default start that does not
    exist, and a start that gives no valid model, are skipped.  Each search
    stops when the Newton decrement is at most ``1e-12 n``.  The run that
    ends lowest wins.  Returns it and the likelihood passes summed over the
    runs; :class:`ConvergenceError` when no start gives a valid model.
    """
    def objective(p):
        return _objective(p, y, model)

    lo, hi = _search_bounds(model.names)
    tol = _DECREMENT_TOL * y.size

    def search(start):
        if start is None:
            start = _default_start(y, model.names)
            if start is None:
                return None
        p0 = _to_search(model.names, [start[n] for n in model.names])
        return _box_newton(objective, p0, lo, hi, tol)

    best, passes = None, 0
    for k, start in enumerate(starts):
        run = search(start)
        if k == 0 and start is not None and (run is None or not math.isfinite(run.value)):
            run = search(None)
        if run is None or not math.isfinite(run.value):
            continue
        passes += run.passes
        if best is None or run.value < best.value:
            best = run
    if best is None:
        raise ConvergenceError(
            "the likelihood search left the parameter space on this data: "
            f"no start point gives a valid {family} model")
    return best, passes


def _theta_derivatives(names, theta, grad, hess):
    """The log-likelihood's gradient and Hessian in natural ``theta``.

    ``grad`` and ``hess`` are in the search coordinates.  With ``J =
    dtheta/dp`` and ``K = d^2 theta/dp^2`` per coordinate
    (:func:`_search_slopes`), ``g_p = J g_theta`` and ``H_p = H_theta J J'
    + diag(K g_theta)``.
    """
    jac, curv = np.array([_search_slopes(n, t) for n, t in zip(names, theta)]).T
    g = grad / jac
    return g, (hess - np.diag(curv * g)) / np.outer(jac, jac)


def _std_errors(hess: np.ndarray, free: list[bool]) -> list[float]:
    """Standard errors from the log-likelihood Hessian in natural theta.

    Coordinates not in ``free`` (a tail estimate at 0, a nu on its cap) are
    held fixed and get NaN.  The observed information of the others is
    scaled to a unit diagonal (Jacobi) and pseudo-inverted with a
    condition-number guard, so a parameter on a very different scale, such
    as a large nu, keeps its variance; a nonpositive variance gives NaN.
    """
    out = [math.nan] * len(hess)
    info = -hess[np.ix_(free, free)]
    diag = np.diag(info)
    if info.size and np.all(diag > 0.0):
        root = np.sqrt(diag)
        cov = np.linalg.pinv(info / np.outer(root, root), rcond=1e-10, hermitian=True)
        var = np.diag(cov) / diag
        for k, v in zip(np.flatnonzero(free), var):
            out[k] = float(math.sqrt(v)) if v > 0 else math.nan
    return out


def mle_joint(
    data,
    family: str = "gaussian",
    tail: str = "h",
    start: dict[str, float] | None = None,
) -> FitResult:
    """Joint maximum likelihood over location, scale and tail parameters.

    Every model has a closed-form score and Hessian, from one W pass per
    point.  The log-likelihood is maximized by projected Newton steps with
    Levenberg-Marquardt damping (:func:`_box_newton`) on (mu, log sigma,
    delta[, delta_r][, r = log(1 - 2/nu)]) in the box delta >= 0, which
    reaches delta = 0 exactly, and nu <= 2 + 1e6; a coordinate on a bound
    that the gradient pushes outwards is held there.  Near nu = 2, r is
    log(nu - 2) - log 2, and towards nu = inf the likelihood is about
    linear in r, so a start far from the cap reaches it in a step or two.
    The search stops when the Newton decrement of the free coordinates
    (twice the predicted gain of a full Newton step) is at most ``1e-12
    n`` for n observations, which does not change with the data's units
    (the log-likelihood itself shifts by ``-n log a`` when the data are
    scaled by ``a``), and ``converged`` says that it did; a search that
    runs out of steps (100) or of progress above rounding is not
    converged.  ``iterations`` counts the Newton steps tried, one
    likelihood pass (score and Hessian) each, besides the pass at each
    start.

    ``params`` is the searched theta keyed by the model's names: (mu_x,
    sigma_x, delta), (mu_x, sigma_x, delta_left, delta_right) or, for
    Student-t input, (mu_x, sigma_x, delta, nu) with ``sigma_x`` the t
    scale; ``tau`` is the fitted model's, whose ``sigma_x`` is the input sd.
    The standard errors, keyed the same way, come from the exact Hessian at
    the end of the search, scaled by its diagonal and pseudo-inverted with
    a condition-number guard; a tail estimate at 0 or a nu on its cap is
    held fixed and gets a NaN standard error.

    Without ``start``, Gaussian input starts from Tukey's letter values:
    the median, and the line through the log half-spreads at the tail
    probabilities 2^-k, k = 2..6, against z^2 / 2, whose slope is delta and
    whose intercept is log sigma (:func:`_letter_value_start`; Hoaglin
    1985).  Ties that leave a half-spread at 0 fall back to the moment
    start: the median, the interquartile scale and the tail from the
    sample kurtosis (:func:`_moment_start`).

    Student-t input has more than one local maximum in nu (a heavy t with
    a small tail against the Gaussian limit), so it is searched from the
    moment start (or ``start``), whose kurtosis is that of ``(y - median)
    / IQR``, and from the Gaussian ``tail="h"`` optimum at nu = 3, 10 and
    1e6, and the best end is kept; a moment start whose kurtosis is not
    finite is skipped.  Its ``iterations`` sum over these searches and the
    Gaussian one.

    A start point that gives no valid model is replaced by the default
    start; :class:`ConvergenceError` is raised when no start gives a valid
    model.
    """
    y = _check_series(data, min_n=10)
    # A point near the float maximum overflows the sample variance.
    with np.errstate(over="ignore", invalid="ignore"):
        degenerate = np.std(y, ddof=1) == 0.0
    if degenerate:
        raise DataError("degenerate data: zero variance")
    try:
        model = _MODELS[(family, tail)]
    except KeyError:
        raise DomainError(
            f"unsupported joint MLE model: family={family!r}, tail={tail!r}"
        ) from None

    starts, passes = [start], 0
    if "nu" in model.names:
        # Also start at the Gaussian-h optimum's location, tail and input
        # sd, at nu = 3, 10 and on the cap, where a likelihood that still
        # rises in nu holds r on its bound from the first step.
        try:
            gauss, passes = _score_search(y, _MODELS[("gaussian", "h")], [None], "gaussian")
        except ConvergenceError:
            pass  # the moment start reports the failure
        else:
            mu, sd, delta = _to_theta(("mu_x", "sigma_x", "delta"), gauss.x)
            starts += [
                {"mu_x": mu, "sigma_x": sd * math.sqrt((nu - 2.0) / nu),
                 "delta": delta, "nu": nu}
                for nu in (3.0, 10.0, _NU_CAP + 2.0)
            ]
    best, searched = _score_search(y, model, starts, family)
    theta = _to_theta(model.names, best.x)
    lo, hi = _search_bounds(model.names)
    hess = _theta_derivatives(model.names, theta, *best.payload)[1]
    se = _std_errors(hess, [a < x < b for a, x, b in zip(lo, best.x, hi)])
    return _fit_result(
        y, model.build(theta), f"mle_{family}_{tail}", dict(zip(model.names, theta)),
        passes + searched, best.converged, dict(zip(model.names, se)),
    )


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
