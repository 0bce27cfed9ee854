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
  model has a closed-form score (one W per point) and is searched by
  L-BFGS-B in the box delta >= 0, which reaches the boundary delta = 0
  exactly; Student-t input, whose likelihood has several maxima in nu,
  from four starts.  Standard errors come from differences of the score.
* :func:`igmm` / :func:`igmm_double_tail` -- iterative generalized method
  of moments: alternate a moment-matching tail update with location and
  scale updates from the back-transformed sample until the parameter
  vector stabilizes.  Both share one tail update: an active-set
  Gauss-Newton (Levenberg-Marquardt damped) in the box [0, 10] per tail, on
  the analytic derivative of the back-transformed moments in the tails (one
  W per point).  One tail matches the kurtosis, two tails the skewness and
  the kurtosis.
* :func:`taylor_delta`     -- rule-of-thumb tail start value from sample
  kurtosis.

``scipy.optimize`` is imported inside the functions that call it (the
likelihood searches), so importing the package, the CLI commands that fit
nothing and the IGMM fits never load it.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .distributions import (
    _LOG_SQRT_2PI,
    Gaussian,
    LambertWDist,
    StudentT,
    _t_log_norm_dnu,
    variance_factor,
)
from .exceptions import ConvergenceError, DataError, DomainError
from .transform import (
    TailParams,
    _dispatch_sides,
    _w_and_w_delta,
    w_delta,
    w_of_delta_z_sq,
)

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


# IGMM stopping rule and search region: the loop stops when the Euclidean
# norm of the change in the raw parameter vector drops to _IGMM_TOL, or
# after _IGMM_MAX_ITERATIONS updates; tail estimates stay in _DELTA_BOUNDS.
_IGMM_TOL = 1.22e-4
_IGMM_MAX_ITERATIONS = 100
_DELTA_BOUNDS = (0.0, 10.0)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit: parameters, uncertainty and diagnostics.

    ``loglik_total`` always equals ``loglik_input + loglik_penalty``;
    the penalty part is nonpositive and zero only when every fitted tail
    parameter is zero.  ``std_errors`` comes from the inverse observed
    information, taken from differences of the analytic score; it is NaN
    for a tail parameter estimated at 0 or a nu on its cap, and ``None``
    for moment-based fits.  ``boundary_hit`` flags estimates pinned at
    ``delta = 0`` or at the upper search bound.
    """

    tau: TailParams
    method: str
    loglik_total: float
    loglik_input: float
    loglik_penalty: float
    iterations: int
    converged: bool
    input: object | None = None
    std_errors: dict[str, float] | None = None
    boundary_hit: str | None = None
    extra: dict = field(default_factory=dict)

    @property
    def params(self) -> dict[str, float]:
        """Estimates keyed by parameter name, in reporting order."""
        out = {"mu_x": self.tau.mu_x, "sigma_x": self.tau.sigma_x}
        if self.tau.is_double:
            out["delta_left"] = self.tau.delta_left
            out["delta_right"] = self.tau.delta_right
        else:
            out["delta"] = self.tau.delta
        if "nu" in self.extra:
            out["nu"] = self.extra["nu"]
        return out


def _check_series(data, min_n: int = 1) -> np.ndarray:
    arr = np.asarray(data, dtype=float).ravel()
    if arr.size < min_n:
        raise DataError(f"need at least {min_n} observations, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise DataError("data must be finite")
    return arr


def _central_moments(x: np.ndarray):
    """``c = x - mean(x)``, ``c^2`` and the central moments m2, m3, m4."""
    c = x - x.mean()
    c2 = c * c
    m2 = np.mean(c2)
    if m2 == 0.0:
        raise DataError("degenerate data: zero variance")
    return c, c2, m2, np.mean(c2 * c), np.mean(c2 * c2)


def _central_moment_stats(x: np.ndarray) -> tuple[float, float]:
    """(skewness, kurtosis) as standardized central moments m3/m2^1.5, m4/m2^2."""
    _, _, m2, m3, m4 = _central_moments(x)
    return float(m3 / m2**1.5), float(m4 / (m2 * m2))


def _moment_residual(parts) -> tuple[np.ndarray, np.ndarray]:
    """Moment residual of a back-transformed sample and its Jacobian in the tails.

    ``parts`` is a sequence of ``(z_k, delta_k)``; the sample is the union
    of the ``w_delta(z_k, delta_k)`` (moments do not depend on the order
    of the points).  Returns ``r = (skewness, kurtosis - 3)`` and the
    ``2 x len(parts)`` matrix of ``dr / ddelta_k``.  W is evaluated once per
    point.  Each point moves with its own tail by ``du/ddelta = -u^3 / (2 (1
    + W))`` (the :func:`~heavytail.transform.w_delta_ddelta` formula), and
    the central moments by ``dm_k = k (mean(c^(k-1) du) - m_(k-1)
    mean(du))`` with ``c = u - mean(u)`` and ``m_1 = 0``.
    """
    us, dus = [], []
    for z_k, delta_k in parts:
        wv, u_k = _w_and_w_delta(z_k, delta_k)
        us.append(u_k)
        dus.append(-0.5 * u_k * u_k * u_k / (1.0 + wv))
    c, c2, m2, m3, m4 = _central_moments(np.concatenate(us))
    c3 = c2 * c
    n = c.size
    jac = np.empty((2, len(dus)))
    end = 0
    for k, du in enumerate(dus):
        side = slice(end, end + du.size)
        end = side.stop
        mean_du = np.sum(du) / n
        dm2 = 2.0 * np.dot(c[side], du) / n
        dm3 = 3.0 * (np.dot(c2[side], du) / n - m2 * mean_du)
        dm4 = 4.0 * (np.dot(c3[side], du) / n - m3 * mean_du)
        jac[0, k] = (dm3 - 1.5 * m3 * dm2 / m2) / m2**1.5
        jac[1, k] = (dm4 - 2.0 * m4 * dm2 / m2) / (m2 * m2)
    return np.array([m3 / m2**1.5, m4 / (m2 * m2) - 3.0]), jac


def sample_moments(data) -> SampleMoments:
    """Summary moments of a series.

    Kurtosis is the non-excess standardized fourth moment (Gaussian
    reference value 3); the standard deviation uses the unbiased N-1
    denominator.  Skewness and kurtosis are NaN for fewer than 4 points;
    degenerate (zero-variance) data raises :class:`DataError`.
    """
    x = _check_series(data, min_n=2)
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
    wv, x = dist._w_and_input(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        input_part = float(np.sum(dist.input.logpdf(x)))
        penalty_part = float(np.sum(-0.5 * wv - np.log1p(wv)))
    total = input_part + penalty_part
    if not math.isfinite(total):
        total = -math.inf
    return LoglikParts(total, input_part, penalty_part)


def grad_delta(delta: float, z_data) -> float:
    """Gradient of the Gaussian-input log-likelihood in the tail parameter.

    For standardized data (location 0, scale 1 known):

        D(delta) = sum z^2 W'(delta z^2)
                   * ( w_delta(z)^2 / 2 - 1/2 - 1/(1 + W(delta z^2)) )

    which at delta = 0 collapses to ``sum(z^4)/2 - 3 sum(z^2)/2``.  The
    product ``z^2 W'(delta z^2)`` is evaluated as
    ``W(delta z^2) / (delta (1 + W))`` so huge observations cannot
    overflow.
    """
    delta = float(delta)
    if delta < 0:
        raise DomainError("delta must be >= 0")
    z = _check_series(z_data, min_n=1)
    zsq = z * z
    if delta == 0.0:
        return float(0.5 * np.sum(zsq * zsq) - 1.5 * np.sum(zsq))
    wv = w_of_delta_z_sq(z, delta)
    one_plus = 1.0 + wv
    z2_wprime = wv / (delta * one_plus)
    u_sq = wv / delta
    return float(np.sum(z2_wprime * (0.5 * u_sq - 0.5 - 1.0 / one_plus)))


_DELTA_BRACKET_LIMIT = 1e8


def mle_delta_only(z_data) -> FitResult:
    """Maximum likelihood for the tail parameter with known location/scale.

    Implements the boundary dichotomy: if ``sum(z^4)/sum(z^2) <= 3`` the
    estimate is exactly 0 (flagged ``delta_lower``); otherwise the unique
    positive root of :func:`grad_delta` is bracketed by geometric growth
    and refined by Brent's method.
    """
    z = _check_series(z_data, min_n=2)
    zsq = z * z
    sum_sq = float(np.sum(zsq))
    if sum_sq == 0.0:
        raise DataError("degenerate data: all zeros")
    ratio = float(np.sum(zsq * zsq)) / sum_sq

    if ratio <= 3.0:
        delta_hat = 0.0
        boundary = "delta_lower"
        iterations = 0
    else:
        hi = 0.5
        while grad_delta(hi, z) > 0.0:
            hi *= 2.0
            if hi > _DELTA_BRACKET_LIMIT:
                raise ConvergenceError(
                    "tail-parameter bracket left the representable search "
                    "region; data too extreme for a finite estimate"
                )
        from scipy import optimize

        delta_hat, info = optimize.brentq(
            grad_delta, 0.0, hi, args=(z,), xtol=1e-12, full_output=True
        )
        delta_hat = float(delta_hat)
        boundary = None
        iterations = int(info.iterations)
        if not info.converged:
            raise ConvergenceError("gradient root refinement did not converge")

    parts = loglik(z, LambertWDist(Gaussian(0.0, 1.0), delta_hat))
    se = _delta_only_std_error(delta_hat, z)
    return FitResult(
        tau=TailParams(0.0, 1.0, delta_hat),
        method="mle_delta_only",
        loglik_total=parts.total,
        loglik_input=parts.input_part,
        loglik_penalty=parts.penalty_part,
        iterations=iterations,
        converged=True,
        input=Gaussian(0.0, 1.0),
        std_errors={"delta": se} if se is not None else None,
        boundary_hit=boundary,
    )


def _delta_only_std_error(delta_hat: float, z: np.ndarray) -> float | None:
    """1 / sqrt(observed information) from a finite difference of the gradient."""
    if delta_hat <= 0.0:
        return None
    h = max(1e-5, 1e-5 * delta_hat)
    if delta_hat - h <= 0.0:
        h = 0.5 * delta_hat
    second = (grad_delta(delta_hat + h, z) - grad_delta(delta_hat - h, z)) / (2 * h)
    if second >= 0.0 or not math.isfinite(second):
        return None
    return float(1.0 / math.sqrt(-second))


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


# The inner moment-match step: a tail stops when its step is at most
# _STEP_XTOL + _STEP_RTOL |delta|, or after _STEP_MAX_ITERATIONS steps, and
# a tail within _BOUND_TOL of a bound is held on that bound.
_STEP_XTOL = 1e-13
_STEP_RTOL = 8.9e-16
_BOUND_TOL = 1e-12
_STEP_MAX_ITERATIONS = 100


def delta_gmm(z_data) -> GMMDelta:
    """Tail parameter minimizing the kurtosis mismatch of back-transformed data.

    For standardized data ``z`` this finds ``delta`` in [0, 10] with
    ``kurtosis(w_delta(z, delta))`` equal to 3, the Gaussian value.
    Back-transforming shrinks kurtosis monotonically, so when the data
    kurtosis exceeds the target the match is a root-finding problem; when
    it does not, the mismatch is minimized at the lower bound and 0 is
    returned.  A mismatch still nonnegative at the upper bound gives that
    bound, flagged.  The search is the one-tail case of the IGMM tail step
    (:func:`_gmm_step`) from the rule-of-thumb :func:`taylor_delta` start;
    it stops when the step is at most ``1e-13 + 8.9e-16 delta``.
    """
    z = _check_series(z_data, min_n=4)
    return _gmm_step(z, taylor_delta(_central_moment_stats(z)[1]))


def _dot(x, y) -> float:
    return sum(map(operator.mul, x, y))


def _gmm_step(z: np.ndarray, start: float | tuple[float, float]) -> GMMDelta:
    """The IGMM tail step: match the moments of the back-transformed ``z``.

    A float ``start`` is one tail, which brings the kurtosis to 3.  A
    (left, right) pair is two tails, which one kurtosis condition cannot
    identify; they bring the skewness to 0 and the kurtosis to 3 in a
    least-squares sense.  Either way the step minimizes ``phi = |r|^2 / 2``
    over [0, 10] per tail, for those rows ``r`` of the residual ``(skewness,
    kurtosis - 3)`` of :func:`_moment_residual`, by an active-set projected
    Gauss-Newton with Levenberg-Marquardt damping, warm-started at ``start``.

    A tail within 1e-12 of a bound whose descent direction points out of
    the box is held exactly on that bound, which gives :func:`delta_gmm`
    its end-point rules without evaluating the bounds.  The free tails take
    the step ``s`` of ``(J'J + lam diag(J'J)) s = -J'r`` (1x1 or 2x2, solved
    in closed form), projected onto the box; a step that lowers ``phi`` is
    taken and lowers ``lam``, one that does not raises it, so far from a
    match the step shortens towards steepest descent.  It stops when no tail
    moves by more than ``1e-13 + 8.9e-16 |delta|``, which is also where
    repeated failures to lower ``phi`` end, so a tail the data do not need
    comes back as exactly 0.
    """
    lo, hi = _DELTA_BOUNDS
    double = isinstance(start, tuple)
    if double:
        left = z <= 0.0
        sides, rows = (z[left], z[~left]), slice(0, 2)
    else:
        sides, rows, start = (z,), slice(1, 2), (start,)

    def residual(d: list[float]) -> tuple[list[float], list[list[float]]]:
        # The residual rows and the Jacobian's columns, as Python floats
        r, jac = _moment_residual(list(zip(sides, d)))
        return r[rows].tolist(), jac[rows].T.tolist()

    d = [min(max(float(x), lo), hi) for x in start]
    r, cols = residual(d)
    lam, grow, rejected = 1e-6, 2.0, None
    for _ in range(_STEP_MAX_ITERATIONS):
        grad = [_dot(c, r) for c in cols]
        free = []
        for k, g in enumerate(grad):
            if d[k] <= lo + _BOUND_TOL and g > 0.0:
                d[k] = lo
            elif d[k] >= hi - _BOUND_TOL and g < 0.0:
                d[k] = hi
            else:
                free.append(k)
        if not free:
            break
        step = [0.0] * len(d)
        diag = [_dot(c, c) for c in cols]
        if len(free) == 2:
            (j00, j10), (j01, j11) = cols
            a01 = _dot(*cols)
            # det(J'J) = det(J)^2, so the determinant is a sum of nonnegative terms.
            det = diag[0] * diag[1] * lam * (2.0 + lam) + (j00 * j11 - j01 * j10) ** 2
            if det > 0.0:
                step = [-((1.0 + lam) * diag[1] * grad[0] - a01 * grad[1]) / det,
                        -((1.0 + lam) * diag[0] * grad[1] - a01 * grad[0]) / det]
        elif diag[free[0]] > 0.0:
            step[free[0]] = -grad[free[0]] / ((1.0 + lam) * diag[free[0]])
        trial = [min(max(dk + sk, lo), hi) for dk, sk in zip(d, step)]
        if all(abs(t - dk) <= _STEP_XTOL + _STEP_RTOL * abs(dk) for t, dk in zip(trial, d)):
            break
        accepted = False
        # A trial point rejected from this point (a step clipped to the box
        # by every lam so far) is not evaluated again.
        if trial != rejected:
            r_trial, cols_trial = residual(trial)
            phi, phi_trial = 0.5 * _dot(r, r), 0.5 * _dot(r_trial, r_trial)
            moves = [t - dk for t, dk in zip(trial, d)]
            model = [r_i + _dot(row, moves) for r_i, row in zip(r, zip(*cols))]
            predicted = phi - 0.5 * _dot(model, model)
            accepted = phi_trial < phi and predicted > 0.0
        if accepted:
            # Nielsen's update from the ratio of actual to predicted fall
            gain = (phi - phi_trial) / predicted
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            grow = 2.0
            d, r, cols, rejected = trial, r_trial, cols_trial, None
        else:
            lam *= grow
            grow *= 2.0
            rejected = trial
    return GMMDelta(tuple(d) if double else d[0], max(d) >= hi)


def _igmm(data, double_tail: bool) -> FitResult:
    """The IGMM loop shared by :func:`igmm` and :func:`igmm_double_tail`.

    Starts from the median, the kurtosis-matched tail and the deflated
    scale; each iteration updates the tail (one, or a left/right pair) by
    :func:`_gmm_step`, warm-started at the current tail.
    """
    y = _check_series(data, min_n=10)
    # A point near the float maximum overflows the start moments.
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(y, ddof=1))
        if sd == 0.0:
            raise DataError("degenerate data: zero variance")
        if not math.isfinite(sd):
            raise DataError(
                f"the sample scale of the data is not finite (sd = {sd}); "
                "rescale the data"
            )
        delta0 = min(taylor_delta(_central_moment_stats(y)[1]), _DELTA_BOUNDS[1])
    vf = variance_factor(min(delta0, 0.499)) or 1.0
    mu, sigma = float(np.median(y)), sd / vf
    delta = (delta0, delta0) if double_tail else delta0
    tau_vec = np.hstack([mu, sigma, delta])
    prev = np.zeros_like(tau_vec)
    at_bound = False
    iterations = 0
    converged = False
    while iterations < _IGMM_MAX_ITERATIONS:
        if np.linalg.norm(tau_vec - prev) <= _IGMM_TOL:
            converged = True
            break
        iterations += 1
        z = (y - mu) / sigma
        delta, at_bound = _gmm_step(z, delta)
        x = _dispatch_sides(w_delta, z, TailParams(0.0, 1.0, delta)) * sigma + mu
        mu = float(np.mean(x))
        sigma = float(np.std(x, ddof=1))
        prev = tau_vec
        tau_vec = np.hstack([mu, sigma, delta])

    tau = TailParams(mu, sigma, delta)
    boundary = None
    if at_bound:
        boundary = "delta_upper"
    elif min(tau.delta_left, tau.delta_right) == 0.0:
        boundary = "delta_lower"
    gauss = Gaussian(mu, sigma)
    parts = loglik(y, LambertWDist(gauss, delta))
    return FitResult(
        tau=tau,
        method="igmm",
        loglik_total=parts.total,
        loglik_input=parts.input_part,
        loglik_penalty=parts.penalty_part,
        iterations=iterations,
        converged=converged,
        input=gauss,
        std_errors=None,
        boundary_hit=boundary,
    )


def igmm(data) -> FitResult:
    """Iterative generalized method of moments for (mu_x, sigma_x, delta).

    Alternates: standardize with the current location/scale, match the
    input kurtosis as :func:`delta_gmm` does (warm-started at the current
    tail), back-transform, and refresh
    location/scale from the back-transformed sample (mean and unbiased
    standard deviation), until the Euclidean change of the parameter
    vector drops to 1.22e-4, or for at most 100 updates.  The tail search
    runs over [0, 10]; a tail estimate at 0 is flagged ``delta_lower``, one
    at the upper bound 10 ``delta_upper``.
    """
    return _igmm(data, False)


def igmm_double_tail(data) -> FitResult:
    """Double-tail variant of :func:`igmm` with a 2-D inner moment match.

    Each iteration chooses (delta_left, delta_right) in [0, 10]^2 to bring
    the skewness and kurtosis of the back-transformed sample to 0 and 3,
    by the tail step of :func:`igmm` with both moment conditions,
    warm-started at the current tails.  Where the data skew one way only,
    that match is a least-squares one with the other tail held exactly at
    0.  ``delta_lower`` is flagged when either tail estimate is 0,
    ``delta_upper`` when either is at 10.
    """
    return _igmm(data, True)


_NU_CAP = 1e6
_GTOL = 1e-7

# L-BFGS-B searches log(theta - shift) for the names in _LOG_SHIFT and the
# others as they are, in the box delta >= 0, log(nu - 2) <= log(_NU_CAP).
# Mapped to theta, the box's ends bound the standard-error stencils.
_LOG_SHIFT = {"sigma_x": 0.0, "nu": 2.0}
_TAU_NAMES = ("mu_x", "sigma_x", "delta", "delta_left", "delta_right")


def _to_search(names, theta) -> np.ndarray:
    return np.array([math.log(v - _LOG_SHIFT[n]) if n in _LOG_SHIFT else v
                     for n, v in zip(names, theta)])


def _to_theta(names, p) -> list[float]:
    return [_LOG_SHIFT[n] + math.exp(v) if n in _LOG_SHIFT else float(v)
            for n, v in zip(names, p)]


def _box(names) -> list[tuple[float, float]]:
    return [(0.0, math.inf) if n.startswith("delta")
            else (-math.inf, math.log(_NU_CAP)) if n == "nu"
            else (-math.inf, math.inf) for n in names]


def _default_start(y: np.ndarray, names) -> dict[str, float]:
    with np.errstate(over="ignore", invalid="ignore"):
        g2 = _central_moment_stats(y)[1]
        sd = float(np.std(y, ddof=1))
    delta0 = max(taylor_delta(g2), 1e-3)
    vf = variance_factor(min(delta0, 0.499)) or 1.0
    sigma0 = max(sd / vf, 1e-12)
    start = {"mu_x": float(np.median(y)), "sigma_x": sigma0}
    start.update({name: delta0 for name in names if name.startswith("delta")})
    if "nu" in names:
        # Split the observed tail weight between delta and the t dof.
        nu0 = (4.0 * g2 - 6.0) / (g2 - 3.0) if g2 > 3.5 else 30.0
        start["nu"] = float(min(max(nu0, 2.5), 100.0))
        start["delta"] = max(delta0 / 2.0, 1e-3)
        # The t scale from the interquartile range: heavy tails inflate
        # the sd (to 2.4e12 on a t_5 series of 1000 points with delta =
        # 1), and L-BFGS-B from such a start can run off to scale 1e-50,
        # nu -> 2, where the likelihood of such data has no upper bound.
        k = math.sqrt(start["nu"] / (start["nu"] - 2.0))
        start["sigma_x"] = _iqr_scale(y, StudentT(start["nu"])) or sigma0 / k
    return start


def _iqr_scale(y: np.ndarray, standard) -> float:
    """The scale that gives ``standard`` the interquartile range of ``y``."""
    q1, q3 = np.percentile(y, [25.0, 75.0])
    return float(q3 - q1) / (2.0 * float(standard.quantile(0.75)))


def _gaussian_loglik_score(y: np.ndarray, theta) -> tuple[float, np.ndarray]:
    """Gaussian-input log-likelihood and its score at natural ``theta``.

    ``theta`` is (mu, sigma, delta) or (mu, sigma, delta_left,
    delta_right); a point that is no valid model raises
    :class:`DomainError`.  W is evaluated once per point, in the same pass
    as the likelihood.  With ``W = W(delta z^2)`` and ``u^2 = z^2 exp(-W)``
    each point contributes ``-u^2/2 - W/2 - log1p(W) - log sigma - log
    sqrt(2 pi)``, whose derivatives are

        d/dz     = -z exp(-W) (1 + delta (1 + 2/(1 + W))) / (1 + W),
        d/ddelta = u^2 (u^2 - 1 - 2/(1 + W)) / (2 (1 + W)),

    the latter ``z^4/2 - 3 z^2/2`` at delta = 0 (:func:`grad_delta`).
    Location and scale follow by the chain rule through
    ``z = (y - mu) / sigma``; with two tails each point's tail derivative
    adds to the score of its own side.
    """
    tau = TailParams(theta[0], theta[1], theta[2] if len(theta) == 3 else tuple(theta[2:]))
    sigma = tau.sigma_x
    z = (y - tau.mu_x) / sigma
    wv, u = _dispatch_sides(_w_and_w_delta, z, tau)
    left = z <= 0.0
    delta = np.where(left, *tau.delta) if tau.is_double else tau.delta
    with np.errstate(over="ignore", invalid="ignore"):
        one_plus = 1.0 + wv
        u_sq = u * u
        total = float(np.sum(-0.5 * u_sq - 0.5 * wv - np.log1p(wv)))
        total -= y.size * (math.log(sigma) + _LOG_SQRT_2PI)
        factor = (1.0 + delta * (1.0 + 2.0 / one_plus)) / one_plus
        # z exp(-W) is evaluated as u exp(-W/2), which cannot overflow.
        d_z = -u * np.exp(-0.5 * wv) * factor
        d_delta = u_sq * (u_sq - 1.0 - 2.0 / one_plus) / (2.0 * one_plus)
        # d/dsigma = sum(d_z * -z) / sigma - n / sigma, with z d_z = -u^2 factor
        score = [-np.sum(d_z) / sigma, (np.sum(u_sq * factor) - y.size) / sigma]
    if tau.is_double:
        score += [np.sum(d_delta[left]), np.sum(d_delta[~left])]
    else:
        score.append(np.sum(d_delta))
    return total, np.array(score, dtype=float)


def _student_t_loglik_score(y: np.ndarray, theta) -> tuple[float, np.ndarray]:
    """Student-t-input log-likelihood and its score at natural ``theta``.

    ``theta`` is (mu, s, delta, nu) with ``s`` the t scale; a point that is
    no valid model (nu <= 2 too) raises :class:`DomainError`.  The total is
    :func:`loglik`'s bit for bit, from one W per point.  With ``sigma = s
    sqrt(nu / (nu - 2))``, ``z = (y - mu) / sigma`` and ``u = w_delta(z)``,
    the t variate ``t`` has ``t^2 / nu = u^2 / (nu - 2)``, and each point
    adds ``-(nu + 1)/2 log1p(u^2 / (nu - 2)) - W/2 - log1p(W) - log s`` to
    the log-normalizer.  With ``b = 1 + 2/(1 + W)``, ``rho = u^2 / (nu - 2
    + u^2)`` and ``delta u^2 = W``, its derivatives are

        d/dz     = exp(-W/2) u (-(nu + 1) / (nu - 2 + u^2) - delta b) / (1 + W),
        z d/dz   = -((nu + 1) rho + b W) / (1 + W),
        d/ddelta = u^2 ((nu + 1) rho - b) / (2 (1 + W)),

    from ``du/dz = exp(-W/2) / (1 + W)``, ``dW/dz = 2 delta u du/dz``,
    ``du/ddelta = -u^3 / (2 (1 + W))`` and ``dW/ddelta = u^2 / (1 + W)``.
    nu enters through the log-normalizer, through ``u^2 / (nu - 2)`` at
    fixed u, and through z, as ``dz/dnu = z / (nu (nu - 2))``.
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
        one_plus = 1.0 + wv
        b = 1.0 + 2.0 / one_plus
        u_sq = u * u
        # rho is 0 at u = 0 and 1 where u^2 overflows.
        rho = 1.0 / (1.0 + nu2 / u_sq)
        d_z = np.exp(-0.5 * wv) / one_plus * (-nu1 * u / (nu2 + u_sq) - delta * b * u)
        z_d_z = -(nu1 * rho + b * wv) / one_plus
        d_delta = u_sq * (nu1 * rho - b) / (2.0 * one_plus)
        d_nu = nu1 * rho / (2.0 * nu2) - 0.5 * np.log1p(u_sq / nu2)
        sum_z_d_z = float(np.sum(z_d_z))
        score = [
            -np.sum(d_z) / sigma,
            -(sum_z_d_z + n) / s,
            np.sum(d_delta),
            n * _t_log_norm_dnu(nu) + np.sum(d_nu) + sum_z_d_z / (nu * nu2),
        ]
    return input_part + penalty_part, np.array(score, dtype=float)


class _Model(NamedTuple):
    names: tuple[str, ...]
    build: Callable  # natural theta -> LambertWDist
    read: Callable  # LambertWDist -> natural theta
    score: Callable  # (y, theta) -> (loglik, its gradient in theta)


# Joint-MLE models keyed by (family, tail).  Adding a model is one entry
# here (and a new parameter name may need its map in _LOG_SHIFT and _box).
_MODELS = {
    ("gaussian", "h"): _Model(
        ("mu_x", "sigma_x", "delta"),
        lambda t: LambertWDist(Gaussian(t[0], t[1]), t[2]),
        lambda d: (d.input.mu, d.input.sigma, d.delta),
        _gaussian_loglik_score,
    ),
    ("gaussian", "hh"): _Model(
        ("mu_x", "sigma_x", "delta_left", "delta_right"),
        lambda t: LambertWDist(Gaussian(t[0], t[1]), (t[2], t[3])),
        lambda d: (d.input.mu, d.input.sigma, *d.delta),
        _gaussian_loglik_score,
    ),
    ("student-t", "h"): _Model(
        ("mu_x", "sigma_x", "delta", "nu"),
        lambda t: LambertWDist(StudentT(nu=t[3], mu=t[0], scale=t[1]), t[2]),
        lambda d: (d.input.mu, d.input.scale, d.delta, d.input.nu),
        _student_t_loglik_score,
    ),
}


def _left_parameter_space(family: str, which: str, point) -> ConvergenceError:
    return ConvergenceError(
        "the likelihood search left the parameter space on this data: "
        f"its {which} point {point} gives no valid {family} model"
    )


def _objective(p: np.ndarray, y: np.ndarray, model: _Model):
    """-loglik and its gradient at search coordinates ``p``.

    A point that is no valid model, such as nu == 2.0 where ``exp``
    underflows, or whose likelihood or score is not finite, gives +inf.
    """
    try:
        total, s = model.score(y, _to_theta(model.names, p))
    except (DomainError, OverflowError):
        return math.inf, np.zeros_like(p)
    s *= [math.exp(v) if n in _LOG_SHIFT else 1.0 for n, v in zip(model.names, p)]
    if not (math.isfinite(total) and np.all(np.isfinite(s))):
        return math.inf, np.zeros_like(p)
    return -total, -s


def _score_search(y, model: _Model, starts, family: str):
    """L-BFGS-B on the search coordinates of ``model`` from each start.

    A start of ``None`` is the moment-based :func:`_default_start`, which
    also replaces a first start that gives no valid model; a later such
    start is skipped.  The run that ends lowest wins.  Returns its natural
    theta, the iterations summed over the runs and whether it converged
    (:func:`_converged`).
    """
    def pack(values: dict[str, float]) -> np.ndarray:
        return _to_search(model.names, [values[n] for n in model.names])

    from scipy import optimize

    best, iterations = None, 0
    for k, start in enumerate(starts):
        p0 = pack(start if start is not None else _default_start(y, model.names))
        if not math.isfinite(_objective(p0, y, model)[0]):
            if k > 0:
                continue
            p0 = pack(_default_start(y, model.names))
            if not math.isfinite(_objective(p0, y, model)[0]):
                raise _left_parameter_space(family, "start", p0.tolist())
        res = optimize.minimize(
            _objective,
            p0,
            args=(y, model),
            jac=True,
            method="L-BFGS-B",
            bounds=_box(model.names),
            options={"ftol": 1e-12, "gtol": _GTOL},
        )
        iterations += int(res.nit)
        if best is None or res.fun < best.fun:
            best = res
    if not math.isfinite(best.fun):
        raise _left_parameter_space(family, "best", best.x.tolist())
    return _to_theta(model.names, best.x), iterations, _converged(best, model.names)


def _converged(res, names) -> bool:
    """L-BFGS-B's success, or a line-search stop where the function is flat.

    L-BFGS-B reports a failed line search as an abnormal stop; it counts
    as converged when the projected gradient there is at most ``gtol
    max(1, |loglik|)``, where rounding of the likelihood hides a descent.
    """
    if res.success:
        return True
    if not res.message.startswith("ABNORMAL"):
        return False
    lo, hi = np.array(_box(names)).T
    held = ((res.x <= lo) & (res.jac > 0)) | ((res.x >= hi) & (res.jac < 0))
    return bool(np.max(np.abs(np.where(held, 0.0, res.jac))) <= _GTOL * max(1.0, abs(res.fun)))


def _mle_fit(
    data, family: str, tail: str, start: dict[str, float] | None = None
) -> FitResult:
    """The search of :func:`mle_joint`: its result without standard errors."""
    y = _check_series(data, min_n=10)
    # A point near the float maximum overflows the sample moments; the
    # search below then fails with a ConvergenceError that says so.
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

    starts, iterations = [start], 0
    if "nu" in model.names:
        # Also start at the Gaussian-h optimum's location, tail and input
        # sd, at nu = 3, 10 and the cap; that search starts from the
        # interquartile scale too.
        try:
            gauss_start = _default_start(y, ("mu_x", "sigma_x", "delta"))
            gauss_start["sigma_x"] = _iqr_scale(y, Gaussian()) or gauss_start["sigma_x"]
            (mu, sd, delta), iterations, _ = _score_search(
                y, _MODELS[("gaussian", "h")], [gauss_start], "gaussian"
            )
        except ConvergenceError:
            pass  # the moment-based start reports the failure
        else:
            starts += [
                {"mu_x": mu, "sigma_x": sd * math.sqrt((nu - 2.0) / nu),
                 "delta": delta, "nu": nu}
                for nu in (3.0, 10.0, _NU_CAP)
            ]
    theta, searched, converged = _score_search(y, model, starts, family)
    dist = model.build(theta)
    parts = loglik(y, dist)
    natural = model.read(dist)
    tau = TailParams(natural[0], natural[1], dist.delta)
    boundary = None
    if min(tau.delta_left, tau.delta_right) == 0.0:
        boundary = "delta_lower"

    return FitResult(
        tau=tau,
        method=f"mle_{family}_{tail}",
        loglik_total=parts.total,
        loglik_input=parts.input_part,
        loglik_penalty=parts.penalty_part,
        iterations=iterations + searched,
        converged=converged,
        input=dist.input,
        boundary_hit=boundary,
        extra={n: v for n, v in zip(model.names, natural) if n not in _TAU_NAMES},
    )


def _with_std_errors(y: np.ndarray, fit: FitResult) -> FitResult:
    """``fit``, a result of :func:`_mle_fit` on ``y``, with standard errors."""
    model = _MODELS[(fit.input.name, "hh" if fit.tau.is_double else "h")]
    theta = np.array([fit.params[n] for n in model.names])
    lower, upper = (np.array(_to_theta(model.names, e)) for e in zip(*_box(model.names)))
    se = _score_std_errors(lambda t: model.score(y, t)[1], theta, lower, upper)
    return replace(fit, std_errors=dict(zip(model.names, se)))


def mle_joint(
    data,
    family: str = "gaussian",
    tail: str = "h",
    start: dict[str, float] | None = None,
) -> FitResult:
    """Joint maximum likelihood over location, scale and tail parameters.

    Every model has a closed-form score.  Its negative log-likelihood is
    minimized by L-BFGS-B (``ftol`` 1e-12, ``gtol`` 1e-7) on (mu, log
    sigma, delta[, delta_r][, log(nu - 2)]) in the box delta >= 0, which
    reaches delta = 0 exactly, and nu <= 2 + 1e6.  ``converged`` is
    L-BFGS-B's success flag.  The standard errors come from central
    differences of the score (step ``max(1e-4, 1e-4 |param|)``, one-sided
    within one step of a lower bound); the Hessian is pseudo-inverted
    with a condition-number guard, and a tail estimate at 0 or a nu on its
    cap is held fixed and gets a NaN standard error.

    Student-t input has more than one local maximum in nu (a heavy t with
    a small tail against the Gaussian limit), so it is searched from the
    moment-based start (or ``start``) and from the Gaussian ``tail="h"``
    optimum at nu = 3, 10 and 1e6, and the best end is kept.  Its
    ``iterations`` sum over these searches and the Gaussian one.

    A start point that gives no valid model is replaced by the
    moment-based default; :class:`ConvergenceError` is raised when that
    start or the search's best point is not a valid model either.
    """
    y = _check_series(data, min_n=10)
    return _with_std_errors(y, _mle_fit(y, family, tail, start))


def fit_model(data, family: str, tail: str, method: str) -> FitResult:
    """Fit by method name: ``"igmm"`` (Gaussian input only) or ``"mle"``."""
    if method == "igmm":
        if family != "gaussian":
            raise DomainError("igmm supports the gaussian input family only")
        return igmm(data) if tail == "h" else igmm_double_tail(data)
    return mle_joint(data, family=family, tail=tail)


def _score_std_errors(
    score, theta: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> list[float]:
    """Standard errors from differences of an analytic score.

    ``score(theta)`` is the gradient of the log-likelihood in natural
    ``theta``.  A coordinate on its lower or upper bound (a tail estimate
    at 0, a nu on its cap) is held fixed and gets NaN; the Hessian is taken
    over the other coordinates only.  The step is ``max(1e-4, 1e-4
    |theta_i|)``.  Each free coordinate costs two score calls, by central
    differences, or by a second-order forward difference when it lies
    within a step of its lower bound.  The Hessian is symmetrized and
    pseudo-inverted (rcond guard); nonpositive variances and a non-finite
    Hessian give NaN.
    """
    free = np.flatnonzero((theta > lower) & (theta < upper))
    h = np.maximum(1e-4, 1e-4 * np.abs(theta))
    s0 = None

    def at(k: int, step: float) -> np.ndarray:
        t = theta.copy()
        t[k] += step
        return score(t)

    cols = []
    for k in free:
        if theta[k] - h[k] > lower[k]:
            cols.append((at(k, h[k]) - at(k, -h[k])) / (2.0 * h[k]))
        else:
            if s0 is None:
                s0 = score(theta)
            cols.append((4.0 * at(k, h[k]) - at(k, 2.0 * h[k]) - 3.0 * s0) / (2.0 * h[k]))
    hess = -np.array(cols)[:, free]
    out = [math.nan] * len(theta)
    if np.all(np.isfinite(hess)):
        cov = np.linalg.pinv(0.5 * (hess + hess.T), rcond=1e-10)
        for i, k in enumerate(free):
            out[k] = float(math.sqrt(cov[i, i])) if cov[i, i] > 0 else math.nan
    return out
