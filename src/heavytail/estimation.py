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
* :func:`mle_joint`        -- (mu, sigma, delta[, delta_r][, nu]).  Gaussian
  input has a closed-form score and is searched by L-BFGS-B in the box
  delta >= 0, which reaches the boundary delta = 0 exactly; its standard
  errors come from differences of the score.  Student-t input is searched
  by Nelder-Mead on log-reparametrized coordinates, with standard errors
  from a likelihood Hessian.
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
from dataclasses import dataclass, field, replace
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
    information, taken from differences of the analytic score (Gaussian
    input) or of the likelihood (Student-t input); it is NaN for a tail
    parameter estimated at 0 and ``None`` for moment-based fits.
    ``boundary_hit`` flags estimates pinned at ``delta = 0`` or at the
    upper search bound.
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

# Joint-MLE models keyed by (family, tail): the parameter names, a builder
# from the natural-scale vector theta to a LambertWDist, and the reader of
# theta back from a LambertWDist.  Adding a model is one entry here.
_MODELS = {
    ("gaussian", "h"): (
        ("mu_x", "sigma_x", "delta"),
        lambda t: LambertWDist(Gaussian(t[0], t[1]), t[2]),
        lambda d: (d.input.mu, d.input.sigma, d.delta),
    ),
    ("gaussian", "hh"): (
        ("mu_x", "sigma_x", "delta_left", "delta_right"),
        lambda t: LambertWDist(Gaussian(t[0], t[1]), (t[2], t[3])),
        lambda d: (d.input.mu, d.input.sigma, *d.delta),
    ),
    ("student-t", "h"): (
        ("mu_x", "sigma_x", "delta", "nu"),
        lambda t: LambertWDist(StudentT(nu=t[3], mu=t[0], scale=t[1]), t[2]),
        lambda d: (d.input.mu, d.input.scale, d.delta, d.input.nu),
    ),
}

# Per-name maps between theta and the unconstrained Nelder-Mead vector
# (default: log scale), and the lower bounds seen by the standard-error
# stencils (default: 0).  nu > 2 is searched as log(nu - 2), capped above.
_TO_OPTIMIZER = {"mu_x": lambda v: v, "nu": lambda v: math.log(v - 2.0)}
_FROM_OPTIMIZER = {
    "mu_x": lambda p: p,
    # Clamped so that np.exp cannot overflow; exp(700) is far above the cap.
    "nu": lambda p: 2.0 + min(float(np.exp(min(p, 700.0))), _NU_CAP),
}
_LOWER_BOUNDS = {"mu_x": -math.inf, "nu": 2.0}
_TAU_NAMES = ("mu_x", "sigma_x", "delta", "delta_left", "delta_right")


def _pack(names, start: dict[str, float]) -> np.ndarray:
    """Optimizer vector of the named start values."""
    return np.array([_TO_OPTIMIZER.get(n, math.log)(start[n]) for n in names])


def _unpack(names, p: np.ndarray) -> list:
    """Natural-scale theta of an optimizer vector."""
    return [_FROM_OPTIMIZER.get(n, math.exp)(v) for n, v in zip(names, p)]


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
        start["sigma_x"] = sigma0 / math.sqrt(start["nu"] / (start["nu"] - 2.0))
    return start


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


# Models with an analytic score: searched by L-BFGS-B, with standard errors
# from the score.  The other models are searched by Nelder-Mead, with
# standard errors from a likelihood Hessian.
_SCORES = {
    ("gaussian", "h"): _gaussian_loglik_score,
    ("gaussian", "hh"): _gaussian_loglik_score,
}

# Perturbed Nelder-Mead restarts after a search that does not converge.
_MAX_RESTARTS = 2


def _neg_loglik(y: np.ndarray, build, theta) -> float:
    """-loglik at ``build(theta)``; +inf where the model cannot be built."""
    try:
        total = loglik(y, build(theta)).total
    except (DomainError, OverflowError):
        return math.inf
    return -total if math.isfinite(total) else math.inf


def _left_parameter_space(family: str, which: str, point) -> ConvergenceError:
    return ConvergenceError(
        "the likelihood search left the parameter space on this data: "
        f"its {which} point {point} gives no valid {family} model"
    )


def _score_search(y, names, build, score, start, family):
    """L-BFGS-B on (mu, log sigma, delta[, delta_r]) in the box delta >= 0.

    The box reaches delta = 0 exactly.  Returns the optimum's
    :class:`LambertWDist`, the iteration count and the convergence flag.
    """

    def objective(p: np.ndarray):
        try:
            theta = [p[0], math.exp(p[1]), *p[2:]]
            total, s = score(y, theta)
        except (DomainError, OverflowError):
            return math.inf, np.zeros_like(p)
        s[1] *= theta[1]
        if not (math.isfinite(total) and np.all(np.isfinite(s))):
            return math.inf, np.zeros_like(p)
        return -total, -s

    def pack(values: dict[str, float]) -> np.ndarray:
        p = np.array([values[n] for n in names], dtype=float)
        p[1] = math.log(p[1])
        return p

    p0 = pack(start if start is not None else _default_start(y, names))
    if not math.isfinite(objective(p0)[0]):
        p0 = pack(_default_start(y, names))
        if not math.isfinite(objective(p0)[0]):
            raise _left_parameter_space(family, "start", p0.tolist())

    from scipy import optimize

    res = optimize.minimize(
        objective,
        p0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(None, None)] * 2 + [(0.0, None)] * (len(names) - 2),
        options={"ftol": 1e-12, "gtol": 1e-7},
    )
    if not math.isfinite(res.fun):
        raise _left_parameter_space(family, "best", res.x.tolist())
    return build([res.x[0], math.exp(res.x[1]), *res.x[2:]]), int(res.nit), bool(res.success)


def _simplex_search(y, names, build, start, family):
    """Nelder-Mead on the log-reparametrized vector, with perturbed restarts.

    Vanishing tail estimates are then resolved against 0 by
    :func:`_refine_boundary`.  Returns the optimum's :class:`LambertWDist`,
    the iteration count and the convergence flag.
    """

    def build_from_optimizer(p: np.ndarray) -> LambertWDist:
        return build(_unpack(names, p))

    def neg_loglik(p: np.ndarray) -> float:
        if not np.all(np.isfinite(p)):
            return math.inf
        return _neg_loglik(y, build_from_optimizer, p)

    p0 = _pack(names, start if start is not None else _default_start(y, names))
    if not math.isfinite(neg_loglik(p0)):
        p0 = _pack(names, _default_start(y, names))

    from scipy import optimize

    best = None
    iterations = 0
    for attempt in range(_MAX_RESTARTS + 1):
        res = optimize.minimize(
            neg_loglik,
            p0,
            method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-9, "maxiter": 5000, "maxfev": 5000},
        )
        iterations += int(res.nit)
        if best is None or res.fun < best.fun:
            best = res
        if res.success and math.isfinite(res.fun):
            break
        # Perturbed restart from the best point seen so far.
        p0 = best.x + 0.05 * (attempt + 1) * np.arange(1, len(names) + 1)

    try:
        dist = build_from_optimizer(best.x)
    except (DomainError, OverflowError):
        raise _left_parameter_space(family, "best", best.x.tolist()) from None
    converged = bool(best.success and math.isfinite(best.fun))
    return _refine_boundary(y, dist), iterations, converged


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
        names, build, read = _MODELS[(family, tail)]
    except KeyError:
        raise DomainError(
            f"unsupported joint MLE model: family={family!r}, tail={tail!r}"
        ) from None

    score = _SCORES.get((family, tail))
    if score is None:
        dist, iterations, converged = _simplex_search(y, names, build, start, family)
    else:
        dist, iterations, converged = _score_search(y, names, build, score, start, family)
    parts = loglik(y, dist)
    natural = read(dist)
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
        iterations=iterations,
        converged=converged,
        input=dist.input,
        boundary_hit=boundary,
        extra={n: v for n, v in zip(names, natural) if n not in _TAU_NAMES},
    )


def _with_std_errors(y: np.ndarray, fit: FitResult) -> FitResult:
    """``fit``, a result of :func:`_mle_fit` on ``y``, with standard errors."""
    model = (fit.input.name, "hh" if fit.tau.is_double else "h")
    names, build, _ = _MODELS[model]
    theta = np.array([fit.params[n] for n in names])
    lower = np.array([_LOWER_BOUNDS.get(n, 0.0) for n in names])
    score = _SCORES.get(model)
    if score is None:
        se = _hessian_std_errors(lambda t: _neg_loglik(y, build, t), theta, lower)
    else:
        se = _score_std_errors(lambda t: score(y, t)[1], theta, lower)
    return replace(fit, std_errors=dict(zip(names, se)))


def mle_joint(
    data,
    family: str = "gaussian",
    tail: str = "h",
    start: dict[str, float] | None = None,
) -> FitResult:
    """Joint maximum likelihood over location, scale and tail parameters.

    Gaussian input (``tail="h"`` or ``"hh"``) has a closed-form score.
    Its negative log-likelihood is minimized by L-BFGS-B on (mu, log sigma,
    delta[, delta_r]) in the box delta >= 0, which reaches delta = 0
    exactly.  The standard errors come from central differences of the
    score (step ``max(1e-4, 1e-4 |param|)``, one-sided for a tail within
    one step of 0).

    Student-t input is searched by Nelder-Mead on (mu, log sigma, log
    delta, log (nu-2)), restarted at most twice from a perturbed simplex
    when it fails to converge; a tail estimate below 1e-3 is then set to 0
    if that loses no likelihood.  Its standard errors come from the
    central-difference Hessian of the negative log-likelihood.

    Either way the Hessian is pseudo-inverted with a condition-number
    guard, and a tail estimate at 0 is held fixed and gets a NaN standard
    error.  A start point that gives no valid model is replaced by the
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


_BOUNDARY_SNAP = 1e-3


def _refine_boundary(y, dist: LambertWDist) -> LambertWDist:
    """Resolve vanishing tail estimates against the exact boundary value 0.

    The log-reparametrized search can only approach delta = 0, while the
    boundary dichotomy of the tail MLE makes 0 the exact estimate there.
    For every tail component parked below a small threshold, the
    likelihood is re-evaluated with that component zeroed and the boundary
    value is kept whenever it does not lose likelihood.
    """
    deltas = dist.delta if isinstance(dist.delta, tuple) else (dist.delta,)
    if min(deltas) > _BOUNDARY_SNAP:
        return dist

    candidates = [()]
    for d in deltas:
        options = (d, 0.0) if d <= _BOUNDARY_SNAP else (d,)
        candidates = [prev + (opt,) for prev in candidates for opt in options]

    def as_delta(c):
        return c if isinstance(dist.delta, tuple) else c[0]

    scored = [
        (loglik(y, LambertWDist(dist.input, as_delta(c))).total, c)
        for c in candidates
    ]
    best_total = max(s for s, _ in scored)
    # among near-ties prefer the candidate with the most exact zeros
    best = max(
        (c for s, c in scored if s >= best_total - 1e-9),
        key=lambda c: sum(1 for d in c if d == 0.0),
    )
    return LambertWDist(dist.input, as_delta(best))


def _hessian_std_errors(f, theta: np.ndarray, lower: np.ndarray) -> list[float]:
    """Standard errors from a numeric Hessian, boundary-aware.

    A coordinate on its lower bound (a tail estimate snapped to 0) gets a
    NaN standard error and is held fixed; the Hessian is taken over the
    other coordinates only.  Central differences with step
    ``max(1e-4, 1e-4 |theta_i|)``; when a parameter sits too close to its
    lower bound, the stencil for that coordinate shifts forward.  The
    Hessian is pseudo-inverted (rcond guard) and nonpositive variances are
    reported as NaN.
    """
    out = [math.nan] * len(theta)
    free = np.flatnonzero(theta > lower)
    n = free.size
    h = np.maximum(1e-4, 1e-4 * np.abs(theta[free]))
    a = np.where(theta[free] - h > lower[free], -1.0, 0.0)
    b = np.ones(n)

    def ev(offsets):
        step = np.zeros_like(theta)
        step[free] = offsets * h
        return f(theta + step)

    hess = np.zeros((n, n))
    f0 = ev(np.zeros(n))
    if not math.isfinite(f0):
        return out
    for i in range(n):
        o = np.zeros(n)
        if a[i] == -1.0:
            o[i] = 1.0
            fp = ev(o)
            o[i] = -1.0
            fm = ev(o)
            hess[i, i] = (fp - 2.0 * f0 + fm) / h[i] ** 2
        else:
            o[i] = 1.0
            f1 = ev(o)
            o[i] = 2.0
            f2 = ev(o)
            hess[i, i] = (f0 - 2.0 * f1 + f2) / h[i] ** 2
        for j in range(i + 1, n):
            vals = {}
            for si in (a[i], b[i]):
                for sj in (a[j], b[j]):
                    o = np.zeros(n)
                    o[i] = si
                    o[j] = sj
                    vals[(si, sj)] = ev(o)
            num = (
                vals[(b[i], b[j])]
                - vals[(b[i], a[j])]
                - vals[(a[i], b[j])]
                + vals[(a[i], a[j])]
            )
            hess[i, j] = hess[j, i] = num / (
                (b[i] - a[i]) * (b[j] - a[j]) * h[i] * h[j]
            )
    return _invert_information(hess, free, len(theta))


def _score_std_errors(score, theta: np.ndarray, lower: np.ndarray) -> list[float]:
    """Standard errors from differences of an analytic score.

    ``score(theta)`` is the gradient of the log-likelihood in natural
    ``theta``.  The rules are those of :func:`_hessian_std_errors`: a
    coordinate on its lower bound is held fixed and gets NaN, and the
    step is ``max(1e-4, 1e-4 |theta_i|)``.  Each free coordinate costs two
    score calls, by central differences, or by a second-order forward
    difference when it lies within a step of its bound.  The Hessian is
    symmetrized before it is inverted.
    """
    free = np.flatnonzero(theta > lower)
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
    return _invert_information(0.5 * (hess + hess.T), free, len(theta))


def _invert_information(hess: np.ndarray, free: np.ndarray, size: int) -> list[float]:
    """Standard errors of the ``free`` coordinates from a Hessian of -loglik.

    The Hessian is pseudo-inverted (rcond guard); nonpositive variances,
    a non-finite Hessian and the held coordinates give NaN.
    """
    out = [math.nan] * size
    if not np.all(np.isfinite(hess)):
        return out
    cov = np.linalg.pinv(hess, rcond=1e-10)
    for i, k in enumerate(free):
        v = cov[i, i]
        out[k] = float(math.sqrt(v)) if v > 0 else math.nan
    return out
