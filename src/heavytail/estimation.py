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
* :func:`mle_joint`        -- (mu, sigma, delta[, delta_r][, nu]) by
  Nelder-Mead on log-reparametrized coordinates.
* :func:`igmm` / :func:`igmm_double_tail` -- iterative generalized method
  of moments: alternate a kurtosis-matching tail update with location and
  scale updates from the back-transformed sample until the parameter
  vector stabilizes.
* :func:`taylor_delta`     -- rule-of-thumb tail start value from sample
  kurtosis.

``scipy.optimize`` is imported inside the functions that call it, so
importing the package (and the CLI commands that fit nothing) never loads
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .distributions import (
    Gaussian,
    LambertWDist,
    StudentT,
    variance_factor,
)
from .exceptions import ConvergenceError, DataError, DomainError
from .transform import TailParams, _dispatch_sides, w_delta, w_of_delta_z_sq

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
    parameter is zero.  ``std_errors`` comes from the inverse numeric
    Hessian (NaN for a tail parameter estimated at 0) and is ``None`` for
    moment-based fits.  ``boundary_hit`` flags estimates pinned at
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


def _central_moment_stats(x: np.ndarray) -> tuple[float, float]:
    """(skewness, kurtosis) as standardized central moments m3/m2^1.5, m4/m2^2."""
    c = x - x.mean()
    c2 = c * c
    m2 = np.mean(c2)
    if m2 == 0.0:
        raise DataError("degenerate data: zero variance")
    m3 = np.mean(c2 * c)
    m4 = np.mean(c2 * c2)
    return float(m3 / m2**1.5), float(m4 / (m2 * m2))


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


def delta_gmm(z_data) -> GMMDelta:
    """Tail parameter minimizing the kurtosis mismatch of back-transformed data.

    For standardized data ``z`` this finds ``delta`` in [0, 10] with
    ``kurtosis(w_delta(z, delta))`` equal to 3, the Gaussian value.
    Back-transforming shrinks kurtosis monotonically, so when the data
    kurtosis exceeds the target the match is a root-finding problem (solved
    by Brent bracketing to machine width); when it does not, the mismatch
    is minimized at the lower bound and 0 is returned.  A match pinned at
    the upper bound is flagged.
    """
    z = _check_series(z_data, min_n=4)
    lo, hi = _DELTA_BOUNDS

    def mismatch(delta: float) -> float:
        return _central_moment_stats(w_delta(z, delta))[1] - 3.0

    f_lo = mismatch(lo)
    if f_lo <= 0.0:
        return GMMDelta(float(lo), False)
    if mismatch(hi) >= 0.0:
        return GMMDelta(float(hi), True)
    from scipy import optimize

    root = optimize.brentq(mismatch, lo, hi, xtol=1e-13, rtol=8.9e-16)
    return GMMDelta(float(root), False)


def _delta2_gmm(z: np.ndarray, start: tuple[float, float]) -> GMMDelta:
    """Two-tail inner step: match skewness and kurtosis of the input.

    A single kurtosis condition cannot identify two tail parameters, so
    the left/right pair is chosen to reproduce both target moments of
    Gaussian input (skewness 0 and kurtosis 3) in a least-squares sense.
    Parametrized as delta = t^2 so the boundary delta = 0 stays reachable
    by the simplex search.
    """
    lo, hi = _DELTA_BOUNDS
    left = z <= 0.0
    right = ~left
    z_left, z_right = z[left], z[right]
    u = np.empty_like(z)

    def objective(t: np.ndarray) -> float:
        dl = min(max(t[0] * t[0], lo), hi)
        dr = min(max(t[1] * t[1], lo), hi)
        u[left] = w_delta(z_left, dl)
        u[right] = w_delta(z_right, dr)
        try:
            skew, kurt = _central_moment_stats(u)
        except DataError:
            return math.inf
        return skew * skew + (kurt - 3.0) ** 2

    from scipy import optimize

    t0 = np.sqrt([start[0], start[1]])
    res = optimize.minimize(
        objective,
        t0,
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-14, "maxiter": 2000},
    )
    dl = float(min(max(res.x[0] ** 2, lo), hi))
    dr = float(min(max(res.x[1] ** 2, lo), hi))
    return GMMDelta((dl, dr), bool(max(dl, dr) >= hi))


def _igmm(data, step, double_tail: bool) -> FitResult:
    """The IGMM loop shared by :func:`igmm` and :func:`igmm_double_tail`.

    Starts from the median, the kurtosis-matched tail and the deflated
    scale; each iteration updates the tail by
    ``step(z, delta) -> GMMDelta``.
    """
    y = _check_series(data, min_n=10)
    if np.std(y, ddof=1) == 0.0:
        raise DataError("degenerate data: zero variance")

    delta0 = min(taylor_delta(_central_moment_stats(y)[1]), _DELTA_BOUNDS[1])
    vf = variance_factor(min(delta0, 0.499)) or 1.0
    mu, sigma = float(np.median(y)), float(np.std(y, ddof=1)) / vf
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
        delta, at_bound = step(z, delta)
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
    input kurtosis by :func:`delta_gmm`, back-transform, and refresh
    location/scale from the back-transformed sample (mean and unbiased
    standard deviation), until the Euclidean change of the parameter
    vector drops to 1.22e-4, or for at most 100 updates.  The tail search
    runs over [0, 10]; a tail estimate at 0 is flagged ``delta_lower``, one
    at the upper bound 10 ``delta_upper``.
    """
    return _igmm(data, lambda z, _: delta_gmm(z), False)


def igmm_double_tail(data) -> FitResult:
    """Double-tail variant of :func:`igmm` with a 2-D inner moment match.

    ``delta_lower`` is flagged when either tail estimate is 0.
    """
    return _igmm(data, _delta2_gmm, True)


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

# Per-name maps between theta and the unconstrained optimizer vector
# (default: log scale), and the lower bounds seen by the Hessian stencil
# (default: 0).  nu > 2 is searched as log(nu - 2), capped above.
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


# Perturbed Nelder-Mead restarts after a search that does not converge.
_MAX_RESTARTS = 2


def _neg_loglik(y: np.ndarray, build, theta) -> float:
    """-loglik at ``build(theta)``; +inf where the model cannot be built."""
    try:
        total = loglik(y, build(theta)).total
    except (DomainError, OverflowError):
        return math.inf
    return -total if math.isfinite(total) else math.inf


def mle_joint(
    data,
    family: str = "gaussian",
    tail: str = "h",
    start: dict[str, float] | None = None,
) -> FitResult:
    """Joint maximum likelihood over location, scale and tail parameters.

    Maximizes the total log-likelihood by Nelder-Mead on the reparametrized
    vector (mu, log sigma, log delta [, log delta_r][, log (nu-2)]); points
    with non-finite likelihood are rejected inside the search, and the
    optimizer is restarted (at most twice) from a perturbed simplex when it
    fails to converge.  Standard errors come from the central-difference Hessian of
    the negative log-likelihood at the optimum (step ``max(1e-4,
    1e-4 |param|)``), pseudo-inverted with a condition-number guard; a
    tail estimate at 0 is held fixed there and gets a NaN standard error.
    """
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
        raise ConvergenceError(
            "the likelihood search left the parameter space on this data: "
            f"its best point {best.x.tolist()} gives no valid {family} model"
        ) from None
    dist = _refine_boundary(y, dist)
    parts = loglik(y, dist)
    natural = read(dist)
    theta = np.array(natural)
    se = _hessian_std_errors(
        lambda t: _neg_loglik(y, build, t),
        theta,
        np.array([_LOWER_BOUNDS.get(n, 0.0) for n in names]),
    )
    tau = TailParams(theta[0], theta[1], dist.delta)
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
        converged=bool(best.success and math.isfinite(best.fun)),
        input=dist.input,
        std_errors=dict(zip(names, se)),
        boundary_hit=boundary,
        extra={n: v for n, v in zip(names, natural) if n not in _TAU_NAMES},
    )


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
    if not np.all(np.isfinite(hess)):
        return out
    cov = np.linalg.pinv(hess, rcond=1e-10)
    for i, k in enumerate(free):
        v = cov[i, i]
        out[k] = float(math.sqrt(v)) if v > 0 else math.nan
    return out
