"""Heavy-tail Lambert W x F_X distribution objects.

An input family F_X (Gaussian, uniform, gamma, chi-squared, exponential or
Student t) is paired with tail parameters to give a heavy-tailed output
distribution with closed-form cdf, pdf and quantile function:

    cdf(y)      = F_X( w_tau(y) )
    pdf(y)      = f_X( w_tau(y) ) * dw/dz            (dw/dz = exp(-W/2) / (1 + W))
    quantile(p) = h_tau( F_X^{-1}(p) )

With Gaussian input this is Tukey's h distribution (hh for separate left
and right tail parameters).  Closed-form Gaussian-input moments, the
kurtosis curve and the scale inflation factor sigma_y / sigma_x live here
as well.

Input families are standard distributions written as closed forms over
``scipy.special``; the Lambert W machinery on top of them is
family-generic.  Nonexistent moments are reported as ``None``, never as
NaN.

``scipy.special`` is imported on first use, through :data:`sp`: importing
the package, the transforms, and the Gaussian-input likelihood and
estimators never load scipy, whose import is about half of a CLI process's
start-up.  The families' ``cdf``/``quantile`` (so ``rlambertw``), every
non-Gaussian density and the normality test load it on their first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .exceptions import DomainError
from .lambertw import _blocked
from .transform import TailParams, _tail_at, _w_and_w_delta, h_tau, w_tau

__all__ = [
    "Gaussian",
    "Uniform",
    "Gamma",
    "ChiSquared",
    "Exponential",
    "StudentT",
    "LambertWDist",
    "family_from_name",
    "moment_gaussian",
    "kurtosis_gaussian",
    "variance_factor",
    "kurtosis_student_t",
    "tail_index",
]

# Probabilities are clipped into this open interval before quantile
# evaluation so that inverse-cdf sampling never produces infinities.
_P_LO = 1e-300
_P_HI = 1.0 - 1e-16


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class _LazySpecial:
    """``scipy.special``, imported on the first attribute access.

    Each function is stored on the instance when first looked up, so later
    lookups are plain attribute reads that never reach ``__getattr__``.
    """

    def __getattr__(self, name):
        from scipy import special

        value = getattr(special, name)
        setattr(self, name, value)
        return value


sp = _LazySpecial()


def _piecewise(t, core, support, below, above, closed):
    """``core(t)`` on the support, ``below``/``above`` beyond it, NaN at NaN.

    ``closed`` counts the support's end points as inside (densities); the
    cdf uses the open support, so an end point gets 0 or 1.  ``core`` is
    evaluated everywhere and its values beyond the support are discarded.
    A 0-d result comes back as a numpy scalar.
    """
    lo, hi = support
    with np.errstate(all="ignore"):
        low = t < lo if closed else t <= lo
        high = t > hi if closed else t >= hi
        out = np.where(low, below, np.where(high, above, core(t)))
    out[np.isnan(t)] = np.nan
    return out[()]


@dataclass(frozen=True)
class _Family:
    """Shared behaviour of input families.

    A family is a standard distribution on ``support``, shifted by ``_loc``
    and stretched by ``_scale``.  Subclasses supply the standard
    ``_logpdf``, ``_cdf`` and ``_ppf`` (and ``_pdf`` where it is not
    ``exp(_logpdf)``) as closed forms over ``scipy.special``; the public
    methods add location, scale and support the way ``scipy.stats`` does,
    in the same operation order, so values match it bit for bit.
    """

    kind: ClassVar[str] = "location-scale"
    name: ClassVar[str] = ""
    support: ClassVar[tuple[float, float]] = (-math.inf, math.inf)

    @property
    def _loc(self) -> float:
        return 0.0

    @property
    def _scale(self) -> float:
        return 1.0

    def _standardize(self, x):
        return (np.asarray(x, dtype=float) - self._loc) / self._scale

    def _pdf(self, t):
        return np.exp(self._logpdf(t))

    def pdf(self, x):
        return _piecewise(
            self._standardize(x),
            lambda t: self._pdf(t) / self._scale,
            self.support, 0.0, 0.0, closed=True,
        )

    def logpdf(self, x):
        return _piecewise(
            self._standardize(x),
            lambda t: self._logpdf(t) - np.log(self._scale),
            self.support, -np.inf, -np.inf, closed=True,
        )

    def cdf(self, x):
        return _piecewise(
            self._standardize(x), self._cdf, self.support, 0.0, 1.0, closed=False
        )

    def quantile(self, p):
        return self._ppf(np.clip(p, _P_LO, _P_HI)) * self._scale + self._loc

    def sample(self, n: int, rng: np.random.Generator):
        # Inverse-cdf sampling keeps streams reproducible across platforms
        # and makes the delta = 0 pass-through in rlambertw exact.
        return self.quantile(rng.random(n))


@dataclass(frozen=True)
class Gaussian(_Family):
    mu: float = 0.0
    sigma: float = 1.0
    kind: ClassVar[str] = "location-scale"
    name: ClassVar[str] = "gaussian"

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise DomainError("Gaussian sigma must be positive")

    @property
    def mean_x(self) -> float:
        return self.mu

    @property
    def sd_x(self) -> float:
        return self.sigma

    def logpdf(self, x):
        u = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        # |u| above about 1e154 squares to inf: log density -inf, density 0.
        with np.errstate(over="ignore"):
            return -0.5 * u * u - math.log(self.sigma) - _LOG_SQRT_2PI

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def cdf(self, x):
        return sp.ndtr((np.asarray(x, dtype=float) - self.mu) / self.sigma)

    def quantile(self, p):
        return self.mu + self.sigma * sp.ndtri(np.clip(p, _P_LO, _P_HI))


@dataclass(frozen=True)
class Uniform(_Family):
    a: float = 0.0
    b: float = 1.0
    kind: ClassVar[str] = "location-scale"
    name: ClassVar[str] = "uniform"
    support: ClassVar[tuple[float, float]] = (0.0, 1.0)

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise DomainError("Uniform requires a < b")

    @property
    def mean_x(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def sd_x(self) -> float:
        return (self.b - self.a) / math.sqrt(12.0)

    @property
    def _loc(self) -> float:
        return self.a

    @property
    def _scale(self) -> float:
        return self.b - self.a

    def _pdf(self, t):
        return np.ones_like(t)

    def _logpdf(self, t):
        return np.zeros_like(t)

    def _cdf(self, t):
        return t

    def _ppf(self, q):
        return q


@dataclass(frozen=True)
class Gamma(_Family):
    shape: float = 1.0
    rate: float = 1.0
    kind: ClassVar[str] = "scale"
    name: ClassVar[str] = "gamma"
    support: ClassVar[tuple[float, float]] = (0.0, math.inf)

    def __post_init__(self):
        if not (self.shape > 0 and self.rate > 0):
            raise DomainError("Gamma shape and rate must be positive")

    @property
    def mean_x(self) -> float:
        return self.shape / self.rate

    @property
    def sd_x(self) -> float:
        return math.sqrt(self.shape) / self.rate

    @property
    def _scale(self) -> float:
        return 1.0 / self.rate

    def _logpdf(self, t):
        return sp.xlogy(self.shape - 1.0, t) - t - sp.gammaln(self.shape)

    def _cdf(self, t):
        return sp.gammainc(self.shape, t)

    def _ppf(self, q):
        return sp.gammaincinv(self.shape, q)


@dataclass(frozen=True)
class ChiSquared(_Family):
    k: float = 1.0
    kind: ClassVar[str] = "scale"
    name: ClassVar[str] = "chisq"
    support: ClassVar[tuple[float, float]] = (0.0, math.inf)

    def __post_init__(self):
        if not self.k > 0:
            raise DomainError("ChiSquared degrees of freedom must be positive")

    @property
    def mean_x(self) -> float:
        return self.k

    @property
    def sd_x(self) -> float:
        return math.sqrt(2.0 * self.k)

    def _logpdf(self, t):
        k = self.k
        return (
            sp.xlogy(k / 2.0 - 1.0, t)
            - t / 2.0
            - sp.gammaln(k / 2.0)
            - (np.log(2.0) * k) / 2.0
        )

    def _cdf(self, t):
        return sp.chdtr(self.k, t)

    def _ppf(self, q):
        return 2.0 * sp.gammaincinv(self.k / 2.0, q)


@dataclass(frozen=True)
class Exponential(_Family):
    rate: float = 1.0
    kind: ClassVar[str] = "scale"
    name: ClassVar[str] = "exponential"
    support: ClassVar[tuple[float, float]] = (0.0, math.inf)

    def __post_init__(self):
        if not self.rate > 0:
            raise DomainError("Exponential rate must be positive")

    @property
    def mean_x(self) -> float:
        return 1.0 / self.rate

    @property
    def sd_x(self) -> float:
        return 1.0 / self.rate

    @property
    def _scale(self) -> float:
        return 1.0 / self.rate

    def _pdf(self, t):
        return np.exp(-t)

    def _logpdf(self, t):
        return -t

    def _cdf(self, t):
        return -sp.expm1(-t)

    def _ppf(self, q):
        return -sp.log1p(-q)


# From nu = _T_SERIES_NU on, the Student t log-normalizer and its nu
# derivatives are asymptotic series in 1/x, x = nu/2; below it, lgamma,
# digamma and trigamma differences.  Both ways are within 1e-14 of the
# exact value there.
_T_SERIES_NU = 30.0
# S(x) = sum_k _T_SERIES[k] / x^(2k+1) is the Stirling series of
# log Gamma(x + 1/2) - log Gamma(x) - log(x)/2; the coefficient of
# x^-j is the Bernoulli number B_(j+1) times (2^-j - 2) / (j (j + 1)).
_T_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224)


def _t_log_normalizer(nu: float) -> float:
    """``log Gamma((nu+1)/2) - log Gamma(nu/2) - log(nu pi)/2``.

    Below nu = 30 the lgamma difference, which cancels as nu grows (at nu =
    1e6 it is 5.5e-10 off); from nu = 30 on, with x = nu/2, ``S(x) - log
    sqrt(2 pi)``: the Gaussian normalizer plus a small correction.
    """
    if nu < _T_SERIES_NU:
        return (math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu)
                - 0.5 * math.log(nu * math.pi))
    x = 0.5 * nu
    r, s = 1.0 / (x * x), 0.0
    for c in reversed(_T_SERIES):
        s = s * r + c
    return s / x - _LOG_SQRT_2PI


def _t_log_norm(nu: float) -> tuple[float, float, float]:
    """:func:`_t_log_normalizer` and its first two nu derivatives.

    Below nu = 30: the digamma and trigamma (``zeta(2, x)``) differences.
    They cancel as nu grows (at nu = 1e6 the digamma one is 3.7e-4 off,
    relative), so from nu = 30 on, with x = nu/2, the derivatives are
    ``S'(x) / 2`` and ``S''(x) / 4``, summed in one Horner pass.
    """
    if nu < _T_SERIES_NU:
        return (_t_log_normalizer(nu),
                0.5 * float(sp.digamma(0.5 * (nu + 1.0)) - sp.digamma(0.5 * nu)) - 0.5 / nu,
                0.25 * float(sp.zeta(2.0, 0.5 * (nu + 1.0)) - sp.zeta(2.0, 0.5 * nu))
                + 0.5 / (nu * nu))
    x = 0.5 * nu
    r, ds, d2s = 1.0 / (x * x), 0.0, 0.0
    for k, c in reversed(list(enumerate(_T_SERIES))):
        j = 2 * k + 1
        ds = ds * r - j * c
        d2s = d2s * r + j * (j + 1) * c
    return _t_log_normalizer(nu), 0.5 * r * ds, 0.25 * r * d2s / x


@dataclass(frozen=True)
class StudentT(_Family):
    """Location-scale Student t input.

    ``scale`` multiplies the raw t variate, so the standard deviation is
    ``scale * sqrt(nu / (nu - 2))``; ``nu > 2`` is required so that the
    standardization is finite.  The log-normalizer is computed once per
    instance for :meth:`logpdf`, and with its nu derivatives
    (:func:`_t_log_norm`) only for the likelihood score.
    """

    nu: float = 5.0
    mu: float = 0.0
    scale: float = 1.0
    kind: ClassVar[str] = "location-scale"
    name: ClassVar[str] = "student-t"

    def __post_init__(self):
        if not self.nu > 2:
            raise DomainError("StudentT requires nu > 2 for a finite variance")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise DomainError("StudentT scale must be positive")

    @property
    def sd_x(self) -> float:
        return self.scale * math.sqrt(self.nu / (self.nu - 2.0))

    @property
    def mean_x(self) -> float:
        return self.mu

    @cached_property
    def _log_normalizer(self) -> float:
        return _t_log_normalizer(self.nu)

    @cached_property
    def _log_norm(self) -> tuple[float, float, float]:
        return _t_log_norm(self.nu)

    def logpdf(self, x):
        t = (np.asarray(x, dtype=float) - self.mu) / self.scale
        nu = self.nu
        log_norm = self._log_normalizer - math.log(self.scale)
        with np.errstate(over="ignore"):
            s = t * t / nu
        log_term = np.log1p(s)
        if not np.isfinite(s).all():
            # t*t overflowed (or t is inf/NaN): log1p(t^2/nu) rewritten as
            # 2 log|t| - log nu + log1p(nu/t^2), which stays finite
            # (nu/t^2 overflows only at points that keep log_term).
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                far = 2.0 * np.log(np.abs(t)) - math.log(nu) + np.log1p(nu / t / t)
            log_term = np.where(np.isfinite(s), log_term, far)
        return log_norm - 0.5 * (nu + 1.0) * log_term

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    @property
    def _loc(self) -> float:
        return self.mu

    @property
    def _scale(self) -> float:
        return self.scale

    def _cdf(self, t):
        return sp.stdtr(self.nu, t)

    def _ppf(self, q):
        return sp.stdtrit(self.nu, q)


_FAMILIES = {
    "gaussian": Gaussian,
    "normal": Gaussian,
    "uniform": Uniform,
    "gamma": Gamma,
    "chisq": ChiSquared,
    "exponential": Exponential,
    "student-t": StudentT,
    "t": StudentT,
}


def family_from_name(name: str, params=()):
    """Build an input family from its CLI name and positional parameters."""
    try:
        cls = _FAMILIES[name.lower()]
    except KeyError:
        raise DomainError(
            f"unknown input family {name!r}; choose from "
            f"{sorted(set(_FAMILIES))}"
        ) from None
    return cls(*params)


@dataclass(frozen=True)
class LambertWDist:
    """Heavy-tailed version of an input distribution.

    ``delta`` follows the :class:`~heavytail.transform.TailParams`
    convention: a float for a symmetric tail or a pair for separate left
    and right tails.  The transformation vector is derived from the input
    family: (mean, sd, delta) for location-scale inputs, (0, sd, delta)
    for scale families.  At ``delta = 0`` every method reduces pointwise to
    the input distribution.
    """

    input: _Family
    delta: float | tuple[float, float] = 0.0

    @cached_property
    def tau(self) -> TailParams:
        mean = self.input.mean_x if self.input.kind == "location-scale" else 0.0
        return TailParams(mean, self.input.sd_x, self.delta)

    def cdf(self, y):
        return _blocked(self._cdf, np.asarray(y, dtype=float))

    def _cdf(self, y):
        return self.input.cdf(w_tau(y, self.tau))

    def _w_and_input(self, y):
        """``(W(delta z^2), w_tau(y))`` at the float array ``y``, from one W per point."""
        tau = self.tau
        z = (y - tau.mu_x) / tau.sigma_x
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            wv, u = _w_and_w_delta(z, _tail_at(z, tau.delta))
        return wv, u * tau.sigma_x + tau.mu_x

    def pdf(self, y):
        return _blocked(self._pdf, np.asarray(y, dtype=float))

    def _pdf(self, y):
        wv, x = self._w_and_input(y)
        return self.input.pdf(x) * (np.exp(-0.5 * wv) / (1.0 + wv))

    def logpdf(self, y):
        return _blocked(self._logpdf, np.asarray(y, dtype=float))

    def _logpdf(self, y):
        wv, x = self._w_and_input(y)
        return self.input.logpdf(x) - 0.5 * wv - np.log1p(wv)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise DomainError("quantile probabilities must lie strictly in (0, 1)")
        return _blocked(self._quantile, p)

    def _quantile(self, p):
        return h_tau(self.input.quantile(p), self.tau)

    def sample(self, n: int, rng: np.random.Generator | int | None = None):
        """Draw ``n`` values: sample the input, then push through h_tau.

        The input is sampled by its quantiles at ``n`` uniforms drawn in
        one call, so the stream does not depend on how the map is blocked.
        With all tail parameters zero the raw input stream is returned
        unchanged (bit-exact pass-through).
        """
        if n < 1:
            raise DomainError("sample size must be at least 1")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(rng)))
        return _blocked(self._from_uniform, rng.random(int(n)))

    def _from_uniform(self, u):
        x = self.input.quantile(u)
        tau = self.tau
        if tau.delta_left == 0.0 and tau.delta_right == 0.0:
            return x
        return h_tau(x, tau)


def moment_gaussian(n: int, delta: float):
    """n-th raw moment of the standard Gaussian-input output variable.

    Returns ``None`` when the moment does not exist, which happens for
    ``n * delta >= 1`` (the boundary case ``n = 1/delta`` is reported as
    nonexistent).  Odd existing moments are 0; even ones equal
    ``n! (1 - n delta)^(-(n+1)/2) / (2^(n/2) (n/2)!)``.
    """
    n = int(n)
    if n < 1:
        raise DomainError("moment order must be a positive integer")
    delta = float(delta)
    if delta < 0:
        raise DomainError("delta must be >= 0")
    if delta > 0 and n * delta >= 1.0:
        return None
    if n % 2 == 1:
        return 0.0
    half = n // 2
    return (
        math.factorial(n)
        * (1.0 - n * delta) ** (-(n + 1) / 2.0)
        / (2.0**half * math.factorial(half))
    )


def variance_factor(delta: float):
    """Scale inflation sigma_y / sigma_x = (1 - 2 delta)^(-3/4).

    ``None`` for delta >= 1/2 (infinite variance).
    """
    delta = float(delta)
    if delta < 0:
        raise DomainError("delta must be >= 0")
    if delta >= 0.5:
        return None
    return (1.0 - 2.0 * delta) ** -0.75


def kurtosis_gaussian(delta: float):
    """Kurtosis 3 (1 - 2 delta)^3 / (1 - 4 delta)^(5/2) of the Gaussian-input output.

    Equals 3 at delta = 0 and increases strictly; ``None`` for
    delta >= 1/4 where the fourth moment does not exist.
    """
    delta = float(delta)
    if delta < 0:
        raise DomainError("delta must be >= 0")
    if delta >= 0.25:
        return None
    return 3.0 * (1.0 - 2.0 * delta) ** 3 / (1.0 - 4.0 * delta) ** 2.5


def kurtosis_student_t(nu: float):
    """Student t kurtosis 3 (nu - 2) / (nu - 4); ``None`` for nu <= 4."""
    nu = float(nu)
    if nu <= 4:
        return None
    return 3.0 * (nu - 2.0) / (nu - 4.0)


def tail_index(delta: float) -> float:
    """Tail index 1 / delta of the output; infinite for delta = 0."""
    delta = float(delta)
    if delta < 0:
        raise DomainError("delta must be >= 0")
    return math.inf if delta == 0.0 else 1.0 / delta
