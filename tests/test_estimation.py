"""Estimation tests: likelihood decomposition, gradient, MLE and IGMM."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from heavytail import (
    ConvergenceError,
    DataError,
    DomainError,
    Gaussian,
    LambertWDist,
    StudentT,
    TailParams,
    Uniform,
    delta_gmm,
    grad_delta,
    h_delta,
    h_tau,
    igmm,
    igmm_double_tail,
    loglik,
    mle_delta_only,
    mle_joint,
    rlambertw,
    sample_moments,
    taylor_delta,
    w_delta,
    w_tau,
)
from heavytail import distributions, estimation
from heavytail.estimation import (
    _MODELS,
    _NU_CAP,
    _box_newton,
    _central_moment_stats,
    _delta_slope,
    _gaussian_loglik_score,
    _gmm_step,
    _moment_residual,
    _objective,
    _search_bounds,
    _student_t_loglik_score,
    _theta_derivatives,
    _to_search,
    _to_theta,
)


def make_sample(delta, n, seed, mu=0.0, sigma=1.0):
    dist = LambertWDist(Gaussian(mu, sigma), delta)
    return rlambertw(n, dist, seed=seed)


def kurt(x):
    c = x - x.mean()
    return float((c**4).mean() / (c**2).mean() ** 2)


class TestLoglik:
    def test_zero_delta_has_zero_penalty(self):
        y = make_sample(0.0, 50, seed=1)
        parts = loglik(y, LambertWDist(Gaussian(0, 1), 0.0))
        assert parts.penalty_part == 0.0

    def test_hand_computed_normal_value(self):
        parts = loglik([-1.0, 0.0, 1.0], LambertWDist(Gaussian(0, 1), 0.0))
        expected = 3 * math.log(1 / math.sqrt(2 * math.pi)) - 1.0
        np.testing.assert_allclose(parts.total, expected, rtol=1e-12)

    def test_total_equals_sum_of_logpdf(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            delta = rng.uniform(0, 1.5)
            mu, sigma = rng.normal(), rng.uniform(0.5, 2)
            y = make_sample(rng.uniform(0, 1), 40, seed=int(rng.integers(1e6)))
            dist = LambertWDist(Gaussian(mu, sigma), delta)
            parts = loglik(y, dist)
            direct = float(np.sum(dist.logpdf(y)))
            np.testing.assert_allclose(parts.total, direct, atol=1e-8)
            np.testing.assert_allclose(
                parts.total, parts.input_part + parts.penalty_part, atol=1e-8
            )

    def test_penalty_nonpositive(self):
        y = make_sample(0.4, 100, seed=5)
        for delta in [0.0, 0.1, 0.7, 2.0]:
            parts = loglik(y, LambertWDist(Gaussian(0, 1), delta))
            assert parts.penalty_part <= 0.0
            if delta == 0.0:
                assert parts.penalty_part == 0.0

    def test_monotone_components_in_delta(self):
        # input part nondecreasing, penalty nonincreasing in the tail parameter
        z = make_sample(1 / 3, 400, seed=9)
        grid = np.linspace(0.0, 2.0, 21)
        parts = [loglik(z, LambertWDist(Gaussian(0, 1), d)) for d in grid]
        inputs = np.array([p.input_part for p in parts])
        pens = np.array([p.penalty_part for p in parts])
        assert np.all(np.diff(inputs) >= -1e-9)
        assert np.all(np.diff(pens) <= 1e-9)

    def test_double_tail_split(self):
        y = make_sample(0.2, 60, seed=11)
        parts = loglik(y, LambertWDist(Gaussian(0, 1), (0.3, 0.1)))
        assert parts.total == pytest.approx(parts.input_part + parts.penalty_part)
        assert math.isfinite(parts.total)

    def test_out_of_support_is_minus_inf_not_crash(self):
        parts = loglik([0.5, 2.5], LambertWDist(Uniform(0.0, 1.0), 0.0))
        assert parts.total == -math.inf

    def test_empty_data_raises(self):
        with pytest.raises(DataError):
            loglik([], LambertWDist(Gaussian(0, 1), 0.1))


class TestGradDelta:
    def test_closed_form_at_zero(self):
        assert grad_delta(0.0, [1.0, -1.0, 1.0, -1.0]) == -4.0

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(100):
            delta = float(rng.uniform(0.02, 2.0))
            n = int(rng.integers(50, 300))
            z = make_sample(float(rng.uniform(0, 1)), n, seed=int(rng.integers(1e9)))
            h = 3e-6 * max(1.0, delta)
            fd = (
                loglik(z, LambertWDist(Gaussian(0, 1), delta + h)).total
                - loglik(z, LambertWDist(Gaussian(0, 1), delta - h)).total
            ) / (2 * h)
            an = grad_delta(delta, z)
            assert abs(an - fd) <= 1e-6 * max(1.0, abs(fd)), (delta, n)
            checked += 1
        assert checked == 100

    def test_sign_change_bracket(self):
        z = make_sample(1 / 3, 10**4, seed=21)
        assert grad_delta(0.2, z) > 0 > grad_delta(0.5, z)

    def test_negative_delta_rejected(self):
        with pytest.raises(DomainError):
            grad_delta(-0.1, [1.0, 2.0])


# Weights of the five-point central and forward first-derivative stencils.
_CENTRAL = ((-2, -1, 1, 2), np.array([1.0, -8.0, 8.0, -1.0]) / 12.0)
_FORWARD = ((0, 1, 2, 3, 4), np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0)


def difference_stencils(y, theta, family="gaussian"):
    """Per coordinate of natural theta: a difference step and its stencil.

    A tail coordinate's step is 1e-4 times its scale of variation,
    ``max(delta, 1 / max z^2)`` over the points of its side, capped at 1:
    near delta = 0 the j-th derivative grows like sum(z^(2j+2)).  A tail
    within two steps of 0 takes the forward stencil.  nu varies on the scale
    of nu - 2, and its step is 1e-2 (nu - 2): the likelihood is flat in nu
    near the cap, and a smaller step would leave mostly rounding noise; its
    difference is extrapolated (:func:`stencil_derivative`).  Other steps
    are 1e-4 max(1, |theta_k|).  Returns the model and a list of (step,
    offsets, weights).
    """
    tail = "hh" if family == "gaussian" and len(theta) == 4 else "h"
    model = _MODELS[(family, tail)]
    tau = model.build(theta).tau
    z = (y - tau.mu_x) / tau.sigma_x
    sides = [z <= 0.0, z > 0.0] if tau.is_double else [np.full(z.shape, True)]
    stencils = []
    for k, (name, value) in enumerate(zip(model.names, theta)):
        h = 1e-4 * max(1.0, abs(value))
        offsets, weights = _CENTRAL
        if name.startswith("delta"):
            z_sq_max = max(float(np.max(z * z, where=sides[k - 2], initial=0.0)), 1.0)
            h = 1e-4 * min(1.0, max(value, 1.0 / z_sq_max))
            if value < 2 * h:
                offsets, weights = _FORWARD
        elif name == "nu":
            h = 1e-2 * (value - 2.0)
        stencils.append((h, offsets, weights))
    return model, stencils


# Rounding noise of the extrapolated nu difference, in units of the noise of
# one difference on step h: that on h / 2 is twice as large, and the two
# combine as (16 D(h / 2) - D(h)) / 15.
_RICHARDSON_NOISE = 33.0 / 15.0


def stencil_derivative(f, theta, k, stencil, extrapolate):
    """The stencil's derivative of ``f`` along ``theta[k]``.

    With ``extrapolate`` the five-point difference on step h, whose error
    is ``c h^4 + O(h^6)``, is combined with the one on h / 2 by Richardson's
    rule into ``(16 D(h / 2) - D(h)) / 15``, which cancels the ``h^4`` term.
    On nu, at step 1e-2 (nu - 2), that term alone was 6.9e-5 relative
    (seed 8787 below), against a score right to 1e-8.
    """
    h, offsets, weights = stencil

    def difference(step):
        values = []
        for o in offsets:
            t = list(theta)
            t[k] += o * step
            values.append(f(t))
        return np.dot(weights, values) / step

    d = difference(h)
    return (16.0 * difference(0.5 * h) - d) / 15.0 if extrapolate else d


def loglik_differences(y, theta, family="gaussian"):
    """Finite-difference gradient of ``loglik`` at natural theta.

    Returns the gradient, on the steps of :func:`difference_stencils`, and a
    bound on its rounding noise, ``1e-13 |loglik| / step`` per coordinate
    (times ``_RICHARDSON_NOISE`` on nu).
    """
    model, stencils = difference_stencils(y, theta, family)

    def total(t):
        return loglik(y, model.build(t)).total

    nu = [name == "nu" for name in model.names]
    out = [float(stencil_derivative(total, theta, k, stencil, nu[k]))
           for k, stencil in enumerate(stencils)]
    steps = np.array([h for h, _, _ in stencils])
    noise = np.where(nu, _RICHARDSON_NOISE, 1.0) * 1e-13 * abs(total(theta)) / steps
    return np.array(out), noise


def natural_score(model, y, theta):
    """``model.score`` at natural ``theta``, its derivatives mapped to theta as
    :func:`~heavytail.estimation.mle_joint` maps them (:func:`_theta_derivatives`).
    """
    total, grad, hess = model.score(y, theta)
    return (total, *_theta_derivatives(model.names, theta, grad, hess))


def score_differences(y, theta, family="gaussian"):
    """Finite-difference Hessian from the analytic score at natural theta.

    Column k differences the natural-theta score (:func:`natural_score`)
    along theta_k on the steps of
    :func:`difference_stencils`.  The bound on its rounding noise is that of
    second differences of ``loglik``, ``1e-13 |loglik| / (step_i step_j)``
    (times ``_RICHARDSON_NOISE`` in the nu column).
    """
    model, stencils = difference_stencils(y, theta, family)

    def score(t):
        return natural_score(model, y, t)[1]

    nu = [name == "nu" for name in model.names]
    cols = [stencil_derivative(score, theta, k, stencil, nu[k])
            for k, stencil in enumerate(stencils)]
    steps = np.array([h for h, _, _ in stencils])
    total = model.score(y, theta)[0]
    noise = np.where(nu, _RICHARDSON_NOISE, 1.0) * 1e-13 * abs(total) / steps
    return np.array(cols).T, np.outer(1.0 / steps, noise)


class TestScore:
    """The Gaussian-input score that drives the h and hh joint MLE."""

    @settings(max_examples=80, deadline=None)
    @given(
        double=hst.booleans(),
        delta=hst.floats(0.0, 2.0),
        delta_right=hst.floats(0.0, 2.0),
        mu=hst.floats(-1.0, 1.0),
        sigma=hst.floats(0.5, 3.0),
        seed=hst.integers(0, 2**32 - 1),
    )
    @example(double=False, delta=0.0, delta_right=0.0, mu=0.2, sigma=1.3, seed=0)
    @example(double=True, delta=0.0, delta_right=0.4, mu=0.2, sigma=1.3, seed=0)
    def test_matches_loglik_differences(self, double, delta, delta_right, mu, sigma, seed):
        y = make_sample((0.1, 0.5), 300, seed=seed, mu=0.2, sigma=1.3)
        theta = [mu, sigma, delta] + ([delta_right] if double else [])
        model = _MODELS[("gaussian", "hh" if double else "h")]
        assert model.score is _gaussian_loglik_score
        total, score, _ = natural_score(model, y, theta)
        fd, _ = loglik_differences(y, theta)
        assert np.max(np.abs(score - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))
        delta_arg = (delta, delta_right) if double else delta
        ref = loglik(y, LambertWDist(Gaussian(mu, sigma), delta_arg)).total
        assert total == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("delta", [0.0, 1e-8, 0.1, 1 / 3, 1.0, 2.0])
    def test_tail_coordinate_is_grad_delta(self, delta):
        z = make_sample(0.2, 500, seed=14)
        score = _gaussian_loglik_score(z, [0.0, 1.0, delta])[1]
        assert score[2] == pytest.approx(grad_delta(delta, z), rel=1e-10)
        # with two equal tails the sides add up to the same derivative
        pair = _gaussian_loglik_score(z, [0.0, 1.0, delta, delta])[1]
        assert pair[2] + pair[3] == pytest.approx(score[2], rel=1e-10)


# The nu of a search that ends on the box bound of r = log(1 - 2/nu).
NU_ON_CAP = _to_theta(("nu",), _search_bounds(("nu",))[1])[0]


class TestStudentTScore:
    """The Student-t-input score that drives the student-t joint MLE."""

    @settings(max_examples=80, deadline=None)
    @given(
        delta=hst.floats(0.0, 2.0),
        log_nu=hst.floats(math.log(0.01), math.log(_NU_CAP)),
        mu=hst.floats(-1.0, 1.0),
        scale=hst.floats(0.5, 3.0),
        far=hst.booleans(),
        seed=hst.integers(0, 2**32 - 1),
    )
    @example(delta=0.0, log_nu=math.log(0.01), mu=0.2, scale=1.3, far=True, seed=0)
    @example(delta=0.0, log_nu=math.log(_NU_CAP), mu=0.2, scale=1.3, far=True, seed=0)
    @example(delta=0.7, log_nu=math.log(_NU_CAP), mu=0.2, scale=1.3, far=False, seed=0)
    @example(delta=0.4, log_nu=math.log(0.01), mu=-0.3, scale=0.8, far=True, seed=1)
    # A single five-point difference on nu was 6.9e-5 relative off here.
    @example(delta=1.0, log_nu=1.0, mu=0.2265625, scale=2.8515625, far=False, seed=8787)
    def test_matches_loglik_differences(self, delta, log_nu, mu, scale, far, seed):
        # nu = 2 + exp(log_nu) spans 2.01 to the cap; the score comes in the
        # search coordinates (mu, log s, delta, log(1 - 2/nu)) and is mapped
        # to natural theta as mle_joint maps it.
        y = make_sample((0.1, 0.5), 300, seed=seed, mu=0.2, sigma=1.3)
        if far:
            y[:3] = [1e8, -1e4, 40.0]
        theta = [mu, scale, delta, 2.0 + math.exp(log_nu)]
        model = _MODELS[("student-t", "h")]
        assert model.score is _student_t_loglik_score
        total, score, _ = natural_score(model, y, theta)
        fd, noise = loglik_differences(y, theta, family="student-t")
        assert np.all(np.abs(score - fd) <= 1e-5 * np.abs(fd) + noise), (score, fd)
        assert total == loglik(y, _MODELS[("student-t", "h")].build(theta)).total

    def test_normalizer_from_the_stored_triple(self, monkeypatch):
        # The normalizer's nu derivatives in the score are those of the
        # one (log-normalizer, d/dnu, d2/dnu2) triple that logpdf computes.
        # At nu = 4, dnu/dr = nu (nu - 2) / 2 = 4 and d2nu/dr2 = (nu - 1) 4
        # = 12, so adding 1 to both nu derivatives adds n 4 to the r score
        # and n (4^2 + 12) to its curvature.
        y = make_sample(0.2, 300, seed=3)
        theta, dnu, d2nu = [0.1, 1.2, 0.2, 4.0], 4.0, 12.0
        _, grad, hess = _student_t_loglik_score(y, theta)
        calls = []
        original = distributions._t_log_norm

        def shifted(nu):
            calls.append(nu)
            value, dnu, d2nu = original(nu)
            return value, dnu + 1.0, d2nu + 1.0

        monkeypatch.setattr(distributions, "_t_log_norm", shifted)
        _, grad2, hess2 = _student_t_loglik_score(y, theta)
        assert calls == [4.0]
        np.testing.assert_array_equal(grad2[:3], grad[:3])
        np.testing.assert_array_equal(hess2[:, :3], hess[:, :3])
        assert grad2[3] - grad[3] == pytest.approx(y.size * dnu, rel=1e-9)
        assert hess2[3, 3] - hess[3, 3] == pytest.approx(y.size * (dnu * dnu + d2nu), rel=1e-9)

    def test_objective_at_nu_two(self):
        # expm1(-800) rounds to -1, so nu == 2.0 exactly: no model, +inf.
        y = make_sample(0.1, 100, seed=2)
        model = _MODELS[("student-t", "h")]
        value, grad, hess, payload = _objective([0.0, 0.0, 0.1, -800.0], y, model)
        assert value == math.inf and grad is hess is payload is None
        with pytest.raises(DomainError):
            _student_t_loglik_score(y, [0.0, 1.0, 0.1, 2.0])


class TestHessian:
    """The exact Hessian that drives the Newton search and the standard errors."""

    @settings(max_examples=90, deadline=None)
    @given(
        model=hst.sampled_from(sorted(_MODELS)),
        delta=hst.floats(0.0, 2.0),
        delta_right=hst.floats(0.0, 2.0),
        log_nu=hst.floats(math.log(0.01), math.log(_NU_CAP)),
        mu=hst.floats(-1.0, 1.0),
        scale=hst.floats(0.5, 3.0),
        far=hst.booleans(),
        seed=hst.integers(0, 2**32 - 1),
    )
    @example(model=("gaussian", "h"), delta=0.0, delta_right=0.0, log_nu=0.0, mu=0.2,
             scale=1.3, far=True, seed=0)
    @example(model=("gaussian", "hh"), delta=0.0, delta_right=0.4, log_nu=0.0, mu=0.2,
             scale=1.3, far=True, seed=0)
    @example(model=("student-t", "h"), delta=0.0, delta_right=0.0, log_nu=math.log(0.01),
             mu=0.2, scale=1.3, far=True, seed=0)
    @example(model=("student-t", "h"), delta=0.0, delta_right=0.0,
             log_nu=math.log(_NU_CAP), mu=0.2, scale=1.3, far=True, seed=0)
    @example(model=("student-t", "h"), delta=0.7, delta_right=0.0,
             log_nu=math.log(_NU_CAP), mu=0.2, scale=1.3, far=False, seed=0)
    @example(model=("student-t", "h"), delta=0.4, delta_right=0.0, log_nu=math.log(0.01),
             mu=-0.3, scale=0.8, far=True, seed=1)
    def test_matches_score_differences(
        self, model, delta, delta_right, log_nu, mu, scale, far, seed
    ):
        # nu = 2 + exp(log_nu), 2.01 at log_nu = log(0.01); the Hessian is
        # symmetric, and each entry matches five-point differences of the
        # score within 1e-5 relative plus the rounding bound.
        family, tail = model
        y = make_sample((0.1, 0.5), 300, seed=seed, mu=0.2, sigma=1.3)
        if far:
            y[:3] = [1e8, -1e4, 40.0]
        theta = [mu, scale, delta] + ([delta_right] if tail == "hh" else [])
        if family == "student-t":
            theta.append(2.0 + math.exp(log_nu))
        else:
            # The hh likelihood changes its second z derivative where a point
            # crosses mu; the location stencil must not straddle a point.
            assume(tail == "h" or np.min(np.abs(y - mu)) > 4e-4 * max(1.0, abs(mu)))
        # symmetric in the search coordinates, and so in natural theta
        search_hess = _MODELS[model].score(y, theta)[2]
        assert np.array_equal(search_hess, search_hess.T)
        _, _, hess = natural_score(_MODELS[model], y, theta)
        fd, noise = score_differences(y, theta, family)
        assert np.array_equal(hess, hess.T)
        assert np.all(np.abs(hess - fd) <= 1e-5 * np.abs(fd) + noise), (hess, fd)


def moment_residual(z, tails):
    """``_moment_residual`` of ``z`` at one tail ``(delta,)`` or a (left, right) pair.

    A pair is given to it as one tail per point, ``z <= 0`` on the left.
    """
    if len(tails) == 1:
        return _moment_residual(z, tails[0])
    left = z <= 0.0
    return _moment_residual(z, np.where(left, *tails), (left, ~left))


def moment_differences(z, tails, f=lambda z, tails: moment_residual(z, tails)[0]):
    """Finite-difference Jacobian of ``f(z, tails)`` in (mu, log sigma, tails).

    mu moves ``z = (y - mu) / sigma`` to ``z - h`` (mu in units of sigma),
    log sigma to ``z exp(-h)``, both on the step 1e-4 with the central
    stencil.  Each tail's step follows :func:`loglik_differences`: 1e-4
    times ``max(delta, 1 / max z^2)`` over the points of its side, capped
    at 1, with the forward stencil within two steps of 0.
    """
    offsets, weights = _CENTRAL
    cols = [np.dot(weights, [f(move(o * 1e-4), tails) for o in offsets]) / 1e-4
            for move in (lambda h: z - h, lambda h: z * math.exp(-h))]
    left = z <= 0.0
    sides = (z,) if len(tails) == 1 else (z[left], z[~left])
    for k, (z_k, delta) in enumerate(zip(sides, tails)):
        z_sq_max = max(float(np.max(z_k * z_k, initial=0.0)), 1.0)
        h = 1e-4 * min(1.0, max(delta, 1.0 / z_sq_max))
        offsets, weights = _FORWARD if delta < 2 * h else _CENTRAL
        values = []
        for o in offsets:
            moved = list(tails)
            moved[k] = delta + o * h
            values.append(f(z, moved))
        cols.append(np.dot(weights, values) / h)
    return np.array(cols).T


def standardized_sample(delta, n, seed):
    y = make_sample(delta, n, seed=seed)
    return (y - np.median(y)) / np.std(y, ddof=1)


class TestMomentResidual:
    """The moment rows, Jacobian and curvature that drive the IGMM solve."""

    @settings(max_examples=60, deadline=None)
    @given(
        delta_left=hst.floats(0.0, 2.0),
        delta_right=hst.floats(0.0, 2.0),
        seed=hst.integers(0, 2**32 - 1),
    )
    @example(delta_left=0.0, delta_right=0.0, seed=0)
    @example(delta_left=0.0, delta_right=0.4, seed=0)
    @example(delta_left=0.4, delta_right=0.0, seed=0)
    def test_jacobian_matches_differences(self, delta_left, delta_right, seed):
        z = standardized_sample((0.1, 0.5), 300, seed)
        tails = (delta_left, delta_right)
        r, jac, _ = moment_residual(z, tails)
        fd = moment_differences(z, tails)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))
        # the rows are those of the back-transformed sample
        u = np.where(z <= 0.0, w_delta(z, delta_left), w_delta(z, delta_right))
        skew, kurtosis = _central_moment_stats(u)
        np.testing.assert_allclose(
            r, [np.mean(u), np.var(u, ddof=1) - 1.0, skew, kurtosis - 3.0], rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("tails", [(0.3,), (0.0,), (0.2, 0.6), (0.0, 0.4), (0.5, 10.0)],
                             ids=["h", "h-zero", "hh", "hh-zero", "hh-upper"])
    def test_slope_curvature_matches_differences(self, tails):
        # The least-squares slopes J_k' r of the fitted rows (the kurtosis
        # for one tail, skewness and kurtosis for two): J_k' J plus the
        # curvature is their Jacobian.
        fit = slice(3, 4) if len(tails) == 1 else slice(2, 4)
        z = standardized_sample((0.1, 0.5), 300, seed=7)

        def slopes(z, tails):
            r, jac, _ = moment_residual(z, tails)
            return r[fit] @ jac[fit, 2:]

        def pair(v):  # weights on (skewness, kurtosis)
            return (v[0], v[1]) if len(tails) == 2 else (0.0, v[0])

        r, jac, curvature = moment_residual(z, tails)
        exact = jac[fit, 2:].T @ jac[fit] + curvature(*pair(r[fit]))
        fd = moment_differences(z, tails, slopes)
        np.testing.assert_allclose(exact, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))
        # with the weights J_k, the change of |J_k|^2 / 2
        for k in range(len(tails)):
            fd = moment_differences(
                z, tails, lambda z, t: 0.5 * np.sum(moment_residual(z, t)[1][fit, 2 + k] ** 2))
            exact = curvature(*pair(jac[fit, 2 + k]))[k]
            np.testing.assert_allclose(exact, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))

    @pytest.mark.parametrize("delta", [0.0, 0.1, 1 / 3, 1.0])
    def test_equal_tails_add_up(self, delta):
        z = standardized_sample(0.2, 500, seed=15)
        r1, jac1, _ = moment_residual(z, (delta,))
        r2, jac2, _ = moment_residual(z, (delta, delta))
        # one tail per point is the one-tail sample, bit for bit
        np.testing.assert_array_equal(r2, r1)
        np.testing.assert_array_equal(jac2[:, :2], jac1[:, :2])
        np.testing.assert_allclose(jac1[:, 2], jac2[:, 2] + jac2[:, 3], rtol=1e-10, atol=1e-12)


def assert_least_squares_match(z, tails):
    """The tails are a constrained least-squares match of the moment rows of ``z``.

    One tail fits the kurtosis, two the skewness and the kurtosis.  Either
    the rows match (to 1e-10, or to within a Gauss-Newton step below the
    stopping tolerance, where the Jacobian is steep), or the point is a
    constrained minimum of ``|r|^2 / 2``: a free tail has zero slope, and a
    tail on a bound of the box is exactly on it, with a slope that is zero
    or points out of the box.
    """
    rows = slice(3, 4) if len(tails) == 1 else slice(2, 4)
    r, jac, _ = moment_residual(z, tails)
    r, jac = r[rows], jac[rows, 2:]
    norm_r = np.linalg.norm(r)
    to_match = np.linalg.lstsq(jac, -r, rcond=None)[0]
    if norm_r <= 1e-10 or np.all(np.abs(to_match) <= 1e-12 * np.maximum(1.0, tails)):
        return
    lo, hi = estimation._DELTA_BOUNDS
    assert lo in tails or hi in tails, tails
    grad = jac.T @ r
    for k, d in enumerate(tails):
        small = 1e-5 * np.linalg.norm(jac[:, k]) * norm_r
        if d == lo:
            assert grad[k] >= -small
        elif d == hi:
            assert grad[k] <= small
        else:
            assert abs(grad[k]) <= small


def classic_update(y, fit):
    """One classic IGMM update from the end of ``fit``.

    Standardize by its location and scale, match the tails to the moments
    of the back-transformed sample from its tails by :func:`_gmm_step`, and
    take location and scale from the back-transformed data.  Returns the
    new (mu, sigma, tails).
    """
    mu, sigma, tails = fit.tau.mu_x, fit.tau.sigma_x, fit.tau.delta
    match = _gmm_step((y - mu) / sigma, list(np.atleast_1d(tails))).x
    tails = tuple(match) if fit.tau.is_double else match[0]
    x = w_tau(y, TailParams(mu, sigma, tails))
    return float(np.mean(x)), float(np.std(x, ddof=1)), tails


def update_step(y, fit):
    """How far :func:`classic_update` moves ``fit``: location and scale in
    units of its sigma, tails absolutely."""
    mu, sigma, tails = classic_update(y, fit)
    moved = [(mu - fit.tau.mu_x) / fit.tau.sigma_x, sigma / fit.tau.sigma_x - 1.0]
    moved += np.atleast_1d(np.subtract(tails, fit.tau.delta)).tolist()
    return float(np.max(np.abs(moved)))


class TestMleDeltaOnly:
    def test_boundary_condition(self):
        r = mle_delta_only([1.0, 1.0, 1.0, 1.0])
        assert r.tau.delta == 0.0
        assert r.boundary_hit == "delta_lower"

    def test_huge_observations_do_not_overflow(self):
        # max |z| = 5.1e123: sum z^4 overflowed with a RuntimeWarning, which
        # pyproject.toml turns into an error; with warnings off the root was
        # the same 1.99.
        z = rlambertw(1000, LambertWDist(StudentT(5.0), 1.0), seed=143)
        r = mle_delta_only(z)
        assert r.tau.delta == pytest.approx(1.9901313582360889, rel=1e-12)
        assert r.converged
        with pytest.raises(DataError, match="all zeros"):
            mle_delta_only(np.zeros(5))

    def test_recovers_delta_one(self):
        z = make_sample(1.0, 10**4, seed=33)
        r = mle_delta_only(z)
        assert abs(r.tau.delta - 1.0) <= 0.07
        assert r.converged and r.boundary_hit is None
        assert r.std_errors is not None and r.std_errors["delta"] > 0

    def test_dichotomy_small_battery(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            n = int(rng.integers(8, 64))
            src = float(rng.choice([0.0, 0.3, 1.0]))
            z = make_sample(src, n, seed=int(rng.integers(1e9)))
            r = mle_delta_only(z)
            cond = float(np.sum(z**4)) / float(np.sum(z**2)) <= 3.0
            assert (r.tau.delta == 0.0) == cond
            if r.tau.delta > 0:
                # gradient changes sign from + to - around the root
                assert grad_delta(r.tau.delta * 0.98, z) > 0
                assert grad_delta(r.tau.delta * 1.02, z) < 0

    @pytest.mark.parametrize(
        "delta, n, seed", [(0.1, 1000, 0), (1 / 3, 400, 1), (1.0, 60, 2), (5.0, 1000, 3)]
    )
    def test_root_matches_brentq(self, delta, n, seed):
        # The Newton root is Brent's (xtol 1e-12), and the standard error
        # is that of central differences of grad_delta.
        from scipy import optimize

        z = make_sample(delta, n, seed=seed)
        r = mle_delta_only(z)
        root = optimize.brentq(grad_delta, 0.0, 64.0, args=(z,), xtol=1e-14)
        assert abs(r.tau.delta - root) <= 1e-12
        assert r.iterations <= 8  # Newton converges quadratically here
        h = 1e-5 * root
        second = (grad_delta(root + h, z) - grad_delta(root - h, z)) / (2.0 * h)
        assert r.std_errors["delta"] == pytest.approx(1.0 / math.sqrt(-second), rel=1e-6)

    @pytest.mark.parametrize("delta, n, seed", [(0.1, 1000, 0), (1.0, 60, 2), (5.0, 1000, 3)])
    def test_std_error_at_the_root(self, delta, n, seed):
        # The standard error from the curvature of the last Newton step, at
        # most 1e-13 from the root, is the one from the curvature at the root.
        z = make_sample(delta, n, seed=seed)
        r = mle_delta_only(z)
        at_root = 1.0 / math.sqrt(-_delta_slope(r.tau.delta, z)[1])
        assert r.std_errors["delta"] == pytest.approx(at_root, rel=2e-12)

    def test_boundary_frequency_under_null(self):
        # with no true tails the boundary estimator fires about half the time
        hits = 0
        for rep in range(200):
            z = make_sample(0.0, 1000, seed=10_000 + rep)
            if mle_delta_only(z).tau.delta == 0.0:
                hits += 1
        assert 0.35 <= hits / 200 <= 0.75

    def test_loglik_decomposition(self):
        z = make_sample(0.5, 500, seed=2)
        r = mle_delta_only(z)
        np.testing.assert_allclose(
            r.loglik_total, r.loglik_input + r.loglik_penalty, atol=1e-8
        )


class TestTaylorDelta:
    def test_gaussian_reference_is_zero(self):
        assert taylor_delta(3.0) == 0.0

    def test_negative_discriminant_clamps(self):
        assert taylor_delta(2.0) == 0.0

    def test_formula_value(self):
        # direct evaluation: (sqrt(66 * 5.5082 - 162) - 6) / 66
        expected = (math.sqrt(66 * 5.5082 - 162) - 6) / 66
        np.testing.assert_allclose(taylor_delta(5.5082), expected, rtol=1e-12)
        np.testing.assert_allclose(expected, 0.1241897, atol=1e-7)

    def test_monotone_in_kurtosis(self):
        vals = [taylor_delta(g) for g in np.linspace(3, 40, 50)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestDeltaGMM:
    def test_zero_when_kurtosis_at_target(self):
        z = make_sample(0.0, 5000, seed=8)
        z = (z - z.mean()) / z.std()
        if kurt(z) <= 3.0:
            assert delta_gmm(z).delta == 0.0

    def test_matches_target_kurtosis(self):
        z = make_sample(0.5, 10**4, seed=13)
        res = delta_gmm(z)
        assert not res.at_upper_bound
        u = w_delta(z, res.delta)
        assert abs(kurt(u) - 3.0) <= 1e-6

    def test_monte_carlo_recovery(self):
        errs = []
        for rep in range(100):
            z = make_sample(0.2, 10**4, seed=500 + rep)
            errs.append(delta_gmm(z).delta - 0.2)
        errs = np.asarray(errs)
        assert np.all(np.abs(errs) <= 0.1)

    def test_upper_bound_tag(self, monkeypatch):
        z = np.concatenate([np.full(50, 0.1), np.full(50, -0.1), [50.0, -50.0]])
        assert kurt(z) > 3.0
        monkeypatch.setattr(estimation, "_DELTA_BOUNDS", (0.0, 0.01))
        res = delta_gmm(z)
        assert res.at_upper_bound and res.delta == 0.01

    @settings(max_examples=40, deadline=None)
    @given(
        delta=hst.floats(0.0, 2.0),
        n=hst.sampled_from([60, 400, 1000]),
        seed=hst.integers(0, 2**32 - 1),
    )
    @example(delta=0.0, n=400, seed=4)
    def test_root_matches_brentq(self, delta, n, seed):
        from scipy import optimize

        z = standardized_sample(delta, n, seed)

        def mismatch(d):
            return _central_moment_stats(w_delta(z, d))[1] - 3.0

        res = delta_gmm(z)
        if mismatch(0.0) <= 0.0:
            assert res == (0.0, False)
            return
        if mismatch(10.0) >= 0.0:
            assert res == (10.0, True)
            return
        root = optimize.brentq(mismatch, 0.0, 10.0, xtol=1e-13, rtol=8.9e-16)
        assert not res.at_upper_bound
        assert abs(res.delta - root) <= 1e-12
        # the tail step of igmm finds the same root from warm starts
        for start in (0.0, 0.5 * root, 2.0 * root, 10.0):
            assert abs(_gmm_step(z, [start]).x[0] - root) <= 1e-12


class TestIGMM:
    def test_gaussian_data(self):
        y = make_sample(0.0, 1000, seed=55)
        r = igmm(y)
        assert r.converged
        assert abs(r.tau.mu_x) <= 0.1
        assert abs(r.tau.sigma_x - 1.0) <= 0.1
        assert r.tau.delta <= 0.05

    def test_heavy_data(self):
        y = make_sample(1 / 3, 1000, seed=56)
        r = igmm(y)
        assert abs(r.tau.delta - 1 / 3) <= 0.1

    def test_stopping_rule_kurtosis(self):
        y = make_sample(0.4, 2000, seed=57)
        r = igmm(y)
        x = w_tau(y, r.tau)
        assert abs(kurt(x) - 3.0) <= 10 * 1.22e-4

    def test_fixed_point(self):
        y = make_sample(0.25, 1500, seed=58)
        r = igmm(y)
        # one more classic update from the returned estimate moves it by at
        # most 1e-10 sigma; the loop that stopped on a step of 1.22e-4 in
        # data units ended up to that far off
        assert update_step(y, r) <= 1e-10

    def test_non_convergence_flag(self, monkeypatch):
        monkeypatch.setattr(estimation, "_IGMM_MAX_ITERATIONS", 1)
        y = make_sample(0.4, 500, seed=59)
        r = igmm(y)
        assert not r.converged
        assert r.iterations == 1

    def test_upper_bound_flag(self):
        # A t input with nu = 2.1 and delta = 1 needs more tail than the box
        # holds: the loop converges with the tail on 10.
        y = rlambertw(200, LambertWDist(StudentT(2.1), 1.0), seed=4)
        r = igmm(y)
        assert r.converged and r.tau.delta == 10.0
        assert r.boundary_hit == "delta_upper"

    def test_short_or_degenerate_data(self):
        with pytest.raises(DataError):
            igmm(np.arange(5.0))
        with pytest.raises(DataError):
            igmm(np.ones(50))

    @pytest.mark.parametrize("fit", [igmm, igmm_double_tail], ids=["h", "hh"])
    def test_non_finite_sample_scale(self, fit):
        # One point at 1e200 overflows the sample variance: one DataError
        # that says so, and no RuntimeWarning on the way.
        y = make_sample(0.2, 200, seed=1)
        y[0] = 1e200
        with pytest.raises(DataError, match="sample scale .* not finite"):
            fit(y)

    @pytest.mark.parametrize("fit", [igmm, igmm_double_tail], ids=["h", "hh"])
    def test_non_finite_sample_kurtosis(self, fit):
        # max |y| is 5.1e123 and the sd finite, but the fourth moment
        # overflows: the NaN Taylor start tail reached the model
        # constructors, which raised a DomainError about the model.
        y = rlambertw(1000, LambertWDist(StudentT(5.0), 1.0), seed=143)
        with pytest.raises(DataError, match="sample kurtosis of the data is not finite"):
            fit(y)

    def test_heavy_input_start_scale(self):
        # A t_5 input with delta = 1: the sample sd is 1.1e17.  From that sd
        # divided by variance_factor(0.499) (about 106) the loop ended at
        # mu 3.5e15, sigma 1.1e17, delta 0, loglik -40668.9, flagged
        # converged.  It now starts at the interquartile scale and ends at
        # the fixed point, which the classic loop run to a step of 1e-13
        # reaches too; stopped at a step of 1.22e-4 it ended at -2699.8735.
        y = rlambertw(1000, LambertWDist(StudentT(5.0), 1.0), seed=103)
        r = igmm(y)
        assert r.converged and r.boundary_hit is None
        assert [r.tau.mu_x, r.tau.sigma_x, r.tau.delta] == pytest.approx(
            [0.08666501736598, 0.38508953279004, 2.41463730091488], abs=1e-8)
        assert r.loglik_total == pytest.approx(-2699.9250, abs=1e-4)


class TestIGMMFixedPoint:
    """Both IGMMs end at the fixed point of the classic update, whatever the
    start, the point order or the units."""

    SERIES = {
        # the tail ends on its upper bound 10
        "t2.1": lambda: rlambertw(200, LambertWDist(StudentT(2.1), 1.0), seed=4),
        "t5-143": lambda: rlambertw(1000, LambertWDist(StudentT(5.0), 1 / 3), seed=143),
        # the left tail ends on 0 in the two-tail fit
        "one-sided": lambda: rlambertw(1000, LambertWDist(Gaussian(0.2, 1.1), (0.0, 0.3)),
                                       seed=0),
        "gaussian-30": lambda: rlambertw(30, LambertWDist(Gaussian(0, 1), 0.1), seed=1003),
        "gaussian-1000": lambda: rlambertw(1000, LambertWDist(Gaussian(0, 1), 1.0), seed=6),
    }

    @pytest.mark.parametrize("fit", [igmm, igmm_double_tail], ids=["h", "hh"])
    @pytest.mark.parametrize("series", SERIES)
    def test_one_update_certificate(self, series, fit):
        # One classic update moves the end by at most 1e-10 sigma; the loop
        # that stopped on a step of 1.22e-4 in data units ended up to 1.3e-3
        # sigma away on t_5 data, and 12 sigma on the t_2.1 series.
        y = self.SERIES[series]()
        r = fit(y)
        assert r.converged
        assert update_step(y, r) <= 1e-10

    @pytest.mark.parametrize("fit", [igmm, igmm_double_tail], ids=["h", "hh"])
    def test_point_order(self, fit):
        # The two-tail loop summed the moments left side first and ended
        # where rounding stopped it, 2.8e-10 relative apart between orders
        # of this y.
        y = self.SERIES["one-sided"]()
        ref = fit(y)
        for seed in range(3):
            r = fit(np.random.default_rng(seed).permutation(y))
            for name, value in ref.params.items():
                assert r.params[name] == pytest.approx(value, rel=1e-10, abs=1e-300), name

    @pytest.mark.parametrize("fit", [igmm, igmm_double_tail], ids=["h", "hh"])
    @pytest.mark.parametrize("series", ["t5-143", "one-sided", "gaussian-30"])
    def test_start(self, series, fit, monkeypatch):
        # The letter-value start and the kurtosis start end within 1e-8 sigma.
        y = self.SERIES[series]()
        ref = fit(y)
        g2 = _central_moment_stats(y)[1]
        monkeypatch.setattr(estimation, "_default_start",
                            lambda y, names: estimation._moment_start(y, names, g2))
        r = fit(y)
        assert r.converged
        sigma = ref.tau.sigma_x
        assert abs(r.tau.mu_x - ref.tau.mu_x) <= 1e-8 * sigma
        assert abs(r.tau.sigma_x - sigma) <= 1e-8 * sigma
        assert np.allclose(r.tau.delta, ref.tau.delta, rtol=0.0, atol=1e-8)

    def test_fewer_passes(self, monkeypatch):
        # W passes (calls of _w_and_w_delta, the likelihood of the result
        # included) summed over 20 series (n = 1000, delta in {0, 0.1, 1/3,
        # 1}, seeds 300-304).  The classic loop, one tail search per update,
        # made 390 (h) and 374 (hh); the single search makes at most 65 % of
        # that.  Pass counts are deterministic, unlike timings.
        calls = [0]
        original = estimation._w_and_w_delta

        def counting(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(estimation, "_w_and_w_delta", counting)
        for fit, before in ((igmm, 390), (igmm_double_tail, 374)):
            calls[0] = 0
            for delta in (0.0, 0.1, 1 / 3, 1.0):
                for seed in range(300, 305):
                    fit(rlambertw(1000, LambertWDist(Gaussian(0, 1), delta), seed=seed))
            assert calls[0] <= 0.65 * before, (fit.__name__, calls[0])


class TestIGMMDoubleTail:
    @settings(max_examples=40, deadline=None)
    @given(
        delta_left=hst.floats(0.0, 1.0),
        delta_right=hst.floats(0.0, 1.0),
        n=hst.sampled_from([60, 400, 1000]),
        start=hst.one_of(
            hst.tuples(hst.floats(0.0, 3.0), hst.floats(0.0, 3.0)), hst.floats(0.0, 3.0)
        ),
        seed=hst.integers(0, 2**32 - 1),
    )
    @example(delta_left=0.0, delta_right=0.3, n=1000, start=(0.0, 0.0), seed=0)
    @example(delta_left=0.3, delta_right=0.0, n=60, start=(1e-17, 0.3), seed=1)
    @example(delta_left=0.0, delta_right=0.0, n=1000, start=(0.0, 0.0), seed=1001)
    # Undamped Gauss-Newton failed these: a zigzag with one tail on the upper
    # bound and a large residual, and a stall with a tail 1e-9 above 0.
    @example(delta_left=0.375, delta_right=0.99609375, n=400, start=(0.0, 0.0), seed=37901)
    @example(delta_left=0.68359375, delta_right=0.6875, n=1000, start=(0.0, 0.0), seed=781)
    @example(delta_left=0.0, delta_right=1.0, n=60, start=(1.0, 2.0), seed=203438620)
    # One tail: held at 0, and a root reached from either side.
    @example(delta_left=0.0, delta_right=0.0, n=1000, start=0.0, seed=1001)
    @example(delta_left=0.0, delta_right=0.0, n=1000, start=3.0, seed=1001)
    @example(delta_left=1.0, delta_right=1.0, n=60, start=0.0, seed=4)
    @example(delta_left=0.5, delta_right=0.2, n=400, start=3.0, seed=4)
    # From (1, 0) the match needs 151 evaluations to reach (10, 10): a
    # 100-step budget ended it at (0.22, 0.047), residual (3.3, 34).
    @example(delta_left=0.5, delta_right=0.75, n=1000, start=(1.0, 0.0), seed=41)
    def test_inner_step_optimal(self, delta_left, delta_right, n, start, seed):
        # The classic tail update: two tails match (skewness, kurtosis - 3),
        # one tail the kurtosis only.
        z = standardized_sample((delta_left, delta_right), n, seed)
        assert_least_squares_match(z, tuple(_gmm_step(z, list(np.atleast_1d(start))).x))

    @settings(max_examples=40, deadline=None)
    @given(
        delta_left=hst.floats(0.0, 1.0),
        delta_right=hst.floats(0.0, 1.0),
        n=hst.sampled_from([30, 60, 400, 1000]),
        seed=hst.integers(0, 2**32 - 1),
    )
    @example(delta_left=0.0, delta_right=0.3, n=1000, seed=0)
    @example(delta_left=0.3, delta_right=0.0, n=60, seed=1)
    @example(delta_left=0.0, delta_right=0.0, n=1000, seed=1001)
    @example(delta_left=0.375, delta_right=0.99609375, n=400, seed=37901)
    @example(delta_left=0.68359375, delta_right=0.6875, n=1000, seed=781)
    @example(delta_left=0.0, delta_right=1.0, n=60, seed=203438620)
    @example(delta_left=0.5, delta_right=0.75, n=1000, seed=41)
    def test_ends_at_least_squares_match(self, delta_left, delta_right, n, seed):
        # At the end the back-transformed sample has mean 0 and sd 1, and
        # the tails are a constrained least-squares match of (skewness,
        # kurtosis - 3): either the moments match, or a tail is exactly on a
        # bound with a slope that points out of the box and the free tail's
        # slope is zero.  A tail that the data do not need is exactly 0.
        y = rlambertw(n, LambertWDist(Gaussian(0.3, 1.7), (delta_left, delta_right)), seed=seed)
        r = igmm_double_tail(y)
        assert r.converged
        z = (y - r.tau.mu_x) / r.tau.sigma_x
        rows = moment_residual(z, r.tau.delta)[0]
        assert abs(rows[0]) <= 1e-10 and abs(rows[1]) <= 1e-10
        assert_least_squares_match(z, r.tau.delta)

    @pytest.mark.parametrize("start", [[1e-13], [1e-13, 1e-13]], ids=["h", "hh"])
    def test_step_sample_after_snap(self, start):
        # Tails 1e-13 above 0 on data that need none snap onto exactly 0.
        z = rlambertw(1000, LambertWDist(Gaussian(0, 1), 0.0), seed=1001)
        assert _gmm_step(z, start).x == [0.0] * len(start)

    def test_heavy_moments_do_not_overflow(self):
        # m4 * dm2 overflowed in the kurtosis row of the tail step's
        # Jacobian here, which raised under the RuntimeWarning filter.
        y = rlambertw(1000, LambertWDist(StudentT(5.0), 1 / 3), seed=143)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = igmm_double_tail(y)
        # The classic loop, stopped at a step of 1.22e-4, took 37 updates to
        # -2698.0613; its fixed point is here.
        assert r.converged and r.iterations == 10
        assert r.loglik_total == pytest.approx(-2698.0516, abs=1e-4)

    def test_gaussian_sample_gives_exact_zero_tails(self):
        # The Nelder-Mead step left both tails at about 1e-17 here, so the
        # fit was not flagged.
        y = rlambertw(1000, LambertWDist(Gaussian(0, 1), 0.0), seed=1001)
        r = igmm_double_tail(y)
        assert r.tau.delta == (0.0, 0.0)
        assert r.boundary_hit == "delta_lower"

    def test_symmetric_data(self):
        y = make_sample(0.2, 10**4, seed=61)
        r = igmm_double_tail(y)
        assert abs(r.tau.delta_left - r.tau.delta_right) <= 0.1

    def test_one_sided_data(self):
        u = np.random.Generator(np.random.Philox(62)).standard_normal(10**4)
        tau = TailParams(0.0, 1.0, (0.0, 0.3))
        y = h_tau(u, tau)
        r = igmm_double_tail(y)
        assert r.tau.delta_left <= 0.05
        assert abs(r.tau.delta_right - 0.3) <= 0.12

    def test_gaussian_data(self):
        y = make_sample(0.0, 2000, seed=63)
        r = igmm_double_tail(y)
        assert r.tau.delta_left <= 0.06 and r.tau.delta_right <= 0.06

    def test_zero_tail_flags_lower_boundary(self):
        # same rule as igmm and mle_joint(tail="hh"): a zero tail is a boundary hit
        y = make_sample(0.0, 1000, seed=0, mu=0.3, sigma=1.7)
        r = igmm_double_tail(y)
        assert min(r.tau.delta_left, r.tau.delta_right) == 0.0
        assert r.boundary_hit == "delta_lower"
        assert igmm(y).boundary_hit == "delta_lower"
        assert mle_joint(y, tail="hh").boundary_hit == "delta_lower"


class TestMleJoint:
    def test_recovers_parameters(self):
        y = make_sample(0.1, 1000, seed=71)
        r = mle_joint(y)
        assert abs(r.tau.mu_x - 0.0) <= 0.05
        assert abs(r.tau.sigma_x - 1.0) <= 0.1
        assert abs(r.tau.delta - 0.1) <= 0.05
        assert r.converged

    def test_gaussian_data_matches_plain_mle(self):
        y = make_sample(0.0, 1000, seed=72)
        r = mle_joint(y)
        assert r.tau.delta <= 0.03
        se_mu = r.std_errors["mu_x"]
        assert abs(r.tau.mu_x - y.mean()) <= max(se_mu, 0.02)
        assert abs(r.tau.sigma_x - y.std()) <= 0.05

    def test_std_errors_reasonable(self):
        y = make_sample(0.2, 2000, seed=73)
        r = mle_joint(y)
        for name in ("mu_x", "sigma_x", "delta"):
            assert 0 < r.std_errors[name] < 0.2

    def test_double_tail_symmetric(self):
        y = make_sample(0.15, 4000, seed=74)
        r = mle_joint(y, tail="hh")
        assert abs(r.tau.delta_left - r.tau.delta_right) <= 0.15
        r_h = mle_joint(y)
        lr = 2 * (r.loglik_total - r_h.loglik_total)
        assert lr >= -1e-6

    def test_double_tail_asymmetric(self):
        rng = np.random.Generator(np.random.Philox(404))
        u = rng.standard_normal(4000)
        y = h_tau(u, TailParams(0.0, 1.0, (0.0, 0.3)))
        r = mle_joint(y, tail="hh")
        assert r.tau.delta_left <= 0.03
        assert abs(r.tau.delta_right - 0.3) <= 0.08

    def test_boundary_refinement_to_exact_zero(self):
        # light-tailed data: both tail components end exactly at 0
        y = make_sample(0.0, 1000, seed=406)
        r = mle_joint(y, tail="hh")
        if r.tau.delta_left == 0.0 or r.tau.delta_right == 0.0:
            assert r.boundary_hit == "delta_lower"
        r_h = mle_joint(y)
        assert r_h.tau.delta <= 0.03

    def test_student_t_input(self):
        rng = np.random.Generator(np.random.Philox(75))
        t_raw = StudentT(6.0).sample(3000, rng)
        y = h_delta(t_raw / math.sqrt(6.0 / 4.0), 0.05) * math.sqrt(6.0 / 4.0)
        r = mle_joint(y, family="student-t")
        assert r.params["nu"] > 2.0
        assert math.isfinite(r.loglik_total)
        assert abs(r.tau.mu_x) < 0.2

    def test_student_t_recovery(self):
        rng = np.random.Generator(np.random.Philox(405))
        x = 0.5 + 1.2 * StudentT(8.0).sample(5000, rng)
        k = math.sqrt(8.0 / 6.0)
        y = h_tau(x, TailParams(0.5, 1.2 * k, 0.08))
        r = mle_joint(y, family="student-t")
        assert abs(r.tau.mu_x - 0.5) <= 0.05
        # params holds the t scale, tau the fitted model's input sd
        assert abs(r.params["sigma_x"] - 1.2) <= 0.1
        nu = r.params["nu"]
        assert r.tau.sigma_x == pytest.approx(
            r.params["sigma_x"] * math.sqrt(nu / (nu - 2.0)), rel=1e-15)
        assert abs(r.tau.sigma_x - 1.2 * k) <= 0.1 * k
        assert abs(r.tau.delta - 0.08) <= 0.08
        assert 4.0 <= nu <= 16.0

    def test_loglik_identity(self):
        y = make_sample(0.3, 500, seed=76)
        r = mle_joint(y)
        np.testing.assert_allclose(
            r.loglik_total, r.loglik_input + r.loglik_penalty, atol=1e-8
        )
        assert r.loglik_penalty <= 0

    def test_validation(self):
        with pytest.raises(DataError):
            mle_joint(np.arange(5.0))
        with pytest.raises(DataError):
            mle_joint(np.ones(100))
        with pytest.raises(DomainError, match="family='gamma', tail='h'"):
            mle_joint(make_sample(0.1, 100, seed=1), family="gamma")
        with pytest.raises(DomainError, match="family='student-t', tail='hh'"):
            mle_joint(make_sample(0.1, 100, seed=1), family="student-t", tail="hh")

    @pytest.mark.parametrize("model", sorted(_MODELS), ids="-".join)
    def test_model_table_round_trip(self, model):
        # start -> search coordinates -> theta gives the start back, and
        # theta builds the model with the start's location and tails
        names, build, _ = _MODELS[model]
        start = {"mu_x": 0.3, "sigma_x": 1.7, "delta": 0.2,
                 "delta_left": 0.1, "delta_right": 0.25, "nu": 6.0}
        p = _to_search(names, [start[n] for n in names])
        theta = _to_theta(names, p)
        assert len(theta) == len(names)
        np.testing.assert_allclose(theta, [start[n] for n in names], rtol=1e-12)
        dist = build(theta)
        assert dist.tau.mu_x == theta[0]
        assert dist.delta == (tuple(theta[2:4]) if "delta_left" in names else theta[2])

    def test_nu_map_does_not_overflow(self):
        # r = log(1 - 2/nu): the box ends map to nu = 2 and nu = 2 + _NU_CAP.
        # Past the upper end, r = 0 is nu = inf and r > 0 a negative nu, and
        # the objective gives +inf there without a warning.
        assert _to_theta(("nu",), [-800.0]) == [2.0]
        assert _search_bounds(("nu",)) == ([-math.inf], [math.log1p(-2.0 / (_NU_CAP + 2.0))])
        assert NU_ON_CAP == pytest.approx(2.0 + _NU_CAP, rel=1e-15)
        # near nu = 2, r is log(nu - 2) - log 2, as the old log(nu - 2) shifted
        assert _to_search(("nu",), [2.0 + 1e-9]) == [pytest.approx(math.log(1e-9 / 2.0))]
        y = make_sample(0.1, 100, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in (-1e-320, 0.0, 1e-300, 800.0):
                value = _objective([0.0, 0.0, 0.1, r], y, _MODELS[("student-t", "h")])[0]
                assert value == math.inf, r

    @pytest.mark.parametrize("seed", [0, 1])
    def test_std_errors_with_nu_on_cap(self, seed):
        # Gaussian data: nu ends on its cap, where it is held fixed and gets
        # NaN, as a tail on 0 does (it got 2.3e-14 and 2.0e-14).
        y = rlambertw(1000, LambertWDist(Gaussian(0, 1), 0.0), seed=seed)
        r = mle_joint(y, family="student-t")
        assert r.params["nu"] == NU_ON_CAP
        assert math.isnan(r.std_errors["nu"])
        for name in ("mu_x", "sigma_x"):
            assert 0.0 < r.std_errors[name] < 0.1, name

    # Series rlambertw(n, LambertWDist(Gaussian(0, 1), d), seed=s) and the
    # loglik_total that the Nelder-Mead search reached on them.
    @pytest.mark.parametrize(
        "n, d, seed, floor",
        [
            (1000, 1 / 3, 3, -1874.9769676681171),
            (400, 1 / 3, 3, -740.5715493969483),
            (400, 1 / 3, 4, -730.4971731238444),
            (400, 0.0, 2, -555.6220944327542),
        ],
    )
    def test_student_t_likelihood_floor(self, n, d, seed, floor):
        y = rlambertw(n, LambertWDist(Gaussian(0, 1), d), seed=seed)
        r = mle_joint(y, family="student-t")
        assert r.loglik_total >= floor - 1e-6
        assert r.converged

    @pytest.mark.parametrize(
        "seed, floor", [(102, -2775.2522711126667), (107, -2504.154797261194)]
    )
    def test_student_t_heavy_input(self, seed, floor):
        # A t_5 input with delta = 1: the sample sd is about 1e12.  From a
        # start at that scale the search ran off to scale 1e-51, nu -> 2,
        # where the likelihood grows without bound (loglik +3039 at seed
        # 102).  The floor is the Nelder-Mead value at the interior maximum.
        y = rlambertw(1000, LambertWDist(StudentT(5.0), 1.0), seed=seed)
        r = mle_joint(y, family="student-t")
        assert r.loglik_total >= floor - 1e-6
        assert 0.5 < r.params["sigma_x"] < 2.0 and 3.0 < r.params["nu"] < 10.0
        assert r.converged

    @pytest.mark.parametrize(
        "seed, d, n, nu", [(1, 1 / 3, 1000, 587.0), (4, 0.0, 400, 176.1)]
    )
    def test_nu_std_error_far_from_two(self, seed, d, n, nu):
        # Above nu = 170 the nu curvature (about n / nu^4) fell under the
        # pseudo-inverse's cut-off relative to the scale curvature, and nu
        # got 9.0e-8 and 3.5e-7; scaled by its diagonal it keeps ~2e4, 3e3.
        y = rlambertw(n, LambertWDist(Gaussian(0, 1), d), seed=seed)
        r = mle_joint(y, family="student-t")
        assert r.params["nu"] == pytest.approx(nu, rel=1e-3)
        assert r.std_errors["nu"] > 1.0

    def test_gaussian_heavy_input(self):
        # A t_5 input with delta = 1: from the sd-based start scale (the sd
        # is 2.4e12) the Gaussian search ended at sigma_x 3.6e-43, delta
        # 25.0, loglik -5371.5, reported as converged.  The start scale now
        # comes from the interquartile range, near the fitted one.
        y = rlambertw(1000, LambertWDist(StudentT(5.0), 1.0), seed=107)
        r = mle_joint(y)
        assert r.loglik_total >= -2545.089117189602 - 1e-6
        assert 0.5 < r.tau.sigma_x < 2.0 and 1.0 < r.tau.delta < 2.0
        assert r.converged
        for model in (("gaussian", "h"), ("gaussian", "hh")):
            start = estimation._default_start(y, _MODELS[model].names)["sigma_x"]
            assert 0.5 < start / r.tau.sigma_x < 2.0, model

    def test_gaussian_start_quartile(self):
        # The Gaussian starts take the normal quantiles at 1 - 2^-k, k =
        # 2..6, as constants in place of ndtri, so that they load no scipy:
        # the two agree to the last bit.  The first is the upper quartile
        # that the moment start divides the IQR by.
        special = pytest.importorskip("scipy.special")
        for k, z in zip(range(2, 7), estimation._LETTER_Z):
            assert z.hex() == float(special.ndtri(1.0 - 2.0**-k)).hex(), k
        assert estimation._LETTER_Z[0].hex() == float(Gaussian().quantile(0.75)).hex()

    @pytest.mark.parametrize("delta", [0.0, 0.1, 1 / 3, 1.0, (0.0, 0.5), (0.8, 0.2)])
    def test_letter_value_start(self, delta):
        # The half-spreads of an h transform are exactly sigma z exp(delta
        # z^2 / 2), so on a large sample the letter values are close to the
        # model's own (mu, sigma, tails); a tail is at least 1e-3.
        y = rlambertw(10**5, LambertWDist(Gaussian(0.5, 2.0), delta), seed=6)
        double = isinstance(delta, tuple)
        names = _MODELS[("gaussian", "hh" if double else "h")].names
        start = estimation._default_start(y, names)
        assert start == estimation._letter_value_start(y, names)
        assert start["mu_x"] == float(np.median(y))
        assert abs(start["mu_x"] - 0.5) <= 0.03 and abs(start["sigma_x"] / 2.0 - 1.0) <= 0.03
        tails = [start[n] for n in names[2:]]
        np.testing.assert_allclose(tails, np.maximum(delta, 1e-3), atol=0.03)

    def test_letter_value_start_on_ties(self):
        # 60 zeros, 30 ones and 10 spread points: the lower half-spreads are
        # 0, and the Gaussian start is the moment start of before.
        y = np.concatenate([np.zeros(60), np.ones(30), np.linspace(-3.0, 5.0, 10)])
        for model in (("gaussian", "h"), ("gaussian", "hh")):
            names = _MODELS[model].names
            assert estimation._letter_value_start(y, names) is None
            g2 = _central_moment_stats(y)[1]
            assert estimation._default_start(y, names) == estimation._moment_start(y, names, g2)

    def test_heavy_series_fits(self):
        # max |y| = 5.1e123: the sample kurtosis is not finite, and from the
        # moment start every model raised ConvergenceError.  The Student-t
        # moment start takes the kurtosis of (y - median) / IQR, which is
        # finite for data scaled by 1e150 but not here, so the three starts
        # at the Gaussian optimum remain.
        y = rlambertw(1000, LambertWDist(StudentT(5.0), 1.0), seed=143)
        for model, floor in [(("gaussian", "h"), -3007.9231387914),
                             (("gaussian", "hh"), -2971.8100922731),
                             (("student-t", "h"), -2840.9064182149)]:
            r = mle_joint(y, *model)
            assert r.converged and r.loglik_total >= floor - 1e-6, model
        names = _MODELS[("student-t", "h")].names
        assert estimation._default_start(y, names) is None
        ref = estimation._default_start(TestScaleEquivariance.Y, names)
        scaled = estimation._default_start(1e150 * TestScaleEquivariance.Y, names)
        assert (scaled["delta"], scaled["nu"]) == pytest.approx((ref["delta"], ref["nu"]))
        assert scaled["sigma_x"] / 1e150 == pytest.approx(ref["sigma_x"])

    def test_fewer_passes(self):
        # Likelihood passes summed over 20 Gaussian-input series (n = 1000,
        # delta in {0, 0.1, 1/3, 1}, seeds 300-304).  From the kurtosis start,
        # on log(nu - 2) and with a stop relative to |loglik| they summed to
        # 171 (h), 155 (hh) and 1262 (Student t); the letter-value start,
        # the r = log(1 - 2/nu) coordinate and the stop on n take them to
        # 59, 70 and 727.  Pass counts are deterministic, unlike timings.
        before = {("gaussian", "h"): 171, ("gaussian", "hh"): 155, ("student-t", "h"): 1262}
        passes = dict.fromkeys(before, 0)
        for delta in (0.0, 0.1, 1 / 3, 1.0):
            for seed in range(300, 305):
                y = rlambertw(1000, LambertWDist(Gaussian(0, 1), delta), seed=seed)
                for model in before:
                    passes[model] += mle_joint(y, *model).iterations
        for model, count in before.items():
            assert passes[model] <= 0.7 * count, (model, passes[model])

    def test_converged_rule(self, monkeypatch):
        # The search stops, converged, when the Newton decrement g' H^-1 g of
        # the free coordinates is at most tol, whatever the size of f: the
        # log-likelihood shifts by -n log a with the data's units, and the
        # likelihood searches take tol = 1e-12 n.  A coordinate held on a
        # bound leaves the decrement; a decrement that never falls runs the
        # search out of steps, unconverged.
        hess, centre = np.array([[4.0, 1.0], [1.0, 2.0]]), np.array([1.0, -0.5])

        def quadratic(f0):
            def evaluate(x):
                d = np.array(x) - centre
                return f0 + 0.5 * d @ hess @ d, hess @ d, hess, None
            return evaluate

        free = [-math.inf] * 2, [math.inf] * 2
        tol = estimation._DECREMENT_TOL * 1e6
        # the decrement at centre + (e, 0) is 4 e^2
        near, off = list(centre + [4e-4, 0.0]), list(centre + [6e-4, 0.0])
        assert 4 * 4e-4**2 <= tol < 4 * 6e-4**2
        for f0 in (-1e300, -1e6, 0.0, 1e-300):
            end = _box_newton(quadratic(f0), near, *free, tol)
            assert end.converged and end.passes == 0 and end.x == near
        end = _box_newton(quadratic(-1e6), off, *free, tol)
        assert end.converged and end.passes == 1
        np.testing.assert_allclose(end.x, centre, atol=1e-8)

        # mle_joint hands each search 1e-12 n
        tols = []

        def recording(evaluate, x, lo, hi, tol, *args):
            tols.append(tol)
            return _box_newton(evaluate, x, lo, hi, tol, *args)

        monkeypatch.setattr(estimation, "_box_newton", recording)
        for model in _MODELS:
            mle_joint(make_sample(0.2, 137, seed=5), *model)
        assert tols and set(tols) == {estimation._DECREMENT_TOL * 137}
        # the minimum beyond x_0 >= 1.5: x_0 is held exactly on that bound
        end = _box_newton(quadratic(0.0), [2.0, 0.0], [1.5, -math.inf], [math.inf] * 2, tol)
        assert end.converged and end.x[0] == 1.5
        # the free coordinate to within its decrement: 2 error^2 <= tol
        assert abs(end.x[1] - (-0.5 - 0.5 * (1.5 - 1.0))) <= math.sqrt(tol)

        # -log x: its decrement is 1 at every x
        def unbounded(x):
            return -math.log(x[0]), np.array([-1.0 / x[0]]), np.array([[x[0] ** -2]]), None

        end = _box_newton(unbounded, [1.0], [0.0], [math.inf], tol)
        assert not end.converged and end.x[0] > 1e6

    def test_std_errors_at_zero_tail(self):
        # delta snaps to 0: the tail gets NaN, and location and scale get
        # the Gaussian-MLE standard errors sd / sqrt(n) and sd / sqrt(2n).
        y = rlambertw(60, LambertWDist(Gaussian(0.3, 1.7), 0.0), seed=0)
        r = mle_joint(y)
        assert r.tau.delta == 0.0 and r.boundary_hit == "delta_lower"
        sd = r.tau.sigma_x
        np.testing.assert_allclose(sd, y.std(), rtol=1e-6)
        np.testing.assert_allclose(
            r.std_errors["mu_x"], sd / math.sqrt(60), rtol=1e-5
        )
        np.testing.assert_allclose(
            r.std_errors["sigma_x"], sd / math.sqrt(120), rtol=1e-5
        )
        assert math.isnan(r.std_errors["delta"])

    def test_std_errors_at_one_zero_tail(self):
        y = rlambertw(200, LambertWDist(Gaussian(0.0, 1.0), (0.0, 0.3)), seed=0)
        r = mle_joint(y, tail="hh")
        assert r.tau.delta_left == 0.0 < r.tau.delta_right
        assert math.isnan(r.std_errors["delta_left"])
        for name in ("mu_x", "sigma_x", "delta_right"):
            assert 0.0 < r.std_errors[name] < 0.2, name

    def test_hh_no_false_zero_tail(self):
        # The Nelder-Mead search stopped with delta_right below 1e-3 and the
        # boundary snap then set it to 0, at loglik -1445.8011.
        y = rlambertw(1000, LambertWDist(Gaussian(0, 1), 0.0), seed=3)
        r = mle_joint(y, tail="hh")
        assert r.loglik_total >= -1445.7328 - 1e-6
        assert r.tau.delta_right > 0.0
        assert r.boundary_hit is None
        assert r.converged

    def test_start_override(self):
        y = make_sample(0.1, 400, seed=77)
        r = mle_joint(y, start={"mu_x": 0.0, "sigma_x": 1.0, "delta": 0.1})
        assert r.converged

    @pytest.mark.parametrize(
        "model, dist",
        [
            (("gaussian", "h"), LambertWDist(Gaussian(0.2, 1.1), 0.2)),
            (("gaussian", "hh"), LambertWDist(Gaussian(0.2, 1.1), (0.1, 0.3))),
            (("student-t", "h"), LambertWDist(StudentT(6.0, 0.2, 1.1), 0.1)),
        ],
        ids=["gaussian-h", "gaussian-hh", "student-t-h"],
    )
    def test_std_errors_match_difference_hessian(self, model, dist):
        # The standard errors are those of the natural-theta Hessian at the
        # estimate: here the pseudo-inverse of central differences of the
        # natural-theta score, symmetrized.
        family, tail = model
        y = rlambertw(1000, dist, seed=8)
        r = mle_joint(y, family=family, tail=tail)
        names = _MODELS[model].names
        theta = [r.params[n] for n in names]
        assert r.boundary_hit is None and r.params.get("nu", 0.0) < 100.0
        fd, _ = score_differences(y, theta, family)
        cov = np.linalg.pinv(-0.5 * (fd + fd.T), hermitian=True)
        np.testing.assert_allclose([r.std_errors[n] for n in names],
                                   np.sqrt(np.diag(cov)), rtol=1e-4)

    @pytest.mark.parametrize("family", ["gaussian", "student-t"])
    def test_search_leaving_parameter_space(self, family, monkeypatch):
        # A likelihood that is not finite at any start is a numerical
        # failure, not a bad argument.  No finite series gives one since
        # the letter-value start, so the objective is made to reject every
        # point.
        monkeypatch.setattr(estimation, "_objective",
                            lambda p, y, model: (math.inf, None, None, None))
        with pytest.raises(ConvergenceError, match="left the parameter space"):
            mle_joint(make_sample(0.2, 200, seed=1), family=family)

    @pytest.mark.parametrize("family", ["gaussian", "student-t"])
    def test_far_point_fits(self, family):
        # One point at 1e200 made the sample scale and kurtosis infinite and
        # the moment start NaN, so the search raised ConvergenceError.  The
        # letter values do not reach the point, and the Student-t moment
        # start is skipped.
        y = make_sample(0.2, 200, seed=1)
        y[0] = 1e200
        r = mle_joint(y, family=family)
        assert r.converged and math.isfinite(r.loglik_total)
        if family == "gaussian":
            np.testing.assert_allclose([r.tau.mu_x, r.tau.sigma_x, r.tau.delta],
                                       [0.024, 0.586, 6.22], rtol=0.01, atol=1e-3)


class TestFitModel:
    """``fit_model`` owns the choice of estimator."""

    def test_dispatch(self):
        y = make_sample(0.2, 300, seed=9)
        for method, tail, fit in [("igmm", "h", igmm), ("igmm", "hh", igmm_double_tail),
                                  ("mle", "h", mle_joint)]:
            assert estimation.fit_model(y, "gaussian", tail, method) == fit(y)
        assert estimation.fit_model(y, "student-t", "h", "mle") == mle_joint(
            y, family="student-t")

    @pytest.mark.parametrize(
        "family, tail, method, match",
        [
            ("gaussian", "bogus", "igmm", "tail must be 'h' or 'hh'"),
            ("gaussian", "bogus", "mle", "tail must be 'h' or 'hh'"),
            ("gaussian", "h", "bogus", "method must be 'igmm' or 'mle'"),
            ("student-t", "h", "igmm", "igmm supports the gaussian input family only"),
            ("gamma", "h", "mle", "unsupported joint MLE model"),
            ("student-t", "hh", "mle", "unsupported joint MLE model"),
        ],
    )
    def test_rejects_unknown_choices(self, family, tail, method, match):
        with pytest.raises(DomainError, match=match):
            estimation.fit_model(make_sample(0.2, 300, seed=9), family, tail, method)


class TestScaleEquivariance:
    """Fits of a y and of y agree: the search and its stop rule are unit-free."""

    Y = rlambertw(400, LambertWDist(Gaussian(0, 1), 1 / 3), seed=3)

    @pytest.fixture(scope="class")
    def reference(self):
        return {model: mle_joint(self.Y, *model) for model in _MODELS}

    @pytest.mark.parametrize("a", [1e-150, 1e-6, 1e-3, 1e3, 1e6, 1e150])
    @pytest.mark.parametrize("model", sorted(_MODELS), ids="-".join)
    def test_scaled_data(self, reference, model, a):
        # With a stop rule relative to |loglik|, h ended 298 loglik units low
        # at a = 1e-6 and mu / a was 8.7e-3 off at a = 1e6.  At a = 1e+-150
        # the fourth moment overflows or underflows; the moment start was
        # NaN and every model raised ConvergenceError.
        ref, r = reference[model], mle_joint(a * self.Y, *model)
        sigma = ref.params["sigma_x"]
        assert r.converged
        assert abs(r.tau.mu_x / a - ref.tau.mu_x) <= 1e-6 * sigma
        for name, value in ref.params.items():
            if name != "mu_x":
                scaled = r.params[name] / (a if name == "sigma_x" else 1.0)
                assert scaled == pytest.approx(value, rel=1e-6, abs=1e-300), name
        shifted = r.loglik_total + self.Y.size * math.log(a)
        assert abs(shifted - ref.loglik_total) <= 1e-8 * abs(ref.loglik_total)

    @pytest.mark.parametrize("a", [1e-6, 1e-3, 1e3, 1e6])
    @pytest.mark.parametrize("fit", [igmm, igmm_double_tail], ids=["h", "hh"])
    def test_scaled_igmm(self, fit, a):
        # The loop stopped on a step of 1.22e-4 in data units: igmm moved by
        # 8.3e-5 at a = 1e-6 and igmm_double_tail by 1.2e-5 at a = 1e3.
        ref, r = fit(self.Y), fit(a * self.Y)
        assert r.converged
        for name, value in ref.params.items():
            scaled = r.params[name] / (a if name in ("mu_x", "sigma_x") else 1.0)
            assert scaled == pytest.approx(value, rel=1e-9, abs=1e-300), name
        shifted = r.loglik_total + self.Y.size * math.log(a)
        assert abs(shifted - ref.loglik_total) <= 1e-8 * abs(ref.loglik_total)


FITS = {
    **{f"mle-{family}-{tail}": functools.partial(mle_joint, family=family, tail=tail)
       for family, tail in sorted(_MODELS)},
    "igmm": igmm,
    "igmm_double_tail": igmm_double_tail,
    "mle_delta_only": mle_delta_only,
}


class TestFitResultTau:
    """A fit's tau is its fitted model's, so w_tau(y, tau) inverts that model."""

    # A t_5 input with delta = 0.2.  The Student-t fit's tau held the t
    # scale, not the input sd, so F_X(w_tau(y, tau)) missed the fitted
    # model's cdf by 0.0139 here (by up to 0.0173 over seeds 0-4).
    Y = rlambertw(1000, LambertWDist(StudentT(5.0), 0.2), seed=0)

    @pytest.mark.parametrize("name", FITS)
    def test_tau_inverts_fitted_model(self, name):
        r = FITS[name](self.Y)
        dist = LambertWDist(r.input, r.tau.delta)
        assert r.tau == dist.tau
        np.testing.assert_array_equal(r.input.cdf(w_tau(self.Y, r.tau)), dist.cdf(self.Y))


class TestSampleMoments:
    def test_basic(self):
        m = sample_moments([-1.0, 0.0, 1.0])
        assert m.mean == 0.0 and m.median == 0.0
        assert math.isnan(m.kurtosis)  # needs at least 4 points

    def test_gaussian_kurtosis(self):
        y = make_sample(0.0, 10**5, seed=81)
        m = sample_moments(y)
        assert abs(m.kurtosis - 3.0) <= 0.1
        assert abs(m.skewness) <= 0.05

    def test_degenerate(self):
        with pytest.raises(DataError):
            sample_moments([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(DataError):
            sample_moments([2.0])

    def test_unbiased_sd(self):
        m = sample_moments([0.0, 2.0])
        np.testing.assert_allclose(m.sd, math.sqrt(2.0))
