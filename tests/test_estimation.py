"""Estimation tests: likelihood decomposition, gradient, MLE and IGMM."""

import math
import warnings

import numpy as np
import pytest

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
from heavytail import estimation
from heavytail.estimation import _MODELS, _NU_CAP, _pack, _unpack


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


class TestMleDeltaOnly:
    def test_boundary_condition(self):
        r = mle_delta_only([1.0, 1.0, 1.0, 1.0])
        assert r.tau.delta == 0.0
        assert r.boundary_hit == "delta_lower"

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
        assert abs(kurt(x) - 3.0) <= 10 * estimation._IGMM_TOL

    def test_fixed_point(self):
        y = make_sample(0.25, 1500, seed=58)
        r = igmm(y)
        mu, sigma, delta = r.tau.mu_x, r.tau.sigma_x, r.tau.delta
        # one more update step from the returned estimate moves it <= tol
        z = (y - mu) / sigma
        d2 = delta_gmm(z).delta
        x = w_delta(z, d2) * sigma + mu
        moved = np.array([np.mean(x) - mu, np.std(x, ddof=1) - sigma, d2 - delta])
        assert np.linalg.norm(moved) <= estimation._IGMM_TOL

    def test_non_convergence_flag(self, monkeypatch):
        monkeypatch.setattr(estimation, "_IGMM_MAX_ITERATIONS", 1)
        y = make_sample(0.4, 500, seed=59)
        r = igmm(y)
        assert not r.converged
        assert r.iterations == 1

    def test_short_or_degenerate_data(self):
        with pytest.raises(DataError):
            igmm(np.arange(5.0))
        with pytest.raises(DataError):
            igmm(np.ones(50))


class TestIGMMDoubleTail:
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
        assert r.extra["nu"] > 2.0
        assert math.isfinite(r.loglik_total)
        assert abs(r.tau.mu_x) < 0.2

    def test_student_t_recovery(self):
        rng = np.random.Generator(np.random.Philox(405))
        x = 0.5 + 1.2 * StudentT(8.0).sample(5000, rng)
        k = math.sqrt(8.0 / 6.0)
        y = h_tau(x, TailParams(0.5, 1.2 * k, 0.08))
        r = mle_joint(y, family="student-t")
        assert abs(r.tau.mu_x - 0.5) <= 0.05
        assert abs(r.tau.sigma_x - 1.2) <= 0.1
        assert abs(r.tau.delta - 0.08) <= 0.08
        assert 4.0 <= r.extra["nu"] <= 16.0

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
        # start -> optimizer vector -> LambertWDist -> theta gives the start back
        names, build, read = _MODELS[model]
        start = {"mu_x": 0.3, "sigma_x": 1.7, "delta": 0.2,
                 "delta_left": 0.1, "delta_right": 0.25, "nu": 6.0}
        theta = read(build(_unpack(names, _pack(names, start))))
        assert len(theta) == len(names)
        np.testing.assert_allclose(theta, [start[n] for n in names], rtol=1e-12)

    def test_nu_map_does_not_overflow(self):
        # a huge optimizer step in log(nu - 2) lands on the cap, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _unpack(("nu",), np.array([800.0])) == [2.0 + _NU_CAP]

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

    def test_start_override(self):
        y = make_sample(0.1, 400, seed=77)
        r = mle_joint(y, start={"mu_x": 0.0, "sigma_x": 1.0, "delta": 0.1})
        assert r.converged

    @pytest.mark.parametrize("family", ["gaussian", "student-t"])
    def test_search_leaving_parameter_space(self, family):
        # One point at 1e200 makes the sample scale infinite, so no point of
        # the search is a valid model: a numerical failure, not a bad
        # argument.
        y = make_sample(0.2, 200, seed=1)
        y[0] = 1e200
        with pytest.raises(ConvergenceError, match="left the parameter space"):
            mle_joint(y, family=family)


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
