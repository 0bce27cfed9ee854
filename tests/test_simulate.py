"""Simulation and replication-study tests: determinism, pass-through, trends."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats as st

from heavytail import (
    ConvergenceError,
    DataError,
    DomainError,
    Gaussian,
    LambertWDist,
    StudyPlan,
    cauchy_demo,
    mle_joint,
    rlambertw,
    run_study,
    sample_moments,
    variance_factor,
    w_tau,
)
from heavytail import simulate
from heavytail.simulate import TABLE_COLUMNS, TableRow, _cauchy_quantile, _rng_for, _truth


class TestRlambertw:
    def test_seed_determinism(self):
        d = LambertWDist(Gaussian(0, 1), 0.3)
        a = rlambertw(500, d, seed=4)
        b = rlambertw(500, d, seed=4)
        np.testing.assert_array_equal(a, b)
        c = rlambertw(500, d, seed=5)
        assert not np.array_equal(a, c)

    def test_delta_zero_passthrough_bit_exact(self):
        d0 = LambertWDist(Gaussian(0.5, 2.0), 0.0)
        y = rlambertw(1000, d0, seed=7)
        raw = Gaussian(0.5, 2.0).sample(1000, _rng_for(7, ()))
        np.testing.assert_array_equal(y, raw)

    def test_double_tail_zero_passthrough(self):
        d0 = LambertWDist(Gaussian(0, 1), (0.0, 0.0))
        y = rlambertw(200, d0, seed=3)
        raw = Gaussian(0, 1).sample(200, _rng_for(3, ()))
        np.testing.assert_array_equal(y, raw)

    def test_scale_inflation(self):
        d = LambertWDist(Gaussian(0, 1), 0.1)
        y = rlambertw(10**6, d, seed=3)
        assert abs(y.std() - variance_factor(0.1)) <= 0.01

    def test_median_matches_location(self):
        d = LambertWDist(Gaussian(0.7, 1.0), 1.0)
        y = rlambertw(10**5, d, seed=8)
        assert abs(np.median(y) - 0.7) <= 0.02

    def test_latent_recovery(self):
        # with the true transformation vector the latent stream comes back
        d = LambertWDist(Gaussian(0.2, 1.5), 0.4)
        y = rlambertw(2000, d, seed=12)
        latent = Gaussian(0.2, 1.5).sample(2000, _rng_for(12, ()))
        rec = w_tau(y, d.tau)
        np.testing.assert_allclose(rec, latent, rtol=1e-9, atol=1e-9)

    def test_bad_n(self):
        with pytest.raises(DomainError):
            rlambertw(0, LambertWDist(Gaussian(0, 1), 0.1))


class TestStudyPlan:
    def test_validation(self):
        with pytest.raises(DomainError):
            StudyPlan(replications=0)
        with pytest.raises(DomainError):
            StudyPlan(sample_sizes=(5,))
        with pytest.raises(DomainError):
            StudyPlan(delta_values=(-0.1,))
        # A NaN or infinite delta ran and wrote "failed" rows.
        for delta in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                StudyPlan(delta_values=(0.1, delta))
        with pytest.raises(DomainError):
            StudyPlan(estimators=("bogus",))

    def test_from_json(self, tmp_path):
        p = tmp_path / "plan.json"
        p.write_text(
            json.dumps(
                {
                    "sample_sizes": [100],
                    "delta_values": [0.1],
                    "replications": 5,
                    "estimators": ["median"],
                    "seed": 3,
                }
            )
        )
        plan = StudyPlan.from_json(p)
        assert plan.sample_sizes == (100,) and plan.seed == 3

    def test_from_json_whole_numbers(self, tmp_path):
        # 2.0 is the count 2; 20.9 was truncated to 20.
        p = tmp_path / "plan.json"
        plan = {"sample_sizes": [20.0], "delta_values": [0.1], "replications": 2.0, "seed": 3.0}
        p.write_text(json.dumps(plan))
        got = StudyPlan.from_json(p)
        assert (got.sample_sizes, got.replications, got.seed) == ((20,), 2, 3)
        assert all(type(v) is int for v in (*got.sample_sizes, got.replications, got.seed))
        for key, value in (("sample_sizes", [20.9]), ("replications", 1.9), ("seed", 3.5)):
            p.write_text(json.dumps({**plan, key: value}))
            with pytest.raises(DataError, match="not a whole number"):
                StudyPlan.from_json(p)

    def test_from_json_missing_key(self, tmp_path):
        p = tmp_path / "plan.json"
        p.write_text(json.dumps({"sample_sizes": [100]}))
        with pytest.raises(Exception):
            StudyPlan.from_json(p)


def small_plan(**kw):
    base = dict(
        sample_sizes=(100,),
        delta_values=(0.0, 0.1),
        replications=25,
        estimators=("median", "gaussian_mle", "delta_mle"),
        seed=17,
    )
    base.update(kw)
    return StudyPlan(**base)


class TestRunStudy:
    def test_deterministic_tables(self, tmp_path):
        t1 = run_study(small_plan())
        t2 = run_study(small_plan())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        t1.to_csv(p1)
        t2.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_joint_mle_cells_call_mle_joint(self, monkeypatch):
        # Every lambertw_mle fit of a study goes through the public
        # mle_joint, so a wrapper of it (such as a tracer) sees them all.
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return mle_joint(*args, **kwargs)

        monkeypatch.setattr(simulate, "mle_joint", counting)
        plan = small_plan(replications=4, estimators=("lambertw_mle",))
        table = run_study(plan)
        accepted = len(plan.delta_values) * plan.replications
        redraws = sum(r.na_ratio * plan.replications
                      for r in table.rows if r.parameter == "delta")
        assert len(calls) == round(accepted + redraws)
        assert all(k == {"family": "gaussian", "tail": "h"} for k in calls)

    def test_column_schema(self, tmp_path):
        t = run_study(small_plan(replications=5, delta_values=(0.1,)))
        path = tmp_path / "t.csv"
        t.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(TABLE_COLUMNS)
        jpath = tmp_path / "t.json"
        t.to_json(jpath)
        rows = json.loads(jpath.read_text())
        assert set(rows[0]) == set(TABLE_COLUMNS)

    def test_median_unbiased_proportion(self):
        t = run_study(
            StudyPlan(
                sample_sizes=(50,),
                delta_values=(0.0,),
                replications=60,
                estimators=("median",),
                seed=23,
            )
        )
        row = t.find(estimator="median", parameter="mu_x")[0]
        assert abs(row.prop_below - 0.5) <= 0.15
        assert abs(row.bias) <= 0.1
        assert row.na_ratio == 0.0

    def test_delta_mle_cell_statistics(self):
        t = run_study(
            StudyPlan(
                sample_sizes=(100,),
                delta_values=(1.0,),
                replications=40,
                estimators=("delta_mle",),
                seed=29,
            )
        )
        row = t.find(parameter="delta")[0]
        assert abs(row.bias) <= 0.1
        assert 1.0 <= row.rmse_sqrtN <= 3.2  # paper-scale magnitude

    def test_implied_sigma_y_infinite_marker(self, tmp_path):
        # above delta = 1/2 the implied output scale is infinite
        t = run_study(
            StudyPlan(
                sample_sizes=(100,),
                delta_values=(1.0,),
                replications=10,
                estimators=("igmm",),
                seed=31,
            )
        )
        row = t.find(parameter="sigma_y")[0]
        assert math.isinf(row.mean)
        jpath = tmp_path / "inf.json"
        t.to_json(jpath)
        payload = json.loads(jpath.read_text())
        cell = [r for r in payload if r["parameter"] == "sigma_y"][0]
        assert cell["mean"] == "inf"
        csv_path = tmp_path / "inf.csv"
        t.to_csv(csv_path)
        assert "inf" in csv_path.read_text()

    def test_delta_zero_cell_bias(self):
        t = run_study(
            StudyPlan(
                sample_sizes=(1000,),
                delta_values=(0.0,),
                replications=200,
                estimators=("delta_mle",),
                seed=41,
            )
        )
        row = t.find(parameter="delta")[0]
        assert abs(row.bias) <= 0.01

    def test_joint_mle_bias_shrinks_with_n(self):
        # |bias| of the tail estimate at N=1000 does not exceed its |bias|
        # at N=50 (small slack absorbs Monte-Carlo noise where both biases
        # are near zero)
        plan = StudyPlan(
            sample_sizes=(50, 1000),
            delta_values=(0.1, 1 / 3, 1.0),
            replications=120,
            estimators=("lambertw_mle",),
            seed=43,
        )
        t = run_study(plan)
        for d in plan.delta_values:
            b50 = abs(t.find(N=50, delta=d, parameter="delta")[0].bias)
            b1000 = abs(t.find(N=1000, delta=d, parameter="delta")[0].bias)
            assert b1000 <= b50 + 0.01, (d, b50, b1000)

    def test_rmse_scaling_trend(self):
        # RMSE * sqrt(N) roughly N-stable for the tail-only estimator
        plan = StudyPlan(
            sample_sizes=(100, 1000),
            delta_values=(0.1, 1.0, 2.0),
            replications=100,
            estimators=("delta_mle",),
            seed=37,
        )
        t = run_study(plan)
        for d in plan.delta_values:
            r100 = t.find(N=100, delta=d, parameter="delta")[0].rmse_sqrtN
            r1000 = t.find(N=1000, delta=d, parameter="delta")[0].rmse_sqrtN
            assert 0.6 <= r1000 / r100 <= 1.6, d

    def test_extreme_tails_no_na_redraws(self):
        # the overflow-safe inverse keeps even delta = 2 cells NA-free
        t = run_study(
            StudyPlan(
                sample_sizes=(100,),
                delta_values=(2.0,),
                replications=30,
                estimators=("lambertw_mle",),
                seed=71,
            )
        )
        row = t.find(parameter="delta")[0]
        assert row.na_ratio == 0.0
        assert abs(row.bias) <= 0.25


class TestCauchyDemo:
    def test_running_means(self):
        demo = cauchy_demo(200, seed=11, step=8)
        n = len(demo.sample)
        assert demo.lengths[-1] == n
        final_gauss = demo.gaussianized_mean[-1]
        sd_bound = 3.0 * 1.2 / math.sqrt(n)
        assert abs(final_gauss) <= sd_bound
        x = w_tau(demo.sample, demo.final_fit.tau)
        m = sample_moments(x)
        assert abs(m.kurtosis - 3.0) <= 0.5
        assert 0.6 <= demo.delta_estimates[-1] <= 1.3

    def test_every_prefix_fits(self):
        # The refit grid starts at the 10 points mle_joint needs; from 5 the
        # first five entries were always NaN.
        demo = cauchy_demo(15, seed=1)
        assert demo.lengths.tolist() == list(range(10, 16))
        assert not np.isnan(demo.delta_estimates).any()
        assert not np.isnan(demo.gaussianized_mean).any()

    def test_short_input_rejected(self):
        with pytest.raises(Exception):
            cauchy_demo(5, seed=1)

    def test_cauchy_quantile_matches_scipy(self):
        rng = np.random.default_rng(13)
        q = np.clip(
            np.r_[rng.random(10**4), 1e-300, 1 - 1e-16, 0.5, 0.25, 0.75],
            1e-300,
            1 - 1e-16,
        )
        ours, ref = _cauchy_quantile(q), st.cauchy.ppf(q)
        assert np.array_equal(ours.view(np.int64), ref.view(np.int64))

    def test_failed_fits_skipped(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ConvergenceError("no optimum")

        monkeypatch.setattr(simulate, "mle_joint", fail)
        demo = cauchy_demo(20, seed=1)
        assert demo.final_fit is None
        assert np.all(np.isnan(demo.delta_estimates))

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bad call")

        monkeypatch.setattr(simulate, "mle_joint", broken)
        with pytest.raises(TypeError):
            cauchy_demo(20, seed=1)


class TestStudyErrors:
    PLAN = StudyPlan(sample_sizes=(50,), delta_values=(0.1,), replications=2,
                     estimators=("igmm",), seed=3)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(name, y):
            raise TypeError("bad call")

        monkeypatch.setattr(simulate, "_estimate_once", broken)
        with pytest.raises(TypeError):
            run_study(self.PLAN)

    def test_fit_failures_redraw_then_fail_the_cell(self, monkeypatch):
        def failing(name, y):
            raise ConvergenceError("no optimum")

        monkeypatch.setattr(simulate, "_estimate_once", failing)
        rows = run_study(self.PLAN).rows
        assert [r.parameter for r in rows] == ["failed"]


def loop_aggregate(cell, estimates, na_ratio):
    """The cell's rows from one parameter at a time: the reference of ``_aggregate``."""
    n, delta, estimator = cell
    rows = []
    for parameter, values in estimates.items():
        v = np.asarray(values, dtype=float)
        truth = _truth(parameter, delta)
        mean = float(np.mean(v))
        finite = np.isfinite(v) & math.isfinite(truth)
        if finite.all():
            bias = mean - truth
            sd = float(np.std(v, ddof=1)) * math.sqrt(n) if v.size > 1 else math.nan
            rmse = float(np.sqrt(np.mean((v - truth) ** 2))) * math.sqrt(n)
        else:
            bias = sd = rmse = math.nan
        prop_below = float(np.mean(v <= truth)) if math.isfinite(truth) else math.nan
        rows.append(TableRow(N=n, delta=delta, estimator=estimator, parameter=parameter,
                             mean=mean, bias=bias, prop_below=prop_below, sd_sqrtN=sd,
                             rmse_sqrtN=rmse, na_ratio=na_ratio))
    return rows


class TestAggregate:
    """A cell's statistics from one reduction per statistic over all its parameters."""

    # numpy's pairwise sum unrolls by 8, so 7, 8 and 9 replications sum
    # their rows in different orders.
    @pytest.mark.parametrize("replications", [1, 2, 7, 8, 9, 200])
    @pytest.mark.parametrize("delta", [0.0, 1 / 3, 0.5, 1.0])
    def test_matches_the_loop(self, replications, delta):
        # delta >= 1/2 has an infinite sigma_y truth, and some replications
        # an infinite sigma_y estimate.
        rng = np.random.default_rng(replications)
        estimates = {
            "mu_x": list(rng.standard_normal(replications) * 1e-3),
            "sigma_x": list(1.0 + 0.1 * rng.standard_normal(replications)),
            "delta": list(np.abs(delta + 0.05 * rng.standard_normal(replications))),
            "sigma_y": list(np.where(rng.random(replications) < 0.3, np.inf,
                                     1.0 + rng.random(replications))),
        }
        cell = (100, delta, "igmm")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = simulate._aggregate(cell, estimates, 0.25)
        # repr tells NaN, -0.0 and every bit apart
        assert repr(rows) == repr(loop_aggregate(cell, estimates, 0.25))
