"""Anderson-Darling normality test checks."""

import inspect
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as st

from heavytail import DataError, Gaussian, LambertWDist, anderson_darling, rlambertw
from heavytail import normality


class TestStatistic:
    def test_matches_scipy_statistic(self):
        # scipy computes the unadjusted A2 with the same estimated-parameter
        # convention; our statistic applies the small-sample factor on top.
        # SciPy 1.17 warns unless `method` is given; the statistic does not
        # depend on it, and older SciPy has no such argument.
        kwargs = {}
        if "method" in inspect.signature(st.anderson).parameters:
            kwargs["method"] = "interpolate"
        rng = np.random.default_rng(5)
        for n in (20, 100, 1000):
            x = rng.normal(size=n)
            ours = anderson_darling(x).statistic
            a2 = st.anderson(x, dist="norm", **kwargs).statistic
            np.testing.assert_allclose(
                ours, a2 * (1 + 0.75 / n + 2.25 / n**2), rtol=1e-10
            )

    def test_bitwise_equal_with_scipy_norm_cdf(self, monkeypatch):
        # The normal cdf inside the statistic is ndtr, which is what
        # scipy.stats.norm.cdf evaluates: both results match bit for bit.
        rng = np.random.default_rng(6)
        series = [
            rng.normal(size=50),
            rlambertw(2000, LambertWDist(Gaussian(0, 1), 0.4), seed=8),
            np.r_[rng.normal(size=30), 1e6],
        ]
        ours = [anderson_darling(x) for x in series]
        calls = []

        def norm_cdf(w):
            calls.append(w.size)
            return st.norm.cdf(w)

        monkeypatch.setattr(normality, "sp", SimpleNamespace(ndtr=norm_cdf))
        for x, res in zip(series, ours):
            ref = anderson_darling(x)
            assert [v.hex() for v in res] == [v.hex() for v in ref]
        # The statistic read the patched cdf once per series.
        assert calls == [x.size for x in series]

    def test_heavier_tails_larger_statistic(self):
        base = rlambertw(2000, LambertWDist(Gaussian(0, 1), 0.0), seed=9)
        heavy = rlambertw(2000, LambertWDist(Gaussian(0, 1), 0.3), seed=9)
        assert anderson_darling(heavy).statistic > anderson_darling(base).statistic


class TestPValue:
    def test_size_under_null(self):
        ok = 0
        for rep in range(100):
            x = rlambertw(10**4, LambertWDist(Gaussian(0, 1), 0.0), seed=1000 + rep)
            if anderson_darling(x).p_value > 0.01:
                ok += 1
        assert ok >= 98

    def test_cauchy_strongly_rejected(self):
        rng = np.random.default_rng(2)
        x = st.cauchy.ppf(np.clip(rng.random(10**4), 1e-12, 1 - 1e-12))
        assert anderson_darling(x).p_value < 1e-6

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for n in (8, 30, 500):
            res = anderson_darling(rng.normal(size=n))
            assert 0.0 <= res.p_value <= 1.0


class TestValidation:
    def test_too_short(self):
        with pytest.raises(DataError):
            anderson_darling(np.arange(7.0))

    def test_constant_series(self):
        with pytest.raises(DataError):
            anderson_darling(np.ones(50))

    def test_non_finite(self):
        with pytest.raises(DataError):
            anderson_darling([1.0, 2.0, np.inf] + [0.5] * 10)

    def test_overflowing_scale(self):
        # The sample variance of 50 normals and one 1e200 overflows: the
        # statistic from sd = inf read 20.0.  A DataError, and no
        # RuntimeWarning on the way (the test run makes one an error).
        x = np.r_[np.random.default_rng(7).normal(size=50), 1e200]
        with pytest.raises(DataError, match="needs a finite sample scale"):
            anderson_darling(x)
