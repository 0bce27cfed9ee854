"""Block-wise evaluation of the pointwise layers is invisible in the output.

Every entry point that runs long arrays through ``lambertw._blocked`` is
compared bit for bit with the same call made in one piece, by raising
``_BLOCK`` above the input size.
"""

import numpy as np
import pytest

from heavytail import (
    DomainError,
    Gamma,
    Gaussian,
    LambertWDist,
    StudentT,
    Uniform,
    h_tau,
    lambert_w0,
    loglik,
    w_tau,
)
from heavytail import lambertw

B = lambertw._BLOCK
SIZES = (B - 1, B, B + 1, 3 * B + 17)

DISTS = {
    "h-delta0": LambertWDist(Gaussian(0.5, 2.0), 0.0),
    "h": LambertWDist(Gaussian(0.5, 2.0), 1 / 3),
    "hh": LambertWDist(Gaussian(0.5, 2.0), (0.1, 0.5)),
    "student-t": LambertWDist(StudentT(5.0, 0.2, 1.5), 0.2),
    "gamma": LambertWDist(Gamma(2.0, 1.5), 0.1),
    "uniform": LambertWDist(Uniform(-1.0, 2.0), (0.25, 0.0)),
}


def whole(monkeypatch, func, *args):
    """``func(*args)`` evaluated as one block."""
    with monkeypatch.context() as m:
        m.setattr(lambertw, "_BLOCK", 10**9)
        return func(*args)


def assert_same(blocked, reference):
    assert type(blocked) is type(reference)
    assert np.shape(blocked) == np.shape(reference)
    assert np.asarray(blocked).dtype == np.asarray(reference).dtype
    assert np.array_equal(blocked, reference, equal_nan=True)


def finite_series(dist, n):
    """A sample of ``dist`` with extreme values, and points outside a bounded support."""
    y = dist.sample(n, n)
    # Arguments of W beyond 1e300 take the log-scale path, in two blocks.
    y[5:8] = (1e160, -3e290, 7e153)
    y[-40:-36] = (1e200, -1e250, 0.0, dist.tau.mu_x)
    y[-30:-25] = (-5.0, -1.0, 0.0, 1e3, 1e6)
    return y


def series(dist, n):
    """:func:`finite_series` with NaN and +-inf in the last block."""
    y = finite_series(dist, n)
    y[-3:] = (np.nan, np.inf, -np.inf)
    return y


def probabilities(n):
    p = np.random.default_rng(n).uniform(1e-12, 1.0 - 1e-12, n)
    p[-2] = np.nan
    return p


class TestHelper:
    @pytest.mark.parametrize("n", SIZES)
    def test_one_call_per_block(self, n):
        starts = []

        def record(x, offset):
            starts.append(x[0] - offset)
            return x + 0.5, 2.0 * x

        x = np.arange(n, dtype=float)
        half, double = lambertw._blocked(record, x, 0.0)
        assert starts == list(range(0, n, B))
        assert np.array_equal(half, x + 0.5) and np.array_equal(double, 2.0 * x)

    def test_shape_kept(self):
        x = np.arange(2.0 * B + 6).reshape(2, B + 3)
        assert np.array_equal(lambertw._blocked(np.square, x), x * x)


class TestBitIdentity:
    @pytest.mark.parametrize("n", SIZES)
    def test_lambert_w0(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        x = np.concatenate([rng.random(n - 2 * B // 3) * 1e3,
                            lambertw.BRANCH_POINT + rng.random(B // 3) * 1e-3,
                            rng.random(B // 3) * 1e-5])
        x[-5:] = (np.nan, np.inf, 0.0, 1e308, 1e-320)
        assert_same(lambert_w0(x), whole(monkeypatch, lambert_w0, x))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("name", DISTS)
    def test_transforms(self, name, n, monkeypatch):
        tau = DISTS[name].tau
        y = series(DISTS[name], n)
        x = w_tau(y, tau)
        assert_same(x, whole(monkeypatch, w_tau, y, tau))
        assert_same(h_tau(x, tau), whole(monkeypatch, h_tau, x, tau))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("method", ["cdf", "pdf", "logpdf"])
    @pytest.mark.parametrize("name", DISTS)
    def test_distribution_functions(self, name, method, n, monkeypatch):
        func = getattr(DISTS[name], method)
        y = series(DISTS[name], n)
        assert_same(func(y), whole(monkeypatch, func, y))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("name", DISTS)
    def test_quantile_and_sample(self, name, n, monkeypatch):
        dist = DISTS[name]
        p = probabilities(n)
        assert_same(dist.quantile(p), whole(monkeypatch, dist.quantile, p))
        assert_same(dist.sample(n, 7), whole(monkeypatch, dist.sample, n, 7))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("name", DISTS)
    def test_loglik(self, name, n, monkeypatch):
        dist = DISTS[name]
        y = finite_series(dist, n)
        y_inside = dist.sample(n, n + 1)
        assert loglik(y, dist) == whole(monkeypatch, loglik, y, dist)
        assert loglik(y_inside, dist) == whole(monkeypatch, loglik, y_inside, dist)

    @pytest.mark.parametrize("name", DISTS)
    def test_two_dimensional_input(self, name, monkeypatch):
        dist = DISTS[name]
        tau = dist.tau
        y = series(dist, 2 * (B + 9)).reshape(B + 9, 2)
        p = probabilities(y.size).reshape(2, B + 9)
        for func, arg in ((lambda v: w_tau(v, tau), y), (lambda v: h_tau(v, tau), y),
                          (dist.cdf, y), (dist.pdf, y), (dist.logpdf, y),
                          (dist.quantile, p)):
            out = func(arg)
            assert out.shape == arg.shape
            assert_same(out, whole(monkeypatch, func, arg))
        z = np.abs(y[:, ::-1])  # not contiguous
        assert_same(lambert_w0(z), whole(monkeypatch, lambert_w0, z))

    @pytest.mark.parametrize("name", DISTS)
    def test_scalar(self, name, monkeypatch):
        dist = DISTS[name]
        tau = dist.tau
        for func, arg in ((lambda v: w_tau(v, tau), 1.7), (lambda v: h_tau(v, tau), -0.4),
                          (dist.cdf, 0.9), (dist.pdf, 0.9), (dist.logpdf, 0.9),
                          (dist.quantile, 0.3), (lambert_w0, 2.5)):
            assert_same(func(arg), whole(monkeypatch, func, arg))
        assert isinstance(w_tau(1.7, tau), float)


class TestErrorsAcrossBlocks:
    N = 3 * B + 17

    def error(self, func, arg):
        with pytest.raises(DomainError) as info:
            func(arg)
        return type(info.value), str(info.value)

    def test_lambert_w0_domain_in_last_block(self, monkeypatch):
        x = np.linspace(0.0, 5.0, self.N)
        x[-7] = -1.0
        x[5] = np.nan
        got = self.error(lambert_w0, x)
        assert got == whole(monkeypatch, self.error, lambert_w0, x)
        assert "-1.0" in got[1]

    def test_quantile_range_in_last_block(self, monkeypatch):
        dist = DISTS["h"]
        p = np.linspace(0.01, 0.99, self.N)
        p[-7] = 1.0
        got = self.error(dist.quantile, p)
        assert got == whole(monkeypatch, self.error, dist.quantile, p)
