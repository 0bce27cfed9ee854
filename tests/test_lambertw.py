"""Tests for the Lambert W kernel: defining identity, derivative, domain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import special as sp

from heavytail import (
    BRANCH_POINT,
    ConvergenceError,
    DomainError,
    Gaussian,
    LambertWDist,
    lambert_w0,
    rlambertw,
)
from heavytail import lambertw


def bisect_w(target: float, lo: float = -1.0, hi: float = 700.0, tol: float = 1e-13):
    """Independent oracle: solve w * exp(w) = target by plain bisection."""
    f = lambda w: w * math.exp(w) - target
    assert f(lo) <= 0 <= f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestValues:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        np.testing.assert_allclose(lambert_w0(np.e), 1.0, rtol=1e-14)
        np.testing.assert_allclose(lambert_w0(BRANCH_POINT), -1.0, rtol=1e-12)

    def test_against_bisection_oracle(self):
        for target in [1.0, 0.25, 7.5, 123.0, 1e6]:
            oracle = bisect_w(target)
            np.testing.assert_allclose(lambert_w0(target), oracle, atol=2e-13)

    def test_w_of_one_reference(self):
        # Omega constant, from the bisection oracle at tolerance 1e-13.
        np.testing.assert_allclose(lambert_w0(1.0), 0.5671432904097838, atol=1e-12)


class TestIdentity:
    def grid(self):
        return np.concatenate(
            [
                np.logspace(-12, 12, 2048),
                -np.logspace(np.log10(-BRANCH_POINT - 1e-10), -300, 512),
                [BRANCH_POINT + 1e-10, BRANCH_POINT, 0.0, 1e300],
            ]
        )

    def test_defining_identity(self):
        x = self.grid()
        w = lambert_w0(x)
        resid = np.abs(w * np.exp(w) - x) / np.maximum(1.0, np.abs(x))
        assert resid.max() <= 1e-12

    def test_monotone(self):
        x = np.sort(self.grid())
        w = lambert_w0(x)
        assert np.all(np.diff(w) >= 0)

    def test_no_overflow_up_to_1e300(self):
        with np.errstate(over="raise"):
            w = lambert_w0(np.array([1e100, 1e200, 1e300]))
        assert np.all(np.isfinite(w))
        # residual check on the log scale: w + log w == log x
        lx = np.array([100, 200, 300]) * np.log(10.0)
        np.testing.assert_allclose(w + np.log(w), lx, rtol=1e-13)


class TestDerivative:
    """Differences of lambert_w0 against ``W'(x) = W / (x (1 + W))``.

    The likelihood gradient writes ``z^2 W'(delta z^2)`` by this formula.
    """

    def test_limit_at_zero(self):
        h = 1e-6
        assert abs((lambert_w0(h) - lambert_w0(-h)) / (2 * h) - 1.0) <= 1e-9

    def test_value_at_e(self):
        h = 1e-6
        fd = (lambert_w0(np.e + h) - lambert_w0(np.e - h)) / (2 * h)
        np.testing.assert_allclose(fd, 1.0 / (2 * np.e), rtol=1e-8)

    def test_matches_central_difference(self):
        x = np.logspace(-3, 6, 200)
        h = 1e-6 * np.maximum(1.0, x)
        fd = (lambert_w0(x + h) - lambert_w0(x - h)) / (2 * h)
        w = lambert_w0(x)
        np.testing.assert_allclose(w / (x * (1.0 + w)), fd, rtol=1e-6)

    def test_singular_at_branch_point(self):
        # W0 = -1 + sqrt(2 (e x + 1)) + ... near -1/e, so the slope from the
        # branch point over a step h grows like sqrt(2 e / h).
        assert lambert_w0(BRANCH_POINT) == -1.0
        for h in (1e-8, 1e-10, 1e-12):
            slope = (lambert_w0(BRANCH_POINT + h) + 1.0) / h
            assert slope * math.sqrt(h) == pytest.approx(math.sqrt(2 * math.e), rel=1e-3)


class TestDomain:
    def test_below_branch_point_raises(self):
        with pytest.raises(DomainError):
            lambert_w0(BRANCH_POINT - 1e-6)

    def test_clamp_band_just_below(self):
        x = BRANCH_POINT - 0.5 * lambertw._ABS_TOL
        assert lambert_w0(x) == -1.0

    def test_nan_propagates(self):
        assert math.isnan(lambert_w0(float("nan")))

    def test_inf_maps_to_inf(self):
        assert lambert_w0(float("inf")) == float("inf")


class TestSolverConfig:
    """The solver's fixed stopping rule (``_ABS_TOL``, ``_MAX_ITER``)."""

    def test_iteration_budget_exhaustion(self, monkeypatch):
        # -0.36 fails the fast path's residual check and needs more than
        # one Halley step from its branch-point start.
        monkeypatch.setattr(lambertw, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            lambert_w0(-0.36)


class TestShapes:
    def test_scalar_in_scalar_out(self):
        assert isinstance(lambert_w0(1.0), float)

    def test_array_in_array_out(self):
        out = lambert_w0(np.array([0.5, 1.0, 2.0]))
        assert isinstance(out, np.ndarray) and out.shape == (3,)


def ulp_distance(w, ref):
    """|w - ref| in units of the spacing of doubles at ``ref``."""
    return np.abs(w - ref) / np.spacing(np.abs(ref))


class TestAccuracy:
    # scipy.special.lambertw is an independent implementation, used here
    # as the reference value.
    def test_within_4_ulp_on_logspace(self):
        x = np.logspace(-320, 300, 6001)
        assert ulp_distance(lambert_w0(x), sp.lambertw(x).real).max() <= 4.0

    @pytest.mark.parametrize("delta", [0.1, 1 / 3, 1.0])
    def test_within_4_ulp_on_transform_arguments(self, delta):
        y = rlambertw(20000, LambertWDist(Gaussian(0.0, 1.0), delta), seed=5)
        arg = delta * y * y
        arg = arg[arg > 0.0]
        assert ulp_distance(lambert_w0(arg), sp.lambertw(arg).real).max() <= 4.0


_TOL = lambertw._ABS_TOL

# Every double at or above the branch point (subnormals, both zeros, the
# largest finite value and +inf included), the clamp band below it, and NaN.
_ARGS = hst.one_of(
    hst.floats(min_value=BRANCH_POINT),
    hst.floats(min_value=BRANCH_POINT - 0.5 * _TOL, max_value=BRANCH_POINT),
    hst.sampled_from(
        [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7e308,
         1.7976931348623157e308, math.inf, math.nan]
    ),
)


def _error_bound(x, w):
    """Largest error in ``w`` that the residual bound allows.

    A residual of ``tol * max(1, |x|)`` moves ``w`` by at most that much
    over the slope ``exp(w) (1 + w)`` of ``w exp(w)``, plus a few ulp of
    rounding; the bound is infinite at the branch point itself.
    """
    with np.errstate(all="ignore"):
        slope = np.exp(w) * (1.0 + w)
        bound = _TOL * np.maximum(1.0, np.abs(x)) / slope
    bound = np.where(slope > 0.0, bound, np.inf)
    return bound + 4.0 * np.spacing(np.abs(w))


def _identity_or_step(x: float, w: float) -> bool:
    """The residual bound holds, or ``w`` is within 4 ulp-steps of the root.

    The second form is the loop's stopping rule for arguments whose
    residual is finer than one ulp of ``w``; it is checked on the log
    scale, ``v + log(v) - log(x)``, which changes sign at the root and
    cannot overflow.
    """
    resid = abs(w * math.exp(w) - x) if w < 709.0 else math.inf
    if resid <= _TOL * max(1.0, abs(x)):
        return True
    if x <= math.e:
        return False
    step = 4.0 * np.finfo(float).eps * (1.0 + abs(w))
    g = lambda v: v + math.log(v) - math.log(x)
    return g(w - step) <= 0.0 <= g(w + step)


class TestWholeFloatRange:
    @settings(max_examples=400, deadline=None)
    @given(x=_ARGS)
    def test_pointwise_contract(self, x):
        w = lambert_w0(x)
        assert type(w) is float
        if math.isnan(x):
            assert math.isnan(w)
        elif x == math.inf:
            assert w == math.inf
        else:
            assert w >= -1.0
            assert _identity_or_step(x, w), (x, w)

    @settings(max_examples=200, deadline=None)
    @given(xs=hst.lists(hst.one_of(
        hst.floats(min_value=BRANCH_POINT, max_value=1.7e308),
        hst.floats(min_value=BRANCH_POINT - 0.5 * _TOL, max_value=BRANCH_POINT),
    ), min_size=2, max_size=50))
    def test_monotone_on_sorted_input(self, xs):
        # Monotone up to the accuracy of each value: two arguments one ulp
        # apart may come back one or two ulp out of order.
        x = np.sort(np.array(xs))
        w = lambert_w0(x)
        slack = _error_bound(x, w)
        assert np.all(w[1:] >= w[:-1] - (slack[1:] + slack[:-1]))

    def test_array_of_the_whole_range(self):
        x = np.array([-0.0, 0.0, 5e-324, 1e-310, BRANCH_POINT, 1e-300, 1.0,
                      1e22, 1e60, 1e300, 1.7e308, 1.7976931348623157e308,
                      math.inf, math.nan])
        w = lambert_w0(x)
        for xi, wi in zip(x.tolist(), w.tolist()):
            if math.isnan(xi):
                assert math.isnan(wi)
                continue
            assert wi == lambert_w0(xi)
            assert (wi == math.inf) if xi == math.inf else _identity_or_step(xi, wi)
