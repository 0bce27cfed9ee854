"""Transform pair tests: bijectivity, shrinkage, derivatives vs finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from heavytail import (
    DomainError,
    Gaussian,
    LambertWDist,
    TailParams,
    h_delta,
    h_tau,
    w_delta,
    w_tau,
)
from heavytail.transform import w_of_delta_z_sq

DELTAS = [0.0, 0.1, 1 / 3, 0.5, 1.0, 2.0, 5.0]


class TestForward:
    def test_identity_at_zero_delta(self):
        assert h_delta(1.7, 0.0) == 1.7

    def test_direct_formula(self):
        np.testing.assert_allclose(h_delta(1.0, 1.0), math.exp(0.5), rtol=1e-15)
        np.testing.assert_allclose(h_delta(-2.0, 0.5), -2.0 * math.e, rtol=1e-15)

    def test_overflow_returns_inf_not_exception(self):
        assert h_delta(50.0, 5.0) == math.inf
        assert h_delta(-50.0, 5.0) == -math.inf

    def test_infinity_maps_to_itself(self):
        for d in DELTAS:
            assert h_delta(math.inf, d) == math.inf
            assert h_delta(-math.inf, d) == -math.inf
        out = h_tau(np.array([-np.inf, np.inf]), TailParams(0.0, 1.0, (0.0, 0.5)))
        assert np.array_equal(out, [-np.inf, np.inf])

    def test_strictly_increasing(self):
        u = np.linspace(-8, 8, 400)
        for d in DELTAS:
            assert np.all(np.diff(h_delta(u, d)) > 0)


class TestInverse:
    def test_zero_delta_returns_input(self):
        assert w_delta(3.2, 0.0) == 3.2

    def test_zero_maps_to_zero_any_delta(self):
        assert w_delta(0.0, 7.0) == 0.0

    def test_round_trip(self):
        np.testing.assert_allclose(w_delta(h_delta(2.0, 1.0), 1.0), 2.0, rtol=1e-12)

    def test_bijectivity_grid(self):
        u = np.linspace(-6.0, 6.0, 241)
        for d in DELTAS:
            back = w_delta(h_delta(u, d), d)
            err = np.abs(back - u) / np.maximum(1.0, np.abs(u))
            assert err.max() <= 1e-10, d

    def test_shrinkage(self):
        z = np.linspace(-30, 30, 301)
        for d in DELTAS[1:]:
            w = w_delta(z, d)
            assert np.all(np.abs(w) <= np.abs(z))
            nz = z != 0
            assert np.all(np.abs(w[nz]) < np.abs(z[nz]))

    def test_monotone_shrinkage_in_delta(self):
        z = np.linspace(-10, 10, 101)
        prev = w_delta(z, DELTAS[0]) ** 2
        for d in DELTAS[1:]:
            cur = w_delta(z, d) ** 2
            assert np.all(cur <= prev + 1e-15)
            prev = cur

    def test_huge_argument_no_overflow(self):
        # delta * z^2 overflows the float range; the log-scale path takes over.
        z = 1e200
        w = w_delta(z, 1.0)
        assert np.isfinite(w)
        # identity on the log scale: log h(w) == log z
        np.testing.assert_allclose(
            np.log(w) + 0.5 * w * w, np.log(z), rtol=1e-12
        )


@settings(max_examples=200, deadline=None)
@given(
    z=hst.floats(-1e6, 1e6, allow_nan=False),
    d=hst.sampled_from(DELTAS),
)
def test_oddness_property(z, d):
    assert w_delta(-z, d) == -w_delta(z, d)
    hu = h_delta(z if abs(z) < 20 else z / 1e5, d)
    hd = h_delta(-(z if abs(z) < 20 else z / 1e5), d)
    assert hd == -hu


@settings(max_examples=150, deadline=None)
@given(
    u=hst.floats(-6, 6, allow_nan=False),
    d=hst.floats(0, 4, allow_nan=False),
)
def test_round_trip_property(u, d):
    z = h_delta(u, d)
    np.testing.assert_allclose(w_delta(z, d), u, atol=1e-10, rtol=1e-10)


class TestTailParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            TailParams(0.0, 0.0, 0.1)
        with pytest.raises(DomainError):
            TailParams(0.0, -1.0, 0.1)
        with pytest.raises(DomainError):
            TailParams(0.0, 1.0, -0.1)
        with pytest.raises(DomainError):
            TailParams(0.0, 1.0, (0.1, -0.2))
        with pytest.raises(DomainError):
            TailParams(math.nan, 1.0, 0.1)

    def test_side_accessors(self):
        sym = TailParams(0.0, 1.0, 0.3)
        assert not sym.is_double
        assert sym.delta_left == sym.delta_right == 0.3
        dbl = TailParams(0.0, 1.0, (0.1, 0.2))
        assert dbl.is_double
        assert dbl.delta_left == 0.1 and dbl.delta_right == 0.2

    def test_as_array(self):
        np.testing.assert_array_equal(
            TailParams(1.0, 2.0, (0.1, 0.2)).as_array(), [1.0, 2.0, 0.1, 0.2]
        )


class TestLocationScale:
    def test_mu_fixed_point(self):
        tau = TailParams(2.5, 3.0, 1.2)
        assert h_tau(2.5, tau) == 2.5
        assert w_tau(2.5, tau) == 2.5

    def test_identity_transform(self):
        tau = TailParams(0.0, 1.0, 0.0)
        assert h_tau(1.0, tau) == 1.0

    def test_double_tail_example(self):
        # u = (2 - 1)/2 = 0.5 on the right side: 1 + 2 * 0.5 * exp(0.05 * 0.25)
        tau = TailParams(1.0, 2.0, (0.0, 0.1))
        expected = 1.0 + 2.0 * (0.5 * math.exp(0.05 * 0.25))
        np.testing.assert_allclose(h_tau(2.0, tau), expected, rtol=1e-14)

    def test_round_trip(self):
        tau = TailParams(0.5, 2.0, 1 / 3)
        np.testing.assert_allclose(w_tau(h_tau(0.7, tau), tau), 0.7, rtol=1e-12)

    def test_round_trip_double(self):
        tau = TailParams(-1.0, 0.7, (0.4, 0.05))
        x = np.linspace(-8, 8, 101)
        np.testing.assert_allclose(w_tau(h_tau(x, tau), tau), x, atol=1e-9)

    def test_monotone(self):
        tau = TailParams(0.3, 1.4, (0.8, 0.2))
        y = np.linspace(-50, 50, 301)
        assert np.all(np.diff(w_tau(y, tau)) > 0)
        x = np.linspace(-6, 6, 301)
        assert np.all(np.diff(h_tau(x, tau)) > 0)

    def test_symmetric_double_bit_agreement(self):
        x = np.linspace(-9, 9, 400)
        for d in DELTAS:
            sym = TailParams(0.1, 1.3, d)
            dbl = TailParams(0.1, 1.3, (d, d))
            np.testing.assert_array_equal(h_tau(x, sym), h_tau(x, dbl))
            np.testing.assert_array_equal(w_tau(x, sym), w_tau(x, dbl))


def w_delta_dz(z, delta):
    """dw/dz, read off the density: the standard-Gaussian-input pdf over the input pdf."""
    return LambertWDist(Gaussian(), delta).pdf(z) / Gaussian().pdf(w_delta(z, delta))


def w_delta_sq_ddelta(z, delta):
    """Closed-form d/ddelta of ``w_delta(z)^2``: ``-w_delta(z)^4 / (1 + W(delta z^2))``."""
    return -w_delta(z, delta) ** 4 / (1.0 + w_of_delta_z_sq(z, delta))


def w_delta_ddelta(z, delta):
    """Closed-form d/ddelta of ``w_delta``: ``-w_delta(z)^3 / (2 (1 + W(delta z^2)))``."""
    return -0.5 * w_delta(z, delta) ** 3 / (1.0 + w_of_delta_z_sq(z, delta))


class TestDerivatives:
    """Differences of w_delta against the closed forms the package is written on.

    The density's factor ``dw/dz = exp(-W/2) / (1 + W)`` is checked through
    ``LambertWDist.pdf``; ``d(w^2)/ddelta`` and ``dw/ddelta``, on which the
    scores and the IGMM moment step are written, on the package's W.
    """

    def test_dz_trivial(self):
        assert w_delta_dz(5.0, 0.0) == 1.0
        assert w_delta_dz(0.0, 3.0) == 1.0

    def test_sq_ddelta_trivial(self):
        assert w_delta_sq_ddelta(0.0, 1.0) == 0.0
        assert w_delta_sq_ddelta(1.0, 0.0) == -1.0

    def test_ddelta_trivial(self):
        assert w_delta_ddelta(0.0, 2.0) == 0.0
        assert w_delta_ddelta(1.0, 0.0) == -0.5

    def test_sq_ddelta_nonpositive(self):
        z, d = np.meshgrid(np.linspace(-4, 4, 17), np.linspace(0, 3, 13))
        vals = w_delta_sq_ddelta(z.ravel(), 1.0)
        assert np.all(vals <= 0)

    def test_dz_against_finite_difference(self):
        h = 1e-6
        for d in [0.01, 0.4, 0.5, 1.5, 3.0]:
            z = np.linspace(-4, 4, 41)
            fd = (w_delta(z + h, d) - w_delta(z - h, d)) / (2 * h)
            np.testing.assert_allclose(w_delta_dz(z, d), fd, rtol=1e-6, atol=1e-9)

    def test_ddelta_against_finite_difference(self):
        for d in [0.01, 0.4, 1.5, 3.0]:
            h = 1e-6 * max(1.0, d)
            z = np.linspace(-4, 4, 41)
            fd = (w_delta(z, d + h) - w_delta(z, d - h)) / (2 * h)
            np.testing.assert_allclose(w_delta_ddelta(z, d), fd, rtol=1e-6, atol=1e-9)

    def test_sq_ddelta_against_finite_difference(self):
        for d in [0.01, 0.4, 1.5, 3.0]:
            h = 1e-6 * max(1.0, d)
            z = np.linspace(-4, 4, 41)
            fd = (w_delta(z, d + h) ** 2 - w_delta(z, d - h) ** 2) / (2 * h)
            np.testing.assert_allclose(
                w_delta_sq_ddelta(z, d), fd, rtol=1e-6, atol=1e-9
            )

    def test_specific_derived_values(self):
        # frozen from the centered-difference oracle above
        h = 1e-7
        fd = (w_delta(2.0 + h, 0.5) - w_delta(2.0 - h, 0.5)) / (2 * h)
        np.testing.assert_allclose(w_delta_dz(2.0, 0.5), fd, atol=1e-7)
        hd = 1e-7
        fd2 = (w_delta(1.5, 0.4 + hd) ** 2 - w_delta(1.5, 0.4 - hd) ** 2) / (2 * hd)
        np.testing.assert_allclose(w_delta_sq_ddelta(1.5, 0.4), fd2, atol=1e-6)
        fd3 = (w_delta(-2.0, 0.3 + hd) - w_delta(-2.0, 0.3 - hd)) / (2 * hd)
        np.testing.assert_allclose(w_delta_ddelta(-2.0, 0.3), fd3, atol=1e-6)
