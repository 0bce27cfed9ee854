"""Distribution-object tests: closed forms vs quadrature, sampling, moments."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy import integrate
from scipy import stats as st

import heavytail.estimation as estimation
import heavytail.transform as transform
from heavytail import (
    ChiSquared,
    DomainError,
    Exponential,
    Gamma,
    Gaussian,
    LambertWDist,
    StudentT,
    TailParams,
    Uniform,
    family_from_name,
    h_delta,
    h_tau,
    kurtosis_gaussian,
    kurtosis_student_t,
    loglik,
    moment_gaussian,
    rlambertw,
    tail_index,
    variance_factor,
    w_delta,
    w_tau,
)
from heavytail.distributions import _t_log_norm
from heavytail.estimation import _gaussian_loglik_score, _gmm_step, _moment_residual
from heavytail.transform import _w_and_w_delta
from util import normalization_by_substitution, pdf_student_t_input

FAMILIES = {
    "gaussian": Gaussian(0.0, 1.0),
    "gamma": Gamma(3.0, 1.0),
    "uniform": Uniform(-1.0, 1.0),
    "chisq": ChiSquared(1.0),
    "exponential": Exponential(2.0),
    "student-t": StudentT(5.0),
}


class TestReduction:
    """delta = 0 must reproduce the input distribution pointwise."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_pointwise(self, name):
        fam = FAMILIES[name]
        dist = LambertWDist(fam, 0.0)
        span = np.linspace(fam.mean_x - 3 * fam.sd_x, fam.mean_x + 3 * fam.sd_x, 41)
        np.testing.assert_allclose(dist.cdf(span), fam.cdf(span), rtol=1e-13)
        np.testing.assert_allclose(dist.pdf(span), fam.pdf(span), rtol=1e-12)
        p = np.linspace(0.01, 0.99, 21)
        np.testing.assert_allclose(dist.quantile(p), fam.quantile(p), rtol=1e-10)


class TestCdf:
    def test_median_at_mu(self):
        dist = LambertWDist(Gaussian(2.0, 3.0), 0.7)
        np.testing.assert_allclose(dist.cdf(2.0), 0.5, atol=1e-14)

    def test_closed_form_composition(self):
        dist = LambertWDist(Gaussian(0.0, 1.0), 1 / 3)
        np.testing.assert_allclose(
            dist.cdf(2.0), st.norm.cdf(w_delta(2.0, 1 / 3)), rtol=1e-13
        )

    def test_against_empirical_cdf(self):
        dist = LambertWDist(Gaussian(0.0, 1.0), 1 / 3)
        y = rlambertw(10**6, dist, seed=101)
        for q in [-2.0, -0.5, 0.8, 2.0, 5.0]:
            emp = np.mean(y <= q)
            assert abs(emp - dist.cdf(q)) < 3e-3

    def test_monotone_and_limits(self):
        for name, fam in FAMILIES.items():
            dist = LambertWDist(fam, (0.2, 0.05))
            if name == "student-t":
                dist = LambertWDist(fam, 0.2)
            grid = np.linspace(fam.mean_x - 8 * fam.sd_x, fam.mean_x + 8 * fam.sd_x, 200)
            c = dist.cdf(grid)
            assert np.all(np.diff(c) >= -1e-15)
            assert np.all((c >= 0) & (c <= 1))


class TestPdf:
    def test_standard_normal_mode(self):
        np.testing.assert_allclose(
            LambertWDist(Gaussian(0, 1), 0.0).pdf(0.0), 1 / math.sqrt(2 * math.pi)
        )

    def test_mode_unchanged_by_tails(self):
        # w(0) = 0 and both correction factors are 1 at the location
        np.testing.assert_allclose(
            LambertWDist(Gaussian(0, 1), 0.25).pdf(0.0), 1 / math.sqrt(2 * math.pi)
        )

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize("delta", [0.0, 0.1, 1 / 3])
    def test_normalization(self, name, delta):
        val = normalization_by_substitution(LambertWDist(FAMILIES[name], delta))
        assert abs(val - 1.0) <= 1e-6, (name, delta, val)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize("delta", [0.0, 0.1, 1 / 3, 1.0])
    def test_pdf_is_cdf_derivative(self, name, delta):
        fam = FAMILIES[name]
        dist = LambertWDist(fam, delta)
        if fam.kind == "scale":
            grid = np.linspace(0.3 * fam.sd_x, fam.mean_x + 2 * fam.sd_x, 25)
        else:
            grid = np.linspace(fam.mean_x - 2 * fam.sd_x, fam.mean_x + 2 * fam.sd_x, 25)
        h = 1e-5 * max(1.0, fam.sd_x)
        fd = (dist.cdf(grid + h) - dist.cdf(grid - h)) / (2 * h)
        np.testing.assert_allclose(dist.pdf(grid), fd, rtol=2e-5, atol=1e-5)

    def test_logpdf_consistent(self):
        dist = LambertWDist(Gamma(3.0, 1.0), 0.2)
        grid = np.linspace(0.5, 20.0, 30)
        np.testing.assert_allclose(
            np.exp(dist.logpdf(grid)), dist.pdf(grid), rtol=1e-10
        )

    def test_double_tail_dispatch(self):
        dist = LambertWDist(Gaussian(0, 1), (0.4, 0.1))
        left = LambertWDist(Gaussian(0, 1), 0.4)
        right = LambertWDist(Gaussian(0, 1), 0.1)
        np.testing.assert_allclose(dist.pdf(-1.7), left.pdf(-1.7))
        np.testing.assert_allclose(dist.pdf(1.7), right.pdf(1.7))
        val = normalization_by_substitution(dist)
        assert abs(val - 1.0) <= 1e-6


class TestQuantile:
    def test_median_equals_location(self):
        for delta in [0.0, 0.3, 1.0]:
            dist = LambertWDist(Gaussian(1.5, 2.0), delta)
            np.testing.assert_allclose(dist.quantile(0.5), 1.5, atol=1e-12)

    def test_transform_of_input_quantile(self):
        dist = LambertWDist(Gaussian(0, 1), 0.2)
        expected = h_delta(st.norm.ppf(0.975), 0.2)
        np.testing.assert_allclose(dist.quantile(0.975), expected, rtol=1e-12)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_cdf_round_trip(self, name):
        dist = LambertWDist(FAMILIES[name], 0.15)
        p = np.linspace(0.02, 0.98, 25)
        np.testing.assert_allclose(dist.cdf(dist.quantile(p)), p, atol=1e-9)

    def test_domain(self):
        dist = LambertWDist(Gaussian(0, 1), 0.1)
        for bad in [0.0, 1.0, -0.2, 1.3]:
            with pytest.raises(DomainError):
                dist.quantile(bad)


class TestGaussianMoments:
    def test_variance_at_zero(self):
        assert moment_gaussian(2, 0.0) == 1.0

    def test_second_moment_value(self):
        np.testing.assert_allclose(moment_gaussian(2, 1 / 3), 3.0**1.5, rtol=1e-12)

    def test_fourth_gaussian(self):
        assert moment_gaussian(4, 0.0) == 3.0

    def test_odd_moments_zero(self):
        assert moment_gaussian(1, 0.3) == 0.0
        assert moment_gaussian(3, 0.2) == 0.0

    def test_nonexistent(self):
        assert moment_gaussian(4, 0.3) is None
        assert moment_gaussian(1, 1.5) is None
        # boundary n = 1/delta reported nonexistent
        assert moment_gaussian(4, 0.25) is None

    def test_against_quadrature(self):
        # quadrature oracle: E[Z^n] = int u^n-weighted transformed density
        for n, delta in [(2, 0.1), (4, 0.1), (2, 0.2)]:
            val, _ = integrate.quad(
                lambda u, n=n, delta=delta: h_delta(u, delta) ** n * st.norm.pdf(u),
                -16,
                16,
                limit=300,
            )
            np.testing.assert_allclose(moment_gaussian(n, delta), val, rtol=1e-9)

    def test_invalid_order(self):
        with pytest.raises(DomainError):
            moment_gaussian(0, 0.1)


class TestKurtosisAndScale:
    def test_kurtosis_gaussian_reference(self):
        assert kurtosis_gaussian(0.0) == 3.0

    def test_kurtosis_gaussian_value(self):
        np.testing.assert_allclose(kurtosis_gaussian(0.1), 5.5082, atol=1e-3)

    def test_kurtosis_taylor_cross_check(self):
        d = 0.05
        series = 3 + 12 * d + 66 * d * d
        exact = kurtosis_gaussian(d)
        assert abs(series - exact) / exact < 0.02

    def test_kurtosis_nonexistent(self):
        assert kurtosis_gaussian(0.25) is None
        assert kurtosis_gaussian(0.4) is None

    def test_kurtosis_increasing(self):
        grid = np.linspace(0, 0.24, 25)
        vals = [kurtosis_gaussian(d) for d in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_variance_factor_values(self):
        assert variance_factor(0.0) == 1.0
        np.testing.assert_allclose(variance_factor(0.1), 1.182, atol=5e-4)
        np.testing.assert_allclose(variance_factor(1 / 3), 2.2795, atol=5e-4)
        assert variance_factor(0.5) is None

    def test_student_t_kurtosis(self):
        np.testing.assert_allclose(kurtosis_student_t(1e8), 3.0, atol=1e-6)
        assert kurtosis_student_t(6.0) == 6.0
        assert kurtosis_student_t(4.0) is None

    def test_tail_index(self):
        assert tail_index(0.25) == 4.0
        assert tail_index(0.0) == math.inf


class TestStudentTInput:
    def test_reduction_at_zero_delta(self):
        tau = TailParams(0.0, 1.0, 0.0)
        np.testing.assert_allclose(
            pdf_student_t_input(5.0, tau, 0.0), st.t.pdf(0.0, 5), rtol=1e-12
        )
        # location-scale reduction: variance sigma^2 * nu/(nu-2)
        tau = TailParams(1.0, 2.0, 0.0)
        grid = np.linspace(-8, 10, 30)
        np.testing.assert_allclose(
            pdf_student_t_input(7.0, tau, grid),
            st.t.pdf((grid - 1.0) / 2.0, 7) / 2.0,
            rtol=1e-10,
        )

    def test_integrates_to_one(self):
        dist = LambertWDist(StudentT(5.0), 0.2)
        val = normalization_by_substitution(dist, p_tail=1e-10)
        assert abs(val - 1.0) <= 1e-5

    def test_window_mass_matches_cdf(self):
        # The [-200, 200] window deliberately misses the slow tails; the
        # quadrature over it must agree with the model's own cdf mass.
        tau = TailParams(0.0, 1.0, 0.2)
        val, _ = integrate.quad(
            lambda v: float(pdf_student_t_input(5.0, tau, v)), -200, 200, limit=300
        )
        dist = LambertWDist(StudentT(5.0), 0.2)
        window = float(dist.cdf(200.0) - dist.cdf(-200.0))
        np.testing.assert_allclose(val, window, atol=1e-8)
        assert window < 1.0 - 1e-4  # the heavy tails really are out there

    def test_large_nu_matches_gaussian_input(self):
        gauss = LambertWDist(Gaussian(0, 1), 0.3)
        tau = TailParams(0.0, 1.0, 0.3)
        np.testing.assert_allclose(
            pdf_student_t_input(1e6, tau, 1.0), gauss.pdf(1.0), atol=1e-4
        )

    def test_matches_generic_object(self):
        tau = TailParams(0.4, 1.3, 0.15)
        dist = LambertWDist(StudentT(6.0, mu=0.4, scale=1.3), 0.15)
        grid = np.linspace(-10, 12, 40)
        np.testing.assert_allclose(
            pdf_student_t_input(6.0, tau, grid), dist.pdf(grid), rtol=1e-12
        )
        np.testing.assert_allclose(
            np.exp(dist.logpdf(grid)),
            pdf_student_t_input(6.0, tau, grid),
            rtol=1e-12,
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            StudentT(2.0)


class TestSampling:
    @pytest.mark.parametrize(
        "name,delta",
        [
            ("gaussian", 0.1),
            ("gaussian", 1 / 3),
            ("uniform", 0.2),
            ("gamma", 0.1),
            ("chisq", 0.1),
            ("exponential", 0.1),
            ("student-t", 0.1),
        ],
    )
    def test_kolmogorov_smirnov(self, name, delta):
        dist = LambertWDist(FAMILIES[name], delta)
        y = rlambertw(10**5, dist, seed=42)
        stat = st.kstest(y, lambda q: dist.cdf(q)).statistic
        assert stat <= 1.63 / math.sqrt(10**5) * 1.5

    def test_moment_consistency(self):
        # sample variance and kurtosis vs closed forms, 3 MC standard
        # errors estimated by batching
        for delta in [0.05, 0.1]:
            dist = LambertWDist(Gaussian(0, 1), delta)
            y = rlambertw(10**6, dist, seed=7)
            batches = y.reshape(20, -1)

            def kurt(a):
                c = a - a.mean(axis=-1, keepdims=True)
                m2 = (c**2).mean(axis=-1)
                return (c**4).mean(axis=-1) / m2**2

            var_b = batches.var(axis=1)
            se_var = var_b.std(ddof=1) / math.sqrt(20)
            assert abs(y.var() - variance_factor(delta) ** 2) <= 3 * se_var
            kurt_b = kurt(batches)
            se_kurt = kurt_b.std(ddof=1) / math.sqrt(20)
            # batched kurtosis is slightly biased low; widen by its spread
            assert abs(kurt(y) - kurtosis_gaussian(delta)) <= 3 * se_kurt + 0.05


# Each input family next to the scipy.stats object its closed forms replace.
SCIPY_EQUIVALENTS = [
    (Uniform(-1.0, 1.0), st.uniform(loc=-1.0, scale=2.0)),
    (Uniform(0.3, 1.3), st.uniform(loc=0.3, scale=1.0)),
    (Gamma(3.0, 1.0), st.gamma(a=3.0, scale=1.0)),
    (Gamma(0.5, 2.5), st.gamma(a=0.5, scale=1.0 / 2.5)),
    (Gamma(1.0, 0.3), st.gamma(a=1.0, scale=1.0 / 0.3)),
    (ChiSquared(1.0), st.chi2(df=1.0)),
    (ChiSquared(7.5), st.chi2(df=7.5)),
    (Exponential(2.0), st.expon(scale=1.0 / 2.0)),
    (Exponential(0.7), st.expon(scale=1.0 / 0.7)),
    (StudentT(5.0), st.t(df=5.0)),
    (StudentT(2.5, -1.0, 3.0), st.t(df=2.5, loc=-1.0, scale=3.0)),
    (Gaussian(0.4, 2.0), st.norm(loc=0.4, scale=2.0)),
]

# Gaussian and Student t keep their own log-densities.
OWN_DENSITY = (Gaussian, StudentT)
DENSITY_EQUIVALENTS = [
    pair for pair in SCIPY_EQUIVALENTS if not isinstance(pair[0], OWN_DENSITY)
]

_P_CLIP = (1e-300, 1.0 - 1e-16)


def _pair_id(pair):
    return repr(pair[0])


def _edge_points():
    rng = np.random.default_rng(11)
    special = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
        1.0, -1.0, 0.3, 1.3, -2.5, 7.0, 1e300, -1e300,
        np.inf, -np.inf, np.nan,
    ]
    return np.concatenate(
        [rng.normal(0.0, 3.0, 10**4), rng.standard_cauchy(500), special]
    )


def _scipy(fn, arg):
    # scipy warns on some out-of-support and infinite points; the values
    # are what is compared.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return np.asarray(fn(arg))


def assert_bitwise(ours, ref):
    ours, ref = np.asarray(ours, dtype=float), np.asarray(ref, dtype=float)
    assert ours.shape == ref.shape
    both_nan = np.isnan(ours) & np.isnan(ref)
    same = (ours.view(np.int64) == ref.view(np.int64)) | both_nan
    bad = np.flatnonzero(~same)
    assert bad.size == 0, (ours.ravel()[bad[:5]], ref.ravel()[bad[:5]])


class TestScipyParity:
    """The closed forms equal the scipy.stats objects they replace, bit for bit."""

    def test_special_handle_is_scipy_special(self):
        # The lazily imported handle hands out scipy.special's own functions
        # and keeps each one on itself, so later lookups skip __getattr__.
        from scipy import special

        from heavytail.distributions import sp

        assert sp.ndtri is special.ndtri
        assert vars(sp)["ndtri"] is special.ndtri
        with pytest.raises(AttributeError):
            sp.no_such_function

    @pytest.mark.parametrize("pair", SCIPY_EQUIVALENTS, ids=_pair_id)
    def test_cdf(self, pair):
        fam, ref = pair
        x = _edge_points()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = fam.cdf(x)
        assert_bitwise(ours, _scipy(ref.cdf, x))

    @pytest.mark.parametrize("pair", DENSITY_EQUIVALENTS, ids=_pair_id)
    def test_logpdf_and_pdf(self, pair):
        fam, ref = pair
        x = _edge_points()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logpdf, pdf = fam.logpdf(x), fam.pdf(x)
        assert_bitwise(logpdf, _scipy(ref.logpdf, x))
        assert_bitwise(pdf, _scipy(ref.pdf, x))

    @pytest.mark.parametrize("pair", SCIPY_EQUIVALENTS, ids=_pair_id)
    def test_quantile(self, pair):
        fam, ref = pair
        rng = np.random.default_rng(12)
        p = np.concatenate(
            [rng.random(10**4), [*_P_CLIP, 0.0, 1.0, 5e-324, 1e-320, 0.5, np.nan]]
        )
        assert_bitwise(fam.quantile(p), _scipy(ref.ppf, np.clip(p, *_P_CLIP)))

    @pytest.mark.parametrize("pair", SCIPY_EQUIVALENTS, ids=_pair_id)
    def test_scalar_results_are_numpy_scalars(self, pair):
        fam, ref = pair
        methods = ["cdf"] if isinstance(fam, OWN_DENSITY) else ["cdf", "logpdf", "pdf"]
        for v in (0.7, 0.0, -0.0, -3.0, np.nan):
            for m in methods:
                ours, theirs = getattr(fam, m)(v), _scipy(getattr(ref, m), v)[()]
                assert type(ours) is type(theirs)
                assert_bitwise(ours, theirs)
        assert type(fam.quantile(0.3)) is type(ref.ppf(0.3))


# sha256 of rlambertw(1000, LambertWDist(F, 0.2), seed=5) as little-endian
# float64, recorded when the families were backed by scipy.stats.
SAMPLE_DIGESTS = {
    "gaussian": "f63bd5e4c662c58047a2c6e6e959d7476033caeda93c4f37ceeee41ccba96978",
    "gamma": "2ce712df016b6a0b65869577ae69abbd914bccd7db084e77fe035b67fc23a11e",
    "uniform": "c1925536ed6e5c309dd0a115781f2cecb469b59ea59f0817bd04064bdac77790",
    "chisq": "358578f0311c76d799186e53af57a54b8ed2cfe98ea165add7690218755ad550",
    "exponential": "1ab9115ae5c4526fac44b70810a8b9369b549a79b9d3e20883275afe410b2644",
    "student-t": "5125b973e3e39d589c1308aecba43fa45e287c92af02d047b3e56a859618ebd8",
}


@pytest.mark.parametrize("name", sorted(SAMPLE_DIGESTS))
def test_sample_stream_unchanged(name):
    y = rlambertw(1000, LambertWDist(FAMILIES[name], 0.2), seed=5)
    digest = hashlib.sha256(np.ascontiguousarray(y, dtype="<f8").tobytes())
    assert digest.hexdigest() == SAMPLE_DIGESTS[name]


class TestFamilyRegistry:
    def test_lookup(self):
        fam = family_from_name("gamma", (2.0, 3.0))
        assert isinstance(fam, Gamma)
        assert fam.shape == 2.0 and fam.rate == 3.0

    def test_unknown(self):
        with pytest.raises(DomainError):
            family_from_name("cauchy")

    def test_validation(self):
        with pytest.raises(DomainError):
            Gaussian(0.0, -1.0)
        with pytest.raises(DomainError):
            Uniform(2.0, 1.0)
        with pytest.raises(DomainError):
            Gamma(-1.0, 1.0)
        with pytest.raises(DomainError):
            ChiSquared(0.0)
        with pytest.raises(DomainError):
            Exponential(0.0)

    def test_scale_family_tau_convention(self):
        dist = LambertWDist(Gamma(3.0, 1.0), 0.2)
        assert dist.tau.mu_x == 0.0
        np.testing.assert_allclose(dist.tau.sigma_x, math.sqrt(3.0))
        dist = LambertWDist(StudentT(5.0), 0.2)
        np.testing.assert_allclose(dist.tau.sigma_x, math.sqrt(5.0 / 3.0))


class TestStudentTFarTail:
    def test_logpdf_finite_where_t_squared_overflows(self):
        d = StudentT(5.0, mu=0.5, scale=2.0)
        x = np.array([1e300, -1e300, 1e200, -3e154, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = d.logpdf(x)
            scalar = d.logpdf(1e300)
        t = (x - 0.5) / 2.0
        nu = 5.0
        log_norm = (math.lgamma(3.0) - math.lgamma(2.5)
                    - 0.5 * math.log(nu * math.pi) - math.log(2.0))
        closed = log_norm - 0.5 * (nu + 1.0) * (2.0 * np.log(np.abs(t)) - math.log(nu))
        np.testing.assert_allclose(ours, closed, rtol=1e-14)
        assert type(scalar) is np.float64 and scalar == ours[0]

    def test_infinite_and_nan_arguments(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = StudentT(5.0).logpdf(np.array([np.inf, -np.inf, np.nan, 0.0]))
        assert out[0] == out[1] == -np.inf
        assert np.isnan(out[2]) and np.isfinite(out[3])

    def test_finite_range_unchanged(self):
        # Where t*t/nu is finite the value is the one-line formula, bit for bit.
        d = StudentT(7.0, mu=-1.0, scale=0.5)
        x = np.concatenate([np.linspace(-50, 50, 1001), [1e150, -1e150, 0.0, -0.0]])
        t = (x + 1.0) / 0.5
        log_norm = (math.lgamma(4.0) - math.lgamma(3.5)
                    - 0.5 * math.log(7.0 * math.pi) - math.log(0.5))
        assert_bitwise(d.logpdf(x), log_norm - 4.0 * np.log1p(t * t / 7.0))


# (nu, log Gamma((nu+1)/2) - log Gamma(nu/2) - log(nu pi)/2, and its nu
# derivative (psi((nu+1)/2) - psi(nu/2))/2 - 1/(2 nu)), from mpmath at 80
# digits, rounded to the nearest float.
T_LOG_NORM_REFERENCE = [
    (2.5, -1.01663959346045, 0.03746299346156329),
    (5.0, -0.9686195890547241, 0.009813847226611976),
    (30.0, -0.9272703253788457, 0.0002776237981191988),
    (1e3, -0.9191885331630061, 2.4999987500025e-07),
    (1e6, -0.9189387832046727, 2.49999999999875e-13),
    (1e8, -0.9189385357046728, 2.5e-17),
    (1e12, -0.9189385332049227, 2.5e-25),
]


# The second nu derivative of the log-normalizer, (psi'((nu+1)/2) -
# psi'(nu/2)) / 4 + 1 / (2 nu^2), from mpmath at 80 digits.
T_LOG_NORM_D2_REFERENCE = [
    (2.5, -0.028306821153320505),
    (5.0, -0.0038559223130021071),
    (30.0, -1.8498010546403344e-5),
    (1e3, -4.9999950000149999e-10),
    (1e6, -4.999999999995e-19),
    (1e8, -4.9999999999999995e-25),
    (1e12, -5.0e-37),
]


class TestStudentTNormalizer:
    """The t log-normalizer stays exact where the lgamma difference cancels."""

    @pytest.mark.parametrize("nu, log_norm, _", T_LOG_NORM_REFERENCE)
    def test_log_normalizer(self, nu, log_norm, _):
        # The lgamma difference was 5.5e-10 off at nu = 1e6, 1.0e-8 at 1e8.
        assert abs(StudentT(nu).logpdf(0.0) - log_norm) <= 1e-14

    @pytest.mark.parametrize("nu, _, dnu", T_LOG_NORM_REFERENCE)
    def test_nu_derivative(self, nu, _, dnu):
        # The digamma difference was 3.7e-4 off, relative, at nu = 1e6.
        assert _t_log_norm(nu)[1] == pytest.approx(dnu, rel=1e-13)

    def test_series_meets_lgamma(self):
        # Both sides of the switch at nu = 30 agree with each other.
        below = StudentT(np.nextafter(30.0, 0.0)).logpdf(0.0)
        assert abs(below - StudentT(30.0).logpdf(0.0)) <= 1e-14

    @pytest.mark.parametrize("nu, d2nu", T_LOG_NORM_D2_REFERENCE)
    def test_second_nu_derivative(self, nu, d2nu):
        # On trigamma below nu = 30 and on the series' derivative above it,
        # where the trigamma difference cancels; both meet at 30.
        assert _t_log_norm(nu)[2] == pytest.approx(d2nu, rel=1e-12)
        below = _t_log_norm(np.nextafter(30.0, 0.0))[2]
        assert below == pytest.approx(_t_log_norm(30.0)[2], rel=1e-12)


class TestOneWPerPoint:
    """Each density, cdf and likelihood call evaluates W once per point, none on a zero tail."""

    @pytest.fixture
    def w_elements(self, monkeypatch):
        seen = []
        original = transform.lambert_w0

        def counting(x):
            seen.append(np.size(x))
            return original(x)

        monkeypatch.setattr(transform, "lambert_w0", counting)
        return seen

    @pytest.mark.parametrize(
        "delta", [1 / 3, (0.1, 0.5), (0.0, 0.5), (0.3, 0.0)],
        ids=["h", "hh", "hh-zero-left", "hh-zero-right"],
    )
    @pytest.mark.parametrize(
        "call", ["pdf", "logpdf", "cdf", "w_tau", "loglik", "score", "moments"]
    )
    def test_n_elements(self, w_elements, delta, call):
        dist = LambertWDist(Gaussian(0.3, 1.2), delta)
        # with a tie at mu, which goes left
        y = np.append(rlambertw(500, dist, seed=4), 0.3)
        assert (y < 0.3).any() and (y > 0.3).any()
        # the IGMM moment rows and Jacobian, one tail per point
        z = (y - 0.3) / 1.2
        left = z <= 0.0
        tails = np.where(left, dist.tau.delta_left, dist.tau.delta_right)
        calls = {
            "pdf": lambda: dist.pdf(y),
            "logpdf": lambda: dist.logpdf(y),
            "cdf": lambda: dist.cdf(y),
            "w_tau": lambda: w_tau(y, dist.tau),
            "loglik": lambda: loglik(y, dist),
            "score": lambda: _gaussian_loglik_score(y, dist.tau.as_array()),
            "moments": lambda: _moment_residual(z, tails, (left, ~left)),
        }
        w_elements.clear()
        calls[call]()
        # one W per point, and none at a point on a zero tail
        assert sum(w_elements) == np.count_nonzero(tails)

    @pytest.mark.parametrize("delta", [[1 / 3], [0.1, 0.5]], ids=["h", "hh"])
    def test_moment_step_near_its_root(self, w_elements, delta):
        # The classic IGMM tail update warm-started at its own root
        # evaluates the residual once, and never at the bounds of the search.
        tails = delta[0] if len(delta) == 1 else tuple(delta)
        z = rlambertw(1000, LambertWDist(Gaussian(0.0, 1.0), tails), seed=4)
        root = _gmm_step(z, delta).x
        w_elements.clear()
        assert _gmm_step(z, root).x == root
        assert sum(w_elements) == z.size
        # From 1 % off a moment match, Gauss-Newton converges quadratically.
        off = [1.01 * x for x in root]
        w_elements.clear()
        assert _gmm_step(z, off).x == pytest.approx(root, rel=1e-12)
        assert sum(w_elements) <= 4 * z.size


def split_sides(func, v, delta_left, delta_right):
    """Per-side reference of a two-tail map: ``func(v, delta)`` on each side's points.

    Each side takes its own scalar tail (``v <= 0`` the left one, NaN the
    right one), and the results are merged back into ``v``'s shape;
    ``func`` returns an array or a tuple of arrays.
    """
    v = np.asarray(v, dtype=float)
    left = v <= 0.0

    def merge(on_left, on_right):
        out = np.empty(v.shape)
        out[left] = on_left
        out[~left] = on_right
        return out

    lo, hi = func(v[left], delta_left), func(v[~left], delta_right)
    return tuple(map(merge, lo, hi)) if isinstance(lo, tuple) else merge(lo, hi)


PER_POINT_TAILS = [(0.1, 0.5), (0.0, 0.5), (0.3, 0.0), (0.2, 0.2), (0.0, 0.0)]


class TestPerPointTails:
    """One tail per point gives the bits of evaluating each side on its own."""

    @staticmethod
    def series(dist, n=300):
        mu, sigma = dist.tau.mu_x, dist.tau.sigma_x
        # ties at +-0.0 (at mu = 0), points whose z^2 overflows, +-inf, NaN
        edges = [0.0, -0.0, mu, 1e-310, -1e-310, 1.5e154 * sigma, -1.5e154 * sigma,
                 1e200, -1e250, np.inf, -np.inf, np.nan]
        return np.concatenate([rlambertw(n, dist, seed=5), edges])

    @staticmethod
    def reference(dist, y):
        """``(W, w_tau(y))`` of ``dist`` at ``y``, one side at a time."""
        tau = dist.tau
        with np.errstate(all="ignore"):
            z = (y - tau.mu_x) / tau.sigma_x
            wv, u = split_sides(_w_and_w_delta, z, tau.delta_left, tau.delta_right)
            return wv, u * tau.sigma_x + tau.mu_x

    @pytest.mark.parametrize("delta", PER_POINT_TAILS, ids=str)
    @pytest.mark.parametrize(
        "family", [Gaussian(0.0, 1.3), Gaussian(0.3, 1.2), StudentT(5.0, 0.0, 0.9)], ids=repr
    )
    def test_maps_and_densities(self, family, delta):
        dist = LambertWDist(family, delta)
        tau = dist.tau
        y = self.series(dist)
        wv, x = self.reference(dist, y)
        assert_bitwise(w_tau(y, tau), x)
        with np.errstate(all="ignore"):
            u = (y - tau.mu_x) / tau.sigma_x
            h_ref = split_sides(h_delta, u, *delta) * tau.sigma_x + tau.mu_x
            cdf_ref = family.cdf(x)
            pdf_ref = family.pdf(x) * (np.exp(-0.5 * wv) / (1.0 + wv))
            logpdf_ref = family.logpdf(x) - 0.5 * wv - np.log1p(wv)
        assert_bitwise(h_tau(y, tau), h_ref)
        assert_bitwise(dist.cdf(y), cdf_ref)
        assert_bitwise(dist.pdf(y), pdf_ref)
        assert_bitwise(dist.logpdf(y), logpdf_ref)
        # loglik on the finite points
        finite = np.isfinite(y)
        with np.errstate(all="ignore"):
            input_part = float(np.sum(family.logpdf(x[finite])))
            penalty_part = float(np.sum(-0.5 * wv[finite] - np.log1p(wv[finite])))
        total = input_part + penalty_part
        expected = (total if math.isfinite(total) else -math.inf, input_part, penalty_part)
        assert tuple(loglik(y[finite], dist)) == expected

    @pytest.mark.parametrize("delta", PER_POINT_TAILS, ids=str)
    def test_gaussian_score(self, monkeypatch, delta):
        dist = LambertWDist(Gaussian(0.0, 1.3), delta)
        y = np.concatenate([rlambertw(300, dist, seed=6), [0.0, -0.0, 1e8, -1e4]])
        theta = dist.tau.as_array()
        ours = _gaussian_loglik_score(y, theta)
        monkeypatch.setattr(
            estimation, "_w_and_w_delta",
            lambda z, _: split_sides(_w_and_w_delta, z, *delta),
        )
        ref = _gaussian_loglik_score(y, theta)
        assert ours[0] == ref[0]
        assert_bitwise(ours[1], ref[1])
        assert_bitwise(ours[2], ref[2])


@settings(max_examples=60, deadline=None)
@given(
    delta=hst.one_of(hst.just(0.0), hst.floats(1e-6, 3.0)),
    seed=hst.integers(0, 2**32 - 1),
)
# h_tau's rescale of a far-tail point overflows here.
@example(delta=1.766086482116188, seed=1_250_174_959)
def test_equal_tails_bit_identical_to_h(delta, seed):
    h = LambertWDist(Gaussian(0.4, 1.7), delta)
    hh = LambertWDist(Gaussian(0.4, 1.7), (delta, delta))
    y = np.concatenate([rlambertw(200, h, seed=seed), [0.4, -1e200, 1e200]])
    p = np.linspace(0.01, 0.99, 21)
    for method, arg in (("pdf", y), ("logpdf", y), ("cdf", y), ("quantile", p)):
        assert_bitwise(getattr(hh, method)(arg), getattr(h, method)(arg))
    assert_bitwise(w_tau(y, hh.tau), w_tau(y, h.tau))
    assert_bitwise(h_tau(y[:200], hh.tau), h_tau(y[:200], h.tau))
    assert loglik(y[:200], hh) == loglik(y[:200], h)
