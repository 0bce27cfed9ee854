"""Shared test oracles and helpers."""

import math
import os
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy import stats as st

import heavytail
from heavytail import LambertWDist, TailParams, h_tau, w_delta
from heavytail.transform import w_of_delta_z_sq


def child_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH.

    Subprocesses get it so that they run the package under test, however
    pytest itself found it.
    """
    src_dir = Path(heavytail.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_dir), env.get("PYTHONPATH")) if p
    )
    return env


def normalization_by_substitution(dist: LambertWDist, p_tail: float = 1e-10) -> float:
    """Quadrature oracle for the pdf normalization.

    Substituting y = h_tau(x) turns the integral of the pdf over the whole
    output range into an integral over input values x, with the analytic
    forward-map derivative as Jacobian.  The x range is cut where the
    input's own tail mass (from scipy's cdf, independent of the code under
    test) drops below ``p_tail``, and clipped so the forward map stays
    finite; the clipped tail mass is added back.
    """
    tau = dist.tau
    x_lo = float(dist.input.quantile(p_tail))
    x_hi = float(dist.input.quantile(1.0 - p_tail))
    # keep 0.5 * delta * u^2 < 700 so h never overflows
    d_max = max(tau.delta_left, tau.delta_right, 1e-12)
    u_cap = math.sqrt(1400.0 / d_max)
    x_lo = max(x_lo, tau.mu_x - u_cap * tau.sigma_x)
    x_hi = min(x_hi, tau.mu_x + u_cap * tau.sigma_x)
    mass_outside = float(dist.input.cdf(x_lo) + (1.0 - dist.input.cdf(x_hi)))

    def integrand(x):
        u = (x - tau.mu_x) / tau.sigma_x
        d = tau.delta_left if u <= 0 else tau.delta_right
        jac = (1.0 + d * u * u) * math.exp(0.5 * d * u * u)
        return float(dist.pdf(h_tau(x, tau))) * jac

    val, err = integrate.quad(integrand, x_lo, x_hi, limit=300)
    assert err < 1e-8
    return val + mass_outside


def pdf_student_t_input(nu: float, tau: TailParams, z):
    """Reference density of the heavy-tailed Student-t-input model at ``z``.

    The model treats ``tau.sigma_x`` as the raw t scale: the latent
    variable is ``mu_x + sigma_x * T`` with ``T ~ t_nu``, and the tail
    transform acts on its unit-variance standardization.  On the raw t
    coordinate that is a tail parameter ``delta * (nu - 2) / nu``, giving

        g(z) = f_t( w_de(v) | nu ) * w_de'(v) / sigma_x,
        v = (z - mu_x) / sigma_x,   de = delta * (nu - 2) / nu.

    Written out from the formula, with scipy's t density, as an oracle
    for ``LambertWDist(StudentT(nu, mu_x, sigma_x), delta)``; symmetric
    tails and ``nu > 2`` only.
    """
    delta_eff = tau.delta * (nu - 2.0) / nu
    v = (np.asarray(z, dtype=float) - tau.mu_x) / tau.sigma_x
    wv = w_of_delta_z_sq(v, delta_eff)
    u = w_delta(v, delta_eff)
    return st.t.pdf(u, df=nu) * np.exp(-0.5 * wv) / (1.0 + wv) / tau.sigma_x
