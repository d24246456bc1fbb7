import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkbond.jdcev import (
    JDCEVParams,
    bessel_drift,
    intensity,
    inverse_transform,
    transform,
    x_state,
)

params_strategy = st.builds(
    JDCEVParams,
    lambda0=st.floats(min_value=1e-4, max_value=0.5),
    sigma=st.floats(min_value=0.1, max_value=10.0),
    beta=st.floats(min_value=-2.0, max_value=-0.1),
    z0=st.floats(min_value=0.5, max_value=200.0),
)


class TestParams:
    def test_domain_validation(self):
        with pytest.raises(ValueError):
            JDCEVParams(lambda0=-0.1, sigma=1.0, beta=-0.5, z0=1.0)
        with pytest.raises(ValueError):
            JDCEVParams(lambda0=0.1, sigma=0.0, beta=-0.5, z0=1.0)
        with pytest.raises(ValueError):
            JDCEVParams(lambda0=0.1, sigma=1.0, beta=0.5, z0=1.0)
        with pytest.raises(ValueError):
            JDCEVParams(lambda0=0.1, sigma=1.0, beta=-0.5, z0=0.0)

    @pytest.mark.parametrize("field", ["lambda0", "sigma", "beta", "z0", "lambda_cap"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_fields_rejected(self, field, value):
        kwargs = dict(lambda0=0.1, sigma=1.0, beta=-0.5, z0=1.0, lambda_cap=1e4)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            JDCEVParams(**kwargs)

    def test_zero_lambda0_is_the_default_free_limit(self):
        params = JDCEVParams(lambda0=0.0, sigma=1.0, beta=-0.5, z0=1.0)
        assert intensity(params, 0.3) == 0.0
        # even the boundary keeps the zero-intensity limit
        assert intensity(params, 0.0) == 0.0
        assert intensity(params, -1.0) == 0.0


class TestIntensity:
    def test_at_initial_level(self, fitted_params):
        assert intensity(fitted_params, fitted_params.z0) == pytest.approx(
            fitted_params.lambda0, rel=1e-14
        )

    def test_half_level(self):
        params = JDCEVParams(lambda0=0.004, sigma=2.8199, beta=-0.6, z0=2.0)
        expected = 0.004 * 0.5 ** (-1.2)
        assert intensity(params, 1.0) == pytest.approx(expected, rel=1e-14)
        assert intensity(params, 1.0) == pytest.approx(9.1896e-3, abs=5e-7)

    def test_decreasing_in_level(self, fitted_params):
        levels = np.geomspace(1e-3 * fitted_params.z0, 1e4 * fitted_params.z0, 60)
        values = intensity(fitted_params, levels)
        assert np.all(np.diff(values) <= 0)
        assert values[-1] < 1e-6

    def test_cap_and_boundary(self, fitted_params):
        assert intensity(fitted_params, 1e-12) == fitted_params.lambda_cap
        assert intensity(fitted_params, 0.0) == fitted_params.lambda_cap
        assert intensity(fitted_params, -1.0) == fitted_params.lambda_cap

    def test_custom_cap(self):
        params = JDCEVParams(lambda0=0.01, sigma=1.0, beta=-1.0, z0=1.0, lambda_cap=5.0)
        assert intensity(params, 1e-6) == 5.0


class TestTransform:
    def test_scalar_example(self):
        params = JDCEVParams(lambda0=0.01, sigma=2.0, beta=-0.5, z0=1.0)
        assert transform(params, 4.0) == pytest.approx(2.0, rel=1e-14)

    @given(params=params_strategy, scale=st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, params, scale):
        z = params.z0 * 10.0**scale
        back = inverse_transform(params, transform(params, z))
        assert back == pytest.approx(z, rel=1e-12)

    def test_strictly_increasing(self, fitted_params):
        z = np.geomspace(0.01, 1e3, 50)
        x = transform(fitted_params, z)
        assert np.all(np.diff(x) > 0)

    def test_rejects_nonpositive(self, fitted_params):
        with pytest.raises(ValueError):
            transform(fitted_params, 0.0)
        with pytest.raises(ValueError):
            inverse_transform(fitted_params, -1.0)


class TestBesselDrift:
    def test_unit_diffusion_identity(self):
        # f'(z) * sigma * z^(beta+1) == 1 with f' = z^(-beta-1) / sigma
        rng = np.random.default_rng(41)
        for _ in range(20):
            params = JDCEVParams(
                lambda0=rng.uniform(1e-4, 0.5),
                sigma=rng.uniform(0.1, 10.0),
                beta=rng.uniform(-2.0, -0.1),
                z0=rng.uniform(0.5, 200.0),
            )
            z = params.z0 * 10.0 ** rng.uniform(-3, 3)
            fprime = z ** (-params.beta - 1.0) / params.sigma
            assert fprime * params.sigma * z ** (params.beta + 1.0) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_matches_finite_difference_ito_drift(self):
        # extended precision keeps the second central difference at
        # h = 1e-5 * z well clear of cancellation noise
        ld = np.longdouble
        rng = np.random.default_rng(42)
        for _ in range(20):
            params = JDCEVParams(
                lambda0=rng.uniform(1e-3, 0.2),
                sigma=rng.uniform(0.3, 5.0),
                beta=rng.uniform(-1.5, -0.2),
                z0=rng.uniform(1.0, 100.0),
            )
            z = ld(params.z0 * 10.0 ** rng.uniform(-1, 1))
            beta, sigma = ld(params.beta), ld(params.sigma)
            h = ld(1e-5) * z

            def f(val):
                return val ** (-beta) / (sigma * abs(beta))

            first = (f(z + h) - f(z - h)) / (2 * h)
            second = (f(z + h) - 2 * f(z) + f(z - h)) / h**2
            mu = ld(params.lambda0) * (z / ld(params.z0)) ** (2 * beta) * z
            diffusion_sq = sigma**2 * z ** (2 * beta + 2)
            expected = float(first * mu + 0.5 * second * diffusion_sq)
            x = transform(params, float(z))
            assert bessel_drift(params, x) == pytest.approx(expected, rel=1e-5)

    def test_convexity_term_vanishes_at_beta_minus_one(self):
        params = JDCEVParams(lambda0=0.05, sigma=1.0, beta=-1.0, z0=2.0)
        z = 3.0
        x = transform(params, z)
        assert bessel_drift(params, x) == pytest.approx(intensity(params, z) * z, rel=1e-12)

    def test_rejects_nonpositive(self, fitted_params):
        with pytest.raises(ValueError):
            bessel_drift(fitted_params, 0.0)


def test_vectorized_calls_match_scalars(fitted_params):
    z = np.array([0.5, 3.0, 40.0])
    lam = intensity(fitted_params, z)
    x = transform(fitted_params, z)
    for i in range(len(z)):
        assert lam[i] == intensity(fitted_params, float(z[i]))
        assert x[i] == transform(fitted_params, float(z[i]))
    drift = bessel_drift(fitted_params, x)
    for i in range(len(z)):
        assert drift[i] == bessel_drift(fitted_params, float(x[i]))


def test_x_state_boundary_and_cap_conventions(fitted_params):
    capped = float(transform(fitted_params, 1e-6))  # intensity far above the cap
    x = np.array([-0.5, 0.0, capped, 1.0, 5.0])
    z, lam, drift = x_state(fitted_params, x)
    assert np.array_equal(z[:2], [0.0, 0.0])
    assert np.array_equal(lam[:3], [fitted_params.lambda_cap] * 3)
    assert np.array_equal(drift[:3], [0.0, 0.0, 0.0])
    assert np.array_equal(lam[3:], intensity(fitted_params, inverse_transform(fitted_params, x[3:])))
    assert np.array_equal(drift[3:], bessel_drift(fitted_params, x[3:]))
