import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import masked_x_state
from sinkbond.jdcev import (
    JDCEVParams,
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

    def test_zero_lambda0_at_an_underflowed_level_is_zero_quietly(self):
        # at beta = -1e-3 the power of a subnormal z / z0 diverges, and 0 * inf would be NaN
        params = JDCEVParams(lambda0=0.0, sigma=50.0, beta=-1e-3, z0=30.0)
        with np.errstate(divide="raise", over="raise", invalid="raise"):  # as the CLI runs
            assert np.array_equal(intensity(params, np.array([5e-324, 1e-300, 30.0])), [0.0, 0.0, 0.0])
            x = np.array([1e-300, float(transform(params, 30.0))])
            assert inverse_transform(params, x[0]) == 0.0
            lam, drift = x_state(params, x)
        # a positive x is off the boundary however small its level: intensity 0, drift (nu + 1/2) / x
        assert np.array_equal(lam, [0.0, 0.0])
        assert np.isfinite(drift[0]) and drift[0] < drift[1] < 0.0


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

    def test_level_whose_ratio_underflows_is_capped_quietly(self):
        # z / z0 rounds to 0 for a subnormal z; the power then diverges, which the cap absorbs
        params = JDCEVParams(lambda0=0.004, sigma=50.0, beta=-1e-3, z0=30.0)
        assert intensity(params, 5e-324) == params.lambda_cap

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
            x = transform(params, np.array([float(z)]))  # lambda <= 200, far below the cap
            assert x_state(params, x)[1][0] == pytest.approx(expected, rel=1e-5)

    def test_convexity_term_vanishes_at_beta_minus_one(self):
        params = JDCEVParams(lambda0=0.05, sigma=1.0, beta=-1.0, z0=2.0)
        z = 3.0
        x = transform(params, np.array([z]))
        assert x_state(params, x)[1][0] == pytest.approx(intensity(params, z) * z, rel=1e-12)


def test_vectorized_calls_match_scalars(fitted_params):
    z = np.array([0.5, 3.0, 40.0])
    lam = intensity(fitted_params, z)
    x = transform(fitted_params, z)
    for i in range(len(z)):
        assert lam[i] == intensity(fitted_params, float(z[i]))
        assert x[i] == transform(fitted_params, float(z[i]))
    drift = x_state(fitted_params, x)[1]
    for i in range(len(z)):
        assert drift[i] == x_state(fitted_params, x[i:i + 1])[1][0]


def test_x_state_boundary_and_cap_conventions(fitted_params):
    capped = float(transform(fitted_params, 1e-6))  # intensity far above the cap
    x = np.array([-0.5, -0.0, 0.0, np.nan, 5e-324, capped, 1.0, 5.0])
    lam, drift = x_state(fitted_params, x)
    # the boundary (x <= 0 and NaN), an overflowed ratio and a capped state: the cap and no drift
    assert np.array_equal(lam[:6], [fitted_params.lambda_cap] * 6)
    assert np.array_equal(drift[:6], [0.0] * 6)
    # below the cap: lambda0 * (x0 / x)^2 and (nu + 1/2) / x, the ratio taken first
    x0, b = float(transform(fitted_params, fitted_params.z0)), -fitted_params.beta
    assert np.array_equal(lam[6:], fitted_params.lambda0 * (x0 / x[6:]) ** 2)
    assert np.array_equal(drift[6:], (fitted_params.lambda0 * x0 * x0 * b + 0.5 * (b - 1.0) / b) / x[6:])
    zero_lambda0 = dataclasses.replace(fitted_params, lambda0=0.0)
    with pytest.warns(RuntimeWarning, match="overflow encountered in divide"):
        lam, drift = x_state(zero_lambda0, x)
    assert np.array_equal(lam, np.zeros(x.size))
    # with lambda0 = 0 nothing is capped: the drift is (b - 1) / (2b x) at every x > 0, and at a
    # subnormal x it overflows with its warning
    assert np.array_equal(drift[:4], [0.0] * 4)
    assert drift[4] == -np.inf and np.array_equal(drift[5:], 0.5 * (b - 1.0) / b / x[5:])


#: README set, the default-free limit, a steep one, the sigma 50 / beta -1e-3 box corner, and
#: exponents where the level's signed zeros and infinite powers matter: -1/beta odd (1 and 3, so a
#: level keeps the sign of a -0.0 input), 2*beta = -1 (beta -0.5), and beta -2 with a z0 below 1
ORACLE_PARAMS = {
    "readme": JDCEVParams(lambda0=0.004, sigma=2.8199, beta=-0.6, z0=30.0),
    "lambda0-0": JDCEVParams(lambda0=0.0, sigma=2.8199, beta=-0.6, z0=30.0),
    "steep": JDCEVParams(lambda0=0.05, sigma=20.0, beta=-0.9, z0=5.0),
    "corner": JDCEVParams(lambda0=0.004, sigma=50.0, beta=-1e-3, z0=30.0),
    "beta-1": JDCEVParams(lambda0=0.004, sigma=2.8199, beta=-1.0, z0=30.0),
    "beta-1/3": JDCEVParams(lambda0=0.004, sigma=2.8199, beta=-1.0 / 3.0, z0=30.0),
    "beta-0.5": JDCEVParams(lambda0=0.004, sigma=2.8199, beta=-0.5, z0=30.0),
    "beta-2": JDCEVParams(lambda0=0.004, sigma=2.8199, beta=-2.0, z0=0.5),
}


def oracle_coordinates(params):
    """x <= 0 and both zeros, subnormals, levels underflowing to 0, the cap, overflow, NaN and infinities."""
    x0 = float(transform(params, params.z0))
    capped = float(transform(params, 1e-6))
    return np.array([
        -np.inf, -1.5e308, -1e295, -1.0, -5e-324, -0.0, 0.0, 5e-324, 2.2e-308, 1e-310,
        1e-200, 1e-20, 1e-3, capped, 0.5 * capped, 0.1, 1.0, x0, 1e10, 1e295, 1.5e308, np.inf, np.nan,
    ])


def recorded(fn, *args, **kwargs):
    """fn's result or the type and text of what it raised, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args, **kwargs)
        except FloatingPointError as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def same_bytes(got, want):
    return len(got) == len(want) and all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("name", list(ORACLE_PARAMS))
def test_x_state_equals_the_masked_reference_bit_for_bit_with_its_warnings(name):
    params = ORACLE_PARAMS[name]
    x = oracle_coordinates(params)
    # the whole array at once, and each value alone (so every value's own warnings show), in the
    # default error state and in the CLI's, which raises on the first flag
    for errors in ("warn", "raise"):
        with np.errstate(divide=errors, over=errors, invalid=errors):
            for sample in [x] + [x[i:i + 1] for i in range(x.size)]:
                (got, got_warnings), (want, want_warnings) = recorded(x_state, params, sample), recorded(
                    masked_x_state, params, sample)
                assert got_warnings == want_warnings, (name, errors, sample)
                if isinstance(want[0], type):  # raised: the same error with the same text
                    assert got == want, (name, errors, sample)
                    continue
                assert same_bytes(got, want), (name, errors, sample)
                buffers = tuple(np.full(sample.shape, 7.0) for _ in range(2))
                with_buffers, buffer_warnings = recorded(x_state, params, sample, out=buffers)
                assert same_bytes(with_buffers, want) and same_bytes(buffers, want), (name, errors, sample)
                assert buffer_warnings == want_warnings, (name, errors, sample)


#: relative tolerance of the rational state against the level form it rewrites
LEVEL_FORM_RTOL = 1e-13


@pytest.mark.parametrize("name", list(ORACLE_PARAMS))
def test_x_state_equals_the_level_form_of_the_model(name):
    # where the level z = inverse_transform(x) is a normal float and the intensity is below the cap,
    # lambda0 * (x0 / x)^2 is intensity(z) and (nu + 1/2) / x the Ito drift in z, written out
    params = ORACLE_PARAMS[name]
    b, sigma = -params.beta, params.sigma
    x = np.geomspace(1e-4, 1e4, 8001) * float(transform(params, params.z0))
    with np.errstate(over="ignore", under="ignore"):
        z = inverse_transform(params, x)
    level_lam = intensity(params, z)
    keep = (z >= np.finfo(float).tiny) & (z <= np.finfo(float).max) & (level_lam < params.lambda_cap)
    assert keep.sum() >= 100
    x, z, level_lam = x[keep], z[keep], level_lam[keep]
    ito = level_lam * z**b / sigma + 0.5 * (b - 1.0) * sigma * z ** (-b)
    lam, drift = x_state(params, x)
    assert lam == pytest.approx(level_lam, rel=LEVEL_FORM_RTOL, abs=0.0)
    assert drift == pytest.approx(ito, rel=LEVEL_FORM_RTOL, abs=0.0)
