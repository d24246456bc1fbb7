import json
import math

import numpy as np
import pytest

from oracles import forward_pass_par_spreads

from sinkbond.calibration import (
    BETA_BOUNDS,
    CalibrationConfig,
    CDSQuote,
    calibrate,
    calibration_error,
    cds_grid,
    model_spreads,
    premium_dates,
    price_cds,
)
from sinkbond.cli import main
from sinkbond.jdcev import JDCEVParams
from sinkbond.market_data import DiscountCurve, build_time_grid
from sinkbond.tree import augment_default, build_trinomial, deterministic_tree

FAST = CalibrationConfig(steps_per_year=4, premium_frequency=4)


def chain_tree(intensity, horizon=5.0, steps_per_year=12):
    grid = build_time_grid(horizon, steps_per_year)
    return augment_default(deterministic_tree(grid, intensity))


class TestQuoteValidation:
    def test_domains(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            CDSQuote(tenor=0.0, spread=0.01)
        with pytest.raises(ValueError):
            CDSQuote(tenor=5.0, spread=-0.01)
        # a quote has no side: the key is refused by name, like any unknown key
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"quotes": [{"tenor": 5.0, "spread": 0.01, "side": "offer"}]}))
        assert main(["calibrate", "--config", str(config)]) == 2
        assert "unknown key 'quotes[0].side'" in capsys.readouterr().out

    @pytest.mark.parametrize("spread", [math.nan, math.inf, -math.inf])
    def test_spread_must_be_finite(self, spread):
        with pytest.raises(ValueError, match="spread must be nonnegative and finite"):
            CDSQuote(tenor=5.0, spread=spread)

    @pytest.mark.parametrize("tenor", [math.nan, math.inf, -math.inf])
    def test_tenor_must_be_finite(self, tenor):
        with pytest.raises(ValueError, match="tenor must be positive and finite"):
            CDSQuote(tenor=tenor, spread=0.01)


def test_premium_dates_must_fit_a_grid():
    assert len(premium_dates(2.0, 500_000)) == 10**6
    for tenor, frequency in ((2.0, 500_001), (1e300, 4), (1.0, 10**18)):
        with pytest.raises(ValueError, match="premium periods"):
            premium_dates(tenor, frequency)


class TestPriceCds:
    def test_one_pass_for_all_tenors_equals_single_tenor_prices(self, fitted_params, flat_curve):
        tenors = (5.0, 1.0, 3.0, 10.0, 3.0)
        spreads = model_spreads(fitted_params, tenors, flat_curve, 0.4, FAST)
        grid = cds_grid(tenors, FAST.steps_per_year, FAST.premium_frequency)
        tree = augment_default(build_trinomial(fitted_params, grid))
        singles = [price_cds(tree, flat_curve, 0.4, t, FAST.premium_frequency) for t in tenors]
        assert spreads.tolist() == singles

    @pytest.mark.parametrize("tenors", [(5.0, 1.0, 3.0), (2.0, 7.0, 10.0), (10.0,)])
    def test_model_spreads_equal_the_forward_pass_bit_for_bit(self, fitted_params, flat_curve, tenors):
        spreads = model_spreads(fitted_params, tenors, flat_curve, 0.4, FAST)
        grid = cds_grid(tenors, FAST.steps_per_year, FAST.premium_frequency)
        tree = augment_default(build_trinomial(fitted_params, grid))
        reference = forward_pass_par_spreads(tree, flat_curve, 0.4, tenors, FAST.premium_frequency)
        assert spreads.tolist() == reference.tolist()

    def test_non_dyadic_accruals_equal_the_forward_pass_bit_for_bit(self, fitted_params, flat_curve):
        # monthly accruals j / 12 - (j - 1) / 12 are not all the same double
        config = CalibrationConfig(steps_per_year=4, premium_frequency=12)
        tenors = (1.0, 2.5, 4.0)
        spreads = model_spreads(fitted_params, tenors, flat_curve, 0.4, config)
        tree = augment_default(build_trinomial(fitted_params, cds_grid(tenors, 4, 12)))
        assert spreads.tolist() == forward_pass_par_spreads(tree, flat_curve, 0.4, tenors, 12).tolist()

    def test_zero_intensity_zero_spread(self, flat_curve):
        assert price_cds(chain_tree(0.0), flat_curve, 0.4, 5.0) == 0.0

    def test_full_recovery_zero_spread(self, flat_curve):
        assert price_cds(chain_tree(0.02), flat_curve, 1.0, 5.0) == 0.0

    def test_credit_triangle_on_constant_intensity(self, zero_curve):
        # small steps: par ~ intensity * (1 - recovery) within one percent
        lam, recovery = 0.01, 0.4
        spread = price_cds(chain_tree(lam), zero_curve, recovery, 5.0)
        assert spread == pytest.approx(lam * (1.0 - recovery), rel=0.01)

    def test_increasing_in_intensity(self, flat_curve):
        spreads = [price_cds(chain_tree(lam), flat_curve, 0.4, 5.0) for lam in (0.005, 0.01, 0.02)]
        assert spreads[0] < spreads[1] < spreads[2]

    def test_decreasing_in_recovery(self, flat_curve):
        tree = chain_tree(0.02)
        s_low = price_cds(tree, flat_curve, 0.2, 5.0)
        s_high = price_cds(tree, flat_curve, 0.6, 5.0)
        assert s_high < s_low

    def test_premium_dates_off_the_grid_rejected(self, flat_curve):
        # a 1/yr grid holds none of the quarterly premium dates
        with pytest.raises(ValueError, match="grid date"):
            price_cds(chain_tree(0.01, steps_per_year=1), flat_curve, 0.4, 5.0)

    def test_tenor_beyond_horizon_rejected(self, flat_curve):
        with pytest.raises(ValueError, match="horizon"):
            price_cds(chain_tree(0.01, horizon=3.0), flat_curve, 0.4, 5.0)

    def test_nonnegative_on_stochastic_tree(self, fitted_params, flat_curve):
        grid = cds_grid([1.0, 3.0, 5.0], 4, 4)
        tree = augment_default(build_trinomial(fitted_params, grid))
        for tenor in (1.0, 3.0, 5.0):
            assert price_cds(tree, flat_curve, 0.4, tenor) >= 0.0


class TestErrorFunctional:
    def make_quotes(self, params, curve, recovery=0.4, tenors=(1.0, 3.0, 5.0)):
        spreads = model_spreads(params, tenors, curve, recovery, FAST)
        return [CDSQuote(tenor=t, spread=float(s)) for t, s in zip(tenors, spreads)]

    def test_zero_at_the_generating_parameters(self, fitted_params, flat_curve):
        quotes = self.make_quotes(fitted_params, flat_curve)
        value = calibration_error(
            (fitted_params.lambda0, fitted_params.sigma, fitted_params.beta),
            quotes,
            fitted_params.z0,
            flat_curve,
            0.4,
            FAST,
        )
        assert value == pytest.approx(0.0, abs=1e-16)

    def test_out_of_domain_beta_dominated_by_penalty(self, fitted_params, flat_curve):
        quotes = self.make_quotes(fitted_params, flat_curve)
        args = (quotes, fitted_params.z0, flat_curve, 0.4, FAST)
        at_boundary = calibration_error(
            (fitted_params.lambda0, fitted_params.sigma, BETA_BOUNDS[1]), *args
        )
        outside = calibration_error((fitted_params.lambda0, fitted_params.sigma, 0.5), *args)
        assert outside > at_boundary

    def test_doubling_market_spreads_increases_the_error(self, fitted_params, flat_curve):
        quotes = self.make_quotes(fitted_params, flat_curve)
        doubled = [CDSQuote(tenor=q.tenor, spread=2 * q.spread) for q in quotes]
        point = (fitted_params.lambda0, fitted_params.sigma, fitted_params.beta)
        base = calibration_error(point, quotes, fitted_params.z0, flat_curve, 0.4, FAST)
        worse = calibration_error(point, doubled, fitted_params.z0, flat_curve, 0.4, FAST)
        assert worse > base

    def test_total_on_absurd_points(self, fitted_params, flat_curve):
        quotes = self.make_quotes(fitted_params, flat_curve)
        args = (quotes, fitted_params.z0, flat_curve, 0.4, FAST)
        for point in [(-1.0, 1.0, -0.5), (0.01, -2.0, -0.5), (0.01, 1.0, 3.0), (1e9, 1e9, -1e9)]:
            value = calibration_error(point, *args)
            assert math.isfinite(value) and value >= 0.0


class TestCalibrate:
    def test_round_trip_recovers_the_generator(self, fitted_params, flat_curve):
        tenors = (1.0, 3.0, 5.0, 7.0, 10.0)
        spreads = model_spreads(fitted_params, tenors, flat_curve, 0.4, FAST)
        quotes = [CDSQuote(tenor=t, spread=float(s)) for t, s in zip(tenors, spreads)]
        result = calibrate(quotes, fitted_params.z0, flat_curve, 0.4, FAST)
        assert result.params.lambda0 == pytest.approx(fitted_params.lambda0, rel=0.05)
        assert result.params.sigma == pytest.approx(fitted_params.sigma, rel=0.05)
        assert result.params.beta == pytest.approx(fitted_params.beta, abs=0.1)
        assert result.report.objective < 1e-10

    def test_single_quote_one_dimensional_fit(self, flat_curve):
        # freeze sigma and beta: lambda0 must match the quote's level,
        # pinned by an independent bisection on the model spread
        true = JDCEVParams(lambda0=0.006, sigma=1.5, beta=-0.6, z0=50.0)
        config = CalibrationConfig(
            steps_per_year=4, premium_frequency=4, fixed_sigma=1.5, fixed_beta=-0.6
        )
        quote = CDSQuote(tenor=5.0, spread=float(model_spreads(true, [5.0], flat_curve, 0.4, config)[0]))

        def spread_of(lam0):
            params = JDCEVParams(lambda0=lam0, sigma=1.5, beta=-0.6, z0=50.0)
            return float(model_spreads(params, [5.0], flat_curve, 0.4, config)[0])

        lo, hi = 1e-5, 0.1
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if spread_of(mid) < quote.spread:
                lo = mid
            else:
                hi = mid
        oracle_lambda0 = 0.5 * (lo + hi)

        result = calibrate([quote], 50.0, flat_curve, 0.4, config)
        assert result.params.lambda0 == pytest.approx(oracle_lambda0, abs=1e-6)
        assert result.params.sigma == 1.5 and result.params.beta == -0.6

    def test_fitted_parameters_respect_the_domain(self, fitted_params, flat_curve):
        rng = np.random.default_rng(31)
        tenors = (2.0, 5.0)
        spreads = model_spreads(fitted_params, tenors, flat_curve, 0.4, FAST)
        noisy = [
            CDSQuote(tenor=t, spread=float(s) * rng.uniform(0.7, 1.3))
            for t, s in zip(tenors, spreads)
        ]
        result = calibrate(noisy, fitted_params.z0, flat_curve, 0.4, FAST)
        assert result.params.lambda0 > 0
        assert result.params.sigma > 0
        assert result.params.beta < 0

    def test_deterministic_given_config(self, fitted_params, flat_curve):
        quotes = [CDSQuote(tenor=5.0, spread=0.003), CDSQuote(tenor=10.0, spread=0.004)]
        first = calibrate(quotes, fitted_params.z0, flat_curve, 0.4, FAST)
        second = calibrate(quotes, fitted_params.z0, flat_curve, 0.4, FAST)
        assert first.params == second.params
        assert first.report.model_spreads == second.report.model_spreads

    def test_needs_quotes(self, flat_curve):
        with pytest.raises(ValueError, match="at least one quote"):
            calibrate([], 30.0, flat_curve, 0.4, FAST)

    def test_unpriceable_quotes_fail_loudly(self, flat_curve, monkeypatch):
        # 2.3y is not a whole number of quarterly premium periods: the CDS grid
        # refuses it before any objective is evaluated, naming the tenor
        import sinkbond.calibration as calibration

        def no_objective(*args, **kwargs):
            raise AssertionError("objective evaluated")

        monkeypatch.setattr(calibration, "model_spreads", no_objective)
        broken = [CDSQuote(tenor=2.3, spread=0.002)]
        with pytest.raises(ValueError, match="tenor 2.3 is not a whole number of premium periods"):
            calibrate(broken, 30.0, flat_curve, 0.4, FAST)

    def test_numerically_failing_grid_fails_loudly(self, flat_curve, monkeypatch):
        # every grid point fails numerically, so no point can start the simplex
        import sinkbond.calibration as calibration

        def overflow(*args, **kwargs):
            raise FloatingPointError("overflow")

        monkeypatch.setattr(calibration, "model_spreads", overflow)
        with pytest.raises(calibration.CalibrationError, match="finite objective"):
            calibrate([CDSQuote(tenor=2.0, spread=0.002)], 30.0, flat_curve, 0.4, FAST)

    def test_report_is_json_ready(self, fitted_params, flat_curve):
        import json

        quotes = [CDSQuote(tenor=3.0, spread=0.002)]
        result = calibrate(quotes, fitted_params.z0, flat_curve, 0.4, FAST)
        dumped = json.loads(json.dumps(result.report.to_dict()))
        assert dumped["quotes"][0]["tenor"] == 3.0
