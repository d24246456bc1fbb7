import math

import numpy as np
import pytest

from oracles import mean_chain, per_path_generator_paths
from sinkbond.instruments import SinkingBondSpec, bond_grid
from sinkbond.jdcev import JDCEVParams
from sinkbond.market_data import build_time_grid
from sinkbond.mc import mc_price_fixed_policy, simulate_paths
from sinkbond.pricer import price_fixed_schedule
from sinkbond.tree import augment_default, build_trinomial


class TestSimulatePaths:
    def test_common_prefix_is_bitwise_identical(self, fitted_params):
        grid = build_time_grid(2.0, 12)
        small = simulate_paths(fitted_params, grid, 64, seed=7)
        large = simulate_paths(fitted_params, grid, 256, seed=7)
        assert np.array_equal(small.intensities, large.intensities[:64])
        assert np.array_equal(small.default_step, large.default_step[:64])

    @pytest.mark.parametrize("seed", [7, 20270615])
    def test_reused_generator_matches_per_path_construction(self, fitted_params, seed):
        grid = build_time_grid(2.0, 12)
        paths = simulate_paths(fitted_params, grid, 300, seed=seed)
        intensities, default_step = per_path_generator_paths(fitted_params, grid, 300, seed)
        assert np.all(paths.intensities == intensities)
        assert np.all(paths.default_step == default_step)
        assert np.any(default_step > 0)

    def test_same_seed_same_paths(self, fitted_params):
        grid = build_time_grid(1.0, 12)
        a = simulate_paths(fitted_params, grid, 128, seed=3)
        b = simulate_paths(fitted_params, grid, 128, seed=3)
        assert np.array_equal(a.intensities, b.intensities)
        c = simulate_paths(fitted_params, grid, 128, seed=4)
        assert not np.array_equal(a.intensities, c.intensities)

    def test_zero_lambda0_never_defaults(self):
        params = JDCEVParams(lambda0=0.0, sigma=1.0, beta=-0.5, z0=25.0)
        grid = build_time_grid(3.0, 4)
        paths = simulate_paths(params, grid, 500, seed=1)
        assert np.all(paths.default_step == -1)
        assert np.all(paths.intensities == 0.0)

    def test_zero_diffusion_survival_matches_the_mean_chain(self, fitted_params):
        grid = build_time_grid(3.0, 12)
        n_paths = 20_000
        paths = simulate_paths(fitted_params, grid, n_paths, seed=11, zero_diffusion=True)
        chain = mean_chain(fitted_params, grid)
        hazard = sum(
            float(chain.layers[n].intensity[0]) * float(grid.steps[n])
            for n in range(grid.n_steps)
        )
        expected = math.exp(-hazard)
        observed = float(np.mean(paths.default_step == -1))
        se = math.sqrt(expected * (1.0 - expected) / n_paths)
        assert abs(observed - expected) <= 3.0 * se
        # the simulated intensity path IS the chain, path by path
        assert paths.intensities[0] == pytest.approx(
            [float(layer.intensity[0]) for layer in chain.layers], rel=1e-12
        )

    def test_input_validation(self, fitted_params):
        grid = build_time_grid(1.0, 4)
        with pytest.raises(ValueError):
            simulate_paths(fitted_params, grid, 0, seed=1)
        with pytest.raises(ValueError):
            simulate_paths(fitted_params, grid, 10, seed=-1)


def sinking_spec():
    return SinkingBondSpec(
        maturity=3.0,
        coupon_rate=0.06,
        coupon_frequency=1,
        redemption_dates=(1.0, 2.0),
        admissible_fractions=(0.05, 0.10),
        alpha=75.0,
        recovery=0.4,
    )


class TestMcPriceFixedPolicy:
    def test_no_risk_no_noise(self, zero_curve):
        params = JDCEVParams(lambda0=0.0, sigma=1.0, beta=-0.5, z0=25.0)
        spec = sinking_spec()
        grid = bond_grid(spec, 4)
        paths = simulate_paths(params, grid, 200, seed=2, zero_diffusion=True)
        estimate = mc_price_fixed_policy(paths, spec, "max", zero_curve)
        # deterministic cashflows: 6% coupons on the amortizing nominal plus
        # the redemptions themselves, undiscounted
        tree = augment_default(build_trinomial(params, grid))
        expected = price_fixed_schedule(tree, zero_curve, spec, "max")
        assert estimate.std_error <= 1e-15  # identical payouts, summation dust
        assert estimate.estimate == pytest.approx(expected, abs=1e-12)

    def test_within_three_standard_errors_of_the_lattice(self, fitted_params, flat_curve):
        spec = sinking_spec()
        grid = bond_grid(spec, 24)
        tree = augment_default(build_trinomial(fitted_params, grid))
        tree_price = price_fixed_schedule(tree, flat_curve, spec, "max")
        paths = simulate_paths(fitted_params, grid, 20_000, seed=101)
        estimate = mc_price_fixed_policy(paths, spec, "max", flat_curve)
        assert abs(tree_price - estimate.estimate) <= 3.0 * estimate.std_error

    def test_clt_scaling(self, fitted_params, flat_curve):
        spec = sinking_spec()
        grid = bond_grid(spec, 12)
        single = mc_price_fixed_policy(
            simulate_paths(fitted_params, grid, 20_000, seed=5), spec, "max", flat_curve
        )
        double = mc_price_fixed_policy(
            simulate_paths(fitted_params, grid, 40_000, seed=5), spec, "max", flat_curve
        )
        ratio = double.std_error / single.std_error
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.2)

    def test_schedule_map_equals_rule(self, fitted_params, flat_curve):
        spec = sinking_spec()
        grid = bond_grid(spec, 4)
        paths = simulate_paths(fitted_params, grid, 2_000, seed=9)
        by_rule = mc_price_fixed_policy(paths, spec, "min", flat_curve)
        by_map = mc_price_fixed_policy(paths, spec, {1.0: 0.05, 2.0: 0.05}, flat_curve)
        assert by_map.estimate == by_rule.estimate

    def test_horizon_mismatch_rejected(self, fitted_params, flat_curve):
        spec = sinking_spec()
        paths = simulate_paths(fitted_params, build_time_grid(2.0, 4), 100, seed=1)
        with pytest.raises(ValueError, match="horizon"):
            mc_price_fixed_policy(paths, spec, "max", flat_curve)

    def test_inadmissible_schedule_rejected(self, fitted_params, flat_curve):
        spec = sinking_spec()
        grid = bond_grid(spec, 4)
        paths = simulate_paths(fitted_params, grid, 100, seed=1)
        with pytest.raises(ValueError, match="not admissible"):
            mc_price_fixed_policy(paths, spec, {1.0: 0.10, 2.0: 0.0}, flat_curve)

    def test_single_path_rejected(self, fitted_params, flat_curve):
        spec = sinking_spec()
        paths = simulate_paths(fitted_params, bond_grid(spec, 4), 1, seed=1)
        with pytest.raises(ValueError, match="at least 2 paths"):
            mc_price_fixed_policy(paths, spec, "max", flat_curve)
