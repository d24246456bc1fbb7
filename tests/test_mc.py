import dataclasses
import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import block_default_steps, block_generators, mean_chain, per_path_mc_estimate
from test_jdcev import ORACLE_PARAMS
from sinkbond.instruments import SinkingBondSpec, bond_grid
from sinkbond.jdcev import JDCEVParams
from sinkbond.market_data import build_time_grid
import sinkbond.jdcev
import sinkbond.mc
from sinkbond.jdcev import x_state
from sinkbond.mc import mc_price_fixed_policy, simulate_paths
from sinkbond.pricer import price_fixed_schedule
from sinkbond.tree import augment_default, build_trinomial


@pytest.fixture
def risky_params(fitted_params):
    """lambda0 = 0.5: about a third of the paths default within a year at 12/yr."""
    return dataclasses.replace(fitted_params, lambda0=0.5)


class TestSimulatePaths:
    # above _CHUNK (8192), so a block boundary falls in the prefix and it ends in a partial block
    PREFIX, FULL = 8_200, 10_000

    def test_common_prefix_is_bitwise_identical(self, risky_params):
        grid = build_time_grid(1.0, 12)
        small = simulate_paths(risky_params, grid, self.PREFIX, seed=7)
        large = simulate_paths(risky_params, grid, self.FULL, seed=7)
        assert np.array_equal(small.default_step, large.default_step[: self.PREFIX])
        assert small.n_paths == self.PREFIX

    @pytest.mark.parametrize("seed", [7, 20270615])
    def test_chunked_stream_matches_the_one_call_reference(self, risky_params, seed):
        grid = build_time_grid(1.0, 12)
        paths = simulate_paths(risky_params, grid, self.PREFIX, seed=seed)
        default_step = block_default_steps(risky_params, grid, self.PREFIX, seed, sinkbond.mc._CHUNK)
        assert np.array_equal(paths.default_step, default_step)
        assert 0.2 < np.mean(default_step > 0) < 0.5

    def test_many_workers_on_small_blocks_with_rapid_switching(self, risky_params, monkeypatch):
        # more workers than cores and a block per 64 paths: a block evolved
        # twice, lost or written to another's slice would break the equality
        monkeypatch.setattr(sinkbond.mc, "_CHUNK", 64)
        monkeypatch.setattr(sinkbond.mc, "_WORKERS", 5)
        grid = build_time_grid(1.0, 12)
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(
                target=lambda: result.append(simulate_paths(risky_params, grid, self.PREFIX, seed=7)))
            caller.start()
            caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        default_step = block_default_steps(risky_params, grid, self.PREFIX, 7, 64)
        assert np.array_equal(result[0].default_step, default_step)

    def test_blocks_run_under_the_callers_error_state(self, risky_params, monkeypatch):
        seen = []

        def recording(params, x, out=None):
            seen.append(np.geterr()["over"])
            return x_state(params, x, out=out)

        monkeypatch.setattr(sinkbond.mc, "x_state", recording)
        grid = build_time_grid(1.0, 12)
        with np.errstate(over="raise"):  # as the CLI runs
            simulate_paths(risky_params, grid, self.FULL, seed=7)
        # two blocks, each calling x_state once per step and once at the start
        assert len(seen) == 2 * (grid.n_steps + 1) and set(seen) == {"raise"}

    @pytest.mark.parametrize("name", ["steep", "corner"])
    def test_defaulted_paths_through_the_boundary_and_the_cap_match_the_reference(self, name):
        # a defaulted path keeps stepping, so its x can reach 0 and the cap
        params = ORACLE_PARAMS[name]
        grid = build_time_grid(1.0, 12)
        paths = simulate_paths(params, grid, self.PREFIX, seed=7)
        reference = block_default_steps(params, grid, self.PREFIX, 7, sinkbond.mc._CHUNK)
        assert np.array_equal(paths.default_step, reference)

    def test_path_count_cap_is_inclusive(self, fitted_params, monkeypatch):
        monkeypatch.setattr(sinkbond.mc, "_MAX_PATHS", 5_000)
        grid = build_time_grid(1.0, 4)
        assert simulate_paths(fitted_params, grid, 5_000, seed=1).n_paths == 5_000
        with pytest.raises(ValueError, match="between 1 and 5000, got 5001"):
            simulate_paths(fitted_params, grid, 5_001, seed=1)

    def test_same_seed_same_paths(self, risky_params):
        grid = build_time_grid(1.0, 12)
        a = simulate_paths(risky_params, grid, self.PREFIX, seed=3)
        b = simulate_paths(risky_params, grid, self.PREFIX, seed=3)
        assert np.array_equal(a.default_step, b.default_step)
        c = simulate_paths(risky_params, grid, self.PREFIX, seed=4)
        assert not np.array_equal(a.default_step, c.default_step)

    def test_zero_lambda0_never_defaults(self):
        params = JDCEVParams(lambda0=0.0, sigma=1.0, beta=-0.5, z0=25.0)
        grid = build_time_grid(3.0, 4)
        paths = simulate_paths(params, grid, 500, seed=1)
        assert np.all(paths.default_step == -1)

    def test_zero_diffusion_survival_matches_the_mean_chain(self, fitted_params):
        grid = build_time_grid(3.0, 12)
        n_paths, seed = 20_000, 11
        chunk = sinkbond.mc._CHUNK
        default_step = block_default_steps(fitted_params, grid, n_paths, seed, chunk, zero_shock=True)
        chain = mean_chain(fitted_params, grid)
        # the chain's cumulative hazard through each step, summed in step order
        hazard = np.cumsum([float(chain.layers[n].intensity[0]) * float(grid.steps[n])
                            for n in range(grid.n_steps)])
        gens = block_generators(seed, n_paths, chunk)
        thresholds = np.concatenate([gen.standard_exponential(chunk) for gen in gens])[:n_paths]
        # a path defaults in the first step whose cumulative hazard exceeds its threshold
        first = np.searchsorted(hazard, thresholds, side="right") + 1
        assert np.array_equal(default_step, np.where(first <= grid.n_steps, first, -1))
        expected = math.exp(-hazard[-1])
        observed = float(np.mean(default_step == -1))
        se = math.sqrt(expected * (1.0 - expected) / n_paths)
        assert abs(observed - expected) <= 3.0 * se

    def test_input_validation(self, fitted_params):
        grid = build_time_grid(1.0, 4)
        with pytest.raises(ValueError):
            simulate_paths(fitted_params, grid, 0, seed=1)
        with pytest.raises(ValueError, match="between 1 and 10000000"):
            simulate_paths(fitted_params, grid, 10**12, seed=1)
        with pytest.raises(ValueError):
            simulate_paths(fitted_params, grid, 10, seed=-1)


README_BOND = SinkingBondSpec(
    maturity=10.0,
    coupon_rate=0.08,
    coupon_frequency=1,
    redemption_dates=tuple(float(y) for y in range(1, 10)),
    admissible_fractions=(0.05, 0.10),
    alpha=75.0,
    recovery=0.4,
)
#: sha256 of default_step as int64 bytes, and the number of defaults, for
#: 100,000 README-bond paths, computed with one worker and equal to the
#: block-substream reference
README_DEFAULT_STEPS = {
    (12, 1): ("27b1406629b36352caa44bbbbd8c9b135f9799986774c5fdb2fbcbe333c889a4", 30_113),
    (12, 20270615): ("2ee5fc9f30dbcdf2084f75dbdf7eb64857624f7f8e4547e3a9e1de244dba852d", 30_141),
    (52, 7): ("e143f7235703cca962903595aef96edc8830683354585fa206dcde9434476c5a", 30_522),
}


def readme_fingerprint(params, steps_per_year, seed):
    paths = simulate_paths(params, bond_grid(README_BOND, steps_per_year), 100_000, seed)
    default_step = paths.default_step
    return hashlib.sha256(default_step.astype(np.int64).tobytes()).hexdigest(), int(np.sum(default_step > 0))


class TestReadmeBondKernel:
    @pytest.mark.parametrize("steps_per_year, seed", list(README_DEFAULT_STEPS))
    def test_default_steps_are_pinned_to_the_bit(self, fitted_params, steps_per_year, seed):
        assert readme_fingerprint(fitted_params, steps_per_year, seed) == README_DEFAULT_STEPS[steps_per_year, seed]

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_worker_count_does_not_move_a_bit(self, fitted_params, monkeypatch, workers):
        monkeypatch.setattr(sinkbond.mc, "_WORKERS", workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fingerprint = readme_fingerprint(fitted_params, 12, 1)
        finally:
            sys.setswitchinterval(interval)
        assert fingerprint == README_DEFAULT_STEPS[12, 1]

    def test_the_kernel_never_asks_for_a_stock_level(self, fitted_params, monkeypatch):
        # the state is rational in x: intensity lambda0 * (x0 / x)^2 and drift (nu + 1/2) / x
        grid = bond_grid(README_BOND, 12)
        expected = simulate_paths(fitted_params, grid, 1_000, seed=1).default_step

        def no_level(*args, **kwargs):
            raise AssertionError("the Monte Carlo kernel computed a stock level")

        monkeypatch.setattr(sinkbond.jdcev, "_level", no_level)
        assert np.array_equal(simulate_paths(fitted_params, grid, 1_000, seed=1).default_step, expected)

    def test_a_failing_block_is_raised_and_no_thread_outlives_the_call(self, fitted_params, monkeypatch):
        grid = bond_grid(README_BOND, 12)
        calls_per_block = grid.n_steps + 1
        calls = []
        lock = threading.Lock()

        def fails_in_the_third_block(params, x, out=None):
            with lock:
                calls.append(None)
                if len(calls) > 2 * calls_per_block:
                    raise FloatingPointError("third block")
            return x_state(params, x, out=out)

        monkeypatch.setattr(sinkbond.mc, "x_state", fails_in_the_third_block)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="third block"):
            simulate_paths(fitted_params, grid, 20_000, seed=1)
        assert threading.active_count() == before
        assert len(calls) > 2 * calls_per_block

    def test_peak_memory_does_not_grow_with_the_step_count(self, fitted_params):
        def peak(steps_per_year):
            grid = bond_grid(README_BOND, steps_per_year)
            tracemalloc.start()
            try:
                simulate_paths(fitted_params, grid, 20_000, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a block holds one step of normals: its buffers are a few 8,192-path vectors, 64 kB each
        coarse, fine = peak(12), peak(252)
        assert fine <= coarse + 2**20
        assert fine < 4 * 2**20


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
        paths = simulate_paths(params, grid, 200, seed=2)
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

    @pytest.mark.parametrize("steps_per_year, seed", [(12, 1), (52, 7)])
    @pytest.mark.parametrize("schedule", ["max", {1.0: 0.10, 2.0: 0.05, 3.0: 0.10, 4.0: 0.05, 5.0: 0.10,
                                                  6.0: 0.05, 7.0: 0.10, 8.0: 0.05, 9.0: 0.10}], ids=["max", "map"])
    def test_counted_survival_curve_equals_the_per_path_mean(
        self, fitted_params, flat_curve, steps_per_year, seed, schedule
    ):
        paths = simulate_paths(fitted_params, bond_grid(README_BOND, steps_per_year), 20_000, seed)
        estimate = mc_price_fixed_policy(paths, README_BOND, schedule, flat_curve)
        reference, std_error = per_path_mc_estimate(paths, README_BOND, schedule, flat_curve)
        assert abs(estimate.estimate - reference) <= 4 * np.spacing(reference)
        assert estimate.std_error == pytest.approx(std_error, rel=1e-12, abs=0.0)

    def test_single_path_rejected(self, fitted_params, flat_curve):
        spec = sinking_spec()
        paths = simulate_paths(fitted_params, bond_grid(spec, 4), 1, seed=1)
        with pytest.raises(ValueError, match="at least 2 paths"):
            mc_price_fixed_policy(paths, spec, "max", flat_curve)
