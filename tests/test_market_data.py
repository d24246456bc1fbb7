import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkbond.market_data import (
    DiscountCurve,
    TimeGrid,
    build_time_grid,
    discount_factor,
    discount_factors,
    rate_integrals,
    step_rate_integrals,
)


class TestBuildTimeGrid:
    def test_uniform_quarters(self):
        grid = build_time_grid(1.0, 4)
        assert grid.times == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_event_insertion_keeps_endpoints(self):
        grid = build_time_grid(1.0, 2, [0.3])
        assert 0.3 in grid.times
        assert grid.times[0] == 0.0 and grid.times[-1] == 1.0
        assert np.all(grid.steps > 0)

    def test_annual_events_on_thirteen_steps_match_reference_density(self):
        grid = build_time_grid(30.0, 13, [float(y) for y in range(1, 31)])
        assert abs(grid.n_steps - 403) <= 31
        for y in range(1, 31):
            assert float(y) in grid.times

    def test_maturity_not_a_step_multiple(self):
        grid = build_time_grid(1.3, 2, [])
        assert grid.times[-1] == 1.3
        assert np.all(grid.steps > 0)

    @pytest.mark.parametrize("dates", [[0.5, 0.5], [0.0], [-0.1], [3.5]])
    def test_bad_event_dates_rejected(self, dates):
        with pytest.raises(ValueError):
            build_time_grid(3.0, 4, dates)

    def test_bad_grid_parameters_rejected(self):
        with pytest.raises(ValueError):
            build_time_grid(0.0, 4)
        with pytest.raises(ValueError):
            build_time_grid(1.0, 0)

    @given(
        steps_per_year=st.integers(min_value=1, max_value=12),
        raw_events=st.lists(
            st.floats(min_value=0.01, max_value=4.99, allow_nan=False), min_size=1, max_size=6
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_events_are_exact_members_and_snapping_is_local(self, steps_per_year, raw_events):
        maturity = 5.0
        events = sorted(set(round(e, 6) for e in raw_events))
        grid = build_time_grid(maturity, steps_per_year, events)
        h = 1.0 / steps_per_year
        times = set(grid.times)
        for e in events:
            assert e in times  # bit-exact membership
        # every uniform point is either kept or within half a step of an event
        for i in range(1, int(maturity * steps_per_year)):
            p = i / steps_per_year
            if p not in times:
                assert min(abs(p - e) for e in events) < 0.5 * h
        assert np.all(grid.steps > 0)


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid((0.0,))
        with pytest.raises(ValueError):
            TimeGrid((0.1, 0.5))
        with pytest.raises(ValueError):
            TimeGrid((0.0, 0.5, 0.5))

    def test_index_of(self):
        grid = build_time_grid(2.0, 2)
        assert grid.index_of(1.5) == 3
        assert grid.has_time(1.0)
        with pytest.raises(ValueError):
            grid.index_of(0.6)


class TestDiscountCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscountCurve((0.5,), (0.01,))
        with pytest.raises(ValueError):
            DiscountCurve((0.0, 0.0), (0.01, 0.02))
        with pytest.raises(ValueError):
            DiscountCurve((0.0,), (float("nan"),))

    def test_piecewise_lookup_and_flat_extension(self):
        curve = DiscountCurve((0.0, 1.0, 2.0), (0.01, 0.02, 0.03))
        assert curve.forward_rate(0.0) == 0.01
        assert curve.forward_rate(0.999) == 0.01
        assert curve.forward_rate(1.0) == 0.02
        assert curve.forward_rate(10.0) == 0.03
        with pytest.raises(ValueError):
            curve.forward_rate(-0.1)

    def test_from_pillars(self):
        curve = DiscountCurve.from_pillars([{"time": 0.0, "rate": 0.02}, {"time": 3.0, "rate": 0.025}])
        assert curve.pillar_rates == (0.02, 0.025)

    def test_shifted_adds_the_spread_to_every_forward(self):
        curve = DiscountCurve((0.0, 0.3, 1.0), (0.01, 0.03, 0.025))
        shifted = curve.shifted(0.02)
        assert shifted.pillar_times == curve.pillar_times
        assert shifted.pillar_rates == pytest.approx((0.03, 0.05, 0.045), abs=1e-17)
        grid = build_time_grid(2.0, 12)
        expected = discount_factors(curve, grid) * np.exp(-0.02 * grid.times_array)
        assert discount_factors(shifted, grid) == pytest.approx(expected, rel=1e-14)
        with pytest.raises(ValueError, match="finite"):
            curve.shifted(float("nan"))


class TestDiscountFactor:
    def test_zero_rate_is_one(self, zero_curve):
        grid = build_time_grid(3.0, 4)
        assert discount_factor(zero_curve, grid, 0, grid.n_steps) == 1.0

    def test_flat_rate_over_one_year(self, flat_curve):
        grid = build_time_grid(2.0, 4)
        df = discount_factor(flat_curve, grid, 2, 6)  # t=0.5 to t=1.5
        assert df == pytest.approx(math.exp(-0.02), rel=1e-14)
        assert df == pytest.approx(0.980199, abs=5e-7)

    def test_empty_range_is_one(self, flat_curve):
        grid = build_time_grid(1.0, 4)
        for n in range(grid.n_steps + 1):
            assert discount_factor(flat_curve, grid, n, n) == 1.0

    def test_index_validation(self, flat_curve):
        grid = build_time_grid(1.0, 4)
        with pytest.raises(ValueError):
            discount_factor(flat_curve, grid, 3, 2)
        with pytest.raises(ValueError):
            discount_factor(flat_curve, grid, 0, 99)

    @given(
        rates=st.lists(st.floats(min_value=-0.02, max_value=0.15), min_size=1, max_size=4),
        split=st.tuples(
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=0, max_value=8),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_over_concatenated_ranges(self, rates, split):
        pillar_times = tuple(float(i) for i in range(len(rates)))
        curve = DiscountCurve(pillar_times, tuple(rates))
        grid = build_time_grid(2.0, 4)
        n, m, k = sorted(split)
        combined = discount_factor(curve, grid, n, m) * discount_factor(curve, grid, m, k)
        direct = discount_factor(curve, grid, n, k)
        assert combined == pytest.approx(direct, rel=1e-14)

    def test_vector_helpers_agree_with_scalar(self, flat_curve):
        grid = build_time_grid(3.0, 3, [0.4])
        dfv = discount_factors(flat_curve, grid)
        for m in range(grid.n_steps + 1):
            assert dfv[m] == pytest.approx(discount_factor(flat_curve, grid, 0, m), rel=1e-15)
        integrals = rate_integrals(flat_curve, grid)
        assert integrals[0] == 0.0
        assert np.all(np.diff(integrals) >= 0)


class TestExactStepDiscounting:
    def test_off_grid_pillar_is_integrated_exactly(self):
        # forward 0 until 0.3 y, then 10 %: the pillar splits the step (0.25, 1/3]
        curve = DiscountCurve((0.0, 0.3), (0.0, 0.1))
        grid = build_time_grid(1.0, 12)
        assert discount_factors(curve, grid)[-1] == pytest.approx(math.exp(-0.07), abs=1e-15)
        assert discount_factor(curve, grid, 0, 4) == pytest.approx(
            math.exp(-0.1 * (4 / 12 - 0.3)), abs=1e-15
        )

    def test_engine_chain_zcb_uses_exact_discounting(self):
        from sinkbond.instruments import SinkingBondSpec, bond_grid
        from sinkbond.mdp import backward_induction
        from sinkbond.pricer import build_stage_problems
        from sinkbond.tree import augment_default, deterministic_tree

        curve = DiscountCurve((0.0, 0.3), (0.0, 0.1))
        spec = SinkingBondSpec(maturity=1.0, recovery=0.0)
        chain = augment_default(deterministic_tree(bond_grid(spec, 12), 0.0))
        stages = build_stage_problems(chain, curve, spec)
        value = backward_induction(stages, spec.nominal_steps).root_value
        assert value == pytest.approx(math.exp(-0.07), abs=1e-15)

    def test_steps_without_inner_pillars_keep_left_endpoint_products(self):
        curve = DiscountCurve((0.0, 0.3, 1.0, 1.55), (0.01, 0.03, 0.025, 0.04))
        grid = build_time_grid(2.0, 12)
        integrals = step_rate_integrals(curve, grid)
        left = curve.forward_rates(grid.times_array[:-1]) * grid.steps
        split = [3, 18]  # steps holding the off-grid pillars 0.3 and 1.55
        keep = np.setdiff1d(np.arange(grid.n_steps), split)
        assert np.array_equal(integrals[keep], left[keep])
        assert integrals[3] == pytest.approx(0.01 * 0.05 + 0.03 * (4 / 12 - 0.3), rel=1e-14)
        assert integrals[18] == pytest.approx(0.025 * 0.05 + 0.04 * (19 / 12 - 1.55), rel=1e-14)
