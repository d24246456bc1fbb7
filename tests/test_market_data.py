import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import discount_factor, loop_grid_times

from sinkbond.market_data import (
    DiscountCurve,
    TimeGrid,
    build_time_grid,
    discount_factors,
    step_discounts,
    step_rate_integrals,
    stream_values,
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

    @pytest.mark.parametrize("maturity", [math.inf, 1e308])
    def test_non_finite_step_count_rejected(self, maturity):
        # 1e308 is finite, but 1e308 * 12 steps per year is not
        with pytest.raises(ValueError, match="finite step count"):
            build_time_grid(maturity, 12)

    def test_event_dates_count_toward_the_step_limit(self, monkeypatch):
        import sinkbond.market_data

        class Unlisted(list):
            """Event dates that may be counted but not read."""

            def __iter__(self):
                raise AssertionError("read the event dates of a refused grid")

        monkeypatch.setattr(sinkbond.market_data, "_MAX_STEPS", 20)
        dates = [(j + 0.5) / 12 for j in range(9)]
        assert build_time_grid(1.0, 12, dates[:8]).n_steps == 20
        with pytest.raises(ValueError, match="12 steps per year with 9 event dates is not a finite step count of at most 20"):
            build_time_grid(1.0, 12, Unlisted(dates))

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

    @given(
        steps_per_year=st.integers(min_value=1, max_value=52),
        maturity=st.floats(min_value=0.05, max_value=6.0, allow_nan=False),
        near=st.lists(st.tuples(st.integers(0, 400), st.floats(-0.5, 0.5)), max_size=12),
        far=st.lists(st.floats(min_value=1e-6, max_value=1.0), max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_merge_equals_the_per_point_loop(self, steps_per_year, maturity, near, far):
        # events within half a step of uniform points (including exactly half
        # a step) and anywhere in (0, maturity]
        h = 1.0 / steps_per_year
        raw = [(i + frac) * h for i, frac in near] + [maturity * f for f in far]
        events = []
        for d in sorted(d for d in raw if 0.0 < d <= maturity):
            if not events or d - events[-1] > 1e-12 * max(1.0, d):
                events.append(d)
        grid = build_time_grid(maturity, steps_per_year, events)
        assert grid.times == loop_grid_times(maturity, steps_per_year, events)


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid((0.0,))
        with pytest.raises(ValueError):
            TimeGrid((0.1, 0.5))
        with pytest.raises(ValueError):
            TimeGrid((0.0, 0.5, 0.5))
        with pytest.raises(ValueError):
            TimeGrid((0.0, float("nan")))
        for times in ((0.0, math.inf), (0.0, 1.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                TimeGrid(times)

    def test_index_of(self):
        grid = build_time_grid(2.0, 2)
        assert grid.index_of(1.5) == 3
        assert grid.index_of(1.0) == 2
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
        with pytest.raises(ValueError):
            DiscountCurve((0.0, float("nan"), 1.0), (0.02, 0.03, 0.04))
        for times in ((0.0, math.inf), (0.0, 1.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                DiscountCurve(times, (0.02,) * len(times))

    def test_piecewise_lookup_and_flat_extension(self):
        curve = DiscountCurve((0.0, 1.0, 2.0), (0.01, 0.02, 0.03))
        rates = curve.forward_rates(np.array([0.0, 0.999, 1.0, 10.0]))
        assert rates.tolist() == [0.01, 0.01, 0.02, 0.03]
        for bad in ([0.5, -0.1], [float("nan")]):
            with pytest.raises(ValueError):
                curve.forward_rates(np.array(bad))

    def test_from_pillars(self):
        curve = DiscountCurve.from_pillars([{"time": 0.0, "rate": 0.02}, {"time": 3.0, "rate": 0.025}])
        assert curve.pillar_rates == (0.02, 0.025)

    def test_spread_adds_to_every_forward(self):
        curve = DiscountCurve((0.0, 0.3, 1.0), (0.01, 0.03, 0.025))
        grid = build_time_grid(2.0, 12)
        expected = discount_factors(curve, grid) * np.exp(-0.02 * grid.times_array)
        assert discount_factors(curve, grid, 0.02) == pytest.approx(expected, rel=1e-14)
        for bad in (float("nan"), math.inf, -math.inf, [0.01, float("nan")]):
            with pytest.raises(ValueError, match="finite"):
                step_rate_integrals(curve, grid, bad)
        with pytest.raises(ValueError):
            step_rate_integrals(curve, grid, np.zeros((2, 2)))


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
        assert dfv[0] == 1.0
        assert np.all(np.diff(dfv) <= 0)


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


class TestSpreadAxis:
    # pillars on quarterly grid dates (0.5, 1.0, 1.75), one inside the step (0.5, 0.75], and
    # eight inside (1.25, 1.5]: enough pieces for NumPy's pairwise summation
    # to differ from a plain running sum
    TIMES = (0.0, 0.5, 0.6, 1.0, *(1.26 + 0.02 * i for i in range(8)), 1.75)
    RATES = (0.011, 0.023, -0.004, 0.031, *(0.02 + 0.0037 * i for i in range(8)), 0.045)
    SPREADS = np.concatenate((np.linspace(-0.05, 5.0, 64), [0.0, 1e-9, 0.0123456789]))

    def shifted(self, z):
        return DiscountCurve(self.TIMES, tuple(r + z for r in self.RATES))

    def test_curve_splits_the_steps_it_is_meant_to(self):
        grid = build_time_grid(2.0, 4)
        owner = np.searchsorted(grid.times_array, self.TIMES, side="right") - 1
        inside = np.asarray(self.TIMES) > grid.times_array[owner]
        assert np.bincount(owner[inside]).tolist() == [0, 0, 1, 0, 0, 8]

    @pytest.mark.parametrize("steps_per_year", [4, 12])
    def test_columns_equal_hand_shifted_curves_bit_for_bit(self, steps_per_year):
        curve = DiscountCurve(self.TIMES, self.RATES)
        grid = build_time_grid(2.0, steps_per_year)
        integrals = step_rate_integrals(curve, grid, self.SPREADS)
        factors = discount_factors(curve, grid, self.SPREADS)
        steps = step_discounts(curve, grid, self.SPREADS)
        assert integrals.shape == steps.shape == (grid.n_steps, self.SPREADS.size)
        assert factors.shape == (grid.n_steps + 1, self.SPREADS.size)
        for j, z in enumerate(self.SPREADS):
            shifted = self.shifted(float(z))
            assert np.array_equal(integrals[:, j], step_rate_integrals(shifted, grid))
            assert np.array_equal(steps[:, j], step_discounts(shifted, grid))
            assert np.array_equal(factors[:, j], discount_factors(shifted, grid))

    def test_one_spread_equals_its_hand_shifted_curve_bit_for_bit(self):
        curve = DiscountCurve(self.TIMES, self.RATES)
        grid = build_time_grid(2.0, 4)
        for z in self.SPREADS:
            shifted = self.shifted(float(z))
            assert np.array_equal(step_rate_integrals(curve, grid, float(z)), step_rate_integrals(shifted, grid))
            assert np.array_equal(discount_factors(curve, grid, float(z)), discount_factors(shifted, grid))

    def test_zero_spread_leaves_the_curve_as_it_is(self):
        curve = DiscountCurve(self.TIMES, self.RATES)
        grid = build_time_grid(2.0, 12)
        assert np.array_equal(step_discounts(curve, grid, 0.0), step_discounts(curve, grid))
        assert np.array_equal(step_rate_integrals(curve, grid, [0.0])[:, 0], step_rate_integrals(curve, grid))


def test_stream_values_add_each_step_in_date_order():
    rng = np.random.default_rng(3)
    n = 40
    dfv, survival = np.exp(-0.02 * np.arange(n + 1) / 4), np.linspace(1.0, 0.8, n + 1)
    cash, recovered = np.where(rng.random(n + 1) < 0.3, 0.02, 0.0), rng.random(n) * 0.4
    default_mass = -np.diff(survival)
    values = stream_values(dfv, cash, recovered, survival, default_mass)
    total, expected = 0.0, [0.0]
    for m in range(1, n + 1):
        total += dfv[m] * survival[m] * cash[m] + dfv[m] * default_mass[m - 1] * recovered[m - 1]
        expected.append(total)
    assert values.tolist() == expected
    # a shorter stream read off a longer one: zero terms beyond its end add nothing
    short = np.where(np.arange(n + 1) <= 20, cash, 0.0)
    assert stream_values(dfv, short, 0.0, survival, default_mass)[20] == stream_values(
        dfv[:21], cash[:21], 0.0, survival[:21], default_mass[:20])[-1]
