import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import deterministic_bond_pv, mean_chain, zcb_closed_form
from policies import fixed_schedule_policy

from sinkbond.instruments import SinkingBondSpec, action_table, bond_grid, coupons_on_grid
from sinkbond.jdcev import JDCEVParams
from sinkbond.market_data import DiscountCurve, build_time_grid, discount_factor
from sinkbond.mdp import backward_induction, evaluate_policy
from sinkbond.pricer import (
    UnattainablePriceError,
    build_stage_problems,
    deterministic_spread_price,
    price_fixed_schedule,
    price_report,
    price_sinking_bond,
    price_zcb,
    schedule_cashflows,
    spread_prices,
    worst_ansatz,
    z_spread,
)
from sinkbond.tree import augment_default, build_trinomial, deterministic_tree


def stochastic_tree(params, maturity, steps_per_year, events=()):
    grid = build_time_grid(maturity, steps_per_year, events)
    return augment_default(build_trinomial(params, grid))


class TestPriceZcb:
    def test_zero_intensity_equals_discount_factor(self, flat_curve):
        grid = build_time_grid(3.0, 4)
        tree = augment_default(deterministic_tree(grid, 0.0))
        expected = discount_factor(flat_curve, grid, 0, grid.n_steps)
        assert price_zcb(tree, flat_curve, 0.4) == pytest.approx(expected, abs=1e-15)

    def test_one_step_closed_form(self, zero_curve):
        grid = build_time_grid(1.0, 1)
        tree = augment_default(deterministic_tree(grid, 0.01))
        expected = math.exp(-0.01) + 0.4 * (1.0 - math.exp(-0.01))
        price = price_zcb(tree, zero_curve, 0.4)
        assert price == pytest.approx(expected, abs=1e-15)
        assert price == pytest.approx(0.9940299, abs=5e-8)

    def test_full_recovery_collapses_default_risk(self, fitted_params, zero_curve, flat_curve):
        # recovery is paid AT default, so with positive rates full recovery
        # accelerates the notional and the price exceeds the riskless bond;
        # the collapse is exact under flat-zero discounting
        tree = stochastic_tree(fitted_params, 3.0, 8)
        assert price_zcb(tree, zero_curve, 1.0) == pytest.approx(1.0, abs=1e-12)
        df = discount_factor(flat_curve, tree.grid, 0, tree.n_steps)
        assert price_zcb(tree, flat_curve, 1.0) >= df - 1e-12

    def test_deterministic_path_matches_closed_form(self, fitted_params, flat_curve):
        # the mean chain follows the conditional-mean intensity path; the
        # oracle folds the same path into explicit survival sums
        grid = build_time_grid(4.0, 6)
        tree = augment_default(mean_chain(fitted_params, grid))
        path = [float(layer.intensity[0]) for layer in tree.layers]
        rates = flat_curve.forward_rates(grid.times_array[:-1]).tolist()
        expected = zcb_closed_form(grid.times, rates, path[:-1], 0.4)
        assert price_zcb(tree, flat_curve, 0.4) == pytest.approx(expected, abs=1e-12)

    def test_price_between_recovery_floor_and_riskless(self, fitted_params, flat_curve):
        # the riskless ceiling needs the recovery to be worth less than the
        # surviving notional, which holds away from full recovery
        tree = stochastic_tree(fitted_params, 5.0, 6)
        df = discount_factor(flat_curve, tree.grid, 0, tree.n_steps)
        for recovery in (0.0, 0.4):
            price = price_zcb(tree, flat_curve, recovery)
            assert recovery * df - 1e-12 <= price <= df + 1e-12

    def test_requires_augmented_tree(self, fitted_params, flat_curve):
        grid = build_time_grid(1.0, 4)
        with pytest.raises(ValueError, match="augmented"):
            price_zcb(build_trinomial(fitted_params, grid), flat_curve, 0.4)


class TestPriceVanillaBond:
    """A plain coupon bond is a spec without redemption dates; both the
    forced-schedule sum and the decision engine value it."""

    @staticmethod
    def prices(tree, curve, spec):
        return (
            price_fixed_schedule(tree, curve, spec, "max"),
            price_sinking_bond(tree, curve, spec).price,
        )

    def test_zero_coupons_reduce_to_zcb(self, fitted_params, flat_curve):
        tree = stochastic_tree(fitted_params, 2.0, 6)
        spec = SinkingBondSpec(maturity=2.0, recovery=0.4)
        for price in self.prices(tree, flat_curve, spec):
            assert price == pytest.approx(price_zcb(tree, flat_curve, 0.4), abs=1e-14)

    def test_riskless_annual_coupon(self, zero_curve):
        grid = build_time_grid(1.0, 4)
        tree = augment_default(deterministic_tree(grid, 0.0))
        spec = SinkingBondSpec(maturity=1.0, coupon_rate=0.05, coupon_frequency=1, recovery=0.0)
        for price in self.prices(tree, zero_curve, spec):
            assert price == pytest.approx(1.05, abs=1e-14)

    def test_linearity_in_coupons(self, fitted_params, flat_curve):
        tree = stochastic_tree(fitted_params, 2.0, 4)
        rng = np.random.default_rng(5)
        a, b = rng.uniform(0.0, 0.05, 2)

        def prices(rate):
            return self.prices(tree, flat_curve, SinkingBondSpec(maturity=2.0, coupon_rate=rate, recovery=0.4))

        zcb = price_zcb(tree, flat_curve, 0.4)
        for lhs, pa, pb in zip(prices(a + b), prices(a), prices(b)):
            assert lhs == pytest.approx(pa + pb - zcb, abs=1e-12)


def premium_spec(**overrides):
    base = dict(
        maturity=5.0,
        coupon_rate=0.08,
        coupon_frequency=1,
        redemption_dates=(1.0, 2.0, 3.0, 4.0),
        admissible_fractions=(0.05, 0.10),
        alpha=75.0,
        recovery=0.4,
    )
    base.update(overrides)
    return SinkingBondSpec(**base)


class TestPriceSinkingBond:
    def test_no_options_reduce_to_zcb(self, fitted_params, flat_curve):
        spec = SinkingBondSpec(maturity=3.0, recovery=0.4)
        grid = bond_grid(spec, 4)
        tree = augment_default(build_trinomial(fitted_params, grid))
        result = price_sinking_bond(tree, flat_curve, spec)
        assert result.price == pytest.approx(price_zcb(tree, flat_curve, 0.4), abs=1e-12)

    def test_premium_bond_ordering(self, fitted_params, flat_curve):
        # above-par bond: the issuer prefers fast redemption, so
        # optimal <= forced-max <= forced-min
        spec = premium_spec()
        tree = stochastic_tree(fitted_params, 5.0, 4, events=spec.redemption_dates)
        optimal = price_sinking_bond(tree, flat_curve, spec).price
        forced_max = price_fixed_schedule(tree, flat_curve, spec, "max")
        forced_min = price_fixed_schedule(tree, flat_curve, spec, "min")
        assert optimal > 1.0  # genuinely above par
        assert optimal <= forced_max + 1e-12
        assert forced_max <= forced_min + 1e-12

    def test_optimal_never_exceeds_any_forced_schedule(self, fitted_params, flat_curve):
        spec = premium_spec(coupon_rate=0.03)  # below-par flavour
        tree = stochastic_tree(fitted_params, 5.0, 4, events=spec.redemption_dates)
        optimal = price_sinking_bond(tree, flat_curve, spec).price
        for rule in ("max", "min"):
            assert optimal <= price_fixed_schedule(tree, flat_curve, spec, rule) + 1e-12

    def test_richer_installment_menu_never_raises_the_price(self, fitted_params, flat_curve):
        narrow = premium_spec(admissible_fractions=(0.10,), alpha=100.0)
        wide = premium_spec(admissible_fractions=(0.05, 0.10), alpha=100.0, nominal_steps=20)
        tree = stochastic_tree(fitted_params, 5.0, 4, events=narrow.redemption_dates)
        v_narrow = price_sinking_bond(tree, flat_curve, narrow).price
        v_wide = price_sinking_bond(tree, flat_curve, wide).price
        assert v_wide <= v_narrow + 1e-12

    def test_horizon_mismatch_rejected(self, fitted_params, flat_curve):
        spec = premium_spec()
        tree = stochastic_tree(fitted_params, 4.0, 4, events=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="maturity"):
            price_sinking_bond(tree, flat_curve, spec)


class TestPriceFixedSchedule:
    def test_optimal_policy_round_trips(self, fitted_params, flat_curve):
        spec = premium_spec()
        tree = stochastic_tree(fitted_params, 5.0, 4, events=spec.redemption_dates)
        result = price_sinking_bond(tree, flat_curve, spec)
        stages = build_stage_problems(tree, flat_curve, spec)
        replayed = evaluate_policy(stages, spec.nominal_steps, result.solution).root_value
        assert replayed == pytest.approx(result.price, abs=1e-12)

    def test_date_map_schedule(self, fitted_params, flat_curve):
        spec = premium_spec()
        tree = stochastic_tree(fitted_params, 5.0, 4, events=spec.redemption_dates)
        always_max = {d: 0.10 for d in spec.redemption_dates}
        assert price_fixed_schedule(tree, flat_curve, spec, always_max) == pytest.approx(
            price_fixed_schedule(tree, flat_curve, spec, "max"), abs=1e-12
        )

    def test_incomplete_date_map_rejected(self, fitted_params, flat_curve):
        spec = premium_spec()
        tree = stochastic_tree(fitted_params, 5.0, 4, events=spec.redemption_dates)
        with pytest.raises(ValueError, match="redemption dates"):
            price_fixed_schedule(tree, flat_curve, spec, {1.0: 0.10})

    def test_dominance_over_random_schedules(self, fitted_params, flat_curve):
        spec = premium_spec()
        tree = stochastic_tree(fitted_params, 5.0, 4, events=spec.redemption_dates)
        optimal = price_sinking_bond(tree, flat_curve, spec).price
        rng = np.random.default_rng(17)
        for _ in range(20):
            schedule = {d: float(rng.choice([0.05, 0.10])) for d in spec.redemption_dates}
            value = price_fixed_schedule(tree, flat_curve, spec, schedule)
            assert value >= optimal - 1e-12


FITTED = JDCEVParams(lambda0=0.004, sigma=2.8199, beta=-0.6, z0=30.0)
README_BOND = SinkingBondSpec(
    maturity=10.0,
    coupon_rate=0.08,
    coupon_frequency=1,
    redemption_dates=tuple(float(y) for y in range(1, 10)),
    admissible_fractions=(0.05, 0.10),
    alpha=75.0,
    recovery=0.4,
)
SKIP_CALL_BOND = SinkingBondSpec(  # K = 20, with allow_skip and full_call
    maturity=5.0,
    coupon_rate=0.06,
    coupon_frequency=2,
    redemption_dates=(1.0, 2.0, 3.0, 4.0),
    admissible_fractions=(0.05, 0.10),
    alpha=100.0,
    recovery=0.4,
    allow_skip=True,
    full_call=True,
)
FIXED_SCHEDULE_CASES = {
    "readme-12": (README_BOND, 12),
    "readme-52": (README_BOND, 52),
    "skip-call-K20": (SKIP_CALL_BOND, 4),
}


@functools.lru_cache(maxsize=None)
def fixed_schedule_case(name):
    spec, steps_per_year = FIXED_SCHEDULE_CASES[name]
    tree = augment_default(build_trinomial(FITTED, bond_grid(spec, steps_per_year)))
    curve = DiscountCurve.flat(0.02)
    return spec, tree, curve, build_stage_problems(tree, curve, spec)


def test_stage_actions_refuse_indices_off_the_nominal_grid():
    spec, _, _, stages = fixed_schedule_case("readme-12")
    k = spec.nominal_steps
    for stage in (stages[0], stages[-1]):
        assert list(stage.actions(k)) == list(stage.actions(np.array([0, k]))[1])
        for bad in (-1, k + 1, np.array([-1, k]), np.array([0, k + 1])):
            with pytest.raises(IndexError):
                stage.actions(bad)


@pytest.mark.parametrize("name", sorted(FIXED_SCHEDULE_CASES))
class TestFixedScheduleEqualsTheEngine:
    """Survival-weighted cashflows value a node-independent schedule as the engine does."""

    @pytest.mark.parametrize("rule", ["max", "min"])
    def test_extreme_rules(self, name, rule):
        spec, tree, curve, stages = fixed_schedule_case(name)
        engine = evaluate_policy(stages, spec.nominal_steps, fixed_schedule_policy(stages, spec, tree.grid, rule))
        assert price_fixed_schedule(tree, curve, spec, rule) == pytest.approx(engine.root_value, abs=1e-13)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_date_maps(self, name, data):
        spec, tree, curve, stages = fixed_schedule_case(name)
        choices = spec.admissible_fractions + ((0.0,) if spec.allow_skip else ())
        schedule = {d: data.draw(st.sampled_from(choices)) for d in spec.redemption_dates}
        policy = fixed_schedule_policy(stages, spec, tree.grid, schedule)
        try:
            engine = evaluate_policy(stages, spec.nominal_steps, policy).root_value
        except ValueError:
            # an installment larger than what is left: both refuse the schedule
            with pytest.raises(ValueError, match="not admissible"):
                price_fixed_schedule(tree, curve, spec, schedule)
            return
        assert price_fixed_schedule(tree, curve, spec, schedule) == pytest.approx(engine, abs=1e-13)

    def test_node_dependent_policy_rejected(self, name):
        spec, tree, curve, stages = fixed_schedule_case(name)
        solution = price_sinking_bond(tree, curve, spec).solution
        with pytest.raises(ValueError, match="not MDPSolution"):
            price_fixed_schedule(tree, curve, spec, solution)
        with pytest.raises(ValueError, match="not function"):
            price_fixed_schedule(tree, curve, spec, fixed_schedule_policy(stages, spec, tree.grid, "max"))


class TestZSpread:
    def test_closed_form_zcb_inversion(self, zero_curve):
        spec = SinkingBondSpec(maturity=1.0, recovery=0.0)
        grid = bond_grid(spec, 4)
        spread = z_spread(spec, zero_curve, grid, 0.95)
        assert spread == pytest.approx(-math.log(0.95), abs=1e-8)
        assert spread == pytest.approx(0.0512933, abs=1e-7)

    def test_zero_spread_round_trip(self, flat_curve):
        spec = SinkingBondSpec(maturity=2.0, coupon_rate=0.04, coupon_frequency=2)
        grid = bond_grid(spec, 4)
        fair = deterministic_spread_price(spec, flat_curve, grid, 0.0)
        assert z_spread(spec, flat_curve, grid, fair) == pytest.approx(0.0, abs=1e-9)

    def test_round_trip_on_random_bonds(self, flat_curve):
        rng = np.random.default_rng(23)
        for _ in range(5):
            maturity = float(rng.integers(1, 7))
            spec = SinkingBondSpec(
                maturity=maturity,
                coupon_rate=float(rng.uniform(0.0, 0.09)),
                coupon_frequency=int(rng.choice([1, 2])),
            )
            grid = bond_grid(spec, 4)
            target = float(rng.uniform(0.0, 0.2))
            market = deterministic_spread_price(spec, flat_curve, grid, target)
            assert z_spread(spec, flat_curve, grid, market) == pytest.approx(target, abs=1e-8)

    def test_spread_decreasing_in_price(self, flat_curve):
        spec = SinkingBondSpec(maturity=3.0, coupon_rate=0.05, coupon_frequency=1)
        grid = bond_grid(spec, 4)
        z_low = z_spread(spec, flat_curve, grid, 0.9)
        z_high = z_spread(spec, flat_curve, grid, 1.0)
        assert z_low > z_high

    def test_sinking_feature_reoptimizes_at_each_trial(self, flat_curve):
        spec = premium_spec()
        grid = bond_grid(spec, 4)
        market = deterministic_spread_price(spec, flat_curve, grid, 0.02)
        assert z_spread(spec, flat_curve, grid, market) == pytest.approx(0.02, abs=1e-8)

    def test_unattainable_price_raises(self, flat_curve):
        spec = SinkingBondSpec(maturity=1.0)
        grid = bond_grid(spec, 4)
        with pytest.raises(UnattainablePriceError):
            z_spread(spec, flat_curve, grid, 2.0)

    def test_six_solves_and_one_action_table_per_call(self, flat_curve, monkeypatch):
        import sinkbond.pricer as pricer

        solves, tables = [], []

        def counting_solve(stages, nominal_steps):
            solves.append(len(stages))
            return backward_induction(stages, nominal_steps)

        def counting_table(spec, grid):
            tables.append(grid.n_steps)
            return action_table(spec, grid)

        monkeypatch.setattr(pricer, "backward_induction", counting_solve)
        monkeypatch.setattr(pricer, "action_table", counting_table)
        spec = premium_spec()
        grid = bond_grid(spec, 4)
        z_spread(spec, flat_curve, grid, 1.0)
        assert 1 <= len(solves) <= 6
        assert tables == [grid.n_steps]


#: (admissible fractions, alpha) pairs of the desk book: K = alpha / (smallest installment * 100) runs from 5 to 20.
FAN_SHAPES = (
    ((0.05, 0.10), 25.0),  # K 5
    ((0.10, 0.20), 50.0),  # K 5
    ((0.10, 0.20), 100.0),  # K 10
    ((0.05, 0.10, 0.15), 75.0),  # K 15
    ((0.05, 0.10), 100.0),  # K 20
)


@st.composite
def fan_cases(draw):
    """A desk-like sinking bond on a 4 or 12/yr grid, a sloped curve with interior pillars, a spread fan."""
    maturity = draw(st.integers(min_value=2, max_value=6))
    fractions, alpha = draw(st.sampled_from(FAN_SHAPES))
    spec = SinkingBondSpec(
        maturity=float(maturity),
        coupon_rate=draw(st.floats(min_value=0.0, max_value=0.09)),
        coupon_frequency=draw(st.sampled_from([1, 2])),
        redemption_dates=tuple(float(y) for y in range(1, maturity)),
        admissible_fractions=fractions,
        alpha=alpha,
        recovery=0.4,
        allow_skip=draw(st.booleans()),
        full_call=draw(st.booleans()),
    )
    inner = draw(st.lists(st.floats(min_value=0.01, max_value=maturity - 0.01), min_size=1, max_size=4, unique=True))
    times = (0.0, *sorted(inner))
    rates = tuple(draw(st.floats(min_value=-0.01, max_value=0.06)) for _ in times)
    spreads = sorted(draw(st.lists(st.floats(min_value=-0.05, max_value=0.3), min_size=2, max_size=6, unique=True)))
    return spec, DiscountCurve(times, rates), bond_grid(spec, draw(st.sampled_from([4, 12]))), spreads


class TestSpreadFan:
    @given(case=fan_cases())
    @settings(max_examples=20, deadline=None)
    def test_fan_matches_single_spreads_bit_for_bit(self, case):
        spec, curve, grid, spreads = case
        fan = spread_prices(spec, curve, grid, spreads)
        assert fan.tolist() == [deterministic_spread_price(spec, curve, grid, z) for z in spreads]

    @given(case=fan_cases())
    @settings(max_examples=20, deadline=None)
    def test_fan_prices_fall_as_the_spread_rises(self, case):
        spec, curve, grid, spreads = case
        spreads = [z for z, nxt in zip(spreads, spreads[1:] + [math.inf]) if nxt - z > 1e-6]
        fan = spread_prices(spec, curve, grid, spreads)
        assert np.all(np.diff(fan) < 0.0)

    @given(case=fan_cases())
    @settings(max_examples=20, deadline=None)
    def test_z_spread_reprices_the_market(self, case):
        spec, curve, grid, spreads = case
        market = deterministic_spread_price(spec, curve, grid, spreads[0])
        found = z_spread(spec, curve, grid, market)
        assert deterministic_spread_price(spec, curve, grid, found) == pytest.approx(market, abs=1e-8)


def callable_spec(maturity, coupon_rate, call_dates):
    return SinkingBondSpec(
        maturity=maturity,
        coupon_rate=coupon_rate,
        coupon_frequency=1,
        redemption_dates=tuple(call_dates),
        full_call=True,
        allow_skip=True,
        recovery=0.0,
    )


class TestWorstAnsatz:
    def test_no_call_dates_equals_deterministic_pv(self, flat_curve):
        spec = callable_spec(3.0, 0.06, ())
        grid = bond_grid(spec, 4)
        price = worst_ansatz(spec, flat_curve, grid, 0.01)
        rates = flat_curve.forward_rates(grid.times_array[:-1]).tolist()
        coupons = coupons_on_grid(spec, grid)
        expected = deterministic_bond_pv(grid.times, rates, 0.01, coupons, grid.n_steps - 1)
        assert price == pytest.approx(expected, abs=1e-12)

    def test_matches_deterministic_callable_program(self, flat_curve):
        rng = np.random.default_rng(29)
        for _ in range(5):
            maturity = float(rng.integers(3, 9))
            call_dates = tuple(float(y) for y in range(1, int(maturity)))
            spec = callable_spec(maturity, float(rng.uniform(0.0, 0.1)), call_dates)
            grid = bond_grid(spec, 4)
            spread = float(rng.uniform(0.0, 0.1))
            assert worst_ansatz(spec, flat_curve, grid, spread) == pytest.approx(
                deterministic_spread_price(spec, flat_curve, grid, spread), abs=1e-10
            )

    def test_matches_deterministic_program_on_sloped_curve(self):
        # whole-year pillars of an upward-sloping forward curve, as on a desk
        curve = DiscountCurve(tuple(float(y) for y in range(13)), tuple(0.015 + 0.002 * y for y in range(13)))
        rng = np.random.default_rng(31)
        for steps_per_year in (4, 12):
            for _ in range(3):
                maturity = float(rng.integers(3, 12))
                call_dates = tuple(float(y) for y in range(1, int(maturity)))
                spec = callable_spec(maturity, float(rng.uniform(0.03, 0.09)), call_dates)
                grid = bond_grid(spec, steps_per_year)
                spread = float(rng.uniform(0.005, 0.05))
                assert worst_ansatz(spec, curve, grid, spread) == pytest.approx(
                    deterministic_spread_price(spec, curve, grid, spread), abs=1e-10
                )

    def test_extra_call_date_never_raises_the_quote(self, flat_curve):
        few = callable_spec(5.0, 0.07, (2.0,))
        many = callable_spec(5.0, 0.07, (2.0, 3.0))
        grid = bond_grid(many, 4)
        assert worst_ansatz(many, flat_curve, grid, 0.01) <= worst_ansatz(
            few, flat_curve, grid, 0.01
        ) + 1e-14

    def test_requires_callable_style(self, flat_curve):
        spec = premium_spec()
        grid = bond_grid(spec, 4)
        with pytest.raises(ValueError, match="callable"):
            worst_ansatz(spec, flat_curve, grid, 0.01)

    def test_mismatched_grid_rejected(self, flat_curve):
        # a 10 y grid holds every date of the 5 y bond, so only the horizon check can catch it
        spec = callable_spec(5.0, 0.06, (1.0, 2.0, 3.0, 4.0))
        grid = build_time_grid(10.0, 4, [1.0, 2.0, 3.0, 4.0, 5.0])
        for pricer_fn in (worst_ansatz, deterministic_spread_price):
            with pytest.raises(ValueError, match="grid horizon 10.0 does not match"):
                pricer_fn(spec, flat_curve, grid, 0.01)


class TestPriceReport:
    def test_report_fields_and_option_value(self, fitted_params, flat_curve):
        spec = premium_spec()
        tree = stochastic_tree(fitted_params, 5.0, 4, events=spec.redemption_dates)
        report = price_report(tree, flat_curve, spec)
        assert set(report) == {"price", "forced_max", "forced_min", "option_value", "policy_summary"}
        assert report["option_value"] == pytest.approx(report["forced_max"] - report["price"])
        assert report["option_value"] >= -1e-12
        assert report["policy_summary"]

    @pytest.mark.parametrize(
        "steps_per_year, price, forced_max, forced_min",
        [
            (12, 1.159818000111499, 1.17198945918387, 1.2345429395756322),
            (52, 1.160068922241197, 1.172708520649129, 1.2336794675373182),
        ],
    )
    def test_readme_bond_prices(
        self, fitted_params, flat_curve, steps_per_year, price, forced_max, forced_min
    ):
        spec = SinkingBondSpec(
            maturity=10.0,
            coupon_rate=0.08,
            coupon_frequency=1,
            redemption_dates=tuple(float(y) for y in range(1, 10)),
            admissible_fractions=(0.05, 0.10),
            alpha=75.0,
            recovery=0.4,
        )
        tree = augment_default(build_trinomial(fitted_params, bond_grid(spec, steps_per_year)))
        report = price_report(tree, flat_curve, spec)
        assert report["price"] == pytest.approx(price, abs=1e-12)
        assert report["forced_max"] == pytest.approx(forced_max, abs=1e-12)
        assert report["forced_min"] == pytest.approx(forced_min, abs=1e-12)

    def test_policy_summary_ignores_leaves(self, calm_params, flat_curve):
        # without coupons the issuer redeems the smallest installment at
        # every live node; leaves tie at zero and would report the largest
        spec = premium_spec(maturity=4.0, coupon_rate=0.0, redemption_dates=(1.0, 2.0, 3.0))
        tree = stochastic_tree(calm_params, 4.0, 52, events=spec.redemption_dates)
        assert not all(tr.live.all() for tr in tree.transitions)
        smallest = 5.0 / 75.0
        for entry in price_report(tree, flat_curve, spec)["policy_summary"]:
            assert entry["action_min"] == pytest.approx(smallest, abs=1e-15)
            assert entry["action_max"] == pytest.approx(smallest, abs=1e-15)


def test_schedule_cashflows_rejects_unknown_rule():
    spec = premium_spec()
    grid = bond_grid(spec, 4)
    with pytest.raises(ValueError, match="unknown schedule rule"):
        schedule_cashflows(spec, grid, "sometimes")
    cash, _ = schedule_cashflows(spec, grid, "MAX")
    assert np.array_equal(cash, schedule_cashflows(spec, grid, "max")[0])
