import math

import numpy as np
import pytest

from oracles import per_nominal_backward_induction, per_nominal_policy_value
from policies import fixed_schedule_policy, random_admissible_policy

from sinkbond.instruments import SinkingBondSpec, bond_grid
from sinkbond.market_data import DiscountCurve, TimeGrid, build_time_grid
from sinkbond.mdp import (
    StageProblem,
    backward_induction,
    bellman_residual,
    evaluate_policy,
    stage_cost,
    stage_values,
)
from sinkbond.pricer import build_stage_problems, price_zcb
from sinkbond.tree import augment_default, build_trinomial, deterministic_tree


def chain_stage(actions_map, intensity, dt, rate, coupon, recovery):
    """Single-node stage with a constant intensity, for closed-form checks."""
    chain = deterministic_tree(TimeGrid((0.0, dt)), intensity)
    return StageProblem(
        actions=lambda s: actions_map[s],
        transition=chain.transitions[0],
        coupon=coupon,
        recovery=recovery,
        discount=math.exp(-rate * dt),
    )


class TestStageCost:
    def test_survival_certain_pays_coupon(self):
        stage = chain_stage({1: (0,)}, intensity=0.0, dt=1.0, rate=0.0, coupon=0.05, recovery=0.4)
        assert stage_cost(stage, 1, 0, 1)[0] == pytest.approx(0.05, abs=1e-15)

    def test_certain_default_pays_recovery(self):
        stage = chain_stage({1: (0,)}, intensity=1e4, dt=1.0, rate=0.0, coupon=0.0, recovery=0.4)
        assert stage_cost(stage, 1, 0, 1)[0] == pytest.approx(0.4, abs=1e-8)

    def test_zero_nominal_costs_nothing(self):
        stage = chain_stage({0: (0,)}, intensity=0.02, dt=0.5, rate=0.01, coupon=0.06, recovery=0.4)
        assert stage_cost(stage, 0, 0, 1)[0] == 0.0

    def test_inadmissible_action_rejected(self):
        # the cost itself is pure arithmetic; admissibility is enforced where
        # a caller supplies the actions
        stage = chain_stage({1: (0,)}, intensity=0.0, dt=1.0, rate=0.0, coupon=0.0, recovery=0.0)
        with pytest.raises(ValueError, match="not admissible"):
            evaluate_policy([stage], 1, lambda n, s: 1)


def one_row(s_index):
    return np.array([s_index])


class TestBellmanStep:
    def test_one_stage_toy_closed_form(self):
        z, r, dt, recovery = 0.03, 0.02, 0.5, 0.4
        stage = chain_stage({1: (1,)}, intensity=z, dt=dt, rate=r, coupon=0.0, recovery=recovery)
        expected = math.exp(-r * dt) * (
            math.exp(-z * dt) + (1.0 - math.exp(-z * dt)) * recovery
        )
        value = stage_values(stage, one_row(1), np.array([[1]]), one_row(0), np.zeros((1, 1)), 1)
        assert value[0, 0] == pytest.approx(expected, abs=1e-15)
        solution = backward_induction([stage], 1)
        assert solution.values[0][1][0] == value[0, 0]
        assert solution.policy[0][1][0] == 1

    def test_singleton_action_needs_no_minimization(self):
        stage = chain_stage({2: (0,)}, intensity=0.01, dt=0.25, rate=0.0, coupon=0.04, recovery=0.0)
        value = stage_values(stage, one_row(2), np.array([[0]]), one_row(2), np.array([[0.7]]), 2)
        direct = stage_cost(stage, 2, 0, 2) + stage.discount * stage.transition.probs[1] * 0.7
        assert value[0, 0] == pytest.approx(direct[0], abs=1e-15)
        assert backward_induction([stage], 2).policy[0][2][0] == 0

    def test_duplicate_action_leaves_value_unchanged(self):
        # a final stage redeeming the remainder hands nonzero continuations
        # to the choice between 0 and 1 units
        last = chain_stage({2: (2,), 1: (1,)}, intensity=0.02, dt=0.5, rate=0.01, coupon=0.03, recovery=0.2)
        base = chain_stage({2: (0, 1)}, intensity=0.02, dt=0.5, rate=0.01, coupon=0.03, recovery=0.2)
        doubled = chain_stage(
            {2: (0, 1, 1, 0)}, intensity=0.02, dt=0.5, rate=0.01, coupon=0.03, recovery=0.2
        )
        v1 = backward_induction([base, last], 2).values[0][2][0]
        v2 = backward_induction([doubled, last], 2).values[0][2][0]
        assert v1 == v2

    def test_missing_continuation_reported(self):
        stage = chain_stage({1: (1,)}, intensity=0.0, dt=1.0, rate=0.0, coupon=0.0, recovery=0.0)
        with pytest.raises(ValueError, match="missing continuation"):
            stage_values(stage, one_row(1), np.array([[1]]), one_row(1), np.zeros((1, 1)), 1)

    def test_largest_action_wins_ties(self):
        # redeeming now pays 1 immediately; waiting hands over a continuation
        # worth exactly 1 (the final stage redeems the unit at zero rate) --
        # a tie, resolved toward the larger action
        stage = chain_stage({1: (0, 1)}, intensity=0.0, dt=1.0, rate=0.0, coupon=0.0, recovery=0.0)
        last = chain_stage({1: (1,), 0: (0,)}, intensity=0.0, dt=1.0, rate=0.0, coupon=0.0, recovery=0.0)
        solution = backward_induction([stage, last], 1)
        assert solution.values[1][1][0] == 1.0
        assert solution.values[0][1][0] == 1.0
        assert solution.policy[0][1][0] == 1


class TestBackwardInduction:
    def test_default_free_zero_coupon_bond(self, flat_curve):
        spec = SinkingBondSpec(maturity=2.0, coupon_rate=0.0, recovery=0.0)
        grid = bond_grid(spec, 4)
        tree = augment_default(deterministic_tree(grid, 0.0))
        stages = build_stage_problems(tree, flat_curve, spec)
        solution = backward_induction(stages, spec.nominal_steps)
        assert solution.root_value == pytest.approx(math.exp(-0.02 * 2.0), rel=1e-14)

    def test_matches_zcb_recursion_on_stochastic_tree(self, fitted_params, flat_curve):
        spec = SinkingBondSpec(maturity=2.0, coupon_rate=0.0, recovery=0.4)
        grid = bond_grid(spec, 4)
        tree = augment_default(build_trinomial(fitted_params, grid))
        stages = build_stage_problems(tree, flat_curve, spec)
        solution = backward_induction(stages, spec.nominal_steps)
        assert solution.root_value == pytest.approx(price_zcb(tree, flat_curve, 0.4), abs=1e-12)

    def test_bellman_self_consistency(self, fitted_params, flat_curve):
        spec = SinkingBondSpec(
            maturity=4.0,
            coupon_rate=0.07,
            coupon_frequency=1,
            redemption_dates=(1.0, 2.0, 3.0),
            admissible_fractions=(0.1, 0.2),
            alpha=100.0,
            recovery=0.4,
        )
        grid = bond_grid(spec, 4)
        tree = augment_default(build_trinomial(fitted_params, grid))
        stages = build_stage_problems(tree, flat_curve, spec)
        solution = backward_induction(stages, spec.nominal_steps)
        residuals = bellman_residual(stages, spec.nominal_steps, solution)
        assert residuals["fixed_point"] <= 1e-12
        assert residuals["minimality"] <= 1e-12


def sinking_instance(params, curve, *, allow_skip=False):
    spec = SinkingBondSpec(
        maturity=5.0,
        coupon_rate=0.08,
        coupon_frequency=1,
        redemption_dates=(1.0, 2.0, 3.0, 4.0),
        admissible_fractions=(0.05, 0.10),
        alpha=75.0,
        recovery=0.4,
        allow_skip=allow_skip,
    )
    grid = bond_grid(spec, 4)
    tree = augment_default(build_trinomial(params, grid))
    return spec, build_stage_problems(tree, curve, spec)


class TestEvaluatePolicy:
    def test_optimal_policy_reproduces_value(self, fitted_params, flat_curve):
        spec, stages = sinking_instance(fitted_params, flat_curve)
        solution = backward_induction(stages, spec.nominal_steps)
        evaluated = evaluate_policy(stages, spec.nominal_steps, solution)
        assert evaluated.root_value == pytest.approx(solution.root_value, abs=1e-12)

    def test_random_policies_never_beat_the_optimum(self, fitted_params, flat_curve):
        spec, stages = sinking_instance(fitted_params, flat_curve)
        solution = backward_induction(stages, spec.nominal_steps)
        rng = np.random.default_rng(11)
        for _ in range(100):
            policy = random_admissible_policy(stages, spec.nominal_steps, rng)
            value = evaluate_policy(stages, spec.nominal_steps, policy).root_value
            assert value >= solution.root_value - 1e-12

    def test_inadmissible_policy_names_the_state(self, fitted_params, flat_curve):
        spec, stages = sinking_instance(fitted_params, flat_curve)

        def bad_policy(n, s_index):
            return 3  # never admissible: installments are 1 or 2 units

        with pytest.raises(ValueError, match=r"stage 0, nominal index 15"):
            evaluate_policy(stages, spec.nominal_steps, bad_policy)

    def test_redeem_nothing_until_forced_equals_zcb(self, fitted_params, flat_curve):
        spec = SinkingBondSpec(maturity=3.0, coupon_rate=0.0, recovery=0.4, allow_skip=True)
        grid = bond_grid(spec, 4)
        tree = augment_default(build_trinomial(fitted_params, grid))
        stages = build_stage_problems(tree, flat_curve, spec)
        lazy = evaluate_policy(stages, spec.nominal_steps, lambda n, s: 0 if n < grid.n_steps - 1 else s)
        assert lazy.root_value == pytest.approx(price_zcb(tree, flat_curve, 0.4), abs=1e-12)


class TestActionRichness:
    def test_larger_action_sets_never_raise_the_value(self, fitted_params, flat_curve):
        spec_base, stages_base = sinking_instance(fitted_params, flat_curve, allow_skip=False)
        spec_rich, stages_rich = sinking_instance(fitted_params, flat_curve, allow_skip=True)
        v_base = backward_induction(stages_base, spec_base.nominal_steps).root_value
        v_rich = backward_induction(stages_rich, spec_rich.nominal_steps).root_value
        assert v_rich <= v_base + 1e-12


def test_policy_records_layout(fitted_params, flat_curve):
    spec, stages = sinking_instance(fitted_params, flat_curve)
    solution = backward_induction(stages, spec.nominal_steps)
    records = solution.policy_records()
    assert {"stage", "nominal_index", "node", "action"} == set(records[0])
    assert any(r["action"] > 0 for r in records)


README_BOND = SinkingBondSpec(
    maturity=10.0,
    coupon_rate=0.08,
    coupon_frequency=1,
    redemption_dates=tuple(float(y) for y in range(1, 10)),
    admissible_fractions=(0.05, 0.10),
    alpha=75.0,
    recovery=0.4,
)
TIED_BOND = SinkingBondSpec(
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


@pytest.mark.parametrize(
    "spec, steps_per_year", [(TIED_BOND, 4), (README_BOND, 12)], ids=["skip-call-K20", "readme-12"]
)
def test_engine_equals_per_nominal_reference(spec, steps_per_year, fitted_params, flat_curve):
    grid = bond_grid(spec, steps_per_year)
    tree = augment_default(build_trinomial(fitted_params, grid))
    stages = build_stage_problems(tree, flat_curve, spec)
    values, policy, ties = per_nominal_backward_induction(stages, spec.nominal_steps, spec.nominal_steps)
    solution = backward_induction(stages, spec.nominal_steps)
    if spec.full_call:
        assert spec.nominal_steps == 20 and ties > 0
    for n in range(len(stages) + 1):
        assert sorted(solution.values[n]) == sorted(values[n])
        for s_index, row in values[n].items():
            assert np.array_equal(solution.values[n][s_index], row)
    for n in range(len(stages)):
        assert sorted(solution.policy[n]) == sorted(policy[n])
        for s_index, row in policy[n].items():
            assert np.array_equal(solution.policy[n][s_index], row)
    for rule in ("max", "min"):
        fn = fixed_schedule_policy(stages, spec, grid, rule)
        reference = per_nominal_policy_value(stages, spec.nominal_steps, fn, spec.nominal_steps)
        assert evaluate_policy(stages, spec.nominal_steps, fn).root_value == reference
