import math

import numpy as np
import pytest

from oracles import per_nominal_backward_induction, per_nominal_policy_value
from policies import fixed_schedule_policy, random_admissible_policy

from sinkbond import mdp, pricer
from sinkbond.instruments import SinkingBondSpec, bond_grid
from sinkbond.market_data import DiscountCurve, TimeGrid, build_time_grid
from sinkbond.mdp import (
    MDPSolution,
    StageProblem,
    StageTable,
    backward_induction,
    bellman_residual,
    evaluate_policy,
    stage_cost,
    stage_values,
    value_tables,
)
from sinkbond.pricer import build_stage_problems, price_zcb
from sinkbond.tree import augment_default, build_trinomial, deterministic_tree


def chain_stage(actions_map, intensity, dt, rate, coupon, recovery):
    """Single-node stage with a constant intensity, for closed-form checks.

    ``actions_map`` becomes an action table: each row largest first, padded
    with its smallest amount; nominals the map leaves out redeem nothing.
    """
    chain = deterministic_tree(TimeGrid((0.0, dt)), intensity)
    width = max(map(len, actions_map.values()))
    table = np.zeros((max(actions_map) + 1, width), dtype=np.intp)
    for s, acts in actions_map.items():
        acts = sorted(acts, reverse=True)
        table[s] = acts + acts[-1:] * (width - len(acts))
    return StageProblem(
        table=table,
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

    def test_table_without_the_notionals_row_is_refused(self):
        # an all-zero table offers no choice only if it covers every nominal
        short = chain_stage({1: (0,)}, intensity=0.0, dt=1.0, rate=0.0, coupon=0.0, recovery=0.0)
        last = chain_stage({2: (2,)}, intensity=0.0, dt=1.0, rate=0.0, coupon=0.0, recovery=0.0)
        with pytest.raises(IndexError):
            backward_induction([short, last], 2)
        with pytest.raises(IndexError):
            evaluate_policy([short, last], 2, lambda n, s: 0 if n == 0 else s)

    def test_action_above_its_row_rejected(self):
        first = chain_stage({2: (1,)}, intensity=0.0, dt=1.0, rate=0.0, coupon=0.0, recovery=0.0)
        last = chain_stage({1: (1,)}, intensity=0.0, dt=1.0, rate=0.0, coupon=0.0, recovery=0.0)
        greedy = chain_stage({1: (2,)}, intensity=0.0, dt=1.0, rate=0.0, coupon=0.0, recovery=0.0)
        message = "stage 1, nominal index 1: action 2 exceeds the nominal"
        with pytest.raises(ValueError, match=message):
            backward_induction([first, greedy], 2)
        solution = backward_induction([first, last], 2)
        with pytest.raises(ValueError, match=message):
            bellman_residual([first, greedy], 2, solution)

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

    @pytest.mark.parametrize("nan_row, action", [(0, 1), (1, 0)], ids=["first", "second"])
    def test_nan_continuation_wins_from_either_candidate(self, nan_row, action, monkeypatch):
        # the final stage costs NaN at one nominal row, so exactly one of the
        # deciding stage's candidates (1, 0) continues into a NaN: the first
        # when the row is 0, the second when it is 1
        params = dict(intensity=0.02, dt=0.5, rate=0.01, coupon=0.03, recovery=0.4)
        carried, decide = chain_stage({1: (0,)}, **params), chain_stage({1: (0, 1)}, **params)
        last = chain_stage({1: (1,), 0: (0,)}, **params)

        def cost(stage, s_index, action_index, nominal_steps):
            value = stage_cost(stage, s_index, action_index, nominal_steps)
            return np.where(np.asarray(s_index) == nan_row, np.nan, value) if stage is last else value

        monkeypatch.setattr(mdp, "stage_cost", cost)
        solution = backward_induction([carried, decide, last], 1)
        assert np.isnan(solution.values[1][1][0]) and np.isnan(solution.root_value)
        assert solution.policy[1][1][0] == action


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

    def test_corrupted_value_after_a_carried_stretch_is_caught(self, fitted_params, flat_curve):
        spec, stages = sinking_instance(fitted_params, flat_curve)
        solution = backward_induction(stages, spec.nominal_steps)
        stored = [table is not None for table in solution.values]
        n = next(n for n in range(1, len(stages)) if stored[n] and not stored[n - 1])
        s_index = min(solution.values[n])
        row = solution.values[n][s_index]  # a view into the stored (R, m) array
        row[row.size // 2] += 1e-9
        assert bellman_residual(stages, spec.nominal_steps, solution)["fixed_point"] > 1e-12

    @pytest.mark.parametrize("where", ["one value", "whole table"])
    def test_nan_in_a_stored_table_comes_out_as_nan(self, where, fitted_params, flat_curve):
        # builtin max(0.0, nan) is 0.0: a per-stage NaN deviation must not be folded away
        spec = README_BOND
        stages = build_stage_problems(augment_default(build_trinomial(fitted_params, bond_grid(spec, 12))),
                                      flat_curve, spec)
        solution = backward_induction(stages, spec.nominal_steps)
        assert solution.values[36] is not None and bool(stages[36].table.any())
        table = solution.values[36]
        array = table.array.copy()
        if where == "one value":
            array[len(table) // 2, array.shape[1] // 2] = np.nan
        else:
            array[:] = np.nan
        values = list(solution.values)
        values[36] = StageTable(table.rows, array)
        residuals = bellman_residual(stages, spec.nominal_steps, MDPSolution(tuple(values), solution.policy))
        assert math.isnan(residuals["fixed_point"]) and math.isnan(residuals["minimality"])


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
        # replaying the engine's own policy is the same sweep with one candidate
        # per stage: the root and every stored table on the rows the replay
        # visits are bit-equal to the engine's
        cases = [sinking_instance(fitted_params, flat_curve)]
        for steps_per_year in (4, 12):
            tree = augment_default(build_trinomial(fitted_params, bond_grid(README_BOND, steps_per_year)))
            cases.append((README_BOND, build_stage_problems(tree, flat_curve, README_BOND)))
        for spec, stages in cases:
            solution = backward_induction(stages, spec.nominal_steps)
            evaluated = evaluate_policy(stages, spec.nominal_steps, solution)
            assert evaluated.root_value == solution.root_value
            for replayed, engine in zip(evaluated.values, solution.values, strict=True):
                assert (replayed is None) == (engine is None)
                for s_index in replayed or ():
                    assert np.array_equal(replayed[s_index], engine[s_index])

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

    @pytest.mark.parametrize("steps_per_year", [12, 52])
    def test_a_solution_read_whole_equals_reading_it_row_by_row(self, fitted_params, flat_curve, steps_per_year):
        # the README bond's carried stages hold (R, 1) policy columns that broadcast over the nodes
        tree = augment_default(build_trinomial(fitted_params, bond_grid(README_BOND, steps_per_year)))
        stages = build_stage_problems(tree, flat_curve, README_BOND)
        k = README_BOND.nominal_steps
        solution = backward_induction(stages, k)
        assert any(table.array.shape[1] == 1 for table in solution.policy)
        whole = evaluate_policy(stages, k, solution)
        by_row = evaluate_policy(stages, k, lambda n, s_index: solution.policy[n][s_index])
        for got, want in zip(whole.values + whole.policy, by_row.values + by_row.policy, strict=True):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got.rows, want.rows)
                assert got.array.dtype == want.array.dtype and np.array_equal(got.array, want.array)

    def test_a_solution_lacking_a_visited_row_raises_key_error(self, fitted_params, flat_curve):
        spec, stages = sinking_instance(fitted_params, flat_curve)
        solution = backward_induction(stages, spec.nominal_steps)
        n = next(n for n, table in enumerate(solution.policy) if table.rows.size > 2)
        table = solution.policy[n]
        missing = int(table.rows[1])
        kept = np.flatnonzero(table.rows != missing)
        policy = list(solution.policy)
        policy[n] = StageTable(table.rows[kept], table.array[kept])
        lacking = MDPSolution(solution.values, tuple(policy))
        for read in (lacking, lambda m, s_index: lacking.policy[m][s_index]):
            with pytest.raises(KeyError) as raised:
                evaluate_policy(stages, spec.nominal_steps, read)
            assert raised.value.args == (missing,)

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
    "spec, steps_per_year, fan",
    [(TIED_BOND, 4, None), (README_BOND, 12, None), (README_BOND, 52, None), (README_BOND, 12, 64)],
    ids=["skip-call-K20", "readme-12", "readme-52", "readme-12-fan64"],
)
def test_engine_equals_per_nominal_reference(spec, steps_per_year, fan, fitted_params, flat_curve, monkeypatch):
    # readme-52 has coupon-paying carried stages; the fan's stages are those spread_prices
    # builds, an identity step and one discount factor per node (spread)
    grid = bond_grid(spec, steps_per_year)
    if fan is None:
        stages = build_stage_problems(augment_default(build_trinomial(fitted_params, grid)), flat_curve, spec)
    else:
        stages = []
        monkeypatch.setattr(pricer, "backward_induction", lambda st, k: stages.extend(st) or backward_induction(st, k))
        pricer.spread_prices(spec, flat_curve, grid, np.linspace(-0.01, 0.05, fan))
        assert stages[0].transition.survival.shape == np.shape(stages[0].discount) == (fan,)
    values, policy, ties = per_nominal_backward_induction(stages, spec.nominal_steps, spec.nominal_steps)
    solution = backward_induction(stages, spec.nominal_steps)
    if spec.full_call:
        assert spec.nominal_steps == 20 and ties > 0
    # tables are stored at decision stages, the root and the horizon; a
    # carried stage is recomputed from the next stored one
    recomputed = {n: (rows, array) for n, rows, array in value_tables(stages, spec.nominal_steps, solution)}
    for n in range(len(stages) + 1):
        stored = n in (0, len(stages)) or bool(stages[n].table.any())
        assert (solution.values[n] is not None) == stored
        if stored:
            assert sorted(solution.values[n]) == sorted(values[n])
            for s_index, row in values[n].items():
                assert np.array_equal(solution.values[n][s_index], row)
        rows, array = recomputed[n]
        assert rows.tolist() == sorted(values[n])
        for s_index, row in zip(rows.tolist(), array):
            assert np.array_equal(row, values[n][s_index])
    # a carried stage's policy rows are (1,) columns that broadcast over the nodes
    for n in range(len(stages)):
        assert sorted(solution.policy[n]) == sorted(policy[n])
        for s_index, row in policy[n].items():
            assert np.array_equal(np.broadcast_to(solution.policy[n][s_index], row.shape), row)
    for rule in ("max", "min"):
        fn = fixed_schedule_policy(stages, spec, grid, rule)
        reference = per_nominal_policy_value(stages, spec.nominal_steps, fn, spec.nominal_steps)
        assert evaluate_policy(stages, spec.nominal_steps, fn).root_value == reference


class TestStageTables:
    def test_a_row_off_the_table_raises_key_error(self, fitted_params, flat_curve):
        spec, stages = sinking_instance(fitted_params, flat_curve)
        solution = backward_induction(stages, spec.nominal_steps)
        k = spec.nominal_steps
        tables = list(solution.policy) + [table for table in solution.values if table is not None]
        for table in tables:
            for bad in (k + 1, -1):
                assert bad not in table
                with pytest.raises(KeyError):
                    table[bad]
        # stage 0 holds only the full notional
        assert list(solution.values[0]) == [k]
        with pytest.raises(KeyError):
            solution.values[0][k - 1]

    def test_value_tables_yield_the_stored_arrays(self, fitted_params, flat_curve):
        spec, stages = sinking_instance(fitted_params, flat_curve)
        solution = backward_induction(stages, spec.nominal_steps)
        stored = 0
        for n, rows, array in value_tables(stages, spec.nominal_steps, solution):
            table = solution.values[n]
            if table is not None:
                assert rows is table.rows and array is table.array
                stored += 1
        assert 2 < stored < len(stages)

    def test_carried_policies_are_zero_columns(self, fitted_params, flat_curve):
        spec = README_BOND
        tree = augment_default(build_trinomial(fitted_params, bond_grid(spec, 12)))
        stages = build_stage_problems(tree, flat_curve, spec)
        solution = backward_induction(stages, spec.nominal_steps)
        carried = [n for n, stage in enumerate(stages) if not stage.table.any()]
        assert len(carried) == len(stages) - 10
        for n in carried:
            policy = solution.policy[n]
            assert policy.array.shape == (len(policy), 1)
            assert not policy.array.any()
        residuals = bellman_residual(stages, spec.nominal_steps, solution)
        assert residuals["fixed_point"] <= 1e-12
        assert residuals["minimality"] <= 1e-12
