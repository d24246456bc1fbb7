"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
stated inline; timings are wall-clock on the executing machine.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import zcb_closed_form
from policies import random_admissible_policy

from sinkbond.calibration import CalibrationConfig, CDSQuote, calibrate, model_spreads
from sinkbond.instruments import SinkingBondSpec, bond_grid
from sinkbond.jdcev import JDCEVParams
from sinkbond.market_data import DiscountCurve, build_time_grid
from sinkbond.mc import mc_price_fixed_policy, simulate_paths
from sinkbond.mdp import backward_induction, bellman_residual, evaluate_policy
from sinkbond.pricer import (
    build_stage_problems,
    deterministic_spread_price,
    price_fixed_schedule,
    price_sinking_bond,
    price_zcb,
    worst_ansatz,
    z_spread,
)
from sinkbond.tree import augment_default, build_trinomial, deterministic_tree, validate_tree

FITTED = JDCEVParams(lambda0=0.004, sigma=2.8199, beta=-0.6, z0=30.0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {description}: FAIL")
        raise
    print(f"[criterion {number}] {description}: PASS")


def test_criterion_1_zcb_analytic_oracle():
    """Degenerate constant-intensity lattice matches the closed-form sum to 1e-12."""
    with criterion(1, "ZCB analytic oracle on degenerate trees"):
        start = time.perf_counter()
        grid = build_time_grid(5.0, 4)
        worst_gap = 0.0
        for lam in (0.005, 0.01, 0.05):
            tree = augment_default(deterministic_tree(grid, lam))
            for rate in (0.0, 0.02):
                curve = DiscountCurve.flat(rate)
                rates = [rate] * grid.n_steps
                lams = [lam] * grid.n_steps
                for recovery in (0.0, 0.4):
                    expected = zcb_closed_form(grid.times, rates, lams, recovery)
                    got = price_zcb(tree, curve, recovery)
                    worst_gap = max(worst_gap, abs(got - expected))
        elapsed = time.perf_counter() - start
        print(f"  max |price - closed form| = {worst_gap:.3e}, {elapsed:.2f}s")
        assert worst_gap <= 1e-12
        assert elapsed < 1.0


def test_criterion_2_mdp_zcb_reduction_at_reference_grid_size():
    """Trivial-action decision problem equals the ZCB recursion at N = 403 in < 5 s."""
    with criterion(2, "decision-engine reduction to the ZCB recursion, N = 403"):
        start = time.perf_counter()
        spec = SinkingBondSpec(maturity=31.0, recovery=0.4)
        grid = build_time_grid(31.0, 13, [float(y) for y in range(1, 31)])
        assert grid.n_steps == 403
        curve = DiscountCurve.flat(0.02)
        tree = augment_default(build_trinomial(FITTED, grid))
        stages = build_stage_problems(tree, curve, spec)
        engine_value = backward_induction(stages, spec.nominal_steps).root_value
        recursion_value = price_zcb(tree, curve, 0.4)
        elapsed = time.perf_counter() - start
        gap = abs(engine_value - recursion_value)
        print(f"  N = {grid.n_steps}, |engine - recursion| = {gap:.3e}, {elapsed:.2f}s")
        assert gap <= 1e-12
        assert elapsed < 5.0


def _dominance_instances():
    premium = SinkingBondSpec(
        maturity=5.0,
        coupon_rate=0.08,
        coupon_frequency=1,
        redemption_dates=(1.0, 2.0, 3.0, 4.0),
        admissible_fractions=(0.05, 0.10),
        alpha=75.0,
        recovery=0.4,
    )
    discount = SinkingBondSpec(
        maturity=6.0,
        coupon_rate=0.02,
        coupon_frequency=1,
        redemption_dates=(1.0, 2.0, 3.0, 4.0, 5.0),
        admissible_fractions=(0.10, 0.20),
        alpha=100.0,
        recovery=0.4,
    )
    semiannual = SinkingBondSpec(
        maturity=4.0,
        coupon_rate=0.05,
        coupon_frequency=2,
        redemption_dates=(1.0, 2.0, 3.0),
        admissible_fractions=(0.25,),
        alpha=100.0,
        recovery=0.4,
        allow_skip=True,
    )
    return {"premium": premium, "discount": discount, "semiannual": semiannual}


def test_criterion_3_policy_dominance():
    """100 random admissible policies per instance never beat the optimum."""
    with criterion(3, "policy dominance on three synthetic sinking bonds"):
        curve = DiscountCurve.flat(0.02)
        rng = np.random.default_rng(2027)
        for name, spec in _dominance_instances().items():
            grid = bond_grid(spec, 4)
            tree = augment_default(build_trinomial(FITTED, grid))
            stages = build_stage_problems(tree, curve, spec)
            optimal = backward_induction(stages, spec.nominal_steps).root_value
            worst_slack = math.inf
            for _ in range(100):
                policy = random_admissible_policy(stages, spec.nominal_steps, rng)
                value = evaluate_policy(stages, spec.nominal_steps, policy).root_value
                worst_slack = min(worst_slack, value - optimal)
            forced_max = price_fixed_schedule(tree, curve, spec, "max")
            forced_min = price_fixed_schedule(tree, curve, spec, "min")
            print(
                f"  {name}: optimal {optimal:.6f}, min policy slack {worst_slack:.2e}, "
                f"forced-max {forced_max:.6f}, forced-min {forced_min:.6f}"
            )
            assert worst_slack >= -1e-12
            assert optimal <= min(forced_max, forced_min) + 1e-12
            if name == "premium":
                # above-par bond reproduces the qualitative ordering
                # optimal <= always-max <= always-min
                assert optimal > 1.0
                assert optimal <= forced_max + 1e-12 <= forced_min + 2e-12


def test_criterion_4_bellman_self_consistency():
    """Recomputing the operator at stored minimizers reproduces every value."""
    with criterion(4, "Bellman fixed-point re-check at every stored state"):
        curve = DiscountCurve.flat(0.02)
        worst_fixed = 0.0
        worst_min = 0.0
        for spec in _dominance_instances().values():
            grid = bond_grid(spec, 4)
            tree = augment_default(build_trinomial(FITTED, grid))
            stages = build_stage_problems(tree, curve, spec)
            solution = backward_induction(stages, spec.nominal_steps)
            residuals = bellman_residual(stages, spec.nominal_steps, solution)
            worst_fixed = max(worst_fixed, residuals["fixed_point"])
            worst_min = max(worst_min, residuals["minimality"])
        print(f"  max fixed-point residual {worst_fixed:.3e}, max minimality gap {worst_min:.3e}")
        assert worst_fixed <= 1e-12
        assert worst_min <= 1e-12


def test_criterion_5_monte_carlo_cross_validation():
    """Lattice and Monte Carlo agree within 3 standard errors at 1e5 paths."""
    with criterion(5, "Monte Carlo cross-validation of a forced schedule"):
        start = time.perf_counter()
        curve = DiscountCurve.flat(0.02)
        spec = SinkingBondSpec(
            maturity=5.0,
            coupon_rate=0.06,
            coupon_frequency=1,
            redemption_dates=(1.0, 2.0, 3.0, 4.0),
            admissible_fractions=(0.05, 0.10),
            alpha=75.0,
            recovery=0.4,
        )
        # 24 steps/year: one refinement beyond the coarse default, which
        # empirically pushes the lattice-vs-diffusion gap below one standard
        # error so sampling noise dominates the comparison
        grid = bond_grid(spec, 24)
        tree = augment_default(build_trinomial(FITTED, grid))
        tree_price = price_fixed_schedule(tree, curve, spec, "max")
        paths = simulate_paths(FITTED, grid, 100_000, seed=20270615)
        estimate = mc_price_fixed_policy(paths, spec, "max", curve)
        elapsed = time.perf_counter() - start
        gap = tree_price - estimate.estimate
        print(
            f"  tree {tree_price:.6f}, mc {estimate.estimate:.6f} "
            f"(se {estimate.std_error:.2e}), gap {gap / estimate.std_error:+.2f} se, {elapsed:.1f}s"
        )
        assert abs(gap) <= 3.0 * estimate.std_error
        assert elapsed < 60.0


def test_criterion_6_z_spread_round_trip():
    """Solver recovers the generating spread to 1e-8; analytic 1y case exact."""
    with criterion(6, "z-spread round trips"):
        curve = DiscountCurve.flat(0.02)
        rng = np.random.default_rng(40)
        worst = 0.0
        for _ in range(5):
            spec = SinkingBondSpec(
                maturity=float(rng.integers(1, 8)),
                coupon_rate=float(rng.uniform(0.0, 0.09)),
                coupon_frequency=int(rng.choice([1, 2])),
            )
            grid = bond_grid(spec, 4)
            target = float(rng.uniform(0.0, 0.2))
            market = deterministic_spread_price(spec, curve, grid, target)
            recovered = z_spread(spec, curve, grid, market)
            worst = max(worst, abs(recovered - target))
        zcb_spec = SinkingBondSpec(maturity=1.0, recovery=0.0)
        zcb_grid = bond_grid(zcb_spec, 4)
        analytic = z_spread(zcb_spec, DiscountCurve.flat(0.0), zcb_grid, 0.95)
        analytic_gap = abs(analytic - (-math.log(0.95)))
        print(f"  max round-trip error {worst:.2e}, analytic case error {analytic_gap:.2e}")
        assert worst <= 1e-8
        assert analytic_gap <= 1e-8


def test_criterion_7_worst_ansatz_equivalence():
    """Call-date-minimum quote equals the deterministic decision program to 1e-10."""
    with criterion(7, "worst-case callable quote vs deterministic program"):
        curve = DiscountCurve.flat(0.02)
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(5):
            maturity = float(rng.integers(3, 10))
            call_dates = tuple(
                float(y) for y in range(1, int(maturity)) if rng.uniform() < 0.8
            ) or (1.0,)
            spec = SinkingBondSpec(
                maturity=maturity,
                coupon_rate=float(rng.uniform(0.0, 0.1)),
                coupon_frequency=1,
                redemption_dates=call_dates,
                full_call=True,
                allow_skip=True,
                recovery=0.0,
            )
            grid = bond_grid(spec, 4)
            spread = float(rng.uniform(0.0, 0.1))
            shortcut = worst_ansatz(spec, curve, grid, spread)
            program = deterministic_spread_price(spec, curve, grid, spread)
            worst = max(worst, abs(shortcut - program))
        print(f"  max |shortcut - program| = {worst:.3e}")
        assert worst <= 1e-10


def test_criterion_8_tree_validity():
    """Probabilities normalized to 1e-12; moments matched, constant reported."""
    with criterion(8, "lattice probability and moment validity"):
        grid = build_time_grid(31.0, 13, [float(y) for y in range(1, 31)])
        tree = augment_default(build_trinomial(FITTED, grid))
        diagnostics = validate_tree(tree)
        print(
            f"  prob-sum error {diagnostics.max_prob_sum_error:.3e}, "
            f"mean error {diagnostics.max_mean_error:.3e}, "
            f"variance error {diagnostics.max_variance_error:.3e}, "
            f"second-moment constant c = {diagnostics.second_moment_constant:.3e}"
        )
        assert diagnostics.ok
        assert diagnostics.max_prob_sum_error <= 1e-12
        assert diagnostics.max_mean_error <= 1e-12
        for report in diagnostics.layer_reports:
            assert report.min_branch_prob >= 0.0
            assert report.max_branch_prob <= 1.0
        dt_sq = float(np.max(np.asarray(grid.steps) ** 2))
        assert diagnostics.max_variance_error <= diagnostics.second_moment_constant * dt_sq + 1e-300
        assert diagnostics.second_moment_constant < 1e-8


def test_criterion_9_calibration_round_trip():
    """Synthetic quotes at the fitted parameters are recovered within tolerance."""
    with criterion(9, "calibration round trip at the fitted parameters"):
        start = time.perf_counter()
        curve = DiscountCurve.flat(0.02)
        config = CalibrationConfig(steps_per_year=4, premium_frequency=4)
        tenors = (1.0, 3.0, 5.0, 7.0, 10.0)
        spreads = model_spreads(FITTED, tenors, curve, 0.4, config)
        quotes = [CDSQuote(tenor=t, spread=float(s)) for t, s in zip(tenors, spreads)]
        result = calibrate(quotes, FITTED.z0, curve, 0.4, config)
        elapsed = time.perf_counter() - start
        fitted = result.params
        print(
            f"  lambda0 {fitted.lambda0:.6f} (true {FITTED.lambda0}), "
            f"sigma {fitted.sigma:.4f} (true {FITTED.sigma}), "
            f"beta {fitted.beta:.4f} (true {FITTED.beta}), {elapsed:.1f}s"
        )
        assert fitted.lambda0 == pytest.approx(FITTED.lambda0, rel=0.05)
        assert fitted.sigma == pytest.approx(FITTED.sigma, rel=0.05)
        assert fitted.beta == pytest.approx(FITTED.beta, abs=0.1)
        assert elapsed < 300.0
