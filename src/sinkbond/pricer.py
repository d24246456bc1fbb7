"""Bond valuations on the intensity lattice.

Zero-coupon and vanilla coupon bonds run as backward recursions, sinking
bonds through the decision engine.  A fixed redemption schedule sets the
nominal path in advance, so its cashflows are weighted by the survival curve
the lattice recorded while building, with no engine run.  Spreads are the
default-free cases: z enters as a parallel shift of the forward curve
(:meth:`DiscountCurve.shifted`); the z-spread prices the bond on a zero-intensity
chain against it, and the worst-case quote discounts its cashflows on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from . import mdp
from .instruments import SinkingBondSpec, action_table, coupons_on_grid, redemption_stages
from .market_data import DiscountCurve, TimeGrid, discount_factors, step_discounts
from .mdp import MDPSolution, StageProblem, backward_induction
from .mdp import evaluate_policy  # noqa: F401 -- unused; perfbench/tracer.py wraps this name
from .tree import IntensityTree, augment_default, deterministic_tree


_Z_SPREAD_TOL = 1e-10  # bracket width at which z_spread stops bisecting


class UnattainablePriceError(ValueError):
    """The target price lies outside the range the spread bracket can reach."""


ScheduleLike = Union[str, Mapping[float, float], mdp.PolicyLike]


def _require_augmented(tree: IntensityTree) -> None:
    if not tree.augmented:
        raise ValueError("pricing requires a default-augmented tree")


def _check_same_horizon(tree: IntensityTree, spec: SinkingBondSpec) -> None:
    if abs(tree.grid.maturity - spec.maturity) > 1e-9:
        raise ValueError(
            f"tree horizon {tree.grid.maturity!r} does not match the bond maturity {spec.maturity!r}"
        )


def price_zcb(tree: IntensityTree, curve: DiscountCurve, recovery: float) -> float:
    """Zero-coupon bond per unit notional, by backward recursion.

    Each step discounts the survival-weighted continuation plus the recovery
    paid on the one-step default probability.
    """
    _require_augmented(tree)
    if not 0.0 <= recovery <= 1.0:
        raise ValueError("recovery must lie in [0, 1]")
    disc = step_discounts(curve, tree.grid)
    values = np.ones(tree.layers[-1].size)
    for n in range(tree.n_steps - 1, -1, -1):
        tr = tree.transitions[n]
        values = disc[n] * (tr.default_prob * recovery + tr.expect(values))
    return float(values[0])


def price_vanilla_bond(
    tree: IntensityTree,
    curve: DiscountCurve,
    coupons: Sequence[float],
    recovery: float,
) -> float:
    """Coupon bond without redemption options, one backward pass.

    ``coupons[n]`` is paid at t_n on survival (index 0 is ignored); the
    principal is repaid at maturity.
    """
    _require_augmented(tree)
    coupons = np.asarray(coupons, dtype=float)
    if coupons.shape != (tree.n_steps + 1,):
        raise ValueError("need one coupon entry per grid date")
    disc = step_discounts(curve, tree.grid)
    values = np.zeros(tree.layers[-1].size)
    for n in range(tree.n_steps - 1, -1, -1):
        tr = tree.transitions[n]
        cash = coupons[n + 1] + (1.0 if n + 1 == tree.n_steps else 0.0)
        values = disc[n] * (cash * tr.survival + tr.default_prob * recovery + tr.expect(values))
    return float(values[0])


def build_stage_problems(
    tree: IntensityTree, curve: DiscountCurve, spec: SinkingBondSpec
) -> list[StageProblem]:
    """Assemble one decision stage per grid step from tree, curve and contract."""
    _require_augmented(tree)
    _check_same_horizon(tree, spec)
    grid = tree.grid
    coupons = coupons_on_grid(spec, grid)
    actions = action_table(spec, grid)
    disc = step_discounts(curve, grid)
    return [
        StageProblem(
            actions=functools.partial(actions, n),
            transition=tree.transitions[n],
            coupon=float(coupons[n + 1]),
            recovery=spec.recovery,
            discount=float(disc[n]),
        )
        for n in range(grid.n_steps)
    ]


@dataclass(frozen=True)
class SinkingBondPrice:
    price: float
    solution: MDPSolution


def price_sinking_bond(
    tree: IntensityTree, curve: DiscountCurve, spec: SinkingBondSpec
) -> SinkingBondPrice:
    """Fair value under the issuer's optimal redemption behaviour."""
    stages = build_stage_problems(tree, curve, spec)
    solution = backward_induction(stages, spec.nominal_steps)
    return SinkingBondPrice(price=solution.root_value, solution=solution)


def schedule_policy(spec: SinkingBondSpec, grid: TimeGrid, schedule: ScheduleLike):
    """Normalize a redemption schedule into a policy function.

    Accepts the extreme rules "max"/"min", a mapping from redemption date to
    the installment fraction chosen there (every redemption date must be
    listed), an engine solution, or any policy callable/table.
    """
    if isinstance(schedule, str):
        rule = schedule.lower()
        if rule not in ("max", "min"):
            raise ValueError(f"unknown schedule rule {schedule!r}")
        pick = max if rule == "max" else min
        actions = action_table(spec, grid)

        def extreme(n: int, s_index: int) -> int:
            return pick(actions(n, s_index))

        return extreme

    if isinstance(schedule, Mapping):
        stage_actions: dict[int, int] = {}
        for date, fraction in schedule.items():
            stage_actions[grid.index_of(float(date))] = spec.fraction_to_index(float(fraction))
        missing = redemption_stages(spec, grid) - set(stage_actions)
        if missing:
            raise ValueError(
                f"schedule does not cover the redemption dates at stages {sorted(missing)}"
            )

        def scheduled(n: int, s_index: int) -> int:
            if n == grid.n_steps - 1:
                return s_index
            return stage_actions.get(n, 0)

        return scheduled

    return mdp.as_policy_fn(schedule)


def schedule_cashflows(
    spec: SinkingBondSpec, grid: TimeGrid, schedule: ScheduleLike
) -> tuple[np.ndarray, np.ndarray]:
    """Survival cashflows and nominal path of a node-independent schedule.

    ``cash[n]`` is paid at t_n per unit notional; ``nominal[n]`` is the
    nominal index held over step n.  A stage whose action varies by node or
    is not admissible raises ValueError.
    """
    policy = schedule_policy(spec, grid, schedule)
    actions = action_table(spec, grid)
    coupons = coupons_on_grid(spec, grid)
    cash = np.zeros(grid.n_steps + 1)
    nominal = np.full(grid.n_steps + 1, float(spec.nominal_steps))
    for n in range(grid.n_steps):
        s_index = int(nominal[n])
        chosen = np.unique(policy(n, s_index))
        if chosen.size != 1:
            raise ValueError(f"stage {n}: a fixed schedule must take one action at every node")
        action = int(chosen[0])
        if action not in actions(n, s_index):
            raise ValueError(f"stage {n}, nominal index {s_index}: action {action} not admissible")
        cash[n + 1] = (action + coupons[n + 1] * s_index) / spec.nominal_steps
        nominal[n + 1] = s_index - action
    return cash, nominal


def price_fixed_schedule(
    tree: IntensityTree, curve: DiscountCurve, spec: SinkingBondSpec, schedule: ScheduleLike
) -> float:
    """Value of a node-independent redemption schedule from the survival curve.

    Policies that vary by node belong to :func:`sinkbond.mdp.evaluate_policy`.
    """
    _require_augmented(tree)
    _check_same_horizon(tree, spec)
    cash, nominal = schedule_cashflows(spec, tree.grid, schedule)
    df = discount_factors(curve, tree.grid)
    recovered = spec.recovery * nominal[:-1] / spec.nominal_steps
    return float(df[1:] @ (cash[1:] * tree.survival[1:] + recovered * tree.default_mass))


def deterministic_spread_price(
    spec: SinkingBondSpec, curve: DiscountCurve, grid: TimeGrid, spread: float
) -> float:
    """Optimal-schedule price of the default-free bond discounted at r + ``spread``.

    The bond is priced on a zero-intensity chain against the shifted curve;
    with no default, its recovery term is exactly zero.
    """
    chain = augment_default(deterministic_tree(grid, 0.0))
    return price_sinking_bond(chain, curve.shifted(spread), spec).price


def z_spread(
    spec: SinkingBondSpec,
    curve: DiscountCurve,
    grid: TimeGrid,
    market_price: float,
    *,
    bracket: tuple[float, float] = (-0.05, 5.0),
) -> float:
    """Constant spread over the curve that reproduces a market price.

    Each trial is :func:`deterministic_spread_price` on one chain built per
    call, so bonds with optional sinking features are re-optimized at each
    trial spread.  The price is strictly decreasing in the spread; plain
    bisection on the bracket is therefore safe.
    """
    lo, hi = bracket
    if not lo < hi:
        raise ValueError("bracket must be increasing")
    chain = augment_default(deterministic_tree(grid, 0.0))

    def price(spread: float) -> float:
        return price_sinking_bond(chain, curve.shifted(spread), spec).price

    price_lo, price_hi = price(lo), price(hi)
    if not (price_hi <= market_price <= price_lo):
        raise UnattainablePriceError(
            f"market price {market_price!r} outside the attainable range "
            f"[{price_hi!r}, {price_lo!r}] for spreads in [{lo!r}, {hi!r}]"
        )
    while hi - lo > _Z_SPREAD_TOL:
        mid = 0.5 * (lo + hi)
        if price(mid) >= market_price:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def worst_ansatz(
    spec: SinkingBondSpec, curve: DiscountCurve, grid: TimeGrid, spread: float
) -> float:
    """Callable-bond shortcut: minimum over call dates of the deterministic PV.

    For each admissible call stage (and maturity) the bond's cashflows up to
    the redemption are discounted on the curve shifted by ``spread``; the
    quote is the smallest of these values.  Payment timing matches the
    decision engine: the amount chosen at t_n lands at t_{n+1}.
    """
    if not spec.full_call:
        raise ValueError("the worst-case quote needs a callable-style bond (full_call)")
    dfz = discount_factors(curve.shifted(spread), grid)
    coupon_pv = np.cumsum(coupons_on_grid(spec, grid) * dfz)

    call_stages = sorted(set(redemption_stages(spec, grid)) | {grid.n_steps - 1})
    candidates = [coupon_pv[n + 1] + dfz[n + 1] for n in call_stages]
    return float(min(candidates))


def price_report(
    tree: IntensityTree, curve: DiscountCurve, spec: SinkingBondSpec
) -> dict:
    """Headline price plus forced-schedule comparison and policy summary.

    option_value is what the freedom to deviate from the always-redeem-max
    schedule is worth to the issuer.
    """
    solution = backward_induction(build_stage_problems(tree, curve, spec), spec.nominal_steps)
    price = solution.root_value
    forced_max = price_fixed_schedule(tree, curve, spec, "max")
    forced_min = price_fixed_schedule(tree, curve, spec, "min")

    # leaves are worth zero under every action, so the tie-break's largest
    # redemption there says nothing about the policy
    summary = []
    for n in sorted(redemption_stages(spec, tree.grid)):
        live = tree.transitions[n].live
        for s_index in sorted(solution.policy[n]):
            chosen = solution.policy[n][s_index][live]
            summary.append(
                {
                    "time": tree.grid.times[n],
                    "nominal": s_index / spec.nominal_steps,
                    "action_min": int(chosen.min()) / spec.nominal_steps,
                    "action_max": int(chosen.max()) / spec.nominal_steps,
                }
            )
    return {
        "price": price,
        "forced_max": forced_max,
        "forced_min": forced_min,
        "option_value": forced_max - price,
        "policy_summary": summary,
    }
