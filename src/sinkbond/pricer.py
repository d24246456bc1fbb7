"""Bond valuations on the intensity lattice.

Zero-coupon bonds run as a backward recursion, sinking bonds through the
decision engine; a plain coupon bond is a spec without redemption dates.
A fixed redemption schedule -- "max", "min" or a date-to-fraction map,
nothing else -- sets the nominal path in advance, so its cashflows are
valued by :func:`sinkbond.market_data.stream_values` on the survival curve
the lattice recorded while building, with no engine run.  Spreads are the
default-free cases: the bond discounts at r + z, a spread argument of the
discount kernel.  With no default the engine's node axis is free, so
:func:`spread_prices` runs it over a fan of trial spreads, one column of
step discounts per node, and the z-spread narrows its bracket one fan per
solve; the worst-case quote discounts its cashflows at r + z in the same
kernel.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

import numpy as np

from .instruments import SinkingBondSpec, action_table, coupons_on_grid, redemption_stages
from .market_data import DiscountCurve, TimeGrid, discount_factors, step_discounts, stream_values
from .mdp import MDPSolution, StageProblem, backward_induction
from .mdp import evaluate_policy  # noqa: F401 -- unused; perfbench/tracer.py wraps this name
from .tree import IntensityTree, LayerTransition, _band_transition
from .tree import augment_default, deterministic_tree  # noqa: F401 -- unused; perfbench/tracer.py wraps these names


_Z_SPREAD_TOL = 1e-10  # bracket width at which z_spread stops searching
_FAN_WIDTH = 64  # trial spreads z_spread prices per engine solve
#: Spread range :func:`z_spread` searches unless told otherwise.
DEFAULT_Z_SPREAD_BRACKET = (-0.05, 5.0)


class UnattainablePriceError(ValueError):
    """The target price lies outside the range the spread bracket can reach."""


ScheduleLike = Union[str, Mapping[float, float]]


def _require_augmented(tree: IntensityTree) -> None:
    if not tree.augmented:
        raise ValueError("pricing requires a default-augmented tree")


def _check_same_horizon(grid: TimeGrid, spec: SinkingBondSpec) -> None:
    if abs(grid.maturity - spec.maturity) > 1e-9:
        raise ValueError(
            f"grid horizon {grid.maturity!r} does not match the bond maturity {spec.maturity!r}"
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


def build_stage_problems(
    tree: IntensityTree, curve: DiscountCurve, spec: SinkingBondSpec
) -> list[StageProblem]:
    """Assemble one decision stage per grid step from tree, curve and contract."""
    _require_augmented(tree)
    _check_same_horizon(tree.grid, spec)
    grid = tree.grid
    return _stages(
        spec, coupons_on_grid(spec, grid), action_table(spec, grid), tree.transitions,
        step_discounts(curve, grid).tolist(),
    )


def _stages(
    spec: SinkingBondSpec,
    coupons: np.ndarray,
    actions: Sequence[np.ndarray],
    transitions: Sequence[LayerTransition],
    discounts: Sequence[Union[float, np.ndarray]],
) -> list[StageProblem]:
    """One decision stage per step; ``discounts[n]`` is a float or one factor per node."""
    return [
        StageProblem(
            table=actions[n],
            transition=tr,
            coupon=float(coupons[n + 1]),
            recovery=spec.recovery,
            discount=discounts[n],
        )
        for n, tr in enumerate(transitions)
    ]


def price_sinking_bond(tree: IntensityTree, curve: DiscountCurve, spec: SinkingBondSpec) -> MDPSolution:
    """The engine's solution under the issuer's optimal redemption behaviour;
    its ``root_value`` is the fair value per unit notional."""
    return backward_induction(build_stage_problems(tree, curve, spec), spec.nominal_steps)


def schedule_cashflows(
    spec: SinkingBondSpec, grid: TimeGrid, schedule: ScheduleLike
) -> tuple[np.ndarray, np.ndarray]:
    """Survival cashflows and nominal path of a fixed redemption schedule.

    ``schedule`` is "max" or "min" (any case), a column of each redemption
    stage's table, or a map from every redemption date (and any other) to a
    fraction.  The walk takes these stages in order, then the last, which
    redeems what is left; any other schedule, or an action off its table
    row for the nominal held, raises ValueError.  ``cash[n]`` is paid at
    t_n per unit notional; ``nominal[n]`` is the nominal index over step n.
    """
    if not isinstance(schedule, (str, Mapping)):
        raise ValueError(f"a fixed schedule is 'max', 'min' or a date-to-fraction map, not {type(schedule).__name__}")
    actions = action_table(spec, grid)
    k, last = spec.nominal_steps, grid.n_steps - 1
    if isinstance(schedule, str):
        rule = schedule.lower()
        if rule not in ("max", "min"):
            raise ValueError(f"unknown schedule rule {schedule!r}")
        col = 0 if rule == "max" else -1
        choices = dict.fromkeys(redemption_stages(spec, grid))  # None: read the rule's column
    else:
        choices, dates = {}, {}
        for date, fraction in schedule.items():
            n = grid.index_of(float(date))
            if n in dates:
                raise ValueError(f"schedule dates {dates[n]!r} and {date!r} fall on one grid date")
            dates[n], choices[n] = date, spec.fraction_to_index(float(fraction))
        missing = redemption_stages(spec, grid) - set(choices)
        if missing:
            raise ValueError(
                f"schedule does not cover the redemption dates at stages {sorted(missing)}"
            )
    amounts = np.zeros(grid.n_steps, dtype=np.int64)  # other stages redeem 0, which their tables admit
    s_index = k
    for n in [*sorted(n for n in choices if n < last), last]:
        action = choices[n] if n < last else s_index  # the last stage redeems what is left
        if action is None:
            action = int(actions[n][s_index, col])
        if action not in actions[n][s_index]:
            raise ValueError(f"stage {n}, nominal index {s_index}: action {action} not admissible")
        amounts[n] = action
        s_index -= action
    held = k - np.concatenate(([0], np.cumsum(amounts)))  # nominal index over each step
    cash = np.concatenate(([0.0], (amounts + coupons_on_grid(spec, grid)[1:] * held[:-1]) / k))
    return cash, held.astype(float)


def price_fixed_schedule(
    tree: IntensityTree, curve: DiscountCurve, spec: SinkingBondSpec, schedule: ScheduleLike
) -> float:
    """Value of a fixed redemption schedule from the survival curve.

    ``schedule`` is "max", "min" or a date-to-fraction map (see
    :func:`schedule_cashflows`); policies that vary by node belong to
    :func:`sinkbond.mdp.evaluate_policy`.
    """
    _require_augmented(tree)
    _check_same_horizon(tree.grid, spec)
    cash, nominal = schedule_cashflows(spec, tree.grid, schedule)
    recovered = spec.recovery * nominal[:-1] / spec.nominal_steps
    return float(stream_values(discount_factors(curve, tree.grid), cash, recovered, tree.survival, tree.default_mass)[-1])


def _fan(width: int) -> LayerTransition:
    """Read-only default-free step carrying each of ``width`` nodes to itself."""
    identity = np.array([[0.0], [1.0], [0.0], [1.0], [0.0], [0.0], [1.0], [0.0]])  # branch, survival, default, scaled
    return _band_transition(np.arange(width), identity, slice(0, width), width, 0, width - 1)


def spread_prices(
    spec: SinkingBondSpec, curve: DiscountCurve, grid: TimeGrid, spreads: Sequence[float]
) -> np.ndarray:
    """Optimal-schedule prices of the default-free bond, one per spread, in one engine solve.

    The engine's node axis runs over the spreads: every stage shares one
    identity step (survival 1, no default, so the recovery term is exactly
    zero) and node j discounts at r + ``spreads[j]``, column j of one
    :func:`step_discounts` call.  Each node's arithmetic is that of a
    one-node solve, so a price does not depend on the other spreads in the fan.
    """
    _check_same_horizon(grid, spec)
    disc = step_discounts(curve, grid, spreads)
    stages = _stages(
        spec, coupons_on_grid(spec, grid), action_table(spec, grid), [_fan(disc.shape[1])] * grid.n_steps, disc
    )
    return backward_induction(stages, spec.nominal_steps).values[0][spec.nominal_steps]


def deterministic_spread_price(
    spec: SinkingBondSpec, curve: DiscountCurve, grid: TimeGrid, spread: float
) -> float:
    """Optimal-schedule price of the default-free bond discounted at r + ``spread``."""
    return float(spread_prices(spec, curve, grid, [spread])[0])


def z_spread(
    spec: SinkingBondSpec,
    curve: DiscountCurve,
    grid: TimeGrid,
    market_price: float,
    *,
    bracket: tuple[float, float] = DEFAULT_Z_SPREAD_BRACKET,
) -> float:
    """Constant spread over the curve that reproduces a market price.

    Each round prices a fan of ``_FAN_WIDTH`` evenly spaced spreads across
    the bracket in one :func:`spread_prices` solve, so bonds with optional
    sinking features are re-optimized at every trial spread, and narrows the
    bracket to the cell where the price crosses the market price.  The price
    is strictly decreasing in the spread, so that cell holds the root; the
    search stops when the bracket is narrower than ``_Z_SPREAD_TOL``.
    """
    lo, hi = bracket
    if not lo < hi:
        raise ValueError("bracket must be increasing")
    fan = np.linspace(lo, hi, _FAN_WIDTH)
    trial = spread_prices(spec, curve, grid, fan)
    price_lo, price_hi = float(trial[0]), float(trial[-1])
    if not (price_hi <= market_price <= price_lo):
        raise UnattainablePriceError(
            f"market price {market_price!r} outside the attainable range "
            f"[{price_hi!r}, {price_lo!r}] for spreads in [{lo!r}, {hi!r}]"
        )
    while True:
        # trial[0] >= market_price; the first trial below it closes the cell
        below = np.flatnonzero(trial < market_price)
        k = int(below[0]) if below.size else _FAN_WIDTH - 1
        lo, hi = float(fan[k - 1]), float(fan[k])
        if hi - lo <= _Z_SPREAD_TOL:
            return 0.5 * (lo + hi)
        fan = np.linspace(lo, hi, _FAN_WIDTH)
        trial = spread_prices(spec, curve, grid, fan)


def worst_ansatz(
    spec: SinkingBondSpec, curve: DiscountCurve, grid: TimeGrid, spread: float
) -> float:
    """Callable-bond shortcut: minimum over call dates of the deterministic PV.

    For each admissible call stage (and maturity) the bond's cashflows up to
    the redemption are discounted at r + ``spread``; the quote is the
    smallest of these values.  Payment timing matches the decision engine:
    the amount chosen at t_n lands at t_{n+1}.
    """
    if not spec.full_call:
        raise ValueError("the worst-case quote needs a callable-style bond (full_call)")
    _check_same_horizon(grid, spec)
    dfz = discount_factors(curve, grid, spread)
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
    solution = price_sinking_bond(tree, curve, spec)
    price = solution.root_value
    forced_max = price_fixed_schedule(tree, curve, spec, "max")
    forced_min = price_fixed_schedule(tree, curve, spec, "min")

    # leaves are worth zero under every action, so the tie-break's largest
    # redemption there says nothing about the policy
    summary = []
    for n in sorted(redemption_stages(spec, tree.grid)):
        table, live = solution.policy[n], tree.transitions[n].live
        chosen = np.broadcast_to(table.array, (table.rows.size, live.size))[:, live]
        for s_index, lo, hi in zip(table.rows.tolist(), chosen.min(axis=1).tolist(), chosen.max(axis=1).tolist()):
            summary.append(
                {
                    "time": tree.grid.times[n],
                    "nominal": s_index / spec.nominal_steps,
                    "action_min": lo / spec.nominal_steps,
                    "action_max": hi / spec.nominal_steps,
                }
            )
    return {
        "price": price,
        "forced_max": forced_max,
        "forced_min": forced_min,
        "option_value": forced_max - price,
        "policy_summary": summary,
    }
