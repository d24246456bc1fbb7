"""Independent reference computations used to pin expected test values.

Everything here is a plain-Python loop over the discrete cashflow timeline
or, for the decision engine, over one nominal and one action at a time,
kept deliberately separate from the library's vectorized recursions.
"""

import math
from typing import Callable, Sequence

import numpy as np


def zcb_closed_form(
    times: Sequence[float],
    rates: Sequence[float],
    intensities: Sequence[float],
    recovery: float,
) -> float:
    """Zero-coupon bond under a deterministic intensity path.

    ``rates[i]`` and ``intensities[i]`` apply on (times[i], times[i+1]];
    survival to t_i is the product of exp(-intensity * dt) factors, default
    in a step pays the recovery at the step's end.
    """
    n_steps = len(times) - 1
    total = 0.0
    disc = 1.0
    survival_prev = 1.0
    for i in range(n_steps):
        dt = times[i + 1] - times[i]
        disc *= math.exp(-rates[i] * dt)
        survival = survival_prev * math.exp(-intensities[i] * dt)
        total += recovery * disc * (survival_prev - survival)
        survival_prev = survival
    return total + disc * survival_prev


def deterministic_bond_pv(
    times: Sequence[float],
    rates: Sequence[float],
    spread: float,
    coupons: Sequence[float],
    redemption_stage: int,
) -> float:
    """PV of a default-free bond redeemed in full at one decision stage.

    The amount decided at stage n lands at t_{n+1}; discounting runs at
    rate + spread.  ``coupons[m]`` is paid at times[m].
    """
    total = 0.0
    disc = 1.0
    for m in range(1, redemption_stage + 2):
        dt = times[m] - times[m - 1]
        disc *= math.exp(-(rates[m - 1] + spread) * dt)
        total += coupons[m] * disc
    return total + disc


def mean_chain(params, grid):
    """Single-chain lattice along the conditional-mean path x <- x + nu(x) * dt.

    The zero-volatility limit of the trinomial lattice: x starts at the
    transformed z0, and the intensity at each date and the drift nu come from
    ``jdcev.x_state`` at the chain's x.
    """
    from sinkbond.jdcev import transform, x_state
    from sinkbond.tree import deterministic_tree

    x = np.array([float(transform(params, params.z0))])
    path = []
    for dt in grid.steps:
        _, lam, drift = x_state(params, x)
        path.append(float(lam[0]))
        x = x + drift * dt
    path.append(float(x_state(params, x)[1][0]))
    return deterministic_tree(grid, path)


def _row_cost(stage, s_index: int, action, nominal_steps: int) -> np.ndarray:
    s = s_index / nominal_steps
    a = np.asarray(action, dtype=float) / nominal_steps
    tr = stage.transition
    return stage.discount * ((a + stage.coupon * s) * tr.survival + tr.default_prob * stage.recovery * s)


def _row_continuation(stage, next_row: np.ndarray) -> np.ndarray:
    tr = stage.transition
    return stage.discount * (
        tr.probs[0] * next_row[tr.succ[0]]
        + tr.probs[1] * next_row[tr.succ[1]]
        + tr.probs[2] * next_row[tr.succ[2]]
    )


def per_nominal_backward_induction(stages, nominal_steps: int, initial_index: int):
    """Reference solve: one vector per (stage, nominal), one row per action.

    Returns per-stage {nominal index: values} and {nominal index: actions},
    plus the number of (stage, nominal, node) states whose minimum is attained
    by more than one distinct action.  Actions are tried in descending order
    and argmin keeps the first minimum, so ties go to the largest redemption.
    """
    reach = [{initial_index}]
    for stage in stages:
        reach.append({s - a for s in reach[-1] for a in stage.actions(s)})
    values = [dict() for _ in range(len(stages) + 1)]
    policy = [dict() for _ in stages]
    values[-1] = {s: np.zeros(stages[-1].transition.next_size) for s in reach[-1]}
    ties = 0
    for n in range(len(stages) - 1, -1, -1):
        stage = stages[n]
        for s_index in sorted(reach[n]):
            acts = sorted(set(stage.actions(s_index)), reverse=True)
            table = np.array([
                _row_cost(stage, s_index, a, nominal_steps)
                + _row_continuation(stage, values[n + 1][s_index - a])
                for a in acts
            ])
            best = np.argmin(table, axis=0)
            values[n][s_index] = table[best, np.arange(stage.size)]
            policy[n][s_index] = np.asarray(acts, dtype=np.intp)[best]
            ties += int(np.sum(np.sum(table == values[n][s_index], axis=0) > 1))
    return values, policy, ties


def per_nominal_policy_value(
    stages, nominal_steps: int, policy: Callable[[int, int], object], initial_index: int
) -> float:
    """Reference value of a fixed policy: per-nominal loop over the actions taken."""
    reach = [{initial_index}]
    taken = []
    for n, stage in enumerate(stages):
        acts = {s: np.broadcast_to(np.asarray(policy(n, s), dtype=np.intp), (stage.size,)) for s in reach[n]}
        taken.append(acts)
        reach.append({s - int(a) for s, vec in acts.items() for a in np.unique(vec)})
    values = {s: np.zeros(stages[-1].transition.next_size) for s in reach[-1]}
    for n in range(len(stages) - 1, -1, -1):
        stage = stages[n]
        table = {}
        for s_index, vec in taken[n].items():
            out = _row_cost(stage, s_index, vec, nominal_steps)
            for a in np.unique(vec):
                cont = _row_continuation(stage, values[s_index - int(a)])
                out = np.where(vec == a, out + cont, out)
            table[s_index] = out
        values = table
    return float(values[initial_index][0])


def path_major_normals(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """The Monte Carlo stream in one call: row i is path i's block of N + 2 normals."""
    return np.random.Generator(np.random.Philox(seed)).standard_normal((n_paths, n_steps + 2))


def one_call_default_steps(params, grid, n_paths: int, seed: int, *, zero_shock: bool = False):
    """Reference Monte Carlo default steps: every path's normals drawn at once, no chunking.

    The first two normals of a row make the path's threshold, the rest its
    Euler shocks (all zero with ``zero_shock``, which puts every path on the
    mean chain); the stepping and default rule are those of ``sinkbond.mc``.
    """
    from sinkbond.jdcev import transform, x_state

    normals = path_major_normals(seed, n_paths, grid.n_steps)
    thresholds = 0.5 * (normals[:, 0] ** 2 + normals[:, 1] ** 2)
    shocks = np.zeros_like(normals[:, 2:]) if zero_shock else normals[:, 2:]
    x = np.full(n_paths, float(transform(params, params.z0)))
    _, lam, drift = x_state(params, x)
    default_step = np.full(n_paths, -1, dtype=np.intp)
    hazard_sum = np.zeros(n_paths)
    for n, dt in enumerate(grid.steps):
        hazard_sum += lam * dt
        newly = (default_step < 0) & (hazard_sum > thresholds)
        default_step[newly] = n + 1
        x = x + drift * dt + np.sqrt(grid.steps)[n] * shocks[:, n]
        _, lam, drift = x_state(params, x)
    return default_step


def push_pass_mass_curve(tree):
    """Reference survival curve: one ``push`` per step from unit root mass.

    Returns (survival at every grid date, default mass of every step).
    """
    mass = np.ones(1)
    survival, default_mass = [1.0], []
    for tr in tree.transitions:
        default_mass.append(float(np.sum(mass * tr.default_prob)))
        mass = tr.push(mass)
        survival.append(float(mass.sum()))
    return np.array(survival), np.array(default_mass)


def forward_pass_par_spreads(tree, curve, recovery: float, tenors, premium_frequency: int):
    """Reference par spreads: the protection leg summed step by step in its own mass pass."""
    from sinkbond.calibration import premium_dates
    from sinkbond.market_data import discount_factors

    grid = tree.grid
    ends = [grid.index_of(tenor) for tenor in tenors]
    dfv = discount_factors(curve, grid)
    alive = np.array([1.0])
    survival, protection = [1.0], [0.0]
    for n in range(max(ends)):
        tr = tree.transitions[n]
        default_mass = float(np.sum(alive * tr.default_prob))
        protection.append(protection[n] + dfv[n + 1] * default_mass * (1.0 - recovery))
        alive = tr.push(alive)
        survival.append(float(alive.sum()))
    spreads = []
    for tenor, end in zip(tenors, ends):
        annuity = 0.0
        previous = 0.0
        for date in premium_dates(tenor, premium_frequency):
            idx = grid.index_of(date)
            annuity += dfv[idx] * survival[idx] * (date - previous)
            previous = date
        spreads.append(protection[end] / annuity)
    return np.array(spreads)
