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


def discount_factor(curve, grid, start: int, stop: int) -> float:
    """exp(-integral of the forward from t_start to t_stop); 1 when start == stop."""
    from sinkbond.market_data import step_rate_integrals

    if not 0 <= start <= stop <= grid.n_steps:
        raise ValueError(f"invalid index range ({start}, {stop}) for a grid with {grid.n_steps} steps")
    integrals = np.concatenate(([0.0], np.cumsum(step_rate_integrals(curve, grid))))
    return math.exp(-(integrals[stop] - integrals[start]))


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
        lam, drift = x_state(params, x)
        path.append(float(lam[0]))
        x = x + drift * dt
    path.append(float(x_state(params, x)[0][0]))
    return deterministic_tree(grid, path)


def reference_actions(spec, grid, n: int, s_index: int) -> set[int]:
    """Admissible redemption amounts at stage n and nominal index s_index, one call at a time.

    The final stage redeems everything; a redemption date offers the
    installments not exceeding s_index, plus 0 (allow_skip) and s_index
    itself (full_call), or the stub s_index when none of these exist; any
    other date redeems nothing.
    """
    from sinkbond.instruments import redemption_stages

    if n == grid.n_steps - 1:
        return {s_index}
    if n not in redemption_stages(spec, grid):
        return {0}
    acts = {a for a in spec.redemption_indices if a <= s_index}
    if spec.full_call:
        acts.add(s_index)
    if spec.allow_skip:
        acts.add(0)
    return acts or {s_index}


def _row_cost(stage, s_index: int, action, nominal_steps: int) -> np.ndarray:
    s = s_index / nominal_steps
    a = np.asarray(action, dtype=float) / nominal_steps
    tr = stage.transition
    return stage.discount * ((a + stage.coupon * s) * tr.survival + tr.default_prob * stage.recovery * s)


def three_term_expect(tr, values: np.ndarray) -> np.ndarray:
    """Survival-weighted expectation as three gathers, added down, mid, up."""
    return (
        tr.probs[0] * values.take(tr.succ[0], axis=-1)
        + tr.probs[1] * values.take(tr.succ[1], axis=-1)
        + tr.probs[2] * values.take(tr.succ[2], axis=-1)
    )


def _row_continuation(stage, next_row: np.ndarray) -> np.ndarray:
    return stage.discount * three_term_expect(stage.transition, next_row)


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


def block_generators(seed: int, n_paths: int, chunk: int) -> list:
    """The Monte Carlo streams: block b, paths b * chunk onward, reads ``Philox(seed).jumped(b)``."""
    return [np.random.Generator(np.random.Philox(seed).jumped(b)) for b in range(-(-n_paths // chunk))]


def block_default_steps(params, grid, n_paths: int, seed: int, chunk: int, *, zero_shock: bool = False):
    """Reference Monte Carlo default steps: one block after another on one thread.

    A block draws ``chunk`` exponential thresholds from its stream, then
    ``chunk`` normals at each step, that step's Euler shocks (left out with
    ``zero_shock``, which puts every path on the mean chain); the rows past
    ``n_paths`` are dropped.  The stepping and default rule are those of
    ``sinkbond.mc``: a defaulted path keeps evolving.
    """
    from sinkbond.jdcev import transform, x_state

    sqrt_steps = np.sqrt(grid.steps)
    blocks = []
    for gen in block_generators(seed, n_paths, chunk):
        thresholds = gen.standard_exponential(chunk)
        x = np.full(chunk, float(transform(params, params.z0)))
        lam, drift = x_state(params, x)
        default_step = np.full(chunk, -1, dtype=np.intp)
        hazard_sum = np.zeros(chunk)
        for n, dt in enumerate(grid.steps):
            shock = gen.standard_normal(chunk)
            hazard_sum += lam * dt
            newly = (default_step < 0) & (hazard_sum > thresholds)
            default_step[newly] = n + 1
            x = x + drift * dt
            if not zero_shock:
                x = x + sqrt_steps[n] * shock
            lam, drift = x_state(params, x)
        blocks.append(default_step)
    return np.concatenate(blocks)[:n_paths]


def per_path_mc_estimate(paths, spec, schedule, curve) -> tuple[float, float]:
    """Reference Monte Carlo estimate and standard error: one payout per path.

    A path defaulting in step m is paid the discounted cashflows through
    t_{m-1} plus the discounted recovery on the nominal held entering the
    step; a surviving path is paid every cashflow.  The estimate is the mean
    of the payouts and the standard error their sample deviation over the
    square root of the path count.
    """
    from sinkbond.market_data import discount_factors
    from sinkbond.pricer import schedule_cashflows

    cash, nominal = schedule_cashflows(spec, paths.grid, schedule)
    dfv = discount_factors(curve, paths.grid)
    cum_cash = np.cumsum(cash * dfv)
    payout_by_step = np.zeros_like(cum_cash)
    payout_by_step[1:] = cum_cash[:-1] + dfv[1:] * spec.recovery * nominal[:-1] / spec.nominal_steps
    d = paths.default_step
    payouts = np.where(d > 0, payout_by_step[np.maximum(d, 0)], cum_cash[-1])
    return float(np.mean(payouts)), float(np.std(payouts, ddof=1) / math.sqrt(paths.n_paths))


def masked_x_state(params, x):
    """Reference ``jdcev.x_state``: each formula gathered to the nodes it applies to.

    With x0 the coordinate of z0 and b = -beta, the intensity
    min(lambda0 * (x0 / x)^2, cap) is computed only at x > 0 (the boundary
    value of ``intensity`` elsewhere) and the drift
    (lambda0 * x0^2 * b + (b - 1) / (2b)) / x only at live nodes (x > 0,
    intensity below the cap), then scattered, so no floating-point flag can
    come from a node a formula does not apply to.
    """
    from sinkbond.jdcev import intensity, transform

    x0, b = float(transform(params, params.z0)), -params.beta
    pos = x > 0.0
    lam = np.full(x.shape, intensity(params, 0.0))
    if params.lambda0 > 0.0 and pos.any():
        with np.errstate(over="ignore"):  # a ratio past the float range is capped
            lam[pos] = np.fmin(params.lambda0 * (x0 / x[pos]) ** 2, params.lambda_cap)
    drift = np.zeros_like(x)
    live = pos & (lam < params.lambda_cap)
    if live.any():
        drift[live] = (params.lambda0 * x0 * x0 * b + 0.5 * (b - 1.0) / b) / x[live]
    return lam, drift


def loop_schedule_cashflows(spec, grid, schedule):
    """Reference ``pricer.schedule_cashflows``: every stage walked, every action checked in turn."""
    from collections.abc import Mapping

    from sinkbond.instruments import action_table, coupons_on_grid, redemption_stages

    if not isinstance(schedule, (str, Mapping)):
        raise ValueError(f"a fixed schedule is 'max', 'min' or a date-to-fraction map, not {type(schedule).__name__}")
    actions = action_table(spec, grid)
    if isinstance(schedule, str):
        rule = schedule.lower()
        if rule not in ("max", "min"):
            raise ValueError(f"unknown schedule rule {schedule!r}")
        col = 0 if rule == "max" else -1

        def choose(n: int, s_index: int) -> int:
            return int(actions[n][s_index, col])

    else:
        stage_actions = {
            grid.index_of(float(date)): spec.fraction_to_index(float(fraction))
            for date, fraction in schedule.items()
        }
        missing = redemption_stages(spec, grid) - set(stage_actions)
        if missing:
            raise ValueError(
                f"schedule does not cover the redemption dates at stages {sorted(missing)}"
            )

        def choose(n: int, s_index: int) -> int:
            return s_index if n == grid.n_steps - 1 else stage_actions.get(n, 0)

    coupons = coupons_on_grid(spec, grid)
    cash = np.zeros(grid.n_steps + 1)
    nominal = np.full(grid.n_steps + 1, float(spec.nominal_steps))
    for n in range(grid.n_steps):
        s_index = int(nominal[n])
        action = choose(n, s_index)
        if action not in actions[n][s_index]:
            raise ValueError(f"stage {n}, nominal index {s_index}: action {action} not admissible")
        cash[n + 1] = (action + coupons[n + 1] * s_index) / spec.nominal_steps
        nominal[n + 1] = s_index - action
    return cash, nominal


def per_row_policy_summary(solution, tree, spec) -> list[dict]:
    """Reference ``price_report`` policy summary: one row of one redemption stage at a time.

    Each (redemption date, nominal) entry gives the smallest and largest
    action over the stage's live nodes, read through the policy mapping; a
    carried stage's (1,) row is broadcast over the nodes first.
    """
    from sinkbond.instruments import redemption_stages

    summary = []
    for n in sorted(redemption_stages(spec, tree.grid)):
        live = tree.transitions[n].live
        for s_index in sorted(solution.policy[n]):
            chosen = np.broadcast_to(solution.policy[n][s_index], live.shape)[live]
            summary.append(
                {
                    "time": tree.grid.times[n],
                    "nominal": s_index / spec.nominal_steps,
                    "action_min": int(chosen.min()) / spec.nominal_steps,
                    "action_max": int(chosen.max()) / spec.nominal_steps,
                }
            )
    return summary


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


def loop_grid_times(maturity: float, steps_per_year: int, events) -> tuple[float, ...]:
    """Reference grid merge: each interior uniform point checked against every event date.

    ``events`` are valid, sorted event dates; the uniform points and the
    snapping rule are those of ``build_time_grid``.
    """
    h = 1.0 / steps_per_year
    n_whole = int(math.floor(maturity * steps_per_year + 1e-9))
    pts = [i / steps_per_year for i in range(n_whole + 1)]
    tol = 1e-12 * max(1.0, abs(maturity))
    if abs(pts[-1] - maturity) <= tol:
        pts[-1] = maturity
    else:
        pts.append(maturity)
    if not events:
        return tuple(pts)
    ev = np.asarray(events)
    kept = [pts[0]]
    for p in pts[1:-1]:
        gap = float(np.min(np.abs(ev - p)))
        if gap < 0.5 * h * (1.0 - 1e-12):
            continue
        kept.append(p)
    kept.append(pts[-1])
    return tuple(sorted(kept + [d for d in events if d < maturity - tol]))


def per_step_build_trinomial(params, grid):
    """Reference lattice build: ``x_state`` and the branch arithmetic run on every layer.

    The library computes each node state and branch column once per step
    length; this builds the same mass-banded lattice one step at a time.
    ``x_state``, ``_check_branch_probs``, ``_SPACING_TOL`` and ``_MASS_FLOOR``
    are read from ``sinkbond.tree`` when called, so a test that patches them
    there patches both builds.
    """
    from sinkbond import tree
    from sinkbond.jdcev import inverse_transform, transform

    def frozen_layer(x):
        lam, drift = tree.x_state(params, x)
        z = np.zeros_like(x)
        with np.errstate(over="ignore"):  # the stored level may overflow where the state is finite
            z[x > 0.0] = inverse_transform(params, x[x > 0.0])
        for arr in (x, z, lam):
            arr.flags.writeable = False
        return tree.TreeLayer(x=x, z_level=z, intensity=lam), drift

    x0 = float(transform(params, params.z0))
    dx_min = math.sqrt(3.0 * float(np.min(grid.steps)))
    ulp = float(np.spacing(x0))
    if not ulp <= tree._SPACING_TOL * dx_min:
        raise tree.TreeConstructionError(
            f"node spacing {dx_min!r} does not survive rounding at x0 = {x0!r} "
            f"(float spacing {ulp!r}); the lattice nodes would collapse"
        )
    root, drift = frozen_layer(np.array([x0]))
    layers = [root]
    transitions = []
    band = slice(0, 1)
    mass = np.ones(1)
    survival, default_mass = np.ones(grid.n_steps + 1), np.zeros(grid.n_steps)

    for n in range(grid.n_steps):
        dt = float(grid.steps[n])
        current = layers[n]
        x = current.x[band]
        mean = x + drift[band] * dt
        dx = math.sqrt(3.0 * dt)
        center = np.rint((mean - x0) / dx).astype(np.intp)
        lo = int(center.min()) - 1
        hi = int(center.max()) + 1
        next_x = x0 + np.arange(lo, hi + 1, dtype=float) * dx
        offset = (mean - (x0 + center * dx)) / dx
        up = 1.0 / 6.0 + 0.5 * (offset**2 + offset)
        down = 1.0 / 6.0 + 0.5 * (offset**2 - offset)
        mid = 1.0 - (down + up)
        branch_band = np.stack([down, mid, up])
        tree._check_branch_probs(branch_band, n, band.start)
        ci = center - lo
        succ_band = np.stack([ci - 1, ci, ci + 1])

        live = np.zeros(current.size, dtype=bool)
        live[band] = True
        succ = np.zeros((3, current.size), dtype=np.intp)
        succ[:, band] = succ_band
        branch = np.zeros((3, current.size))
        branch[:, band] = branch_band
        step_survival = np.where(live, np.exp(-current.intensity * dt), 0.0)
        default_prob = np.where(live, -np.expm1(-current.intensity * dt), 0.0)
        tr = tree.LayerTransition(
            succ=succ,
            branch_probs=branch,
            survival=step_survival,
            default_prob=default_prob,
            probs=branch * step_survival,
            live=live,
            next_size=next_x.size,
        )
        transitions.append(tr)
        layer, drift = frozen_layer(next_x)
        layers.append(layer)

        default_mass[n] = np.sum(mass * tr.default_prob)
        mass = tr.push(mass)
        survival[n + 1] = mass.sum()
        heavy = np.flatnonzero(mass > tree._MASS_FLOOR)
        if heavy.size:
            band = slice(int(heavy[0]), int(heavy[-1]) + 1)
        else:
            heaviest = int(np.argmax(mass))
            band = slice(heaviest, heaviest + 1)

    return tree.IntensityTree(
        grid=grid,
        layers=tuple(layers),
        transitions=tuple(transitions),
        survival=survival,
        default_mass=default_mass,
        augmented=False,
        params=params,
    )


def per_layer_validate_tree(tree):
    """Reference validator: every check and the mass pass run one layer at a time.

    The library checks blocks of consecutive layers with whole-block array
    operations; this checks the same tree layer by layer and returns the same
    ``TreeDiagnostics``.  ``x_state`` and the tolerances are read from
    ``sinkbond.tree`` when called, so a test that patches them there patches
    both validators.
    """
    import dataclasses

    from sinkbond import tree as lattice

    reports = []
    violations: list[str] = []
    max_sum_err = 0.0
    max_mean_err = 0.0
    max_var_err = None
    c_var = None
    mass = np.ones(1)
    total_truncated = 0.0

    for n, tr in enumerate(tree.transitions):
        dt = float(tree.grid.steps[n])
        layer = tree.layers[n]
        next_layer = tree.layers[n + 1]
        live = tr.live

        sums = tr.probs.sum(axis=0) + tr.default_prob
        all_probs = np.vstack([tr.probs, tr.default_prob])
        sum_errs = np.where(live, np.abs(sums - 1.0), 0.0)
        worst = int(np.argmax(sum_errs))
        sum_err = float(sum_errs[worst])
        max_sum_err = max(max_sum_err, sum_err)
        if not sum_err <= lattice._PROB_TOL:
            violations.append(f"layer {n} node {worst}: probabilities sum to {sums[worst]!r}")
        bad = np.argwhere(~((all_probs >= -lattice._PROB_TOL) & (all_probs <= 1.0 + lattice._PROB_TOL)))
        for row, node_idx in bad:
            violations.append(
                f"layer {n} node {int(node_idx)}: probability "
                f"{all_probs[row, node_idx]!r} outside [0, 1]"
            )
        for node_idx in np.flatnonzero(~live & np.any(all_probs != 0.0, axis=0)):
            violations.append(f"layer {n} node {int(node_idx)}: leaf carries probability")
        if tr.succ.min() < 0 or tr.succ.max() >= next_layer.size:
            violations.append(f"layer {n}: successor index outside the next layer")
            tr = dataclasses.replace(
                tr, succ=np.clip(tr.succ, 0, next_layer.size - 1), next_size=next_layer.size
            )
        succ = tr.succ

        x = layer.x[live]
        branch = tr.branch_probs[:, live]
        drift = np.zeros_like(x) if tree.params is None else lattice.x_state(tree.params, x)[1]
        target = x + drift * dt
        succ_x = next_layer.x[succ[:, live]]
        mean_hat = (branch * succ_x).sum(axis=0)
        mean_err = float(np.max(np.abs(mean_hat - target)))
        max_mean_err = max(max_mean_err, mean_err)

        var_err = None
        if tree.params is not None:
            var_hat = (branch * (succ_x - target) ** 2).sum(axis=0)
            var_err = float(np.max(np.abs(var_hat - dt)))
            max_var_err = var_err if max_var_err is None else max(max_var_err, var_err)
            ratio = var_err / dt**2
            c_var = ratio if c_var is None else max(c_var, ratio)
            if not var_err <= lattice._VARIANCE_TOL * dt:
                violations.append(f"layer {n}: branch variance misses dt = {dt!r} by {var_err!r}")

        truncated = float(mass[~live].sum())
        total_truncated += truncated
        mass = tr.push(mass)

        reports.append(
            lattice.LayerReport(
                layer=n,
                size=layer.size,
                prob_sum_error=sum_err,
                min_branch_prob=float(tr.probs[:, live].min()),
                max_branch_prob=float(tr.probs[:, live].max()),
                mean_error=mean_err,
                variance_error=var_err,
                truncated_mass=truncated,
            )
        )

    if not total_truncated <= lattice._TRUNCATION_TOL:
        violations.append(f"truncated mass {total_truncated!r} exceeds {lattice._TRUNCATION_TOL!r}")
    return lattice.TreeDiagnostics(
        layer_reports=tuple(reports),
        violations=tuple(violations),
        layer_sizes=tree.layer_sizes(),
        max_prob_sum_error=max_sum_err,
        max_mean_error=max_mean_err,
        max_variance_error=max_var_err,
        second_moment_constant=c_var,
        total_truncated_mass=total_truncated,
    )
