"""Monte Carlo cross-check for fixed redemption schedules.

Paths are Euler steps in the unit-diffusion coordinate (the lattice's own
coordinate, so no state-dependent-volatility bias separates the two), with
intensity and drift from :func:`sinkbond.jdcev.x_state`, the map the lattice
builds its nodes with.  Default is decided exactly as on the lattice: the
running sum of left-endpoint intensities times step widths is compared
against an independent unit-mean exponential draw per path.  A fixed
schedule is "max", "min" or a date-to-fraction map (anything else raises
ValueError); its cashflows come from :func:`sinkbond.pricer.schedule_cashflows`,
the same ones the lattice weights by its survival curve.  All randomness is
one seeded stream of standard normals read in path-major blocks -- path i
owns normals i * (N + 2) through i * (N + 2) + N + 1 -- so the first k paths
are bitwise identical no matter how many paths are requested.  Path i cannot
be drawn without drawing the paths before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .instruments import SinkingBondSpec
from .jdcev import JDCEVParams, transform, x_state
from .market_data import DiscountCurve, TimeGrid, discount_factors
from .pricer import schedule_cashflows

_CHUNK = 4096


@dataclass(frozen=True)
class PathSet:
    """The step in which each simulated path defaults.

    default_step[i] is the step index m in 1..N when path i defaults in
    (t_{m-1}, t_m], or -1 if it survives to maturity.
    """

    grid: TimeGrid
    default_step: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.default_step.shape[0]


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    std_error: float


def simulate_paths(params: JDCEVParams, grid: TimeGrid, n_paths: int, seed: int) -> PathSet:
    """Simulate intensity paths on the grid and record each one's default step.

    One ``Generator(Philox(seed))`` supplies N + 2 standard normals per path,
    in path order: the first two give the path's unit-mean exponential
    threshold 0.5 * (z0**2 + z1**2), the other N its Euler shocks.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if int(seed) != seed or seed < 0:
        raise ValueError("seed must be a nonnegative integer")

    n_steps = grid.n_steps
    steps = grid.steps
    sqrt_steps = np.sqrt(steps)
    x0 = float(transform(params, params.z0))
    gen = np.random.Generator(np.random.Philox(int(seed)))
    default_step = np.full(n_paths, -1, dtype=np.intp)

    for start in range(0, n_paths, _CHUNK):
        size = min(_CHUNK, n_paths - start)
        draws = gen.standard_normal((size, n_steps + 2))
        thresholds = 0.5 * (draws[:, 0] ** 2 + draws[:, 1] ** 2)
        chunk_step = default_step[start:start + size]  # a view: writes land in default_step
        x = np.full(size, x0)
        _, lam, drift = x_state(params, x)
        hazard_sum = np.zeros(size)
        for n in range(n_steps):
            hazard_sum += lam * steps[n]
            chunk_step[(chunk_step < 0) & (hazard_sum > thresholds)] = n + 1
            x = x + drift * steps[n] + sqrt_steps[n] * draws[:, n + 2]
            _, lam, drift = x_state(params, x)

    return PathSet(grid=grid, default_step=default_step)


def mc_price_fixed_policy(
    paths: PathSet,
    spec: SinkingBondSpec,
    schedule: Union[str, Mapping[float, float]],
    curve: DiscountCurve,
) -> MCEstimate:
    """Average discounted cashflows of a fixed schedule over the paths.

    The schedule fixes the nominal trajectory, so a path's payout depends
    only on its default step: coupons and redemptions while alive, then the
    recovery fraction of the remaining nominal at the end of the default
    step.  Needs at least two paths, so the standard error exists.
    """
    if paths.n_paths < 2:
        raise ValueError(f"need at least 2 paths to estimate a standard error, got {paths.n_paths}")
    grid = paths.grid
    if abs(grid.maturity - spec.maturity) > 1e-9:
        raise ValueError("paths and bond do not share a horizon")
    cash, nominal = schedule_cashflows(spec, grid, schedule)
    dfv = discount_factors(curve, grid)
    cum_cash = np.cumsum(cash * dfv)
    # payout if the default lands in step m: cashflows through t_{m-1} plus
    # the discounted recovery on the nominal held entering the step
    payout_by_step = np.zeros_like(cum_cash)
    payout_by_step[1:] = cum_cash[:-1] + dfv[1:] * spec.recovery * nominal[:-1] / spec.nominal_steps
    survive_payout = cum_cash[-1]

    d = paths.default_step
    payouts = np.where(d > 0, payout_by_step[np.maximum(d, 0)], survive_payout)
    std_error = float(np.std(payouts, ddof=1) / math.sqrt(paths.n_paths))
    return MCEstimate(estimate=float(np.mean(payouts)), std_error=std_error)
