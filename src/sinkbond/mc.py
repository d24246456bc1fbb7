"""Monte Carlo cross-check for fixed redemption schedules.

Paths are Euler steps in the unit-diffusion coordinate (the lattice's own
coordinate, so no state-dependent-volatility bias separates the two), with
intensity and drift from :func:`sinkbond.jdcev.x_state`, the map the lattice
builds its nodes with.  Default is decided exactly as on the lattice: the
running sum of left-endpoint intensities times step widths is compared
against an independent unit-mean exponential draw per path.  A fixed
schedule is "max", "min" or a date-to-fraction map (anything else raises
ValueError); its cashflows come from :func:`sinkbond.pricer.schedule_cashflows`,
the same ones the lattice weights by its survival curve.  Randomness is
counter based -- path i draws from a generator keyed by (seed, i) -- so path
i is bitwise identical no matter how many paths are requested.
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
    """Simulated intensity paths plus each path's default step.

    intensities[i, n] is the (capped) intensity of path i at t_n;
    default_step[i] is the step index m in 1..N when the default lands in
    (t_{m-1}, t_m], or -1 if the path survives to maturity.
    """

    grid: TimeGrid
    intensities: np.ndarray
    default_step: np.ndarray
    seed: int

    @property
    def n_paths(self) -> int:
        return self.intensities.shape[0]


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    std_error: float
    n_paths: int


def simulate_paths(
    params: JDCEVParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    *,
    zero_diffusion: bool = False,
) -> PathSet:
    """Simulate intensity paths and default steps on the given grid.

    ``zero_diffusion`` drops the Brownian increments (the draws still happen,
    preserving the substream layout), collapsing every path onto the
    deterministic mean chain -- handy for exact-survival sanity checks.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if int(seed) != seed or seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    seed = int(seed)

    n_steps = grid.n_steps
    steps = grid.steps
    sqrt_steps = np.sqrt(steps)
    x0 = float(transform(params, params.z0))

    intensities = np.empty((n_paths, n_steps + 1))
    default_step = np.full(n_paths, -1, dtype=np.intp)

    # one generator for all paths: resetting the bit generator to key
    # (seed, i), counter 0 and an empty buffer starts path i's stream afresh
    bit_generator = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bit_generator)
    fresh = bit_generator.state

    for start in range(0, n_paths, _CHUNK):
        stop = min(start + _CHUNK, n_paths)
        size = stop - start
        shocks = np.empty((size, n_steps))
        thresholds = np.empty(size)
        for i in range(size):
            fresh["state"]["key"][1] = start + i
            bit_generator.state = fresh
            thresholds[i] = gen.standard_exponential()
            shocks[i] = gen.standard_normal(n_steps)
        if zero_diffusion:
            shocks[:] = 0.0

        x = np.full(size, x0)
        _, lam, drift = x_state(params, x)
        intensities[start:stop, 0] = lam
        hazard_sum = np.zeros(size)
        defaulted = np.zeros(size, dtype=bool)
        for n in range(n_steps):
            hazard_sum += lam * steps[n]
            newly = (~defaulted) & (hazard_sum > thresholds)
            default_step[start:stop][newly] = n + 1
            defaulted |= newly
            x = x + drift * steps[n] + sqrt_steps[n] * shocks[:, n]
            _, lam, drift = x_state(params, x)
            intensities[start:stop, n + 1] = lam

    return PathSet(grid=grid, intensities=intensities, default_step=default_step, seed=seed)


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
    return MCEstimate(estimate=float(np.mean(payouts)), std_error=std_error, n_paths=paths.n_paths)
