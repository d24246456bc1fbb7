"""Monte Carlo cross-check for fixed redemption schedules.

Paths are Euler steps in the unit-diffusion coordinate (the lattice's own
coordinate, so no state-dependent-volatility bias separates the two), with
intensity and drift from :func:`sinkbond.jdcev.x_state`, the map the lattice
builds its nodes with: rational in x, so a step takes no power and never
computes a stock level.  Default is decided exactly as on the lattice: the
running sum of left-endpoint intensities times step widths is compared
against an independent unit-mean exponential draw per path.  A fixed
schedule is "max", "min" or a date-to-fraction map (anything else raises
ValueError); :func:`sinkbond.market_data.stream_values` values its cashflows
on the survival curve counted from the paths' default steps, as on the lattice.

Paths come in blocks of ``_CHUNK``, and block b draws from its own
counter-based substream ``Philox(seed).jumped(b)``: first one exponential
threshold per path, then one standard normal per path at each step.  A
block therefore holds one step of normals, not all N, so memory does not
grow with the step count, and blocks need no order between them: they run
on ``_WORKERS`` threads, each block writing only its own slice of
``default_step``.  A partial last block draws full rows and drops the
tail, so the first k paths are bitwise identical however many paths are
requested, and the bits are the same on any number of workers; changing
``_CHUNK`` changes them.  A block allocates its state buffers once and
steps them in place, one ``x_state`` call per step into the same buffers.
A path keeps stepping after its default: the hazard never decreases, so
its default step is fixed.  Each block runs in a copy of the
caller's context (so its ``np.errstate`` holds there); the workers are
joined before :func:`simulate_paths` returns or raises, and a block's
exception is raised on the calling thread.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .instruments import SinkingBondSpec
from .jdcev import JDCEVParams, transform, x_state
from .market_data import DiscountCurve, TimeGrid, discount_factors, stream_values
from .pricer import _check_same_horizon, schedule_cashflows

_CHUNK = 8192  # paths per block, each with its own substream
_MAX_PATHS = 10**7  # refused above: 80 MB of default steps, and about a minute at 120 steps
_WORKERS = 2  # threads drawing and evolving blocks


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

    Block b, paths b * ``_CHUNK`` onward, reads its own stream
    ``Generator(Philox(seed).jumped(b))``: ``_CHUNK`` unit-mean exponential
    thresholds, then ``_CHUNK`` standard normals per step, the Euler shocks
    of that step.  A partial last block draws full rows and drops the tail,
    so the first k paths are bitwise identical for any ``n_paths``; the bits
    do not depend on ``_WORKERS`` but do depend on ``_CHUNK``.
    """
    if not 1 <= n_paths <= _MAX_PATHS:
        raise ValueError(f"n_paths must be between 1 and {_MAX_PATHS}, got {n_paths}")
    if int(seed) != seed or seed < 0:
        raise ValueError("seed must be a nonnegative integer")

    # imported here so the other commands do not pay the import of concurrent.futures and logging
    from concurrent.futures import ThreadPoolExecutor

    n_steps = grid.n_steps
    steps = list(zip(grid.steps.tolist(), np.sqrt(grid.steps).tolist()))
    x0 = float(transform(params, params.z0))
    default_step = np.empty(n_paths, dtype=np.intp)

    def block(start: int) -> None:
        gen = np.random.Generator(np.random.Philox(int(seed)).jumped(start // _CHUNK))
        thresholds = gen.standard_exponential(_CHUNK)
        shock = np.empty(_CHUNK)
        x = np.full(_CHUNK, x0)
        lam, drift = state = x_state(params, x)
        hazard = np.zeros_like(x)
        # the hazard never decreases: the steps ending above the threshold are the default step on
        dead = np.empty(x.shape, dtype=bool)
        dead_steps = np.zeros(x.shape, dtype=np.intp)
        for dt, sqrt_dt in steps:
            gen.standard_normal(out=shock)
            lam *= dt
            hazard += lam
            np.greater(hazard, thresholds, out=dead)
            dead_steps += dead
            drift *= dt
            x += drift
            shock *= sqrt_dt
            x += shock
            x_state(params, x, out=state)
        stop = min(start + _CHUNK, n_paths)
        default_step[start:stop] = np.where(dead_steps > 0, n_steps + 1 - dead_steps, -1)[:stop - start]

    starts = range(0, n_paths, _CHUNK)
    contexts = [contextvars.copy_context() for _ in starts]  # the caller's np.errstate holds in the workers
    with ThreadPoolExecutor(_WORKERS) as pool:
        for _ in pool.map(lambda context, start: context.run(block, start), contexts, starts):
            pass
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
    step.  The average is the schedule's :func:`stream_values` on the survival
    curve counted from the paths' default steps, and the standard error
    weighs each default step's payout by its count.  Needs at least two
    paths, so the standard error exists.
    """
    n_paths, grid = paths.n_paths, paths.grid
    if n_paths < 2:
        raise ValueError(f"need at least 2 paths to estimate a standard error, got {n_paths}")
    _check_same_horizon(grid, spec)
    cash, nominal = schedule_cashflows(spec, grid, schedule)
    dfv = discount_factors(curve, grid)
    recovered = spec.recovery * nominal[:-1] / spec.nominal_steps
    counts = np.bincount(paths.default_step + 1, minlength=grid.n_steps + 2)  # survivors, 0, then steps 1..N
    alive = n_paths - np.concatenate(([0], np.cumsum(counts[2:])))
    estimate = stream_values(dfv, cash, recovered, alive / n_paths, counts[2:] / n_paths)[-1]
    # a path defaulting in step m is paid the cash through t_{m-1} and the recovery at t_m
    cum_cash = stream_values(dfv, cash, 0.0, np.ones_like(dfv), 0.0)
    payout = np.concatenate(([cum_cash[-1], 0.0], cum_cash[:-1] + dfv[1:] * recovered))
    std_error = math.sqrt(counts @ (payout - estimate) ** 2 / (n_paths - 1) / n_paths)
    return MCEstimate(estimate=float(estimate), std_error=std_error)
