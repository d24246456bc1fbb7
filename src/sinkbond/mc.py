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

The kernel is a pipeline.  The calling thread draws the blocks of
``_CHUNK`` paths from the one stream, in path order, while two worker
threads evolve the blocks already drawn; NumPy releases the GIL inside the
draws and the array arithmetic, so the three overlap.  At most two blocks
are alive at a time, the one being drawn included.  A block allocates its
state buffers once and steps them in place, one ``x_state`` call per step
into the same buffers.  A path whose hazard has passed its threshold is
parked at x0: the hazard never decreases, so its default step is fixed,
and ``pow`` never sees the zero level of a path below the boundary.  The
result cannot depend on thread timing: which normals a block holds is fixed
by the draw order alone, a path's evolution reads no other path, and each
block writes only its own slice of ``default_step``.  Workers run in a copy
of the caller's context (so its ``np.errstate`` holds there) and are joined
before :func:`simulate_paths` returns or raises; a worker's exception is
raised on the calling thread.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .instruments import SinkingBondSpec
from .jdcev import JDCEVParams, transform, x_state
from .market_data import DiscountCurve, TimeGrid, discount_factors
from .pricer import schedule_cashflows

_CHUNK = 4096  # paths per block of draws
_MAX_PATHS = 10**7  # refused above: 80 MB of default steps, and about a minute at 120 steps
_WORKERS = 2  # threads evolving blocks while the caller draws the next


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
    if not 1 <= n_paths <= _MAX_PATHS:
        raise ValueError(f"n_paths must be between 1 and {_MAX_PATHS}, got {n_paths}")
    if int(seed) != seed or seed < 0:
        raise ValueError("seed must be a nonnegative integer")

    n_steps = grid.n_steps
    steps = grid.steps.tolist()
    sqrt_steps = np.sqrt(grid.steps)
    x0 = float(transform(params, params.z0))
    gen = np.random.Generator(np.random.Philox(int(seed)))
    default_step = np.empty(n_paths, dtype=np.intp)

    def draw(start: int) -> np.ndarray:
        return gen.standard_normal((min(_CHUNK, n_paths - start), n_steps + 2))

    def evolve(start: int, block: np.ndarray) -> None:
        thresholds = 0.5 * (block[:, 0] ** 2 + block[:, 1] ** 2)
        shocks = block[:, 2:]
        shocks *= sqrt_steps
        x = np.full(block.shape[0], x0)
        _, lam, drift = state = x_state(params, x)
        hazard = np.zeros_like(x)
        # the hazard never decreases: the steps ending above the threshold are the default step on
        dead = np.empty(x.shape, dtype=bool)
        dead_steps = np.zeros(x.shape, dtype=np.intp)
        for n, dt in enumerate(steps):
            lam *= dt
            hazard += lam
            np.greater(hazard, thresholds, out=dead)
            dead_steps += dead
            drift *= dt
            x += drift
            x += shocks[:, n]
            np.copyto(x, x0, where=dead)  # parked: a defaulted path's steps cannot move its default step
            x_state(params, x, out=state)
        default_step[start:start + x.size] = np.where(dead_steps > 0, n_steps + 1 - dead_steps, -1)

    _pipeline(range(0, n_paths, _CHUNK), draw, evolve)
    return PathSet(grid=grid, default_step=default_step)


def _pipeline(starts: range, draw, evolve) -> None:
    """Call ``evolve(start, draw(start))`` for every start: draws in order on
    the calling thread, evolutions on up to ``_WORKERS`` threads.

    At most ``_WORKERS`` drawn blocks are alive at a time, counting the one
    being drawn.  The first exception of a worker (or of a draw) is raised
    here once every worker has stopped.
    """
    free = threading.Semaphore(_WORKERS)  # one permit per block alive
    ready: list[tuple[int, np.ndarray]] = []
    errors: list[BaseException] = []
    cond = threading.Condition()
    drawing = True

    def work() -> None:
        while True:
            with cond:
                cond.wait_for(lambda: ready or not drawing)
                if not ready:
                    return
                item = ready.pop(0)
            try:
                if not errors:
                    evolve(*item)
            except BaseException as exc:  # re-raised on the calling thread
                errors.append(exc)
            finally:
                del item  # the block dies before its permit frees
                free.release()

    workers = [
        threading.Thread(target=contextvars.copy_context().run, args=(work,), daemon=True)
        for _ in range(min(_WORKERS, len(starts)))
    ]
    for worker in workers:
        worker.start()
    try:
        for start in starts:
            free.acquire()
            if errors:
                break
            block = draw(start)
            with cond:
                ready.append((start, block))
                cond.notify()
            del block
    finally:
        with cond:
            drawing = False
            cond.notify_all()
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]


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
