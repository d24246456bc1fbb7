"""Time grids, deterministic discounting and the survival-weighted stream value.

Times are year fractions from the valuation date. Rates are continuously
compounded instantaneous forwards, piecewise constant between pillars, so
discounting over grid steps is an exact exponential sum rather than an
interpolation artifact.  A spread z over the curve is an argument of the
discount kernel, not a new curve: one spread or a vector of them, each
integrated as r + z, so a fan of spreads costs one array expression.
:func:`stream_values` is the one valuation of a cashflow stream against a
survival curve; fixed redemption schedules, both CDS legs and the Monte
Carlo estimate all read it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np


#: Years within which :meth:`TimeGrid.index_of` matches a grid date.
_DATE_TOL = 1e-9
#: Step count above which :func:`build_time_grid` refuses to build: far past
#: any lattice that fits in memory (2,520 steps already hold 0.5 M nodes).
_MAX_STEPS = 10**6
#: Nominal grid size K above which a bond is refused: action tables hold K + 1 rows.
_MAX_NOMINAL_STEPS = 10**6


def _atol(scale: float) -> float:
    return 1e-12 * max(1.0, abs(scale))


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing grid 0 = t_0 < t_1 < ... < t_N = maturity."""

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) < 2:
            raise ValueError("a time grid needs at least one step")
        if self.times[0] != 0.0:
            raise ValueError("time grids must start at 0")
        if any(not b > a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("grid times must be strictly increasing")
        if not math.isfinite(self.times[-1]):
            raise ValueError("grid times must be finite")

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def maturity(self) -> float:
        return self.times[-1]

    @cached_property
    def times_array(self) -> np.ndarray:
        arr = np.asarray(self.times, dtype=float)
        arr.flags.writeable = False
        return arr

    @cached_property
    def steps(self) -> np.ndarray:
        """Step widths dt_i = t_i - t_{i-1}, length n_steps."""
        arr = np.diff(self.times_array)
        arr.flags.writeable = False
        return arr

    def index_of(self, t: float) -> int:
        """Index of the grid date matching ``t`` within ``_DATE_TOL`` years."""
        i = bisect.bisect_left(self.times, t)
        candidates = [j for j in (i - 1, i, i + 1) if 0 <= j < len(self.times)]
        best = min(candidates, key=lambda j: abs(self.times[j] - t))
        if abs(self.times[best] - t) <= _DATE_TOL:
            return best
        raise ValueError(f"time {t!r} is not a grid date")


def build_time_grid(
    maturity: float,
    steps_per_year: int,
    event_dates: Sequence[float] = (),
) -> TimeGrid:
    """Uniform grid of spacing 1/steps_per_year with event dates as exact members.

    Event dates (coupon, redemption or premium dates) are inserted verbatim;
    any interior uniform point closer than half a step to an event is dropped
    in its favour, so the grid stays free of degenerate steps while every
    event remains a bit-exact grid date.  Event dates within rounding
    tolerance of the maturity are served by the maturity point itself.  The
    grid has at most as many steps as uniform steps plus event dates; more
    than ``_MAX_STEPS`` of those are refused before any list is built.
    """
    steps_per_year = _checked_grid_size(maturity, steps_per_year, len(event_dates))
    events = _validated_events(event_dates, maturity)

    h = 1.0 / steps_per_year
    n_whole = int(math.floor(maturity * steps_per_year + 1e-9))
    pts = [i / steps_per_year for i in range(n_whole + 1)]
    if abs(pts[-1] - maturity) <= _atol(maturity):
        pts[-1] = maturity
    else:
        pts.append(maturity)

    if events:
        # ev - p rises with ev, so the nearest event is a neighbour in the sorted list
        ev, inner = np.asarray(events), np.asarray(pts[1:-1])
        right = np.searchsorted(ev, inner)
        left = np.maximum(right - 1, 0)
        gap = np.minimum(np.abs(ev[left] - inner), np.abs(ev[np.minimum(right, ev.size - 1)] - inner))
        kept = inner[~(gap < 0.5 * h * (1.0 - 1e-12))].tolist()  # the rest snap onto a nearby event
        interior = [d for d in events if d < maturity - _atol(maturity)]
        pts = sorted([pts[0], *kept, pts[-1], *interior])

    grid = TimeGrid(tuple(float(t) for t in pts))
    return grid


def _checked_grid_size(maturity: float, steps_per_year: int, n_events: int) -> int:
    """``steps_per_year`` as an int, once the maturity, the density and the bound
    of uniform steps plus ``n_events`` event dates on the step count pass."""
    if not maturity > 0.0:
        raise ValueError("maturity must be positive")
    if int(steps_per_year) != steps_per_year or steps_per_year < 1:
        raise ValueError("steps_per_year must be a positive integer")
    steps_per_year = int(steps_per_year)
    if not maturity * steps_per_year + n_events <= _MAX_STEPS:
        raise ValueError(
            f"maturity {maturity!r} at {steps_per_year} steps per year with {n_events} event dates "
            f"is not a finite step count of at most {_MAX_STEPS}"
        )
    return steps_per_year


def _validated_events(event_dates: Sequence[float], maturity: float) -> list[float]:
    events = sorted(float(d) for d in event_dates)
    tol = _atol(maturity)
    for d in events:
        if not d > 0.0:
            raise ValueError(f"event date {d!r} is not positive")
        if d > maturity + tol:
            raise ValueError(f"event date {d!r} lies beyond the maturity {maturity!r}")
    for a, b in zip(events, events[1:]):
        if b - a <= _atol(b):
            raise ValueError(f"duplicate event date {b!r}")
    return events


def _merge_close_dates(dates: Iterable[float]) -> list[float]:
    """Sorted dates with near-duplicates (separately rounded quotes of one date) merged."""
    merged: list[float] = []
    for d in sorted(set(dates)):
        if merged and d - merged[-1] <= _atol(d):
            continue
        merged.append(d)
    return merged


@dataclass(frozen=True)
class DiscountCurve:
    """Piecewise-constant instantaneous forward curve.

    ``pillar_times`` start at 0 and are strictly increasing; the rate of the
    last segment extends flat beyond the final pillar.
    """

    pillar_times: tuple[float, ...]
    pillar_rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.pillar_times) != len(self.pillar_rates) or not self.pillar_times:
            raise ValueError("pillar times and rates must be equally long and nonempty")
        if self.pillar_times[0] != 0.0:
            raise ValueError("the first pillar must sit at time 0")
        if any(not b > a for a, b in zip(self.pillar_times, self.pillar_times[1:])):
            raise ValueError("pillar times must be strictly increasing")
        if not math.isfinite(self.pillar_times[-1]):
            raise ValueError("pillar times must be finite")
        if not all(math.isfinite(r) for r in self.pillar_rates):
            raise ValueError("pillar rates must be finite")

    @classmethod
    def flat(cls, rate: float) -> "DiscountCurve":
        return cls((0.0,), (float(rate),))

    @classmethod
    def from_pillars(cls, pillars: Iterable[Mapping[str, float]]) -> "DiscountCurve":
        """Build from ``[{"time": t, "rate": r}, ...]`` records."""
        pairs = [(float(p["time"]), float(p["rate"])) for p in pillars]
        times = tuple(t for t, _ in pairs)
        rates = tuple(r for _, r in pairs)
        return cls(times, rates)

    def forward_rates(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if not np.all(ts >= 0.0):
            raise ValueError("curve evaluation requires t >= 0")
        idx = np.searchsorted(self.pillar_times, ts, side="right") - 1
        return np.asarray(self.pillar_rates)[idx]


def step_rate_integrals(
    curve: DiscountCurve, grid: TimeGrid, spread: float | np.ndarray = 0.0
) -> np.ndarray:
    """Exact integral of the forward plus ``spread`` over each grid step.

    ``spread`` is one finite number, giving shape (n_steps,), or a 1-D array
    of S of them, giving (n_steps, S) with column j at ``spread[j]``.  Every
    piece is (r + z) * dt, the arithmetic of a curve whose pillar rates were
    raised by z.  A step with no pillar strictly inside it is one piece; a
    step that pillars split sums its pieces along a contiguous axis, so a
    column's bits do not depend on the other spreads.
    """
    z = np.asarray(spread, dtype=float)
    if z.ndim > 1 or not np.all(np.isfinite(z)):
        raise ValueError(f"spreads must be finite numbers in at most one axis, got {spread!r}")
    zs = z.reshape(-1)
    times = grid.times_array
    out = (curve.forward_rates(times[:-1])[:, None] + zs) * grid.steps[:, None]
    pillars = np.asarray(curve.pillar_times)
    owner = np.searchsorted(times, pillars, side="right") - 1
    inside = (pillars > times[owner]) & (owner < grid.n_steps)
    for n in np.unique(owner[inside]):
        edges = np.concatenate(([times[n]], pillars[inside & (owner == n)], [times[n + 1]]))
        out[n] = np.sum((curve.forward_rates(edges[:-1]) + zs[:, None]) * np.diff(edges), axis=1)
    return out if z.ndim else out[:, 0]


def step_discounts(
    curve: DiscountCurve, grid: TimeGrid, spread: float | np.ndarray = 0.0
) -> np.ndarray:
    """One-step factors from t_{n+1} back to t_n at r + ``spread``, one row per step."""
    return np.exp(-step_rate_integrals(curve, grid, spread))


def discount_factors(
    curve: DiscountCurve, grid: TimeGrid, spread: float | np.ndarray = 0.0
) -> np.ndarray:
    """Factors from t_0 to every grid date at r + ``spread``, one row per date."""
    integrals = step_rate_integrals(curve, grid, spread)
    return np.exp(-np.concatenate((np.zeros((1,) + integrals.shape[1:]), np.cumsum(integrals, axis=0))))


def stream_values(dfv, cash, recovered, survival, default_mass) -> np.ndarray:
    """t_0 value of the stream paid through each grid date, weighted by a survival curve.

    ``cash[n]`` is paid at t_n to survivors and ``recovered[n]`` at t_{n+1} on the
    mass defaulting in step n.  ``values[n]`` adds the first n steps' terms in
    date order, so reading it at t_n gives the bits of the stream cut there."""
    values = np.zeros(len(dfv))
    np.cumsum(dfv[1:] * survival[1:] * cash[1:] + dfv[1:] * default_mass * recovered, out=values[1:])
    return values
