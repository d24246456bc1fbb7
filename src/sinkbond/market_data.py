"""Time grids and deterministic discounting.

Times are year fractions from the valuation date. Rates are continuously
compounded instantaneous forwards, piecewise constant between pillars, so
discounting over grid steps is an exact exponential sum rather than an
interpolation artifact.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np


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
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("grid times must be strictly increasing")

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

    def index_of(self, t: float, *, atol: float = 1e-9) -> int:
        """Index of the grid date matching ``t`` within ``atol`` years."""
        i = bisect.bisect_left(self.times, t)
        candidates = [j for j in (i - 1, i, i + 1) if 0 <= j < len(self.times)]
        best = min(candidates, key=lambda j: abs(self.times[j] - t))
        if abs(self.times[best] - t) <= atol:
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
    tolerance of the maturity are served by the maturity point itself.
    """
    if not maturity > 0.0:
        raise ValueError("maturity must be positive")
    if int(steps_per_year) != steps_per_year or steps_per_year < 1:
        raise ValueError("steps_per_year must be a positive integer")
    steps_per_year = int(steps_per_year)
    if not math.isfinite(maturity * steps_per_year):
        raise ValueError(f"maturity {maturity!r} at {steps_per_year} steps per year is not a finite step count")

    events = _validated_events(event_dates, maturity)

    h = 1.0 / steps_per_year
    n_whole = int(math.floor(maturity * steps_per_year + 1e-9))
    pts = [i / steps_per_year for i in range(n_whole + 1)]
    if abs(pts[-1] - maturity) <= _atol(maturity):
        pts[-1] = maturity
    else:
        pts.append(maturity)

    if events:
        ev = np.asarray(events)
        kept = [pts[0]]
        for p in pts[1:-1]:
            gap = float(np.min(np.abs(ev - p)))
            if gap < 0.5 * h * (1.0 - 1e-12):
                continue  # this uniform point snaps onto the nearby event
            kept.append(p)
        kept.append(pts[-1])
        interior = [d for d in events if d < maturity - _atol(maturity)]
        pts = sorted(kept + interior)

    grid = TimeGrid(tuple(float(t) for t in pts))
    return grid


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
        if any(b <= a for a, b in zip(self.pillar_times, self.pillar_times[1:])):
            raise ValueError("pillar times must be strictly increasing")
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

    def shifted(self, spread: float) -> "DiscountCurve":
        """The same pillars with every forward rate raised by ``spread``."""
        return DiscountCurve(self.pillar_times, tuple(r + spread for r in self.pillar_rates))

    def forward_rates(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < 0.0):
            raise ValueError("curve evaluation requires t >= 0")
        idx = np.searchsorted(self.pillar_times, ts, side="right") - 1
        return np.asarray(self.pillar_rates)[idx]


def step_rate_integrals(curve: DiscountCurve, grid: TimeGrid) -> np.ndarray:
    """Exact integral of the forward over each grid step, length n_steps.

    A step with no pillar strictly inside it integrates to r(t_n) * dt_n; a
    step that pillars split sums rate times length over its pieces.
    """
    times = grid.times_array
    out = curve.forward_rates(times[:-1]) * grid.steps
    pillars = np.asarray(curve.pillar_times)
    owner = np.searchsorted(times, pillars, side="right") - 1
    inside = (pillars > times[owner]) & (owner < grid.n_steps)
    for n in np.unique(owner[inside]):
        edges = np.concatenate(([times[n]], pillars[inside & (owner == n)], [times[n + 1]]))
        out[n] = np.sum(curve.forward_rates(edges[:-1]) * np.diff(edges))
    return out


def rate_integrals(curve: DiscountCurve, grid: TimeGrid) -> np.ndarray:
    """Cumulative forward integrals; entry m integrates from t_0 up to t_m."""
    return np.concatenate(([0.0], np.cumsum(step_rate_integrals(curve, grid))))


def step_discounts(curve: DiscountCurve, grid: TimeGrid) -> np.ndarray:
    """One-step factors from t_{n+1} back to t_n, length n_steps."""
    return np.exp(-step_rate_integrals(curve, grid))


def discount_factors(curve: DiscountCurve, grid: TimeGrid) -> np.ndarray:
    """Factors from t_0 to every grid date, length n_steps + 1."""
    return np.exp(-rate_integrals(curve, grid))


def discount_factor(curve: DiscountCurve, grid: TimeGrid, start: int, stop: int) -> float:
    """exp(-integral of the forward from t_start to t_stop); 1 when start == stop."""
    if not 0 <= start <= stop <= grid.n_steps:
        raise ValueError(f"invalid index range ({start}, {stop}) for a grid with {grid.n_steps} steps")
    integrals = rate_integrals(curve, grid)
    return math.exp(-(integrals[stop] - integrals[start]))
