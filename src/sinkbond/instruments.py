"""Bond contract descriptions: coupons, redemption rules, recovery.

Remaining nominals live on the grid {0, 1/K, ..., 1} of fractions of the
CURRENTLY outstanding notional.  Redemption installments are quoted as
fractions of the ORIGINAL issue size; with alpha percent of the issue still
outstanding, an installment f rescales to f * 100 / alpha per unit held.  K
defaults to alpha / (smallest installment * 100), the coarsest grid on which
every rescaled installment is exact; K may not exceed 10^6.  What may be
redeemed depends only on s and the kind of date: see :func:`action_table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .market_data import _MAX_NOMINAL_STEPS, _MAX_STEPS, TimeGrid, _merge_close_dates, build_time_grid


@dataclass(frozen=True)
class SinkingBondSpec:
    """A coupon bond whose issuer may redeem the notional in installments.

    maturity: years; coupon_rate: per-year fraction of the remaining nominal;
    coupon_frequency: payments per year.  redemption_dates are the decision
    dates (strictly inside (0, maturity)); the amount chosen at such a date is
    paid one grid step later, together with that step's coupon.
    admissible_fractions are the allowed installment sizes as fractions of the
    original issue; alpha is the percentage still outstanding.  allow_skip
    additionally permits redeeming nothing at a redemption date; full_call
    additionally permits redeeming the entire remainder (a classic call).
    recovery is the fraction of the remaining nominal paid once upon default.
    """

    maturity: float
    coupon_rate: float = 0.0
    coupon_frequency: int = 1
    redemption_dates: tuple[float, ...] = ()
    admissible_fractions: tuple[float, ...] = ()
    alpha: float = 100.0
    recovery: float = 0.4
    nominal_steps: int | None = None
    allow_skip: bool = False
    full_call: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "redemption_dates", tuple(sorted(float(d) for d in self.redemption_dates)))
        object.__setattr__(self, "admissible_fractions", tuple(sorted(float(f) for f in self.admissible_fractions)))

        if not self.maturity > 0.0:
            raise ValueError("maturity must be positive")
        if not 0.0 <= self.coupon_rate < math.inf:
            raise ValueError("coupon_rate must be finite and nonnegative")
        if int(self.coupon_frequency) != self.coupon_frequency or self.coupon_frequency < 1:
            raise ValueError("coupon_frequency must be a positive integer")
        object.__setattr__(self, "coupon_frequency", int(self.coupon_frequency))
        if self.coupon_rate > 0.0:
            periods = self.maturity * self.coupon_frequency
            if not periods <= _MAX_STEPS:  # every coupon date is a grid date
                raise ValueError(f"{periods!r} coupon periods exceed the grid limit of {_MAX_STEPS} steps")
            if abs(periods - round(periods)) > 1e-9:
                raise ValueError("maturity must be a whole number of coupon periods")
        if not 0.0 <= self.recovery <= 1.0:
            raise ValueError("recovery must lie in [0, 1]")
        for d in self.redemption_dates:
            if not 0.0 < d < self.maturity:
                raise ValueError(
                    f"redemption date {d!r} must lie strictly inside (0, maturity); "
                    "full redemption at maturity is implicit"
                )
        for a, b in zip(self.redemption_dates, self.redemption_dates[1:]):
            if b - a <= 1e-12:
                raise ValueError(f"duplicate redemption date {b!r}")
        for f in self.admissible_fractions:
            if not 0.0 < f <= 1.0:
                raise ValueError(f"admissible fraction {f!r} must lie in (0, 1]")
        for a, b in zip(self.admissible_fractions, self.admissible_fractions[1:]):
            if b - a <= 1e-12:
                raise ValueError(f"duplicate admissible fraction {b!r}")
        if not 0.0 < self.alpha <= 100.0:
            raise ValueError("alpha must lie in (0, 100]")
        for flag in ("allow_skip", "full_call"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(f"{flag} must be true or false, got {getattr(self, flag)!r}")

        if self.admissible_fractions:
            smallest = self.admissible_fractions[0] * 100.0
            ratio = self.alpha / smallest
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(
                    "alpha must be a positive multiple of the smallest admissible "
                    f"fraction times 100 (alpha={self.alpha!r}, smallest installment "
                    f"{self.admissible_fractions[0]!r})"
                )
            default_steps = int(round(ratio))
        else:
            default_steps = 1

        steps = self.nominal_steps if self.nominal_steps is not None else default_steps
        if int(steps) != steps or steps < 1:
            raise ValueError("nominal_steps must be a positive integer")
        if steps > _MAX_NOMINAL_STEPS:
            raise ValueError(f"nominal grid of {steps} steps exceeds the limit of {_MAX_NOMINAL_STEPS}")
        object.__setattr__(self, "nominal_steps", int(steps))
        for f in self.admissible_fractions:
            self.fraction_to_index(f)

    @property
    def redemption_indices(self) -> tuple[int, ...]:
        """Installment sizes in nominal-grid units, smallest first."""
        return tuple(map(self.fraction_to_index, self.admissible_fractions))

    def fraction_to_index(self, fraction: float) -> int:
        """Installment size (fraction of the original issue) in grid units."""
        units = fraction * 100.0 / self.alpha * self.nominal_steps
        if abs(units - round(units)) > 1e-9:
            raise ValueError(f"installment {fraction!r} is not exact on a nominal grid of {self.nominal_steps} steps")
        return int(round(units))


def redemption_stages(spec: SinkingBondSpec, grid: TimeGrid) -> frozenset[int]:
    """Grid indices of the redemption decision dates; all must be grid dates."""
    stages = set()
    for d in spec.redemption_dates:
        try:
            stages.add(grid.index_of(d))
        except ValueError as exc:
            raise ValueError(f"redemption date {d!r} is not on the time grid") from exc
    return frozenset(stages)


def action_table(spec: SinkingBondSpec, grid: TimeGrid) -> tuple[np.ndarray, ...]:
    """One read-only (K+1, A) table of admissible redemption amounts (grid units) per stage.

    Row s lists the amounts admissible at nominal index s, largest first; a
    shorter row repeats its smallest amount.  Three tables exist, shared by
    all stages: the final stage redeems s, even on a redemption date; a
    redemption date offers the installments not exceeding s plus 0
    (allow_skip) and s (full_call), or the stub s when none of these exist;
    any other date redeems nothing.  The dtype is the smallest that holds K.
    """
    k = spec.nominal_steps
    s = np.arange(k + 1, dtype=np.min_scalar_type(k))[:, None]
    final, hold = s, 0 * s
    # candidates largest first: installments above K never fit (nor may the
    # dtype hold them), and the trailing stub column fits only where nothing else does
    installments = [np.full_like(s, a) for a in spec.redemption_indices[::-1] if a <= k]
    cand = np.hstack([s] * spec.full_call + installments + [hold] * spec.allow_skip + [s])
    fits = cand <= s
    fits[:, -1] = ~fits[:, :-1].any(axis=1)
    # the misfits, installments above s, form one block after the full_call
    # column: skip it, and pad each row with its last (smallest) fit
    n_fit = fits.sum(axis=1, keepdims=True)
    col = np.minimum(np.arange(n_fit.max()), n_fit - 1)
    col = np.where(col < spec.full_call, col, col + (~fits[:, :-1]).sum(axis=1, keepdims=True))
    redeem = np.take_along_axis(cand, col, axis=1)
    for table in (final, redeem, hold):
        table.flags.writeable = False
    stages = redemption_stages(spec, grid)
    return tuple(redeem if n in stages else hold for n in range(grid.n_steps - 1)) + (final,)


def coupon_dates(spec: SinkingBondSpec) -> tuple[float, ...]:
    if spec.coupon_rate == 0.0:
        return ()
    n_periods = int(round(spec.maturity * spec.coupon_frequency))
    return tuple(j / spec.coupon_frequency for j in range(1, n_periods + 1))


def coupons_on_grid(spec: SinkingBondSpec, grid: TimeGrid) -> np.ndarray:
    """Coupon amounts per grid date (index n pays at t_n); zero off-schedule."""
    coupons = np.zeros(grid.n_steps + 1)
    per_period = spec.coupon_rate / spec.coupon_frequency
    for d in coupon_dates(spec):
        try:
            idx = grid.index_of(d)
        except ValueError as exc:
            raise ValueError(f"coupon date {d!r} is not on the time grid") from exc
        coupons[idx] = per_period
    return coupons


def bond_event_dates(spec: SinkingBondSpec) -> tuple[float, ...]:
    """All cashflow-relevant dates the time grid must contain."""
    return tuple(_merge_close_dates(coupon_dates(spec) + spec.redemption_dates))


def bond_grid(spec: SinkingBondSpec, steps_per_year: int) -> TimeGrid:
    """Time grid for the bond with every event date as an exact grid member."""
    return build_time_grid(spec.maturity, steps_per_year, bond_event_dates(spec))
