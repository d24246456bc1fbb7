"""Fitting the intensity model to credit default swap quotes.

CDS legs are sums over the survival curve the lattice records while it
builds: the protection leg collects discounted default mass times the loss
given default, the premium leg collects discounted survival-weighted accrual
(accrual on default is ignored; the effect is one order below the fit
tolerance).  Calibration scans a coarse parameter grid first and then
polishes the best point with a derivative-free simplex search on a
penalized least-squares objective, so the objective stays finite wherever
the optimizer probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .jdcev import DEFAULT_INTENSITY_CAP, JDCEVParams
from .market_data import _MAX_STEPS, DiscountCurve, TimeGrid, _merge_close_dates, build_time_grid, discount_factors
from .tree import IntensityTree, augment_default, build_trinomial


#: The search box of (lambda0, sigma, beta): fitted values are clamped into
#: it, and the objective charges a penalty for probes outside it.
LAMBDA0_BOUNDS, SIGMA_BOUNDS, BETA_BOUNDS = (1e-6, 2.0), (1e-3, 50.0), (-5.0, -1e-3)


class CalibrationError(RuntimeError):
    """No usable starting point or the search never produced finite values."""


@dataclass(frozen=True)
class CDSQuote:
    """A market CDS quote: tenor in years, running spread per year."""

    tenor: float
    spread: float
    side: str = "mid"

    def __post_init__(self) -> None:
        if not self.tenor > 0.0:
            raise ValueError("tenor must be positive")
        if self.spread < 0.0:
            raise ValueError("spread must be nonnegative")
        if self.side not in ("bid", "ask", "mid"):
            raise ValueError(f"unknown quote side {self.side!r}")


@dataclass(frozen=True)
class CalibrationConfig:
    """Knobs for the grid-then-simplex search.

    Grids may be left at the defaults; the lambda0 grid is seeded from the
    average quoted spread when not given.  fixed_sigma / fixed_beta freeze a
    coordinate (useful for one-dimensional fits).
    """

    steps_per_year: int = 4
    premium_frequency: int = 4
    lambda_cap: float = DEFAULT_INTENSITY_CAP
    penalty_weight: float = 10.0
    lambda0_grid: tuple[float, ...] | None = None
    sigma_grid: tuple[float, ...] = (0.5, 1.5, 3.0, 6.0)
    beta_grid: tuple[float, ...] = (-0.3, -0.6, -1.2)
    fixed_sigma: float | None = None
    fixed_beta: float | None = None
    function_tolerance: float = 1e-8
    max_iterations: int = 500

    def __post_init__(self) -> None:
        for key in ("steps_per_year", "premium_frequency", "max_iterations"):
            if not getattr(self, key) >= 1:
                raise ValueError(f"calibration.{key} must be at least 1, got {getattr(self, key)!r}")
        for key in ("function_tolerance", "penalty_weight"):
            if not getattr(self, key) >= 0.0:
                raise ValueError(f"calibration.{key} must be nonnegative, got {getattr(self, key)!r}")
        # the simplex takes logs of lambda0 and sigma; beta < 0 is the model's domain
        for key in ("lambda0_grid", "sigma_grid", "fixed_sigma", "beta_grid", "fixed_beta"):
            value = getattr(self, key)
            if value is None:
                continue
            values = (value,) if key.startswith("fixed") else value
            if len(values) == 0:
                raise ValueError(f"calibration.{key} must hold at least one value")
            if not all((v < 0.0) if "beta" in key else (v > 0.0) for v in values):
                sign = "negative" if "beta" in key else "positive"
                raise ValueError(f"calibration.{key} must be {sign}, got {value!r}")


@dataclass(frozen=True)
class FitReport:
    quotes: tuple[CDSQuote, ...]
    model_spreads: tuple[float, ...]
    objective: float
    iterations: int
    converged: bool
    grid_start: tuple[float, float, float]

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "iterations": self.iterations,
            "converged": self.converged,
            "grid_start": {
                "lambda0": self.grid_start[0],
                "sigma": self.grid_start[1],
                "beta": self.grid_start[2],
            },
            "quotes": [
                {
                    "tenor": q.tenor,
                    "market_spread": q.spread,
                    "model_spread": m,
                    "residual": m - q.spread,
                }
                for q, m in zip(self.quotes, self.model_spreads)
            ],
        }


@dataclass(frozen=True)
class CalibrationResult:
    params: JDCEVParams
    report: FitReport


def premium_dates(tenor: float, premium_frequency: int) -> tuple[float, ...]:
    periods = tenor * premium_frequency
    n_periods = round(periods) if periods <= _MAX_STEPS else 0  # every premium date is a grid date
    if abs(n_periods - periods) > 1e-9 or n_periods < 1:
        raise ValueError(
            f"tenor {tenor!r} is not a whole number of premium periods, at most {_MAX_STEPS}, "
            f"at frequency {premium_frequency}"
        )
    return tuple(j / premium_frequency for j in range(1, n_periods + 1))


def cds_grid(
    tenors: Sequence[float], steps_per_year: int, premium_frequency: int
) -> TimeGrid:
    """Grid spanning the longest tenor with every premium date as a member."""
    horizon = max(tenors)
    events = _merge_close_dates(d for tenor in tenors for d in premium_dates(tenor, premium_frequency))
    return build_time_grid(horizon, steps_per_year, [d for d in events if d < horizon])


def _par_spreads(
    tree: IntensityTree,
    curve: DiscountCurve,
    recovery: float,
    tenors: Sequence[float],
    premium_frequency: int,
) -> np.ndarray:
    """Par spreads (protection-leg value over premium-leg annuity) of several tenors.

    Default during a step pays (1 - recovery) at the step's end; premiums are
    paid at period ends contingent on survival, with no accrual on default.
    """
    if not tree.augmented:
        raise ValueError("CDS pricing requires a default-augmented tree")
    if not 0.0 <= recovery <= 1.0:
        raise ValueError("recovery must lie in [0, 1]")
    grid = tree.grid
    for tenor in tenors:
        if tenor > grid.maturity + 1e-9:
            raise ValueError(f"tenor {tenor!r} exceeds the tree horizon {grid.maturity!r}")
    ends = [grid.index_of(tenor) for tenor in tenors]
    dfv = discount_factors(curve, grid)
    # running sums of the discounted loss on each step's default mass
    protection = np.concatenate([[0.0], np.cumsum(dfv[1:] * tree.default_mass * (1.0 - recovery))])

    spreads = []
    for tenor, end in zip(tenors, ends):
        dates = premium_dates(tenor, premium_frequency)
        paid = [grid.index_of(date) for date in dates]
        annuity = sum(dfv[i] * tree.survival[i] * (b - a) for i, a, b in zip(paid, (0.0,) + dates, dates))
        if annuity <= 0.0:
            raise ValueError("premium annuity is not positive")
        spreads.append(protection[end] / annuity)
    return np.array(spreads)


def price_cds(
    tree: IntensityTree,
    curve: DiscountCurve,
    recovery: float,
    tenor: float,
    premium_frequency: int = 4,
) -> float:
    """Par spread of one tenor: the single-tenor call of :func:`_par_spreads`."""
    return float(_par_spreads(tree, curve, recovery, [tenor], premium_frequency)[0])


def model_spreads(
    params: JDCEVParams,
    tenors: Sequence[float],
    curve: DiscountCurve,
    recovery: float,
    config: CalibrationConfig,
) -> np.ndarray:
    """Par spreads for several tenors off a single lattice build and survival pass."""
    grid = cds_grid(tenors, config.steps_per_year, config.premium_frequency)
    tree = augment_default(build_trinomial(params, grid))
    return _par_spreads(tree, curve, recovery, tenors, config.premium_frequency)


def _clamp(value: float, bounds: tuple[float, float]) -> float:
    return min(max(value, bounds[0]), bounds[1])


def calibration_error(
    values: Sequence[float],
    quotes: Sequence[CDSQuote],
    z0: float,
    curve: DiscountCurve,
    recovery: float,
    config: CalibrationConfig | None = None,
) -> float:
    """Penalized least squares over (lambda0, sigma, beta), total by design.

    Out-of-domain triples are projected onto the configured box for the model
    evaluation and charged a quadratic penalty on the normalized excursion,
    so the optimizer can probe anywhere and still gets a slope pointing back.
    """
    config = config or CalibrationConfig()
    lam0, sigma, beta = (float(v) for v in values)
    boxes = (LAMBDA0_BOUNDS, SIGMA_BOUNDS, BETA_BOUNDS)
    clamped = tuple(_clamp(v, box) for v, box in zip((lam0, sigma, beta), boxes))
    penalty = 0.0
    for v, c, box in zip((lam0, sigma, beta), clamped, boxes):
        width = box[1] - box[0]
        penalty += ((v - c) / width) ** 2
    penalty *= config.penalty_weight

    if not all(math.isfinite(v) for v in (lam0, sigma, beta)):
        return float("inf")

    params = JDCEVParams(
        lambda0=clamped[0], sigma=clamped[1], beta=clamped[2], z0=z0,
        lambda_cap=config.lambda_cap,
    )
    tenors = [q.tenor for q in quotes]
    try:
        model = model_spreads(params, tenors, curve, recovery, config)
    except (ValueError, FloatingPointError, OverflowError):
        return float("inf")
    market = np.array([q.spread for q in quotes])
    return float(np.sum((model - market) ** 2)) + penalty


def _spread_seed(quotes: Sequence[CDSQuote], recovery: float) -> float:
    mean_spread = float(np.mean([q.spread for q in quotes]))
    lgd = max(1.0 - recovery, 1e-6)
    return max(mean_spread / lgd, 1e-5)


def calibrate(
    quotes: Sequence[CDSQuote],
    z0: float,
    curve: DiscountCurve,
    recovery: float,
    config: CalibrationConfig | None = None,
) -> CalibrationResult:
    """Grid scan plus simplex polish; deterministic for a given configuration.

    The simplex runs in (log lambda0, log sigma, beta) coordinates, which
    keeps the search well scaled and positivity automatic.
    """
    # imported here so the other commands do not pay scipy's import time
    from scipy import optimize

    if not quotes:
        raise ValueError("calibration needs at least one quote")
    if not 0.0 <= recovery <= 1.0:
        raise ValueError(f"calibration.recovery must lie in [0, 1], got {recovery!r}")
    quotes = tuple(quotes)
    config = config or CalibrationConfig()

    if config.lambda0_grid is not None:
        lam_grid = config.lambda0_grid
    else:
        seed = _spread_seed(quotes, recovery)
        lam_grid = tuple(_clamp(seed * f, LAMBDA0_BOUNDS) for f in (0.25, 1.0, 4.0))
    sigma_grid = (config.fixed_sigma,) if config.fixed_sigma is not None else config.sigma_grid
    beta_grid = (config.fixed_beta,) if config.fixed_beta is not None else config.beta_grid

    best: tuple[float, tuple[float, float, float]] | None = None
    for lam0 in lam_grid:
        for sigma in sigma_grid:
            for beta in beta_grid:
                value = calibration_error((lam0, sigma, beta), quotes, z0, curve, recovery, config)
                if math.isfinite(value) and (best is None or value < best[0]):
                    best = (value, (float(lam0), float(sigma), float(beta)))
    if best is None:
        raise CalibrationError("no parameter-grid point produced a finite objective")
    grid_start = best[1]

    free: list[str] = ["lambda0"]
    if config.fixed_sigma is None:
        free.append("sigma")
    if config.fixed_beta is None:
        free.append("beta")

    def pack(lam0: float, sigma: float, beta: float) -> list[float]:
        u = [math.log(lam0)]
        if "sigma" in free:
            u.append(math.log(sigma))
        if "beta" in free:
            u.append(beta)
        return u

    def unpack(u: np.ndarray) -> tuple[float, float, float]:
        lam0 = math.exp(u[0])
        pos = 1
        if "sigma" in free:
            sigma = math.exp(u[pos])
            pos += 1
        else:
            sigma = float(config.fixed_sigma)
        beta = float(u[pos]) if "beta" in free else float(config.fixed_beta)
        return lam0, sigma, beta

    def objective(u: np.ndarray) -> float:
        return calibration_error(unpack(u), quotes, z0, curve, recovery, config)

    result = optimize.minimize(
        objective,
        np.asarray(pack(*grid_start)),
        method="Nelder-Mead",
        options={
            "fatol": config.function_tolerance,
            "xatol": 1e-7,
            "maxiter": config.max_iterations,
            "maxfev": 4 * config.max_iterations,
        },
    )
    lam0, sigma, beta = unpack(result.x)
    fitted = JDCEVParams(
        lambda0=_clamp(lam0, LAMBDA0_BOUNDS),
        sigma=_clamp(sigma, SIGMA_BOUNDS),
        beta=_clamp(beta, BETA_BOUNDS),
        z0=z0,
        lambda_cap=config.lambda_cap,
    )
    tenors = [q.tenor for q in quotes]
    fitted_spreads = model_spreads(fitted, tenors, curve, recovery, config)
    market = np.array([q.spread for q in quotes])
    report = FitReport(
        quotes=quotes,
        model_spreads=tuple(float(s) for s in fitted_spreads),
        objective=float(np.sum((fitted_spreads - market) ** 2)),
        iterations=int(result.nit),
        converged=bool(result.success),
        grid_start=grid_start,
    )
    return CalibrationResult(params=fitted, report=report)
