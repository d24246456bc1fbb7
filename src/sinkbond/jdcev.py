"""Credit-equity intensity model.

The default intensity is a negative power of the pre-default stock level,
lambda(z) = lambda0 * (z / z0)^(2*beta) with beta < 0, so falling equity means
rising default risk.  Pricing lattices and simulations do not work on the
stock level directly: a power-law change of variable maps it to a coordinate
with unit diffusion, where equally spaced lattice nodes are natural and the
model is rational: intensity lambda0 * (x0 / x)^2 and a drift in 1 / x.  This
module holds the parameter set, the intensity map, the coordinate change
and :func:`x_state`, the one map from a coordinate to the intensity and
drift that the lattice and the simulation need there, in whole-array passes
with no power that can fill caller-owned buffers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

#: Default ceiling for the intensity, per year.  The intensity diverges as the
#: stock level approaches zero; a finite cap keeps one-step default
#: probabilities well defined (1 - exp(-cap * dt) is 1 to machine precision on
#: any realistic step) without infinities in the arithmetic.
DEFAULT_INTENSITY_CAP = 1e4


@dataclass(frozen=True)
class JDCEVParams:
    """Model parameters, all finite.

    lambda0: intensity at the initial stock level, 1/years (>= 0; zero gives
        the default-free limit).
    sigma: volatility scale of the stock diffusion (> 0).
    beta: elasticity exponent (< 0).
    z0: initial pre-default stock level (> 0).
    lambda_cap: ceiling applied to the intensity, 1/years (> 0).
    """

    lambda0: float
    sigma: float
    beta: float
    z0: float
    lambda_cap: float = DEFAULT_INTENSITY_CAP

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda0 < np.inf:
            raise ValueError("lambda0 must be finite and nonnegative")
        if not 0.0 < self.sigma < np.inf:
            raise ValueError("sigma must be finite and positive")
        if not -np.inf < self.beta < 0.0:
            raise ValueError("beta must be finite and negative")
        if not 0.0 < self.z0 < np.inf:
            raise ValueError("z0 must be finite and positive")
        if not 0.0 < self.lambda_cap < np.inf:
            raise ValueError("lambda_cap must be finite and positive")


def _maybe_scalar(value: np.ndarray, scalar: bool) -> ArrayLike:
    return float(value) if scalar else value


def intensity(params: JDCEVParams, z_level: ArrayLike) -> ArrayLike:
    """Default intensity at a stock level, capped at ``params.lambda_cap``.

    Non-positive levels sit on the default boundary: the intensity diverges
    there, so they return the cap -- except in the lambda0 = 0 limit, where
    the intensity is identically zero and so is its boundary value.
    """
    z = np.asarray(z_level, dtype=float)
    if params.lambda0 == 0.0:
        return _maybe_scalar(np.zeros(z.shape), z.ndim == 0)
    lam = np.divide(np.where(z > 0.0, z, 0.0), params.z0, out=np.empty(z.shape))
    with np.errstate(divide="ignore", over="ignore"):  # a ratio at or underflowing to 0 diverges: capped below
        lam **= 2.0 * params.beta
        lam *= params.lambda0
    return _maybe_scalar(np.fmin(lam, params.lambda_cap, out=lam), z.ndim == 0)


def transform(params: JDCEVParams, z_level: ArrayLike) -> ArrayLike:
    """Map a stock level to the unit-diffusion coordinate x = z^(-beta) / (sigma |beta|)."""
    z = np.asarray(z_level, dtype=float)
    scalar = z.ndim == 0
    if np.any(z <= 0.0):
        raise ValueError("stock level must be positive")
    x = z ** (-params.beta) / (params.sigma * abs(params.beta))
    return _maybe_scalar(x, scalar)


def inverse_transform(params: JDCEVParams, x: ArrayLike) -> ArrayLike:
    """Exact inverse of :func:`transform`."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    if np.any(arr <= 0.0):
        raise ValueError("transformed coordinate must be positive")
    return _maybe_scalar(_level(params, arr), scalar)


def _level(params: JDCEVParams, x: np.ndarray) -> np.ndarray:
    """The stock level (sigma |beta| x)^(-1/beta); 0 at x = 0."""
    z = np.multiply(x, params.sigma * abs(params.beta))
    z **= -1.0 / params.beta
    return z


@functools.lru_cache(maxsize=16)
def _rational(params: JDCEVParams) -> tuple[float, float]:
    """x0, the coordinate of z0, and the drift's numerator lambda0 * x0^2 * b + (b - 1) / (2b), b = -beta."""
    x0, b = float(transform(params, params.z0)), -params.beta
    return x0, params.lambda0 * x0 * x0 * b + 0.5 * (b - 1.0) / b


def x_state(params: JDCEVParams, x: np.ndarray, out: Optional[tuple] = None) -> tuple[np.ndarray, np.ndarray]:
    """Capped intensity and drift at the coordinates ``x``, with no level and no power.

    In x the model is rational.  With x0 the coordinate of z0 and b = -beta,
    z^b = sigma * b * x turns lambda0 * (z / z0)^(2 beta) into
    lambda0 * (x0 / x)^2, and the Ito drift of dZ = lambda(Z) Z dt +
    sigma Z^(beta+1) dW, lambda * z^b / sigma + (b - 1) * sigma * z^(-b) / 2,
    into nu(x) = (lambda0 * x0^2 * b + (b - 1) / (2b)) / x.

    x <= 0 or NaN is the default boundary, with the boundary intensity of
    :func:`intensity` and drift 0.  Elsewhere the intensity is
    min(lambda0 * (x0 / x)^2, cap), the ratio taken first so lambda0 * x0^2
    cannot underflow, and a ratio past the float range is capped quietly.
    The drift is nu(x) where the intensity is below the cap (at every x > 0
    when lambda0 = 0) and 0 where it is capped: with lambda0 > 0 such states
    are numerically certain defaulters, and following the diverging boundary
    drift would only stretch lattice layers (and move simulated paths after
    their default) for mass of size exp(-cap * dt).

    Whole-array passes with no gather: ``fmax`` sends the boundary to x0 / 0,
    ``fmin`` caps the intensity, and the drift's quotient runs under one
    ``live`` mask, so its values, warnings and errors are those of the
    formula taken only where it applies.  ``out``, an (intensity, drift)
    pair of float arrays of x's shape other than x, is filled.
    """
    lam, drift = out if out is not None else (np.empty(np.shape(x)), np.empty(np.shape(x)))
    x0, numerator = _rational(params)
    if params.lambda0 == 0.0:
        lam.fill(0.0)
        live = np.greater(x, 0.0)
    else:
        with np.errstate(divide="ignore", over="ignore"):  # an infinite or overflowed ratio: capped below
            np.divide(x0, np.fmax(x, 0.0, out=lam), out=lam)
            lam *= lam
            lam *= params.lambda0
        live = np.fmin(lam, params.lambda_cap, out=lam) < params.lambda_cap
    drift.fill(0.0)
    return lam, np.divide(numerator, x, out=drift, where=live)
