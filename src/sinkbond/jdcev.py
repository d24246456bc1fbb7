"""Credit-equity intensity model.

The default intensity is a negative power of the pre-default stock level,
lambda(z) = lambda0 * (z / z0)^(2*beta) with beta < 0, so falling equity means
rising default risk.  Pricing lattices and simulations do not work on the
stock level directly: a power-law change of variable maps it to a coordinate
with unit diffusion, where equally spaced lattice nodes are natural.  This
module holds the parameter set, the intensity map, the coordinate change,
the drift of the transformed process, and :func:`x_state`, the one map from a
coordinate to what the lattice and the simulation need there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

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
    scalar = z.ndim == 0
    boundary = params.lambda_cap if params.lambda0 > 0.0 else 0.0
    ratio = np.where(z > 0.0, z / params.z0, 1.0)
    lam = params.lambda0 * ratio ** (2.0 * params.beta)
    lam = np.where(z > 0.0, np.minimum(lam, params.lambda_cap), boundary)
    return _maybe_scalar(lam, scalar)


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
    z = (params.sigma * abs(params.beta) * arr) ** (-1.0 / params.beta)
    return _maybe_scalar(z, scalar)


def bessel_drift(params: JDCEVParams, x: ArrayLike) -> ArrayLike:
    """Ito drift of the unit-diffusion coordinate.

    With z = inverse_transform(x), the stock diffusion dZ = lambda(Z) Z dt
    + sigma Z^(beta+1) dW maps to dx = nu(x) dt + dW with

        nu(x) = lambda(z) * z^(-beta) / sigma + 0.5 * (-beta - 1) * sigma * z^beta.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    if np.any(arr <= 0.0):
        raise ValueError("transformed coordinate must be positive")
    z = inverse_transform(params, arr)
    return _maybe_scalar(_drift(params, z, intensity(params, z)), scalar)


def _drift(params: JDCEVParams, z: np.ndarray, lam: ArrayLike) -> np.ndarray:
    """nu(x) from the stock level z > 0 and its intensity lam."""
    drift = lam * z ** (-params.beta) / params.sigma
    return drift + 0.5 * (-params.beta - 1.0) * params.sigma * z ** params.beta


def x_state(params: JDCEVParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stock level, capped intensity and drift at the coordinates ``x``.

    x <= 0 is the default boundary: level 0 and the boundary intensity of
    :func:`intensity`.  The drift is zero there and wherever the intensity is
    capped: such states are numerically certain defaulters, and following the
    diverging boundary drift would only stretch lattice layers (and move
    simulated paths after their default) for mass of size exp(-cap * dt).
    """
    z = np.zeros_like(x)
    pos = x > 0.0
    if pos.any():
        z[pos] = inverse_transform(params, x[pos])
    lam = np.asarray(intensity(params, z), dtype=float)
    drift = np.zeros_like(x)
    live = pos & (lam < params.lambda_cap)
    if live.any():
        drift[live] = _drift(params, z[live], lam[live])
    return z, lam, drift
