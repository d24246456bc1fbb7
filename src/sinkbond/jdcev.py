"""Credit-equity intensity model.

The default intensity is a negative power of the pre-default stock level,
lambda(z) = lambda0 * (z / z0)^(2*beta) with beta < 0, so falling equity means
rising default risk.  Pricing lattices and simulations do not work on the
stock level directly: a power-law change of variable maps it to a coordinate
with unit diffusion, where equally spaced lattice nodes are natural.  This
module holds the parameter set, the intensity map, the coordinate change
and :func:`x_state`, the one map from a coordinate to the stock level,
intensity and drift that the lattice and the simulation need there, in
whole-array passes that can fill caller-owned buffers.
"""

from __future__ import annotations

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
    lam = _intensity(params, np.where(z > 0.0, z, 0.0), np.empty(z.shape))
    return _maybe_scalar(lam, z.ndim == 0)


def _intensity(params: JDCEVParams, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The capped intensity at levels z >= 0, written into ``out``: the cap at 0 unless lambda0 = 0."""
    if params.lambda0 == 0.0:
        out[...] = 0.0
        return out
    np.divide(z, params.z0, out=out)
    with np.errstate(divide="ignore", over="ignore"):  # a ratio at or underflowing to 0 diverges: capped below
        out **= 2.0 * params.beta
        out *= params.lambda0
    return np.fmin(out, params.lambda_cap, out=out)


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


def _level(params: JDCEVParams, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The stock level (sigma |beta| x)^(-1/beta); 0 at x = 0."""
    z = np.multiply(x, params.sigma * abs(params.beta), out=out)
    z **= -1.0 / params.beta
    return z


def _drift(params: JDCEVParams, z: np.ndarray, lam: ArrayLike, out: Optional[np.ndarray] = None,
           where: Union[bool, np.ndarray] = True) -> np.ndarray:
    """Ito drift nu(x) of the unit-diffusion coordinate at level z > 0 with intensity lam.

    The stock diffusion dZ = lambda(Z) Z dt + sigma Z^(beta+1) dW maps to
    dx = nu(x) dt + dW with

        nu(x) = lambda(z) * z^(-beta) / sigma + 0.5 * (-beta - 1) * sigma * z^beta.

    The powers are taken only where ``where`` holds; elsewhere the drift is 0,
    with no floating-point flag, if ``out`` holds zeros and lam is finite.
    """
    drift = np.power(z, -params.beta, out=out, where=where)
    drift *= lam
    drift /= params.sigma
    convexity = np.power(z, params.beta, out=np.zeros_like(z), where=where)
    np.multiply(convexity, 0.5 * (-params.beta - 1.0) * params.sigma, out=convexity, where=where)
    return np.add(drift, convexity, out=drift)


def x_state(params: JDCEVParams, x: np.ndarray, out: Optional[tuple] = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stock level, capped intensity and drift at the coordinates ``x``.

    x <= 0 is the default boundary: level 0 and the boundary intensity of
    :func:`intensity`.  The drift is zero at level 0, which a positive x can
    underflow to, and wherever the intensity is capped: with lambda0 > 0 such
    states are numerically certain defaulters, and following the diverging
    boundary drift would only stretch lattice layers (and move simulated
    paths after their default) for mass of size exp(-cap * dt).

    Whole-array passes with no gather: ``fmax`` clamps the level's input at 0
    (NaN too), ``fmin`` caps the intensity, and the drift's powers run under
    one ``live`` mask, so values, warnings and errors are those of each
    formula taken only where it applies.  ``out``, a (level, intensity,
    drift) triple of float arrays of x's shape other than x, is filled.
    """
    z, lam, drift = out if out is not None else (np.empty(np.shape(x)) for _ in range(3))
    np.add(np.fmax(x, 0.0, out=z), 0.0, out=z)  # + 0.0: fmax may keep -0.0, which an odd power keeps
    _level(params, z, out=z)
    _intensity(params, z, lam)
    live = z > 0.0 if params.lambda0 == 0.0 else lam < params.lambda_cap  # lambda0 > 0 caps level 0
    drift.fill(0.0)
    return z, lam, _drift(params, z, lam, out=drift, where=live)
