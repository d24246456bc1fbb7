"""Seeded inputs for the three workloads and the checks every report must pass.

A workload is a fixed list of CLI ops.  The seed draws every market and
contract value (coupons, recoveries, curve level and slope, spreads, the Monte
Carlo seed and the op order), while the shapes
that set the amount of work -- maturities, coupon frequencies, installment
sets and nominal grid sizes K -- come from a fixed table.  Different seeds
therefore give different inputs of the same size, so a run's timings can be
compared across seeds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

FITTED_MODEL = {"lambda0": 0.004, "sigma": 2.8199, "beta": -0.6, "z0": 30.0}

#: The README example bond (10 y, 8 % annual coupon, alpha 75, 5 %/10 %).
README_BOND = {
    "maturity": 10.0,
    "coupon_rate": 0.08,
    "coupon_frequency": 1,
    "redemption_dates": [float(y) for y in range(1, 10)],
    "admissible_fractions": [0.05, 0.10],
    "alpha": 75.0,
    "recovery": 0.4,
}
README_CURVE = {"pillars": [{"time": 0.0, "rate": 0.02}]}
README_CONFIG = {"curve": README_CURVE, "model": FITTED_MODEL, "bond": README_BOND}
#: Published README-bond prices by steps per year; reports must reproduce them.
README_PRICES = {12: 1.159818000111499, 52: 1.160068922241197, 252: 1.15969168568816}
README_TOL = 1e-9

#: (maturity, coupon frequency, installment set, alpha, allow_skip, full_call).
#: K = alpha / (smallest installment * 100) runs from 5 to 20.
BOOK_SHAPES = (
    (5, 1, (0.05, 0.10), 25.0, False, False),  # K 5
    (6, 2, (0.10, 0.20), 50.0, False, False),  # K 5
    (7, 1, (0.05, 0.10, 0.15), 75.0, True, False),  # K 15
    (8, 2, (0.05, 0.10), 50.0, False, True),  # K 10
    (9, 1, (0.10, 0.20), 100.0, True, False),  # K 10
    (10, 1, (0.05, 0.10), 75.0, False, False),  # K 15
    (10, 2, (0.05, 0.10, 0.15), 100.0, False, False),  # K 20
    (11, 1, (0.05, 0.10), 100.0, True, True),  # K 20
    (12, 2, (0.10, 0.20), 50.0, False, False),  # K 5
    (12, 1, (0.05, 0.10, 0.15), 75.0, False, True),  # K 15
    (8, 1, (0.05, 0.10), 25.0, True, False),  # K 5
    (6, 1, (0.10, 0.20), 100.0, False, False),  # K 10
)
#: Book bonds (by shape) used for zspread, and made callable-style for worst.
ZSPREAD_SHAPES = (0, 3, 6, 9)
WORST_SHAPES = (1, 4, 7, 10)
MC_PATHS = 100_000

PRICE_TOL = 1e-12  # slack on price <= forced_max / forced_min and option_value >= 0
ZSPREAD_TOL = 1e-8  # criterion 6
WORST_TOL = 1e-10  # criterion 7


@dataclass
class Op:
    """One CLI command on one generated config."""

    name: str
    command: str
    config: dict
    steps_per_year: int | None = None
    expect: dict = field(default_factory=dict)

    def argv(self, config_path: Path, out_path: Path) -> list[str]:
        argv = [self.command, "--config", str(config_path), "--out", str(out_path)]
        if self.steps_per_year is not None:
            argv += ["--steps-per-year", str(self.steps_per_year)]
        return argv


def _curve(rng: random.Random) -> dict:
    """Upward-sloping piecewise-constant forwards with pillars on whole years."""
    base = rng.uniform(0.01, 0.03)
    slope = rng.uniform(0.001, 0.003)
    return {"pillars": [{"time": float(y), "rate": round(base + slope * y, 6)} for y in range(13)]}


def _book(rng: random.Random) -> list[dict]:
    bonds = []
    for maturity, freq, fractions, alpha, skip, call in BOOK_SHAPES:
        bonds.append(
            {
                "maturity": float(maturity),
                "coupon_rate": round(rng.uniform(0.03, 0.09), 4),
                "coupon_frequency": freq,
                "redemption_dates": [float(y) for y in range(1, maturity)],
                "admissible_fractions": list(fractions),
                "alpha": alpha,
                "recovery": round(rng.uniform(0.3, 0.5), 2),
                "allow_skip": skip,
                "full_call": call,
            }
        )
    return bonds


def _callable_style(bond: dict) -> dict:
    return dict(bond, admissible_fractions=[], alpha=100.0, allow_skip=True, full_call=True)


def build(workload: str, seed: int) -> list[Op]:
    """The fixed op list of a workload, with inputs drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "book-52":
        curve = _curve(rng)
        ops = [
            Op(f"price[{i}]", "price", {"curve": curve, "model": FITTED_MODEL, "bond": bond}, 52)
            for i, bond in enumerate(_book(rng))
        ]
        rng.shuffle(ops)
        return ops
    if workload == "dense-252":
        return [
            Op("price[readme]", "price", README_CONFIG, 252, {"price": README_PRICES[252]}),
            Op("validate-tree[readme]", "validate-tree", README_CONFIG, 252),
        ]
    if workload == "desk-12":
        curve = _curve(rng)
        book = _book(rng)
        ops = []
        for i in ZSPREAD_SHAPES:
            # the market price is the bond priced at this spread, in fill_inputs
            target = round(rng.uniform(0.0, 0.05), 6)
            ops.append(Op(f"zspread[{i}]", "zspread", {"curve": curve, "bond": book[i], "zspread": {}},
                          expect={"spread": target}))
        for i in WORST_SHAPES:
            spread = round(rng.uniform(0.005, 0.05), 6)
            ops.append(Op(f"worst[{i}]", "worst",
                          {"curve": curve, "bond": _callable_style(book[i]), "worst": {"spread": spread}}))
        ops.append(Op("mc-check[readme]", "mc-check",
                      dict(README_CONFIG, mc={"n_paths": MC_PATHS, "seed": seed, "schedule": "max"})))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def readme_check_op(workload: str) -> Op | None:
    """The README-bond price at the workload's density, when no timed op covers it."""
    density = {"book-52": 52, "desk-12": 12}.get(workload)
    if density is None:
        return None
    return Op("price[readme]", "price", README_CONFIG, density, {"price": README_PRICES[density]})


def fill_inputs(ops: list[Op]) -> None:
    """Complete inputs that come from a drawn spread.

    A zspread market price is the bond's deterministic price at the drawn
    spread, as in criterion 6, so every price is attainable.
    """
    from sinkbond.pricer import deterministic_spread_price

    for op in ops:
        if op.command == "zspread":
            spec, curve, grid = _problem_inputs(op.config, op.steps_per_year or 12)
            op.config["zspread"]["market_price"] = deterministic_spread_price(
                spec, curve, grid, op.expect["spread"])


def _non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_non_finite(v) for v in value.values())
    if isinstance(value, list):
        return any(_non_finite(v) for v in value)
    return False


def _problem_inputs(config: dict, steps_per_year: int):
    from sinkbond.instruments import SinkingBondSpec, bond_grid
    from sinkbond.market_data import DiscountCurve

    bond = dict(config["bond"])
    bond["redemption_dates"] = tuple(bond["redemption_dates"])
    bond["admissible_fractions"] = tuple(bond["admissible_fractions"])
    spec = SinkingBondSpec(**bond)
    curve = DiscountCurve.from_pillars(config["curve"]["pillars"])
    return spec, curve, bond_grid(spec, steps_per_year)


def check(op: Op, exit_code: int, text: str) -> str | None:
    """Why a report fails its checks, or None when it passes."""
    if exit_code != 0:
        return f"exit code {exit_code}: {text.strip()[:300]}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if _non_finite(report):
        return "report holds a non-finite number"
    spy = op.steps_per_year or 12
    if op.command == "price":
        price = report["price"]
        if price > report["forced_max"] + PRICE_TOL or price > report["forced_min"] + PRICE_TOL:
            return f"price {price!r} above a forced schedule"
        if report["option_value"] < -PRICE_TOL:
            return f"negative option value {report['option_value']!r}"
        if "price" in op.expect and abs(price - op.expect["price"]) > README_TOL:
            return f"price {price!r} != published {op.expect['price']!r}"
    elif op.command == "validate-tree":
        if not report["ok"]:
            return f"lattice violations: {report['violations'][:3]}"
    elif op.command == "zspread":
        from sinkbond.pricer import deterministic_spread_price

        spec, curve, grid = _problem_inputs(op.config, spy)
        repriced = deterministic_spread_price(spec, curve, grid, report["z_spread"])
        if abs(repriced - report["market_price"]) > ZSPREAD_TOL:
            return f"z-spread reprices to {repriced!r}, market {report['market_price']!r}"
    elif op.command == "worst":
        from sinkbond.pricer import deterministic_spread_price

        spec, curve, grid = _problem_inputs(op.config, spy)
        program = deterministic_spread_price(spec, curve, grid, report["spread"])
        if abs(program - report["worst_price"]) > WORST_TOL:
            return f"worst {report['worst_price']!r} != deterministic program {program!r}"
    return None
