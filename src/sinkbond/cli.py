"""Batch front door: one JSON config in, one JSON report out.

A config holds named sections (grid, curve, model, bond, quotes, mc,
zspread, worst, calibration); each command reads the sections it needs.
:func:`load_config` types every value once, by one rule: a number is a
finite JSON number or a string holding one, an integer is a JSON number
without a fractional part, a flag is JSON ``true`` or ``false``, a number
list is a JSON list of JSON numbers, and ``null`` is allowed only where the
default is ``null``; a boolean is never a number.  Unknown keys are rejected
by name in every record (sections, quotes, curve pillars), and a malformed
value anywhere exits 2 with its key path in the error.  Reports are
deterministic byte for byte given the same config and seed.

Exit codes: 0 success, 2 malformed config, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import types
from pathlib import Path
from typing import Any, Mapping, get_args, get_origin, get_type_hints

import numpy as np

from .calibration import (
    CalibrationConfig,
    CalibrationError,
    CDSQuote,
    calibrate,
)
from .instruments import SinkingBondSpec, bond_grid
from .jdcev import JDCEVParams
from .market_data import DiscountCurve, build_time_grid
from .mc import mc_price_fixed_policy, simulate_paths
from .pricer import (
    DEFAULT_Z_SPREAD_BRACKET,
    UnattainablePriceError,
    price_fixed_schedule,
    price_report,
    worst_ansatz,
    z_spread,
)
from .tree import TreeConstructionError, augment_default, build_trinomial, validate_tree

DEFAULT_STEPS_PER_YEAR = 12
DEFAULT_MC_PATHS = 100_000
DEFAULT_MC_SEED = 0
DEFAULT_MC_SCHEDULE = "max"

_PILLAR = {"time": float, "rate": float}

#: The kind of every config value by section and key, typed where a section
#: builds a dataclass; a dict is a record and a one-element list a list of
#: such records.
_KINDS: dict[str, Any] = {
    "grid": {"steps_per_year": int, "maturity": float},
    "curve": {"pillars": [_PILLAR], "file": str},
    "model": get_type_hints(JDCEVParams),
    "bond": get_type_hints(SinkingBondSpec),
    "quotes": [get_type_hints(CDSQuote)],
    "mc": {"n_paths": int, "seed": int, "schedule": str | dict[float, float]},
    "zspread": dict.fromkeys(("market_price", "bracket_low", "bracket_high"), float),
    "worst": {"spread": float},
    "calibration": {**get_type_hints(CalibrationConfig), "recovery": float},
}


class ConfigError(ValueError):
    """The config file is missing, malformed, or carries unknown/invalid keys."""


def _value(kind: Any, value: Any, path: str) -> Any:
    """``value`` read as ``kind`` by the module's rule; a misfit raises a ConfigError naming ``path``."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be a JSON object, got {value!r}")
        for key in value:
            if key not in kind:
                raise ConfigError(f"unknown key {path + '.' + key!r}")
        return {key: _value(kind[key], v, f"{path}.{key}") for key, v in value.items()}
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        return [_value(kind[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(kind, types.UnionType):  # X | None, or a schedule's rule | map
        members = get_args(kind)
        if value is None and types.NoneType in members:
            return None
        kind = members[-1] if isinstance(value, dict) and get_origin(members[-1]) is dict else members[0]
    if get_origin(kind) is tuple:
        if not isinstance(value, list) or any(isinstance(v, str) for v in value):
            raise ConfigError(f"{path} must be a list of numbers, got {value!r}")
        return tuple(_value(float, v, f"{path}[{i}]") for i, v in enumerate(value))
    if get_origin(kind) is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be a JSON object, got {value!r}")
        return {_value(float, k, f"{path} key"): _value(float, v, f"{path}[{k!r}]") for k, v in value.items()}
    if kind in (bool, str):
        if not isinstance(value, kind):
            raise ConfigError(f"{path} must be {'true or false' if kind is bool else 'a string'}, got {value!r}")
        return value
    name = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or not isinstance(value, (int, float, str)) or kind is int and isinstance(value, str):
        raise ConfigError(f"{path} must be {name}, got {value!r}")
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{path} must be {name}, got {value!r}") from None
    except OverflowError:
        raise ConfigError(f"{path} must be finite, got number {value} too large for a float") from None
    if not math.isfinite(number):
        text = value if isinstance(value, str) else json.dumps(value)
        raise ConfigError(f"{path} must be finite, got non-finite number {text}")
    if kind is float:
        return number
    if not number.is_integer():
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return int(value)


def _read_json(path: Path, what: str) -> Any:
    if not path.exists():
        raise ConfigError(f"{what} {path} does not exist")
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:  # a directory, no permission, not UTF-8
        raise ConfigError(f"{what} {path} cannot be read: {exc}") from None
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None


def load_config(path: str | Path) -> dict:
    """Read a run configuration with every value typed by the module's rule.

    A curve file, named relative to the config's folder, is read here too:
    its records become the curve section's ``pillars`` unless it has some.
    """
    path = Path(path)
    raw = _read_json(path, "config file")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for section in raw:
        if section not in _KINDS:
            raise ConfigError(f"unknown config section {section!r}")
    config = {section: _value(_KINDS[section], content, section) for section, content in raw.items()}
    curve = config.get("curve", {})
    if "file" in curve and "pillars" not in curve:
        records = _read_json(path.parent / curve["file"], "curve.file")
        curve["pillars"] = _value(_KINDS["curve"]["pillars"], records, "curve.file")
    return config


def _section(config: Mapping[str, Any], name: str, *, required: bool = True) -> dict:
    if name not in config:
        if required:
            raise ConfigError(f"config section {name!r} is required for this command")
        return {}
    return config[name]


def _required(config: Mapping[str, Any], name: str, key: str) -> Any:
    section = _section(config, name)
    if key not in section:
        raise ConfigError(f"{name} section is missing key {key!r}")
    return section[key]


def _build(cls, section: Mapping[str, Any], name: str):
    """``cls(**section)``, with its refusal as a config error naming ``name``."""
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc


def _build_curve(config: Mapping[str, Any]) -> DiscountCurve:
    section = _section(config, "curve")
    if "pillars" not in section:
        raise ConfigError("curve section needs either 'pillars' or 'file'")
    try:
        return DiscountCurve.from_pillars(section["pillars"])
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid curve: {exc}") from exc


def _steps_per_year(config: Mapping[str, Any], args: argparse.Namespace) -> int:
    if args.steps_per_year is not None:
        return args.steps_per_year
    return _section(config, "grid", required=False).get("steps_per_year", DEFAULT_STEPS_PER_YEAR)


def _mc_settings(config: Mapping[str, Any], args: argparse.Namespace) -> tuple[int, int, Any]:
    section = _section(config, "mc", required=False)
    n_paths = section.get("n_paths", DEFAULT_MC_PATHS)
    if n_paths < 2:
        raise ConfigError(f"mc.n_paths must be at least 2 to estimate a standard error, got {n_paths}")
    seed = args.seed if args.seed is not None else section.get("seed", DEFAULT_MC_SEED)
    return n_paths, seed, section.get("schedule", DEFAULT_MC_SCHEDULE)


def _config_echo(command: str, steps_per_year: int, **extra) -> dict:
    return {"command": command, "steps_per_year": steps_per_year, **extra}


def _run_price(config: dict, args: argparse.Namespace) -> dict:
    curve = _build_curve(config)
    params = _build(JDCEVParams, _section(config, "model"), "model")
    spec = _build(SinkingBondSpec, _section(config, "bond"), "bond")
    spy = _steps_per_year(config, args)
    grid = bond_grid(spec, spy)
    tree = augment_default(build_trinomial(params, grid))
    report = price_report(tree, curve, spec)
    report["grid_points"] = grid.n_steps + 1
    report["config"] = _config_echo("price", spy, lambda_cap=params.lambda_cap)
    return report


def _run_zspread(config: dict, args: argparse.Namespace) -> dict:
    curve = _build_curve(config)
    spec = _build(SinkingBondSpec, _section(config, "bond"), "bond")
    market_price = _required(config, "zspread", "market_price")
    section = config["zspread"]
    bracket = (
        section.get("bracket_low", DEFAULT_Z_SPREAD_BRACKET[0]),
        section.get("bracket_high", DEFAULT_Z_SPREAD_BRACKET[1]),
    )
    spy = _steps_per_year(config, args)
    grid = bond_grid(spec, spy)
    spread = z_spread(spec, curve, grid, market_price, bracket=bracket)
    return {
        "z_spread": spread,
        "market_price": market_price,
        "config": _config_echo("zspread", spy, bracket=list(bracket)),
    }


def _run_worst(config: dict, args: argparse.Namespace) -> dict:
    curve = _build_curve(config)
    spec = _build(SinkingBondSpec, _section(config, "bond"), "bond")
    spread = _required(config, "worst", "spread")
    spy = _steps_per_year(config, args)
    grid = bond_grid(spec, spy)
    price = worst_ansatz(spec, curve, grid, spread)
    return {"worst_price": price, "spread": spread, "config": _config_echo("worst", spy)}


def _run_calibrate(config: dict, args: argparse.Namespace) -> dict:
    curve = _build_curve(config)
    z0 = _required(config, "model", "z0")
    if not config.get("quotes"):
        raise ConfigError("config section 'quotes' is required for this command")
    quotes = [_build(CDSQuote, quote, f"quotes[{i}]") for i, quote in enumerate(config["quotes"])]
    section = dict(_section(config, "calibration", required=False))
    recovery = section.pop("recovery", 0.4)
    cal_config = _build(CalibrationConfig, section, "calibration")
    result = calibrate(quotes, z0, curve, recovery, cal_config)
    return {
        "params": dataclasses.asdict(result.params),
        "fit": result.report.to_dict(),
        "recovery": recovery,
        "config": _config_echo("calibrate", cal_config.steps_per_year),
    }


def _run_mc_check(config: dict, args: argparse.Namespace) -> dict:
    curve = _build_curve(config)
    params = _build(JDCEVParams, _section(config, "model"), "model")
    spec = _build(SinkingBondSpec, _section(config, "bond"), "bond")
    spy = _steps_per_year(config, args)
    n_paths, seed, schedule = _mc_settings(config, args)
    grid = bond_grid(spec, spy)
    tree = augment_default(build_trinomial(params, grid))
    tree_price = price_fixed_schedule(tree, curve, spec, schedule)
    paths = simulate_paths(params, grid, n_paths, seed)
    estimate = mc_price_fixed_policy(paths, spec, schedule, curve)
    gap = tree_price - estimate.estimate
    return {
        "tree_price": tree_price,
        "mc_estimate": estimate.estimate,
        "mc_std_error": estimate.std_error,
        "difference": gap,
        "within_three_std_errors": bool(abs(gap) <= 3.0 * estimate.std_error),
        "n_paths": n_paths,
        "seed": seed,
        "config": _config_echo("mc-check", spy, schedule=str(schedule)),
    }


def _run_validate_tree(config: dict, args: argparse.Namespace) -> dict:
    params = _build(JDCEVParams, _section(config, "model"), "model")
    spy = _steps_per_year(config, args)
    grid_section = _section(config, "grid", required=False)
    if "maturity" in grid_section:
        grid = build_time_grid(grid_section["maturity"], spy)
    elif "bond" in config:
        grid = bond_grid(_build(SinkingBondSpec, config["bond"], "bond"), spy)
    else:
        raise ConfigError("validate-tree needs grid.maturity or a bond section")
    tree = augment_default(build_trinomial(params, grid))
    diagnostics = validate_tree(tree)
    report = diagnostics.to_dict()
    report["config"] = _config_echo("validate-tree", spy)
    return report


_COMMANDS = {
    "price": _run_price,
    "calibrate": _run_calibrate,
    "zspread": _run_zspread,
    "worst": _run_worst,
    "mc-check": _run_mc_check,
    "validate-tree": _run_validate_tree,
}


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sinkbond",
        description="Price bonds with optional sinking features on an intensity lattice.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--seed", type=int, help="override the Monte Carlo seed")
    parser.add_argument("--steps-per-year", type=int, dest="steps_per_year", help="override the grid density")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        with np.errstate(divide="raise", over="raise", invalid="raise"):  # no inf or NaN reaches a report
            report = _COMMANDS[args.command](config, args)
    except (TreeConstructionError, CalibrationError, UnattainablePriceError, ArithmeticError) as exc:
        _emit({"error": {"type": "numerical", "message": str(exc)}}, args.out)
        return 3
    except (ConfigError, ValueError) as exc:
        _emit({"error": {"type": "config", "message": str(exc)}}, args.out)
        return 2
    _emit(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
