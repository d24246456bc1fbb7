"""Batch front door: one JSON config in, one JSON report out.

A config holds named sections (grid, curve, model, bond, quotes, mc,
zspread, worst, calibration); each command reads the sections it needs and
ignores the rest, but unknown keys anywhere are rejected by name so typos
cannot silently fall back to defaults.  Reports are deterministic byte for
byte given the same config and seed.

Exit codes: 0 success, 2 malformed config, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Any, Mapping

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


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


_SECTION_KEYS: dict[str, set[str]] = {
    "grid": {"steps_per_year", "maturity"},
    "curve": {"pillars", "file"},
    "model": _field_names(JDCEVParams),
    "bond": _field_names(SinkingBondSpec),
    "mc": {"n_paths", "seed", "schedule"},
    "zspread": {"market_price", "bracket_low", "bracket_high"},
    "worst": {"spread"},
    "calibration": {
        "recovery",
        "steps_per_year",
        "premium_frequency",
        "lambda_cap",
        "lambda0_grid",
        "sigma_grid",
        "beta_grid",
        "fixed_sigma",
        "fixed_beta",
        "function_tolerance",
        "max_iterations",
        "penalty_weight",
    },
    "quotes": _field_names(CDSQuote),  # keys of each element of the list
}


class ConfigError(ValueError):
    """The config file is missing, malformed, or carries unknown/invalid keys."""


def _finite_number(text: str | float) -> float:
    """A JSON number literal or config value as a float; non-numbers, NaN and infinities are rejected."""
    try:
        value = float(text)
    except TypeError as exc:
        raise ConfigError(f"expected a number, got {type(text).__name__}") from exc
    except OverflowError as exc:
        raise ConfigError(f"number {text} is too large for a float") from exc
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} is not allowed")
    return value


def _json_int(text: str) -> int:
    """A JSON integer literal, kept an int; one too large for a float is rejected."""
    value = int(text)
    _finite_number(value)
    return value


def _parse_json(text: str) -> Any:
    """JSON with every number finite; NaN, Infinity and float-overflowing integers are rejected."""
    return json.loads(text, parse_float=_finite_number, parse_int=_json_int, parse_constant=_finite_number)


def _integer(value: Any, key: str) -> int:
    """A whole-number config value; bools, non-numbers and fractions are rejected."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _number_list(value: Any, key: str) -> tuple[float, ...]:
    """A JSON list of finite numbers; strings, bools and nulls are rejected, inside it too."""
    if not isinstance(value, list) or any(v is None or isinstance(v, (str, bool)) for v in value):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    return tuple(_finite_number(v) for v in value)


def load_config(path: str | Path) -> dict:
    """Parse and key-validate a run configuration.

    Returns the raw section mapping; values are validated where they are
    consumed so errors can cite both the key path and the broken constraint.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = _parse_json(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for section, content in raw.items():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section {section!r}")
        if section == "quotes":
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"section {section!r} must be a JSON object")
        for key in content:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {section + '.' + key!r}")
    if "quotes" in raw:
        if not isinstance(raw["quotes"], list):
            raise ConfigError("section 'quotes' must be a list")
        for i, quote in enumerate(raw["quotes"]):
            if not isinstance(quote, dict):
                raise ConfigError(f"quotes[{i}] must be a JSON object")
            for key in quote:
                if key not in _SECTION_KEYS["quotes"]:
                    raise ConfigError(f"unknown key 'quotes[{i}].{key}'")
    return raw


def _section(config: Mapping[str, Any], name: str, *, required: bool = True) -> dict:
    if name not in config:
        if required:
            raise ConfigError(f"config section {name!r} is required for this command")
        return {}
    return config[name]


def _build_curve(config: Mapping[str, Any], base: Path) -> DiscountCurve:
    section = _section(config, "curve")
    if "pillars" in section:
        pillars = section["pillars"]
    elif "file" in section:
        curve_path = base / section["file"]
        if not curve_path.exists():
            raise ConfigError(f"curve file {curve_path} does not exist")
        pillars = _parse_json(curve_path.read_text())
    else:
        raise ConfigError("curve section needs either 'pillars' or 'file'")
    try:
        return DiscountCurve.from_pillars(pillars)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid curve: {exc}") from exc


def _build_model(config: Mapping[str, Any]) -> JDCEVParams:
    section = _section(config, "model")
    try:
        return JDCEVParams(**{key: float(value) for key, value in section.items()})
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc


def _build_bond(config: Mapping[str, Any]) -> SinkingBondSpec:
    section = _section(config, "bond")
    if "maturity" not in section:
        raise ConfigError("bond section is missing key 'maturity'")
    kwargs = dict(section)
    for key in ("redemption_dates", "admissible_fractions"):
        kwargs[key] = _number_list(kwargs.get(key, []), "bond." + key)
    try:
        return SinkingBondSpec(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid bond: {exc}") from exc


def _steps_per_year(config: Mapping[str, Any], args: argparse.Namespace) -> int:
    if args.steps_per_year is not None:
        return args.steps_per_year
    section = _section(config, "grid", required=False)
    return _integer(section.get("steps_per_year", DEFAULT_STEPS_PER_YEAR), "grid.steps_per_year")


def _mc_settings(config: Mapping[str, Any], args: argparse.Namespace) -> tuple[int, int, Any]:
    section = _section(config, "mc", required=False)
    n_paths = _integer(section.get("n_paths", DEFAULT_MC_PATHS), "mc.n_paths")
    if n_paths < 2:
        raise ConfigError(f"mc.n_paths must be at least 2 to estimate a standard error, got {n_paths}")
    seed = args.seed
    if seed is None:
        seed = _integer(section.get("seed", DEFAULT_MC_SEED), "mc.seed")
    schedule = section.get("schedule", DEFAULT_MC_SCHEDULE)
    if isinstance(schedule, dict):
        schedule = {_finite_number(k): _finite_number(v) for k, v in schedule.items()}
    return n_paths, seed, schedule


def _config_echo(command: str, steps_per_year: int, **extra) -> dict:
    return {"command": command, "steps_per_year": steps_per_year, **extra}


def _run_price(config: dict, args: argparse.Namespace, base: Path) -> dict:
    curve = _build_curve(config, base)
    params = _build_model(config)
    spec = _build_bond(config)
    spy = _steps_per_year(config, args)
    grid = bond_grid(spec, spy)
    tree = augment_default(build_trinomial(params, grid))
    report = price_report(tree, curve, spec)
    report["grid_points"] = grid.n_steps + 1
    report["config"] = _config_echo("price", spy, lambda_cap=params.lambda_cap)
    return report


def _run_zspread(config: dict, args: argparse.Namespace, base: Path) -> dict:
    curve = _build_curve(config, base)
    spec = _build_bond(config)
    section = _section(config, "zspread")
    if "market_price" not in section:
        raise ConfigError("zspread section is missing key 'market_price'")
    market_price = _finite_number(section["market_price"])
    bracket = (
        _finite_number(section.get("bracket_low", DEFAULT_Z_SPREAD_BRACKET[0])),
        _finite_number(section.get("bracket_high", DEFAULT_Z_SPREAD_BRACKET[1])),
    )
    spy = _steps_per_year(config, args)
    grid = bond_grid(spec, spy)
    spread = z_spread(spec, curve, grid, market_price, bracket=bracket)
    return {
        "z_spread": spread,
        "market_price": market_price,
        "config": _config_echo("zspread", spy, bracket=list(bracket)),
    }


def _run_worst(config: dict, args: argparse.Namespace, base: Path) -> dict:
    curve = _build_curve(config, base)
    spec = _build_bond(config)
    section = _section(config, "worst")
    if "spread" not in section:
        raise ConfigError("worst section is missing key 'spread'")
    spread = _finite_number(section["spread"])
    spy = _steps_per_year(config, args)
    grid = bond_grid(spec, spy)
    price = worst_ansatz(spec, curve, grid, spread)
    return {"worst_price": price, "spread": spread, "config": _config_echo("worst", spy)}


def _run_calibrate(config: dict, args: argparse.Namespace, base: Path) -> dict:
    curve = _build_curve(config, base)
    model_section = _section(config, "model")
    if "z0" not in model_section:
        raise ConfigError("model section is missing key 'z0'")
    z0 = _finite_number(model_section["z0"])
    if "quotes" not in config or not config["quotes"]:
        raise ConfigError("config section 'quotes' is required for this command")
    try:
        quotes = [CDSQuote(**{k: (v if k == "side" else float(v)) for k, v in q.items()}) for q in config["quotes"]]
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid quote: {exc}") from exc
    section = dict(_section(config, "calibration", required=False))
    recovery = _finite_number(section.pop("recovery", 0.4))
    for key, value in section.items():
        if key in ("steps_per_year", "premium_frequency", "max_iterations"):
            section[key] = _integer(value, "calibration." + key)
        elif value is None and key in ("lambda0_grid", "fixed_sigma", "fixed_beta"):
            continue  # null is these keys' default
        elif key.endswith("_grid"):
            section[key] = _number_list(value, "calibration." + key)
        else:
            try:
                section[key] = _finite_number(value)
            except ValueError as exc:
                raise ConfigError(f"calibration.{key}: {exc}") from exc
    cal_config = CalibrationConfig(**section)
    result = calibrate(quotes, z0, curve, recovery, cal_config)
    return {
        "params": dataclasses.asdict(result.params),
        "fit": result.report.to_dict(),
        "recovery": recovery,
        "config": _config_echo("calibrate", cal_config.steps_per_year),
    }


def _run_mc_check(config: dict, args: argparse.Namespace, base: Path) -> dict:
    curve = _build_curve(config, base)
    params = _build_model(config)
    spec = _build_bond(config)
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


def _run_validate_tree(config: dict, args: argparse.Namespace, base: Path) -> dict:
    params = _build_model(config)
    spy = _steps_per_year(config, args)
    grid_section = _section(config, "grid", required=False)
    if "maturity" in grid_section:
        grid = build_time_grid(_finite_number(grid_section["maturity"]), spy)
    elif "bond" in config:
        grid = bond_grid(_build_bond(config), spy)
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
        report = _COMMANDS[args.command](config, args, Path(args.config).parent)
    except (TreeConstructionError, CalibrationError, UnattainablePriceError) as exc:
        _emit({"error": {"type": "numerical", "message": str(exc)}}, args.out)
        return 3
    except (ConfigError, ValueError) as exc:
        _emit({"error": {"type": "config", "message": str(exc)}}, args.out)
        return 2
    _emit(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
