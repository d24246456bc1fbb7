import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sinkbond.cli import load_config, main
from sinkbond.instruments import SinkingBondSpec, bond_grid
from sinkbond.jdcev import JDCEVParams
from sinkbond.market_data import DiscountCurve
from sinkbond.pricer import price_zcb
from sinkbond.tree import augment_default, build_trinomial


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def strict_json(text):
    """Parse a report, refusing the non-standard literals NaN and +-Infinity."""

    def refuse(name):
        raise ValueError(f"report holds {name}")

    return json.loads(text, parse_constant=refuse)


def run(tmp_path, command, payload, *extra):
    config = write_config(tmp_path, payload)
    out = tmp_path / "report.json"
    code = main([command, "--config", config, "--out", str(out), *extra])
    report = strict_json(out.read_text()) if out.exists() else None
    return code, report


BASE = {
    "curve": {"pillars": [{"time": 0.0, "rate": 0.02}]},
    "model": {"lambda0": 0.004, "sigma": 2.8199, "beta": -0.6, "z0": 30.0},
}


def sinking_bond_section():
    return {
        "maturity": 4.0,
        "coupon_rate": 0.07,
        "coupon_frequency": 1,
        "redemption_dates": [1.0, 2.0, 3.0],
        "admissible_fractions": [0.05, 0.10],
        "alpha": 75.0,
        "recovery": 0.4,
    }


class TestLoadConfig:
    def test_unknown_key_is_named(self, tmp_path):
        payload = dict(BASE, bond={"maturity": 2.0, "recoverey": 0.4})
        path = write_config(tmp_path, payload)
        with pytest.raises(ValueError, match="bond.recoverey"):
            load_config(path)

    def test_unknown_section_is_named(self, tmp_path):
        path = write_config(tmp_path, {"bonds": {}})
        with pytest.raises(ValueError, match="bonds"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_config(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_literal_rejected(self, tmp_path, literal):
        path = tmp_path / "run.json"
        path.write_text('{"worst": {"spread": %s}}' % literal)
        with pytest.raises(ValueError, match="non-finite"):
            load_config(path)


class TestPriceCommand:
    def test_reduction_to_zcb(self, tmp_path):
        # no options, no coupons: the optimal-redemption price IS the
        # zero-coupon bond on the same lattice
        payload = dict(BASE, bond={"maturity": 2.0, "recovery": 0.4}, grid={"steps_per_year": 6})
        code, report = run(tmp_path, "price", payload)
        assert code == 0
        spec = SinkingBondSpec(maturity=2.0, recovery=0.4)
        params = JDCEVParams(**BASE["model"])
        curve = DiscountCurve.from_pillars(BASE["curve"]["pillars"])
        tree = augment_default(build_trinomial(params, bond_grid(spec, 6)))
        assert report["price"] == pytest.approx(price_zcb(tree, curve, 0.4), abs=1e-12)
        assert report["config"]["steps_per_year"] == 6

    def test_sinking_bond_report_shape(self, tmp_path):
        payload = dict(BASE, bond=sinking_bond_section(), grid={"steps_per_year": 4})
        code, report = run(tmp_path, "price", payload)
        assert code == 0
        assert report["option_value"] == pytest.approx(report["forced_max"] - report["price"])
        assert report["policy_summary"]
        assert report["grid_points"] > 16

    def test_steps_per_year_flag_overrides(self, tmp_path):
        payload = dict(BASE, bond={"maturity": 2.0}, grid={"steps_per_year": 4})
        code, report = run(tmp_path, "price", payload, "--steps-per-year", "8")
        assert code == 0
        assert report["config"]["steps_per_year"] == 8

    def test_alpha_constraint_violation_exits_2(self, tmp_path):
        bond = sinking_bond_section()
        bond["alpha"] = 77.0
        payload = dict(BASE, bond=bond)
        code, report = run(tmp_path, "price", payload)
        assert code == 2
        assert "multiple of the smallest" in report["error"]["message"]

    def test_nan_coupon_rate_exits_2(self, tmp_path):
        payload = dict(BASE, bond=dict(sinking_bond_section(), coupon_rate=math.nan))
        code, report = run(tmp_path, "price", payload)
        assert code == 2
        assert report["error"]["type"] == "config"
        assert "NaN" in report["error"]["message"]

    @pytest.mark.parametrize(
        "key, value", [("z0", "inf"), ("beta", "-inf"), ("lambda_cap", "inf"), ("sigma", "inf")]
    )
    def test_infinite_model_parameter_exits_2(self, tmp_path, key, value):
        # strings reach float() unseen by the JSON hook; the parameters check them
        payload = dict(BASE, model=dict(BASE["model"], **{key: value}), bond={"maturity": 2.0})
        code, report = run(tmp_path, "price", payload)
        assert code == 2
        assert report["error"]["type"] == "config"
        assert f"{key} must be finite" in report["error"]["message"]

    def test_unknown_key_exits_2(self, tmp_path):
        payload = dict(BASE, bond={"maturity": 2.0, "recoverey": 0.4})
        code, report = run(tmp_path, "price", payload)
        assert code == 2
        assert "bond.recoverey" in report["error"]["message"]

    def test_oversized_nominal_grid_is_refused_before_any_table(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a table or lattice for a refused bond")

        for module, name in (("cli", "build_trinomial"), ("pricer", "action_table")):
            monkeypatch.setattr(f"sinkbond.{module}.{name}", refuse)
        payload = dict(BASE, bond=dict(sinking_bond_section(), nominal_steps=10**6 + 1))
        start = time.perf_counter()
        code, report = run(tmp_path, "price", payload)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert report["error"]["type"] == "config"
        assert "exceeds the limit" in report["error"]["message"]

    def test_reports_are_byte_identical(self, tmp_path):
        payload = dict(BASE, bond=sinking_bond_section(), grid={"steps_per_year": 4})
        config = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["price", "--config", config, "--out", str(out1)]) == 0
        assert main(["price", "--config", config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestZSpreadCommand:
    def test_closed_form_case(self, tmp_path):
        payload = {
            "curve": {"pillars": [{"time": 0.0, "rate": 0.0}]},
            "bond": {"maturity": 1.0, "recovery": 0.0},
            "zspread": {"market_price": 0.95},
            "grid": {"steps_per_year": 4},
        }
        code, report = run(tmp_path, "zspread", payload)
        assert code == 0
        assert report["z_spread"] == pytest.approx(-math.log(0.95), abs=1e-8)

    def test_unattainable_price_exits_3(self, tmp_path):
        payload = {
            "curve": {"pillars": [{"time": 0.0, "rate": 0.0}]},
            "bond": {"maturity": 1.0},
            "zspread": {"market_price": 5.0},
        }
        code, report = run(tmp_path, "zspread", payload)
        assert code == 3
        assert report["error"]["type"] == "numerical"


    @pytest.mark.parametrize(
        "key, value",
        [("market_price", "nan"), ("market_price", "inf"), ("bracket_low", "-inf"), ("bracket_high", "nan")],
    )
    def test_non_finite_string_exits_2(self, tmp_path, key, value):
        section = {"market_price": 0.95, key: value}
        payload = {
            "curve": {"pillars": [{"time": 0.0, "rate": 0.0}]},
            "bond": {"maturity": 1.0},
            "zspread": section,
        }
        code, report = run(tmp_path, "zspread", payload)
        assert code == 2
        assert report["error"]["type"] == "config"
        assert f"non-finite number {value}" in report["error"]["message"]


class TestWorstCommand:
    def test_callable_quote(self, tmp_path):
        payload = dict(
            BASE,
            bond={
                "maturity": 5.0,
                "coupon_rate": 0.06,
                "coupon_frequency": 1,
                "redemption_dates": [1.0, 2.0, 3.0, 4.0],
                "full_call": True,
                "allow_skip": True,
                "recovery": 0.0,
            },
            worst={"spread": 0.01},
        )
        code, report = run(tmp_path, "worst", payload)
        assert code == 0
        assert 0.5 < report["worst_price"] < 1.5

    def test_nan_spread_exits_2(self, tmp_path):
        payload = dict(BASE, bond={"maturity": 2.0, "full_call": True}, worst={"spread": math.nan})
        code, report = run(tmp_path, "worst", payload)
        assert code == 2
        assert report["error"]["type"] == "config"
        assert "NaN" in report["error"]["message"]

    def test_non_callable_bond_exits_2(self, tmp_path):
        payload = dict(BASE, bond=sinking_bond_section(), worst={"spread": 0.01})
        code, report = run(tmp_path, "worst", payload)
        assert code == 2
        assert "callable" in report["error"]["message"]


class TestValidateTreeCommand:
    def test_clean_lattice(self, tmp_path):
        payload = dict(BASE, grid={"steps_per_year": 8, "maturity": 2.0})
        code, report = run(tmp_path, "validate-tree", payload)
        assert code == 0
        assert report["ok"] is True
        assert report["violations"] == []
        assert report["max_prob_sum_error"] <= 1e-12
        assert 0.0 <= report["total_truncated_mass"] <= 1e-12
        assert report["total_truncated_mass"] == pytest.approx(
            sum(layer["truncated_mass"] for layer in report["layers"]), abs=1e-300
        )

    @pytest.mark.parametrize("command", ["price", "validate-tree"])
    @pytest.mark.parametrize(
        "model, maturity",
        [({"sigma": 1e-3, "beta": -3.0, "z0": 1e5}, 10.0), ({"sigma": 1e-3, "beta": -2.0, "z0": 3e6}, 2.0)],
        ids=["full", "partial"],
    )
    def test_collapsed_lattice_exits_3(self, tmp_path, command, model, maturity):
        bond = dict(sinking_bond_section(), maturity=maturity,
                    redemption_dates=[float(d) for d in range(1, int(maturity))])
        payload = dict(BASE, model=dict(BASE["model"], **model), bond=bond, grid={"steps_per_year": 12})
        code, report = run(tmp_path, command, payload)
        assert code == 3
        assert report["error"]["type"] == "numerical"
        assert "does not survive rounding" in report["error"]["message"]

    def test_oversized_grid_is_refused_before_it_is_built(self, tmp_path):
        # 1.2e8 steps: listing the uniform points alone would exhaust memory
        payload = dict(BASE, grid={"steps_per_year": 12, "maturity": 1e7})
        start = time.perf_counter()
        code, report = run(tmp_path, "validate-tree", payload)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert report["error"]["type"] == "config"
        assert "step count" in report["error"]["message"]

    def test_reports_are_byte_identical(self, tmp_path):
        payload = dict(BASE, grid={"steps_per_year": 12, "maturity": 5.0})
        config = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["validate-tree", "--config", config, "--out", str(out1)]) == 0
        assert main(["validate-tree", "--config", config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestMcCheckCommand:
    def test_small_run(self, tmp_path):
        payload = dict(
            BASE,
            bond=sinking_bond_section(),
            grid={"steps_per_year": 4},
            mc={"n_paths": 4000, "seed": 17, "schedule": "max"},
        )
        code, report = run(tmp_path, "mc-check", payload)
        assert code == 0
        assert report["n_paths"] == 4000
        assert report["mc_std_error"] > 0
        assert abs(report["difference"]) < 0.05

    def test_seed_flag_overrides(self, tmp_path):
        payload = dict(
            BASE,
            bond={"maturity": 2.0},
            mc={"n_paths": 500, "seed": 1},
            grid={"steps_per_year": 4},
        )
        code, report = run(tmp_path, "mc-check", payload, "--seed", "99")
        assert code == 0
        assert report["seed"] == 99

    @pytest.mark.parametrize("n_paths", [1, 0])
    def test_too_few_paths_exit_2(self, tmp_path, n_paths):
        payload = dict(BASE, bond={"maturity": 2.0}, mc={"n_paths": n_paths}, grid={"steps_per_year": 4})
        code, report = run(tmp_path, "mc-check", payload)
        assert code == 2
        assert report["error"]["type"] == "config"
        assert "mc.n_paths" in report["error"]["message"]

    @pytest.mark.parametrize(
        "schedule", [5, ["max"], None, True, {"1.0": None}], ids=["int", "list", "null", "bool", "null-fraction"]
    )
    def test_malformed_schedule_exits_2(self, tmp_path, schedule):
        payload = dict(BASE, bond=sinking_bond_section(), mc={"n_paths": 100, "schedule": schedule})
        code, report = run(tmp_path, "mc-check", payload)
        assert code == 2
        assert report["error"]["type"] == "config"

    def test_schedule_map_error_names_the_key(self, tmp_path):
        payload = dict(BASE, bond=sinking_bond_section(), mc={"n_paths": 100, "schedule": {"1.0": None}})
        code, report = run(tmp_path, "mc-check", payload)
        assert code == 2
        assert "mc.schedule" in report["error"]["message"]


class TestCalibrateCommand:
    def test_single_quote_fit(self, tmp_path):
        payload = {
            "curve": {"pillars": [{"time": 0.0, "rate": 0.02}]},
            "model": {"lambda0": 0.004, "sigma": 2.8199, "beta": -0.6, "z0": 30.0},
            "quotes": [{"tenor": 5.0, "spread": 0.0030}],
            "calibration": {
                "recovery": 0.4,
                "steps_per_year": 4,
                "fixed_sigma": 1.5,
                "fixed_beta": -0.6,
            },
        }
        code, report = run(tmp_path, "calibrate", payload)
        assert code == 0
        assert report["params"]["lambda0"] > 0
        assert report["fit"]["quotes"][0]["model_spread"] == pytest.approx(0.0030, rel=0.02)

    def test_curve_from_file(self, tmp_path):
        (tmp_path / "curve.json").write_text(json.dumps([{"time": 0.0, "rate": 0.01}]))
        payload = {
            "curve": {"file": "curve.json"},
            "model": {"z0": 30.0},
            "quotes": [{"tenor": 2.0, "spread": 0.002}],
            "calibration": {"steps_per_year": 2, "fixed_sigma": 2.0, "fixed_beta": -0.5},
        }
        code, report = run(tmp_path, "calibrate", payload)
        assert code == 0

    @pytest.mark.parametrize("key", ["lambda0_grid", "sigma_grid", "beta_grid"])
    def test_empty_parameter_grid_exits_2(self, tmp_path, key):
        payload = dict(BASE, quotes=[{"tenor": 2.0, "spread": 0.002}], calibration={key: []})
        code, report = run(tmp_path, "calibrate", payload)
        assert code == 2
        assert report["error"]["type"] == "config"
        assert f"calibration.{key}" in report["error"]["message"]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("steps_per_year", 0),
            ("premium_frequency", 0),
            ("max_iterations", 0),
            ("function_tolerance", -1e-8),
            ("penalty_weight", -1.0),
            ("lambda0_grid", [0.01, -1.0]),
            ("sigma_grid", [0.0]),
            ("beta_grid", [-0.5, 0.0]),
            ("fixed_sigma", -1.0),
            ("fixed_beta", 0.2),
            ("recovery", 1.5),
            ("recovery", -0.1),
        ],
    )
    def test_unworkable_setting_exits_2(self, tmp_path, key, value):
        payload = dict(BASE, quotes=[{"tenor": 2.0, "spread": 0.002}], calibration={key: value})
        code, report = run(tmp_path, "calibrate", payload)
        assert code == 2
        assert report["error"]["type"] == "config"
        assert f"calibration.{key}" in report["error"]["message"]

    def test_missing_quotes_exits_2(self, tmp_path):
        payload = dict(BASE)
        code, report = run(tmp_path, "calibrate", payload)
        assert code == 2
        assert "quotes" in report["error"]["message"]


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("price", "model", "lambda0", None),
        ("worst", "worst", "spread", None),
        ("validate-tree", "grid", "maturity", "inf"),
        ("validate-tree", "grid", "maturity", 1e308),  # finite, but times 12 steps/yr is not
        ("validate-tree", "grid", "maturity", None),
        ("calibrate", "model", "z0", None),
        ("price", "grid", "steps_per_year", None),
        ("price", "grid", "steps_per_year", 12.7),
        ("price", "grid", "steps_per_year", True),
        ("mc-check", "mc", "n_paths", None),
        ("mc-check", "mc", "n_paths", 2.5),
        ("mc-check", "mc", "seed", None),
        ("price", "bond", "redemption_dates", 5),
        ("price", "bond", "admissible_fractions", None),
        ("price", "bond", "allow_skip", "no"),
        ("price", "bond", "full_call", 1),
        ("price", "bond", "redemption_dates", "1"),
        ("price", "bond", "redemption_dates", ["1"]),
        ("price", "bond", "redemption_dates", [None]),
        ("price", "bond", "admissible_fractions", {"0.05": 1, "0.1": 2}),
        ("price", "bond", "admissible_fractions", [True]),
        ("calibrate", "calibration", "penalty_weight", None),
        ("calibrate", "calibration", "steps_per_year", None),
        ("calibrate", "calibration", "function_tolerance", None),
        ("calibrate", "calibration", "max_iterations", "x"),
        ("calibrate", "calibration", "sigma_grid", [None]),
        *(
            case
            for flag in (True, False)
            for case in (
                ("price", "model", "sigma", flag),
                ("price", "bond", "maturity", flag),
                ("price", "bond", "coupon_rate", flag),
                ("price", "bond", "coupon_frequency", flag),
                ("price", "bond", "nominal_steps", flag),
                ("zspread", "zspread", "market_price", flag),
                ("worst", "worst", "spread", flag),
                ("validate-tree", "grid", "maturity", flag),
                ("calibrate", "quotes", "tenor", flag),
                ("price", "curve", "pillars", [{"time": 0.0, "rate": 0.02}, {"time": flag, "rate": 0.03}]),
                ("calibrate", "calibration", "penalty_weight", flag),
            )
        ),
    ],
    ids=["model-null", "worst-spread-null", "maturity-inf", "maturity-1e308", "maturity-null", "z0-null",
         "steps-null", "steps-fraction", "steps-bool", "n-paths-null", "n-paths-fraction", "seed-null",
         "redemption-dates-number", "fractions-null", "allow-skip-string", "full-call-number",
         "redemption-dates-string", "redemption-date-string", "redemption-date-null", "fractions-map",
         "fraction-bool", "penalty-null", "calibration-steps-null", "tolerance-null", "iterations-string",
         "sigma-grid-null",
         *(f"{key}-{flag}" for flag in ("true", "false")
           for key in ("sigma", "maturity", "coupon-rate", "coupon-frequency", "nominal-steps", "market-price",
                       "worst-spread", "grid-maturity", "quote-tenor", "pillar-time", "penalty"))],
)
def test_non_numbers_exit_2(tmp_path, command, section, key, value):
    payload = dict(
        BASE,
        bond={"maturity": 2.0, "full_call": True},
        grid={"steps_per_year": 12},
        worst={"spread": 0.01},
        quotes=[{"tenor": 2.0, "spread": 0.003}],
        mc={"n_paths": 200, "seed": 1},
        calibration={},
        zspread={"market_price": 0.9},
    )
    if section == "quotes":
        payload[section] = [dict(payload[section][0], **{key: value})]
    else:
        payload[section] = dict(payload[section], **{key: value})
    code, report = run(tmp_path, command, payload)
    assert code == 2
    assert report["error"]["type"] == "config"


HUGE = 10**400  # a JSON integer no float can hold


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("zspread", "bond", "coupon_rate", HUGE),
        ("price", "bond", "redemption_dates", [HUGE]),
        ("calibrate", "calibration", "sigma_grid", [2.0, HUGE]),
    ],
    ids=["bond-field", "bond-list", "calibration-grid"],
)
def test_integers_too_large_for_a_float_exit_2(tmp_path, command, section, key, value):
    payload = dict(
        BASE,
        bond={"maturity": 2.0},
        zspread={"market_price": 0.9},
        quotes=[{"tenor": 2.0, "spread": 0.003}],
        calibration={},
    )
    payload[section] = dict(payload[section], **{key: value})
    code, report = run(tmp_path, command, payload)
    assert code == 2
    assert report["error"]["type"] == "config"
    assert "too large for a float" in report["error"]["message"]


def test_curve_file_integer_too_large_for_a_float_exits_2(tmp_path):
    (tmp_path / "curve.json").write_text(json.dumps([{"time": 0.0, "rate": HUGE}]))
    payload = dict(BASE, curve={"file": "curve.json"}, bond={"maturity": 2.0})
    code, report = run(tmp_path, "price", payload)
    assert code == 2
    assert "too large for a float" in report["error"]["message"]


@pytest.mark.parametrize("command", ["price", "mc-check", "validate-tree"])
def test_capped_intensity_at_a_box_corner_prices(tmp_path, command):
    # at beta = -1e-3 the lattice reaches levels whose z / z0 underflows to 0
    model = {"lambda0": 0.004, "sigma": 50.0, "beta": -1e-3, "z0": 30.0}
    payload = dict(BASE, model=model, bond=sinking_bond_section(), grid={"steps_per_year": 52, "maturity": 3.0},
                   mc={"n_paths": 200})
    code, report = run(tmp_path, command, payload)
    assert code == 0


@pytest.mark.parametrize(
    "command, section, value",
    [
        ("price", "curve", {"pillars": [{"time": 0.0, "rate": 1e308}]}),
        ("price", "curve", {"pillars": [{"time": 0.0, "rate": -1e308}]}),
        ("worst", "worst", {"spread": -1e308}),
        ("zspread", "zspread", {"market_price": 0.9, "bracket_low": -1e308}),
        ("price", "model", {"lambda0": 0.004, "sigma": 2.8, "beta": -0.6, "z0": 1e-300}),
    ],
    ids=["rate-overflow", "discount-overflow", "worst-spread", "bracket", "root-drift"],
)
def test_overflow_exits_3(tmp_path, command, section, value):
    payload = dict(BASE, bond={"maturity": 2.0, "full_call": True})
    payload[section] = value
    code, report = run(tmp_path, command, payload)
    assert code == 3
    assert report["error"]["type"] == "numerical"


class TestFiles:
    def test_curve_file_must_be_a_string(self, tmp_path):
        code, report = run(tmp_path, "price", dict(BASE, curve={"file": 5}, bond={"maturity": 2.0}))
        assert code == 2
        assert "curve.file must be a string" in report["error"]["message"]

    def test_config_directory_exits_2(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["price", "--config", str(tmp_path), "--out", str(out)]) == 2
        report = strict_json(out.read_text())
        assert report["error"]["type"] == "config"
        assert "cannot be read" in report["error"]["message"]

    def test_curve_file_directory_exits_2(self, tmp_path):
        (tmp_path / "curves").mkdir()
        code, report = run(tmp_path, "price", dict(BASE, curve={"file": "curves"}, bond={"maturity": 2.0}))
        assert code == 2
        assert "curve.file" in report["error"]["message"]
        assert "cannot be read" in report["error"]["message"]

    @pytest.mark.parametrize("name", ["run.json", "curve.json"])
    def test_unreadable_file_exits_2(self, tmp_path, monkeypatch, name):
        # a permission check cannot be relied on (root reads anything), so refuse the read itself
        read_text = Path.read_text

        def refuse(path, *args, **kwargs):
            if path.name == name:
                raise PermissionError(13, "Permission denied", str(path))
            return read_text(path, *args, **kwargs)

        (tmp_path / "curve.json").write_text(json.dumps([{"time": 0.0, "rate": 0.01}]))
        monkeypatch.setattr(Path, "read_text", refuse)
        code, report = run(tmp_path, "price", dict(BASE, curve={"file": "curve.json"}, bond={"maturity": 2.0}))
        assert code == 2
        assert f"{name} cannot be read" in report["error"]["message"]

    def test_unknown_pillar_key_exits_2(self, tmp_path):
        curve = {"pillars": [{"time": 0, "rate": 0.02, "rte": 0.05}]}
        code, report = run(tmp_path, "price", dict(BASE, curve=curve, bond={"maturity": 2.0}))
        assert code == 2
        assert "curve.pillars[0].rte" in report["error"]["message"]

    def test_unknown_pillar_key_in_curve_file_exits_2(self, tmp_path):
        (tmp_path / "curve.json").write_text(json.dumps([{"time": 0.0, "rate": 0.01}, {"time": 1.0, "rte": 0.02}]))
        code, report = run(tmp_path, "price", dict(BASE, curve={"file": "curve.json"}, bond={"maturity": 2.0}))
        assert code == 2
        assert "curve.file[1].rte" in report["error"]["message"]


def test_stdout_when_no_out_file(tmp_path, capsys):
    payload = dict(BASE, bond={"maturity": 1.0}, grid={"steps_per_year": 4})
    config = write_config(tmp_path, payload)
    assert main(["price", "--config", config]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert "price" in printed


def test_importing_the_cli_leaves_scipy_unloaded():
    code = "import sys, sinkbond.cli; print('scipy' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
