"""Every command on configs that mix valid sections with broken values.

A run may succeed (exit 0), refuse its config (2) or fail numerically (3);
whatever the input, it emits one strict JSON object and never a traceback.
The valid base config is small (4 steps/yr, 3 y maturities, 200 paths, at
most 5 simplex iterations), and the keys that set a run's size (`mc.n_paths`,
`calibration.max_iterations`) are only ever broken in ways that are refused
or keep the run small, so that each example stays fast.
"""

import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sinkbond.cli import main

BASE = {
    "grid": {"steps_per_year": 4, "maturity": 2.0},
    "curve": {"pillars": [{"time": 0.0, "rate": 0.02}, {"time": 1.0, "rate": 0.03}]},
    "model": {"lambda0": 0.004, "sigma": 2.8199, "beta": -0.6, "z0": 30.0},
    "bond": {
        "maturity": 3.0, "coupon_rate": 0.06, "coupon_frequency": 1, "redemption_dates": [1.0, 2.0],
        "admissible_fractions": [0.1, 0.2], "alpha": 100.0, "recovery": 0.4,
        "allow_skip": True, "full_call": True,
    },
    "quotes": [{"tenor": 1.0, "spread": 0.002}, {"tenor": 2.0, "spread": 0.003}],
    "mc": {"n_paths": 200, "seed": 1, "schedule": "max"},
    "zspread": {"market_price": 0.95},
    "worst": {"spread": 0.01},
    "calibration": {"recovery": 0.4, "steps_per_year": 2, "max_iterations": 5, "fixed_sigma": 2.0},
}
COMMANDS = ("price", "zspread", "worst", "mc-check", "validate-tree", "calibrate")
#: Records a broken value may land in: (section, index into a list or None).
RECORDS = [(name, None) for name in BASE if name != "quotes"] + [("quotes", 0), ("quotes", 1), ("pillars", 1)]
KEYS = {
    **{name: list(section) for name, section in BASE.items() if name != "quotes"},
    "quotes": ["tenor", "spread", "side"],
    "pillars": ["time", "rate"],
    # also keys the base leaves at their defaults
    "curve": ["pillars", "file"],
    "bond": list(BASE["bond"]) + ["nominal_steps"],
    "model": list(BASE["model"]) + ["lambda_cap"],
    "zspread": ["market_price", "bracket_low", "bracket_high"],
    "calibration": list(BASE["calibration"]) + [
        "premium_frequency", "lambda_cap", "penalty_weight", "lambda0_grid", "sigma_grid", "beta_grid",
        "fixed_beta", "function_tolerance",
    ],
}
#: Keys that set a run's size, and the broken values of theirs that are refused or small.
SIZE_KEYS = {("mc", "n_paths"), ("calibration", "max_iterations")}
SMALL_SIZES = st.sampled_from([None, True, "x", -1, 0, 1, 2.5, 10**400, [], {}])

WRONG_TYPES = st.sampled_from([None, True, False, "x", "nan", "-inf", "1e999", [], [1.0], ["1"], {}, {"1.0": 0.1}])
EXTREMES = st.sampled_from([0, -1, 0.5, 2.5, 1e-300, -1e-300, 1e308, -1e308, 10**400, 2**63])
CURVE_RATES = st.floats(-0.05, 0.25)
MISSING, UNKNOWN = object(), object()


@st.composite
def configs(draw):
    config = copy.deepcopy(BASE)
    config["curve"]["pillars"] = [
        {"time": t, "rate": draw(CURVE_RATES)} for t in (0.0, *draw(st.sets(st.sampled_from([0.5, 1.0, 2.5, 5.0]))))
    ]
    if not draw(st.booleans()):  # a corner of the calibration box, or the default-free lambda0 = 0
        config["model"].update(
            lambda0=draw(st.sampled_from([1e-6, 2.0, 0.0])), sigma=draw(st.sampled_from([1e-3, 50.0])),
            beta=draw(st.sampled_from([-5.0, -1e-3])),
        )
    for _ in range(draw(st.integers(0, 3))):
        section, index = draw(st.sampled_from(RECORDS))
        record = config["curve"].get("pillars") if section == "pillars" else config[section]
        if index is not None:
            record = record[min(index, len(record) - 1)] if isinstance(record, list) else None
        if not isinstance(record, dict):  # an earlier draw broke the record itself
            continue
        key = draw(st.sampled_from(KEYS[section]))
        if (section, key) in SIZE_KEYS:
            value = draw(SMALL_SIZES)
        else:
            value = draw(st.one_of(WRONG_TYPES, EXTREMES, st.just(MISSING), st.just(UNKNOWN)))
        if value is MISSING:
            record.pop(key, None)
        elif value is UNKNOWN:
            record[key + "_"] = 1.0
        else:
            record[key] = value
    if draw(st.integers(0, 4)) == 0:  # now and then a whole section goes missing or is no record
        section = draw(st.sampled_from(sorted(BASE)))
        broken = draw(st.sampled_from([MISSING, None, [], "x", 1.0, {}]))
        if broken is MISSING:
            del config[section]
        else:
            config[section] = broken
    return config


@settings(
    max_examples=500, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(command=st.sampled_from(COMMANDS), config=configs())
def test_every_command_ends_in_one_json_object(tmp_path, command, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    code = main([command, "--config", str(path), "--out", str(out)])

    def refuse(name):
        raise ValueError(f"report holds {name}")

    report = json.loads(out.read_text(), parse_constant=refuse)
    assert isinstance(report, dict)
    if code == 0:
        assert "error" not in report
    else:
        assert code in (2, 3)
        assert report["error"]["type"] == {2: "config", 3: "numerical"}[code]
