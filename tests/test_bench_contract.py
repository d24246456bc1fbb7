"""The traced benchmark run wraps sinkbond functions by name and reads their results.

``perfbench/tracer.py`` is imported as the benchmark imports it; a refactor
that renames a wrapped function or reshapes what a counter reads fails here
rather than in a traced run.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    yield tracer
    sys.modules.pop("tracer", None)


def test_install_and_uninstall_restore_every_boundary(tracer_module):
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracer_module.BOUNDARIES
    }
    tracer = tracer_module.Tracer()
    tracer.install()
    tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_traced_price_run_counts_its_work(tracer_module, tmp_path):
    from sinkbond.cli import main

    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "curve": {"pillars": [{"time": 0.0, "rate": 0.02}]},
        "model": {"lambda0": 0.004, "sigma": 2.8199, "beta": -0.6, "z0": 30.0},
        "bond": {"maturity": 3.0, "coupon_rate": 0.08, "redemption_dates": [1, 2],
                 "admissible_fractions": [0.05, 0.10], "alpha": 75.0},
    }))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = main(["price", "--config", str(config), "--out", str(tmp_path / "out.json"),
                     "--steps-per-year", "4"])
    finally:
        tracer.uninstall()
    assert code == 0
    spans, counts = tracer.take()
    summary = tracer_module.summarize(spans)
    for name in ("tree.build_trinomial", "pricer.build_stage_problems"):
        assert summary[name]["calls"] >= 1
    # the forced schedules are survival-weighted cashflows: one engine solve
    assert summary["mdp.backward_induction"]["calls"] == 1
    assert "mdp.evaluate_policy" not in summary
    assert counts["tree.builds"] == 1
    assert counts["tree.lattice_bytes"] > 0
    assert counts["mdp.states"] > 0 and counts["mdp.action_evals"] >= counts["mdp.state_nodes"] > 0
