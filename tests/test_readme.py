"""The README's library quick start prints the pinned 12/yr price, and its CLI config runs."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from sinkbond.cli import load_config, main

README = Path(__file__).resolve().parents[1] / "README.md"
README_PRICE_12 = 1.159818000111499


def quick_start_code() -> str:
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quick start'"
    return match.group(1)


def test_quick_start_prints_the_pinned_price():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_code(), str(README), "exec"), {"__name__": "readme"})
    assert float(out.getvalue().split()[-1]) == pytest.approx(README_PRICE_12, abs=1e-9)


def cli_config_text() -> str:
    section = README.read_text().split("## CLI", 1)[1]
    match = re.search(r"```json\n(.*?)```", section, re.DOTALL)
    assert match, "no json block under 'CLI'"
    return match.group(1)


@pytest.mark.parametrize("command", ["price", "zspread", "worst", "mc-check", "validate-tree"])
def test_cli_config_runs_every_command(tmp_path, command):
    # calibrate is left out: a full fit on the README quotes takes seconds
    path = tmp_path / "run.json"
    path.write_text(cli_config_text())
    assert set(load_config(path)) == {"grid", "curve", "model", "bond", "quotes", "mc", "zspread", "worst"}
    out = tmp_path / "report.json"
    assert main([command, "--config", str(path), "--out", str(out), "--steps-per-year", "4"]) == 0
    assert "error" not in json.loads(out.read_text())
