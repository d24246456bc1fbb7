"""The README's library quick start runs and prints the pinned 12/yr price."""

import contextlib
import io
import re
from pathlib import Path

import pytest

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
