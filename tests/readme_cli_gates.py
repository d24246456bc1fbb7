"""End-to-end gates of the CLI on the README config, one subprocess per run.

Run from anywhere with ``python tests/readme_cli_gates.py``.  The script takes
the JSON config from README's "CLI" section once and runs each gate of
``GATES``: a command, its extra arguments, how many runs, and the bound on
each run's peak RSS in MB (None for no bound).  Every run must exit 0 and
write its report as ``json.dumps(report, indent=2, sort_keys=True)`` bytes; a
gate of two runs must write the same bytes twice, and ``validate-tree`` must
report ``ok``.  Each run prints one line; the exit status is nonzero if any
gate failed.  Peak RSS is read with ``os.wait4`` in Linux's KiB.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GATES = [
    ("price", [], 2, 60),
    ("price", ["--steps-per-year", "52"], 2, 60),
    ("price", ["--steps-per-year", "252"], 2, 80),
    ("validate-tree", [], 2, 60),
    ("validate-tree", ["--steps-per-year", "252"], 2, 80),
    ("mc-check", [], 2, 60),
    ("mc-check", ["--steps-per-year", "252"], 2, 80),
    ("calibrate", [], 2, None),
    ("zspread", [], 2, None),
    ("worst", [], 2, None),
]


def readme_config() -> str:
    text = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    return re.search(r"```json\n(.*?)```", text, re.DOTALL).group(1)


def run_gate(config: Path, folder: Path, command: str, argv: list[str], runs: int, rss_bound: float | None) -> bool:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    name = " ".join([command, *argv])
    passed, first = True, None
    for run in range(1, runs + 1):
        out = folder / f"{command}{''.join(argv)}-{run}.json"
        cmd = [sys.executable, "-m", "sinkbond.cli", command, "--config", str(config), *argv, "--out", str(out)]
        _, status, usage = os.wait4(subprocess.Popen(cmd, env=env).pid, 0)
        code, rss_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
        report = out.read_text() if out.exists() else None
        canonical = report is not None and report == json.dumps(json.loads(report), indent=2, sort_keys=True) + "\n"
        checks = {"json.dumps bytes": canonical}
        if rss_bound is not None:
            checks[f"peak RSS at most {rss_bound} MB"] = rss_mb <= rss_bound
        if command == "validate-tree":
            checks["ok"] = canonical and json.loads(report)["ok"] is True
        if run == 1:
            first = report
        else:
            checks["same bytes as run 1"] = report is not None and report == first
        ok = code == 0 and all(checks.values())
        results = "".join(f", {check} {value}" for check, value in checks.items())
        verdict = "PASS" if ok else "FAIL"
        print(f"{verdict} {name} run {run}/{runs}: exit {code}, peak RSS {rss_mb:.1f} MB{results}", flush=True)
        passed = passed and ok
    return passed


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        config = folder / "run.json"
        config.write_text(readme_config())
        results = [run_gate(config, folder, *gate) for gate in GATES]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
