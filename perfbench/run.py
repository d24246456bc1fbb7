"""Benchmark runner: one run of one workload, printed as one JSON line.

    python3 perfbench/run.py --workload book-52 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The runner times set-up (fresh interpreters
importing ``sinkbond.cli`` with ``PYTHONPATH=src``), then starts one worker
process that runs the workload's ops for ``--seconds`` and reads the worker's
peak RSS from ``wait4``.  Only one child process runs at a time.  With
``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced replay.  Scratch
files go under ``.perfbench-work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("book-52", "dense-252", "desk-12")
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
RUN_DEADLINE_S = 170.0

#: Per-layer time metrics reported in the result line: layers every workload
#: calls.  Layers only some workloads call are printed above it.
LAYER_TIMES = (
    "cli.load_config",
    "cli.emit",
    "instruments.bond_grid",
    "tree.build_trinomial",
    "tree.augment_default",
    "pricer.build_stage_problems",
    "mdp.backward_induction",
    "mdp.evaluate_policy",
)
SOME_LAYER_TIMES = (
    "tree.validate_tree",
    "pricer.price_report",
    "pricer.z_spread",
    "pricer.deterministic_spread_price",
    "pricer.worst_ansatz",
    "pricer.price_fixed_schedule",
    "mc.simulate_paths",
    "mc.price_fixed_policy",
)
COUNTS = (
    "market_data.index_of_calls",
    "tree.builds",
    "tree.nodes",
    "tree.max_layer_width",
    "pricer.deterministic_solves",
    "mdp.states",
    "mdp.state_nodes",
    "mdp.action_evals",
)
MODULES = ("cli", "instruments", "market_data", "jdcev", "tree", "pricer", "mdp", "calibration", "mc")


def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _time_import(root: Path, env: dict, *flags: str) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", "import sinkbond.cli"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"import sinkbond.cli failed:\n{proc.stderr}")
    return elapsed, proc.stderr


def measure_setup(root: Path, env: dict) -> list[float]:
    """Interpreter start to ``sinkbond.cli`` imported, in fresh processes.

    One untimed import first writes bytecode caches, which users pay once.
    """
    _time_import(root, env)
    return [_time_import(root, env)[0] for _ in range(SETUP_SAMPLES)]


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_breakdown(stderr: str) -> dict[str, float]:
    """numpy, scipy and sinkbond shares of ``-X importtime`` output, in seconds.

    Lines come children first; a package's cost is its cumulative time where
    it first appears outside its own group, and sinkbond's is the rest of
    ``import sinkbond.cli``.
    """
    rows = []  # (depth, name, cumulative us, children)
    pending: list[tuple[int, int]] = []  # (depth, row index) awaiting a parent
    for match in _IMPORTTIME.finditer(stderr):
        depth = len(match.group(3)) // 2
        idx = len(rows)
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop()[1])
        rows.append((depth, match.group(4), int(match.group(2)), children))
        pending.append((depth, idx))

    totals = {"numpy": 0, "scipy": 0}

    def walk(idx: int, group: str | None) -> None:
        _, name, cumulative, children = rows[idx]
        if group is None:
            top = name.split(".")[0]
            if top in totals:
                group = top
                totals[top] += cumulative
        for child in children:
            walk(child, group)

    root = next(i for i, row in enumerate(rows) if row[1] == "sinkbond.cli" and row[0] == 0)
    walk(root, None)
    return {
        "cli.import_numpy_s": totals["numpy"] / 1e6,
        "cli.import_scipy_s": totals["scipy"] / 1e6,
        "cli.import_sinkbond_s": (rows[root][2] - totals["numpy"] - totals["scipy"]) / 1e6,
    }


def run_worker(root: Path, env: dict, args, work: Path, deadline: float) -> tuple[dict, float]:
    """Start the worker, wait for it with ``wait4``; its result and peak RSS in MB."""
    result_path = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--result", str(result_path)]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=sys.stderr)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                raise RuntimeError("worker ran past the run deadline")
            time.sleep(0.02)
    finally:
        if proc.returncode is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text()), usage.ru_maxrss / 1024.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def _state_check(root: Path, workload: str, seed: int, result: dict, counts: dict | None) -> list[str]:
    """Compare report hashes (and traced counts) with earlier runs of the same code and seed."""
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        src.update(path.read_bytes())
    path = root / ".perfbench-work" / "state" / f"{workload}-seed{seed}-{src.hexdigest()[:16]}.json"
    state = json.loads(path.read_text()) if path.exists() else {"hashes": {}, "counts": None}
    problems = []
    for name, digest in result["hashes"].items():
        if state["hashes"].setdefault(name, digest) != digest:
            problems.append(f"{name}: report bytes differ from an earlier run with this seed")
    if counts is not None:
        if state["counts"] is not None and state["counts"] != counts:
            problems.append("traced counts differ from an earlier traced run with this seed")
        state["counts"] = counts
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(state, sort_keys=True))
    return problems


def end_to_end(setup: list[float], result: dict, rss_mb: float) -> dict:
    passes = [p for p in result["passes"] if not p["traced"]]
    by_command: dict[str, list[float]] = {}
    for p in passes:
        for command, latency in p["ops"]:
            by_command.setdefault(command, []).append(latency)
    for command, values in sorted(by_command.items()):
        print(f"# {command}_s: median {_median(values):.4f} s, p90 {_p90(values):.4f} s, "
              f"{len(values)} samples")
    print(f"# passes: {len(passes)}, set-up samples: {[round(s, 4) for s in setup]}")
    return {
        "setup_s": (_median(setup), "s"),
        "wall_s": (_median([p["wall_s"] for p in passes]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(root: Path, env: dict, result: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced passes, plus the traced counts."""
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    imports = [import_breakdown(_time_import(root, env, "-X", "importtime")[1])
               for _ in range(IMPORTTIME_SAMPLES)]
    metrics = {k: (_median([s[k] for s in imports]), "s") for k in imports[0]}

    def layer_time(name: str) -> float:
        return _median([p["spans"].get(name, {}).get("total_s", 0.0) for p in traced])

    for name in LAYER_TIMES:
        metrics[f"{name}_s"] = (layer_time(name), "s")
    counts = traced[0]["counts"]
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["tree.lattice_bytes"] = (counts.get("tree.lattice_bytes", 0), "bytes")

    op_time = _median([p["op_s"] for p in traced])
    self_total = _median([sum(row["self_s"] for row in p["spans"].values()) for p in traced])
    root_self = _median([sum(row["self_s"] for name, row in p["spans"].items() if name.startswith("op."))
                         for p in traced])
    count_time = _median([p["spans"].get("trace.count", {}).get("self_s", 0.0) for p in traced])
    metrics["trace.op_self_s"] = (root_self, "s")
    metrics["trace.overhead_s"] = (_median([p["wall_s"] for p in traced]) -
                                   _median([p["wall_s"] for p in plain]), "s")
    for module in MODULES:
        lines = len((root / "src" / "sinkbond" / f"{module}.py").read_text().splitlines())
        metrics[f"src_lines.{module}"] = (lines, "lines")

    print(f"# traced passes: {len(traced)}, untraced: {len(plain)}; traced op time {op_time:.4f} s, "
          f"sum of span self times {self_total:.4f} s, of which op self (no layer) {root_self:.4f} s "
          f"and counting {count_time:.4f} s")
    self_rows = {}
    for p in traced:
        for name, row in p["spans"].items():
            self_rows.setdefault(name, []).append(row["self_s"])
    for name, values in sorted(self_rows.items()):
        print(f"# self {name}: {_median(values):.4f} s/pass")
    for name in SOME_LAYER_TIMES:
        print(f"# {name}_s: {layer_time(name):.4f}")
    paths_time = layer_time("mc.simulate_paths")
    if paths_time:
        print(f"# mc.paths: {counts['mc.paths']}, mc.paths_per_s: {counts['mc.paths'] / paths_time:.1f}")
    for gap in result["gap_se"]:
        print(f"# mc.gap_se: {gap:.3f} (recorded, not gated)")
    for p in traced[1:]:
        if p["counts"] != counts:
            result["failures"].append("traced counts differ between passes of one run")
    return metrics, counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "sinkbond" / "cli.py").is_file():
        print(f"{root} holds no src/sinkbond/cli.py; run from the repository root", file=sys.stderr)
        return 2
    env = _env(root)
    work = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            result, _ = run_worker(root, env, args, work, deadline)
            metrics, counts = per_layer(root, env, result)
        else:
            setup = measure_setup(root, env)
            result, rss_mb = run_worker(root, env, args, work, deadline)
            metrics, counts = end_to_end(setup, result, rss_mb), None
        result["failures"] += _state_check(root, args.workload, args.seed, result, counts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    failed = min(len(result["failures"]), result["attempted"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
