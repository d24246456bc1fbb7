"""One benchmark run in a fresh process: timed passes over a workload's ops.

Started by ``run.py`` with ``PYTHONPATH=src``; it writes its measurements as
JSON to the file named by ``--result``.  Each op is one CLI command run
in-process through ``sinkbond.cli.main``.  Ops run in a closed loop, one after
another, in whole passes over the workload's fixed op list: at least two,
and more while the next pass would end within ``--seconds``.  Checks and report hashing happen outside
the timed window.  With ``--trace 1`` passes alternate between untraced and
traced, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

import sinkbond.cli

import tracer as tracing
import workloads


def _release_heap():
    """Return freed heap pages to the OS, so the next op faults in its memory
    as a fresh ``sinkbond`` process does; a no-op where glibc is absent."""
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return lambda: None
    return lambda: trim(0)


release_heap = _release_heap()


def _run_op(op, config_path: Path, out_path: Path, tracer) -> tuple[float, int, str]:
    """Latency, exit code and report text of one op."""
    argv = op.argv(config_path, out_path)
    out_path.unlink(missing_ok=True)
    release_heap()
    start = perf_counter()
    if tracer is None:
        code = sinkbond.cli.main(argv)
    else:
        code = tracer.span(f"op.{op.command}", sinkbond.cli.main, argv)
    latency = perf_counter() - start
    return latency, code, out_path.read_text() if out_path.exists() else ""


class Run:
    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.ops = workloads.build(workload, seed)
        workloads.fill_inputs(self.ops)
        self.work = work
        self.hashes: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op, code: int, text: str) -> None:
        """Count one attempted op; check its report the first time it is seen."""
        self.attempted += 1
        digest = hashlib.sha256(text.encode()).hexdigest()
        first_seen = op.name not in self.hashes
        problem = None
        if self.hashes.setdefault(op.name, digest) != digest:
            problem = "report bytes differ from the first run of this op"
        elif first_seen:
            try:
                problem = workloads.check(op, code, text)
            except Exception:  # a check that crashes fails the op, not the run
                problem = "check raised:\n" + traceback.format_exc()
        if problem:
            self.failures.append(f"{op.name}: {problem}")

    def run(self, op, stem: str, tracer=None) -> float | None:
        """Run one op on its config file; its latency, or None when it raised."""
        config = self.work / f"{stem}.json"
        if not config.exists():
            config.write_text(json.dumps(op.config, indent=1, sort_keys=True))
        try:
            latency, code, text = _run_op(op, config, self.work / f"{stem}.out.json", tracer)
        except Exception:  # a crashing op fails, the run goes on
            self.attempted += 1
            self.failures.append(f"{op.name}: raised\n{traceback.format_exc()}")
            return None
        self.record(op, code, text)
        return latency

    def one_pass(self, tracer) -> tuple[list[tuple[str, float]], float]:
        latencies = []
        for i, op in enumerate(self.ops):
            latency = self.run(op, f"op{i}", tracer)
            if latency is not None:
                latencies.append((op.command, latency))
        return latencies, sum(lat for _, lat in latencies)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    work = Path(args.work)
    run = Run(args.workload, args.seed, work)

    # warm the CLI path once, untimed, on the README bond at a coarse grid
    run.run(workloads.Op("warm-up", "price", workloads.README_CONFIG, 4), "warm-up")

    tracer = tracing.Tracer() if args.trace else None
    passes = []
    started = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            latencies, wall = run.one_pass(tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        entry = {"traced": traced, "wall_s": wall, "ops": latencies}
        if traced:
            spans, counts = tracer.take()
            entry["spans"] = tracing.summarize(spans)
            entry["counts"] = dict(counts)
            entry["op_s"] = sum(s[3] - s[2] for s in spans if s[1] == -1)
        passes.append(entry)
        elapsed = perf_counter() - started
        if len(passes) >= 2 and elapsed + wall > args.seconds:
            break

    extra = workloads.readme_check_op(args.workload)
    if extra is not None:
        run.run(extra, "readme-check")

    reports = {}
    for i, op in enumerate(run.ops):
        out = work / f"op{i}.out.json"
        if out.exists():
            reports[op.name] = json.loads(out.read_text())
    result = {
        "passes": passes,
        "attempted": run.attempted,
        "failures": run.failures,
        "hashes": run.hashes,
        "gap_se": [r["difference"] / r["mc_std_error"] for n, r in reports.items()
                   if n.startswith("mc-check") and "difference" in r],
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
