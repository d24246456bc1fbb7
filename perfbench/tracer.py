"""Spans and counters recorded around calls into each sinkbond module.

Wrappers replace the name the calling module looks up (for example
``sinkbond.pricer.backward_induction``), so a span follows the path an op
really takes.  Spans stay in memory; the worker summarises them after each
traced pass and writes the summaries out when the run ends.  Counting work done
after a call is itself recorded as a ``trace.count`` span, so it shows up as
tracing overhead rather than as time of the layer that made the call.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter


def _tree_counts(counts: Counter, args, kwargs, tree) -> None:
    sizes = tree.layer_sizes()
    counts["tree.builds"] += 1
    counts["tree.nodes"] += sum(sizes)
    counts["tree.max_layer_width"] = max(counts["tree.max_layer_width"], max(sizes))


def _lattice_bytes(counts: Counter, args, kwargs, tree) -> None:
    """Bytes of the arrays an augmented lattice holds (computed, not measured)."""
    arrays = {}
    for layer in tree.layers:
        for arr in (layer.x, layer.z_level, layer.intensity):
            arrays[id(arr)] = arr
    for tr in tree.transitions:
        for arr in (tr.succ, tr.branch_probs, tr.survival, tr.default_prob, tr.probs):
            arrays[id(arr)] = arr
    total = sum(arr.nbytes for arr in arrays.values())
    counts["tree.lattice_bytes"] = max(counts["tree.lattice_bytes"], total)


def _mdp_counts(counts: Counter, args, kwargs, solution) -> None:
    stages = args[0]
    for stage, table in zip(stages, solution.policy):
        counts["mdp.states"] += len(table)
        for s_index in table:
            counts["mdp.state_nodes"] += stage.size
            counts["mdp.action_evals"] += len(set(stage.actions(s_index))) * stage.size


def _incr(key: str):
    def count(counts: Counter, args, kwargs, result) -> None:
        counts[key] += 1

    return count


def _paths(counts: Counter, args, kwargs, result) -> None:
    counts["mc.paths"] += result.n_paths


#: (module, attribute, span name, counter): every boundary the tracer wraps.
BOUNDARIES = (
    ("sinkbond.cli", "load_config", "cli.load_config", None),
    ("sinkbond.cli", "_emit", "cli.emit", None),
    ("sinkbond.cli", "bond_grid", "instruments.bond_grid", None),
    ("sinkbond.cli", "build_trinomial", "tree.build_trinomial", _tree_counts),
    ("sinkbond.cli", "augment_default", "tree.augment_default", _lattice_bytes),
    ("sinkbond.pricer", "augment_default", "tree.augment_default", _lattice_bytes),
    ("sinkbond.pricer", "deterministic_tree", "tree.deterministic_tree", None),
    ("sinkbond.cli", "validate_tree", "tree.validate_tree", None),
    ("sinkbond.cli", "price_report", "pricer.price_report", None),
    ("sinkbond.cli", "price_fixed_schedule", "pricer.price_fixed_schedule", None),
    ("sinkbond.cli", "z_spread", "pricer.z_spread", None),
    ("sinkbond.cli", "worst_ansatz", "pricer.worst_ansatz", None),
    ("sinkbond.pricer", "deterministic_spread_price", "pricer.deterministic_spread_price",
     _incr("pricer.deterministic_solves")),
    ("sinkbond.pricer", "price_sinking_bond", "pricer.price_sinking_bond", None),
    ("sinkbond.pricer", "build_stage_problems", "pricer.build_stage_problems", None),
    ("sinkbond.pricer", "backward_induction", "mdp.backward_induction", _mdp_counts),
    ("sinkbond.pricer", "evaluate_policy", "mdp.evaluate_policy", None),
    ("sinkbond.cli", "simulate_paths", "mc.simulate_paths", _paths),
    ("sinkbond.cli", "mc_price_fixed_policy", "mc.price_fixed_policy", None),
)


class Tracer:
    """In-memory span and counter recorder; wrappers exist only while installed.

    A span is ``[name, parent index, start, end]``; parents are known because
    ops run on one thread and spans nest.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][3] = perf_counter()

    def span(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, original, name: str, counter):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            if counter is not None:
                idx = self._open("trace.count")
                try:
                    counter(self.counts, args, kwargs, result)
                finally:
                    self._close(idx)
            return result

        return wrapper

    def install(self) -> None:
        from sinkbond.market_data import TimeGrid

        for module, attr, name, counter in BOUNDARIES:
            owner = importlib.import_module(module)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

        index_of = TimeGrid.index_of

        @functools.wraps(index_of)
        def counted_index_of(grid, *args, **kwargs):
            self.counts["market_data.index_of_calls"] += 1
            return index_of(grid, *args, **kwargs)

        self._saved.append((TimeGrid, "index_of", index_of))
        TimeGrid.index_of = counted_index_of

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list[list], Counter]:
        """Spans and counts recorded so far; the recorder starts empty again."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive time and self time (children subtracted).

    Spans nest strictly on one thread, so the part of a span its children
    cover is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, parent, start, end) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return dict(out)
