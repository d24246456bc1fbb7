"""Policy generators for tests that probe the decision engine from outside."""

from typing import Sequence

import numpy as np

from sinkbond.mdp import StageProblem


def reachable_nominals(
    stages: Sequence[StageProblem], initial_index: int
) -> list[set[int]]:
    """Forward closure of nominal indices under all admissible actions."""
    reach: list[set[int]] = [{initial_index}]
    for stage in stages:
        reach.append({s_index - action for s_index in reach[-1] for action in stage.actions(s_index)})
    return reach


def random_admissible_policy(
    stages: Sequence[StageProblem],
    nominal_steps: int,
    rng: np.random.Generator,
    initial_index: int | None = None,
) -> list[dict[int, int]]:
    """Uniformly random admissible action per reachable (stage, nominal)."""
    if initial_index is None:
        initial_index = nominal_steps
    reach = reachable_nominals(stages, initial_index)
    tables: list[dict[int, int]] = []
    for n, stage in enumerate(stages):
        table = {}
        for s_index in sorted(reach[n]):
            acts = sorted(set(stage.actions(s_index)))
            table[s_index] = int(acts[rng.integers(len(acts))])
        tables.append(table)
    return tables
