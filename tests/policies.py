"""Policy generators for tests that probe the decision engine from outside."""

from typing import Mapping, Sequence, Union

import numpy as np

from sinkbond.instruments import SinkingBondSpec
from sinkbond.market_data import TimeGrid
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


def fixed_schedule_policy(
    stages: Sequence[StageProblem],
    spec: SinkingBondSpec,
    grid: TimeGrid,
    schedule: Union[str, Mapping[float, float]],
):
    """Engine policy (stage, nominal) -> action of a fixed schedule.

    "max" / "min" take the extreme of each stage's admissible actions; a
    date map redeems its fraction, in nominal-grid units, at the grid date
    nearest each of its dates, nothing elsewhere, and the remainder at the
    last stage.  Inadmissible choices are left for the engine to refuse.
    """
    if isinstance(schedule, str):
        pick = {"max": max, "min": min}[schedule]
        return lambda n, s_index: pick(stages[n].actions(s_index))
    times = np.asarray(grid.times)
    by_stage = {
        int(np.argmin(np.abs(times - date))): round(fraction * 100.0 / spec.alpha * spec.nominal_steps)
        for date, fraction in schedule.items()
    }
    last = len(stages) - 1
    return lambda n, s_index: s_index if n == last else by_stage.get(n, 0)
