"""Finite-horizon Markov decision engine over (nominal, intensity-node) states.

A stage problem bundles the stage's table of admissible redemption amounts
per remaining nominal, the step's lattice transition and the cashflow
parameters of the step.  Each stage is computed as one (R, m) array: a row
per nominal index reachable from the full notional (``rows``, sorted), a
column per lattice node.  One kernel, :func:`stage_values`, prices a whole
stage under a per-(row, node) action array, or a leading stack of candidate
ones -- cost plus the discounted transition ``expect`` of the next stage's
array, read at continuation row s - a.  The absorbing post-default state
never appears explicitly: the one-time recovery payment sits inside the
stage cost and everything after default is worth zero.

Action sets are keyed by the remaining nominal alone (the intensity node
never restricts what an issuer may redeem), so a stage's admissible actions
are one lookup ``stage.actions(rows)`` returning an (R, A) grid, largest
amount first.  Finding the optimal policy and valuing a fixed one are one
sweep: forward it collects the reachable rows and each stage's candidate
actions, the admissible grid or the policy's single choice, as (C, R, k);
backward one :func:`stage_values` call values them all and keeps the
smallest.  Ties go to the earlier candidate, so to the largest redemption,
a NaN value wins, and policies are stored in the candidates' dtype.

The issuer chooses only where a stage's table holds a nonzero amount (the
redemption dates and the final stage).  Every other stage redeems nothing
from every row, so its rows continue to themselves and its Bellman step is
a plain discounted expectation: the engine *carries* it, :func:`stage_cost` at
action 0 plus that expectation in a few whole-array operations, bit for bit.
A solution keeps a stage as a :class:`StageTable`, its sorted rows and
(R, m) array.  Values are kept only at decision stages, at stage 0 (the
root) and at the horizon; elsewhere they are ``None`` and
:func:`value_tables` recomputes them from the next stored stage.  Policies
exist at every stage; a carried stage's is the (R, 1) zero column of its table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .tree import LayerTransition

#: Policies map (stage, nominal index) to either a single action index or a
#: per-node vector of action indices.
PolicyFn = Callable[[int, int], Union[int, np.ndarray]]
PolicyLike = Union[PolicyFn, Sequence[Mapping[int, Union[int, np.ndarray]]], "MDPSolution"]


@dataclass(frozen=True)
class StageProblem:
    """One decision stage t_n -> t_{n+1}.

    table: (K+1, A) admissible redemption amounts (nominal-grid units), row
        s those of nominal index s, largest first and padded with its
        smallest amount; a table holding only zeros offers no choice.
    transition: the lattice step t_n -> t_{n+1}.
    coupon: coupon rate C_{n+1} paid at t_{n+1} per unit of remaining nominal.
    recovery: fraction of the remaining nominal paid once upon default.
    discount: riskless discount factor from t_{n+1} back to t_n, a float
        or an (m,) array of one factor per node.
    """

    table: np.ndarray
    transition: LayerTransition
    coupon: float
    recovery: float
    discount: Union[float, np.ndarray]

    def actions(self, rows: Union[int, np.ndarray]) -> np.ndarray:
        """Admissible amounts of a nominal index (its row) or an index array
        (the (R, A) rows); a negative or too-large index raises IndexError
        instead of wrapping around."""
        if (rows.min() if isinstance(rows, np.ndarray) else rows) < 0:
            raise IndexError(f"negative nominal index in {rows}")
        return self.table[rows]

    @property
    def size(self) -> int:
        return self.transition.survival.shape[0]


class StageTable(Mapping[int, np.ndarray]):
    """A stage's sorted nominal ``rows`` and (R, m) ``array``, read as
    {row: array[i]}; a row the stage does not hold raises KeyError.  A carried
    policy's array is (R, 1): broadcast it before indexing the node axis."""

    def __init__(self, rows: np.ndarray, array: np.ndarray):
        self.rows, self.array = rows, array

    def __getitem__(self, s_index: int) -> np.ndarray:
        i = int(np.searchsorted(self.rows, s_index))
        if i == self.rows.size or self.rows[i] != s_index:
            raise KeyError(s_index)
        return self.array[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.rows.tolist())

    def __len__(self) -> int:
        return self.rows.size


@dataclass
class MDPSolution:
    """Per-stage value and policy tables, and the headline root value.

    ``policy[n]`` holds the actions of the rows reachable at stage n: an
    (R, m) array at a decision stage, an (R, 1) zero column at a carried
    one.  ``values[n]`` holds their (R, m) values at decision stages, stage
    0 (one row, the full notional) and the horizon, else ``None``.
    """

    values: tuple[Optional[StageTable], ...]
    policy: tuple[StageTable, ...]

    @property
    def root_value(self) -> float:
        return float(self.values[0].array[0, 0])


def stage_cost(
    stage: StageProblem,
    s_index: Union[int, np.ndarray],
    action_index: Union[int, np.ndarray],
    nominal_steps: int,
) -> np.ndarray:
    """Expected discounted one-step cashflow over layer nodes.

    Survival pays the chosen redemption plus the coupon on the remaining
    nominal; default pays the recovery fraction of the remaining nominal.
    Both land at t_{n+1} and are discounted back one step.  Nominal and
    action indices broadcast against the node axis, so an (R, 1) column of
    nominals gives an (R, m) table.
    """
    s = np.asarray(s_index) / nominal_steps
    a = np.asarray(action_index, dtype=float) / nominal_steps
    tr = stage.transition
    return stage.discount * (
        (a + stage.coupon * s) * tr.survival + tr.default_prob * stage.recovery * s
    )


def stage_values(
    stage: StageProblem,
    rows: np.ndarray,
    actions: np.ndarray,
    next_rows: np.ndarray,
    next_values: np.ndarray,
    nominal_steps: int,
) -> np.ndarray:
    """Cost plus discounted continuation of every (row, node) under ``actions``.

    ``rows`` are the stage's sorted nominal indices; ``actions`` broadcasts
    to (..., len(rows), m), so (C, R, k) candidates are valued at once from
    one expectation; ``next_values`` is the next stage's (R', m') array
    whose sorted row labels are ``next_rows``.  Node j of row s under action
    a continues at row s - a of the next stage.
    """
    remaining = rows[:, None] - np.asarray(actions)
    pos = np.searchsorted(next_rows, remaining)
    missing = next_rows.take(pos, mode="clip") != remaining
    if missing.any():
        raise ValueError(f"missing continuation values for nominal index {remaining[missing][0]}")
    cont = stage.discount * stage.transition.expect(next_values)
    return stage_cost(stage, rows[:, None], actions, nominal_steps) + cont[pos, np.arange(stage.size)]


def _carry(stage: StageProblem, s: np.ndarray, next_values: np.ndarray) -> np.ndarray:
    """A no-choice stage's values from its rows as nominals ``s``, bit for bit :func:`stage_values` at
    action 0 with no lookup (rows continue to themselves); a zero coupon's term, +0.0, is skipped."""
    tr = stage.transition
    values = (tr.default_prob * stage.recovery) * s
    if stage.coupon:
        values += (stage.coupon * s) * tr.survival
    values *= stage.discount
    values += stage.discount * tr.expect(next_values)
    return values


def _decides(stages: Sequence[StageProblem], nominal_steps: int) -> list[bool]:
    """Whether each stage offers a choice: a table holding only zeros for
    every nominal up to ``nominal_steps`` does not.  A table without a row for
    some nominal is left to the decision path, whose lookup refuses it.
    Stages share a few tables, so each distinct table is read once."""
    seen: dict[int, bool] = {}
    for stage in stages:
        if id(stage.table) not in seen:
            seen[id(stage.table)] = bool(stage.table.any()) or stage.table.shape[0] <= nominal_steps
    return [seen[id(stage.table)] for stage in stages]


def _admissible(stage: StageProblem, rows: np.ndarray, n: int) -> np.ndarray:
    """The stage's (R, A) action grid for ``rows`` as (A, R, 1) candidates; no action may exceed its row."""
    grid = stage.actions(rows)
    over = np.flatnonzero((grid > rows[:, None]).any(axis=1))
    if over.size:
        raise ValueError(f"stage {n}, nominal index {rows[over[0]]}: action {grid[over[0]].max()} exceeds the nominal")
    return grid.T[:, :, None]


def _next_rows(rows: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Sorted distinct continuation rows s - a of (C, R, k) candidates; actions never exceed their row."""
    return np.flatnonzero(np.bincount((rows[:, None] - candidates).ravel()))


def _minimize(
    stage: StageProblem, rows: np.ndarray, candidates: np.ndarray, next_rows: np.ndarray, next_values: np.ndarray,
    nominal_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest :func:`stage_values` of each (row, node) over the (C, R, k) ``candidates``, and the
    (R, m) actions giving it.  ``argmin`` keeps the first minimum, so ties go to the earlier
    candidate, and a NaN value from any candidate wins."""
    values = stage_values(stage, rows, candidates, next_rows, next_values, nominal_steps)
    best = values.argmin(axis=0)[None]
    return np.take_along_axis(values, best, axis=0)[0], np.take_along_axis(candidates, best, axis=0)[0]


def _sweep(
    stages: Sequence[StageProblem], nominal_steps: int, candidates: Callable[[int, np.ndarray], Optional[np.ndarray]]
) -> MDPSolution:
    """The Bellman recursion of both solvers.  Forward from the full notional,
    ``candidates(n, rows)`` gives stage n's (C, R, k) candidate actions, or
    ``None`` at a carried stage, which keeps its rows; backward, a carried
    stage is one :func:`_carry` and any other one :func:`_minimize`."""
    rows, grids = [np.array([nominal_steps])], []
    for n in range(len(stages)):
        grids.append(candidates(n, rows[n]))
        rows.append(rows[n] if grids[n] is None else _next_rows(rows[n], grids[n]))

    nxt = np.zeros((len(rows[-1]), stages[-1].transition.next_size))
    values: list[Optional[StageTable]] = [None] * len(stages) + [StageTable(rows[-1], nxt)]
    policy: list[Optional[StageTable]] = [None] * len(stages)
    carried: dict[tuple[int, int], tuple[np.ndarray, StageTable]] = {}
    for n in range(len(stages) - 1, -1, -1):
        stage = stages[n]
        if grids[n] is None:
            key = (id(rows[n]), id(stage.table))  # a run of carried stages shares its rows; a table, its dtype
            if key not in carried:
                carried[key] = rows[n][:, None] / nominal_steps, StageTable(rows[n], stage.table[rows[n], :1])
            s, policy[n] = carried[key]
            nxt = _carry(stage, s, nxt)
            continue
        nxt, chosen = _minimize(stage, rows[n], grids[n], rows[n + 1], nxt, nominal_steps)
        values[n], policy[n] = StageTable(rows[n], nxt), StageTable(rows[n], chosen)
    if values[0] is None:
        values[0] = StageTable(rows[0], nxt)
    return MDPSolution(tuple(values), tuple(policy))


def backward_induction(stages: Sequence[StageProblem], nominal_steps: int) -> MDPSolution:
    """Solve the decision problem; the root value is the instrument's price.
    A deciding stage's candidates are its admissible (A, R, 1) grid."""
    decides = _decides(stages, nominal_steps)
    return _sweep(stages, nominal_steps, lambda n, rows: _admissible(stages[n], rows, n) if decides[n] else None)


def evaluate_policy(stages: Sequence[StageProblem], nominal_steps: int, policy: PolicyLike) -> MDPSolution:
    """The engine's solution of a fixed admissible policy.

    A deciding stage's one candidate is the policy's (1, R, m) actions, so
    only states the policy visits are materialized and schedule maps need
    not be defined away from their own trajectory; :func:`bellman_residual`
    refuses such a solution where a rival action leaves those states.  Every
    stage's actions, carried ones included, are checked against its (R, A)
    table in one comparison, and an inadmissible action raises, naming the
    offending state.  A solution's tables are read whole, one ``searchsorted``
    per stage; a row a table lacks raises KeyError, as reading it would.
    """
    whole = isinstance(policy, MDPSolution)
    fn = policy if callable(policy) else lambda n, s_index: policy[n][s_index]
    decides = _decides(stages, nominal_steps)

    def taken(n: int, rows: np.ndarray) -> Optional[np.ndarray]:
        acts = np.empty((rows.size, stages[n].size), dtype=np.intp)
        if whole:
            table = policy.policy[n]
            at = np.searchsorted(table.rows, rows)
            held = table.rows.take(at, mode="clip") == rows
            if not held.all():
                raise KeyError(int(rows[np.argmin(held)]))
            acts[...] = table.array[at]  # a carried stage's (R, 1) column broadcasts
        else:
            for i, s_index in enumerate(rows.tolist()):
                acts[i] = fn(n, s_index)
        admissible = (acts[:, :, None] == stages[n].actions(rows)[:, None, :]).any(axis=2)
        if not admissible.all():
            r = int(np.flatnonzero(~admissible.all(axis=1))[0])
            raise ValueError(
                f"stage {n}, nominal index {rows[r]}: action {acts[r][~admissible[r]].min()} not admissible"
            )
        return acts[None] if decides[n] else None

    return _sweep(stages, nominal_steps, taken)


def value_tables(
    stages: Sequence[StageProblem], nominal_steps: int, solution: MDPSolution
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Every stage's sorted rows and (R, m) values, from the horizon n = N back to 0.

    A stored table (always the horizon's) yields its own rows and array; a
    carried stage is recomputed from the next stage by the engine's carry.
    """
    for n in range(len(stages), -1, -1):
        table = solution.values[n]
        if table is None:
            values = _carry(stages[n], s, values)
        else:
            rows, values = table.rows, table.array
            s = rows[:, None] / nominal_steps
        yield n, rows, values


def bellman_residual(
    stages: Sequence[StageProblem], nominal_steps: int, solution: MDPSolution
) -> dict[str, float]:
    """Re-run the optimality conditions on a solution, at every stage.

    Returns the largest deviation from the fixed-point property (value at the
    stored minimizer) and from minimality (no admissible action beats the
    value); a NaN deviation makes its key NaN.  Values come from
    :func:`value_tables`, so a carried stretch is checked through the kernel
    against its carry, and the stored stage before it against the stretch.
    """
    fixed_point = minimality = 0.0
    tables = value_tables(stages, nominal_steps, solution)
    _, next_rows, nxt = next(tables)
    for n, rows, stored in tables:
        stage = stages[n]
        at_policy = stage_values(stage, rows, solution.policy[n].array, next_rows, nxt, nominal_steps)
        fixed_point = np.maximum(fixed_point, np.max(np.abs(at_policy - stored)))
        best, _ = _minimize(stage, rows, _admissible(stage, rows, n), next_rows, nxt, nominal_steps)
        minimality = np.maximum(minimality, np.max(stored - best))
        next_rows, nxt = rows, stored
    return {"fixed_point": float(fixed_point), "minimality": float(minimality)}
