"""Finite-horizon Markov decision engine over (nominal, intensity-node) states.

A stage problem bundles the admissible redemption amounts per remaining
nominal, the step's lattice transition and the cashflow parameters of the
step.  Each stage is computed as one (R, m) array: a row per nominal index
reachable from the full notional (``rows``, sorted), a column per lattice
node; solutions keep the rows in {nominal index: row} tables.  One kernel,
:func:`stage_values`, prices a whole stage under a per-(row, node) action
array -- cost plus the discounted transition ``expect`` of the next stage's
array, read at continuation row s - a -- and backward induction, policy
evaluation and the residual check all run through it.  The absorbing post-default state never appears explicitly: the
one-time recovery payment sits inside the stage cost and everything after
default is worth zero.

Action sets are keyed by the remaining nominal alone (the intensity node
never restricts what an issuer may redeem), so a stage's admissible actions
are one lookup ``stage.actions(rows)`` returning an (R, A) grid, largest
amount first, and the minimization is one kernel call per column.  Ties are
broken toward the largest redemption so policies are reproducible, and a
policy is stored in the grid's dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .tree import LayerTransition

#: Policies map (stage, nominal index) to either a single action index or a
#: per-node vector of action indices.
PolicyFn = Callable[[int, int], Union[int, np.ndarray]]
PolicyLike = Union[PolicyFn, Sequence[Mapping[int, Union[int, np.ndarray]]], "MDPSolution"]


@dataclass(frozen=True)
class StageProblem:
    """One decision stage t_n -> t_{n+1}.

    actions: admissible redemption amounts (nominal-grid units), vectorised:
        a nominal index gives its row, an index array the (R, A) rows, each
        largest first and padded with its smallest amount.  A callable (an
        action table's ``__getitem__``) because callers outside the engine,
        such as ``perfbench/tracer.py``, ask for ``stage.actions(s_index)``.
    transition: the lattice step t_n -> t_{n+1}.
    coupon: coupon rate C_{n+1} paid at t_{n+1} per unit of remaining nominal.
    recovery: fraction of the remaining nominal paid once upon default.
    discount: riskless discount factor from t_{n+1} back to t_n, a float
        or an (m,) array of one factor per node.
    """

    actions: Callable[[Union[int, np.ndarray]], np.ndarray]
    transition: LayerTransition
    coupon: float
    recovery: float
    discount: Union[float, np.ndarray]

    @property
    def size(self) -> int:
        return self.transition.survival.shape[0]


@dataclass
class MDPSolution:
    """Value tables, optimal policy and the headline root value.

    ``values[n]`` and ``policy[n]`` map each reachable nominal index to its
    per-node row.
    """

    values: tuple[dict[int, np.ndarray], ...]
    policy: tuple[dict[int, np.ndarray], ...]
    initial_index: int

    @property
    def root_value(self) -> float:
        return float(self.values[0][self.initial_index][0])


@dataclass(frozen=True)
class PolicyValue:
    """Expected discounted cost of a fixed (not necessarily optimal) policy."""

    root_value: float


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
    to (len(rows), m); ``next_values`` is the next stage's (R', m') array
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


def _admissible(stage: StageProblem, rows: np.ndarray, n: int) -> np.ndarray:
    """The stage's (R, A) action grid for ``rows``; no action may exceed its row."""
    grid = stage.actions(rows)
    over = np.flatnonzero((grid > rows[:, None]).any(axis=1))
    if over.size:
        raise ValueError(f"stage {n}, nominal index {rows[over[0]]}: action {grid[over[0]].max()} exceeds the nominal")
    return grid


def _next_rows(rows: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Sorted distinct continuation rows s - a; actions never exceed their row."""
    return np.flatnonzero(np.bincount((rows[:, None] - actions).ravel()))


def backward_induction(stages: Sequence[StageProblem], nominal_steps: int) -> MDPSolution:
    """Solve the decision problem; the root value is the instrument's price.

    A forward pass collects the reachable rows and action grids; the
    backward pass evaluates the kernel once per action column, descending,
    and only a strictly smaller value replaces the running best, so exact
    ties go to the largest redemption.  The root row is the full notional,
    ``nominal_steps``.
    """
    rows = [np.array([nominal_steps])]
    grids = []
    for n, stage in enumerate(stages):
        grids.append(_admissible(stage, rows[n], n))
        rows.append(_next_rows(rows[n], grids[n]))

    nxt = np.zeros((len(rows[-1]), stages[-1].transition.next_size))
    values = [dict(zip(rows[-1].tolist(), nxt))]
    policy = []
    for n in range(len(stages) - 1, -1, -1):
        stage, grid = stages[n], grids[n]
        best = stage_values(stage, rows[n], grid[:, :1], rows[n + 1], nxt, nominal_steps)
        chosen = np.repeat(grid[:, :1], stage.size, axis=1)
        for col in range(1, grid.shape[1]):
            trial = stage_values(stage, rows[n], grid[:, col:col + 1], rows[n + 1], nxt, nominal_steps)
            better = trial < best
            best = np.where(better, trial, best)
            chosen = np.where(better, grid[:, col:col + 1], chosen)
        # rows are copied out: stage arrays kept alive as views among freed
        # temporaries fragment the heap (5 MB more peak RSS at 252 steps/yr)
        values.append({s: row.copy() for s, row in zip(rows[n].tolist(), best)})
        policy.append({s: row.copy() for s, row in zip(rows[n].tolist(), chosen)})
        nxt = best
    return MDPSolution(tuple(reversed(values)), tuple(reversed(policy)), nominal_steps)


def evaluate_policy(
    stages: Sequence[StageProblem],
    nominal_steps: int,
    policy: PolicyLike,
) -> PolicyValue:
    """Expected discounted cost of a fixed admissible policy.

    Only states the policy can actually visit are materialized, so schedule
    maps need not be defined away from their own trajectory.  Inadmissible
    actions raise, naming the offending state.  The root row is the full
    notional, ``nominal_steps``.
    """
    if callable(policy):
        fn = policy
    else:
        tables = policy.policy if isinstance(policy, MDPSolution) else policy

        def fn(stage: int, s_index: int):
            return tables[stage][s_index]

    # forward pass: policy-reachable rows and the actions taken there, kept as
    # per-row broadcast views so one stage's (R, m) action array exists at a time
    rows = [np.array([nominal_steps])]
    taken = []
    for n, stage in enumerate(stages):
        acts = []
        for s_index in rows[n].tolist():
            acts.append(np.broadcast_to(np.asarray(fn(n, s_index), dtype=np.intp), (stage.size,)))
            inadmissible = set(acts[-1].tolist()).difference(stage.actions(s_index))
            if inadmissible:
                raise ValueError(
                    f"stage {n}, nominal index {s_index}: action {min(inadmissible)} not admissible"
                )
        taken.append(acts)
        rows.append(_next_rows(rows[n], np.array(acts)))

    values = np.zeros((len(rows[-1]), stages[-1].transition.next_size))
    for n in range(len(stages) - 1, -1, -1):
        values = stage_values(stages[n], rows[n], np.array(taken[n]), rows[n + 1], values, nominal_steps)
    return PolicyValue(root_value=float(values[0, 0]))


def bellman_residual(
    stages: Sequence[StageProblem], nominal_steps: int, solution: MDPSolution
) -> dict[str, float]:
    """Re-run the optimality conditions on a stored solution.

    Returns the largest deviation from the fixed-point property (value at the
    stored minimizer) and from minimality (no admissible action beats the
    stored value).
    """
    def stacked(table: Mapping[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        rows = np.array(sorted(table))
        return rows, np.stack([table[s] for s in rows.tolist()])

    fixed_point = 0.0
    minimality = 0.0
    for n, stage in enumerate(stages):
        rows, stored = stacked(solution.values[n])
        _, chosen = stacked(solution.policy[n])
        next_rows, nxt = stacked(solution.values[n + 1])
        at_policy = stage_values(stage, rows, chosen, next_rows, nxt, nominal_steps)
        fixed_point = max(fixed_point, float(np.max(np.abs(at_policy - stored))))
        grid = _admissible(stage, rows, n)
        for col in range(grid.shape[1]):
            trial = stage_values(stage, rows, grid[:, col:col + 1], next_rows, nxt, nominal_steps)
            minimality = max(minimality, float(np.max(stored - trial)))
    return {"fixed_point": fixed_point, "minimality": minimality}
