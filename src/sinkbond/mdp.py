"""Finite-horizon Markov decision engine over (nominal, intensity-node) states.

A stage problem bundles the admissible redemption amounts per remaining
nominal, the step's lattice transition and the cashflow parameters of the
step.  The continuation of every (nominal, action) pair is the transition's
``expect`` of the next stage's values, discounted: one operator, applied once
per stage.  Values are stored per stage as {nominal index: vector over nodes};
only nominals reachable from the full notional are materialized.  The
absorbing post-default state never appears explicitly: the one-time recovery
payment sits inside the stage cost and everything after default is worth
zero.

Action sets are keyed by the remaining nominal alone (the intensity node
never restricts what an issuer may redeem), which lets every stage run as a
handful of vectorized operations across nodes.  Ties in the minimization are
broken toward the largest redemption so policies are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .tree import LayerTransition

ActionProvider = Callable[[int], Sequence[int]]
#: Policies map (stage, nominal index) to either a single action index or a
#: per-node vector of action indices.
PolicyFn = Callable[[int, int], Union[int, np.ndarray]]
PolicyLike = Union[PolicyFn, Sequence[Mapping[int, Union[int, np.ndarray]]], "MDPSolution"]


@dataclass(frozen=True)
class StageProblem:
    """One decision stage t_n -> t_{n+1}.

    actions: admissible redemption amounts (in nominal-grid units) per
        remaining-nominal index; must be nonempty for every reachable nominal.
    transition: the lattice step t_n -> t_{n+1}.
    coupon: coupon rate C_{n+1} paid at t_{n+1} per unit of remaining nominal.
    recovery: fraction of the remaining nominal paid once upon default.
    discount: riskless discount factor from t_{n+1} back to t_n.
    """

    actions: ActionProvider
    transition: LayerTransition
    coupon: float
    recovery: float
    discount: float

    @property
    def size(self) -> int:
        return self.transition.survival.shape[0]

    def continuation(self, next_values: np.ndarray) -> np.ndarray:
        """Discounted survival-weighted expectation of next-stage values."""
        return self.discount * self.transition.expect(next_values)


@dataclass
class MDPSolution:
    """Value tables, optimal policy and the headline root value."""

    values: tuple[dict[int, np.ndarray], ...]
    policy: tuple[dict[int, np.ndarray], ...]
    initial_index: int

    @property
    def n_stages(self) -> int:
        return len(self.policy)

    @property
    def root_value(self) -> float:
        return float(self.values[0][self.initial_index][0])

    def policy_records(self) -> list[dict]:
        """Flat dump: one record per (stage, nominal, node)."""
        records = []
        for n, table in enumerate(self.policy):
            for s_index in sorted(table):
                for node, action in enumerate(table[s_index]):
                    records.append(
                        {"stage": n, "nominal_index": s_index, "node": node, "action": int(action)}
                    )
        return records


@dataclass
class PolicyValue:
    """Value tables of a fixed (not necessarily optimal) policy."""

    values: tuple[dict[int, np.ndarray], ...]
    initial_index: int

    @property
    def root_value(self) -> float:
        return float(self.values[0][self.initial_index][0])


def stage_cost(
    stage: StageProblem, s_index: int, action_index: int, nominal_steps: int
) -> np.ndarray:
    """Expected discounted one-step cashflow, as a vector over layer nodes.

    Survival pays the chosen redemption plus the coupon on the remaining
    nominal; default pays the recovery fraction of the remaining nominal.
    Both land at t_{n+1} and are discounted back one step.
    """
    if action_index not in set(stage.actions(s_index)):
        raise ValueError(
            f"action {action_index} not admissible for nominal index {s_index}"
        )
    return _cost(stage, s_index, action_index, nominal_steps)


def _cost(
    stage: StageProblem, s_index: int, action_index: Union[int, np.ndarray], nominal_steps: int
) -> np.ndarray:
    s = s_index / nominal_steps
    a = np.asarray(action_index, dtype=float) / nominal_steps
    tr = stage.transition
    return stage.discount * (
        (a + stage.coupon * s) * tr.survival + tr.default_prob * stage.recovery * s
    )


def bellman_step(
    stage: StageProblem,
    values_next: Mapping[int, np.ndarray],
    reachable: Iterable[int],
    nominal_steps: int,
    *,
    stage_index: int | None = None,
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """One backward step: minimize cost plus discounted continuation.

    Returns the stage's value table and the attained minimizers.
    """
    label = "?" if stage_index is None else str(stage_index)
    values: dict[int, np.ndarray] = {}
    policy: dict[int, np.ndarray] = {}
    cont_cache: dict[int, np.ndarray] = {}

    for s_index in sorted(reachable):
        acts = sorted(set(stage.actions(s_index)), reverse=True)
        if not acts:
            raise ValueError(f"stage {label}, nominal index {s_index}: empty action set")
        table = np.empty((len(acts), stage.size))
        for row, action in enumerate(acts):
            remaining = s_index - action
            if remaining < 0:
                raise ValueError(
                    f"stage {label}, nominal index {s_index}: action {action} exceeds the nominal"
                )
            cont = cont_cache.get(remaining)
            if cont is None:
                next_values = values_next.get(remaining)
                if next_values is None:
                    raise ValueError(
                        f"stage {label}: missing continuation values for nominal index {remaining}"
                    )
                cont = stage.continuation(next_values)
                cont_cache[remaining] = cont
            table[row] = _cost(stage, s_index, action, nominal_steps) + cont
        # acts are sorted descending, so argmin's first hit is the largest
        # action among exact ties.
        best = np.argmin(table, axis=0)
        values[s_index] = table[best, np.arange(stage.size)]
        policy[s_index] = np.asarray(acts, dtype=np.intp)[best]
    return values, policy


def reachable_nominals(
    stages: Sequence[StageProblem], initial_index: int
) -> list[set[int]]:
    """Forward closure of nominal indices under all admissible actions."""
    reach: list[set[int]] = [{initial_index}]
    for stage in stages:
        nxt: set[int] = set()
        for s_index in reach[-1]:
            for action in stage.actions(s_index):
                nxt.add(s_index - action)
        reach.append(nxt)
    return reach


def backward_induction(
    stages: Sequence[StageProblem],
    nominal_steps: int,
    initial_index: int | None = None,
) -> MDPSolution:
    """Solve the decision problem; the root value is the instrument's price."""
    if initial_index is None:
        initial_index = nominal_steps
    reach = reachable_nominals(stages, initial_index)
    n_stages = len(stages)

    terminal_size = stages[-1].transition.next_size
    values: list[dict[int, np.ndarray]] = [dict() for _ in range(n_stages + 1)]
    policy: list[dict[int, np.ndarray]] = [dict() for _ in range(n_stages)]
    values[n_stages] = {s: np.zeros(terminal_size) for s in reach[n_stages]}
    for n in range(n_stages - 1, -1, -1):
        values[n], policy[n] = bellman_step(
            stages[n], values[n + 1], reach[n], nominal_steps, stage_index=n
        )
    return MDPSolution(values=tuple(values), policy=tuple(policy), initial_index=initial_index)


def as_policy_fn(policy: PolicyLike) -> PolicyFn:
    """Policy callable from a callable, per-stage tables or an engine solution."""
    if callable(policy):
        return policy
    tables = policy.policy if isinstance(policy, MDPSolution) else policy

    def lookup(stage: int, s_index: int):
        return tables[stage][s_index]

    return lookup


def evaluate_policy(
    stages: Sequence[StageProblem],
    nominal_steps: int,
    policy: PolicyLike,
    initial_index: int | None = None,
) -> PolicyValue:
    """Expected discounted cost of a fixed admissible policy.

    Only states the policy can actually visit are materialized, so schedule
    maps need not be defined away from their own trajectory.  Inadmissible
    actions raise, naming the offending state.
    """
    if initial_index is None:
        initial_index = nominal_steps
    fn = as_policy_fn(policy)
    n_stages = len(stages)

    # forward pass: policy-reachable nominals and the actions taken there
    reach: list[set[int]] = [{initial_index}]
    acts_taken: list[dict[int, np.ndarray]] = []
    for n, stage in enumerate(stages):
        taken: dict[int, np.ndarray] = {}
        nxt: set[int] = set()
        for s_index in reach[n]:
            action = fn(n, s_index)
            action_vec = np.broadcast_to(
                np.asarray(action, dtype=np.intp), (stage.size,)
            )
            admissible = set(stage.actions(s_index))
            for a in np.unique(action_vec):
                if int(a) not in admissible:
                    raise ValueError(
                        f"stage {n}, nominal index {s_index}: action {int(a)} not admissible"
                    )
                nxt.add(s_index - int(a))
            taken[s_index] = action_vec
        acts_taken.append(taken)
        reach.append(nxt)

    values: list[dict[int, np.ndarray]] = [dict() for _ in range(n_stages + 1)]
    values[n_stages] = {s: np.zeros(stages[-1].transition.next_size) for s in reach[n_stages]}
    for n in range(n_stages - 1, -1, -1):
        stage = stages[n]
        table: dict[int, np.ndarray] = {}
        for s_index, action_vec in acts_taken[n].items():
            out = _cost(stage, s_index, action_vec, nominal_steps)
            for a in np.unique(action_vec):
                cont = stage.continuation(values[n + 1][s_index - int(a)])
                mask = action_vec == a
                out = np.where(mask, out + cont, out)
            table[s_index] = out
        values[n] = table
    return PolicyValue(values=tuple(values), initial_index=initial_index)


def bellman_residual(
    stages: Sequence[StageProblem], nominal_steps: int, solution: MDPSolution
) -> dict[str, float]:
    """Re-run the optimality conditions on a stored solution.

    Returns the largest deviation from the fixed-point property (value at the
    stored minimizer) and from minimality (no admissible action beats the
    stored value).
    """
    fixed_point = 0.0
    minimality = 0.0
    for n, stage in enumerate(stages):
        for s_index, stored in solution.values[n].items():
            chosen = solution.policy[n][s_index]
            rows = {}
            for action in set(stage.actions(s_index)):
                cont = stage.continuation(solution.values[n + 1][s_index - action])
                rows[action] = _cost(stage, s_index, action, nominal_steps) + cont
            at_policy = np.empty(stage.size)
            for action, row in rows.items():
                mask = chosen == action
                at_policy[mask] = row[mask]
            fixed_point = max(fixed_point, float(np.max(np.abs(at_policy - stored))))
            for row in rows.values():
                gap = float(np.max(stored - row))
                minimality = max(minimality, gap)
    return {"fixed_point": fixed_point, "minimality": minimality}
