"""Recombining trinomial lattice for the default intensity.

The lattice lives in the unit-diffusion coordinate of :mod:`sinkbond.jdcev`,
where a per-layer node spacing of sqrt(3 * dt) together with nearest-node
centering guarantees branch probabilities inside [0, 1].  Each node carries
the back-transformed stock level and the (capped) intensity it implies, and
successors are centred on its drift; all three come from
:func:`sinkbond.jdcev.x_state`, the map the Monte Carlo paths use too.
Every node also gets a one-step default probability 1 - exp(-intensity * dt),
and its diffusion branches scaled by the matching survival factor sum with
it to one; :func:`augment_default` marks the tree ready for pricing, with
the jump leading to the absorbing default state.

A step's :class:`LayerTransition` is the one lattice operator: ``expect``
takes next-layer values back to the current layer (every backward recursion
and decision stage uses it) and ``push``, its adjoint, carries mass forward.

Construction records the survival curve of that push, so CDS legs and
node-independent redemption schedules are sums over it, with no sweep.

The lattice is banded by mass.  While it builds, the survival-weighted
probability of reaching each node is pushed forward, and a layer expands
only the contiguous band of nodes whose reach mass exceeds ``_MASS_FLOOR``
(the heaviest node alone if none does).  Successors of the band that fall
outside the next band stay in their layer as *leaves*: their parents keep the
exact moment-matched triple, but a leaf has zero branch, survival and default
probability, so it is worth zero and the (at most floor-sized) mass reaching
it is lost.  :func:`validate_tree` reports that truncated mass per layer.
Layer width therefore grows like the square root of the step count instead
of linearly.  Edge nodes are not given Hull-White shifted branching: its
middle probability 2a - a^2 - 1/3 is negative whenever the mean offset
satisfies |a| < 0.184 dx, the usual case for a drift without mean reversion.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .jdcev import JDCEVParams, transform, x_state
from .market_data import TimeGrid

_PROB_TOL = 1e-12
#: Reach mass a node must exceed for its layer's band to include it.
_MASS_FLOOR = 1e-20
#: Total truncated mass above which :func:`validate_tree` flags the lattice.
_TRUNCATION_TOL = 1e-12
#: Float spacing at x0, as a fraction of the smallest node spacing, above
#: which :func:`build_trinomial` refuses the lattice: its nodes would collapse.
_SPACING_TOL = 1e-4
#: |branch variance - dt| / dt above which :func:`validate_tree` flags a layer.
_VARIANCE_TOL = 1e-3


class TreeConstructionError(RuntimeError):
    """A branch probability left [0, 1] (the offending node is reported), or
    the node spacing does not survive rounding at the root coordinate."""


@dataclass(frozen=True)
class TreeLayer:
    """Nodes of one time slice, sorted by increasing coordinate."""

    x: np.ndarray
    z_level: np.ndarray
    intensity: np.ndarray

    @property
    def size(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class LayerTransition:
    """Branching data for one step t_n -> t_{n+1}.

    succ: (3, m) indices into the next layer, rows ordered down/mid/up.
    branch_probs: (3, m) diffusion probabilities; columns sum to 1 on live nodes.
    survival: (m,) one-step survival exp(-intensity * dt).
    default_prob: (m,) one-step default probability 1 - survival.
    probs: (3, m) survival-scaled branch probabilities.
    live: (m,) False at leaves, whose branch, survival and default
        probabilities are all zero.
    next_size: number of nodes in the next layer.
    """

    succ: np.ndarray
    branch_probs: np.ndarray
    survival: np.ndarray
    default_prob: np.ndarray
    probs: np.ndarray
    live: np.ndarray
    next_size: int

    def expect(self, values: np.ndarray) -> np.ndarray:
        """Survival-weighted expectation of next-layer ``values`` at each node.

        The last axis of ``values`` runs over next-layer nodes, so an (R, m')
        array gives one (R, m) expectation per row.  The adjoint of
        :meth:`push`: dot(push(m), v) == dot(m, expect(v)).
        """
        return (
            self.probs[0] * values[..., self.succ[0]]
            + self.probs[1] * values[..., self.succ[1]]
            + self.probs[2] * values[..., self.succ[2]]
        )

    def push(self, mass: np.ndarray) -> np.ndarray:
        """Carry per-node mass one step forward along the survival-scaled branches."""
        return sum(
            np.bincount(self.succ[row], self.probs[row] * mass, minlength=self.next_size)
            for row in range(3)
        )


@dataclass(frozen=True)
class IntensityTree:
    """Layers and transitions, plus the survival curve recorded while building:
    ``survival[n]`` is the reach mass at t_n, ``default_mass[n]`` what defaults in step n.
    """

    grid: TimeGrid
    layers: tuple[TreeLayer, ...]
    transitions: tuple[LayerTransition, ...]
    survival: np.ndarray
    default_mass: np.ndarray
    augmented: bool
    params: JDCEVParams | None = None

    @property
    def n_steps(self) -> int:
        return len(self.transitions)

    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(layer.size for layer in self.layers)


def _read_only(*arrays: np.ndarray) -> np.ndarray:
    """Lock the arrays against writes; returns the first."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays[0]


def _layer_from_x(params: JDCEVParams, x: np.ndarray) -> tuple[TreeLayer, np.ndarray]:
    """Freeze the layer at coordinates ``x``; also returns the successor drift there."""
    z, lam, drift = x_state(params, x)
    _read_only(x, z, lam)
    return TreeLayer(x=x, z_level=z, intensity=lam), drift


def _check_branch_probs(probs: np.ndarray, layer: int, first: int = 0) -> None:
    """Abort on a column outside [0, 1] or not summing to one.

    ``probs`` holds the columns of consecutive nodes starting at index ``first``.
    """
    bad = np.argwhere((probs < -_PROB_TOL) | (probs > 1.0 + _PROB_TOL))
    if bad.size:
        row, node = bad[0]
        raise TreeConstructionError(
            f"layer {layer} node {first + int(node)}: branch probability "
            f"{probs[row, node]!r} outside [0, 1]"
        )
    sums = probs.sum(axis=0)
    off = np.argmax(np.abs(sums - 1.0))
    if abs(sums[off] - 1.0) > 1e-9:
        raise TreeConstructionError(
            f"layer {layer} node {first + int(off)}: branch probabilities sum to {sums[off]!r}"
        )


def _transition(
    succ: np.ndarray, branch: np.ndarray, lam: np.ndarray, dt: float, live: np.ndarray, next_size: int
) -> LayerTransition:
    """Freeze one step's branching, attaching survival and default probabilities.

    Leaves (``live`` False) must come with zero ``branch`` columns; they also
    get zero survival and default probability.
    """
    survival = np.where(live, np.exp(-lam * dt), 0.0)
    default_prob = np.where(live, -np.expm1(-lam * dt), 0.0)
    probs = branch * survival
    _read_only(succ, branch, survival, default_prob, probs, live)
    return LayerTransition(
        succ=succ,
        branch_probs=branch,
        survival=survival,
        default_prob=default_prob,
        probs=probs,
        live=live,
        next_size=next_size,
    )


def build_trinomial(params: JDCEVParams, grid: TimeGrid) -> IntensityTree:
    """Build the mass-banded lattice; :func:`augment_default` readies it for pricing.

    From each band node the central successor is the next-layer node nearest
    to the one-step conditional mean x + nu(x) * dt; the three probabilities
    match that mean exactly and the conditional variance dt.  The next layer
    spans the band's successors, and its own band is the contiguous run of
    nodes whose pushed reach mass exceeds ``_MASS_FLOOR`` (or its heaviest node
    when none does); the rest are leaves.  The last layer has no band: all its
    nodes are kept.  A root coordinate so large that its float spacing exceeds
    ``_SPACING_TOL`` times the smallest step's node spacing is refused: the
    nodes would round onto each other.
    """
    x0 = float(transform(params, params.z0))
    dx_min = math.sqrt(3.0 * float(np.min(grid.steps)))
    ulp = float(np.spacing(x0))
    if not ulp <= _SPACING_TOL * dx_min:
        raise TreeConstructionError(
            f"node spacing {dx_min!r} does not survive rounding at x0 = {x0!r} "
            f"(float spacing {ulp!r}); the lattice nodes would collapse"
        )
    root, drift = _layer_from_x(params, np.array([x0]))
    layers = [root]
    transitions: list[LayerTransition] = []
    band = slice(0, 1)
    mass = np.ones(1)
    survival, default_mass = np.ones(grid.n_steps + 1), np.zeros(grid.n_steps)

    for n in range(grid.n_steps):
        dt = float(grid.steps[n])
        current = layers[n]
        x = current.x[band]
        mean = x + drift[band] * dt
        dx = math.sqrt(3.0 * dt)
        center = np.rint((mean - x0) / dx).astype(np.intp)
        lo = int(center.min()) - 1
        hi = int(center.max()) + 1
        next_x = x0 + np.arange(lo, hi + 1, dtype=float) * dx
        offset = (mean - (x0 + center * dx)) / dx
        up = 1.0 / 6.0 + 0.5 * (offset**2 + offset)
        down = 1.0 / 6.0 + 0.5 * (offset**2 - offset)
        # 2/3 - offset**2 in exact arithmetic; the complement keeps the
        # triple's rounding from draining mass over thousands of steps
        mid = 1.0 - (down + up)
        branch_band = np.stack([down, mid, up])
        _check_branch_probs(branch_band, n, band.start)
        ci = center - lo
        succ_band = np.stack([ci - 1, ci, ci + 1])

        live = np.zeros(current.size, dtype=bool)
        live[band] = True
        succ = np.zeros((3, current.size), dtype=np.intp)
        succ[:, band] = succ_band
        branch = np.zeros((3, current.size))
        branch[:, band] = branch_band
        tr = _transition(succ, branch, current.intensity, dt, live, next_x.size)
        transitions.append(tr)
        layer, drift = _layer_from_x(params, next_x)
        layers.append(layer)

        default_mass[n] = np.sum(mass * tr.default_prob)
        mass = tr.push(mass)
        survival[n + 1] = mass.sum()
        heavy = np.flatnonzero(mass > _MASS_FLOOR)
        if heavy.size:
            band = slice(int(heavy[0]), int(heavy[-1]) + 1)
        else:
            heaviest = int(np.argmax(mass))
            band = slice(heaviest, heaviest + 1)

    return IntensityTree(
        grid=grid,
        layers=tuple(layers),
        transitions=tuple(transitions),
        survival=_read_only(survival), default_mass=_read_only(default_mass),
        augmented=False,
        params=params,
    )


def deterministic_tree(grid: TimeGrid, intensities: Union[float, Sequence[float]]) -> IntensityTree:
    """Single-chain lattice carrying a fixed, nonnegative intensity path.

    ``intensities`` is a scalar or one value per grid date; the value at t_n
    drives the step (t_n, t_{n+1}].  The tree has no model parameters and its
    nodes no stock level.  A zero path is the default-free chain of spread
    pricing, where the spread shifts the discount curve instead.
    """
    n_dates = grid.n_steps + 1
    path = np.asarray(intensities, dtype=float)
    if path.ndim == 0:
        path = np.full(n_dates, float(path))
    if path.shape != (n_dates,):
        raise ValueError(f"need one intensity per grid date ({n_dates}), got shape {path.shape}")
    if not np.all(path >= 0.0):
        raise ValueError("intensities must be nonnegative")

    x = np.zeros(1)
    z = np.full(1, np.nan)
    lam = path.reshape(n_dates, 1).copy()
    succ = np.zeros((3, 1), dtype=np.intp)
    branch = np.array([[0.0], [1.0], [0.0]])
    live = np.ones(1, dtype=bool)
    _read_only(x, z, lam)
    layers = tuple(TreeLayer(x=x, z_level=z, intensity=lam[n]) for n in range(n_dates))
    transitions = tuple(
        _transition(succ, branch, lam[n], float(grid.steps[n]), live, 1) for n in range(grid.n_steps)
    )
    # a chain's push multiplies its one mass by the step survival, bit for bit
    survival = np.cumprod([1.0] + [tr.survival[0] for tr in transitions])
    default_mass = survival[:-1] * [tr.default_prob[0] for tr in transitions]
    return IntensityTree(
        grid=grid,
        layers=layers,
        transitions=transitions,
        survival=_read_only(survival), default_mass=_read_only(default_mass),
        augmented=False,
    )


def augment_default(tree: IntensityTree) -> IntensityTree:
    """Mark the tree ready for pricing, with its default branch attached.

    Construction already scales the branches by survival, and
    :func:`build_trinomial` checks that every live node's diffusion branches
    sum to one (a chain's branch is exactly [0, 1, 0]).
    """
    if tree.augmented:
        raise ValueError("tree is already default-augmented")
    return dataclasses.replace(tree, augmented=True)


@dataclass(frozen=True)
class LayerReport:
    layer: int
    size: int
    prob_sum_error: float
    min_branch_prob: float
    max_branch_prob: float
    mean_error: float
    variance_error: float | None
    truncated_mass: float


@dataclass(frozen=True)
class TreeDiagnostics:
    """Read-only health report produced by :func:`validate_tree`."""

    layer_reports: tuple[LayerReport, ...]
    violations: tuple[str, ...]
    layer_sizes: tuple[int, ...]
    max_prob_sum_error: float
    max_mean_error: float
    max_variance_error: float | None
    second_moment_constant: float | None
    total_truncated_mass: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        report = dataclasses.asdict(self)
        report["layers"] = report.pop("layer_reports")
        return {"ok": self.ok, **report}


def validate_tree(tree: IntensityTree) -> TreeDiagnostics:
    """Re-check probability normalization and moment matching, node by node.

    Sums (survival-scaled branches plus default) and moments are checked on
    live nodes; leaves must carry no probability at all.  Moment errors are
    measured on the pre-default branch probabilities against the drift
    target and the step variance.  A tree without model parameters (a
    single chain from :func:`deterministic_tree`) has zero drift and, by
    design, zero variance, so its variance check is skipped; otherwise a layer whose variance misses dt by more than
    ``_VARIANCE_TOL * dt`` is a violation.  A forward pass of the reach mass
    gives each layer's truncated mass (the mass arriving at its leaves); a
    total above ``_TRUNCATION_TOL`` is a violation.
    """
    reports = []
    violations: list[str] = []
    max_sum_err = 0.0
    max_mean_err = 0.0
    max_var_err: float | None = None
    c_var: float | None = None
    mass = np.ones(1)
    total_truncated = 0.0

    for n, tr in enumerate(tree.transitions):
        dt = float(tree.grid.steps[n])
        layer = tree.layers[n]
        next_layer = tree.layers[n + 1]
        live = tr.live

        sums = tr.probs.sum(axis=0) + tr.default_prob
        all_probs = np.vstack([tr.probs, tr.default_prob])
        sum_errs = np.where(live, np.abs(sums - 1.0), 0.0)
        worst = int(np.argmax(sum_errs))
        sum_err = float(sum_errs[worst])
        max_sum_err = max(max_sum_err, sum_err)
        if sum_err > _PROB_TOL:
            violations.append(f"layer {n} node {worst}: probabilities sum to {sums[worst]!r}")
        bad = np.argwhere((all_probs < -_PROB_TOL) | (all_probs > 1.0 + _PROB_TOL))
        for row, node_idx in bad:
            violations.append(
                f"layer {n} node {int(node_idx)}: probability "
                f"{all_probs[row, node_idx]!r} outside [0, 1]"
            )
        for node_idx in np.flatnonzero(~live & np.any(all_probs != 0.0, axis=0)):
            violations.append(f"layer {n} node {int(node_idx)}: leaf carries probability")
        if tr.succ.min() < 0 or tr.succ.max() >= next_layer.size:
            violations.append(f"layer {n}: successor index outside the next layer")
            # clipped so the moment checks and the mass pass can go on
            tr = dataclasses.replace(
                tr, succ=np.clip(tr.succ, 0, next_layer.size - 1), next_size=next_layer.size
            )
        succ = tr.succ

        x = layer.x[live]
        branch = tr.branch_probs[:, live]
        drift = np.zeros_like(x) if tree.params is None else x_state(tree.params, x)[2]
        target = x + drift * dt
        succ_x = next_layer.x[succ[:, live]]
        mean_hat = (branch * succ_x).sum(axis=0)
        mean_err = float(np.max(np.abs(mean_hat - target)))
        max_mean_err = max(max_mean_err, mean_err)

        var_err: float | None = None
        if tree.params is not None:
            var_hat = (branch * (succ_x - target) ** 2).sum(axis=0)
            var_err = float(np.max(np.abs(var_hat - dt)))
            max_var_err = var_err if max_var_err is None else max(max_var_err, var_err)
            ratio = var_err / dt**2
            c_var = ratio if c_var is None else max(c_var, ratio)
            if var_err > _VARIANCE_TOL * dt:
                violations.append(f"layer {n}: branch variance misses dt = {dt!r} by {var_err!r}")

        truncated = float(mass[~live].sum())
        total_truncated += truncated
        mass = tr.push(mass)

        reports.append(
            LayerReport(
                layer=n,
                size=layer.size,
                prob_sum_error=sum_err,
                min_branch_prob=float(tr.probs[:, live].min()),
                max_branch_prob=float(tr.probs[:, live].max()),
                mean_error=mean_err,
                variance_error=var_err,
                truncated_mass=truncated,
            )
        )

    if total_truncated > _TRUNCATION_TOL:
        violations.append(f"truncated mass {total_truncated!r} exceeds {_TRUNCATION_TOL!r}")
    return TreeDiagnostics(
        layer_reports=tuple(reports),
        violations=tuple(violations),
        layer_sizes=tree.layer_sizes(),
        max_prob_sum_error=max_sum_err,
        max_mean_error=max_mean_err,
        max_variance_error=max_var_err,
        second_moment_constant=c_var,
        total_truncated_mass=total_truncated,
    )

