"""Recombining trinomial lattice for the default intensity.

The lattice lives in the unit-diffusion coordinate of :mod:`sinkbond.jdcev`,
where a per-layer node spacing of sqrt(3 * dt) together with nearest-node
centering guarantees branch probabilities inside [0, 1].  Each node carries
its (capped) intensity, and successors are centred on its drift; both come
from :func:`sinkbond.jdcev.x_state`, the map the Monte Carlo paths use too,
with no power.  The node's back-transformed stock level, which no step
reads, is stored beside them.
Every node also gets a one-step default probability 1 - exp(-intensity * dt),
and its diffusion branches scaled by the matching survival factor sum with
it to one; :func:`augment_default` marks the tree ready for pricing, with
the jump leading to the absorbing default state.

A step's :class:`LayerTransition` is the one lattice operator: ``expect``
takes next-layer values back to the current layer (every backward recursion
and decision stage uses it) and ``push``, its adjoint, carries mass forward.
One function freezes every step: bands, chains and the pricer's spread fan.

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

Layer n + 1 holds the nodes x0 + k * dx_n, dx_n = sqrt(3 * dt_n), so a node's
state depends on (k, dx_n) and its branch triple, survival and default
probability on (k, dx_n, dt_n+1).  The build evaluates each once, in windows
of k that flag columns that overflowed, went non-finite or hold a triple
outside [0, 1]: one row of node columns per spacing and one of branch columns
per (spacing, dt), the latter with all eight float rows of a transition, so a
distinct step copies its band once.  A miss refills the rows of every similar
spacing still to be used in one 2-D pass, and a layer is a view of its window.

A step is set by its spacing, its length, its layer's node range and its
band, and many steps of a long grid repeat an earlier one.  The build keeps
one read-only :class:`LayerTransition` per distinct step and one
:class:`TreeLayer` per distinct (spacing, node range), so ``layers`` and
``transitions`` may hold the same object at several indices.
:func:`validate_tree` runs its node checks once per distinct step, keyed by
the objects the checks read and the step length, so it needs no word from
the build on which steps repeat.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .jdcev import JDCEVParams, _level, transform, x_state
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
#: Nodes per block of layers that :func:`validate_tree` checks at once, and
#: columns above which a window pass of :func:`build_trinomial` fills one key;
#: the temporaries stay at a few MB however large the lattice.
_BLOCK_NODES = 8192
#: Nodes a :func:`build_trinomial` lattice may hold, counted over all layers,
#: shared ones included, since pricing work scales with that count (about 120
#: bytes each when unshared); a grid whose lattice would hold more is refused
#: before the layer that crosses it.
_MAX_NODES = 20_000_000


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
        array gives one (R, m) expectation per row, from one gather; the sum
        over the branch axis adds in order, ((p0 v0 + p1 v1) + p2 v2).  The
        adjoint of :meth:`push`: dot(push(m), v) == dot(m, expect(v)).
        """
        return (self.probs * values.take(self.succ, axis=-1)).sum(axis=-2)

    def push(self, mass: np.ndarray) -> np.ndarray:
        """Carry per-node mass one step forward along the survival-scaled branches."""
        return np.bincount(self.succ.ravel(), (self.probs * mass).ravel(), minlength=self.next_size)


@dataclass(frozen=True)
class IntensityTree:
    """Layers and transitions, plus the survival curve recorded while building:
    ``survival[n]`` is the reach mass at t_n, ``default_mass[n]`` what defaults in step n.

    Every array is read-only, and ``layers`` and ``transitions`` may hold
    the same object at several indices: equal steps share one.
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
        arr.setflags(write=False)
    return arrays[0]


def _check_branch_probs(probs: np.ndarray, layer: int, first: int = 0) -> None:
    """Abort on a column outside [0, 1] or not summing to one; a NaN is outside.

    ``probs`` holds the columns of consecutive nodes starting at index ``first``.
    """
    bad = np.argwhere(~((probs >= -_PROB_TOL) & (probs <= 1.0 + _PROB_TOL)))
    if bad.size:
        row, node = bad[0]
        raise TreeConstructionError(
            f"layer {layer} node {first + int(node)}: branch probability "
            f"{probs[row, node]!r} outside [0, 1]"
        )
    sums = probs.sum(axis=0)
    off = np.argmax(np.abs(sums - 1.0))
    if not abs(sums[off] - 1.0) <= 1e-9:
        raise TreeConstructionError(
            f"layer {layer} node {first + int(off)}: branch probabilities sum to {sums[off]!r}"
        )


def _node_columns(params: JDCEVParams, x0: float, dx: float, k: np.ndarray):
    """Rows x, level, intensity and drift of node x0 + k * dx; clean where none can raise."""
    x = x0 + k * dx
    lam, drift = x_state(params, x)
    with np.errstate(over="ignore"):  # the stored level only: it can overflow where x_state is finite
        z = _level(params, np.fmax(x, 0.0))
    return (np.stack((x, z, lam, drift)),), np.isfinite(lam) & np.isfinite(drift)


def _branch_columns(params: JDCEVParams, x0: float, dx_prev, dt, k: np.ndarray):
    """Successors, and rows down/mid/up, survival, default probability and the survival-scaled
    down/mid/up, of node k of a layer spaced ``dx_prev`` over a step ``dt``; clean where the
    node's state is finite and the triple passes the check."""
    x = x0 + k * dx_prev
    lam, drift = x_state(params, x)
    clean = np.isfinite(lam) & np.isfinite(drift)
    mean = x + drift * dt
    dx = np.sqrt(3.0 * dt)
    center = np.rint((mean - x0) / dx).astype(np.intp)
    offset = (mean - (x0 + center * dx)) / dx
    up = 1.0 / 6.0 + 0.5 * (offset**2 + offset)
    down = 1.0 / 6.0 + 0.5 * (offset**2 - offset)
    # 2/3 - offset**2 in exact arithmetic; the complement keeps the
    # triple's rounding from draining mass over thousands of steps
    mid = 1.0 - (down + up)
    rate = -lam * dt
    survival = np.exp(rate)
    floats = np.stack([down, mid, up, survival, -np.expm1(rate), down * survival, mid * survival, up * survival])
    # a NaN fails both bounds; a triple inside them sums to 1 within a few ulps, so they are the whole check
    with np.errstate(all="ignore"):
        clean &= (floats[:3].min(axis=0) >= -_PROB_TOL) & (floats[:3].max(axis=0) <= 1.0 + _PROB_TOL)
    return (np.stack([center - 1, center, center + 1]), floats), clean


def _band_transition(succ, floats, band: slice, size: int, lo: int, hi: int) -> LayerTransition:
    """Freeze one step of a layer of ``size`` nodes from its band's successors,
    numbered from ``lo`` to ``hi`` in the next layer, and :func:`_branch_columns`
    rows, or one column broadcast over the band; nodes off it are all-zero leaves.

    Padding is one zeroed block per dtype: branch, survival, default
    probability and the survival-scaled branches are rows of one float block.
    """
    block = np.zeros((8, size))
    block[:, band] = floats
    index = np.zeros((3, size), dtype=np.intp)
    np.subtract(succ, lo, out=index[:, band])
    live = np.zeros(size, dtype=bool)
    live[band] = True
    _read_only(block, index, live)  # views taken after this are read-only too
    return LayerTransition(index, block[:3], block[3], block[4], block[5:], live, hi - lo + 1)


class _Windows:
    """Per key, the columns ``columns(*key, k)`` over a bounded run of node indices k.

    ``keys`` holds the key of each use in order, a key's first field being the
    node spacing of the layer it indexes.  A miss fills, in one 2-D pass, the
    missing key and every key still to be used whose spacing is within a factor
    2 of its own, each over the same stretch of the coordinate; a pass wider
    than ``_BLOCK_NODES`` columns fills the missing key alone.  A key is
    *ordered* while the first row of its first column array (a node's
    coordinate, or its down successor) never falls along its window.
    """

    def __init__(self, columns, keys: list[tuple], margin: int) -> None:
        self._columns, self._keys, self._margin = columns, keys, margin
        row = {key: r for r, key in enumerate(dict.fromkeys(keys))}
        self._rows = [row[key] for key in keys]
        self._last = np.zeros(len(row), dtype=int)
        self._last[self._rows] = np.arange(len(keys))  # the last write wins: each key's last use
        self._args = [np.array(field)[:, None] for field in zip(*row)]
        self._cached: list = [(0, -1, None, 0, None, False)] * len(row)

    def slice(self, use: int, a: int, b: int) -> tuple[list[np.ndarray], bool, bool]:
        """Columns at k = a..b of the key of use ``use``, whether they came from a pass, and
        whether that key is ordered; see :func:`build_trinomial`."""
        r = self._rows[use]
        lo, hi, cols, q, unclean, ordered = self._cached[r]
        if not (lo <= a and b <= hi):
            lo, hi, cols, q, unclean, ordered = self._fill(use, r, lo, hi, a, b)
        i, j = a - lo, b + 1 - lo
        if self._last[r] == use:  # the key's last use: its window goes once the caller drops the slice
            self._cached[r] = (0, -1, None, 0, None, False)
        if unclean is not None and unclean[i] != unclean[j]:
            cols = self._columns(*self._keys[use], np.arange(a, b + 1, dtype=float))[0]
            _read_only(*cols)
            return cols, False, False
        return [col[..., q, i:j] for col in cols], True, ordered

    def _fill(self, use: int, r: int, lo: int, hi: int, a: int, b: int):
        """Fill key ``r`` over [a - w, b + w] for its run a..b of w nodes (w at least the margin),
        or, near its window lo..hi, over that window grown by their union on the side it missed."""
        w = max(hi, b) - min(lo, a) + 1
        if hi >= lo and w < 2 * (hi - lo + b - a + 2):
            a, b = (a - w if a < lo else lo), (b + w if b > hi else hi)
        else:
            w = max(b - a + 1, self._margin)
            a, b = a - w, b + w
        ratio = self._args[0][r] / self._args[0][:, 0]
        similar = (ratio >= 0.5) & (ratio <= 2.0) & (self._last >= use) & (b - a < _BLOCK_NODES)
        rows = np.union1d(np.flatnonzero(similar), [r])
        first, last = np.floor(a * ratio[rows]).astype(np.int64), np.ceil(b * ratio[rows]).astype(np.int64)
        q = int(np.searchsorted(rows, r))
        first[q], last[q] = a, b
        width = int((last - first).max()) + 1
        k = np.array([np.arange(f, f + width, dtype=float) for f in first.tolist()])
        with np.errstate(all="ignore"):
            cols, clean = self._columns(*(arg[rows] for arg in self._args), k)
        _read_only(*cols)
        unclean = np.zeros((rows.size, width + 1), dtype=np.intp)
        np.cumsum(~clean, axis=1, out=unclean[:, 1:])
        ordered = np.all(cols[0][0, :, 1:] >= cols[0][0, :, :-1], axis=1).tolist()
        for p, s in enumerate(rows.tolist()):  # a key's running count of flagged columns, if it has one
            self._cached[s] = (int(first[p]), int(first[p]) + width - 1, cols, p,
                               unclean[p] if unclean[p, -1] else None, ordered[p])
        return self._cached[r]


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
    nodes would round onto each other.  So is, with a ValueError, a lattice
    of more than ``_MAX_NODES`` nodes, before the layer that crosses it is
    sliced.

    Layers and bands are slices of the module docstring's windows: a miss refills
    [a - w, b + w] for a run a..b of w nodes (w at least the root of the step
    count, as a band grows), or doubles the window it missed on that side when
    the run is near, errors suppressed; a run with a flagged column is evaluated
    alone, unsuppressed and checked, as a layer would be.  A step keyed like an
    earlier one, by (spacing, dt, first node, layer size, band), appends that
    step's transition and next layer, and a new layer keyed like an earlier one,
    by (spacing, node range), that layer; the mass push runs every step.
    """
    x0 = float(transform(params, params.z0))
    steps = grid.steps.tolist()
    spacing = [math.sqrt(3.0 * dt) for dt in steps]
    ulp = float(np.spacing(x0))
    if not ulp <= _SPACING_TOL * min(spacing):
        raise TreeConstructionError(
            f"node spacing {min(spacing)!r} does not survive rounding at x0 = {x0!r} "
            f"(float spacing {ulp!r}); the lattice nodes would collapse"
        )
    spacings = spacing[:1] + spacing  # node spacing of each layer
    margin = math.isqrt(grid.n_steps)
    nodes = _Windows(functools.partial(_node_columns, params, x0), [(dx,) for dx in spacings], margin)
    branches = _Windows(functools.partial(_branch_columns, params, x0), list(zip(spacings, steps)), margin)

    layer_cache: dict[tuple[float, int, int], TreeLayer] = {}
    step_cache: dict[tuple, tuple[LayerTransition, int, TreeLayer]] = {}

    def layer(n: int, lo: int, hi: int) -> TreeLayer:
        """Layer n, of nodes lo..hi."""
        key = (spacings[n], lo, hi)
        if key not in layer_cache:
            (cols,), _, _ = nodes.slice(n, lo, hi)
            layer_cache[key] = TreeLayer(*cols[:3])
        return layer_cache[key]

    k_lo, size, first, stop = 0, 1, 0, 1  # the band is nodes first..stop-1 of the layer
    layers = [layer(0, 0, 0)]
    transitions: list[LayerTransition] = []
    mass = np.ones(1)
    survival, default_mass = np.ones(grid.n_steps + 1), np.zeros(grid.n_steps)
    total = 1

    for n, dt in enumerate(steps):
        key = (spacings[n], dt, k_lo, size, first, stop)
        step = step_cache.get(key)
        if step is None:
            (succ, floats), cached, ordered = branches.slice(n, k_lo + first, k_lo + stop - 1)
            if not cached:
                _check_branch_probs(floats[:3], n, first)
            if ordered:  # the successors never fall along the band: its ends hold their range
                lo, hi = int(succ[0, 0]), int(succ[2, -1])
            else:
                lo, hi = int(np.minimum.reduce(succ[0])), int(np.maximum.reduce(succ[2]))
        else:
            tr, lo, next_layer = step
            hi = lo + tr.next_size - 1
        total += hi - lo + 1
        if total > _MAX_NODES:
            raise ValueError(
                f"the lattice would exceed {_MAX_NODES} nodes at step {n + 1} of {grid.n_steps}; "
                "use a coarser grid"
            )
        if step is None:
            tr = _band_transition(succ, floats, slice(first, stop), size, lo, hi)
            next_layer = layer(n + 1, lo, hi)
            step_cache[key] = tr, lo, next_layer
        transitions.append(tr)
        layers.append(next_layer)
        k_lo, size = lo, hi - lo + 1

        default_mass[n] = np.add.reduce(mass * tr.default_prob)
        mass = tr.push(mass)
        survival[n + 1] = np.add.reduce(mass)
        (heavy,) = (mass > _MASS_FLOOR).nonzero()
        if heavy.size:
            first, stop = int(heavy[0]), int(heavy[-1]) + 1
        else:
            first = int(np.argmax(mass))
            stop = first + 1

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
    _read_only(x, z, lam)
    layers = tuple(TreeLayer(x=x, z_level=z, intensity=lam[n]) for n in range(n_dates))
    rate = -lam[:-1] * grid.steps[:, None]
    kept, zero = np.exp(rate), np.zeros_like(rate)
    rows = np.stack([zero, zero + 1.0, zero, kept, -np.expm1(rate), zero, kept, zero], axis=1)  # (steps, 8, 1)
    transitions = tuple(_band_transition(succ, floats, slice(0, 1), 1, 0, 0) for floats in rows)
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
        """The report as plain data, ``layer_reports`` renamed ``layers`` and listed last."""
        report = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name != "layer_reports"}
        return {"ok": self.ok, **report, "layers": tuple(dict(vars(r)) for r in self.layer_reports)}


def validate_tree(tree: IntensityTree) -> TreeDiagnostics:
    """Re-check probability normalization and moment matching, each distinct step once.

    Sums (survival-scaled branches plus default) and moments are checked on
    live nodes; leaves must carry no probability at all.  Moment errors are
    measured on the pre-default branch probabilities against the drift
    target and the step variance.  A tree without model parameters (a
    single chain from :func:`deterministic_tree`) has zero drift and, by
    design, zero variance, so its variance check is skipped; otherwise a layer whose variance misses dt by more than
    ``_VARIANCE_TOL * dt`` is a violation.  A forward pass of the reach mass
    gives each layer's truncated mass (the mass arriving at its leaves); a
    total above ``_TRUNCATION_TOL`` is a violation.  A NaN fails every check.

    A step's node checks read only its layer, its transition, the next layer
    and its length, so they run once per distinct (layer, transition, next
    layer) by identity and dt, and every step with that key gets the same
    statistics and the same violations under its own layer number; nothing
    is taken on trust from the build.  The checks run on blocks of distinct
    steps of at most ``_BLOCK_NODES`` nodes (a larger layer is a block of
    its own), as whole-block array operations with per-step maxima and
    minima taken by ``reduceat``, into one record per distinct step: its
    statistics, violation texts (built only for flagged steps), leaf mask and
    pushing transition.  One pass over the steps reads the records, names the
    violations, sums the truncated mass and pushes.
    """
    layers = tree.layers
    steps = tree.grid.steps.tolist()
    first: dict[tuple, int] = {}
    owner = [  # per step, the first step with its key
        first.setdefault((id(layers[n]), id(tr), id(layers[n + 1]), steps[n]), n)
        for n, tr in enumerate(tree.transitions)
    ]
    distinct = list(first.values())
    records = {}
    for a, b in _blocks([layers[n].size for n in distinct]):
        records.update(zip(distinct[a:b], _check_block(tree, distinct[a:b])))

    violations: list[str] = []
    reports = []
    mass = np.ones(1)
    total_truncated = 0.0
    for n, d in enumerate(owner):
        stats, texts, leaves, pushed = records[d]
        violations.extend(f"layer {n}{text}" for text in texts)
        truncated = 0.0 if leaves is None else float(mass[leaves].sum())
        total_truncated += truncated
        mass = pushed.push(mass)
        reports.append(LayerReport(n, layers[n].size, *stats, truncated))

    if not total_truncated <= _TRUNCATION_TOL:
        violations.append(f"truncated mass {total_truncated!r} exceeds {_TRUNCATION_TOL!r}")
    # builtin max folds left like a per-layer running maximum: a NaN never replaces an earlier value
    variances = [] if tree.params is None else [r.variance_error for r in reports]
    return TreeDiagnostics(
        layer_reports=tuple(reports),
        violations=tuple(violations),
        layer_sizes=tree.layer_sizes(),
        max_prob_sum_error=max([0.0, *(r.prob_sum_error for r in reports)]),
        max_mean_error=max([0.0, *(r.mean_error for r in reports)]),
        max_variance_error=max(variances, default=None),
        second_moment_constant=max((v / dt**2 for v, dt in zip(variances, steps)), default=None),
        total_truncated_mass=total_truncated,
    )


def _blocks(sizes: list[int]):
    """Runs a..b-1 of consecutive entries of ``sizes`` summing to at most ``_BLOCK_NODES``, or one entry."""
    a, nodes = 0, 0
    for n, size in enumerate(sizes):
        if nodes and nodes + size > _BLOCK_NODES:
            yield a, n
            a, nodes = n, 0
        nodes += size
    if a < len(sizes):
        yield a, len(sizes)


def _check_block(tree: IntensityTree, steps: list[int]):
    """Node checks of the given steps: per step, a record (stats, texts, leaves, pushed)
    of its (sum error, min and max branch probability, mean error, variance error or
    None on a chain), its violation texts after "layer n" in per-layer order, its leaf
    mask or None without leaves, and its transition, successors clipped into the next layer."""
    layers, trs = tree.layers, [tree.transitions[n] for n in steps]
    sizes = np.array([layers[n].size for n in steps])
    next_sizes = np.array([layers[n + 1].size for n in steps])
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    dt = tree.grid.steps[steps]

    live = np.concatenate([tr.live for tr in trs])
    live_ends = np.concatenate(([0], np.cumsum(live)))[np.cumsum(sizes)]
    live_counts = np.diff(live_ends, prepend=0)
    if not live_counts.all():
        raise ValueError(f"layer {steps[int(np.argmin(live_counts))]} has no live node")
    live_starts = live_ends - live_counts
    probs = np.concatenate([tr.probs for tr in trs], axis=1)
    default_prob = np.concatenate([tr.default_prob for tr in trs])
    succ = np.concatenate([tr.succ for tr in trs], axis=1)

    sums = probs.sum(axis=0) + default_prob
    all_probs = np.vstack([probs, default_prob])
    sum_errs = np.where(live, np.abs(sums - 1.0), 0.0)
    sum_err = np.maximum.reduceat(sum_errs, starts)
    outside = ~((all_probs >= -_PROB_TOL) & (all_probs <= 1.0 + _PROB_TOL))
    leafy = ~live & np.any(all_probs != 0.0, axis=0)
    node_flagged = np.logical_or.reduceat(outside.any(axis=0) | leafy, starts)
    succ_bad = (np.minimum.reduceat(succ.min(axis=0), starts) < 0) | (
        np.maximum.reduceat(succ.max(axis=0), starts) >= next_sizes
    )
    if succ_bad.any():  # clipped so the moment checks and the mass pass can go on
        succ = np.clip(succ, 0, np.repeat(next_sizes - 1, sizes))

    # take keeps the (3, m) gathers C-ordered: a boolean [:, live] gather is not,
    # and NumPy's axis-0 reductions over it run about ten times slower
    live_nodes = np.flatnonzero(live)
    x = np.concatenate([layers[n].x for n in steps])[live_nodes]
    branch = np.concatenate([tr.branch_probs for tr in trs], axis=1).take(live_nodes, axis=1)
    live_dt = np.repeat(dt, live_counts)
    drift = np.zeros_like(x) if tree.params is None else x_state(tree.params, x)[1]
    target = x + drift * live_dt
    next_x = np.concatenate([layers[n + 1].x for n in steps])
    next_starts = np.concatenate(([0], np.cumsum(next_sizes)[:-1]))
    succ_x = next_x[(succ + np.repeat(next_starts, sizes)).take(live_nodes, axis=1)]
    mean_err = np.maximum.reduceat(np.abs((branch * succ_x).sum(axis=0) - target), live_starts)
    var_hat = (branch * (succ_x - target) ** 2).sum(axis=0)
    var_err = np.maximum.reduceat(np.abs(var_hat - live_dt), live_starts)
    var_bad = ~(var_err <= _VARIANCE_TOL * dt) & (tree.params is not None)
    live_probs = probs.take(live_nodes, axis=1)
    min_prob = np.minimum.reduceat(live_probs.min(axis=0), live_starts)
    max_prob = np.maximum.reduceat(live_probs.max(axis=0), live_starts)

    sum_bad = ~(sum_err <= _PROB_TOL)
    flags = (sum_bad | node_flagged | succ_bad | var_bad).tolist()
    has_leaves = (live_counts < sizes).tolist()
    var_errs = [None] * len(steps) if tree.params is None else var_err.tolist()
    records = []
    for i, stats in enumerate(zip(sum_err.tolist(), min_prob.tolist(), max_prob.tolist(), mean_err.tolist(), var_errs)):
        tr, texts = trs[i], []
        if flags[i]:
            lo, hi = int(starts[i]), int(starts[i] + sizes[i])
            if sum_bad[i]:
                worst = int(np.argmax(sum_errs[lo:hi]))
                texts.append(f" node {worst}: probabilities sum to {sums[lo + worst]!r}")
            for row, node in np.argwhere(outside[:, lo:hi]):
                texts.append(f" node {int(node)}: probability {all_probs[row, lo + node]!r} outside [0, 1]")
            for node in np.flatnonzero(leafy[lo:hi]):
                texts.append(f" node {int(node)}: leaf carries probability")
            if succ_bad[i]:
                texts.append(": successor index outside the next layer")
                tr = dataclasses.replace(tr, succ=np.clip(tr.succ, 0, next_sizes[i] - 1), next_size=int(next_sizes[i]))
            if var_bad[i]:
                texts.append(f": branch variance misses dt = {float(dt[i])!r} by {float(var_err[i])!r}")
        records.append((stats, texts, ~tr.live if has_leaves[i] else None, tr))
    return records
