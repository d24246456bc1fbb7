import collections
import dataclasses
import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    mean_chain,
    per_layer_validate_tree,
    per_step_build_trinomial,
    push_pass_mass_curve,
    three_term_expect,
)

from sinkbond import pricer
from sinkbond.instruments import SinkingBondSpec, bond_grid
from sinkbond.jdcev import JDCEVParams, intensity, inverse_transform, transform, x_state
from sinkbond.market_data import TimeGrid, build_time_grid
from sinkbond.pricer import price_zcb
from sinkbond.tree import (
    LayerTransition,
    TreeConstructionError,
    TreeLayer,
    augment_default,
    build_trinomial,
    deterministic_tree,
    validate_tree,
)


def zero_drift_params():
    # nu(x0) = |beta| lambda0 x0 + (|beta| - 1) / (2 |beta| x0) vanishes for
    # beta = -1/2, lambda0 = 0.01, x0 = 10 (z0 = 25, sigma = 1)
    return JDCEVParams(lambda0=0.01, sigma=1.0, beta=-0.5, z0=25.0)


class TestBuildTrinomial:
    def test_one_step_moment_matching(self, fitted_params):
        grid = build_time_grid(0.25, 4)
        tree = build_trinomial(fitted_params, grid)
        assert tree.layer_sizes() == (1, 3)
        tr = tree.transitions[0]
        assert tr.branch_probs.sum() == pytest.approx(1.0, abs=1e-14)
        x0 = float(tree.layers[0].x[0])
        target = x0 + x_state(fitted_params, np.array([x0]))[1][0] * 0.25
        succ_x = tree.layers[1].x[tr.succ[:, 0]]
        assert float(np.dot(tr.branch_probs[:, 0], succ_x)) == pytest.approx(target, abs=1e-12)

    def test_symmetric_probabilities_without_drift(self):
        params = zero_drift_params()
        grid = build_time_grid(1.0, 4)
        tree = build_trinomial(params, grid)
        down, mid, up = tree.transitions[0].branch_probs[:, 0]
        assert down == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert mid == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert up == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_layer_sizes_within_recombination_bound(self, calm_params):
        tree = build_trinomial(calm_params, build_time_grid(2.0, 12))
        for n, size in enumerate(tree.layer_sizes()):
            assert size <= 2 * n + 1

    def test_boundary_growth_stays_linear(self, fitted_params):
        # near the default boundary the drift can shift centers, so layers
        # may exceed 2n+1, but per-step growth stays bounded
        tree = build_trinomial(fitted_params, build_time_grid(5.0, 12))
        sizes = tree.layer_sizes()
        growth = np.diff(sizes)
        assert growth.max() <= 6
        assert sizes[-1] <= 3 * tree.n_steps

    def test_boundary_nodes_carry_capped_intensity(self, fitted_params):
        tree = build_trinomial(fitted_params, build_time_grid(5.0, 12))
        last = tree.layers[-1]
        at_boundary = last.x <= 0.0
        assert at_boundary.any()
        assert np.all(last.intensity[at_boundary] == fitted_params.lambda_cap)
        assert np.all(last.z_level[at_boundary] == 0.0)

    def test_moment_matching_everywhere(self, fitted_params):
        tree = build_trinomial(fitted_params, build_time_grid(3.0, 8, [0.4, 1.7]))
        diag = validate_tree(tree)
        assert diag.max_mean_error <= 1e-12
        assert diag.max_variance_error <= 1e-12

    def test_lattice_arrays_are_read_only(self, fitted_params):
        tree = build_trinomial(fitted_params, build_time_grid(2.0, 12))
        arrays = [arr for layer in tree.layers for arr in (layer.x, layer.z_level, layer.intensity)]
        fields = [f.name for f in dataclasses.fields(LayerTransition) if f.name != "next_size"]
        arrays += [getattr(tr, name) for tr in tree.transitions for name in fields]
        assert not any(arr.flags.writeable for arr in arrays)

    def test_transition_rows_are_c_contiguous_and_read_only(self, fitted_params):
        # take copies a non-contiguous index on every expect, and the rows are shared by many steps
        grid = bond_grid(README_BOND, 52)
        lattice = build_trinomial(fitted_params, grid)
        chain = deterministic_tree(grid, 0.02)
        transitions = [*lattice.transitions, *chain.transitions, pricer._fan(64)]
        for tr in distinct(transitions):
            for name in ("succ", "probs", "branch_probs"):
                arr = getattr(tr, name)
                assert arr.shape == (3, tr.live.size) and arr.flags.c_contiguous, name
                assert not arr.flags.writeable, name


class TestNodeBudget:
    """A lattice over ``_MAX_NODES`` nodes is refused before the layer that crosses it."""

    def test_budget_is_checked_layer_by_layer(self, monkeypatch):
        import sinkbond.tree

        grid = build_time_grid(10.0, 12)
        nodes = sum(build_trinomial(README_PARAMS, grid).layer_sizes())
        monkeypatch.setattr(sinkbond.tree, "_MAX_NODES", nodes)
        assert sum(build_trinomial(README_PARAMS, grid).layer_sizes()) == nodes
        monkeypatch.setattr(sinkbond.tree, "_MAX_NODES", nodes - 1)
        with pytest.raises(ValueError, match=f"exceed {nodes - 1} nodes at step {grid.n_steps} of {grid.n_steps}"):
            build_trinomial(README_PARAMS, grid)

    def test_refused_before_the_crossing_layer_is_built(self, monkeypatch):
        import sinkbond.tree

        built = []
        layer = sinkbond.tree.TreeLayer

        def counted_layer(*args):
            built.append(args)
            return layer(*args)

        monkeypatch.setattr(sinkbond.tree, "TreeLayer", counted_layer)
        monkeypatch.setattr(sinkbond.tree, "_MAX_NODES", 100)
        with pytest.raises(ValueError, match="exceed 100 nodes at step"):
            build_trinomial(README_PARAMS, build_time_grid(10.0, 12))
        assert sum(args[0].size for args in built) <= 100

    def test_refused_before_a_wide_crossing_layer_is_allocated(self, monkeypatch):
        # one live node drifts a million nodes up, so the next layer would span about
        # 10^6 nodes (24 MB of x, level and intensity); the refusal allocates none of it
        import sinkbond.tree

        params, grid = README_PARAMS, build_time_grid(10.0, 12)
        reference = per_step_build_trinomial(params, grid)
        live = np.flatnonzero(reference.transitions[30].live)
        target = reference.layers[30].x[live[live.size // 2]]
        drift = 1e6 * math.sqrt(3.0 * grid.steps[30]) / grid.steps[30]
        # layers of one spacing share their nodes: the first band holding the target crosses
        crossing = next(n for n, tr in enumerate(reference.transitions) if target in reference.layers[n].x[tr.live])

        def far_drift_at_target(params, x):
            lam, good = x_state(params, x)
            return lam, np.where(x == target, drift, good)

        monkeypatch.setattr(sinkbond.tree, "x_state", far_drift_at_target)
        monkeypatch.setattr(sinkbond.tree, "_MAX_NODES", 100_000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"exceed 100000 nodes at step {crossing + 1} of"):
                build_trinomial(params, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_shared_layers_count_toward_the_budget(self, monkeypatch):
        import sinkbond.tree

        tree = readme_bond_lattice(52)
        total = sum(tree.layer_sizes())
        stored = sum(layer.size for layer in distinct(tree.layers))
        assert stored < total
        monkeypatch.setattr(sinkbond.tree, "_MAX_NODES", (stored + total) // 2)
        with pytest.raises(ValueError, match=f"exceed {(stored + total) // 2} nodes at step"):
            build_trinomial(README_PARAMS, tree.grid)


class TestDeterministicTree:
    def test_mean_chain_follows_the_euler_mean(self, fitted_params):
        grid = build_time_grid(2.0, 6)
        tree = mean_chain(fitted_params, grid)
        assert tree.layer_sizes() == tuple([1] * (grid.n_steps + 1))
        # side-by-side Euler iteration of the conditional mean
        x = transform(fitted_params, np.array([fitted_params.z0]))
        for n in range(grid.n_steps):
            x = x + x_state(fitted_params, x)[1] * float(grid.steps[n])
            expected = intensity(fitted_params, inverse_transform(fitted_params, float(x[0])))
            assert float(tree.layers[n + 1].intensity[0]) == pytest.approx(expected, rel=1e-14)

    def test_constant_path(self):
        grid = build_time_grid(1.0, 4)
        tree = deterministic_tree(grid, 0.02)
        assert tree.layer_sizes() == (1, 1, 1, 1, 1)
        assert np.all([layer.intensity[0] == 0.02 for layer in tree.layers])

    def test_per_date_path(self):
        grid = build_time_grid(1.0, 2)
        tree = deterministic_tree(grid, [0.01, 0.03, 0.0])
        assert [float(layer.intensity[0]) for layer in tree.layers] == [0.01, 0.03, 0.0]
        with pytest.raises(ValueError):
            deterministic_tree(grid, [0.01, 0.03])

    def test_chain_and_fan_transitions_are_read_only_and_keep_their_bits(self):
        """Chain steps and the spread fan equal hand-built transitions field by field, bit for bit."""
        grid = build_time_grid(1.0, 2)
        lam = np.array([[0.01], [0.03], [0.0]])
        chain = [
            LayerTransition(
                succ=np.zeros((3, 1), dtype=np.intp),
                branch_probs=np.array([[0.0], [1.0], [0.0]]),
                survival=np.exp(-lam[n] * dt),
                default_prob=-np.expm1(-lam[n] * dt),
                probs=np.array([[0.0], [1.0], [0.0]]) * np.exp(-lam[n] * dt),
                live=np.ones(1, dtype=bool),
                next_size=1,
            )
            for n, dt in enumerate(grid.steps)
        ]
        fan = LayerTransition(
            succ=np.broadcast_to(np.arange(64), (3, 64)),
            branch_probs=np.broadcast_to([[0.0], [1.0], [0.0]], (3, 64)),
            survival=np.ones(64),
            default_prob=np.zeros(64),
            probs=np.broadcast_to([[0.0], [1.0], [0.0]], (3, 64)),
            live=np.ones(64, dtype=bool),
            next_size=64,
        )
        fields = [f.name for f in dataclasses.fields(LayerTransition) if f.name != "next_size"]
        pairs = [*zip(deterministic_tree(grid, [0.01, 0.03, 0.0]).transitions, chain), (pricer._fan(64), fan)]
        for got, want in pairs:
            assert got.next_size == want.next_size
            for name in fields:
                g, w = getattr(got, name), getattr(want, name)
                assert not g.flags.writeable, name
                assert g.dtype == w.dtype and g.shape == w.shape, name
                assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(w).tobytes(), name

    def test_negative_intensity_rejected(self):
        # a spread is a curve shift, never an intensity: survival above one
        # is not a probability
        grid = build_time_grid(1.0, 2)
        with pytest.raises(ValueError, match="nonnegative"):
            deterministic_tree(grid, -0.03)
        with pytest.raises(ValueError, match="nonnegative"):
            deterministic_tree(grid, [0.01, -0.03, 0.0])

    def test_chain_passes_the_validator(self):
        grid = build_time_grid(1.0, 4)
        diag = validate_tree(augment_default(deterministic_tree(grid, 0.02)))
        assert diag.ok
        assert diag.max_variance_error is None


class TestAugmentDefault:
    def test_survival_scaling(self):
        grid = build_time_grid(0.25, 4)
        tree = augment_default(deterministic_tree(grid, 0.004))
        tr = tree.transitions[0]
        expected_default = 1.0 - math.exp(-0.004 * 0.25)
        assert float(tr.default_prob[0]) == pytest.approx(expected_default, rel=1e-12)
        assert float(tr.default_prob[0]) == pytest.approx(9.995e-4, abs=5e-8)
        assert float(tr.probs[1, 0]) == pytest.approx(math.exp(-0.001), rel=1e-14)

    def test_zero_intensity_leaves_probabilities_alone(self):
        grid = build_time_grid(1.0, 4)
        tree = augment_default(deterministic_tree(grid, 0.0))
        tr = tree.transitions[0]
        assert float(tr.default_prob[0]) == 0.0
        assert np.array_equal(tr.probs, tr.branch_probs)

    def test_capped_intensity_defaults_almost_surely(self):
        grid = build_time_grid(0.25, 1)
        tree = augment_default(deterministic_tree(grid, 1e4))
        assert float(tree.transitions[0].default_prob[0]) == pytest.approx(1.0, abs=1e-12)

    def test_double_augmentation_rejected(self, fitted_params):
        tree = augment_default(build_trinomial(fitted_params, build_time_grid(1.0, 4)))
        with pytest.raises(ValueError):
            augment_default(tree)

    @given(
        lambda0=st.floats(min_value=1e-4, max_value=0.3),
        sigma=st.floats(min_value=0.3, max_value=5.0),
        beta=st.floats(min_value=-1.5, max_value=-0.2),
    )
    @settings(max_examples=40, deadline=None)
    def test_probability_sums_after_augmentation(self, lambda0, sigma, beta):
        # live nodes sum to one; leaves of the mass band carry no probability
        params = JDCEVParams(lambda0=lambda0, sigma=sigma, beta=beta, z0=20.0)
        tree = augment_default(build_trinomial(params, build_time_grid(1.5, 6)))
        for tr in tree.transitions:
            total = tr.probs.sum(axis=0) + tr.default_prob
            assert tr.live.any()
            assert np.max(np.abs(total[tr.live] - 1.0)) <= 1e-12
            assert np.all(tr.probs[:, ~tr.live] == 0.0)
            assert np.all(tr.default_prob[~tr.live] == 0.0)
            assert tr.probs.min() >= 0.0 and tr.probs.max() <= 1.0


def with_transition(tree, n, transition):
    """The tree with transition ``n`` replaced."""
    transitions = tree.transitions[:n] + (transition,) + tree.transitions[n + 1:]
    return dataclasses.replace(tree, transitions=transitions)


def with_nan(tree, n, field, index):
    """The tree with a NaN written into a copy of transition ``n``'s ``field`` at ``index``."""
    values = getattr(tree.transitions[n], field).copy()
    values[index] = math.nan
    return with_transition(tree, n, dataclasses.replace(tree.transitions[n], **{field: values}))


class TestValidateTree:
    def test_clean_tree_passes(self, fitted_params):
        tree = augment_default(build_trinomial(fitted_params, build_time_grid(2.0, 8)))
        diag = validate_tree(tree)
        assert diag.ok
        assert diag.max_prob_sum_error <= 1e-12
        assert diag.second_moment_constant is not None

    def test_corrupted_probability_is_flagged(self, fitted_params):
        tree = augment_default(build_trinomial(fitted_params, build_time_grid(1.0, 4)))
        probs = tree.transitions[1].probs.copy()
        probs[1, 0] = 1.5
        diag = validate_tree(with_transition(tree, 1, dataclasses.replace(tree.transitions[1], probs=probs)))
        assert not diag.ok
        assert any("layer 1 node 0" in v for v in diag.violations)

    def test_successor_outside_next_layer_is_flagged(self, fitted_params):
        tree = augment_default(build_trinomial(fitted_params, build_time_grid(2.0, 8)))
        tr = tree.transitions[3]
        succ = tr.succ.copy()
        succ[0, 0] = -1
        transitions = (
            tree.transitions[:3] + (dataclasses.replace(tr, succ=succ),) + tree.transitions[4:]
        )
        diag = validate_tree(dataclasses.replace(tree, transitions=transitions))
        assert diag.violations == ("layer 3: successor index outside the next layer",)

    def test_report_is_json_ready(self, fitted_params):
        import json

        tree = augment_default(build_trinomial(fitted_params, build_time_grid(1.0, 4)))
        dumped = json.dumps(validate_tree(tree).to_dict())
        assert "layer_sizes" in dumped
        assert "total_truncated_mass" in dumped

    @pytest.mark.parametrize("layer, field, index", [(1, "probs", (1, 0)), (2, "default_prob", (0,))])
    def test_nan_probability_is_flagged(self, fitted_params, layer, field, index):
        tree = augment_default(build_trinomial(fitted_params, build_time_grid(1.0, 4)))
        diag = validate_tree(with_nan(tree, layer, field, index))
        assert not diag.ok
        assert diag.violations[:2] == (
            f"layer {layer} node 0: probabilities sum to {np.float64(math.nan)!r}",
            f"layer {layer} node 0: probability {np.float64(math.nan)!r} outside [0, 1]",
        )

    def test_a_layer_without_live_nodes_is_refused(self, fitted_params):
        tree = augment_default(build_trinomial(fitted_params, build_time_grid(2.0, 8)))
        tr = tree.transitions[3]
        dead = dataclasses.replace(tr, live=np.zeros_like(tr.live))
        with pytest.raises(ValueError, match="layer 3 has no live node"):
            validate_tree(with_transition(tree, 3, dead))

    def test_excess_truncated_mass_is_flagged(self, fitted_params):
        # turning a heavy node into a leaf loses its mass: the sums still
        # hold on live nodes, so only the truncation check can catch it
        tree = augment_default(build_trinomial(fitted_params, build_time_grid(2.0, 8)))
        tr = tree.transitions[3]
        live = tr.live.copy()
        band = np.flatnonzero(live)
        live[band[band.size // 2]] = False
        zeroed = {
            name: np.where(live, getattr(tr, name), 0.0)
            for name in ("branch_probs", "survival", "default_prob", "probs")
        }
        leafy = dataclasses.replace(tr, live=live, **zeroed)
        transitions = tree.transitions[:3] + (leafy,) + tree.transitions[4:]
        diag = validate_tree(dataclasses.replace(tree, transitions=transitions))
        assert diag.total_truncated_mass > 1e-3
        assert diag.layer_reports[3].truncated_mass == diag.total_truncated_mass
        assert diag.violations == (
            f"truncated mass {diag.total_truncated_mass!r} exceeds 1e-12",
        )


class TestMassBand:
    def test_mass_is_conserved(self, fitted_params):
        # survived + cumulative defaulted + cumulative truncated = 1
        tree = augment_default(build_trinomial(fitted_params, build_time_grid(10.0, 52)))
        mass = np.ones(1)
        defaulted = 0.0
        for tr in tree.transitions:
            defaulted += float(np.sum(mass * tr.default_prob))
            mass = tr.push(mass)
        survived = tree.survival[-1]
        truncated = validate_tree(tree).total_truncated_mass
        assert 0.0 < truncated <= 1e-12
        assert survived + defaulted + truncated == pytest.approx(1.0, abs=1e-14)

    def test_width_grows_like_square_root_of_steps(self, fitted_params):
        coarse = build_trinomial(fitted_params, build_time_grid(10.0, 12))
        fine = build_trinomial(fitted_params, build_time_grid(10.0, 52))
        # sqrt(52 / 12) = 2.08; the unbanded lattice would grow by 52 / 12
        assert max(fine.layer_sizes()) <= 2.5 * max(coarse.layer_sizes())

    def test_empty_band_keeps_only_the_heaviest_node(self, flat_curve):
        # one step survives with probability exp(-5e3 / 52) ~ 1e-42, so no
        # node after the root clears the floor
        params = JDCEVParams(lambda0=5e3, sigma=0.5, beta=-1.5, z0=20.0)
        tree = augment_default(build_trinomial(params, build_time_grid(2.0, 52)))
        assert max(tree.layer_sizes()) <= 3
        assert sum(tree.layer_sizes()) <= 3 * tree.n_steps + 1
        assert validate_tree(tree).ok
        assert price_zcb(tree, flat_curve, 0.4) == pytest.approx(0.39984618342816, abs=1e-12)


class TestSurvival:
    def test_matches_step_products_on_chain(self):
        grid = build_time_grid(2.0, 4)
        path = [0.01 + 0.002 * n for n in range(grid.n_steps + 1)]
        tree = augment_default(deterministic_tree(grid, path))
        survival = tree.survival
        expected = 1.0
        for n in range(grid.n_steps):
            expected *= math.exp(-path[n] * float(grid.steps[n]))
            assert survival[n + 1] == pytest.approx(expected, rel=1e-13)

    def test_refinement_converges(self, fitted_params):
        # the coarse end is irregular (absorbing-boundary resolution), so the
        # decreasing-gap check starts once the asymptotic regime is reached
        values = []
        for spy in (4, 16, 32, 64, 128):
            tree = augment_default(build_trinomial(fitted_params, build_time_grid(3.0, spy)))
            values.append(tree.survival[-1])
        gaps = np.abs(np.diff(values))
        assert gaps[2] < gaps[1]
        assert gaps[3] < gaps[2]
        assert gaps[3] < gaps[0] / 5.0

    def test_recorded_curve_equals_a_push_pass_on_a_banded_tree(self, fitted_params):
        tree = build_trinomial(fitted_params, build_time_grid(10.0, 12))
        assert any(not tr.live.all() for tr in tree.transitions)  # the band has leaves
        survival, default_mass = push_pass_mass_curve(tree)
        assert np.array_equal(tree.survival, survival)
        assert np.array_equal(tree.default_mass, default_mass)
        assert not tree.survival.flags.writeable and not tree.default_mass.flags.writeable

    def test_recorded_curve_equals_a_push_pass_on_a_chain(self):
        grid = build_time_grid(2.0, 12)
        tree = deterministic_tree(grid, [0.01 + 0.003 * n for n in range(grid.n_steps + 1)])
        survival, default_mass = push_pass_mass_curve(tree)
        assert np.array_equal(tree.survival, survival)
        assert np.array_equal(tree.default_mass, default_mass)


def test_out_of_range_probability_is_a_hard_failure():
    # the sqrt(3*dt) spacing rule keeps probabilities inside [0,1]; if that
    # ever breaks, construction must abort naming the node, not clamp
    from sinkbond.tree import TreeConstructionError, _check_branch_probs

    probs = np.array([[0.2, -0.4], [0.6, 1.0], [0.2, 0.4]])
    with pytest.raises(TreeConstructionError, match="layer 3 node 1"):
        _check_branch_probs(probs, 3)


def test_nan_branch_probability_is_a_hard_failure():
    # NaN < 0 and NaN > 1 are both false: the range check must fail it
    from sinkbond.tree import TreeConstructionError, _check_branch_probs

    probs = np.array([[0.2, math.nan], [0.6, 0.5], [0.2, 0.5]])
    with pytest.raises(TreeConstructionError, match=r"layer 3 node 6: branch probability .*nan.* outside"):
        _check_branch_probs(probs, 3, first=5)


# x0 = 3.3e17: x0 +- dx rounds onto x0, so layers hold coincident nodes
COLLAPSED = (JDCEVParams(lambda0=0.004, sigma=1e-3, beta=-3.0, z0=1e5), 10.0)
# x0 = 4.5e15: nodes survive at x0 but drift into a coarser binade
PARTLY_COLLAPSED = (JDCEVParams(lambda0=0.004, sigma=1e-3, beta=-2.0, z0=3e6), 2.0)


class TestCollapsedLattice:
    @pytest.mark.parametrize("params, maturity", [COLLAPSED, PARTLY_COLLAPSED], ids=["full", "partial"])
    def test_construction_refuses_it(self, params, maturity):
        with pytest.raises(TreeConstructionError, match="does not survive rounding"):
            build_trinomial(params, build_time_grid(maturity, 12))

    @pytest.mark.parametrize("params, maturity", [COLLAPSED, PARTLY_COLLAPSED], ids=["full", "partial"])
    def test_validation_flags_its_variance(self, monkeypatch, params, maturity):
        import sinkbond.tree

        monkeypatch.setattr(sinkbond.tree, "_SPACING_TOL", math.inf)
        diag = validate_tree(augment_default(build_trinomial(params, build_time_grid(maturity, 12))))
        assert not diag.ok
        assert any("branch variance misses dt" in v for v in diag.violations)


def test_root_node_arrays(fitted_params):
    tree = augment_default(build_trinomial(fitted_params, build_time_grid(0.5, 4)))
    root = tree.transitions[0]
    assert tree.layers[0].intensity[0] == pytest.approx(fitted_params.lambda0, rel=1e-12)
    assert root.succ[:, 0].shape == (3,)
    assert np.all((0 <= root.succ[:, 0]) & (root.succ[:, 0] < tree.layers[1].size))
    assert root.default_prob[0] > 0.0
    assert len(tree.layers) == tree.n_steps + 1


@functools.lru_cache(maxsize=1)
def _banded_tree():
    params = JDCEVParams(lambda0=0.004, sigma=2.8199, beta=-0.6, z0=30.0)
    return augment_default(build_trinomial(params, build_time_grid(10.0, 12)))


@given(layer=st.integers(min_value=0, max_value=119), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_push_and_expect_are_adjoint(layer, seed):
    tr = _banded_tree().transitions[layer]
    rng = np.random.default_rng(seed)
    mass = rng.random(tr.succ.shape[1])
    mass /= mass.sum()
    values = rng.random(tr.next_size)
    assert np.dot(tr.push(mass), values) == pytest.approx(np.dot(mass, tr.expect(values)), abs=1e-14)


def test_push_equals_the_per_node_loop():
    # short steps around off-grid dates make nodes of one row share a
    # successor, so one bincount adds their mass in another order than a
    # loop: equal to the last few bits (all terms are nonnegative)
    params = JDCEVParams(lambda0=0.004, sigma=2.8199, beta=-0.6, z0=30.0)
    tree = build_trinomial(params, build_time_grid(3.0, 7, (0.3, 0.31, 1.05, 2.2)))
    shared = 0
    rng = np.random.default_rng(5)
    for tr in tree.transitions:
        mass = rng.random(tr.succ.shape[1])
        loop = np.zeros(tr.next_size)
        for node in range(mass.size):
            for row in range(3):
                loop[tr.succ[row, node]] += tr.probs[row, node] * mass[node]
        np.testing.assert_allclose(tr.push(mass), loop, rtol=8 * np.finfo(float).eps, atol=0.0)
        shared += any(np.unique(tr.succ[row, tr.live]).size < tr.live.sum() for row in range(3))
    assert shared


#: (parameters, maturity) of the lattices expect() is pinned on: the README set, a risky
#: issuer and the sigma 50 / beta -1e-3 box corner
EXPECT_LATTICES = {
    "readme": (JDCEVParams(lambda0=0.004, sigma=2.8199, beta=-0.6, z0=30.0), 10.0),
    "risky": (JDCEVParams(lambda0=0.5, sigma=2.8199, beta=-0.6, z0=30.0), 3.0),
    "corner": (JDCEVParams(lambda0=0.004, sigma=50.0, beta=-1e-3, z0=30.0), 3.0),
}


@pytest.mark.parametrize(
    "lattice, steps_per_year",
    [(name, spy) for name in EXPECT_LATTICES for spy in (4, 52, 252)] + [("chain", 12), ("fan64", None)],
)
def test_expect_is_the_three_term_sum_byte_for_byte(lattice, steps_per_year):
    # one gather and a sum over the branch axis add in the down, mid, up order
    if lattice == "fan64":
        transitions = [pricer._fan(64)]
    elif lattice == "chain":
        transitions = deterministic_tree(build_time_grid(10.0, steps_per_year), 0.03).transitions
    else:
        params, maturity = EXPECT_LATTICES[lattice]
        tree = augment_default(build_trinomial(params, build_time_grid(maturity, steps_per_year)))
        transitions = {id(tr): tr for tr in tree.transitions}.values()
    rng = np.random.default_rng(7)
    for tr in transitions:
        values = rng.random((21, tr.next_size)) * (rng.random((21, tr.next_size)) < 0.9)  # about 10 % zeros
        for arg in (values[0], values[:1], values):
            got, want = tr.expect(arg), three_term_expect(tr, arg)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


README_PARAMS = JDCEVParams(lambda0=0.004, sigma=2.8199, beta=-0.6, z0=30.0)
# one step survives with probability ~1e-42, so every band after the root is one node
EMPTY_BAND = JDCEVParams(lambda0=5e3, sigma=0.5, beta=-1.5, z0=20.0)


def assert_same_tree(tree, reference):
    assert len(tree.layers) == len(reference.layers)
    for layer, ref in zip(tree.layers, reference.layers):
        for field in ("x", "z_level", "intensity"):
            assert np.array_equal(getattr(layer, field), getattr(ref, field)), field
    for n, (tr, ref) in enumerate(zip(tree.transitions, reference.transitions)):
        for field in ("succ", "branch_probs", "survival", "default_prob", "probs", "live"):
            got, want = getattr(tr, field), getattr(ref, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, field)
        assert tr.next_size == ref.next_size
    assert np.array_equal(tree.survival, reference.survival)
    assert np.array_equal(tree.default_mass, reference.default_mass)


def build_outcome(build, params, grid):
    try:
        return build(params, grid)
    except Exception as exc:  # the outcome compared is the exception's type and text
        return type(exc), str(exc)


#: (maturity, coupon frequency) of the twelve bonds of perfbench's book-52 workload; each redeems every whole year
BOOK_GRIDS = [(5, 1), (6, 2), (7, 1), (8, 2), (9, 1), (10, 1), (10, 2), (11, 1), (12, 2), (12, 1), (8, 1), (6, 1)]


class TestStepLengthWindows:
    """The windowed build against ``oracles.per_step_build_trinomial``, the per-layer build."""

    @pytest.mark.parametrize("maturity, frequency", BOOK_GRIDS)
    def test_book_bond_grid_equals_the_per_step_build(self, maturity, frequency):
        spec = SinkingBondSpec(
            maturity=float(maturity), coupon_rate=0.05, coupon_frequency=frequency,
            redemption_dates=tuple(float(y) for y in range(1, maturity)), admissible_fractions=(0.05, 0.10),
            alpha=50.0, recovery=0.4,
        )
        grid = bond_grid(spec, 52)
        assert_same_tree(build_trinomial(README_PARAMS, grid), per_step_build_trinomial(README_PARAMS, grid))

    def test_a_band_whose_successors_fall_equals_the_per_step_build(self):
        # just above the default boundary a node's mean can fall below its lower neighbour's,
        # so a band's ends do not hold its successor range
        params, grid = JDCEVParams(lambda0=0.004, sigma=10.0, beta=-3.0, z0=1.0), build_time_grid(3.0, 12)
        reference = per_step_build_trinomial(params, grid)
        centers = [tr.succ[1][tr.live] for tr in reference.transitions]
        assert any(c.min() < c[0] or c.max() > c[-1] for c in centers)
        assert_same_tree(build_trinomial(params, grid), reference)

    @pytest.mark.parametrize("steps_per_year", [4, 12, 52, 252])
    def test_readme_lattice_equals_the_per_step_build(self, steps_per_year):
        grid = build_time_grid(10.0, steps_per_year)
        assert_same_tree(build_trinomial(README_PARAMS, grid), per_step_build_trinomial(README_PARAMS, grid))

    def test_semiannual_bond_grid_equals_the_per_step_build(self):
        # a book bond at 52/yr: coupon dates split steps into lengths a few ulps apart
        spec = SinkingBondSpec(
            maturity=10.0, coupon_rate=0.05, coupon_frequency=2, redemption_dates=tuple(float(y) for y in range(1, 10)),
            admissible_fractions=(0.05, 0.10, 0.15), alpha=100.0, recovery=0.4,
        )
        grid = bond_grid(spec, 52)
        assert len(set(grid.steps.tolist())) > 3
        assert_same_tree(build_trinomial(README_PARAMS, grid), per_step_build_trinomial(README_PARAMS, grid))

    @pytest.mark.parametrize("params, maturity", [COLLAPSED, PARTLY_COLLAPSED], ids=["full", "partial"])
    def test_collapsed_lattice_equals_the_per_step_build(self, monkeypatch, params, maturity):
        import sinkbond.tree

        monkeypatch.setattr(sinkbond.tree, "_SPACING_TOL", math.inf)
        grid = build_time_grid(maturity, 12)
        assert_same_tree(build_trinomial(params, grid), per_step_build_trinomial(params, grid))

    # the level underflows to 0 over much of the lattice at z0 = 30; at z0 = 1e295 it
    # overflows a few nodes above the root, inside the windows' margin, and is stored as inf
    @pytest.mark.parametrize("lambda0, z0", [(0.0, 30.0), (0.004, 30.0), (0.004, 1e295)])
    @pytest.mark.parametrize("steps_per_year", [12, 52])
    def test_box_corner_equals_the_per_step_build(self, lambda0, z0, steps_per_year):
        params = JDCEVParams(lambda0=lambda0, sigma=50.0, beta=-1e-3, z0=z0)
        grid = build_time_grid(10.0, steps_per_year)
        assert_same_tree(build_trinomial(params, grid), per_step_build_trinomial(params, grid))

    def test_a_column_is_clean_unless_its_drift_overflows(self):
        # the rational state caps an overflowed x0 / x quietly, and a level past the float range is
        # stored as inf quietly: both columns stay clean.  Only a drift past the float range, as
        # lambda0 = 0 gives at a subnormal x, flags its column (x_state warns on it).
        from sinkbond.tree import _node_columns

        corner = JDCEVParams(lambda0=0.004, sigma=50.0, beta=-1e-3, z0=30.0)
        with np.errstate(divide="raise", over="raise", invalid="raise"):  # as the CLI runs
            (columns,), clean = _node_columns(corner, 0.0, 1.0, np.array([5e-324, 1e-5, 1e3]))
        assert clean.tolist() == [True, True, True]
        x, z, lam, drift = columns
        assert lam[:2].tolist() == [corner.lambda_cap] * 2 and drift[:2].tolist() == [0.0, 0.0]
        assert z[2] == math.inf and np.isfinite(lam[2]) and np.isfinite(drift[2])

        default_free = dataclasses.replace(corner, lambda0=0.0)
        with pytest.warns(RuntimeWarning, match="overflow"):
            x_state(default_free, np.array([5e-324]))
        with np.errstate(all="ignore"):
            (columns,), clean = _node_columns(default_free, 0.0, 5e-324, np.array([0.0, 1.0, 2e300]))
        assert clean.tolist() == [True, False, True]
        assert columns[3, 1] == -math.inf

    @given(
        lambda0=st.one_of(st.just(0.0), st.floats(1e-6, 2.0)),
        sigma=st.floats(1e-3, 50.0),
        beta=st.floats(-5.0, -1e-3),
        z0=st.floats(1e-2, 1e3),
        maturity=st.sampled_from([1.0, 3.0, 10.0]),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_calibration_box_builds_agree(self, lambda0, sigma, beta, z0, maturity):
        params = JDCEVParams(lambda0=lambda0, sigma=sigma, beta=beta, z0=z0)
        grid = build_time_grid(maturity, 12)
        tree = build_outcome(build_trinomial, params, grid)
        reference = build_outcome(per_step_build_trinomial, params, grid)
        if isinstance(reference, tuple):
            assert tree == reference
        else:
            assert_same_tree(tree, reference)

    @pytest.mark.parametrize(
        "params, grid, layer, drift, error",
        [
            # the NaN reaches the int cast of the central successor before any check
            (README_PARAMS, build_time_grid(10.0, 12), 30, math.nan, "invalid value encountered in cast"),
            # a finite drift too large for the node spacing rounds the triple out of [0, 1]
            (EMPTY_BAND, build_time_grid(2.0, 52), 5, 1.1307692307692307e17, "layer 5 node 1: branch probability"),
        ],
        ids=["nan", "huge"],
    )
    def test_a_bad_drift_at_a_live_node_fails_as_in_the_per_step_build(
        self, monkeypatch, params, grid, layer, drift, error
    ):
        import sinkbond.tree

        reference = per_step_build_trinomial(params, grid)
        live = np.flatnonzero(reference.transitions[layer].live)
        target = reference.layers[layer].x[live[live.size // 2]]

        def bad_drift_at_target(params, x):
            lam, good = x_state(params, x)
            return lam, np.where(x == target, drift, good)

        monkeypatch.setattr(sinkbond.tree, "x_state", bad_drift_at_target)
        outcome = build_outcome(build_trinomial, params, grid)
        assert outcome == build_outcome(per_step_build_trinomial, params, grid)
        assert error in outcome[1]

    def test_a_nan_drift_with_the_cast_warning_ignored_is_a_construction_error(self, monkeypatch):
        import sinkbond.tree

        params, grid = README_PARAMS, build_time_grid(10.0, 12)
        reference = per_step_build_trinomial(params, grid)
        live = np.flatnonzero(reference.transitions[30].live)
        target = reference.layers[30].x[live[live.size // 2]]

        def nan_drift_at_target(params, x):
            lam, good = x_state(params, x)
            return lam, np.where(x == target, math.nan, good)

        monkeypatch.setattr(sinkbond.tree, "x_state", nan_drift_at_target)
        with np.errstate(invalid="ignore"):
            outcomes = [build_outcome(build, params, grid) for build in (build_trinomial, per_step_build_trinomial)]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is TreeConstructionError
        assert re.match(r"layer \d+ node \d+: branch probability .*nan.* outside \[0, 1\]", outcomes[0][1])

    def test_far_band_jumps_keep_the_windows_small(self):
        # the band leaps billions of nodes between layers: a cache spanning
        # both bands would need that many columns
        params, grid = JDCEVParams(lambda0=2.0, sigma=1e-3, beta=-5.0, z0=30.0), build_time_grid(2.0, 12)
        reference = per_step_build_trinomial(params, grid)
        starts = [layer.x[0] for layer in reference.layers]
        assert max(np.abs(np.diff(starts))) > 1e9 * math.sqrt(3.0 / 12)
        peaks = []
        for build in (build_trinomial, per_step_build_trinomial):
            tracemalloc.start()
            try:
                build(params, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.1 * peaks[1] + 2**20

    @pytest.mark.parametrize("steps_per_year, nodes", [(12, 6_023), (52, 52_078), (252, 542_678)])
    def test_readme_node_counts(self, steps_per_year, nodes):
        assert sum(build_trinomial(README_PARAMS, build_time_grid(10.0, steps_per_year)).layer_sizes()) == nodes


@functools.lru_cache(maxsize=None)
def readme_lattice(steps_per_year):
    return augment_default(build_trinomial(README_PARAMS, build_time_grid(10.0, steps_per_year)))


# the README config's bond: its coupon and redemption dates split the grid's steps
README_BOND = SinkingBondSpec(
    maturity=10.0, coupon_rate=0.08, coupon_frequency=1, redemption_dates=tuple(float(y) for y in range(1, 10)),
    admissible_fractions=(0.05, 0.10), alpha=75.0, recovery=0.4, full_call=True,
)


@functools.lru_cache(maxsize=None)
def readme_bond_lattice(steps_per_year):
    return augment_default(build_trinomial(README_PARAMS, bond_grid(README_BOND, steps_per_year)))


def distinct(objects):
    """The objects by identity, in order of first occurrence."""
    return list({id(obj): obj for obj in objects}.values())


class TestSharedSteps:
    """Steps with equal spacing, step length, layer range and band share one transition and layer."""

    def test_distinct_transitions_at_252_steps_per_year(self):
        tree = readme_bond_lattice(252)
        assert tree.n_steps == 2520
        assert len(distinct(tree.transitions)) <= 800
        assert len(distinct(tree.layers)) < len(tree.layers)

    def test_build_peak_memory_at_252_steps_per_year(self):
        grid = bond_grid(README_BOND, 252)
        tracemalloc.start()
        try:
            build_trinomial(README_PARAMS, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_steps_sharing_a_transition_have_equal_keys(self):
        # the keys are read off the per-step build, which shares nothing
        tree = readme_bond_lattice(252)
        reference = per_step_build_trinomial(README_PARAMS, tree.grid)
        assert_same_tree(tree, reference)
        steps = tree.grid.steps.tolist()
        spacing = [math.sqrt(3.0 * dt) for dt in steps[:1] + steps[:-1]]

        def key(n):
            layer, live = reference.layers[n], np.flatnonzero(reference.transitions[n].live)
            return steps[n], spacing[n], layer.x[0], layer.size, live[0], live[-1], live.size

        first_step, first_layer = {}, {}
        for n, tr in enumerate(tree.transitions):
            m = first_step.setdefault(id(tr), n)
            assert key(n) == key(m), (m, n)
        for n, layer in enumerate(tree.layers):
            m = first_layer.setdefault(id(layer), n)
            assert np.array_equal(reference.layers[n].x, reference.layers[m].x), (m, n)
        assert len(first_step) < tree.n_steps

    @pytest.mark.parametrize("steps_per_year", [52, 252])
    def test_reports_equal_the_per_step_lattice_reports(self, flat_curve, steps_per_year):
        from sinkbond.pricer import price_report

        tree = readme_bond_lattice(steps_per_year)
        reference = augment_default(per_step_build_trinomial(README_PARAMS, tree.grid))
        for report in (lambda t: price_report(t, flat_curve, README_BOND), lambda t: validate_tree(t).to_dict()):
            assert json.dumps(report(tree), indent=2, sort_keys=True) == json.dumps(
                report(reference), indent=2, sort_keys=True
            )

    def test_a_corrupted_occurrence_of_a_shared_transition_flags_only_its_layer(self):
        tree = readme_bond_lattice(252)
        ids = [id(tr) for tr in tree.transitions]
        n = next(n for n in range(1, tree.n_steps) if ids.count(ids[n]) > 1)
        tr = tree.transitions[n]
        probs = tr.probs.copy()
        probs[1, np.flatnonzero(tr.live)[0]] = 1.5
        diag = validate_tree(with_transition(tree, n, dataclasses.replace(tr, probs=probs)))
        assert diag.violations
        assert all(v.startswith(f"layer {n} ") for v in diag.violations), diag.violations
        assert validate_tree(tree).ok

    def test_validate_tree_checks_each_distinct_step_once(self, monkeypatch):
        import sinkbond.tree

        tree = readme_bond_lattice(252)
        distinct = distinct_steps(tree)
        assert len(distinct) == 659
        seen = []

        def recording_x_state(params, x):
            seen.append(x)
            return x_state(params, x)

        monkeypatch.setattr(sinkbond.tree, "x_state", recording_x_state)
        assert validate_tree(tree).ok
        live_x = [tree.layers[n].x[tree.transitions[n].live] for n in distinct]
        assert np.array_equal(np.concatenate(seen), np.concatenate(live_x))

    @pytest.mark.parametrize("steps_per_year", [52, 252])
    @pytest.mark.parametrize("case", ["one-occurrence", "every-occurrence", "successor", "successor-and-leaf"])
    def test_corrupted_shared_step_report_equals_the_per_layer_report(self, steps_per_year, case):
        trees, steps = shared_corruptions(readme_bond_lattice(steps_per_year))
        assert len(steps) > 2
        diag = assert_same_report(trees[case])
        named = [int(re.match(r"layer (\d+)[ :]", v).group(1)) for v in diag.violations]
        flagged = steps[1:2] if case == "one-occurrence" else steps
        assert sorted(set(named)) == flagged and named == sorted(named), diag.violations
        if case == "successor":
            assert diag.violations == tuple(f"layer {n}: successor index outside the next layer" for n in steps)

    @pytest.mark.parametrize("steps_per_year", [52, 252])
    @pytest.mark.parametrize("change", ["step-length", "next-layer"])
    def test_a_shared_step_with_another_length_or_next_layer_is_checked_on_its_own(self, steps_per_year, change):
        tree = readme_bond_lattice(steps_per_year)
        _, steps = shared_corruptions(tree)
        n = steps[1]
        if change == "step-length":
            times = list(tree.grid.times)
            times[n + 1] = times[n] + 1.05 * (times[n + 1] - times[n])
            tree = dataclasses.replace(tree, grid=TimeGrid(tuple(times)))
        else:
            layer = tree.layers[n + 1]
            shifted = TreeLayer(layer.x + 0.1 * math.sqrt(3.0 * tree.grid.steps[n]), layer.z_level, layer.intensity)
            tree = dataclasses.replace(tree, layers=tree.layers[: n + 1] + (shifted,) + tree.layers[n + 2:])
        diag = assert_same_report(tree)
        assert any(v.startswith(f"layer {n}: branch variance") for v in diag.violations), diag.violations


def distinct_steps(tree):
    """The first step of each distinct key of what a step's checks read: both
    layers and the transition by identity, and dt."""
    layers, steps, first = tree.layers, tree.grid.steps.tolist(), {}
    for n, tr in enumerate(tree.transitions):
        first.setdefault((id(layers[n]), id(tr), id(layers[n + 1]), steps[n]), n)
    return list(first.values())


def shared_corruptions(tree):
    """Copies of ``tree`` with a transition shared by several steps corrupted, and
    the steps of that transition."""
    ids = [id(tr) for tr in tree.transitions]
    most = collections.Counter(ids).most_common(1)[0][0]
    steps = [n for n in range(tree.n_steps) if ids[n] == most]
    tr = tree.transitions[steps[0]]
    live = np.flatnonzero(tr.live)
    probs = tr.probs.copy()
    probs[1, live[0]] = 1.5
    succ = tr.succ.copy()
    succ[2, live[-1]] = tr.next_size + 2
    bad_probs, bad_succ = dataclasses.replace(tr, probs=probs), dataclasses.replace(tr, succ=succ)
    leafy = tr.live.copy()
    leafy[live[-2]] = False  # a leaf that keeps its probabilities; near the band's top, too light to truncate

    def everywhere(bad):
        return dataclasses.replace(tree, transitions=tuple(bad if i == most else t for i, t in zip(ids, tree.transitions)))

    return {
        "one-occurrence": with_transition(tree, steps[1], bad_probs),
        "every-occurrence": everywhere(bad_probs),
        "successor": everywhere(bad_succ),
        "successor-and-leaf": everywhere(dataclasses.replace(bad_succ, live=leafy)),
    }, steps


def assert_same_report(tree):
    """The block validator's report, to the byte, is the per-layer validator's."""
    diag = validate_tree(tree)
    reference = per_layer_validate_tree(tree)
    assert json.dumps(diag.to_dict(), indent=2, sort_keys=True) == json.dumps(
        reference.to_dict(), indent=2, sort_keys=True
    )
    # to_dict keeps the key order and values of the dataclasses.asdict form it replaced
    legacy = dataclasses.asdict(diag)
    legacy["layers"] = legacy.pop("layer_reports")
    assert json.dumps(diag.to_dict()) == json.dumps({"ok": diag.ok, **legacy})
    return diag


def corruptions(tree, n):
    """Copies of ``tree`` with transition ``n`` corrupted in each way the validator flags."""
    tr = tree.transitions[n]
    middle = np.flatnonzero(tr.live)[np.count_nonzero(tr.live) // 2]
    probs = tr.probs.copy()
    probs[1, 0], probs[0, -1] = 1.5, -0.5  # listed row by row, not node by node
    succ = tr.succ.copy()
    succ[0, 0], succ[2, -1] = -1, tr.next_size + 2  # past the next layer is inside the next block's
    live = tr.live.copy()
    live[middle] = False
    leafy = dataclasses.replace(
        tr, live=live,
        **{name: np.where(live, getattr(tr, name), 0.0) for name in ("branch_probs", "survival", "default_prob", "probs")},
    )
    return {
        "probability": with_transition(tree, n, dataclasses.replace(tr, probs=probs)),
        "successor": with_transition(tree, n, dataclasses.replace(tr, succ=succ)),
        "truncation": with_transition(tree, n, leafy),
        "nan-probability": with_nan(tree, n, "probs", (1, 0)),
        "nan-default": with_nan(tree, n, "default_prob", (0,)),
        "nan-branch": with_nan(tree, n, "branch_probs", (1, middle)),
    }


CORRUPTIONS = ["probability", "successor", "truncation", "nan-probability", "nan-default", "nan-branch"]


class TestBlockValidator:
    """``validate_tree`` against ``oracles.per_layer_validate_tree``, the per-layer validator."""

    @pytest.mark.parametrize("steps_per_year", [4, 12, 52, 252])
    def test_readme_lattice_report_equals_the_per_layer_report(self, steps_per_year):
        assert assert_same_report(readme_lattice(steps_per_year)).ok

    def test_chain_report_equals_the_per_layer_report(self):
        grid = build_time_grid(2.0, 12)
        assert_same_report(augment_default(deterministic_tree(grid, [0.01 + 0.003 * n for n in range(grid.n_steps + 1)])))

    @pytest.mark.parametrize("block_nodes", [1, 7, 8192])
    @pytest.mark.parametrize("case", CORRUPTIONS)
    def test_corrupted_report_equals_the_per_layer_report(self, monkeypatch, fitted_params, case, block_nodes):
        import sinkbond.tree

        monkeypatch.setattr(sinkbond.tree, "_BLOCK_NODES", block_nodes)
        for maturity, steps_per_year, layer in [(1.0, 4, 1), (1.0, 4, 2), (2.0, 8, 3)]:
            tree = augment_default(build_trinomial(fitted_params, build_time_grid(maturity, steps_per_year)))
            assert not assert_same_report(corruptions(tree, layer)[case]).ok

    @pytest.mark.parametrize("case", CORRUPTIONS)
    def test_corruptions_on_a_block_boundary_are_reported_as_per_layer(self, case):
        from sinkbond.tree import _BLOCK_NODES, _blocks

        tree = readme_lattice(52)
        distinct = distinct_steps(tree)  # the steps the validator checks, in block order
        sizes = [tree.layers[n].size for n in distinct]
        j = list(_blocks(sizes))[1][0]
        boundary = distinct[j]
        assert distinct[j - 1] == boundary - 1
        assert sum(sizes[:j]) <= _BLOCK_NODES < sum(sizes[: j + 1])
        corrupted = corruptions(corruptions(tree, boundary - 1)[case], boundary)[case]
        diag = assert_same_report(corrupted)
        if case != "truncation":  # a leaf's lost mass is reported as one total
            for layer in (boundary - 1, boundary):
                assert any(v.startswith((f"layer {layer} ", f"layer {layer}:")) for v in diag.violations)

    @pytest.mark.parametrize("params, maturity", [COLLAPSED, PARTLY_COLLAPSED], ids=["full", "partial"])
    def test_collapsed_lattice_report_equals_the_per_layer_report(self, monkeypatch, params, maturity):
        import sinkbond.tree

        monkeypatch.setattr(sinkbond.tree, "_SPACING_TOL", math.inf)
        assert not assert_same_report(augment_default(build_trinomial(params, build_time_grid(maturity, 12)))).ok

    def test_one_node_band_report_equals_the_per_layer_report(self):
        assert assert_same_report(augment_default(build_trinomial(EMPTY_BAND, build_time_grid(2.0, 52)))).ok

    @pytest.mark.parametrize("lambda0", [0.0, 0.004])
    def test_box_corner_report_equals_the_per_layer_report(self, lambda0):
        params = JDCEVParams(lambda0=lambda0, sigma=50.0, beta=-1e-3, z0=30.0)
        assert_same_report(augment_default(build_trinomial(params, build_time_grid(10.0, 52))))

    @given(
        lambda0=st.one_of(st.just(0.0), st.floats(1e-6, 2.0)),
        sigma=st.floats(1e-3, 50.0),
        beta=st.floats(-5.0, -1e-3),
        z0=st.floats(1e-2, 1e3),
        maturity=st.sampled_from([1.0, 3.0, 10.0]),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_calibration_box_reports_agree(self, lambda0, sigma, beta, z0, maturity):
        params = JDCEVParams(lambda0=lambda0, sigma=sigma, beta=beta, z0=z0)
        tree = build_outcome(build_trinomial, params, build_time_grid(maturity, 12))
        if not isinstance(tree, tuple):
            assert_same_report(augment_default(tree))

    def test_peak_memory_stays_bounded_at_252_steps_per_year(self):
        # a whole-lattice pass would hold every node's temporaries at once
        tree = readme_lattice(252)
        tracemalloc.start()
        try:
            validate_tree(tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
