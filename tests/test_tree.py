import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mean_chain, push_pass_mass_curve

from sinkbond.jdcev import JDCEVParams, intensity, inverse_transform, transform, x_state
from sinkbond.market_data import build_time_grid
from sinkbond.pricer import price_zcb
from sinkbond.tree import (
    TreeConstructionError,
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
        target = x0 + x_state(fitted_params, np.array([x0]))[2][0] * 0.25
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


class TestDeterministicTree:
    def test_mean_chain_follows_the_euler_mean(self, fitted_params):
        grid = build_time_grid(2.0, 6)
        tree = mean_chain(fitted_params, grid)
        assert tree.layer_sizes() == tuple([1] * (grid.n_steps + 1))
        # side-by-side Euler iteration of the conditional mean
        x = transform(fitted_params, np.array([fitted_params.z0]))
        for n in range(grid.n_steps):
            x = x + x_state(fitted_params, x)[2] * float(grid.steps[n])
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


class TestValidateTree:
    def test_clean_tree_passes(self, fitted_params):
        tree = augment_default(build_trinomial(fitted_params, build_time_grid(2.0, 8)))
        diag = validate_tree(tree)
        assert diag.ok
        assert diag.max_prob_sum_error <= 1e-12
        assert diag.second_moment_constant is not None

    def test_corrupted_probability_is_flagged(self, fitted_params):
        tree = augment_default(build_trinomial(fitted_params, build_time_grid(1.0, 4)))
        probs = tree.transitions[1].probs
        probs.flags.writeable = True
        probs[1, 0] = 1.5
        diag = validate_tree(tree)
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
