import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_actions

from sinkbond.instruments import (
    SinkingBondSpec,
    action_table,
    bond_event_dates,
    bond_grid,
    coupon_dates,
    coupons_on_grid,
    redemption_stages,
)
from sinkbond.market_data import build_time_grid


def two_installment_bond(**overrides):
    base = dict(
        maturity=10.0,
        coupon_rate=0.08,
        coupon_frequency=1,
        redemption_dates=tuple(float(y) for y in range(1, 10)),
        admissible_fractions=(0.05, 0.10),
        alpha=75.0,
        recovery=0.4,
    )
    base.update(overrides)
    return SinkingBondSpec(**base)


class TestSpecValidation:
    def test_nominal_grid_from_alpha(self):
        spec = two_installment_bond()
        assert spec.nominal_steps == 15
        assert spec.redemption_indices == (1, 2)

    def test_alpha_must_be_multiple_of_smallest_installment(self):
        with pytest.raises(ValueError, match="multiple of the smallest"):
            two_installment_bond(alpha=77.0)

    def test_coupon_dates_must_fit_a_grid(self):
        assert len(coupon_dates(SinkingBondSpec(maturity=2.0, coupon_rate=0.05, coupon_frequency=500_000))) == 10**6
        for frequency in (500_001, 10**18):
            with pytest.raises(ValueError, match="coupon periods exceed"):
                SinkingBondSpec(maturity=2.0, coupon_rate=0.05, coupon_frequency=frequency)

    def test_coupon_dates_count_toward_the_grid_limit(self):
        # 10^6 coupon dates pass the coupon cap, but not with the 16 uniform steps of the grid
        spec = SinkingBondSpec(maturity=4.0, coupon_rate=0.05, coupon_frequency=250_000)
        with pytest.raises(ValueError, match="with 1000000 event dates is not a finite step count"):
            bond_grid(spec, 4)

    def test_too_many_coupon_dates_are_refused_before_any_date_list(self, monkeypatch):
        import sinkbond.instruments

        def refuse(spec):
            raise AssertionError("listed the coupon dates of a refused grid")

        monkeypatch.setattr(sinkbond.instruments, "coupon_dates", refuse)
        spec = SinkingBondSpec(maturity=4.0, coupon_rate=0.05, coupon_frequency=250_000)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="with 1000000 event dates is not a finite step count"):
            bond_grid(spec, 4)
        assert time.perf_counter() - start < 0.2

    def test_explicit_nominal_steps_must_fit_installments(self):
        spec = two_installment_bond(alpha=100.0, nominal_steps=20)
        assert spec.redemption_indices == (1, 2)
        with pytest.raises(ValueError, match="not exact"):
            two_installment_bond(alpha=100.0, nominal_steps=7)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"maturity": -1.0},
            {"recovery": 1.5},
            {"alpha": 0.0},
            {"alpha": 130.0},
            {"admissible_fractions": (0.0, 0.1)},
            {"admissible_fractions": (0.1, 1.5)},
            {"redemption_dates": (0.0, 1.0)},
            {"redemption_dates": (1.0, 10.0)},  # at maturity
            {"redemption_dates": (1.0, 1.0)},
            {"coupon_frequency": 0},
            {"coupon_rate": -0.01},
            {"coupon_rate": float("nan")},
            {"coupon_rate": float("inf")},
        ],
    )
    def test_invalid_contracts_rejected(self, overrides):
        with pytest.raises(ValueError):
            two_installment_bond(**overrides)

    def test_a_redemption_date_within_rounding_of_maturity_is_refused(self):
        with pytest.raises(ValueError, match="strictly inside"):
            two_installment_bond(redemption_dates=(1.0, 9.999999999999))
        # a date a rounding step further out keeps its own grid date
        spec = two_installment_bond(redemption_dates=(1.0, 10.0 - 1e-10))
        assert len(redemption_stages(spec, bond_grid(spec, 4))) == 2

    def test_fractional_coupon_periods_rejected(self):
        with pytest.raises(ValueError, match="coupon periods"):
            SinkingBondSpec(maturity=1.3, coupon_rate=0.05, coupon_frequency=1)


def admissible(spec, grid, n, s_index):
    """Stage n's admissible amounts at nominal index s_index, as a set."""
    return set(action_table(spec, grid)[n][s_index].tolist())


class TestActionSet:
    def test_full_nominal_at_redemption_date(self):
        spec = two_installment_bond()
        grid = bond_grid(spec, 4)
        n = grid.index_of(1.0)
        assert admissible(spec, grid, n, 15) == {1, 2}  # 5/75 and 10/75 in 15ths

    def test_small_remainder_restricts_the_set(self):
        spec = two_installment_bond()
        grid = bond_grid(spec, 4)
        n = grid.index_of(2.0)
        assert admissible(spec, grid, n, 1) == {1}

    def test_non_redemption_dates_allow_nothing(self):
        spec = two_installment_bond()
        grid = bond_grid(spec, 4)
        n = grid.index_of(1.25)
        assert admissible(spec, grid, n, 15) == {0}

    def test_terminal_stage_forces_full_redemption(self):
        spec = two_installment_bond()
        grid = bond_grid(spec, 4)
        assert admissible(spec, grid, grid.n_steps - 1, 7) == {7}

    def test_leftover_stub_is_redeemed_when_nothing_else_fits(self):
        # on a refined nominal grid the installment spans 2 units, so a
        # 1-unit stub admits nothing -- the fallback redeems the stub itself
        spec = SinkingBondSpec(
            maturity=6.0,
            redemption_dates=(1.0, 2.0, 3.0, 4.0, 5.0),
            admissible_fractions=(0.25,),
            alpha=100.0,
            nominal_steps=8,
        )
        grid = bond_grid(spec, 2)
        n = grid.index_of(2.0)
        assert admissible(spec, grid, n, 8) == {2}
        assert admissible(spec, grid, n, 1) == {1}

    def test_allow_skip_adds_zero(self):
        spec = two_installment_bond(allow_skip=True)
        grid = bond_grid(spec, 4)
        n = grid.index_of(3.0)
        assert admissible(spec, grid, n, 15) == {0, 1, 2}

    def test_full_call_adds_the_remainder(self):
        spec = SinkingBondSpec(
            maturity=5.0,
            coupon_rate=0.06,
            redemption_dates=(1.0, 2.0),
            full_call=True,
            allow_skip=True,
        )
        grid = bond_grid(spec, 4)
        n = grid.index_of(2.0)
        assert spec.nominal_steps == 1
        assert admissible(spec, grid, n, 1) == {0, 1}
        assert admissible(spec, grid, n, 0) == {0}

    def test_bad_indices_rejected(self):
        spec = two_installment_bond()
        grid = bond_grid(spec, 4)
        with pytest.raises(IndexError):
            admissible(spec, grid, 0, 16)
        with pytest.raises(IndexError):
            admissible(spec, grid, grid.n_steps, 1)

    def test_nominal_grid_cap(self):
        at_cap = SinkingBondSpec(
            maturity=3.0, redemption_dates=(1.0, 2.0), admissible_fractions=(0.05, 0.10),
            nominal_steps=10**6, allow_skip=True, full_call=True,
        )
        tables = {id(t): t for t in action_table(at_cap, bond_grid(at_cap, 1))}
        assert len(tables) == 3
        assert sum(t.nbytes for t in tables.values()) <= 64 * 2**20
        with pytest.raises(ValueError, match="exceeds the limit"):
            SinkingBondSpec(maturity=3.0, nominal_steps=10**6 + 1)

    def test_installment_above_the_nominal_grid_never_fits(self):
        # 100% of the issue is 800 units of a 200-step grid when 25% is outstanding
        spec = SinkingBondSpec(
            maturity=3.0, redemption_dates=(1.0,), admissible_fractions=(0.125, 1.0), alpha=25.0,
            nominal_steps=200,
        )
        grid = bond_grid(spec, 1)
        assert spec.redemption_indices == (100, 800)
        assert action_table(spec, grid)[0].dtype == np.uint8
        assert admissible(spec, grid, 1, 200) == {100}
        assert admissible(spec, grid, 1, 99) == {99}

    def test_three_read_only_tables_shared_by_all_stages(self):
        spec = two_installment_bond()
        grid = bond_grid(spec, 4)
        tables = action_table(spec, grid)
        assert len(tables) == grid.n_steps
        assert len({id(t) for t in tables}) == 3
        for table in tables:
            assert table.shape[0] == spec.nominal_steps + 1
            assert not table.flags.writeable
        assert tables[0].dtype == np.uint8

    @given(s_index=st.integers(min_value=0, max_value=15), stage=st.integers(min_value=0, max_value=39))
    @settings(max_examples=200, deadline=None)
    def test_actions_always_admissible_and_nonempty(self, s_index, stage):
        spec = two_installment_bond()
        grid = bond_grid(spec, 4)
        acts = admissible(spec, grid, stage, s_index)
        assert acts
        for a in acts:
            assert 0 <= a <= s_index

    def test_nominal_trajectory_reaches_zero(self):
        spec = two_installment_bond()
        grid = bond_grid(spec, 4)
        table = action_table(spec, grid)
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = spec.nominal_steps
            for n in range(grid.n_steps):
                acts = table[n][s]
                s -= int(acts[rng.integers(len(acts))])
            assert s == 0


@st.composite
def action_specs(draw):
    """A bond and grid drawn so that stub rows, both flags and a redemption
    date at t_(N-1) all occur; installments are drawn in nominal units."""
    k = draw(st.integers(min_value=1, max_value=40))
    alpha = draw(st.sampled_from([100.0, 50.0, 25.0]))
    top = int(100 * k / alpha)  # the largest installment the contract allows, in units
    # the smallest installment divides k; without an override it is one unit,
    # so the default nominal grid is k, and with one rows below it are stubs
    override = draw(st.booleans())
    smallest = draw(st.sampled_from([d for d in range(1, k + 1) if k % d == 0])) if override else 1
    units = set()
    if draw(st.booleans()) or not override:
        units = {smallest} | draw(st.sets(st.integers(min_value=smallest, max_value=top), max_size=3))
    spy = draw(st.integers(min_value=1, max_value=4))
    years = draw(st.integers(min_value=1, max_value=4))
    dates = draw(st.sets(st.integers(min_value=1, max_value=4 * 4), max_size=6))
    dates = {j for j in dates if j < years * spy}
    spec = SinkingBondSpec(
        maturity=float(years),
        redemption_dates=tuple(j / spy for j in dates),
        admissible_fractions=tuple(u * alpha / (100.0 * k) for u in units),
        alpha=alpha,
        nominal_steps=k if override else None,
        allow_skip=draw(st.booleans()),
        full_call=draw(st.booleans()),
    )
    assert spec.nominal_steps == k
    return spec, bond_grid(spec, spy)


@given(action_specs())
@settings(max_examples=150, deadline=None)
def test_action_table_matches_the_per_call_rule(drawn):
    spec, grid = drawn
    k = spec.nominal_steps
    tables = action_table(spec, grid)
    assert len(tables) == grid.n_steps
    for n, table in enumerate(tables):
        assert table.shape[0] == k + 1
        assert np.iinfo(table.dtype).max >= k
        for s_index, row in enumerate(table.tolist()):
            expected = reference_actions(spec, grid, n, s_index)
            assert set(row) == expected
            # largest first, so a shorter row's padding repeats its minimum
            assert row == sorted(row, reverse=True)
            assert row[-1] == min(expected)


class TestCoupons:
    def test_single_annual_coupon(self):
        spec = SinkingBondSpec(maturity=1.0, coupon_rate=0.05, coupon_frequency=1)
        grid = build_time_grid(1.0, 4)
        assert list(coupons_on_grid(spec, grid)) == [0.0, 0.0, 0.0, 0.0, 0.05]

    def test_semiannual_split(self):
        spec = SinkingBondSpec(maturity=1.0, coupon_rate=0.06, coupon_frequency=2)
        grid = build_time_grid(1.0, 4)
        coupons = coupons_on_grid(spec, grid)
        assert coupons[grid.index_of(0.5)] == pytest.approx(0.03)
        assert coupons[grid.index_of(1.0)] == pytest.approx(0.03)
        assert coupons.sum() == pytest.approx(0.06)

    def test_zero_rate_means_no_coupons(self):
        spec = SinkingBondSpec(maturity=2.0)
        grid = build_time_grid(2.0, 4)
        assert not coupons_on_grid(spec, grid).any()

    def test_missing_coupon_date_is_a_contract_violation(self):
        spec = SinkingBondSpec(maturity=1.0, coupon_rate=0.06, coupon_frequency=2)
        grid = build_time_grid(1.0, 1)  # only {0, 1}: the 0.5 coupon is missing
        with pytest.raises(ValueError, match="coupon date"):
            coupons_on_grid(spec, grid)

    def test_event_dates_cover_coupons_and_redemptions(self):
        spec = two_installment_bond(coupon_frequency=2)
        events = bond_event_dates(spec)
        assert set(spec.redemption_dates) <= set(events)
        assert set(coupon_dates(spec)) <= set(events)
        grid = bond_grid(spec, 3)
        for d in events:
            assert grid.times[grid.index_of(d)] == pytest.approx(d, abs=1e-9)


def test_redemption_stages_require_grid_membership():
    spec = two_installment_bond()
    sparse = build_time_grid(10.0, 1, [])  # annual dates happen to be members
    assert len(redemption_stages(spec, sparse)) == 9
    off_grid = SinkingBondSpec(maturity=2.0, redemption_dates=(0.7,), admissible_fractions=(0.5,), alpha=100.0)
    with pytest.raises(ValueError, match="redemption date"):
        redemption_stages(off_grid, build_time_grid(2.0, 2))
