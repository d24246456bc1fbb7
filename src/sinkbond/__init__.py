"""Pricing bonds with optional sinking features on a default-intensity lattice.

The issuer of a sinking bond may retire the notional in installments of her
choosing, so the fair value is the solution of a finite-horizon minimization:
backward induction over (remaining nominal, intensity state) pairs on a
recombining trinomial lattice for the default intensity, here driven by a
credit-equity model in which the intensity is a negative power of the stock
level.  Classic callable bonds, z-spreads and the worst-case callable quote
fall out as special cases; a Monte Carlo module cross-checks the lattice.
"""

from .calibration import (
    CalibrationConfig,
    CalibrationResult,
    CDSQuote,
    calibrate,
    calibration_error,
    model_spreads,
    price_cds,
)
from .instruments import (
    SinkingBondSpec,
    action_table,
    bond_event_dates,
    bond_grid,
    coupons_on_grid,
)
from .jdcev import JDCEVParams, intensity, inverse_transform, transform
from .market_data import (
    DiscountCurve,
    TimeGrid,
    build_time_grid,
    discount_factors,
)
from .mc import MCEstimate, PathSet, mc_price_fixed_policy, simulate_paths
from .mdp import (
    MDPSolution,
    StageProblem,
    backward_induction,
    bellman_residual,
    evaluate_policy,
    stage_cost,
)
from .pricer import (
    price_fixed_schedule,
    price_report,
    price_sinking_bond,
    price_zcb,
    worst_ansatz,
    z_spread,
)
from .tree import (
    IntensityTree,
    TreeConstructionError,
    augment_default,
    build_trinomial,
    deterministic_tree,
    validate_tree,
)

__all__ = [
    "CalibrationConfig",
    "CalibrationResult",
    "CDSQuote",
    "DiscountCurve",
    "IntensityTree",
    "JDCEVParams",
    "MCEstimate",
    "MDPSolution",
    "PathSet",
    "SinkingBondSpec",
    "StageProblem",
    "TimeGrid",
    "TreeConstructionError",
    "action_table",
    "augment_default",
    "backward_induction",
    "bellman_residual",
    "bond_event_dates",
    "bond_grid",
    "build_time_grid",
    "build_trinomial",
    "calibrate",
    "calibration_error",
    "coupons_on_grid",
    "deterministic_tree",
    "discount_factors",
    "evaluate_policy",
    "intensity",
    "inverse_transform",
    "mc_price_fixed_policy",
    "model_spreads",
    "price_cds",
    "price_fixed_schedule",
    "price_report",
    "price_sinking_bond",
    "price_zcb",
    "simulate_paths",
    "stage_cost",
    "transform",
    "validate_tree",
    "worst_ansatz",
    "z_spread",
]
