"""The public API: the package's exports and the coverage list of operations.

A change to either is a change of the public API; it must be made on purpose,
by editing the pinned lists here.
"""

import types

import ctdhedge
from ctdhedge.validation import OPERATIONS

PUBLIC_NAMES = (
    "BumpRequest", "CommonFactorResult", "CommonFactorState", "ConditionalCtdTable",
    "CorrelationMatrix", "CrossingSchedule", "ForwardBondContract", "GaussianVectorSnapshot",
    "HedgeWeights", "HullWhiteSpec", "MarketModel", "MaxMoments", "PathBundle", "Portfolio",
    "QuadraticForm", "SimulationPlan", "SpreadCurve", "SwapSpec",
    "assemble_quadratic", "bond_moment", "build_basic_portfolio", "build_deterministic_portfolio",
    "build_none_portfolio", "build_stochastic_portfolio", "crossing_schedule",
    "ctd_common_factor", "ctd_common_factor_detailed", "ctd_deterministic", "ctd_sensitivity",
    "evaluate_portfolio_paths", "fit_gamma", "forward_bond", "forward_ibor",
    "integral_covariance", "integral_variance_estimator", "joint_bond_moment", "max_cdf",
    "max_curve_breakpoints", "max_curve_integral", "max_moments", "mc_ctd", "mc_expectation",
    "mean_under_piecewise_theta", "model_crossing_schedule", "par_rate", "sensitivity_profile",
    "shifted_max_ctd", "simulate", "solve_min_variance", "spread_cross_covariance",
    "spread_mean", "stochastic_strategy", "swap_value", "swap_value_ctd",
    "synthetic_replication_pnl", "theta_continuous", "theta_piecewise", "zcb_domestic",
    "zcb_foreign",
)

PINNED_OPERATIONS = (
    "theta_continuous", "theta_piecewise", "spread_mean", "spread_cross_covariance",
    "integral_covariance", "bond_moment", "joint_bond_moment",
    "fit_gamma", "max_cdf", "max_moments", "integral_variance_estimator",
    "ctd_deterministic", "ctd_common_factor", "shifted_max_ctd",
    "simulate", "mc_ctd", "mc_expectation",
    "zcb_domestic", "zcb_foreign", "forward_bond", "forward_ibor",
    "swap_value", "swap_value_ctd",
    "ctd_sensitivity", "sensitivity_profile",
    "assemble_quadratic", "solve_min_variance", "crossing_schedule",
    "build_deterministic_portfolio", "build_basic_portfolio", "build_none_portfolio",
    "evaluate_portfolio_paths", "synthetic_replication_pnl",
    "run",
)


def test_public_names_are_pinned():
    names = sorted(
        name for name in dir(ctdhedge)
        if not name.startswith("_") and not isinstance(getattr(ctdhedge, name), types.ModuleType)
    )
    assert names == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 59


def test_operations_are_pinned():
    assert OPERATIONS == PINNED_OPERATIONS
