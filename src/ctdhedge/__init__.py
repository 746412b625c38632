"""Pricing, sensitivities and static hedging of the collateral choice option."""

from .curves import SpreadCurve, max_curve_breakpoints, max_curve_integral
from .spread_model import (
    CorrelationMatrix,
    HullWhiteSpec,
    MarketModel,
    bond_moment,
    integral_covariance,
    joint_bond_moment,
    mean_under_piecewise_theta,
    spread_cross_covariance,
    spread_mean,
    theta_continuous,
    theta_piecewise,
)
from .ctd import (
    CommonFactorResult,
    CommonFactorState,
    ConditionalCtdTable,
    GaussianVectorSnapshot,
    MaxMoments,
    ctd_common_factor,
    ctd_common_factor_detailed,
    ctd_deterministic,
    fit_gamma,
    integral_variance_estimator,
    max_cdf,
    max_moments,
    shifted_max_ctd,
)
from .montecarlo import PathBundle, SimulationPlan, mc_ctd, mc_expectation, simulate
from .instruments import (
    ForwardBondContract,
    SwapSpec,
    forward_bond,
    forward_ibor,
    par_rate,
    swap_value,
    swap_value_ctd,
    zcb_domestic,
    zcb_foreign,
)
from .sensitivity import BumpRequest, ctd_sensitivity, sensitivity_profile
from .hedging import (
    CrossingSchedule,
    HedgeWeights,
    Portfolio,
    QuadraticForm,
    assemble_quadratic,
    build_basic_portfolio,
    build_deterministic_portfolio,
    build_none_portfolio,
    build_stochastic_portfolio,
    crossing_schedule,
    evaluate_portfolio_paths,
    model_crossing_schedule,
    solve_min_variance,
    stochastic_strategy,
    synthetic_replication_pnl,
)

__version__ = "0.1.0"
