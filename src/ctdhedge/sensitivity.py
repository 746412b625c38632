"""Bump-and-revalue sensitivities of the CTD discount factors.

Central two-sided differences in either a spread's volatility or the level
of its forecast curve, for the deterministic and the common-factor pricer.
The deterministic factor has no volatility exposure at all and reacts to a
level change only through the spread that is currently maximal, which is
exactly the digital behaviour these profiles are built to exhibit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

from .ctd import CTD_METHODS, _ctd_factors, ctd_common_factor, ctd_deterministic
from .spread_model import MarketModel, ModelValidationError

__all__ = ["BumpRequest", "ctd_sensitivity", "sensitivity_profile", "SweepRow", "NumericsWarning"]

_KINDS = ("xi", "mean_level")


class NumericsWarning(UserWarning):
    """A difference quotient looks dominated by quadrature noise."""


@dataclass(frozen=True)
class BumpRequest:
    """One central-difference request: which parameter, which spread, size."""

    kind: str
    index: int
    epsilon: float = 1e-4

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ModelValidationError(f"bump kind must be one of {_KINDS}")
        if self.epsilon <= 0.0:
            raise ModelValidationError("epsilon must be positive")
        if self.index < 1:
            raise ModelValidationError("bumps address spread indices >= 1")


def _bumped(model: MarketModel, request: BumpRequest, direction: float) -> MarketModel:
    spec = model.spread(request.index)
    if request.kind == "xi":
        new_xi = spec.xi + direction * request.epsilon
        if new_xi < 0.0:
            raise ModelValidationError(
                f"xi bump of {request.epsilon} takes spread {request.index} below zero"
            )
        return model.with_spread(request.index, spec.bumped_xi(new_xi))
    return model.with_spread(request.index, spec.bumped_level(direction * request.epsilon))


def ctd_sensitivity(
    model: MarketModel,
    t0: float,
    T: float,
    request: BumpRequest,
    method: str = "common_factor",
    nodes_per_year: int = 48,
    check_epsilon: bool = False,
) -> float:
    """
    Central difference quotient of the CTD factor in the requested parameter.

    With `check_epsilon` the estimate is recomputed at twice the bump size;
    a large discrepancy (quadrature noise dominating the quotient) emits a
    NumericsWarning.
    """
    if method not in CTD_METHODS[1:]:
        raise ModelValidationError(f"method must be one of {CTD_METHODS[1:]}")
    up = _ctd_factors(_bumped(model, request, +1.0), method, t0, (T,), nodes_per_year)[0]
    down = _ctd_factors(_bumped(model, request, -1.0), method, t0, (T,), nodes_per_year)[0]
    estimate = (up - down) / (2.0 * request.epsilon)
    if check_epsilon:
        wide = BumpRequest(request.kind, request.index, 2.0 * request.epsilon)
        up2 = _ctd_factors(_bumped(model, wide, +1.0), method, t0, (T,), nodes_per_year)[0]
        down2 = _ctd_factors(_bumped(model, wide, -1.0), method, t0, (T,), nodes_per_year)[0]
        estimate2 = (up2 - down2) / (4.0 * request.epsilon)
        scale = max(abs(estimate2), 1e-12)
        if abs(estimate - estimate2) > 0.25 * scale + 1e-10:
            warnings.warn(
                f"difference quotient unstable: {estimate:.6g} at eps={request.epsilon:g} "
                f"vs {estimate2:.6g} at 2*eps; consider a larger bump",
                NumericsWarning,
                stacklevel=2,
            )
    return estimate


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: prices and difference quotients for both models."""

    parameter: float
    bump_index: int
    ctd_det: float
    ctd_cf: float
    dctd_det: float
    dctd_cf: float


def sensitivity_profile(
    model: MarketModel,
    t0: float,
    T: float,
    kind: str,
    values: Sequence[float],
    index: int | None = None,
    epsilon: float = 1e-4,
    nodes_per_year: int = 48,
) -> list[SweepRow]:
    """
    Sweep one parameter and tabulate prices and sensitivities.

    kind "mean_level": the forecast curve of spread `index` is shifted so
    its level at the start equals each sweep value, and the sensitivity is
    taken in that level.  kind "xi": all spread volatilities are set to the
    sweep value and the quotient is taken one spread at a time, producing
    one row per (value, spread).  Rows are ordered by sweep value, then
    spread index.
    """
    if kind not in _KINDS:
        raise ModelValidationError(f"sweep kind must be one of {_KINDS}")
    rows: list[SweepRow] = []
    if kind == "mean_level":
        if index is None:
            raise ModelValidationError("mean_level sweeps need a spread index")
        base_level = model.spread(index).mean_curve(model.t0)
        for v in values:
            swept = model.with_spread(
                index, model.spread(index).bumped_level(float(v) - base_level)
            )
            rows.append(_profile_row(swept, t0, T, kind, float(v), index, epsilon, nodes_per_year))
        return rows
    for v in values:
        swept = model
        for i in range(1, model.n_spreads + 1):
            swept = swept.with_spread(i, swept.spread(i).bumped_xi(float(v)))
        for i in range(1, model.n_spreads + 1):
            rows.append(_profile_row(swept, t0, T, kind, float(v), i, epsilon, nodes_per_year))
    return rows


def _profile_row(model, t0, T, kind, value, index, epsilon, nodes_per_year) -> SweepRow:
    if kind == "xi" and value - epsilon < 0.0:
        epsilon = max(value / 2.0, 1e-8) if value > 0 else 1e-8
    if kind == "xi" and value == 0.0:
        # one-sided fallback at the volatility boundary
        req = BumpRequest(kind, index, epsilon)
        up = ctd_common_factor(_bumped(model, req, +1.0), t0, T, nodes_per_year)
        base = ctd_common_factor(model, t0, T, nodes_per_year)
        dcf = (up - base) / epsilon
        ddet = 0.0
    else:
        req = BumpRequest(kind, index, epsilon)
        dcf = ctd_sensitivity(model, t0, T, req, "common_factor", nodes_per_year)
        ddet = ctd_sensitivity(model, t0, T, req, "deterministic", nodes_per_year)
    return SweepRow(
        parameter=value,
        bump_index=index,
        ctd_det=ctd_deterministic(model, t0, T),
        ctd_cf=ctd_common_factor(model, t0, T, nodes_per_year),
        dctd_det=ddet,
        dctd_cf=dcf,
    )
