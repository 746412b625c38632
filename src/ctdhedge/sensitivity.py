"""Bump-and-revalue sensitivities of the CTD discount factors.

Central two-sided differences in either a spread's volatility or the level
of its forecast curve, for the deterministic and the common-factor pricer.
The deterministic factor has no volatility exposure at all and reacts to a
level change only through the spread that is currently maximal, which is
exactly the digital behaviour these profiles are built to exhibit.  A
volatility bump must keep xi - epsilon >= 0: a sweep that starts below the
bump size fails with ModelValidationError rather than shrinking the bump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .ctd import CTD_METHODS, _ctd_factors, ctd_common_factor, ctd_deterministic
from .spread_model import MarketModel, ModelValidationError

__all__ = ["BumpRequest", "ctd_sensitivity", "sensitivity_profile", "SweepRow"]

_KINDS = ("xi", "mean_level")


@dataclass(frozen=True)
class BumpRequest:
    """One central-difference request: which parameter, which spread, size."""

    kind: str
    index: int
    epsilon: float = 1e-4

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ModelValidationError(f"bump kind must be one of {_KINDS}")
        if not 0.0 < self.epsilon < math.inf:
            raise ModelValidationError(f"epsilon must be positive and finite, got {self.epsilon}")
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
) -> float:
    """
    Central difference quotient of the CTD factor in the requested parameter.

    A volatility bump that would take xi below zero raises
    ModelValidationError.
    """
    if method not in CTD_METHODS[1:]:
        raise ModelValidationError(f"method must be one of {CTD_METHODS[1:]}")
    up = _ctd_factors(_bumped(model, request, +1.0), method, t0, (T,), nodes_per_year)[0]
    down = _ctd_factors(_bumped(model, request, -1.0), method, t0, (T,), nodes_per_year)[0]
    return (up - down) / (2.0 * request.epsilon)


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
    one row per (value, spread); every sweep value must be at least
    `epsilon`, or the bump raises ModelValidationError.  Rows are ordered
    by sweep value, then spread index.
    """
    if kind not in _KINDS:
        raise ModelValidationError(f"sweep kind must be one of {_KINDS}")
    if kind == "mean_level":
        if index is None:
            raise ModelValidationError("mean_level sweeps need a spread index")
        base_level = model.spread(index).mean_curve(model.t0)
    rows: list[SweepRow] = []
    for v in map(float, values):
        if kind == "mean_level":
            swept = model.with_spread(index, model.spread(index).bumped_level(v - base_level))
            bumped = (index,)
        else:
            swept = model
            for i in range(1, model.n_spreads + 1):
                swept = swept.with_spread(i, swept.spread(i).bumped_xi(v))
            bumped = range(1, model.n_spreads + 1)
        requests = [BumpRequest(kind, i, epsilon) for i in bumped]
        # the base factors depend on the swept model only, not on the bumped spread
        det = ctd_deterministic(swept, t0, T)
        cf = ctd_common_factor(swept, t0, T, nodes_per_year)
        for req in requests:
            d_det = ctd_sensitivity(swept, t0, T, req, "deterministic", nodes_per_year)
            d_cf = ctd_sensitivity(swept, t0, T, req, "common_factor", nodes_per_year)
            rows.append(SweepRow(v, req.index, det, cf, d_det, d_cf))
    return rows
