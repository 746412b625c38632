"""Zero-coupon bonds, forwards, and interest-rate swaps.

Prices are taken under the domestic risk-neutral measure with the engine's
standing assumption that collateral spreads are independent of the
domestic rate, so every foreign bond factors into a spread discount factor
times the domestic bond.  Correlations between spread drivers and the
domestic driver only influence the Monte Carlo simulator (stress
comparisons); the analytic pricers here ignore them by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .ctd import CTD_METHODS, _ctd_factors
from .spread_model import MarketModel, ModelValidationError, bond_moment

__all__ = [
    "SwapSpec",
    "ForwardBondContract",
    "zcb_domestic",
    "zcb_foreign",
    "forward_bond",
    "forward_ibor",
    "swap_value",
    "swap_value_ctd",
    "par_rate",
]

@dataclass(frozen=True)
class SwapSpec:
    """Fixed-for-floating swap: notional, fixed rate, payment dates and first period's start."""

    notional: float
    fixed_rate: float
    payment_dates: tuple[float, ...]
    payer: bool = True
    start: float = 0.0

    def __init__(self, notional, fixed_rate, payment_dates, payer=True, start=0.0):
        notional, fixed_rate, start = float(notional), float(fixed_rate), float(start)
        dates = tuple(float(t) for t in payment_dates)
        if not all(map(math.isfinite, (notional, fixed_rate, start, *dates))):
            raise ModelValidationError("swap notional, fixed rate, start and dates must be finite")
        if len(dates) < 1:
            raise ModelValidationError("swap needs at least one payment date")
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise ModelValidationError("payment dates must be strictly increasing")
        if not dates[0] > start:
            raise ModelValidationError(
                f"first payment date {dates[0]:g} must fall after the start {start:g}"
            )
        object.__setattr__(self, "notional", notional)
        object.__setattr__(self, "fixed_rate", fixed_rate)
        object.__setattr__(self, "payment_dates", dates)
        object.__setattr__(self, "payer", bool(payer))
        object.__setattr__(self, "start", start)

    def periods(self) -> list[tuple[float, float, float]]:
        """(start, end, accrual) per payment period."""
        starts = (self.start,) + self.payment_dates[:-1]
        return [(s, e, e - s) for s, e in zip(starts, self.payment_dates)]


@dataclass(frozen=True)
class ForwardBondContract:
    """Forward delivering the bond of currency `underlying` at `delivery`."""

    underlying: int
    delivery: float
    maturity: float

    def __post_init__(self):
        if self.delivery > self.maturity:
            raise ModelValidationError("delivery must not exceed bond maturity")
        if self.underlying < 0:
            raise ModelValidationError("underlying index must be >= 0")


def zcb_domestic(model: MarketModel, t: float, T: float) -> float:
    """
    Domestic zero-coupon bond P(t, T) off the forecast curve.

    For t past the model start the price is conditional on the rate sitting
    on its forecast at t (noise accrues only over [t, T]).
    """
    if t > T:
        raise ModelValidationError("need t <= T")
    return bond_moment(model.domestic, t, T, 1)


def zcb_foreign(model: MarketModel, i: int, t: float, T: float) -> float:
    """
    Domestic price Q_i(t, T) of the foreign zero-coupon bond of currency i.

    Q_i = E[exp(-int q_i)] * P(t, T) under spread/rate independence; index 0
    is the domestic currency itself (zero spread).
    """
    if t > T:
        raise ModelValidationError("need t <= T")
    if i == 0:
        return zcb_domestic(model, t, T)
    return bond_moment(model.spread(i), t, T, 1) * zcb_domestic(model, t, T)


def forward_bond(model: MarketModel, contract: ForwardBondContract, t: float) -> float:
    """
    Forward price F_i(t, S, T) = Q_i(t, T) / P(t, S).

    Physical settlement: from the delivery date on, the position is the
    bond itself and the value is Q_i(t, T).
    """
    if t >= contract.delivery:
        return zcb_foreign(model, contract.underlying, t, contract.maturity)
    return zcb_foreign(model, contract.underlying, t, contract.maturity) / zcb_domestic(
        model, t, contract.delivery
    )


def forward_ibor(model: MarketModel, swap: SwapSpec, t: float, k: int) -> float:
    """
    Simple-compounded forward rate of the swap's k-th period (1-based):
    (P(t, T_{k-1}) - P(t, T_k)) / (tau_k P(t, T_k)), with T_0 the swap's
    start.
    """
    periods = swap.periods()
    if not 1 <= k <= len(periods):
        raise ModelValidationError(f"period index {k} out of range")
    s, e, tau = periods[k - 1]
    if t > s:
        raise ModelValidationError("forward rate requested after the fixing date")
    p_start = zcb_domestic(model, t, s)
    p_end = zcb_domestic(model, t, e)
    return (p_start - p_end) / (tau * p_end)


def _leg_values(model: MarketModel, swap: SwapSpec, t: float) -> list[tuple[float, float]]:
    """(T_k, discounted accrual value) for legs paying strictly after t."""
    sign = 1.0 if swap.payer else -1.0
    out = []
    for k, (s, e, tau) in enumerate(swap.periods(), start=1):
        if e <= t:
            continue
        ell = forward_ibor(model, swap, min(t, s), k)
        value = sign * swap.notional * tau * zcb_domestic(model, t, e) * (ell - swap.fixed_rate)
        out.append((e, value))
    return out


def swap_value(model: MarketModel, swap: SwapSpec, t: float) -> float:
    """Swap value N * sum tau_k P(t, T_k) (l_k(t) - K), payer convention."""
    return float(sum(v for _, v in _leg_values(model, swap, t)))


def swap_value_ctd(
    model: MarketModel,
    swap: SwapSpec,
    t: float,
    ctd_method: str = "common_factor",
    nodes_per_year: int = 48,
) -> float:
    """
    Swap with the collateral choice option: each leg carries its CTD factor.

    `ctd_method` selects none (factor 1, plain swap), deterministic, or
    common_factor, which prices all legs with one pipeline pass.
    """
    if ctd_method not in CTD_METHODS:
        raise ModelValidationError(f"ctd_method must be one of {CTD_METHODS}")
    legs = _leg_values(model, swap, t)
    factors = _ctd_factors(model, ctd_method, t, [maturity for maturity, _ in legs], nodes_per_year)
    return float(sum(factor * value for factor, (_, value) in zip(factors, legs)))


def par_rate(model: MarketModel, payment_dates: Sequence[float], start: float = 0.0) -> float:
    """Fixed rate that prices the plain swap to zero at its start: zero-rate value over annuity."""
    swap = SwapSpec(1.0, 0.0, payment_dates, start=start)
    annuity = sum(tau * zcb_domestic(model, start, e) for _, e, tau in swap.periods())
    return swap_value(model, swap, start) / annuity
