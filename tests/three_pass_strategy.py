"""Reference for the one-pass hedge tests: the three-pass `stochastic_strategy`
that the one-pass routine replaced, verbatim but for the names of its parts and
the never-set variance constant, which it no longer passes.  It runs the
common-factor pipeline three times for one plain factor: in the quadratic form,
for the cash-neutral prices and in the portfolio's cash account, which
`Portfolio.position_value` prices through `_with_offsetting_cash`, kept here
verbatim now that every portfolio builder takes its cash from the form's prices."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ctdhedge.ctd import _cf_pipeline, ctd_common_factor
from ctdhedge.hedging import (
    _DEGENERATE_DIAG,
    ALPHA0_POLICIES,
    HedgeWeights,
    Portfolio,
    Position,
    QuadraticForm,
    _box_qp,
)
from ctdhedge.instruments import zcb_domestic, zcb_foreign
from ctdhedge.spread_model import MarketModel, ModelValidationError, bond_moment, joint_bond_moment


def _with_offsetting_cash(name, model, maturity, positions, t0, nodes_per_year) -> Portfolio:
    draft = Portfolio(name, maturity, tuple(positions), 0.0)
    return Portfolio(
        name, maturity, tuple(positions), -draft.position_value(model, t0, nodes_per_year)
    )


def three_pass_assemble_quadratic(
    model: MarketModel, t0: float, T: float, nodes_per_year: int = 48
) -> QuadraticForm:
    n = model.n_spreads
    r1 = bond_moment(model.domestic, t0, T, 1)
    r2 = bond_moment(model.domestic, t0, T, 2)
    e = np.empty(n + 1)
    e[0] = 1.0
    for i in range(1, n + 1):
        e[i] = bond_moment(model.spread(i), t0, T, 1)
    q = np.empty((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(i, n + 1):
            if i == 0 and j == 0:
                joint = 1.0
            elif i == 0:
                joint = e[j]
            else:
                joint = joint_bond_moment(model.spread(i), model.spread(j), model.rho(i, j), t0, T)
            q[i, j] = q[j, i] = joint * r2 - e[i] * e[j] * r1 * r1
    # the plain factor and every shifted factor from one pipeline pass
    ctd, _, _, _, _, shifted = _cf_pipeline(model, t0, (T,), nodes_per_year, pivots=range(1, n + 1))[0]
    b = np.empty(n + 1)
    b[0] = ctd * (r2 - r1 * r1)
    for i in range(1, n + 1):
        b[i] = shifted[i - 1] * r2 - ctd * e[i] * r1 * r1
    return QuadraticForm(q, b)


def three_pass_solve(
    form: QuadraticForm,
    alpha0_policy: str = "cash_neutral",
    prices: Sequence[float] | None = None,
    box: tuple[float, float] = (-1.0, 1.0),
) -> HedgeWeights:
    if alpha0_policy not in ALPHA0_POLICIES:
        raise ModelValidationError(f"alpha0_policy must be one of {ALPHA0_POLICIES}")
    q, b = form.matrix, form.vector
    n = form.size
    lo, hi = box
    degenerate = q[0, 0] < _DEGENERATE_DIAG * max(float(np.diag(q).max()), 1e-300)
    k = 1 if degenerate else 0
    a_sub, f = _box_qp(q[k:, k:], b[k:], lo, hi)
    alpha = np.concatenate((np.zeros(k), a_sub))
    if degenerate and alpha0_policy == "cash_neutral":
        if prices is None:
            raise ModelValidationError(
                "cash_neutral policy needs prices=(choice bond, bonds 0..N)"
            )
        pc = float(prices[0])
        bonds = np.asarray(prices[1:], dtype=float)
        if bonds.size != n:
            raise ModelValidationError("need one price per hedge bond")
        alpha[0] = -(pc + float(bonds[1:] @ alpha[1:])) / float(bonds[0])
    return HedgeWeights(
        alpha=alpha,
        alpha0_policy=alpha0_policy,
        objective=f,
        alpha0_degenerate=bool(degenerate),
    )


def three_pass_portfolio(
    model: MarketModel,
    weights: HedgeWeights,
    t0: float,
    T: float,
    nodes_per_year: int = 48,
) -> Portfolio:
    positions = [Position("choice_bond", 1.0)]
    for i, a in enumerate(weights.alpha):
        if a != 0.0:
            positions.append(Position("bond", float(a), currency=i))
    return _with_offsetting_cash("stochastic", model, T, positions, t0, nodes_per_year)


def three_pass_strategy(
    model: MarketModel,
    t0: float,
    T: float,
    alpha0_policy: str = "cash_neutral",
    nodes_per_year: int = 48,
) -> tuple[HedgeWeights, QuadraticForm, Portfolio]:
    form = three_pass_assemble_quadratic(model, t0, T, nodes_per_year)
    pc = ctd_common_factor(model, t0, T, nodes_per_year) * zcb_domestic(model, t0, T)
    bonds = [zcb_foreign(model, i, t0, T) for i in range(model.n_spreads + 1)]
    weights = three_pass_solve(form, alpha0_policy, prices=[pc] + bonds)
    return weights, form, three_pass_portfolio(model, weights, t0, T, nodes_per_year)
