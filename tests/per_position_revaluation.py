"""Reference for the leg-sum tests: `Portfolio.position_value` and
`evaluate_portfolio_paths` as they were before one leg sum served both,
verbatim but for their names (`position_value` takes the portfolio as its
first argument) and for the path statistics.  Each prices the legs with its
own per-position loop, the first through `forward_bond` and the second with
the forward's (units * Q) / P.  The second keeps every value in a
[paths, times] array and takes the statistics from each time's column by
their definition: np.mean, np.std(ddof=1), and for `sd_se` the fourth
moment as the mean of the squared squared deviations.  It returns them as
plain records."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

import numpy as np

from ctdhedge.ctd import ConditionalCtdTable, ctd_common_factor
from ctdhedge.hedging import Portfolio, _conditional_bond
from ctdhedge.instruments import ForwardBondContract, forward_bond, zcb_domestic, zcb_foreign
from ctdhedge.montecarlo import PathBundle
from ctdhedge.spread_model import MarketModel, ModelValidationError


def position_value(self: Portfolio, model: MarketModel, t: float, nodes_per_year: int = 48) -> float:
    """Value of the instrument legs at time t off the forecast curves."""
    total = 0.0
    for p in self.positions:
        if p.kind == "choice_bond":
            v = ctd_common_factor(model, t, self.maturity, nodes_per_year) * zcb_domestic(
                model, t, self.maturity
            )
        elif p.kind == "bond":
            v = zcb_foreign(model, p.currency, t, self.maturity)
        else:
            v = forward_bond(
                model, ForwardBondContract(p.currency, p.delivery, self.maturity), t
            )
        total += p.units * v
    return total


def evaluate_portfolio_paths(
    portfolios: Portfolio | Sequence[Portfolio],
    bundle: PathBundle,
    n_samples: int = 8,
) -> list[SimpleNamespace]:
    """
    Revalue portfolios along simulated paths at every observation time.

    The collateral-choice bond is repriced with the common-factor method
    re-anchored at each path state (via an interpolation table shared by
    all portfolios); plain bonds and forwards are repriced with the
    Hull-White closed forms; cash accrues at the realized domestic rate.
    """
    if isinstance(portfolios, Portfolio):
        portfolios = [portfolios]
    model = bundle.model
    maturities = {p.maturity for p in portfolios}
    if len(maturities) != 1:
        raise ModelValidationError("portfolios must share one maturity")
    maturity = maturities.pop()
    times = bundle.times
    table = ConditionalCtdTable(model, times[times <= maturity], (maturity,))
    n_paths = bundle.n_paths
    out = []
    values = {p.name: np.empty((n_paths, times.size)) for p in portfolios}
    for k, t in enumerate(times):
        t = float(t)
        u = bundle.displacements(t)
        u0 = bundle.value(0, k) - model.domestic.mean_curve(t)
        pdom = _conditional_bond(model.domestic, t, maturity, u0)
        if t < maturity:  # the anchors are a prefix of the observation times
            choice = table.evaluate(k, u)[0] * pdom
        else:
            choice = np.ones(n_paths)
        bonds = {0: pdom}
        for i in range(1, model.n_spreads + 1):
            bonds[i] = _conditional_bond(model.spread(i), t, maturity, u[:, i - 1]) * pdom
        bank = bundle.bank_factor(bundle.plan.t0, t)
        for p in portfolios:
            acc = p.cash * bank
            for pos in p.positions:
                if pos.kind == "choice_bond":
                    acc = acc + pos.units * choice
                elif pos.kind == "bond":
                    acc = acc + pos.units * bonds[pos.currency]
                else:
                    if t >= pos.delivery:
                        acc = acc + pos.units * bonds[pos.currency]
                    else:
                        pdel = _conditional_bond(model.domestic, t, pos.delivery, u0)
                        acc = acc + pos.units * bonds[pos.currency] / pdel
            values[p.name][:, k] = acc
    for p in portfolios:
        v = values[p.name]
        mean, sd, m4 = (np.empty(times.size) for _ in range(3))
        for k in range(times.size):
            col = np.ascontiguousarray(v[:, k])
            mean[k] = np.mean(col)
            sd[k] = np.std(col, ddof=1)
            m4[k] = np.mean(np.square(np.square(col - mean[k])))
        with np.errstate(divide="ignore", invalid="ignore"):
            sd_se = np.sqrt(np.maximum(m4 - sd**4, 0.0) / (4.0 * np.maximum(sd, 1e-300) ** 2 * n_paths))
        sd_se = np.where(sd > 1e-14, sd_se, 0.0)
        out.append(SimpleNamespace(name=p.name, times=times.copy(), mean=mean, sd=sd, sd_se=sd_se,
                                   samples=v[:n_samples].copy()))
    return out
