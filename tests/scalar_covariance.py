"""Reference for the covariance-kernel tests: the three scalar writings of the
Ornstein-Uhlenbeck covariance that `spread_model._ou_covariance` replaced,
verbatim but for their names (the `spread_covariance` method is a function
of the model here)."""

from __future__ import annotations

import math

import numpy as np

from ctdhedge.spread_model import HullWhiteSpec, MarketModel, ModelValidationError


def scalar_cross_covariance(
    spec_i: HullWhiteSpec,
    spec_j: HullWhiteSpec,
    rho_ij: float,
    u: float,
    v: float,
    start: float | None = None,
) -> float:
    """
    Cov[q_i(u), q_j(v)] for two Hull-White spreads with driver correlation rho.

    Both processes carry no noise before `start` (default: common curve
    start), so the covariance vanishes at u = v = start.
    """
    t0 = spec_i.t0 if start is None else start
    if u < t0 - 1e-12 or v < t0 - 1e-12:
        raise ModelValidationError("covariance times must not precede the start")
    ki, kj = spec_i.kappa, spec_j.kappa
    c = ki + kj
    m = min(u, v)
    # xi_i xi_j rho / (ki+kj) * e^{-(ki u + kj v)} (e^{c min(u,v)} - e^{c t0}),
    # evaluated as expm1 of the elapsed time for stability
    scale = spec_i.xi * spec_j.xi * rho_ij / c
    return float(scale * math.exp(-(ki * (u - m) + kj * (v - m))) * (-math.expm1(-c * (m - t0))))


def scalar_spread_covariance(self: MarketModel, t, start: float | None = None) -> np.ndarray:
    """Covariance matrix of (q_1(t), ..., q_N(t)), noise from `start`."""
    n = self.n_spreads
    cov = np.empty((n, n))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            c = scalar_cross_covariance(
                self.spread(i), self.spread(j), self.rho(i, j), t, t, start=start
            )
            cov[i - 1, j - 1] = cov[j - 1, i - 1] = c
    return cov


def scalar_step_covariance(model: MarketModel, dt: float, idx: np.ndarray) -> np.ndarray:
    """Exact covariance of the OU innovations over one step (procs in idx)."""
    kappas = np.array([model.domestic.kappa] + [s.kappa for s in model.spreads])[idx]
    xis = np.array([model.domestic.xi] + [s.xi for s in model.spreads])[idx]
    corr = model.correlations.entries[np.ix_(idx, idx)]
    n = idx.size
    cov = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            ksum = kappas[i] + kappas[j]
            cov[i, j] = xis[i] * xis[j] * corr[i, j] * (-math.expm1(-ksum * dt)) / ksum
    return cov
