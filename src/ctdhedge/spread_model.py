"""Hull-White collateral-spread model: calibration and Gaussian moment analytics.

Each collateral spread (and the domestic short rate) follows one-factor
Hull-White dynamics

    dq(t) = kappa * (theta(t) - q(t)) dt + xi dW(t),

written throughout as the decomposition q(t) = qhat(t) + u(t) with qhat the
deterministic forecast curve and u a centred Ornstein-Uhlenbeck process
started at zero.  All first and second moments of spreads, their time
integrals and the induced zero-coupon bond factors are available in closed
form and implemented here; every point covariance of the processes comes
from one array kernel, `_ou_covariance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import ModelValidationError, SpreadCurve

__all__ = [
    "HullWhiteSpec",
    "CorrelationMatrix",
    "MarketModel",
    "theta_continuous",
    "theta_piecewise",
    "spread_mean",
    "mean_under_piecewise_theta",
    "spread_cross_covariance",
    "integral_covariance",
    "bond_moment",
    "joint_bond_moment",
]

# smallest eigenvalue allowed before a correlation matrix is rejected
_PSD_TOL = -1e-10


@dataclass(frozen=True)
class HullWhiteSpec:
    """
    One Hull-White process: mean reversion, volatility and forecast curve.

    Parameters
    ----------
    kappa : float
        Speed of mean reversion (1/years), strictly positive and finite.
    xi : float
        Volatility (absolute rate per sqrt-year), finite.  Zero is allowed
        and collapses the process onto its forecast curve.
    mean_curve : SpreadCurve
        Deterministic forecast qhat(t); also the process mean, which
        starts at the read-only `initial_value`.
    """

    kappa: float
    xi: float
    mean_curve: SpreadCurve

    def __post_init__(self):
        if not 0.0 < self.kappa < math.inf:
            raise ModelValidationError(f"kappa must be positive and finite, got {self.kappa}")
        if not 0.0 <= self.xi < math.inf:
            raise ModelValidationError(f"xi must be nonnegative and finite, got {self.xi}")

    @property
    def t0(self) -> float:
        return self.mean_curve.start

    @property
    def initial_value(self) -> float:
        """Level at the curve start."""
        return self.mean_curve(self.mean_curve.start)

    def variance(self, t):
        """Marginal variance of the spread at time t (accrued from the curve start)."""
        dt = np.asarray(t, dtype=float) - self.t0
        if np.any(dt < -1e-12):
            raise ModelValidationError("variance requested before the curve start")
        dt = np.maximum(dt, 0.0)
        out = self.xi**2 * (-np.expm1(-2.0 * self.kappa * dt)) / (2.0 * self.kappa)
        if np.asarray(t).ndim == 0:
            return float(out)
        return out

    def bumped_xi(self, new_xi: float) -> "HullWhiteSpec":
        return HullWhiteSpec(self.kappa, new_xi, self.mean_curve)

    def bumped_level(self, delta: float) -> "HullWhiteSpec":
        return HullWhiteSpec(self.kappa, self.xi, self.mean_curve.shifted(delta))


@dataclass(frozen=True)
class CorrelationMatrix:
    """
    Instantaneous correlations of the Brownian drivers.

    Index 0 is the domestic-rate driver, indices 1..N the spread drivers.
    """

    entries: np.ndarray

    def __init__(self, entries):
        m = np.asarray(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ModelValidationError("correlation matrix must be square")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ModelValidationError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(m), 1.0, atol=1e-12):
            raise ModelValidationError("correlation matrix must have unit diagonal")
        if np.any(np.abs(m) > 1.0 + 1e-12):
            raise ModelValidationError("correlations must lie in [-1, 1]")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest < _PSD_TOL:
            raise ModelValidationError(
                f"correlation matrix is not positive semidefinite "
                f"(smallest eigenvalue {smallest:.3e})"
            )
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @classmethod
    def from_single(cls, rho_12: float):
        """Two spreads correlated by rho_12, both independent of the domestic driver."""
        m = np.eye(3)
        m[1, 2] = m[2, 1] = rho_12
        return cls(m)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class MarketModel:
    """Domestic rate plus N collateral spreads with their correlations."""

    domestic: HullWhiteSpec
    spreads: tuple[HullWhiteSpec, ...]
    correlations: CorrelationMatrix

    def __init__(self, domestic, spreads, correlations):
        spreads = tuple(spreads)
        if len(spreads) < 1:
            raise ModelValidationError("at least one collateral spread is required")
        if correlations.size != len(spreads) + 1:
            raise ModelValidationError(
                f"correlation matrix size {correlations.size} does not match "
                f"{len(spreads)} spreads plus the domestic driver"
            )
        if any(abs(s.t0 - domestic.t0) > 1e-12 for s in spreads):
            raise ModelValidationError("all processes must share the same start time")
        object.__setattr__(self, "domestic", domestic)
        object.__setattr__(self, "spreads", spreads)
        object.__setattr__(self, "correlations", correlations)

    @property
    def n_spreads(self) -> int:
        return len(self.spreads)

    @property
    def t0(self) -> float:
        return self.domestic.t0

    def spread(self, i: int) -> HullWhiteSpec:
        """Spread process by 1-based index; index 0 is not a stored process."""
        if not 1 <= i <= self.n_spreads:
            raise ModelValidationError(f"spread index {i} out of range 1..{self.n_spreads}")
        return self.spreads[i - 1]

    def rho(self, i: int, j: int) -> float:
        return float(self.correlations.entries[i, j])

    def with_spread(self, i: int, spec: HullWhiteSpec) -> "MarketModel":
        spreads = list(self.spreads)
        spreads[i - 1] = spec
        return MarketModel(self.domestic, spreads, self.correlations)

    def spread_covariance(self, t, start: float | None = None) -> np.ndarray:
        """Covariance of (q_1(t), ..., q_N(t)), noise from `start`: [N, N], or
        [m, N, N] for a 1-D array of m times."""
        elapsed = np.asarray(t, dtype=float) - (self.t0 if start is None else start)
        if np.any(elapsed < -1e-12):
            raise ModelValidationError("covariance times must not precede the start")
        kappa = np.array([s.kappa for s in self.spreads])
        xi = np.array([s.xi for s in self.spreads])
        return _ou_covariance(kappa, xi, self.correlations.entries[1:, 1:], elapsed)


# ---------------------------------------------------------------------------
# long-term mean calibration
# ---------------------------------------------------------------------------

def theta_continuous(spec: HullWhiteSpec, t: float) -> float:
    """
    Long-term mean that reproduces the forecast curve in continuous time.

    theta(t) = qhat(t) + qhat'(t) / kappa, with the left-hand slope at curve
    kinks.  With this choice the process mean equals qhat(t) at every time.
    """
    return float(spec.mean_curve(t) + spec.mean_curve.derivative(t) / spec.kappa)


def theta_piecewise(spec: HullWhiteSpec, grid: Sequence[float]) -> np.ndarray:
    """
    Piecewise-constant long-term mean hitting the forecast at grid nodes.

    Returns one value per interval (t_{k-1}, t_k].  The value on interval k
    is chosen so that the analytic process mean equals qhat(t_k) exactly at
    every node, independent of the behaviour between nodes.  When
    kappa * dt underflows the exponential difference, the equivalent
    arithmetic-slope limit qhat(t_k) + slope / kappa is used instead.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise ModelValidationError("grid must hold at least two ascending times")
    if not np.all(np.diff(g) > 0.0):
        raise ModelValidationError("grid must be strictly increasing")
    q = np.asarray(spec.mean_curve(g), dtype=float)
    dt = np.diff(g)
    x = spec.kappa * dt
    growth = np.expm1(x)  # e^{kappa dt} - 1, stable for small x
    out = np.empty(dt.size)
    degenerate = np.abs(growth) < 1e-14 * np.exp(np.maximum(x, 0.0))
    safe = ~degenerate
    # (qhat_k e^{kappa t_k} - qhat_{k-1} e^{kappa t_{k-1}}) / (e^{kappa t_k} - e^{kappa t_{k-1}}),
    # rescaled by e^{-kappa t_{k-1}} for overflow safety
    out[safe] = (q[1:][safe] * (growth[safe] + 1.0) - q[:-1][safe]) / growth[safe]
    if np.any(degenerate):
        slope = (q[1:] - q[:-1]) / dt
        out[degenerate] = q[1:][degenerate] + slope[degenerate] / spec.kappa
    return out


def mean_under_piecewise_theta(
    spec: HullWhiteSpec, grid: Sequence[float], theta: Sequence[float]
) -> np.ndarray:
    """
    Analytic process mean at grid nodes under a piecewise-constant theta.

    Closed-form recursion m_k = m_{k-1} e^{-kappa dt} + theta_k (1 - e^{-kappa dt})
    from m_0 = qhat(grid[0]), where `theta_piecewise` starts; used to verify
    that `theta_piecewise` reproduces the forecast exactly.
    """
    g = np.asarray(grid, dtype=float)
    th = np.asarray(theta, dtype=float)
    if th.size != g.size - 1:
        raise ModelValidationError("need one theta value per grid interval")
    out = np.empty(g.size)
    out[0] = spec.mean_curve(float(g[0]))
    decay = np.exp(-spec.kappa * np.diff(g))
    for k in range(th.size):
        out[k + 1] = out[k] * decay[k] + th[k] * (1.0 - decay[k])
    return out


def spread_mean(spec: HullWhiteSpec, t: float) -> float:
    """Process mean at time t, i.e. the forecast curve value."""
    return float(spec.mean_curve(t))


# ---------------------------------------------------------------------------
# second-order analytics
# ---------------------------------------------------------------------------

# libm's expm1 and exp element by element: numpy's vector forms can differ in the last bit
_expm1 = np.frompyfunc(math.expm1, 1, 1)
_exp = np.frompyfunc(math.exp, 1, 1)


def _ou_covariance(kappa, xi, corr, elapsed) -> np.ndarray:
    """Cov[u_i(s + dt), u_j(s + dt)] = xi_i xi_j rho_ij / (k_i + k_j) * (1 - e^{-(k_i + k_j) dt})
    of P centred OU processes started at zero at s: [..., P, P] for dt of any shape."""
    c = kappa[:, None] + kappa[None, :]
    scale = xi[:, None] * xi[None, :] * corr / c
    dt = np.asarray(elapsed, dtype=float)[..., None, None]
    return scale * -np.asarray(_expm1(-c * dt), dtype=float)


def spread_cross_covariance(
    spec_i: HullWhiteSpec,
    spec_j: HullWhiteSpec,
    rho_ij: float,
    u,
    v,
    start: float | None = None,
):
    """
    Cov[q_i(u), q_j(v)] for two Hull-White spreads with driver correlation rho.

    Both processes carry no noise before `start` (default: common curve
    start), so the covariance vanishes at u = v = start.  u and v broadcast
    against each other: scalars give a float, arrays an array of their
    broadcast shape, each entry the scalar call's value bit for bit.
    """
    t0 = spec_i.t0 if start is None else start
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    if np.any(u < t0 - 1e-12) or np.any(v < t0 - 1e-12):
        raise ModelValidationError("covariance times must not precede the start")
    ki, kj = spec_i.kappa, spec_j.kappa
    m = np.minimum(u, v)
    # one kernel call on the distinct elapsed times (the grid of a u x v mesh)
    elapsed, at = np.unique(m - t0, return_inverse=True)
    cov = _ou_covariance(np.array([ki, kj]), np.array([spec_i.xi, spec_j.xi]),
                         np.array([[1.0, rho_ij], [rho_ij, 1.0]]), elapsed)[:, 0, 1]
    out = cov[at.reshape(m.shape)] * np.asarray(_exp(-(ki * (u - m) + kj * (v - m))), dtype=float)
    return float(out) if out.ndim == 0 else out


# below this kappa * tau the direct bracket of `integral_covariance` loses more
# than 3e-10 to cancellation (about 3e-16 / (kappa tau)^2)
_SMALL_KT = 1e-3


def _phi(x: float) -> tuple[float, float, float]:
    """g = (1 - e^-x) / x, h = (1 - g) / x and k = (1/2 - h) / x, from their
    Taylor series below x = 1/2, where the quotients cancel."""
    if x >= 0.5:
        g = -math.expm1(-x) / x
        h = (1.0 - g) / x
        return g, h, (0.5 - h) / x
    k = 0.0
    for m in range(16, -1, -1):  # k = sum_m (-x)^m / (m + 3)!
        k = 1.0 / math.factorial(m + 3) - x * k
    h = 0.5 - x * k
    return 1.0 - x * h, h, k


def integral_covariance(
    spec_i: HullWhiteSpec,
    spec_j: HullWhiteSpec,
    rho_ij: float,
    t0: float,
    T: float,
) -> float:
    """
    Cov[int_t0^T q_i(s) ds, int_t0^T q_j(s) ds] in closed form.

    Derived by integrating the cross-covariance kernel twice (the kernel is
    exponential in both arguments, so both integrals telescope).  The i = j
    case reduces to the integrated Ornstein-Uhlenbeck variance.
    """
    if T < t0:
        raise ModelValidationError("need T >= t0")
    tau = T - t0
    if tau == 0.0 or rho_ij == 0.0 or spec_i.xi == 0.0 or spec_j.xi == 0.0:
        return 0.0
    xi_ = spec_i.kappa * tau
    xj_ = spec_j.kappa * tau
    if min(xi_, xj_) < _SMALL_KT:
        # h(x) + h(y) - g(x) g(y) for x <= y, with g, h, k of `_phi`, regrouped
        # as [1/2 + h(y) - g(y)] + x (h(x) g(y) - k(x)) so no O(1) terms cancel
        x, y = sorted((xi_, xj_))
        (gx, hx, kx), (gy, hy, ky) = _phi(x), _phi(y)
        head = y * (0.5 - (1.0 + y) * ky) if y < 0.5 else 0.5 + hy - gy
        bracket = tau * tau * (head + x * (hx * gy - kx))
    else:  # the same bracket, direct
        hi = (xi_ + math.expm1(-xi_)) / xi_**2
        hj = (xj_ + math.expm1(-xj_)) / xj_**2
        ei = -math.expm1(-xi_)
        ej = -math.expm1(-xj_)
        bracket = tau * tau * (hi + hj - ei * ej / (xi_ * xj_))
    return float(spec_i.xi * spec_j.xi * rho_ij / (spec_i.kappa + spec_j.kappa) * bracket)


def bond_moment(spec: HullWhiteSpec, t0: float, T: float, multiplier: int = 1) -> float:
    """
    E[exp(-m * int_t0^T q(s) ds)] for m in {1, 2}.

    The integral of a Hull-White spread is Gaussian, so the expectation is
    the lognormal moment exp(-m * int qhat + m^2/2 * Var[int u]).
    """
    if multiplier not in (1, 2):
        raise ModelValidationError("multiplier must be 1 or 2")
    if T < t0:
        raise ModelValidationError("need T >= t0")
    mean_part = spec.mean_curve.integral(t0, T)
    var_part = integral_covariance(spec, spec, 1.0, t0, T)
    return float(math.exp(-multiplier * mean_part + 0.5 * multiplier**2 * var_part))


def joint_bond_moment(
    spec_i: HullWhiteSpec,
    spec_j: HullWhiteSpec,
    rho_ij: float,
    t0: float,
    T: float,
) -> float:
    """
    E[exp(-int q_i) * exp(-int q_j)] over [t0, T].

    The sum of the two Gaussian integrals is Gaussian with mean
    int (qhat_i + qhat_j) and variance v_i + v_j + 2 rho-covariance, so the
    expectation is again a lognormal moment.
    """
    if T < t0:
        raise ModelValidationError("need T >= t0")
    mu = -(spec_i.mean_curve.integral(t0, T) + spec_j.mean_curve.integral(t0, T))
    v = (
        integral_covariance(spec_i, spec_i, 1.0, t0, T)
        + integral_covariance(spec_j, spec_j, 1.0, t0, T)
        + 2.0 * integral_covariance(spec_i, spec_j, rho_ij, t0, T)
    )
    return float(math.exp(mu + 0.5 * v))
