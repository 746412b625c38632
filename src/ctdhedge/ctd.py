"""Cheapest-to-deliver discount factors.

Two pricing routes are implemented:

* a deterministic route that integrates the running maximum of the forecast
  curves exactly (they are piecewise linear), and
* a stochastic route approximating E[exp(-int max(0, q_1..q_N))] through a
  per-time common-factor decomposition of the spread vector, semi-analytic
  moments of the resulting maximum, and a second-order correction built
  from a diffusion proxy for the variance of the time integral.

The same machinery prices the shifted maximum exp(-int max(q_i, q_1+q_i,
..., q_N+q_i)) needed by the hedging covariances, and conditional factors
re-anchored at a simulated market state for portfolio revaluation.  Every
maximum is floored at the domestic zero spread, the shifted one being q_i
plus the floored maximum.  One driver (`_moments`) gives the moments of
the floored maximum, in chunks of rows: for one or two spreads the mean
and variance are closed-form truncated-normal moments (`_closed_chunk`);
from three spreads on the panel kernel (`_panel_chunk`) integrates them.
The pivot covariances come from the panel at every N, with its known
pivot-part defect (for j != p it counts Phi_p twice), so the panel size
matters only at N >= 3 and for pivot covariances.  The panel evaluates
each Gaussian cdf once, and only where some row reads it: the pivot
part reads Phi_p from the weights' own factors, and a chunk without a
positive common variance skips every common-factor tail.  One pipeline
(`_cf_pipeline`: grid, snapshots, gamma, moments, Psi, value) serves every
stochastic factor, for every maturity of one anchor in one pass; the
public pricers are thin wrappers around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr, owens_t

from .curves import SpreadCurve, max_curve_breakpoints, max_curve_integral
from .spread_model import MarketModel, ModelValidationError

__all__ = [
    "GaussianVectorSnapshot",
    "CommonFactorState",
    "MaxMoments",
    "fit_gamma",
    "max_cdf",
    "max_moments",
    "integral_variance_estimator",
    "ctd_deterministic",
    "ctd_common_factor",
    "ctd_common_factor_detailed",
    "shifted_max_ctd",
    "CommonFactorResult",
    "ConditionalCtdTable",
]

_GAMMA_CAP = 1.0 - 1e-9
_PANEL_HALF_WIDTH = 8.5  # standard deviations covered by each Gaussian panel
_PANEL_NODES = 96
_CONV_NODES = 128  # convolution nodes for the explicit cdf
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TINY = np.finfo(float).tiny  # the smallest normal float


class NumericalError(RuntimeError):
    """Raised when a quadrature or decomposition step degenerates."""


_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(_PANEL_NODES)
_CONV_X, _CONV_W = np.polynomial.legendre.leggauss(_CONV_NODES)


def _phi(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


# ---------------------------------------------------------------------------
# common factor decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianVectorSnapshot:
    """Joint Gaussian law of the spread vector at one fixed time."""

    means: np.ndarray
    covariance: np.ndarray
    time: float

    def __init__(self, means, covariance, time: float):
        mu = np.atleast_1d(np.array(means, dtype=float))
        cov = np.atleast_2d(np.array(covariance, dtype=float))
        if cov.shape != (mu.size, mu.size):
            raise ModelValidationError("covariance shape does not match means")
        if not np.allclose(cov, cov.T, atol=1e-14 * max(1.0, float(np.abs(cov).max()))):
            raise ModelValidationError("covariance must be symmetric")
        scale = max(float(np.abs(cov).max()), 1e-30)
        if float(np.linalg.eigvalsh(cov)[0]) < -1e-10 * max(scale, 1.0):
            raise ModelValidationError("covariance is not positive semidefinite")
        mu.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "time", float(time))

    @property
    def size(self) -> int:
        return self.means.size


def fit_gamma(snapshot: GaussianVectorSnapshot) -> float:
    """
    Common-factor loading replicating the covariance structure best.

    For a single spread there is nothing to share and gamma is 0.  With two
    or more spreads gamma minimizes the Frobenius distance between the
    implied and the exact covariance matrix; with two spreads that matches
    the single off-diagonal entry exactly whenever it is nonnegative and not
    larger than the smallest marginal variance.  Outside [0, 1) the value is
    clamped.
    """
    gamma, _ = _fit_gamma_batch(snapshot.covariance[None])
    return float(gamma[0])


@dataclass(frozen=True)
class CommonFactorState:
    """
    One-time decomposition q_i = C + A_i into a shared and own factors.

    C is centred Gaussian with variance gamma * sigma_min_sq, each A_i is
    Gaussian with the component mean and the residual variance, and all
    factors are independent.  The maximum of interest is
    max(0, C + max_i A_i): the domestic currency's zero spread is always
    deliverable.
    """

    time: float
    gamma: float
    sigma_min_sq: float
    component_means: np.ndarray
    component_vars: np.ndarray
    common_var: float

    def __post_init__(self):
        mu = np.atleast_1d(np.array(self.component_means, dtype=float))
        res = np.atleast_1d(np.array(self.component_vars, dtype=float))
        if mu.size != res.size:
            raise ModelValidationError("component means and variances disagree in size")
        if not 0.0 <= self.gamma < 1.0:
            raise ModelValidationError("gamma must lie in [0, 1)")
        if self.common_var < 0.0 or np.any(res < 0.0):
            raise ModelValidationError("negative variance in common factor state")
        mu.setflags(write=False)
        res.setflags(write=False)
        object.__setattr__(self, "component_means", mu)
        object.__setattr__(self, "component_vars", res)

    @classmethod
    def from_snapshot(cls, snapshot: GaussianVectorSnapshot) -> "CommonFactorState":
        """The decomposition of a snapshot at its fitted gamma (`fit_gamma`)."""
        gamma = fit_gamma(snapshot)
        sig_min_sq = float(np.min(np.diag(snapshot.covariance)))
        common_var = gamma * sig_min_sq
        residual = np.maximum(np.diag(snapshot.covariance) - common_var, 0.0)
        return cls(
            time=snapshot.time,
            gamma=gamma,
            sigma_min_sq=sig_min_sq,
            component_means=snapshot.means,
            component_vars=residual,
            common_var=common_var,
        )

    @property
    def size(self) -> int:
        return self.component_means.size

    def total_vars(self) -> np.ndarray:
        """Marginal variances of the reconstructed components."""
        return self.component_vars + self.common_var


@dataclass(frozen=True)
class MaxMoments:
    """First two moments of the maximum along a time grid."""

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray


# ---------------------------------------------------------------------------
# cdf of the maximum
# ---------------------------------------------------------------------------

def _inner_max_cdf(y: np.ndarray, means: np.ndarray, sds: np.ndarray) -> np.ndarray:
    """cdf of max_i A_i at points y; degenerate components act as steps."""
    out = np.ones_like(y, dtype=float)
    for mu, sd in zip(means, sds):
        if sd > 0.0:
            out = out * ndtr((y - mu) / sd)
        else:
            out = out * (y >= mu)
    return out


def max_cdf(state: CommonFactorState, x) -> float | np.ndarray:
    """
    Cumulative distribution function of the common-factor maximum
    max(0, C + max_i A_i).

    Evaluates the convolution of the common-factor density with the product
    of the component cdfs by Gauss-Legendre quadrature over +-8 standard
    deviations of the common factor.  The zero floor makes the value 0 for
    x <= 0.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    sds = np.sqrt(state.component_vars)
    s_c = math.sqrt(state.common_var)
    if s_c == 0.0:
        vals = _inner_max_cdf(arr, state.component_means, sds)
    else:
        half = 8.0 * s_c
        z = half * _CONV_X  # nodes of the common factor
        w = half * _CONV_W * _phi(z / s_c) / s_c
        g = _inner_max_cdf(arr[:, None] - z[None, :], state.component_means, sds)
        vals = np.sum(g * w[None, :], axis=1)
        vals = np.clip(vals, 0.0, 1.0)
    vals = np.where(arr <= 0.0, 0.0, vals)
    if np.asarray(x).ndim == 0:
        return float(vals[0])
    return vals


# ---------------------------------------------------------------------------
# moments of the maximum
# ---------------------------------------------------------------------------

# rows per chunk at most: a chunk's [m, g] temporaries, g panel nodes per row,
# grow with its rows
_MOMENT_CHUNK = 1024
_PANEL_X64, _PANEL_W64 = np.polynomial.legendre.leggauss(64)


def _floor_values(y, sc):
    """
    h(y) for the functions of D = max_i A_i whose expectations the kernel
    accumulates: y, y^2, the lower tails E[(C + y)^-] and E[((C + y)^-)^2]
    for C ~ N(0, s_C^2), and Phi(y / s_C).
    """
    t = y / sc
    nt = ndtr(-t)
    pt = _phi(t)
    return y, y * y, sc * pt - y * nt, (sc * sc + y * y) * nt - sc * y * pt, ndtr(t)


def _floor_slopes(y, sc, tails):
    """h'(y) for the functions of `_floor_values`, one array at a time; the
    first two alone without `tails`."""
    yield np.ones_like(y)
    yield 2.0 * y
    if not tails:
        return
    t = y / sc
    nt = ndtr(-t)
    pt = _phi(t)
    yield -nt
    yield 2.0 * y * nt - 2.0 * sc * pt
    yield pt / sc


def _fold_floor(hard, m0, mu_cdf, sd_cdf, sc, px, pw, tails):
    """
    What the hard floor m0 of the `hard` rows adds to the expectations of
    the functions in `_floor_values` over the stochastic maximum D_S, and
    their values at m0.  Without `tails` the last three terms, which every
    row then discards, take no quadrature.

    E[h(max(D_S, m0))] = E[h(D_S)] + int_{-inf}^{m0} h'(y) G_S(y) dy, with
    G_S the cdf of D_S: quadrature over the window where G_S rises, closed
    form h(m0) - h(y_hi) above it.  A row without any stochastic component
    has D == m0 exactly, so it adds h(m0) itself.
    """
    at_m0 = _floor_values(m0, sc[:, 0])
    lo = (mu_cdf - _PANEL_HALF_WIDTH * sd_cdf).max(axis=1)
    fold = hard & (lo > -np.inf)
    terms = [np.where(hard & ~fold, h0, 0.0) for h0 in at_m0]
    if fold.any():
        hi = (mu_cdf + _PANEL_HALF_WIDTH * sd_cdf).max(axis=1)
        y_lo = np.where(fold, np.minimum(lo, m0), 0.0)
        y_hi = np.where(fold, np.maximum(np.minimum(hi, m0), y_lo), 0.0)
        width = (y_hi - y_lo)[:, None]
        yf = y_lo[:, None] + width * 0.5 * (px[None, :] + 1.0)
        gs = np.ones_like(yf)
        for j in range(mu_cdf.shape[1]):
            gs *= ndtr((yf - mu_cdf[:, j][:, None]) / sd_cdf[:, j][:, None])
        wf = 0.5 * width * pw[None, :] * gs
        at_hi = _floor_values(y_hi, sc[:, 0])
        for term, h0, h1, dh in zip(terms, at_m0, at_hi, _floor_slopes(yf, sc, tails)):
            term += np.where(fold, np.sum(wf * dh, axis=1) + (h0 - h1), 0.0)
    return terms, at_m0


def _panel_chunk(mu, idio_var, common_var, panel, pivots):
    """
    One chunk of `_moments` on the panels.

    Conditioning on C, every expectation is integrated against each
    stochastic component's own Gaussian panel y_i = mu_i + sigma_i x,
    weighted by the other components' cdfs at y_i, so accuracy is uniform
    down to the sigma -> 0 limit.  With C nondegenerate the zero floor
    enters through closed-form lower-tail corrections, and conditioning on
    the inner maximum gives E[C M] = s_C^2 E[Phi(D / s_C)].  Components with
    zero variance, and the zero floor when C is degenerate, form a hard
    floor m0 that is folded in exactly.  The pivot part decomposes over
    which component attains the maximum, with every conditional expectation
    a closed Gaussian form on the same panels.

    Each Gaussian cdf is evaluated once, and only where some row reads it.
    (a) The pivot part's Phi_p(y_i), for p != i, is bitwise the factor
    already multiplied into the weights wherever p is stochastic (there
    mu_cdf = mu and sd_cdf = sd), so that factor is kept and read.  Where p
    has zero variance the kept factor is 1, not Phi_p, but there the
    covariance is 0 whatever E[A_p M] holds.  (b) A chunk without a row of
    positive common variance skips the lower tails, Phi(y / s_C) and the
    fold's tail slopes: `np.where(sc_pos, ...)` would discard every term.
    """
    m, k = mu.shape
    px, pw = panel if panel is not None else (_PANEL_X, _PANEL_W)
    sd = np.sqrt(idio_var)
    stoch = sd > 0.0
    sc_pos = common_var > 0.0
    tails = bool(sc_pos.any())  # (b); without them every row is hard-floored
    sc = np.where(sc_pos, np.sqrt(common_var), 1.0)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", under="ignore", over="ignore"):
        m0 = np.where(stoch, -np.inf, mu).max(axis=1)
        m0 = np.where(sc_pos, m0, np.maximum(m0, 0.0))
        hard = np.isfinite(m0)
        folds = bool(hard.any())
        m0f = np.where(hard, m0, 0.0)
        # a zero-variance component lives in m0, so its cdf factor is 1: mean -inf, sd 1
        mu_cdf = np.where(stoch, mu, -np.inf)
        sd_cdf = np.where(stoch, sd, 1.0)

        # E[D], E[D^2], the two lower tails, E[Phi(D / s_C)]
        acc = [np.zeros(m) for _ in range(5)]
        e_am = np.zeros((len(pivots), m))  # E[A_p M]
        if folds:  # before the panels, so the two never hold [m, g] arrays at once
            floor_terms, at_m0 = _fold_floor(hard, m0f, mu_cdf, sd_cdf, sc, px, pw, tails)
        x = px * _PANEL_HALF_WIDTH
        wx = pw * _PANEL_HALF_WIDTH * _phi(x)
        for i in np.flatnonzero(np.any(stoch, axis=0)):
            y = mu[:, i][:, None] + sd[:, i][:, None] * x[None, :]  # [m,g]
            w = np.empty((m, wx.size))
            w[...] = wx  # a broadcast copy; np.tile holds the interpreter lock
            cdfs = {}  # (a): each pivot's factor of w, Phi_p(y) where p is stochastic
            for j in range(k):
                if j != i:
                    cdf = ndtr((y - mu_cdf[:, j][:, None]) / sd_cdf[:, j][:, None])
                    w *= cdf
                    if j in pivots:
                        cdfs[j] = cdf
            if folds:
                w[~stoch[:, i]] = 0.0
            acc[0] += np.sum(w * y, axis=1)
            acc[1] += np.sum(w * y * y, axis=1)
            if tails:
                # the lower tails, as in _floor_values; inline, so that no more
                # [m, g] temporaries are alive at once than the expressions need
                t = y / sc
                nt = ndtr(-t)
                pt = _phi(t)
                acc[2] += np.sum(w * (sc * pt - y * nt), axis=1)
                acc[3] += np.sum(w * ((sc * sc + y * y) * nt - sc * y * pt), axis=1)
            if not pivots:
                continue
            if tails:
                cdf_t = ndtr(t)
                acc[4] += np.sum(w * cdf_t, axis=1)
                g = y * cdf_t + sc * pt  # E[(C + y)^+]
                if folds:
                    g = np.where(sc_pos[:, None], g, np.maximum(y, 0.0))
            else:
                g = np.maximum(y, 0.0)
            if folds:
                w = w * (y >= m0[:, None])  # below the hard floor i cannot attain D
            for n, p in enumerate(pivots):
                if p == i:
                    e_am[n] += np.sum(w * (y * g), axis=1)
                else:
                    zp = (y - mu[:, p][:, None]) / sd_cdf[:, p][:, None]
                    lower = mu[:, p][:, None] * cdfs[p] - sd_cdf[:, p][:, None] * _phi(zp)
                    e_am[n] += np.sum(w * (lower * g), axis=1)

        if folds:
            for a, term in zip(acc, floor_terms):
                a += term
            if pivots:  # the hard floor attains the maximum
                cdf0 = ndtr((m0f[:, None] - mu_cdf) / sd_cdf)
                g0 = np.where(
                    sc_pos, m0f * at_m0[4] + sc[:, 0] * _phi(m0f / sc[:, 0]), np.maximum(m0f, 0.0)
                )
                for n, p in enumerate(pivots):
                    z0 = (m0f - mu[:, p]) / sd_cdf[:, p]
                    lower0 = mu[:, p] * ndtr(z0) - sd_cdf[:, p] * _phi(z0)
                    others = np.prod(np.delete(cdf0, p, axis=1), axis=1)
                    e_am[n] += np.where(hard, lower0 * others * g0, 0.0)

        e1, e2, l1, l2, e_fd = acc
        mean = np.maximum(e1 + np.where(sc_pos, l1, 0.0), 0.0)
        second = common_var + e2 - np.where(sc_pos, l2, 0.0)
        var = np.maximum(second - mean * mean, 0.0)
        cov = np.empty((len(pivots), m))
        for n, p in enumerate(pivots):
            cov[n] = np.where(sc_pos, common_var * e_fd, 0.0) + np.where(
                stoch[:, p], e_am[n] - mu[:, p] * mean, 0.0
            )
    return mean, var, cov


def _tail_moments(mu, sd, b):
    """E[X; X > b] and E[X^2; X > b] for X ~ N(mu, sd^2), exact at sd = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (b - mu) / sd
        p = ndtr(-z)
        f = sd * _phi(z)
        e1 = mu * p + f
        e2 = mu * mu * p + (mu + b) * f + sd * sd * p
    above = mu > b
    return (np.where(sd > 0.0, e1, np.where(above, mu, 0.0)),
            np.where(sd > 0.0, e2, np.where(above, mu * mu, 0.0)))


def _closed_chunk(mu, a, c):
    """
    Mean and variance of M for one chunk of `_moments` with k <= 2, in
    closed form: a rectified normal for k = 1, and for k = 2 the sum over i
    of E[X_i^r; X_i > 0, X_i > X_j] with X_i = C + A_i, moments of a
    truncated bivariate normal (`_pair_moments`).  Every row is exact, zero
    variances included: with all of them zero the mean is max(0, mu_1, mu_2)
    and the variance 0.
    """
    if mu.shape[1] == 1:
        e1, e2 = _tail_moments(mu[:, 0], np.sqrt(c + a[:, 0]), 0.0)
    else:
        e1, e2 = _pair_moments(mu, a, c)
    mean = np.maximum(e1, 0.0)
    return mean, np.maximum(e2 - mean * mean, 0.0)


def _pair_moments(mu, a, c):
    """
    E[M] and E[M^2] for k = 2.

    X_i = C + A_i has sd s_i = sqrt(c + a_i), D = X_1 - X_2 has sd d, and
    g^2 = c d^2 + a_1 a_2.  M is X_i on {X_i > 0, X_i > X_j},
    whose probability P_i is the bivariate normal cdf of (x_i, +-y) at
    correlation a_i / (s_i d), x_i = mu_i / s_i and y = (mu_1 - mu_2) / d.
    Stein's lemma turns the truncated moments (Tallis 1961) into boundary
    terms: on {X_i = 0} the other component lies below 0 with probability
    Phi(v_i), v_i = (c x_i - mu_j s_i) / g, and on {D = 0} both lie above 0
    with probability Phi(w), w = (mu_1 a_2 + mu_2 a_1) / (g d), so

        E[M]   = sum_i (mu_i P_i + s_i phi(x_i) Phi(v_i)) + d phi(y) Phi(w)
        E[M^2] = sum_i ((mu_i^2 + s_i^2) P_i + mu_i s_i phi(x_i) Phi(v_i))
                 + ((mu_1 + mu_2) d Phi(w) + g phi(w)) phi(y).

    P_i is Owen's (1956) T form; the two share T(y, w / y), with opposite
    signs.  Its half of Phi(x_i) + Phi(+-y) is taken from the two tails, so
    a pair of mixed sign does not cancel; x_i or y zero takes the form's
    limits, through +0.0 (both zero: 1/4 + arcsin(rho) / 2pi), and so does
    a subnormal one, whose ratios v / x and w / y would keep only a few
    bits.  Rows with g = 0 are one-dimensional: a_1 = a_2 = 0 gives
    max(0, C + max_i mu_i); c = 0 with one a_i = 0 gives max(b, X_j),
    b = max(0, mu_i).
    """
    m1, m2 = mu[:, 0], mu[:, 1]
    a1, a2 = a[:, 0], a[:, 1]
    d2 = a1 + a2
    d = np.sqrt(d2)
    g = np.sqrt(c * d2 + a1 * a2)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(c[:, None] + a)
        # below the smallest normal number to +0.0, never -0.0: v / x and w / y
        # then take the sign of v and w, and subnormal x or y the form's limits
        x = mu / s
        x = np.where(np.abs(x) < _TINY, 0.0, x)
        y = (m1 - m2) / d
        y = np.where(np.abs(y) < _TINY, 0.0, y)
        v = (c[:, None] * x - mu[:, ::-1] * s) / g[:, None]
        w = (m1 * a2 + m2 * a1) / (g * d)
        ty = owens_t(y, w / y)
        below_x = x < 0.0
        below_y = np.stack((y < 0.0, ~(y < 0.0)), axis=1)  # -y for term 2, as -0.0 at y = 0
        qx = ndtr(-np.abs(x))
        qy = ndtr(-np.abs(y))[:, None]
        p = (0.5 * (np.where(below_x, qx, -qx) + np.where(below_y, qy, -qy))
             + (~below_x & ~below_y) - owens_t(x, v / x) - np.stack((ty, -ty), axis=1))
        origin = (x == 0.0) & (y == 0.0)[:, None]
        if origin.any():
            p = np.where(origin, 0.25 + np.arcsin(a / (s * d[:, None])) / (2.0 * math.pi), p)
        edge = s * _phi(x) * ndtr(v)
        cross = _phi(y)
        fw = ndtr(w)
        t1 = mu * p + edge
        t2 = (mu * mu + s * s) * p + mu * edge
        e1 = t1[:, 0] + t1[:, 1] + d * cross * fw
        e2 = t2[:, 0] + t2[:, 1] + ((m1 + m2) * d * fw + g * _phi(w)) * cross
        flat = ~(g > 0.0)
        if flat.any():
            tied = d2 == 0.0
            u1, u2 = _tail_moments(np.maximum(m1, m2), np.sqrt(c), 0.0)
            first = a1 > 0.0
            ms = np.where(first, m1, m2)
            b = np.maximum(np.where(first, m2, m1), 0.0)
            f1, f2 = _tail_moments(ms, d, b)
            under = ndtr((b - ms) / d)
            e1 = np.where(flat, np.where(tied, u1, f1 + b * under), e1)
            e2 = np.where(flat, np.where(tied, u2, f2 + b * b * under), e2)
    return e1, e2


def _moments(mu, idio_var, common_var, panel=None, pivots: Sequence[int] = ()):
    """
    Mean and variance of M = max(0, C + max_i A_i) for a batch of states,
    and Cov[C + A_p, M] for every 0-based pivot p.

    mu, idio_var: [m, k]; common_var: [m].  Returns mean [m], variance [m]
    and covariances [len(pivots), m].  The mean and variance are closed
    form for k <= 2 (`_closed_chunk`) and come from the panels for k >= 3
    (`_panel_chunk`), which also give the pivot covariances at every k.
    Regular rows (every component stochastic and a nondegenerate common
    factor) and the rest run in separate chunks, so regular chunks skip
    the panel's hard-floor work.  Each kind splits into equal chunks of at
    most `_MOMENT_CHUNK` rows, run in turn on the calling thread; each
    chunk writes only its own rows, and every row is evaluated elementwise
    or reduced along its own panel, so the results do not depend on the
    chunking.
    """
    mu = np.asarray(mu, dtype=float)
    idio_var = np.asarray(idio_var, dtype=float)
    common_var = np.asarray(common_var, dtype=float)
    m, k = mu.shape
    mean = np.empty(m)
    var = np.empty(m)
    cov = np.empty((len(pivots), m))
    regular = np.all(idio_var > 0.0, axis=1) & (common_var > 0.0)
    for rows in (np.flatnonzero(regular), np.flatnonzero(~regular)):
        n = -(-rows.size // _MOMENT_CHUNK)
        for sel in np.array_split(rows, n) if n else []:
            args = mu[sel], idio_var[sel], common_var[sel]
            if k > 2 or pivots:
                mean[sel], var[sel], cov[:, sel] = _panel_chunk(*args, panel, pivots)
            if k <= 2:
                mean[sel], var[sel] = _closed_chunk(*args)
    return mean, var, cov


def max_moments(state: CommonFactorState) -> tuple[float, float]:
    """
    Mean and variance of the common-factor maximum at one time.

    Closed form for one or two spreads (`_closed_chunk`).  From three
    spreads on, semi-analytic: the moments of the inner maximum are
    integrated against per-component Gaussian panels and the zero floor is
    applied through exact rectification identities, conditioning on the
    common factor.  Equivalent to integrating the survival function of
    `max_cdf` but uniformly accurate for vanishing volatilities.
    """
    mean, var, _ = _moments(
        state.component_means[None, :],
        state.component_vars[None, :],
        np.asarray([state.common_var]),
    )
    return float(mean[0]), float(var[0])


# ---------------------------------------------------------------------------
# variance of the time integral
# ---------------------------------------------------------------------------

def integral_variance_estimator(times, variances, t0: float, T: float):
    """
    Diffusion-based proxy Psi for Var[int_t0^T M(t) dt].

    Treats the marginal variance curve v of M as that of a process with
    independent increments, whose covariance kernel is v(min(s, s')):

        Psi = int_t0^T int_t0^s v(r) dr ds + int_t0^T (T - s) v(s) ds.

    The two terms are one integral, int int_{r < s} v(r) = int (T - s) v(s),
    so Psi = 2 int (T - s) v(s) ds = int int v(min(s, s')) ds ds'; both are
    summed as written, since the one-term form rounds differently.  For an
    Ornstein-Uhlenbeck-driven spread the kernel exp(-kappa |s - s'|)
    v(min(s, s')) lies below this one.

    `times` is the grid of the curves, strictly increasing from exactly t0
    to exactly T (the single node [t0] for T == t0, which gives 0).  The
    curve is taken piecewise linear between nodes and both terms are
    integrated exactly; a batch of curves [rows, n] shares the grid.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(variances, dtype=float)
    if t.ndim != 1 or not np.all(np.diff(t) > 0.0):
        raise ModelValidationError("times must be strictly increasing")
    if v.ndim > 2:
        raise ModelValidationError("variances must be one curve or a batch of curves [rows, n]")
    if v.shape[-1] != t.size:
        raise ModelValidationError("variance curve and grid have different lengths")
    if not (np.all(np.isfinite(v)) and np.all(v >= -1e-18)):
        raise ModelValidationError("variance curve must be finite and nonnegative")
    if t.size == 0 or t[0] != t0 or t[-1] != T:
        raise ModelValidationError(f"the grid must run from t0 = {t0:g} to T = {T:g}")
    # C-ordered, so that every row sums along its own memory as a single row does
    vv = np.ascontiguousarray(np.atleast_2d(v))
    h = np.diff(t)  # [n-1]
    vk = vv[:, :-1]
    vk1 = vv[:, 1:]
    slope = (vk1 - vk) / h
    # cumulative integral C(s) at nodes, exact for the linear pieces
    seg = 0.5 * (vk + vk1) * h
    c_nodes = np.concatenate([np.zeros((vv.shape[0], 1)), np.cumsum(seg, axis=1)], axis=1)
    ck = c_nodes[:, :-1]
    # term 1: int C(s) ds with C quadratic on each interval
    term1 = np.sum(ck * h + 0.5 * vk * h**2 + slope * h**3 / 6.0, axis=1)
    # term 2: int (T - s) v(s) ds, cubic-exact via Simpson on each interval
    smid = 0.5 * (t[:-1] + t[1:])
    vmid = 0.5 * (vk + vk1)
    f_a = (T - t[:-1]) * vk
    f_m = (T - smid) * vmid
    f_b = (T - t[1:]) * vk1
    term2 = np.sum(h / 6.0 * (f_a + 4.0 * f_m + f_b), axis=1)
    psi = term1 + term2
    return float(psi[0]) if v.ndim == 1 else psi


# ---------------------------------------------------------------------------
# CTD discount factors
# ---------------------------------------------------------------------------

def _forecast_curves(model: MarketModel, t0: float, T: float) -> list[SpreadCurve]:
    """The domestic currency's zero spread on [t0, T], then every spread's forecast."""
    return [SpreadCurve.constant(0.0, t0, T)] + [s.mean_curve for s in model.spreads]


def ctd_deterministic(model: MarketModel, t0: float, T: float) -> float:
    """
    exp(-int_t0^T max(0, qhat_1, ..., qhat_N)): the forecast-only factor.

    Exact: the integrand is piecewise linear, so crossings are found by
    segment intersection and the integral carries no quadrature error.
    """
    if T < t0:
        raise ModelValidationError("need T >= t0")
    if T == t0:
        return 1.0
    return math.exp(-max_curve_integral(_forecast_curves(model, t0, T), t0, T))


def _time_grid(t0: float, T: float, nodes_per_year: int) -> np.ndarray:
    n = max(2, int(round((T - t0) * nodes_per_year)))
    return np.linspace(t0, T, n + 1)


def _model_time_grid(model: MarketModel, t0: float, T: float, nodes_per_year: int) -> np.ndarray:
    """Uniform grid plus every kink of the forecast maximum (curve nodes and
    curve crossings), so the trapezoidal integral of the maximum's mean is
    exact on piecewise-linear segments in the zero-volatility limit."""
    base = _time_grid(t0, T, nodes_per_year)
    breakpoints, _ = max_curve_breakpoints(_forecast_curves(model, t0, T), t0, T)
    return np.unique(np.concatenate((base, breakpoints)))


@dataclass(frozen=True)
class CommonFactorResult:
    """
    One maturity of a common-factor pass (`_cf_pipeline`), with `shifted`
    the shifted-maximum factor of each pivot.  `value` and `psi` are floats
    at the anchor's forecasts, with a float `mean_integral`, and per-state
    arrays for a pass at displaced states.
    """

    value: float | np.ndarray
    moments: MaxMoments
    psi: float | np.ndarray
    gamma: np.ndarray
    gamma_clamped: int
    shifted: tuple = ()

    @property
    def mean_integral(self) -> float | np.ndarray:
        integral = np.trapezoid(self.moments.mean, self.moments.times)
        return float(integral) if np.ndim(integral) == 0 else integral


def _spread_snapshot_arrays(model: MarketModel, times: np.ndarray, anchor: float):
    """Means and covariances of the spread vector along a grid."""
    mu = np.stack([s.mean_curve(times) for s in model.spreads], axis=1)
    return mu, model.spread_covariance(times, start=anchor)


def _fit_gamma_batch(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """
    Per-node gamma for covariance stacks [m, k, k], and which nodes clamp.

    The Frobenius objective sum_{i != j} (gamma sigma_min^2 - c_ij)^2 is a
    convex quadratic in gamma, so its minimizer is exactly
    mean(c_ij) / sigma_min^2, clamped into [0, 1).
    """
    m, k, _ = cov.shape
    if k == 1:
        return np.zeros(m), np.zeros(m, dtype=bool)
    sig_min_sq = np.diagonal(cov, axis1=1, axis2=2).min(axis=1)
    off = cov[:, ~np.eye(k, dtype=bool)].mean(axis=1)
    pos = sig_min_sq > 0.0
    raw = np.where(pos, off / np.where(pos, sig_min_sq, 1.0), 0.0)
    return np.clip(raw, 0.0, _GAMMA_CAP), (raw < 0.0) | (raw > _GAMMA_CAP)


def _check_maturities(maturities) -> np.ndarray:
    mats = np.asarray(maturities, dtype=float)
    if mats.ndim != 1 or mats.size == 0 or np.any(np.diff(mats) <= 0.0):
        raise ModelValidationError("maturities must be a non-empty, strictly increasing sequence")
    return mats


def _cf_pipeline(
    model: MarketModel,
    t: float,
    maturities: Sequence[float],
    nodes_per_year: int,
    displacements: np.ndarray | None = None,
    pivots: Sequence[int] = (),
    panel: tuple[np.ndarray, np.ndarray] | None = None,
):
    """
    The common-factor route behind every stochastic CTD factor.

    For every maturity T_k >= t of the strictly increasing `maturities` it
    builds the kink-aware grid on [t, T_k].  The moments at a node depend on
    the anchor and the node, not on T_k, so one pass over the union of these
    grids builds the spread snapshots anchored at t (the forecasts shifted
    by the decaying displacements, one state per row, when given), fits
    gamma and takes the moments of the floored maximum M: in closed form for
    N <= 2, pivots or not, so the plain factor of a pivot pass is the plain
    factor alone; from the panel kernel on `panel` for N >= 3.  The pivot
    covariances come from the panel at every N.  A state's values depend on
    that state alone, not on the batch around it.  Each maturity then
    integrates on its own nodes into one `CommonFactorResult`, with
    value = exp(-int E[M]) (1 + Psi / 2), and 1 for T_k == t.  Its
    `shifted` holds the factor of the shifted maximum q_p + M for each
    1-based pivot p: its mean is E[q_p] + E[M] and its variance takes the
    kernel's Cov[q_p, M].
    """
    mats = _check_maturities(maturities)
    if displacements is not None:
        u = np.atleast_2d(np.asarray(displacements, dtype=float))
        if u.shape[1] != model.n_spreads:
            raise ModelValidationError("one displacement per spread is required")
    for p in pivots:
        if not 1 <= p <= model.n_spreads:
            raise ModelValidationError(f"pivot {p} out of range 1..{model.n_spreads}")
    if mats[0] < t:
        raise ModelValidationError("need T >= t")
    live = mats[mats > t]
    results = []
    if live.size < mats.size:  # T_0 == t
        empty = MaxMoments(np.asarray([t]), np.zeros(1), np.zeros(1))
        value = 1.0 if displacements is None else np.ones(u.shape[0])
        results.append(CommonFactorResult(value, empty, 0.0 * value, np.zeros(1), 0,
                                          (1.0,) * len(pivots)))
    if not live.size:
        return results
    grids = [_model_time_grid(model, t, float(T), nodes_per_year) for T in live]
    times = np.unique(np.concatenate(grids))
    mu, cov = _spread_snapshot_arrays(model, times, anchor=t)
    if displacements is None:
        mu = mu[None, :, :]
    else:
        decay = np.exp(-np.array([s.kappa for s in model.spreads]) * (times - t)[:, None])
        mu = mu[None, :, :] + u[:, None, :] * decay[None, :, :]
    gamma, clamped = _fit_gamma_batch(cov)
    diag = np.diagonal(cov, axis1=1, axis2=2)
    common = gamma * diag.min(axis=1)
    idio = np.maximum(diag - common[:, None], 0.0)
    states, ns, n = mu.shape
    mean, var, cov_pm = _moments(
        mu.reshape(states * ns, n),
        np.broadcast_to(idio, (states, ns, n)).reshape(states * ns, n),
        np.broadcast_to(common, (states, ns)).reshape(states * ns),
        panel,
        [p - 1 for p in pivots],
    )
    mean = mean.reshape(states, ns)
    var = var.reshape(states, ns)
    # (mean, variance) curves of M and of every shifted maximum on the union grid
    curves = [(mean, var)] + [
        (mu[:, :, p - 1] + mean, np.maximum(diag[:, p - 1] + var + 2.0 * c.reshape(states, ns), 0.0))
        for p, c in zip(pivots, cov_pm)
    ]

    def factor(e, v, T, grid, idx):
        # gather C-ordered: a column gather comes back F-ordered, and the sums
        # below would then round differently from a pass on the grid alone
        e = np.ascontiguousarray(e[:, idx])
        v = np.ascontiguousarray(v[:, idx])
        integral = np.trapezoid(e, grid, axis=1)
        psi = integral_variance_estimator(grid, v, t, T)
        if displacements is None:
            psi = float(psi[0])
            return math.exp(-float(integral[0])) * (1.0 + 0.5 * psi), psi, e[0], v[0]
        return np.exp(-integral) * (1.0 + 0.5 * psi), psi, e, v

    for T, grid in zip(live, grids):
        idx = np.searchsorted(times, grid)
        value, psi, e, v = factor(*curves[0], float(T), grid, idx)
        shifted = tuple(factor(*curve, float(T), grid, idx)[0] for curve in curves[1:])
        n_clamped = int(np.count_nonzero(clamped[idx]))
        results.append(CommonFactorResult(value, MaxMoments(grid, e, v), psi, gamma[idx],
                                          n_clamped, shifted))
    return results


def ctd_common_factor_detailed(
    model: MarketModel,
    t0: float,
    T: float,
    nodes_per_year: int = 48,
) -> CommonFactorResult:
    """Stochastic CTD factor with its intermediate curves exposed."""
    return _cf_pipeline(model, t0, (T,), nodes_per_year)[0]


def ctd_common_factor(
    model: MarketModel, t0: float, T: float, nodes_per_year: int = 48
) -> float:
    """
    Second-order common-factor approximation of the stochastic CTD factor:
    exp(-int E[max]) * (1 + Psi / 2).
    """
    return ctd_common_factor_detailed(model, t0, T, nodes_per_year).value


CTD_METHODS = ("none", "deterministic", "common_factor")


def _ctd_factors(model: MarketModel, method: str, t: float, maturities: Sequence[float],
                 nodes_per_year: int) -> list[float]:
    """CTD factors at t, one per increasing maturity; common_factor prices all in one pass."""
    if method == "none":
        return [1.0] * len(maturities)
    if method == "deterministic":
        return [ctd_deterministic(model, t, T) for T in maturities]
    return [r.value for r in _cf_pipeline(model, t, maturities, nodes_per_year)] if len(maturities) else []


def shifted_max_ctd(
    model: MarketModel,
    pivot: int,
    t0: float,
    T: float,
    nodes_per_year: int = 48,
) -> float:
    """
    E[exp(-int max(q_i, q_1 + q_i, ..., q_N + q_i))] for pivot spread i.

    The shifted maximum is q_i plus the floored spread maximum exactly, so
    its per-time moments come from the standard common-factor moments plus
    the semi-analytic covariance between the pivot spread and the maximum.
    (A direct common-factor fit of the shifted family cannot reproduce its
    covariances: they exceed the smallest marginal variance.)  The factor
    is then the usual second-order approximation with the diffusion-based
    integral variance.
    """
    return _cf_pipeline(model, t0, (T,), nodes_per_year, pivots=(pivot,))[0].shifted[0]


# ---------------------------------------------------------------------------
# conditional revaluation along simulated paths
# ---------------------------------------------------------------------------

def ctd_common_factor_conditional(
    model: MarketModel,
    t: float,
    T: float,
    displacements: np.ndarray,
    nodes_per_year: int = 48,
) -> np.ndarray:
    """
    Stochastic CTD factor re-anchored at time t for a batch of states.

    `displacements` holds the centred Ornstein-Uhlenbeck offsets u_i(t) of
    every spread, one row per state.  Conditional forecast curves are the
    initial curves plus the offsets decaying at each spread's mean-reversion
    speed; conditional variances restart from zero at t.  From three spreads
    on the moments are integrated on the 96-node panels.
    """
    return _cf_pipeline(model, t, (T,), nodes_per_year, displacements)[0].value


def _cell_spline(axes, values) -> np.ndarray:
    """
    The not-a-knot cubic tensor spline through `values` [n_1, ..., n_N, L]
    on the grid `axes`, exact at its nodes (de Boor 2001, ch. 17), as power
    coefficients per grid cell: [4]*N + [L, cells], highest degree first in
    each axis' local coordinate (the distance from the cell's left node),
    the cells flattened in C order of their per-axis indices.

    Axis by axis, `make_interp_spline` solves the spline along the leading
    node axis for every trailing column at once, and the spline's Taylor
    coefficients at each cell's left node replace that axis by a degree axis
    and a cell axis, both moved to the back.  Each column is solved and
    differentiated on its own, so a table's maturities share no arithmetic.
    """
    from scipy.interpolate import make_interp_spline

    n = len(axes)
    c = values
    for x in axes:
        spl = make_interp_spline(x, c, k=3)
        c = np.stack([spl(x[:-1], nu=m) / math.factorial(m) for m in (3, 2, 1, 0)])
        c = np.moveaxis(c, (0, 1), (-2, -1))
    # [L, 4, cells_1, ..., 4, cells_N] -> [4]*N + [L, cells]
    c = c.transpose([*range(1, 2 * n, 2), 0, *range(2, 2 * n + 1, 2)])
    return np.ascontiguousarray(c).reshape([4] * n + [values.shape[-1], -1])


def _cell_horner(c, cell, s) -> np.ndarray:
    """
    [L, Q] values of the per-cell polynomials `c` ([4]*k + [L, cells]) in
    the cells `cell` [Q] at the local coordinates `s` (k arrays [Q]).
    Horner in the leading axis, whose coefficients are polynomials in the
    other axes, gathered from their cells only when reached.
    """
    if c.ndim == 2:
        return np.take(c, cell, axis=1)
    out = _cell_horner(c[0], cell, s[1:])
    for k in (1, 2, 3):
        out *= s[0]
        out += _cell_horner(c[k], cell, s[1:])
    return out


def _cell_spline_values(axes, c, u) -> np.ndarray:
    """
    [L, Q] values of the `_cell_spline` coefficients `c` on `axes` at the
    states u [Q, N], each clamped to its axis' grid.  An axis' cell index is
    its scaled offset rounded down, the last node falling in the last cell;
    a state on a node may take the cell to its left, whose cubic meets the
    right one's there to rounding.
    """
    cell = 0
    s = []
    for x, ud in zip(axes, u.T):
        ud = np.clip(ud, x[0], x[-1])
        cells = x.size - 1
        j = np.minimum((ud - x[0]) * (cells / (x[-1] - x[0])), cells - 1).astype(np.intp)
        s.append(ud - x[j])
        cell = cell * cells + j
    return _cell_horner(c, cell, s)


class ConditionalCtdTable:
    """
    Interpolation tables for conditional CTD factors at fixed anchor times,
    one spline per anchor for all maturities.

    For every anchor time a tensor grid of spread displacements is priced
    with one conditional common-factor pass (`_cf_pipeline`: closed-form
    moments for one or two spreads, 64-node panels from three on) for all
    the strictly increasing `maturities` after the anchor.
    The log factors of these live maturities are the columns of one exact
    not-a-knot cubic spline per anchor (`_cell_spline`), stored per grid
    cell, so `evaluate` interpolates once per query batch; `nodes_per_dim`
    must be an integer of at least 4, the fewest a cubic spline takes.
    `evaluate` clamps the states to the grid's edge, `half_width_sds` (finite
    and positive) standard deviations out, and returns one row per
    maturity; rows of maturities at or before the anchor are 1.
    `maturity` is the last maturity, the tables' horizon.
    """

    def __init__(
        self,
        model: MarketModel,
        anchor_times: Sequence[float],
        maturities: Sequence[float],
        nodes_per_dim: int = 9,
        half_width_sds: float = 4.5,
        nodes_per_year: int = 24,
    ):
        if isinstance(nodes_per_dim, bool) or not isinstance(nodes_per_dim, (int, np.integer)):
            raise ModelValidationError(f"nodes_per_dim must be an integer, got {nodes_per_dim!r}")
        if nodes_per_dim < 4:
            raise ModelValidationError(f"cubic tables need nodes_per_dim >= 4, got {nodes_per_dim}")
        if not 0.0 < half_width_sds < math.inf:
            raise ModelValidationError(f"half_width_sds must be finite and positive, got {half_width_sds!r}")
        self.model = model
        self.maturities = _check_maturities(maturities)
        self.maturity = float(self.maturities[-1])
        self.anchor_times = np.asarray(anchor_times, dtype=float)
        n = model.n_spreads
        panel = (_PANEL_X64, _PANEL_W64)
        # per anchor: the settled rows, the displacement axes (None without a
        # grid) and the live log factors (cell coefficients, or [1, L] without a grid)
        self._anchors: list = []
        for t in self.anchor_times:
            t = float(t)
            live = self.maturities[self.maturities > t]
            axes = logs = None
            if live.size:
                sds = [math.sqrt(model.spread(i).variance(t)) for i in range(1, n + 1)]
                pts = np.zeros((1, n))  # no dispersion yet: one value serves all states
                if max(sds) >= 1e-10:
                    edges = [half_width_sds * max(sd, 1e-12) for sd in sds]
                    axes = [np.linspace(-h, h, nodes_per_dim) for h in edges]
                    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
                results = _cf_pipeline(model, t, live, nodes_per_year, pts, panel=panel)
                logs = np.stack([np.log(r.value) for r in results], axis=-1)
                if axes is not None:
                    logs = _cell_spline(axes, logs.reshape([nodes_per_dim] * n + [live.size]))
            self._anchors.append((self.maturities.size - live.size, axes, logs))

    def evaluate(self, anchor_index: int, displacements: np.ndarray) -> np.ndarray:
        """Conditional CTD factors [n_maturities, n_states] for states at one anchor time."""
        settled, axes, logs = self._anchors[anchor_index]
        u = np.atleast_2d(np.asarray(displacements, dtype=float))
        rows = [np.ones((settled, u.shape[0]))]
        if axes is not None:
            rows.append(np.exp(_cell_spline_values(axes, logs, u)))  # on C-ordered [n_live, n_states] values
        elif logs is not None:
            rows.append(np.repeat([[math.exp(log)] for log in logs[0]], u.shape[0], axis=1))
        return np.concatenate(rows)
