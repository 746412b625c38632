import gc
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import NdBSpline, make_interp_spline
from scipy.special import ndtr

from ctdhedge import (
    CommonFactorState,
    CorrelationMatrix,
    GaussianVectorSnapshot,
    HullWhiteSpec,
    MarketModel,
    SpreadCurve,
    ctd_common_factor,
    ctd_common_factor_detailed,
    ctd_deterministic,
    fit_gamma,
    integral_variance_estimator,
    max_cdf,
    max_moments,
    shifted_max_ctd,
)
from ctdhedge import ctd
from ctdhedge.ctd import (
    _PANEL_HALF_WIDTH,
    _PANEL_W,
    _PANEL_W64,
    _PANEL_X,
    _PANEL_X64,
    ConditionalCtdTable,
    _cell_spline,
    _cell_spline_values,
    _cf_pipeline,
    _model_time_grid,
    _moments,
    _panel_chunk,
    _phi,
    ctd_common_factor_conditional,
)
from ctdhedge.config import load_config
from ctdhedge.spread_model import ModelValidationError
from single_maturity_table import SingleMaturityCtdTable


def _state(means, total_vars, gamma):
    means = np.asarray(means, dtype=float)
    total = np.asarray(total_vars, dtype=float)
    smin = float(total.min())
    common = gamma * smin
    return CommonFactorState(
        time=1.0,
        gamma=gamma,
        sigma_min_sq=smin,
        component_means=means,
        component_vars=total - common,
        common_var=common,
    )


def _random_model(n, negative, seed):
    """n spreads with every correlation pair nonnegative or every pair negative."""
    rng = np.random.default_rng(seed)
    h = 12.0
    dom = HullWhiteSpec(0.05, 0.0, SpreadCurve.constant(0.0, 0.0, h))
    spreads = [
        HullWhiteSpec(
            float(rng.uniform(0.01, 0.5)),
            float(rng.uniform(5e-4, 1e-2)),
            SpreadCurve([0.0, float(rng.uniform(1.0, 11.0)), h], rng.uniform(-0.02, 0.02, 3)),
        )
        for _ in range(n)
    ]
    a = rng.uniform(0.2, 1.0, n)
    block = (-0.9 / max(n - 1, 1) if negative else 0.8) * np.outer(a, a)
    corr = np.eye(n + 1)
    corr[1:, 1:] = block
    np.fill_diagonal(corr, 1.0)
    return MarketModel(dom, spreads, CorrelationMatrix(corr))


# ---------------------------------------------------------------------------
# reference implementations: the two moment routines and the pivot
# covariance that the single panel kernel replaced, verbatim
# ---------------------------------------------------------------------------

def _moments_fast(mu, idio_var, common_var, floored, px, pw):
    """Lean kernel: all components stochastic, common factor nondegenerate."""
    m, k = mu.shape
    sd = np.sqrt(idio_var)
    x = px * _PANEL_HALF_WIDTH
    wx = pw * _PANEL_HALF_WIDTH * _phi(x)
    e1 = np.zeros(m)
    e2 = np.zeros(m)
    l1 = np.zeros(m)
    l2 = np.zeros(m)
    s_c = np.sqrt(common_var)[:, None]
    with np.errstate(under="ignore"):
        for i in range(k):
            y = mu[:, i][:, None] + sd[:, i][:, None] * x[None, :]  # [m,g]
            w = np.tile(wx, (m, 1))
            for j in range(k):
                if j != i:
                    w *= ndtr((y - mu[:, j][:, None]) / sd[:, j][:, None])
            e1 += np.sum(w * y, axis=1)
            e2 += np.sum(w * y * y, axis=1)
            if floored:
                t = y / s_c
                nt = ndtr(-t)
                pt = _phi(t)
                l1 += np.sum(w * (s_c * pt - y * nt), axis=1)
                l2 += np.sum(w * ((s_c * s_c + y * y) * nt - s_c * y * pt), axis=1)
    mean = e1 + l1
    second = common_var + e2 - l2
    if floored:
        mean = np.maximum(mean, 0.0)
    return mean, np.maximum(second - mean * mean, 0.0)


def _batched_moments_core(
    mu: np.ndarray,
    idio_var: np.ndarray,
    common_var: np.ndarray,
    floored: bool,
):
    """
    First two moments of max(0?, C + max_i A_i) for a batch of states.

    mu, idio_var: [m, k]; common_var: [m].  Moments of the inner maximum are
    integrated against one component's Gaussian density times the cdfs of
    the others, with each panel centred and scaled on its own component, so
    accuracy is uniform down to the sigma -> 0 limit.  Components with zero
    variance act as a hard floor and are folded in exactly; with a
    degenerate common factor the zero floor joins that fold, otherwise it
    enters through closed-form Gaussian lower-tail corrections.
    """
    m, k = mu.shape
    sd = np.sqrt(idio_var)
    s_c = np.sqrt(common_var)
    stoch = sd > 0.0

    with np.errstate(divide="ignore", invalid="ignore", under="ignore", over="ignore"):
        det_mu = np.where(stoch, -np.inf, mu)
        has_det = ~np.all(stoch, axis=1)
        m0 = np.where(has_det, det_mu.max(axis=1), -np.inf)
        # with no common factor the zero floor is just one more hard floor
        zero_common = s_c == 0.0
        tail = floored & ~zero_common  # nodes using the Gaussian tail corrections
        if floored:
            m0 = np.where(zero_common, np.maximum(m0, 0.0), m0)
        has_floor = np.isfinite(m0)
        sc_safe = np.where(zero_common, 1.0, s_c)

        e1 = np.zeros(m)
        e2 = np.zeros(m)
        l1 = np.zeros(m)
        l2 = np.zeros(m)

        any_stoch = np.any(stoch, axis=1)

        if np.any(any_stoch):
            x = _PANEL_X * _PANEL_HALF_WIDTH
            wx = _PANEL_W * _PANEL_HALF_WIDTH * _phi(x)  # [g]
            y = mu[:, :, None] + sd[:, :, None] * x[None, None, :]  # [m,k,g]
            prod = np.ones((m, k, x.size))
            for j in range(k):
                mu_j = mu[:, j][:, None, None]
                sd_j = np.where(stoch[:, j], sd[:, j], 1.0)[:, None, None]
                f_j = np.where(
                    stoch[:, j][:, None, None],
                    ndtr((y - mu_j) / sd_j),
                    1.0,  # zero-variance components live in the floor m0
                )
                f_j[:, j, :] = 1.0  # own density carries the panel, not its cdf
                prod = prod * f_j
            weight = np.where(stoch[:, :, None], prod, 0.0) * wx[None, None, :]
            e1 += np.sum(weight * y, axis=(1, 2))
            e2 += np.sum(weight * y * y, axis=(1, 2))
            if np.any(tail):
                s3 = sc_safe[:, None, None]
                w_tail = np.where(tail[:, None, None], weight, 0.0)
                t = -y / s3
                gm = -y * ndtr(t) + s3 * _phi(t)  # E[((-y) - C)^+]
                hm = (s3 * s3 + y * y) * ndtr(t) - s3 * y * _phi(t)
                l1 += np.sum(w_tail * gm, axis=(1, 2))
                l2 += np.sum(w_tail * hm, axis=(1, 2))

            # fold the hard floor m0 into the stochastic maximum:
            # E[f(max(D_S, m0))] = E[f(D_S)] + int_{-inf}^{m0} f'(y) G_S(y) dy.
            # Above the transition window of G_S the integrand is exactly f',
            # integrated in closed form; quadrature covers only the window.
            fold = has_floor & any_stoch
            if np.any(fold):
                lo_cand = np.where(stoch, mu - _PANEL_HALF_WIDTH * sd, -np.inf)
                hi_cand = np.where(stoch, mu + _PANEL_HALF_WIDTH * sd, -np.inf)
                y_lo = np.minimum(lo_cand.max(axis=1), m0)
                y_hi = np.minimum(hi_cand.max(axis=1), m0)
                y_hi = np.maximum(y_hi, y_lo)
                width = np.where(fold, y_hi - y_lo, 0.0)
                base = np.where(fold, y_lo, 0.0)
                yf = base[:, None] + width[:, None] * 0.5 * (_PANEL_X[None, :] + 1.0)
                gs = np.ones_like(yf)
                for j in range(k):
                    sd_j = np.where(stoch[:, j], sd[:, j], 1.0)[:, None]
                    f_j = np.where(
                        stoch[:, j][:, None],
                        ndtr((yf - mu[:, j][:, None]) / sd_j),
                        1.0,
                    )
                    gs = gs * f_j
                wf = 0.5 * width[:, None] * _PANEL_W[None, :] * gs
                flat = np.where(fold, m0 - y_hi, 0.0)  # region where G_S == 1
                m0f = np.where(fold, m0, 0.0)
                yhf = np.where(fold, y_hi, 0.0)
                e1 += np.sum(wf, axis=1) + flat
                e2 += np.sum(wf * 2.0 * yf, axis=1) + np.where(fold, m0f**2 - yhf**2, 0.0)
                tf_nodes = fold & tail
                if np.any(tf_nodes):
                    scf = sc_safe[:, None]
                    wt = np.where(tf_nodes[:, None], wf, 0.0)
                    tf = yf / scf
                    l1 += np.sum(wt * (-ndtr(-tf)), axis=1)
                    l2 += np.sum(wt * (2.0 * yf * ndtr(-tf) - 2.0 * scf * _phi(tf)), axis=1)
                    # closed flat parts: g(-y) and h(y) differences
                    t_m0 = m0f / sc_safe
                    t_yh = yhf / sc_safe
                    g_diff = (-m0f * ndtr(-t_m0) + sc_safe * _phi(t_m0)) - (
                        -yhf * ndtr(-t_yh) + sc_safe * _phi(t_yh)
                    )
                    h_diff = (
                        (sc_safe**2 + m0f**2) * ndtr(-t_m0) - sc_safe * m0f * _phi(t_m0)
                    ) - ((sc_safe**2 + yhf**2) * ndtr(-t_yh) - sc_safe * yhf * _phi(t_yh))
                    l1 += np.where(tf_nodes, g_diff, 0.0)
                    l2 += np.where(tf_nodes, h_diff, 0.0)

        # states whose every component is deterministic: D == m0 exactly
        pure = ~any_stoch
        if np.any(pure):
            d = np.where(pure & np.isfinite(m0), m0, 0.0)
            e1 = np.where(pure, d, e1)
            e2 = np.where(pure, d * d, e2)
            pure_tail = pure & tail
            if np.any(pure_tail):
                t = -d / sc_safe
                g_val = -d * ndtr(t) + sc_safe * _phi(t)
                h_val = (sc_safe**2 + d * d) * ndtr(t) - sc_safe * d * _phi(t)
                l1 = np.where(pure_tail, g_val, l1)
                l2 = np.where(pure_tail, h_val, l2)

        mean = e1 + l1
        second = common_var + e2 - l2
        if floored:
            mean = np.maximum(mean, 0.0)
        var = np.maximum(second - mean * mean, 0.0)
    return mean, var


def _pivot_max_covariance(
    mu: np.ndarray,
    idio_var: np.ndarray,
    common_var: np.ndarray,
    e_max: np.ndarray,
    pivot: int,
):
    """
    Cov[C + A_p, max(0, C + max_j A_j)] per node, within the decomposition.

    Both contributions are semi-analytic: conditioning on the inner maximum
    gives E[C (C+d)^+] = s_C^2 Phi(d/s_C) for the shared factor, and the
    own-factor part decomposes over which component attains the maximum,
    with every conditional expectation a closed Gaussian form evaluated on
    the same per-component panels as the moments.
    """
    m, k = mu.shape
    sd = np.sqrt(idio_var)
    s_c = np.sqrt(common_var)
    stoch = sd > 0.0
    p_stoch = stoch[:, pivot]
    mu_p = mu[:, pivot]
    sd_p = np.where(p_stoch, sd[:, pivot], 1.0)

    with np.errstate(divide="ignore", invalid="ignore", under="ignore", over="ignore"):
        det_mu = np.where(stoch, -np.inf, mu)
        has_det = ~np.all(stoch, axis=1)
        m0 = np.where(has_det, det_mu.max(axis=1), -np.inf)
        any_stoch = np.any(stoch, axis=1)
        sc_pos = s_c > 0.0
        sc_safe = np.where(sc_pos, s_c, 1.0)

        def g_plus(y):
            """E[(C + y)^+]; collapses to y^+ without a common factor."""
            t = y / sc_safe[:, None] if y.ndim == 2 else y / sc_safe
            smooth = y * ndtr(t) + (sc_safe[:, None] if y.ndim == 2 else sc_safe) * _phi(t)
            hard = np.maximum(y, 0.0)
            mask = sc_pos[:, None] if y.ndim == 2 else sc_pos
            return np.where(mask, smooth, hard)

        x = _PANEL_X * _PANEL_HALF_WIDTH
        wx = _PANEL_W * _PANEL_HALF_WIDTH * _phi(x)
        e_am = np.zeros(m)  # E[A_p * max(0, C + D)]
        e_fd = np.zeros(m)  # E[Phi(D_S / s_C)] over the stochastic maximum
        for j in range(k):
            y = mu[:, j][:, None] + sd[:, j][:, None] * x[None, :]
            w = np.tile(wx, (m, 1))
            for kk in range(k):
                if kk == j:
                    continue
                sd_kk = np.where(stoch[:, kk], sd[:, kk], 1.0)[:, None]
                f_kk = np.where(
                    stoch[:, kk][:, None],
                    ndtr((y - mu[:, kk][:, None]) / sd_kk),
                    1.0,
                )
                w *= f_kk
            w = np.where(stoch[:, j][:, None], w, 0.0)
            g_y = g_plus(y)
            w_tr = w * (y >= m0[:, None])  # below the hard floor j cannot attain D
            if j == pivot:
                integrand = y * g_y
            else:
                zp = (y - mu_p[:, None]) / sd_p[:, None]
                lower_mean = np.where(
                    p_stoch[:, None],
                    mu_p[:, None] * ndtr(zp) - sd_p[:, None] * _phi(zp),
                    mu_p[:, None] * (mu_p[:, None] <= y),
                )
                integrand = lower_mean * g_y
            e_am += np.sum(w_tr * integrand, axis=1)
            e_fd += np.sum(w * ndtr(y / sc_safe[:, None]), axis=1)

        # term where the deterministic floor attains the maximum
        if np.any(has_det):
            gs_m0 = np.ones(m)
            prod_no_p = np.ones(m)
            for kk in range(k):
                f_kk = np.where(
                    stoch[:, kk],
                    ndtr((m0 - mu[:, kk]) / np.where(stoch[:, kk], sd[:, kk], 1.0)),
                    1.0,
                )
                gs_m0 *= np.where(np.isfinite(m0), f_kk, 1.0)
                if kk != pivot:
                    prod_no_p *= np.where(np.isfinite(m0), f_kk, 1.0)
            zp0 = (m0 - mu_p) / sd_p
            lower_p = np.where(p_stoch, mu_p * ndtr(zp0) - sd_p * _phi(zp0), mu_p)
            g_m0 = np.where(
                sc_pos, m0 * ndtr(m0 / sc_safe) + sc_safe * _phi(m0 / sc_safe), np.maximum(m0, 0.0)
            )
            floor_term = np.where(
                has_det & np.isfinite(m0), lower_p * prod_no_p * g_m0, 0.0
            )
            e_am += floor_term

            # fold the floor into E[Phi(D / s_C)]
            fold = has_det & any_stoch & sc_pos
            if np.any(fold):
                lo_cand = np.where(stoch, mu - _PANEL_HALF_WIDTH * sd, -np.inf)
                hi_cand = np.where(stoch, mu + _PANEL_HALF_WIDTH * sd, -np.inf)
                y_lo = np.minimum(lo_cand.max(axis=1), m0)
                y_hi = np.maximum(np.minimum(hi_cand.max(axis=1), m0), y_lo)
                width = np.where(fold, y_hi - y_lo, 0.0)
                base = np.where(fold, y_lo, 0.0)
                yf = base[:, None] + width[:, None] * 0.5 * (_PANEL_X[None, :] + 1.0)
                gs = np.ones_like(yf)
                for kk in range(k):
                    sd_kk = np.where(stoch[:, kk], sd[:, kk], 1.0)[:, None]
                    gs *= np.where(
                        stoch[:, kk][:, None],
                        ndtr((yf - mu[:, kk][:, None]) / sd_kk),
                        1.0,
                    )
                wf = 0.5 * width[:, None] * _PANEL_W[None, :] * gs
                e_fd += np.sum(wf * _phi(yf / sc_safe[:, None]) / sc_safe[:, None], axis=1)
                flat_gain = np.where(
                    fold,
                    ndtr(np.where(fold, m0, 0.0) / sc_safe) - ndtr(np.where(fold, y_hi, 0.0) / sc_safe),
                    0.0,
                )
                e_fd += flat_gain

        # states with no stochastic component at all: D == m0 exactly
        pure = ~any_stoch
        if np.any(pure):
            e_fd = np.where(pure & np.isfinite(m0), ndtr(np.where(pure, m0, 0.0) / sc_safe), e_fd)

        cov_c = np.where(sc_pos, common_var * e_fd, 0.0)
        cov_a = np.where(p_stoch, e_am - mu_p * e_max, 0.0)
    return cov_c + cov_a


class TestFitGamma:
    def test_single_spread_is_zero(self):
        snap = GaussianVectorSnapshot([0.01], [[1e-5]], time=1.0)
        assert fit_gamma(snap) == 0.0

    def test_independent_spreads_give_zero(self):
        snap = GaussianVectorSnapshot([0.01, 0.0], [[1e-5, 0.0], [0.0, 2e-5]], time=1.0)
        assert fit_gamma(snap) == 0.0

    def test_two_spreads_match_off_diagonal_exactly(self):
        cov = np.array([[1e-5, 0.4e-5], [0.4e-5, 2e-5]])
        snap = GaussianVectorSnapshot([0.01, 0.0], cov, time=1.0)
        gamma = fit_gamma(snap)
        assert gamma * 1e-5 == pytest.approx(0.4e-5, rel=1e-12)

    def test_clamped_at_parameterization_boundary(self):
        cov = np.array([[1e-5, 1e-5], [1e-5, 2e-5]])
        snap = GaussianVectorSnapshot([0.0, 0.0], cov, time=1.0)
        assert fit_gamma(snap) == pytest.approx(1.0, abs=1e-8)

    def test_negative_covariance_clamps_to_zero(self):
        cov = np.array([[1e-5, -0.5e-5], [-0.5e-5, 2e-5]])
        snap = GaussianVectorSnapshot([0.0, 0.0], cov, time=1.0)
        assert fit_gamma(snap) == 0.0

    def test_three_spreads_frobenius_fit(self):
        # equal off-diagonals are matched exactly when feasible
        cov = np.diag([1e-5, 2e-5, 3e-5])
        for i in range(3):
            for j in range(3):
                if i != j:
                    cov[i, j] = 0.3e-5
        snap = GaussianVectorSnapshot([0.0, 0.0, 0.0], cov, time=1.0)
        assert fit_gamma(snap) == 0.3

    def test_three_spreads_negative_covariances_give_zero(self):
        cov = np.array([[1e-5, -0.2e-5, -0.1e-5], [-0.2e-5, 2e-5, -0.3e-5], [-0.1e-5, -0.3e-5, 3e-5]])
        snap = GaussianVectorSnapshot([0.0, 0.0, 0.0], cov, time=1.0)
        assert fit_gamma(snap) == 0.0

    def test_non_psd_snapshot_rejected(self):
        with pytest.raises(ModelValidationError):
            GaussianVectorSnapshot([0.0, 0.0], [[1e-5, 5e-5], [5e-5, 1e-5]], time=1.0)

    def test_paper_parameters_reproduce_off_diagonal(self, flat_pair_model):
        t = 10.0
        cov = flat_pair_model.spread_covariance(t)
        snap = GaussianVectorSnapshot([0.014, 0.0133], cov, time=t)
        gamma = fit_gamma(snap)
        implied = gamma * min(cov[0, 0], cov[1, 1])
        assert implied == pytest.approx(cov[0, 1], rel=1e-12)


class TestMaxCdf:
    def test_floored_below_zero(self):
        st = _state([0.014], [0.005**2], 0.0)
        assert max_cdf(st, -0.01) == 0.0

    def test_single_spread_median(self):
        st = _state([0.014], [0.005**2], 0.0)
        assert max_cdf(st, 0.014) == pytest.approx(0.5, abs=1e-12)

    def test_zero_common_variance_is_product_of_cdfs(self):
        from scipy.special import ndtr

        st = _state([0.002, -0.001], [1e-5, 2e-5], 0.0)
        x = 0.004
        expected = float(
            ndtr((x - 0.002) / math.sqrt(1e-5)) * ndtr((x + 0.001) / math.sqrt(2e-5))
        )
        assert max_cdf(st, x) == pytest.approx(expected, rel=1e-12)

    def test_monotone_with_limits(self):
        st = _state([0.002, -0.001], [1e-5, 2e-5], 0.5)
        xs = np.linspace(-0.01, 0.05, 400)
        vals = max_cdf(st, xs)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] == 0.0
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)


class TestMaxMoments:
    def test_rectified_standard_normal(self):
        st = _state([0.0], [1.0], 0.0)
        mean, var = max_moments(st)
        assert mean == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-10)
        assert var == pytest.approx(0.5 - 1.0 / (2 * math.pi), rel=1e-10)

    def test_degenerate_components(self):
        st = _state([0.014, 0.0133], [1e-20, 1e-20], 0.0)
        mean, var = max_moments(st)
        assert mean == pytest.approx(0.014, abs=1e-12)
        assert var == pytest.approx(0.0, abs=1e-15)

    def test_deep_negative_mean_floors_at_zero(self):
        st = _state([-0.05], [1e-8], 0.0)
        mean, var = max_moments(st)
        assert mean == pytest.approx(0.0, abs=1e-10)
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_mean_dominates_componentwise_rectified_means(self):
        from scipy.special import ndtr

        st = _state([0.002, -0.001], [1e-5, 2e-5], 0.4)
        mean, _ = max_moments(st)
        for mu, var in zip([0.002, -0.001], [1e-5, 2e-5]):
            sd = math.sqrt(var)
            rectified = mu * ndtr(mu / sd) + sd * math.exp(-0.5 * (mu / sd) ** 2) / math.sqrt(2 * math.pi)
            assert mean >= rectified - 1e-12

    def test_against_frozen_sampling(self):
        # oracle: 1e7 direct draws of the construction (rng PCG64 seed 0):
        # mean 0.0037473450 +/- 1.09e-06, variance 1.1803004e-05
        st = _state([0.002, -0.001], [0.004**2, 0.006**2], 0.4)
        mean, var = max_moments(st)
        assert abs(mean - 0.0037473450) < 3 * 1.09e-06
        assert var == pytest.approx(1.1803004e-05, rel=2e-3)

    def test_variance_nonnegative_on_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = rng.integers(1, 4)
            means = rng.normal(0.0, 0.01, k)
            totals = rng.uniform(1e-10, 1e-4, k)
            gamma = rng.uniform(0.0, 0.999)
            mean, var = max_moments(_state(means, totals, gamma))
            assert var >= 0.0
            assert mean >= 0.0


class TestIntegralVarianceEstimator:
    def test_zero_curve(self):
        t = np.linspace(0.0, 10.0, 11)
        assert integral_variance_estimator(t, np.zeros(11), 0.0, 10.0) == 0.0

    def test_constant_curve_polynomial_value(self):
        t = np.linspace(0.0, 10.0, 41)
        v = 1e-4
        got = integral_variance_estimator(t, np.full(41, v), 0.0, 10.0)
        assert got == pytest.approx(v * 100.0, rel=1e-14)

    def test_linear_curve_polynomial_value(self):
        t = np.linspace(0.0, 1.0, 21)
        got = integral_variance_estimator(t, t.copy(), 0.0, 1.0)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("t0, T", [(1.0, 5.0), (2.5, 5.0), (2.0, 5.5), (2.0, 4.0)],
                             ids=["starts_late", "starts_early", "ends_short", "ends_long"])
    def test_grid_must_run_from_t0_to_T(self, t0, T):
        # the estimator integrates the grid it is handed, [2, 5] here
        t = np.linspace(2.0, 5.0, 7)
        with pytest.raises(ModelValidationError, match="must run from t0"):
            integral_variance_estimator(t, np.full(7, 1e-4), t0, T)
        with pytest.raises(ModelValidationError, match="must run from t0"):
            integral_variance_estimator(t, np.full((2, 7), 1e-4), t0, T)

    def test_one_node_grid_at_the_anchor(self):
        assert integral_variance_estimator([3.0], [1e-4], 3.0, 3.0) == 0.0
        assert integral_variance_estimator([3.0], [[1e-4], [2e-4]], 3.0, 3.0).tolist() == [0.0, 0.0]
        with pytest.raises(ModelValidationError, match="must run from t0"):
            integral_variance_estimator([2.0, 3.0], [1e-4, 1e-4], 3.0, 3.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-12])
    def test_rejects_nonfinite_or_negative_variance(self, bad):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ModelValidationError):
            integral_variance_estimator(t, [1e-4, bad, 1e-4, 1e-4, 1e-4], 0.0, 1.0)
        with pytest.raises(ModelValidationError):  # one bad curve in a batch
            integral_variance_estimator(t, [[1e-4] * 5, [1e-4, bad, 1e-4, 1e-4, 1e-4]], 0.0, 1.0)


class TestPassGrid:
    """
    A pass's kink-aware grid runs from its anchor to its maturity exactly,
    the precondition of the Psi estimator, at anchors on and between curve
    nodes and with curves that cross each other, and the zero spread, close
    to the maturity.
    """

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 4),
        node=st.floats(0.25, 11.75),
        T=st.floats(0.05, 12.0),
        on_node=st.booleans(),
        frac=st.floats(0.0, 1.0, exclude_max=True),
        levels=st.lists(st.floats(-0.02, 0.02), min_size=12, max_size=12),
        gaps=st.lists(st.floats(-1e-12, 1e-3), min_size=2, max_size=2),
        slopes=st.lists(st.floats(-0.01, 0.01).filter(bool), min_size=2, max_size=2),
        npy=st.integers(1, 48),
    )
    def test_grid_runs_from_anchor_to_maturity(self, n, node, T, on_node, frac, levels, gaps,
                                               slopes, npy):
        grid = np.array([0.0, node, 12.0])
        curves = [np.array(levels[3 * i:3 * i + 3]) for i in range(n)]
        if n >= 2:  # spread 2 crosses spread 1 at T - gaps[0]
            curves[1] = curves[0] + slopes[0] * (grid - (T - gaps[0]))
        if n >= 3:  # spread 3 crosses the zero spread at T - gaps[1]
            curves[2] = slopes[1] * (grid - (T - gaps[1]))
        spreads = [HullWhiteSpec(0.1, 1e-3, SpreadCurve(grid, c)) for c in curves]
        model = MarketModel(HullWhiteSpec(0.05, 0.0, SpreadCurve.constant(0.0, 0.0, 12.0)),
                            spreads, CorrelationMatrix(np.eye(n + 1)))
        t = (node if node < T else 0.0) if on_node else frac * T
        times = _model_time_grid(model, t, T, npy)
        assert times[0] == t and times[-1] == T
        assert np.all(np.diff(times) > 0.0)
        assert integral_variance_estimator(times, np.full(times.size, 1e-4), t, T) > 0.0


class TestDeterministicCtd:
    def test_all_nonpositive_curves(self):
        h = 12.0
        dom = HullWhiteSpec(0.01, 0.0, SpreadCurve.constant(0.0, 0.0, h))
        model = MarketModel(
            dom,
            [HullWhiteSpec(0.01, 0.001, SpreadCurve.constant(-0.004, 0.0, h))],
            CorrelationMatrix(np.eye(2)),
        )
        assert ctd_deterministic(model, 0.0, 10.0) == 1.0

    def test_flat_maximal_spread(self, flat_pair_model):
        assert ctd_deterministic(flat_pair_model, 0.0, 10.0) == pytest.approx(
            math.exp(-0.14), rel=1e-12
        )

    def test_crossing_curves_exact(self, crossing_model):
        got = ctd_deterministic(crossing_model, 0.0, 10.0)
        c1 = crossing_model.spread(1).mean_curve
        c2 = crossing_model.spread(2).mean_curve
        expected = math.exp(-(c1.integral(0.0, 3.6) + c2.integral(3.6, 10.0)))
        assert got == pytest.approx(expected, rel=1e-12)
        # fine Riemann cross-check
        t = np.linspace(0.0, 10.0, 400001)
        integrand = np.maximum(0.0, np.maximum(c1(t), c2(t)))
        assert got == pytest.approx(math.exp(-np.trapezoid(integrand, t)), rel=1e-9)

    def test_maturity_consistency(self, flat_pair_model):
        assert ctd_deterministic(flat_pair_model, 0.0, 0.0) == 1.0
        assert ctd_common_factor(flat_pair_model, 0.0, 0.0) == 1.0


class TestCommonFactorCtd:
    def test_zero_volatility_collapse(self, crossing_model):
        model = crossing_model
        for i in (1, 2):
            model = model.with_spread(i, model.spread(i).bumped_xi(0.0))
        cf = ctd_common_factor(model, 0.0, 10.0)
        det = ctd_deterministic(model, 0.0, 10.0)
        assert cf == pytest.approx(det, abs=1e-9)

    def test_strongly_negative_single_spread(self):
        h = 12.0
        dom = HullWhiteSpec(0.01, 0.0, SpreadCurve.constant(0.0, 0.0, h))
        model = MarketModel(
            dom,
            [HullWhiteSpec(0.05, 1e-5, SpreadCurve.constant(-0.05, 0.0, h))],
            CorrelationMatrix(np.eye(2)),
        )
        assert ctd_common_factor(model, 0.0, 10.0) == pytest.approx(1.0, abs=1e-9)

    def test_first_order_jensen_bound(self, flat_pair_model):
        # exp(-int E[max]) can never exceed the deterministic factor
        detail = ctd_common_factor_detailed(flat_pair_model, 0.0, 20.0)
        det = ctd_deterministic(flat_pair_model, 0.0, 20.0)
        assert math.exp(-detail.mean_integral) <= det + 1e-12
        assert detail.value <= det + 1e-8

    def test_monotone_in_level(self, flat_pair_model):
        base_det = ctd_deterministic(flat_pair_model, 0.0, 10.0)
        base_cf = ctd_common_factor(flat_pair_model, 0.0, 10.0)
        bumped = flat_pair_model.with_spread(1, flat_pair_model.spread(1).bumped_level(0.001))
        assert ctd_deterministic(bumped, 0.0, 10.0) <= base_det
        assert ctd_common_factor(bumped, 0.0, 10.0) <= base_cf + 1e-8

    def test_marginal_fidelity(self, flat_pair_model):
        t = 7.0
        cov = flat_pair_model.spread_covariance(t)
        snap = GaussianVectorSnapshot([0.014, 0.0133], cov, time=t)
        state = CommonFactorState.from_snapshot(snap)
        rebuilt = state.total_vars()
        assert np.allclose(rebuilt, np.diag(cov), atol=1e-12)

    def test_against_frozen_mc(self, flat_pair_model):
        # oracle: 4e5 paths, 80 steps/year (seed 7): 0.728393 +/- 0.000103
        cf = ctd_common_factor(flat_pair_model, 0.0, 20.0)
        assert abs(cf - 0.728393) < 3 * 0.000103


class TestShiftedMax:
    def test_zero_volatility_closed_form(self, crossing_model):
        model = crossing_model
        for i in (1, 2):
            model = model.with_spread(i, model.spread(i).bumped_xi(0.0))
        got = shifted_max_ctd(model, 2, 0.0, 10.0)
        c1 = crossing_model.spread(1).mean_curve
        c2 = crossing_model.spread(2).mean_curve
        max_part = c1.integral(0.0, 3.6) + c2.integral(3.6, 10.0)
        assert got == pytest.approx(math.exp(-(max_part + c2.integral(0.0, 10.0))), rel=1e-9)

    def test_single_positive_spread_doubles(self):
        h = 12.0
        dom = HullWhiteSpec(0.01, 0.0, SpreadCurve.constant(0.0, 0.0, h))
        model = MarketModel(
            dom,
            [HullWhiteSpec(0.05, 1e-6, SpreadCurve.constant(0.01, 0.0, h))],
            CorrelationMatrix(np.eye(2)),
        )
        assert shifted_max_ctd(model, 1, 0.0, 10.0) == pytest.approx(math.exp(-0.2), rel=1e-6)

    def test_against_frozen_mc(self, small_spread_model):
        # oracle: 4e5 paths, 40 steps/year (seed 5):
        #   pivot 1: 0.926698 +/- 1.05e-4 ; pivot 2: 0.936457 +/- 1.03e-4
        model = small_spread_model
        flat = MarketModel(
            HullWhiteSpec(0.01, 0.0, SpreadCurve.constant(0.0, 0.0, 12.0)),
            [HullWhiteSpec(0.0078, 0.0018, SpreadCurve.constant(0.003, 0.0, 12.0)),
             HullWhiteSpec(0.0076, 0.0023, SpreadCurve.constant(0.002, 0.0, 12.0))],
            CorrelationMatrix.from_single(0.3),
        )
        del model
        assert abs(shifted_max_ctd(flat, 1, 0.0, 10.0) - 0.926698) < 4 * 1.05e-4
        assert abs(shifted_max_ctd(flat, 2, 0.0, 10.0) - 0.936457) < 4 * 1.03e-4

    def test_pivot_range_checked(self, flat_pair_model):
        with pytest.raises(ModelValidationError):
            shifted_max_ctd(flat_pair_model, 3, 0.0, 10.0)


class TestConditional:
    def test_zero_displacement_matches_unconditional(self, flat_pair_model):
        cond = ctd_common_factor_conditional(flat_pair_model, 0.0, 10.0, np.zeros((1, 2)))
        assert cond[0] == pytest.approx(ctd_common_factor(flat_pair_model, 0.0, 10.0), rel=1e-12)

    def test_displacement_moves_price_the_right_way(self, flat_pair_model):
        up = ctd_common_factor_conditional(flat_pair_model, 5.0, 10.0, np.array([[0.002, 0.002]]))
        down = ctd_common_factor_conditional(flat_pair_model, 5.0, 10.0, np.array([[-0.002, -0.002]]))
        assert up[0] < down[0]

    def test_table_consistency(self, flat_pair_model):
        anchors = np.linspace(0.0, 10.0, 6)
        table = ConditionalCtdTable(flat_pair_model, anchors, (10.0,), nodes_per_year=24)
        rng = np.random.default_rng(0)
        t = anchors[3]
        sds = np.sqrt([flat_pair_model.spread(i).variance(t) for i in (1, 2)])
        pts = np.clip(rng.normal(0.0, 1.0, (100, 2)) * sds, -3.5 * sds, 3.5 * sds)
        direct = ctd_common_factor_conditional(flat_pair_model, t, 10.0, pts, 24)
        via = table.evaluate(3, pts)[0]
        assert np.max(np.abs(via / direct - 1.0)) < 3e-3

    def test_table_at_maturity_is_one(self, flat_pair_model):
        table = ConditionalCtdTable(flat_pair_model, [0.0, 10.0], (10.0,))
        assert np.all(table.evaluate(1, np.zeros((4, 2))) == 1.0)


def _kernel_states(rng, m, k, kind):
    """mu, idio_var, common_var for m states of one row kind."""
    mu = rng.normal(0.0, 0.01, (m, k))
    idio = rng.uniform(1e-8, 1e-4, (m, k))
    common = rng.uniform(1e-8, 1e-4, m)
    if kind == "pure":
        idio[:] = 0.0
    elif kind == "pure_zero_common":
        idio[:] = 0.0
        common[:] = 0.0
    elif kind == "partial":
        det = rng.random((m, k)) < 0.5
        det[:, 0] = True
        det[:, 1] = False
        idio[det] = 0.0
    elif kind == "zero_common":
        common[:] = 0.0
    return mu, idio, common


def _panel(mu, idio, common, panel=None, pivots=()):
    """The panel's moments at any k: `_moments` takes them from it only at k >= 3."""
    if mu.shape[1] > 2:
        return _moments(mu, idio, common, panel, pivots)
    return _panel_chunk(mu, idio, common, panel, pivots)


class TestPanelKernel:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_regular_rows_match_references_bitwise(self, k):
        rng = np.random.default_rng(k)
        mu, idio, common = _kernel_states(rng, 300, k, "regular")
        mean, var, cov = _panel(mu, idio, common, pivots=range(k))
        ref_mean, ref_var = _moments_fast(mu, idio, common, True, _PANEL_X, _PANEL_W)
        assert mean.tobytes() == ref_mean.tobytes()
        assert var.tobytes() == ref_var.tobytes()
        for p in range(k):
            ref_cov = _pivot_max_covariance(mu, idio, common, ref_mean, p)
            assert cov[p].tobytes() == ref_cov.tobytes()
        mean, var, _ = _panel(mu, idio, common, (_PANEL_X64, _PANEL_W64))
        ref_mean, ref_var = _moments_fast(mu, idio, common, True, _PANEL_X64, _PANEL_W64)
        assert mean.tobytes() == ref_mean.tobytes()
        assert var.tobytes() == ref_var.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["pure", "pure_zero_common"])
    def test_pure_rows_match_references_bitwise(self, k, kind):
        rng = np.random.default_rng(10 + k)
        mu, idio, common = _kernel_states(rng, 50, k, kind)
        # regular rows in the same batch: their own chunks at k >= 3, the
        # pure rows' chunk at k <= 2, where `_panel` calls the chunk directly
        reg = _kernel_states(rng, 50, k, "regular")
        batch = [np.concatenate(pair) for pair in zip((mu, idio, common), reg)]
        mean, var, cov = _panel(*batch, pivots=range(k))
        ref_mean, ref_var = _batched_moments_core(mu, idio, common, True)
        assert mean[:50].tobytes() == ref_mean.tobytes()
        assert var[:50].tobytes() == ref_var.tobytes()
        for p in range(k):
            ref_cov = _pivot_max_covariance(mu, idio, common, ref_mean, p)
            assert cov[p, :50].tobytes() == ref_cov.tobytes()

    @pytest.mark.parametrize(
        "k, kind",
        [(2, "partial"), (4, "partial"), (1, "zero_common"), (2, "zero_common"), (4, "zero_common")],
    )
    def test_degenerate_rows_match_references(self, k, kind):
        rng = np.random.default_rng(20 + k)
        mu, idio, common = _kernel_states(rng, 200, k, kind)
        mean, var, cov = _panel(mu, idio, common, pivots=range(k))
        ref_mean, ref_var = _batched_moments_core(mu, idio, common, True)
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-10, atol=1e-18)
        np.testing.assert_allclose(var, ref_var, rtol=1e-10, atol=1e-18)
        for p in range(k):
            ref_cov = _pivot_max_covariance(mu, idio, common, ref_mean, p)
            np.testing.assert_allclose(cov[p], ref_cov, rtol=1e-10, atol=1e-18)


class TestKernelChunks:
    """
    The moment driver's chunks: each kind of row split evenly and run on the
    calling thread, the bytes independent of the chunking.
    """

    @staticmethod
    def _mixed_rows(k):
        rng = np.random.default_rng(40 + k)
        kinds = ["regular", "zero_common", "pure"] + (["partial"] if k > 1 else [])  # partial: k >= 2
        parts = [_kernel_states(rng, 900 if kind == "regular" else 100, k, kind) for kind in kinds]
        order = rng.permutation(sum(p[0].shape[0] for p in parts))
        return [np.concatenate(arrays)[order] for arrays in zip(*parts)]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bytes_independent_of_chunk(self, monkeypatch, k):
        mu, idio, common = self._mixed_rows(k)
        for pivots in (range(k), ()):
            ref = None
            for chunk in (4096, 1024, 512, 7, 1):
                monkeypatch.setattr(ctd, "_MOMENT_CHUNK", chunk)
                # rows are independent, so the small chunks run on a prefix of the rows
                rows = slice(None) if chunk > 7 else slice(0, 150)
                out = _moments(mu[rows], idio[rows], common[rows], pivots=pivots)
                ref = out if ref is None else ref
                for got, want in zip(out, ref):
                    assert got.tobytes() == want[..., rows].tobytes(), (len(pivots), chunk)

    @staticmethod
    def _record_chunks(monkeypatch):
        calls = []
        ctd_chunk = ctd._panel_chunk

        def chunk(mu, idio_var, common_var, *args):
            regular = bool(np.all(idio_var > 0.0) and np.all(common_var > 0.0))
            calls.append((regular, mu.shape[0], threading.current_thread()))
            return ctd_chunk(mu, idio_var, common_var, *args)

        monkeypatch.setattr(ctd, "_panel_chunk", chunk)
        return calls

    def test_short_passes_run_inline(self, monkeypatch):
        # a pass of at most _MOMENT_CHUNK rows per kind is one chunk per kind
        calls = self._record_chunks(monkeypatch)
        mu, idio, common = self._mixed_rows(2)  # 900 regular rows, 300 others
        _moments(mu, idio, common, pivots=range(2))
        main = threading.main_thread()
        assert sorted(calls, key=lambda c: not c[0]) == [(True, 900, main), (False, 300, main)]

    @pytest.mark.parametrize("chunk", [256, 128])
    def test_long_pass_splits_evenly_on_caller(self, monkeypatch, chunk):
        monkeypatch.setattr(ctd, "_MOMENT_CHUNK", chunk)
        calls = self._record_chunks(monkeypatch)
        mu, idio, common = self._mixed_rows(2)
        _moments(mu, idio, common, pivots=range(2))
        for regular, rows in ((True, 900), (False, 300)):
            kind = [n for r, n, _ in calls if r == regular]
            assert sum(kind) == rows and len(kind) == -(-rows // chunk), (regular, kind)
            assert max(kind) <= chunk and max(kind) - min(kind) <= 1, (regular, kind)
        assert {c[2] for c in calls} == {threading.main_thread()}

    @staticmethod
    def _table(monkeypatch, threads):
        # three spreads: the moments of one or two come in closed form, off the panel
        monkeypatch.setenv("CTD_THREADS", threads)
        model = _random_model(3, False, seed=41)
        return model, ConditionalCtdTable(model, (0.0, 1.0, 2.5), (2.7, 5.0), nodes_per_dim=5)

    def test_table_independent_of_workers(self, monkeypatch):
        model, one = self._table(monkeypatch, "1")
        _, two = self._table(monkeypatch, "2")
        rng = np.random.default_rng(5)
        for a, t in enumerate(one.anchor_times):
            sds = np.sqrt([model.spread(i).variance(t) for i in (1, 2, 3)])
            u = rng.normal(0.0, 1.0, (50, 3)) * 3.0 * sds
            assert one.evaluate(a, u).tobytes() == two.evaluate(a, u).tobytes()

    def test_traced_entry_points_stay_on_main_thread(self, monkeypatch):
        # the benchmark's tracer wraps these with unsynchronised state, so a
        # table build must call them from the calling thread only, whatever
        # CTD_THREADS says
        seen = {}

        def record(name, fn):
            def wrapper(*args, **kwargs):
                seen.setdefault(name, set()).add(threading.current_thread())
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ctd, "integral_variance_estimator",
                            record("psi", ctd.integral_variance_estimator))
        monkeypatch.setattr(MarketModel, "spread_covariance",
                            record("cov", MarketModel.spread_covariance))
        monkeypatch.setattr(ctd, "max_curve_breakpoints", record("kinks", ctd.max_curve_breakpoints))
        monkeypatch.setattr(ctd, "_panel_chunk", record("chunk", ctd._panel_chunk))
        self._table(monkeypatch, "2")
        main = threading.main_thread()
        for name in ("psi", "cov", "kinks", "chunk"):
            assert seen[name] == {main}, name


def _quad_moments(mu, idio_var):
    """E[M], Var[M] without a common factor, by adaptive quadrature of the
    survival function of M; deterministic components are steps of its cdf."""
    from scipy.integrate import quad

    sd = np.sqrt(idio_var)

    def survival(x):  # P(some component above x), from the upper tails: nothing cancels
        out = 0.0
        for m, s in zip(mu, sd):
            tail = ndtr((m - x) / s) if s > 0.0 else float(x < m)
            out += tail - out * tail
        return out

    top = max(0.0, max(mu) + 12.0 * float(sd.max()))
    cuts = sorted({0.0, top, *(min(max(0.0, m), top) for m in mu)})
    kw = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    e1 = sum(quad(survival, lo, hi, **kw)[0] for lo, hi in zip(cuts[:-1], cuts[1:]))
    e2 = sum(quad(lambda x: 2.0 * x * survival(x), lo, hi, **kw)[0] for lo, hi in zip(cuts[:-1], cuts[1:]))
    return e1, e2 - e1 * e1


class TestClosedMoments:
    """
    Closed-form moments of M = max(0, C + max_i A_i) for one and two spreads.
    Bounds set before the code: 1e-12 relative against the panel where the
    panel resolves both components, SE units against direct draws at any sd
    ratio, and every degenerate row exact.
    """

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(1, 2),
        scale=st.floats(1e-4, 1e-2),
        ratios=st.lists(st.floats(1.0, 2.2), min_size=3, max_size=3),
        no_common=st.booleans(),
        z=st.lists(st.floats(-1.5, 3.0), min_size=2, max_size=2),
    )
    def test_matches_panel_where_it_resolves(self, k, scale, ratios, no_common, z):
        # the panel's own error passes 1e-12 at sd ratios above about 2.3
        # (5e-11 at 2.7) and, without a common factor, at means below -1.5 sd
        # (2e-12 at -2 sd, 5e-11 at -3 sd); the closed form stays within
        # 1e-13 of 40-digit values there
        sd = scale * np.asarray(ratios)
        idio = sd[:k] ** 2
        common = 0.0 if no_common or k == 1 else sd[2] ** 2
        mu = np.asarray(z[:k]) * np.sqrt(idio + common)
        args = (mu[None, :], idio[None, :], np.asarray([common]))
        got = _moments(*args)[:2]
        want = _panel(*args)[:2]
        for g, w in zip(got, want):
            assert abs(g[0] - w[0]) <= 1e-12 * abs(w[0])

    # rows (mu, idio_var, common_var) at sd ratios from 1 to 1e5, each
    # checked against 4e6 direct draws of its own seed
    DRAWN = {
        # quote_stream seed 1, quote 16 (gamma at its cap) at its node t = 5.0591
        "quote16": ((0.013549331620839742, 0.010356945301293307),
                    (5.942280020591642e-05, 1.1847458303575371e-14), 1.1847458160172394e-05),
        "narrow_idio": ((0.002, 0.0021), (1e-16, 1e-6), 0.0),
        "narrow_common": ((-0.001, 0.0005), (4e-6, 9e-6), 1e-16),
        "narrow_pair": ((0.001, 0.0012), (1e-15, 2e-15), 1e-5),
        "ratio3": ((0.001, -0.002), (1e-6, 9e-6), 4e-6),
        "one": ((-0.002,), (9e-6,), 0.0),
    }

    @pytest.mark.parametrize("name", sorted(DRAWN))
    def test_against_direct_draws(self, name):
        mu, idio, common = (np.asarray(v, dtype=float) for v in self.DRAWN[name])
        rng = np.random.default_rng([2021, sorted(self.DRAWN).index(name)])
        draws = []
        for _ in range(4):  # 4e6 draws of max(0, C + A_i), a million at a time
            c = rng.standard_normal(1_000_000) * math.sqrt(common)
            x = c[:, None] + mu + rng.standard_normal((1_000_000, mu.size)) * np.sqrt(idio)
            draws.append(np.maximum(x.max(axis=1), 0.0))
        m = np.concatenate(draws)
        mean, var = float(m.mean()), float(m.var())
        se_mean = math.sqrt(var / m.size)
        se_var = math.sqrt((float(np.mean((m - mean) ** 4)) - var * var) / m.size)
        got_mean, got_var = (float(v[0]) for v in _moments(mu[None, :], idio[None, :], [common])[:2])
        assert abs(got_mean - mean) <= 4.0 * se_mean, ((got_mean - mean) / se_mean)
        assert abs(got_var - var) <= 4.0 * se_var, ((got_var - var) / se_var)

    @pytest.mark.parametrize("mu2", [2.2250738585e-313, 2.46e-315, 5e-324])
    def test_subnormal_mean_takes_the_zero_limits(self, mu2):
        # standardized x_i and y below the smallest normal number are +0.0,
        # so the row is the mu_2 = 0 row, without an overflow in v / x
        v = np.full((1, 2), 7.8125e-3**2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            want = _moments(np.zeros((1, 2)), v, v[:, 0])
            got = _moments(np.array([[0.0, mu2]]), v, v[:, 0])
        for g, w in zip(got[:2], want[:2]):
            assert abs(g[0] - w[0]) <= 1e-14 * abs(w[0])

    @pytest.mark.parametrize("mu", [(0.01, 0.02), (0.0, 0.0), (-0.01, -0.02), (0.0, -0.003), (0.004, 0.004)])
    def test_zero_variances_exact(self, mu):
        for k in (1, 2):
            mean, var = _moments(np.asarray([mu[:k]]), np.zeros((1, k)), np.zeros(1))[:2]
            assert mean[0] == max(0.0, *mu[:k]) and var[0] == 0.0

    @pytest.mark.parametrize("mu", [(0.003, -0.001), (0.0, 0.0), (-0.002, -0.002), (-0.004, 0.001), (-0.006, -0.007)])
    def test_tied_components_are_a_rectified_normal(self, mu):
        # a_1 + a_2 = 0: X_1 - X_2 is the constant mu_1 - mu_2
        sc = 0.002
        m = max(mu)
        z = m / sc
        mean = m * ndtr(z) + sc * _phi(z)
        second = (m * m + sc * sc) * ndtr(z) + m * sc * _phi(z)
        got = _moments(np.asarray([mu]), np.zeros((1, 2)), np.asarray([sc * sc]))[:2]
        assert got[0][0] == pytest.approx(mean, rel=1e-14, abs=0.0)
        assert got[1][0] == pytest.approx(second - mean * mean, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("fixed", [-0.001, 0.0, 0.002])
    @pytest.mark.parametrize("other", [-0.003, 0.0, 0.002, 0.004])
    def test_one_deterministic_component_without_common(self, fixed, other):
        # X_2 = fixed, no common factor: M = max(b, X_1) with b = max(0, fixed)
        s = 0.0025
        b = max(0.0, fixed)
        lo, hi = ndtr((b - other) / s), ndtr((other - b) / s)
        f = s * _phi((b - other) / s)
        mean = b * lo + other * hi + f
        second = b * b * lo + (other * other + s * s) * hi + (other + b) * f
        for order in ((0, 1), (1, 0)):
            mu = np.asarray([[other, fixed]])[:, order]
            idio = np.asarray([[s * s, 0.0]])[:, order]
            got = _moments(mu, idio, np.zeros(1))[:2]
            assert got[0][0] == pytest.approx(mean, rel=1e-14, abs=0.0)
            assert got[1][0] == pytest.approx(second - mean * mean, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "mu, idio",
        [
            ((0.001, -0.002), (4e-6, 9e-6)),
            ((0.0, 0.0015), (4e-6, 9e-6)),  # mu_1 = 0: h = 0
            ((0.0015, 0.0015), (4e-6, 9e-6)),  # mu_1 = mu_2: k = 0
            ((0.0, 0.0), (4e-6, 9e-6)),  # h = k = 0
            ((-0.004, -0.005), (4e-6, 9e-6)),
            ((-0.008, -0.025), (4e-6, 9e-6)),  # x = -4, y = +4.7: the orthant's mixed-sign half
        ],
    )
    def test_no_common_factor_matches_quadrature(self, mu, idio):
        # gamma clamped to zero under negative correlations: independent X_i
        got = _moments(np.asarray([mu]), np.asarray([idio]), np.zeros(1))[:2]
        want = _quad_moments(np.asarray(mu), np.asarray(idio))
        assert got[0][0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
        assert got[1][0] == pytest.approx(want[1], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "mu, idio",
        [
            ((0.0015, 0.0015), (4e-6, 9e-6)),  # k = 0
            ((0.0, 0.0), (4e-6, 9e-6)),  # h = k = 0
            ((0.0, -0.001), (4e-6, 9e-6)),  # h = 0
            ((0.001, 0.002), (4e-6, 0.0)),  # one deterministic component under C
            ((0.0, 0.0), (0.0, 4e-6)),
        ],
    )
    def test_crossing_rows_match_panel(self, mu, idio):
        # a crossing on a grid node puts mu_1 = mu_2 (or mu_i = 0) exactly
        args = (np.asarray([mu]), np.asarray([idio]), np.asarray([3e-6]))
        got = _moments(*args)[:2]
        want = _panel(*args)[:2]
        for g, w in zip(got, want):
            assert np.isfinite(g[0]) and g[0] == pytest.approx(w[0], rel=1e-12, abs=0.0)

    def test_row_alone_equals_row_in_batch_bitwise(self):
        rng = np.random.default_rng(17)
        for k in (1, 2):
            parts = [_kernel_states(rng, 700, k, kind) for kind in ("regular", "zero_common", "pure")]
            if k == 2:
                parts.append(_kernel_states(rng, 300, k, "partial"))
                tied = _kernel_states(rng, 100, k, "regular")
                tied[0][:, 1] = tied[0][:, 0]  # mu_1 = mu_2
                tied[0][:50, 0] = 0.0
                parts.append(tied)
            mu, idio, common = (np.concatenate(a) for a in zip(*parts))
            whole = _moments(mu, idio, common)[:2]
            order = rng.permutation(mu.shape[0])
            shuffled = _moments(mu[order], idio[order], common[order])[:2]
            for got, want in zip(shuffled, whole):
                assert got.tobytes() == want[order].tobytes()
            for r in rng.choice(mu.shape[0], 40, replace=False):
                alone = _moments(mu[r:r + 1], idio[r:r + 1], common[r:r + 1])[:2]
                for got, want in zip(alone, whole):
                    assert got.tobytes() == want[r:r + 1].tobytes(), (k, r)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pipeline_state_value_independent_of_batch(self, n):
        # a conditional value depends only on its state: alone, in a batch
        # and shuffled give the same bytes, Psi included
        model = _random_model(n, n == 2, seed=60 + n)
        u = np.random.default_rng(n).normal(0.0, 2e-3, (25, n))
        order = np.random.default_rng(99).permutation(25)
        maturities = (2.7, 5.0)
        batch = _cf_pipeline(model, 1.5, maturities, 24, u)
        shuffled = _cf_pipeline(model, 1.5, maturities, 24, u[order])
        for b, s in zip(batch, shuffled):
            assert s.value.tobytes() == b.value[order].tobytes()
            assert s.psi.tobytes() == b.psi[order].tobytes()
        for r in (0, 7, 24):
            alone = _cf_pipeline(model, 1.5, maturities, 24, u[r:r + 1])
            for b, a in zip(batch, alone):
                assert a.value.tobytes() == b.value[r:r + 1].tobytes()
                assert a.psi.tobytes() == b.psi[r:r + 1].tobytes()

    def test_two_spreads_price_off_the_panel(self, monkeypatch):
        # the plain factor never reaches the panel at N <= 2; pivot passes
        # take only the pivot covariances from it
        model = _random_model(2, False, seed=8)
        plain = ctd_common_factor(model, 0.0, 6.0)
        seen = []
        panel_chunk = ctd._panel_chunk
        monkeypatch.setattr(ctd, "_panel_chunk", lambda *a: seen.append(a) or panel_chunk(*a))
        assert ctd_common_factor(model, 0.0, 6.0) == plain and not seen
        value = _cf_pipeline(model, 0.0, (6.0,), 48, pivots=(1, 2))[0].value
        assert value == plain and seen


class TestPipeline:
    @pytest.mark.parametrize("n, negative", [(2, False), (3, False), (4, True)])
    def test_shared_pass_matches_single_pivot_calls_bitwise(self, n, negative):
        model = _random_model(n, negative, seed=n)
        result = _cf_pipeline(model, 0.0, (6.0,), 48, pivots=range(1, n + 1))[0]
        assert result.value == ctd_common_factor(model, 0.0, 6.0)
        for p in range(1, n + 1):
            assert result.shifted[p - 1] == shifted_max_ctd(model, p, 0.0, 6.0)

    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("negative", [False, True])
    def test_zero_displacement_at_anchor_matches_unconditional(self, n, negative):
        model = _random_model(n, negative, seed=100 + n)
        cond = ctd_common_factor_conditional(model, 0.0, 5.0, np.zeros((1, n)), 48)
        uncond = ctd_common_factor(model, 0.0, 5.0, 48)
        assert abs(cond[0] - uncond) <= 1e-12 * abs(uncond)


class TestMultiMaturity:
    """One conditional pass per anchor for every maturity, against one pass per maturity."""

    MATURITIES = (1.0, 2.7, 3.3, 5.0, 7.0)

    def test_table_matches_single_maturity_tables_bitwise(self):
        model = load_config("experiment2").build_model()
        anchors = np.linspace(0.0, 7.0, 29)  # quarter years, t0 and every maturity included
        rng = np.random.default_rng(7)
        # the swap layout's many maturities, and the hedge layout: 9 nodes, one maturity
        for nodes, maturities in ((5, self.MATURITIES), (9, (7.0,))):
            table = ConditionalCtdTable(model, anchors, maturities, nodes_per_dim=nodes)
            assert table.maturity == 7.0
            refs = [SingleMaturityCtdTable(model, anchors, T, nodes_per_dim=nodes) for T in maturities]
            for a, t in enumerate(anchors):
                sds = np.sqrt([model.spread(i).variance(t) for i in (1, 2)])
                u = rng.normal(0.0, 1.0, (40, 2)) * 6.0 * sds  # some states beyond the clamp
                got = table.evaluate(a, u)
                assert got.shape == (len(maturities), 40)
                for k, ref in enumerate(refs):
                    assert got[k].tobytes() == ref.evaluate(a, u).tobytes(), (nodes, t, maturities[k])
                    if t >= maturities[k]:
                        assert np.all(got[k] == 1.0)
            # t0 has no dispersion, so one value serves every state
            at_t0 = table.evaluate(0, rng.normal(0.0, 1e-3, (5, 2)))
            assert np.all(at_t0 == table.evaluate(0, np.zeros((1, 2))))

    @pytest.mark.parametrize("nodes", [2, 3])
    def test_tables_are_cubic_only(self, nodes):
        model = load_config("experiment1").build_model()
        with pytest.raises(ModelValidationError, match=f"nodes_per_dim >= 4, got {nodes}"):
            ConditionalCtdTable(model, (0.0, 2.5), (4.0,), nodes_per_dim=nodes)

    def test_maturity_grids_are_not_prefixes(self):
        # the case the union grid exists for: a maturity's grid that is not
        # a bitwise prefix of the last maturity's grid
        model = load_config("experiment2").build_model()
        found = 0
        for t in np.linspace(0.0, 3.25, 14):
            last = _model_time_grid(model, t, 7.0, 24)
            for T in (T for T in (2.7, 3.3) if T > t):
                grid = _model_time_grid(model, t, T, 24)
                found += not np.array_equal(grid, last[: grid.size])
        assert found > 0

    @pytest.mark.parametrize("t", [0.0, 1.0, 2.5])
    def test_pipeline_matches_one_maturity_calls_bitwise(self, t):
        model = _random_model(3, False, seed=31)
        maturities = (1.0, 2.7, 3.3, 6.0)
        ahead = [T for T in maturities if T >= t]
        multi = _cf_pipeline(model, t, ahead, 48, pivots=(1, 3))
        assert len(multi) == len(ahead)
        for T, result in zip(ahead, multi):
            assert result.value == ctd_common_factor(model, t, T)
            one = _cf_pipeline(model, t, (T,), 48, pivots=(1, 3))[0]
            assert result.psi == one.psi
            for a, b in ((result.moments.times, one.moments.times),
                         (result.moments.mean, one.moments.mean),
                         (result.moments.variance, one.moments.variance), (result.gamma, one.gamma)):
                assert a.tobytes() == b.tobytes()
            assert result.gamma_clamped == one.gamma_clamped
            assert result.shifted == one.shifted == tuple(shifted_max_ctd(model, p, t, T) for p in (1, 3))
        if t == 1.0:  # T_0 == t
            assert multi[0].value == 1.0 and multi[0].shifted == (1.0, 1.0)

    def test_pipeline_with_displacements_matches_conditional_bitwise(self):
        model = _random_model(2, True, seed=32)
        u = np.random.default_rng(3).normal(0.0, 2e-3, (30, 2))
        multi = _cf_pipeline(model, 1.5, (1.5, 2.7, 3.3, 5.0), 24, u, panel=(_PANEL_X64, _PANEL_W64))
        assert np.all(multi[0].value == 1.0)
        for T, result in zip((2.7, 3.3, 5.0), multi[1:]):
            want = ctd_common_factor_conditional(model, 1.5, T, u, 24)
            assert result.value.tobytes() == want.tobytes()

    @pytest.mark.parametrize("maturities", [(), (3.0, 2.0), (2.0, 2.0), [[2.0, 3.0]], 5.0])
    def test_bad_maturities_rejected(self, flat_pair_model, maturities):
        with pytest.raises(ModelValidationError):
            _cf_pipeline(flat_pair_model, 0.0, maturities, 24)
        with pytest.raises(ModelValidationError):
            ConditionalCtdTable(flat_pair_model, [0.0], maturities)

    def test_maturity_before_anchor_rejected(self, flat_pair_model):
        with pytest.raises(ModelValidationError):
            _cf_pipeline(flat_pair_model, 2.0, (1.0, 3.0), 24)


class TestCellSpline:
    """
    The tables' exact per-cell tensor spline: it reproduces the priced log
    factors at its nodes, equals scipy's `NdBSpline` on the same not-a-knot
    coefficients, and leaves no reference cycle behind.
    """

    CASES = [  # (model, nodes per dimension, anchor, maturities)
        (lambda: _random_model(1, False, seed=41), 9, 1.5, (4.0,)),
        (lambda: load_config("experiment2").build_model(), 9, 2.5, (7.0,)),
        (lambda: load_config("experiment2").build_model(), 5, 2.5, (2.7, 3.3, 5.0, 6.0, 7.0)),
        (lambda: _random_model(3, False, seed=43), 4, 1.0, (2.0,)),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_table_reproduces_its_nodes(self, case):
        build, nodes, t, maturities = self.CASES[case]
        model = build()
        n = model.n_spreads
        table = ConditionalCtdTable(model, (0.0, t), maturities, nodes_per_dim=nodes)
        sds = [math.sqrt(model.spread(i).variance(t)) for i in range(1, n + 1)]
        axes = [np.linspace(-4.5 * sd, 4.5 * sd, nodes) for sd in sds]
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        priced = _cf_pipeline(model, t, maturities, 24, pts, panel=(_PANEL_X64, _PANEL_W64))
        got = np.log(table.evaluate(1, pts))
        for row, result in zip(got, priced):
            assert np.max(np.abs(row - np.log(result.value))) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("columns", [1, 5])
    def test_matches_ndbspline(self, n, columns):
        rng = np.random.default_rng([n, columns])
        nodes = 7
        axes = [np.linspace(-h, h, nodes) for h in rng.uniform(1e-3, 1e-2, n)]
        values = -0.05 + 5e-3 * rng.standard_normal([nodes] * n + [columns])
        coefs, knots = values, []
        for d, x in enumerate(axes):
            spl = make_interp_spline(x, coefs, k=3, axis=d)
            coefs = np.moveaxis(spl.c, 0, d)
            knots.append(spl.t)
        want_spline = NdBSpline(tuple(knots), coefs, 3)
        edge = np.array([x[-1] for x in axes])
        # inside, on the nodes, on the edges and beyond them
        u = np.concatenate([
            rng.uniform(-1.0, 1.0, (300, n)) * edge,
            np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1),
            rng.choice([-1.0, 1.0], (40, n)) * edge,
            rng.uniform(-3.0, 3.0, (300, n)) * edge,
        ])
        got = _cell_spline_values(axes, _cell_spline(axes, values), u)
        want = want_spline(np.clip(u, -edge, edge)).T
        assert got.shape == (columns, u.shape[0])
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_no_reference_cycles(self):
        model = load_config("experiment1").build_model()
        u = np.random.default_rng(5).normal(0.0, 5e-3, (1000, 2))
        gc.collect()
        gc.disable()
        try:
            table = ConditionalCtdTable(model, (2.5,), (10.0,))
            table.evaluate(0, u)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("half_width_sds", [0.0, -1.0, math.nan, math.inf])
    def test_bad_half_width_rejected_before_pricing(self, monkeypatch, half_width_sds):
        monkeypatch.setattr(ctd, "_cf_pipeline", _no_pricing)
        model = load_config("experiment1").build_model()
        with pytest.raises(ModelValidationError, match="half_width_sds"):
            ConditionalCtdTable(model, (2.5,), (10.0,), half_width_sds=half_width_sds)

    @pytest.mark.parametrize("nodes", [4.5, 9.0, "9", True])
    def test_fractional_nodes_rejected_before_pricing(self, monkeypatch, nodes):
        monkeypatch.setattr(ctd, "_cf_pipeline", _no_pricing)
        model = load_config("experiment1").build_model()
        with pytest.raises(ModelValidationError, match="nodes_per_dim must be an integer"):
            ConditionalCtdTable(model, (2.5,), (10.0,), nodes_per_dim=nodes)


def _no_pricing(*args, **kwargs):
    raise AssertionError("the table priced before it checked its parameters")


class TestTableAccuracy:
    """
    Interpolation error of the conditional table against the direct
    conditional factor, both on closed-form two-spread moments, at 400
    states drawn at the state's sd and clipped to the grid's +-4.5 sd.
    Bounds for the hedging layout (9 nodes per dimension) and the swap
    layout (7 nodes).
    """

    @pytest.mark.parametrize("name", ["experiment1", "experiment2"])
    @pytest.mark.parametrize("nodes, bound", [(9, 1e-3), (7, 2e-3)])
    def test_table_within_bound(self, name, nodes, bound):
        cfg = load_config(name)
        model = cfg.build_model()
        anchors = (2.5, 5.0, 8.0)
        table = ConditionalCtdTable(model, anchors, (cfg.maturity,), nodes_per_dim=nodes)
        rng = np.random.default_rng(2024)
        for a, t in enumerate(anchors):
            sds = np.sqrt([model.spread(i).variance(t) for i in range(1, model.n_spreads + 1)])
            u = np.clip(rng.normal(0.0, 1.0, (400, sds.size)), -4.5, 4.5) * sds
            direct = ctd_common_factor_conditional(model, t, cfg.maturity, u, 24)
            err = np.max(np.abs(table.evaluate(a, u)[0] / direct - 1.0))
            assert err < bound, (t, err)
