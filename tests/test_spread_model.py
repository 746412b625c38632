import math

import numpy as np
import pytest

from ctdhedge import (
    CorrelationMatrix,
    HullWhiteSpec,
    MarketModel,
    SpreadCurve,
    bond_moment,
    integral_covariance,
    joint_bond_moment,
    mean_under_piecewise_theta,
    spread_cross_covariance,
    spread_mean,
    theta_continuous,
    theta_piecewise,
)
from ctdhedge import montecarlo
from ctdhedge.ctd import _model_time_grid
from ctdhedge.hedging import assemble_quadratic
from ctdhedge.spread_model import ModelValidationError
from scalar_covariance import (
    scalar_cross_covariance,
    scalar_spread_covariance,
    scalar_step_covariance,
)

H = 12.0
FLAT = SpreadCurve.constant(0.014, 0.0, H)
S1 = HullWhiteSpec(0.0078, 0.0018, FLAT)
S2 = HullWhiteSpec(0.0076, 0.0023, SpreadCurve.constant(0.0133, 0.0, H))


class TestValidation:
    def test_kappa_and_xi_bounds(self):
        with pytest.raises(ModelValidationError):
            HullWhiteSpec(0.0, 0.001, FLAT)
        with pytest.raises(ModelValidationError):
            HullWhiteSpec(0.1, -0.001, FLAT)

    def test_initial_value_is_the_curve_start(self):
        spec = HullWhiteSpec(0.1, 0.001, SpreadCurve([0.5, 10.0], [0.014, 0.02]))
        assert spec.initial_value == 0.014
        assert spec.bumped_level(0.001).initial_value == spec.mean_curve.shifted(0.001)(0.5)
        with pytest.raises(TypeError):
            HullWhiteSpec(0.1, 0.001, FLAT, initial_value=0.014)
        with pytest.raises(AttributeError):
            spec.initial_value = 0.015

    def test_correlation_matrix_checks(self):
        CorrelationMatrix(np.eye(3))
        with pytest.raises(ModelValidationError):
            CorrelationMatrix([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ModelValidationError):
            CorrelationMatrix([[1.0, 1.2], [1.2, 1.0]])
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(ModelValidationError):
            CorrelationMatrix(bad)

    def test_market_model_needs_matching_sizes(self):
        dom = HullWhiteSpec(0.01, 0.0, SpreadCurve.constant(0.0, 0.0, H))
        with pytest.raises(ModelValidationError):
            MarketModel(dom, [S1, S2], CorrelationMatrix(np.eye(2)))


class TestTheta:
    def test_constant_curve_theta_is_the_constant(self):
        assert theta_continuous(S1, 5.0) == pytest.approx(0.014, abs=1e-18)
        theta = theta_piecewise(S1, np.linspace(0.0, 10.0, 11))
        assert np.allclose(theta, 0.014, atol=1e-15)

    def test_linear_curve_theta(self):
        a, b, kappa = 0.01, 0.002, 0.5
        spec = HullWhiteSpec(kappa, 0.001, SpreadCurve([0.0, 10.0], [a, a + b * 10]))
        assert theta_continuous(spec, 3.0) == pytest.approx(a + 3 * b + b / kappa, rel=1e-12)

    def test_kink_uses_left_slope(self):
        kappa = 0.4
        curve = SpreadCurve([0.0, 3.6, 10.0], [0.01, 0.01 + 3.6 * 0.002, 0.01 + 3.6 * 0.002 - 6.4 * 0.001])
        spec = HullWhiteSpec(kappa, 0.001, curve)
        assert theta_continuous(spec, 3.6) == pytest.approx(curve(3.6) + 0.002 / kappa, rel=1e-12)
        # fine mean recursion still reproduces the curve through the kink
        grid = np.linspace(0.0, 10.0, 40001)
        mids = 0.5 * (grid[:-1] + grid[1:])
        theta = np.array([theta_continuous(spec, float(t)) for t in mids])
        mean = mean_under_piecewise_theta(spec, grid, theta)
        assert np.max(np.abs(mean - curve(grid))) < 1e-7

    def test_piecewise_hits_nodes_exactly(self):
        spec = HullWhiteSpec(0.0078, 0.0018, SpreadCurve([0.0, 1.0, 2.5], [0.014, 0.015, 0.0145]))
        grid = np.array([0.0, 1.0, 2.5])
        theta = theta_piecewise(spec, grid)
        mean = mean_under_piecewise_theta(spec, grid, theta)
        assert abs(mean[1] - 0.015) < 1e-12
        assert abs(mean[2] - 0.0145) < 1e-12

    def test_dense_grid_exactness(self):
        grid = np.linspace(0.0, 10.0, 121)
        curve = SpreadCurve([0.0, 3.6, 10.0], [0.002, 0.0042, 0.001])
        spec = HullWhiteSpec(0.0078, 0.0018, curve)
        theta = theta_piecewise(spec, grid)
        mean = mean_under_piecewise_theta(spec, grid, theta)
        assert np.max(np.abs(mean - curve(grid))) < 1e-12

    def test_degenerate_interval_switches_to_slope_form(self):
        # kappa * dt below resolution: the closed form would divide by ~0
        spec = HullWhiteSpec(1e-13, 0.001, SpreadCurve([0.0, 1.0], [0.01, 0.02]))
        theta = theta_piecewise(spec, [0.0, 1.0])
        assert np.isfinite(theta).all()
        assert theta[0] == pytest.approx(0.02 + 0.01 / 1e-13, rel=1e-6)

    def test_refining_grid_converges_to_continuous_theta(self):
        spec = HullWhiteSpec(0.3, 0.002, SpreadCurve([0.0, 10.0], [0.01, 0.03]))
        errs = []
        for n in (20, 40):
            grid = np.linspace(0.0, 10.0, n + 1)
            theta = theta_piecewise(spec, grid)
            mids = 0.5 * (grid[:-1] + grid[1:])
            cont = np.array([theta_continuous(spec, float(t)) for t in mids])
            errs.append(np.max(np.abs(theta - cont)))
        assert errs[1] < 0.75 * errs[0]

    def test_spread_mean_is_the_curve(self):
        assert spread_mean(S1, 0.0) == S1.initial_value
        assert spread_mean(S1, 7.0) == 0.014
        lin = HullWhiteSpec(0.1, 0.001, SpreadCurve([0.0, 10.0], [0.01, 0.03]))
        assert spread_mean(lin, 3.6) == pytest.approx(0.01 + 3.6 * 0.002, rel=1e-14)


class TestCovariances:
    def test_no_noise_at_start(self):
        assert spread_cross_covariance(S1, S2, 0.5, 0.0, 0.0) == 0.0

    def test_marginal_variance_reduction(self):
        t = 10.0
        expected = 0.0018**2 * (1 - math.exp(-2 * 0.0078 * t)) / (2 * 0.0078)
        assert spread_cross_covariance(S1, S1, 1.0, t, t) == pytest.approx(expected, rel=1e-14)

    def test_cross_covariance_against_frozen_mc(self):
        # oracle: 1e6 exact-step paths to t = 10 (seed 777); frozen estimate
        mc, se = 1.9208228480e-05, 4.290e-08
        closed = spread_cross_covariance(S1, S2, 0.5, 10.0, 10.0)
        assert abs(closed - mc) < 3 * se

    def test_symmetry(self):
        a = spread_cross_covariance(S1, S2, 0.5, 3.0, 7.0)
        b = spread_cross_covariance(S2, S1, 0.5, 7.0, 3.0)
        assert a == pytest.approx(b, rel=1e-14)

    def test_integral_covariance_zero_correlation(self):
        assert integral_covariance(S1, S2, 0.0, 0.0, 10.0) == 0.0

    def test_integral_variance_matches_quadrature(self):
        # the closed form equals the double time integral of the kernel
        n = 801
        t = np.linspace(0.0, 10.0, n)
        kern = spread_cross_covariance(S1, S1, 1.0, t[:, None], t[None, :])
        quad = float(np.trapezoid(np.trapezoid(kern, t, axis=1), t))
        closed = integral_covariance(S1, S1, 1.0, 0.0, 10.0)
        assert closed == pytest.approx(quad, rel=1e-4)  # trapezoid has a diagonal ridge

    def test_integral_covariance_against_frozen_mc(self):
        # oracle: 1e6 paths, 40 steps/year trapezoid integrals (seed 778)
        mc, se = 6.5361432606e-04, 1.459e-06
        closed = integral_covariance(S1, S2, 0.5, 0.0, 10.0)
        assert abs(closed - mc) < 3 * se

    def test_brownian_limit(self):
        # kappa -> 0 turns the integrated spread variance into xi^2 tau^3 / 3
        spec = HullWhiteSpec(1e-6, 0.002, FLAT)
        got = integral_covariance(spec, spec, 1.0, 0.0, 10.0)
        assert got == pytest.approx(0.002**2 * 1000.0 / 3.0, rel=1e-4)

    def test_translation_invariance(self):
        s1 = HullWhiteSpec(0.0078, 0.0018, FLAT.translated(3.0))
        s2 = HullWhiteSpec(0.0076, 0.0023, S2.mean_curve.translated(3.0))
        assert integral_covariance(s1, s2, 0.5, 3.0, 13.0) == pytest.approx(
            integral_covariance(S1, S2, 0.5, 0.0, 10.0), rel=1e-14
        )


class TestBondMoments:
    def test_deterministic_flat(self):
        spec = HullWhiteSpec(0.0078, 0.0, FLAT)
        assert bond_moment(spec, 0.0, 10.0, 1) == pytest.approx(math.exp(-0.14), rel=1e-14)

    def test_zero_curve_gives_one(self):
        spec = HullWhiteSpec(0.01, 0.0, SpreadCurve.constant(0.0, 0.0, H))
        assert bond_moment(spec, 0.0, 10.0, 1) == 1.0
        assert bond_moment(spec, 0.0, 10.0, 2) == 1.0

    def test_squared_moment_against_frozen_mc(self):
        # oracle: 1e6 paths, 40 steps/year (seed 778)
        dom = HullWhiteSpec(0.03, 0.006, SpreadCurve.constant(0.02, 0.0, H))
        mc, se = 0.68323594, 1.356e-04
        assert abs(bond_moment(dom, 0.0, 10.0, 2) - mc) < 3 * se

    def test_multiplier_restricted(self):
        with pytest.raises(ModelValidationError):
            bond_moment(S1, 0.0, 10.0, 3)

    def test_level_monotonicity_and_volatility_convexity(self):
        base = bond_moment(S1, 0.0, 10.0, 1)
        shifted = bond_moment(S1.bumped_level(0.001), 0.0, 10.0, 1)
        assert shifted < base
        vol_up = bond_moment(S1.bumped_xi(0.004), 0.0, 10.0, 1)
        assert vol_up > base


class TestJointBondMoment:
    def test_reduces_to_squared_moment(self):
        joint = joint_bond_moment(S1, S1, 1.0, 0.0, 10.0)
        assert joint == pytest.approx(bond_moment(S1, 0.0, 10.0, 2), rel=1e-12)

    def test_zero_volatility_factorizes(self):
        a = HullWhiteSpec(0.0078, 0.0, FLAT)
        b = HullWhiteSpec(0.0076, 0.0, S2.mean_curve)
        got = joint_bond_moment(a, b, 0.9, 0.0, 10.0)
        assert got == pytest.approx(math.exp(-(0.14 + 0.133)), rel=1e-14)

    def test_against_frozen_mc(self):
        mc, se = 0.76272711, 4.826e-05
        assert abs(joint_bond_moment(S1, S2, 0.5, 0.0, 10.0) - mc) < 3 * se


def _generated_model(n, negative, seed):
    """n spreads and a stochastic domestic rate; the spread correlations are
    all nonnegative or all negative, the domestic ones of either sign."""
    rng = np.random.default_rng(seed)
    dom = HullWhiteSpec(float(rng.uniform(0.01, 0.3)), float(rng.uniform(1e-3, 1e-2)),
                        SpreadCurve.constant(0.02, 0.0, H))
    spreads = [
        HullWhiteSpec(
            float(rng.uniform(0.005, 0.5)),
            float(rng.uniform(5e-4, 1e-2)),
            SpreadCurve([0.0, float(rng.uniform(1.0, 11.0)), H], rng.uniform(-0.02, 0.02, 3)),
        )
        for _ in range(n)
    ]
    a = rng.uniform(0.2, 1.0, n)
    corr = np.eye(n + 1)
    corr[1:, 1:] = (-0.9 / max(n - 1, 1) if negative else 0.8) * np.outer(a, a)
    corr[0, 1:] = corr[1:, 0] = rng.uniform(-0.05, 0.05, n)
    np.fill_diagonal(corr, 1.0)
    return MarketModel(dom, spreads, CorrelationMatrix(corr))


_GENERATED = [(n, negative) for n in range(1, 9) for negative in (False, True)]


class TestCovarianceKernel:
    """The one OU covariance kernel against the scalar writings it replaced."""

    @pytest.mark.parametrize("n,negative", _GENERATED)
    @pytest.mark.parametrize("anchor", [0.0, 2.75])
    def test_spread_covariance_stack_matches_scalar_loop_bitwise(self, n, negative, anchor):
        model = _generated_model(n, negative, 100 * n + negative)
        times = _model_time_grid(model, anchor, 9.5, 48)
        stack = model.spread_covariance(times, start=anchor)
        ref = np.stack([scalar_spread_covariance(model, float(t), start=anchor) for t in times])
        assert stack.shape == (times.size, n, n)
        assert stack.tobytes() == ref.tobytes()
        point = model.spread_covariance(float(times[7]), start=anchor)
        assert point.shape == (n, n)
        assert point.tobytes() == ref[7].tobytes()
        if anchor == 0.0:
            assert model.spread_covariance(times).tobytes() == ref.tobytes()

    def test_spread_covariance_rejects_times_before_the_start(self):
        model = _generated_model(3, False, 7)
        with pytest.raises(ModelValidationError):
            model.spread_covariance(np.array([2.0, 1.0]), start=1.5)

    @pytest.mark.parametrize("n,negative", _GENERATED)
    def test_cross_covariance_matches_scalar(self, n, negative):
        model = _generated_model(n, negative, 200 + 10 * n + negative)
        grid = [0.0, 0.4, 2.75, 6.1, 11.0]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                args = (model.spread(i), model.spread(j), model.rho(i, j))
                for start in (None, 0.4):
                    for u in grid[1:]:
                        for v in grid[1:]:
                            got = spread_cross_covariance(*args, u, v, start=start)
                            ref = scalar_cross_covariance(*args, u, v, start=start)
                            if u == v:
                                assert got.hex() == ref.hex()
                            else:
                                assert got == pytest.approx(ref, rel=5e-16, abs=0.0)

    @pytest.mark.parametrize("start", [None, 0.4])
    def test_cross_covariance_broadcasts_to_the_scalar_calls_bitwise(self, start):
        model = _generated_model(2, False, 9)
        args = (model.spread(1), model.spread(2), model.rho(1, 2))
        u = np.array([0.4, 2.75, 6.1, 11.0, 6.1])
        mesh = spread_cross_covariance(*args, u[:, None], u[None, 1:], start=start)
        assert mesh.shape == (5, 4)
        for a, uu in enumerate(u):
            for b, vv in enumerate(u[1:]):
                point = spread_cross_covariance(*args, float(uu), float(vv), start=start)
                assert isinstance(point, float) and mesh[a, b].hex() == point.hex()
        with pytest.raises(ModelValidationError):
            spread_cross_covariance(*args, u, np.array([0.4, 2.0, 3.0, 4.0, -1.0]))

    @pytest.mark.parametrize("n,negative", _GENERATED)
    def test_step_covariance_matches_scalar(self, n, negative):
        model = _generated_model(n, negative, 300 + 10 * n + negative)
        idx = np.arange(n + 1)
        for dt in (1.0 / 80, 1.0 / 12, 0.37):
            got = montecarlo._step_covariance(model, dt, idx)
            ref = scalar_step_covariance(model, dt, idx)
            np.testing.assert_allclose(got, ref, rtol=5e-16, atol=0.0)
            assert np.array_equal(got, got.T)


def _mp_integral_covariance(ki, kj, xi_i, xi_j, rho, tau):
    """Cov[int u_i, int u_j] over [0, tau] in 50-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a, b, t = mpmath.mpf(ki), mpmath.mpf(kj), mpmath.mpf(tau)

        def e(k):
            return -mpmath.expm1(-k * t) / k

        value = mpmath.mpf(xi_i) * xi_j * rho * (t - e(a) - e(b) + e(a + b)) / (a * b)
        return float(value)


class TestSmallKappaIntegralCovariance:
    """integral_covariance within 1e-9 relative of 50-digit arithmetic at
    every kappa * tau, including the kappa -> 0 edge."""

    @pytest.mark.parametrize("kappa", [1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 1e-2, 1.0, 50.0])
    @pytest.mark.parametrize("tau", [1e-3, 0.25, 10.0, 30.0])
    def test_against_mpmath(self, kappa, tau):
        curve = SpreadCurve.constant(0.01, 0.0, 40.0)
        for kappa_j in (kappa, 1.7 * kappa, 0.5):
            si = HullWhiteSpec(kappa, 0.01, curve)
            sj = HullWhiteSpec(kappa_j, 0.02, curve)
            ref = _mp_integral_covariance(kappa, kappa_j, 0.01, 0.02, -0.3, tau)
            for got in (integral_covariance(si, sj, -0.3, 0.0, tau),
                        integral_covariance(sj, si, -0.3, 0.0, tau)):
                assert abs(got / ref - 1.0) <= 1e-9

    def test_brownian_limit_at_tiny_kappa(self):
        spec = HullWhiteSpec(1e-9, 0.01, FLAT)
        got = integral_covariance(spec, spec, 1.0, 0.0, 10.0)
        assert got == pytest.approx(0.01**2 * 1000.0 / 3.0, rel=1e-8)

    def test_assemble_quadratic_at_tiny_kappa(self):
        model = MarketModel(
            HullWhiteSpec(1e-9, 0.006, SpreadCurve.constant(0.02, 0.0, H)),
            [S1.bumped_xi(0.0018), HullWhiteSpec(1e-9, 0.0023, S2.mean_curve)],
            CorrelationMatrix.from_single(0.3),
        )
        form = assemble_quadratic(model, 0.0, 10.0, 24)
        assert np.all(np.isfinite(form.matrix)) and np.all(np.isfinite(form.vector))
        assert np.linalg.eigvalsh(form.matrix)[0] > 0.0
