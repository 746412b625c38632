import re

import numpy as np
import pytest

from ctdhedge import CorrelationMatrix, HullWhiteSpec, MarketModel, SpreadCurve, ctd_deterministic
from ctdhedge.sensitivity import BumpRequest, ctd_sensitivity, sensitivity_profile
from ctdhedge.spread_model import ModelValidationError

H = 25.0


def _flat_model(q1=0.014, q2=0.0133):
    dom = HullWhiteSpec(0.01, 0.0, SpreadCurve.constant(0.0, 0.0, H))
    return MarketModel(
        dom,
        [HullWhiteSpec(0.0078, 0.0018, SpreadCurve.constant(q1, 0.0, H)),
         HullWhiteSpec(0.0076, 0.0023, SpreadCurve.constant(q2, 0.0, H))],
        CorrelationMatrix.from_single(0.5),
    )


class TestBumpRequest:
    def test_validation(self):
        with pytest.raises(ModelValidationError):
            BumpRequest("kappa", 1)
        with pytest.raises(ModelValidationError):
            BumpRequest("xi", 1, epsilon=0.0)
        with pytest.raises(ModelValidationError):
            BumpRequest("xi", 0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_epsilon_must_be_finite(self, epsilon):
        with pytest.raises(ModelValidationError, match="epsilon must be positive and finite"):
            BumpRequest("xi", 1, epsilon=epsilon)

    def test_method_restricted_to_the_priced_routes(self):
        message = "method must be one of ('deterministic', 'common_factor')"
        with pytest.raises(ModelValidationError, match=re.escape(message)):
            ctd_sensitivity(_flat_model(), 0.0, 10.0, BumpRequest("mean_level", 1), method="none")

    def test_xi_bump_must_stay_nonnegative(self):
        model = _flat_model()
        with pytest.raises(ModelValidationError):
            ctd_sensitivity(model, 0.0, 10.0, BumpRequest("xi", 1, epsilon=0.01))


class TestDeterministicQuotients:
    def test_volatility_bump_is_exactly_zero(self):
        model = _flat_model()
        got = ctd_sensitivity(model, 0.0, 20.0, BumpRequest("xi", 1, 1e-4), "deterministic")
        assert got == 0.0

    def test_non_maximal_level_bump_is_exactly_zero(self):
        model = _flat_model(q1=0.014, q2=0.010)
        got = ctd_sensitivity(model, 0.0, 20.0, BumpRequest("mean_level", 2, 1e-4), "deterministic")
        assert got == 0.0

    def test_maximal_level_bump_matches_closed_slope(self):
        model = _flat_model()
        T = 20.0
        got = ctd_sensitivity(model, 0.0, T, BumpRequest("mean_level", 1, 1e-4), "deterministic")
        exact = -T * ctd_deterministic(model, 0.0, T)
        assert got == pytest.approx(exact, rel=1e-5)

    def test_central_difference_error_quarters_with_epsilon(self):
        # the bumped spread stays far above the kink at every bump size
        model = _flat_model(q1=0.014, q2=0.005)
        T = 20.0
        exact = -T * ctd_deterministic(model, 0.0, T)
        eps = 2e-3
        err1 = ctd_sensitivity(model, 0.0, T, BumpRequest("mean_level", 1, eps), "deterministic") - exact
        err2 = ctd_sensitivity(model, 0.0, T, BumpRequest("mean_level", 1, eps / 2), "deterministic") - exact
        assert 3.0 < err1 / err2 < 5.0


class TestStochasticQuotients:
    def test_volatility_sensitivities_nonpositive(self):
        for v in (0.001, 0.002, 0.004):
            model = _flat_model()
            for i in (1, 2):
                model = model.with_spread(i, model.spread(i).bumped_xi(v))
            for i in (1, 2):
                got = ctd_sensitivity(model, 0.0, 20.0, BumpRequest("xi", i, 2e-4))
                assert got <= 0.0


class TestProfiles:
    def test_level_sweep_structure(self):
        model = _flat_model()
        rows = sensitivity_profile(model, 0.0, 20.0, "mean_level",
                                   np.linspace(0.0, 0.02, 9), index=2)
        assert [r.parameter for r in rows] == sorted(r.parameter for r in rows)
        # deterministic factor flat until the second spread takes over
        below = [r for r in rows if r.parameter < 0.014 - 1e-3]
        above = [r for r in rows if r.parameter > 0.014 + 1e-3]
        assert len({round(r.ctd_det, 14) for r in below}) == 1
        det_vals = [r.ctd_det for r in above]
        assert all(b < a for a, b in zip(det_vals, det_vals[1:]))
        # stochastic factor strictly decreasing over the whole sweep
        cf_vals = [r.ctd_cf for r in rows]
        assert all(b < a for a, b in zip(cf_vals, cf_vals[1:]))

    def test_xi_sweep_has_one_row_per_spread(self):
        model = _flat_model()
        rows = sensitivity_profile(model, 0.0, 10.0, "xi", [0.001, 0.002])
        assert [(r.parameter, r.bump_index) for r in rows] == [
            (0.001, 1), (0.001, 2), (0.002, 1), (0.002, 2)]

    @pytest.mark.parametrize("start", [0.0, 1e-4])
    def test_xi_sweep_below_the_bump_fails(self, start):
        # the bump is never shrunk or made one-sided at the volatility edge
        with pytest.raises(ModelValidationError, match="xi bump of 0.0002 takes spread 1 below zero"):
            sensitivity_profile(_flat_model(), 0.0, 10.0, "xi", [start, 0.001], epsilon=2e-4)

    def test_xi_sweep_at_the_bump_size_is_central(self):
        model = _flat_model()
        (row, _) = sensitivity_profile(model, 0.0, 10.0, "xi", [2e-4], epsilon=2e-4)
        swept = model
        for i in (1, 2):
            swept = swept.with_spread(i, swept.spread(i).bumped_xi(2e-4))
        assert row.dctd_cf == ctd_sensitivity(swept, 0.0, 10.0, BumpRequest("xi", 1, 2e-4))
        assert row.dctd_det == 0.0

    def test_level_sweep_needs_index(self):
        with pytest.raises(ModelValidationError):
            sensitivity_profile(_flat_model(), 0.0, 10.0, "mean_level", [0.01])
