import math
import re

import numpy as np
import pytest

from ctdhedge import (
    CorrelationMatrix,
    HullWhiteSpec,
    MarketModel,
    SpreadCurve,
    ctd_common_factor,
    ctd_deterministic,
)
from ctdhedge.instruments import (
    ForwardBondContract,
    SwapSpec,
    _leg_values,
    forward_bond,
    forward_ibor,
    par_rate,
    swap_value,
    swap_value_ctd,
    zcb_domestic,
    zcb_foreign,
)
from ctdhedge.spread_model import ModelValidationError

H = 15.0


def _model(flat_rate=0.02, xi0=0.0):
    dom = HullWhiteSpec(0.05, xi0, SpreadCurve.constant(flat_rate, 0.0, H))
    s1 = HullWhiteSpec(0.0078, 0.0018, SpreadCurve.constant(0.014, 0.0, H))
    s2 = HullWhiteSpec(0.0076, 0.0023, SpreadCurve.constant(0.0133, 0.0, H))
    return MarketModel(dom, [s1, s2], CorrelationMatrix.from_single(0.5))


ZERO_RATE = _model(0.0)
FLAT2 = _model(0.02)


class TestBonds:
    def test_zero_rate_bond_is_one(self):
        assert zcb_domestic(ZERO_RATE, 0.0, 10.0) == 1.0

    def test_at_maturity(self):
        assert zcb_domestic(FLAT2, 10.0, 10.0) == 1.0
        assert zcb_foreign(FLAT2, 1, 10.0, 10.0) == 1.0

    def test_flat_two_percent(self):
        assert zcb_domestic(FLAT2, 0.0, 10.0) == pytest.approx(math.exp(-0.2), rel=1e-14)

    def test_foreign_with_zero_spread_equals_domestic(self):
        model = MarketModel(
            FLAT2.domestic,
            [HullWhiteSpec(0.01, 0.0, SpreadCurve.constant(0.0, 0.0, H))],
            CorrelationMatrix(np.eye(2)),
        )
        assert zcb_foreign(model, 1, 0.0, 10.0) == zcb_domestic(model, 0.0, 10.0)

    def test_foreign_flat_spread_zero_rate(self):
        model = MarketModel(
            ZERO_RATE.domestic,
            [HullWhiteSpec(0.01, 0.0, SpreadCurve.constant(0.014, 0.0, H))],
            CorrelationMatrix(np.eye(2)),
        )
        assert zcb_foreign(model, 1, 0.0, 10.0) == pytest.approx(math.exp(-0.14), rel=1e-14)

    def test_index_zero_is_domestic(self):
        assert zcb_foreign(FLAT2, 0, 0.0, 10.0) == zcb_domestic(FLAT2, 0.0, 10.0)

    def test_pull_to_par(self):
        model = _model(0.02, xi0=0.007)
        for i in (0, 1, 2):
            assert zcb_foreign(model, i, 10.0 - 1e-8, 10.0) == pytest.approx(1.0, abs=1e-6)


class TestForwards:
    def test_spot_delivery(self):
        c = ForwardBondContract(1, 0.0, 10.0)
        assert forward_bond(FLAT2, c, 0.0) == zcb_foreign(FLAT2, 1, 0.0, 10.0)

    def test_zero_rate_forward_is_spot(self):
        c = ForwardBondContract(1, 3.6, 10.0)
        assert forward_bond(ZERO_RATE, c, 0.0) == zcb_foreign(ZERO_RATE, 1, 0.0, 10.0)

    def test_ratio_formula(self):
        c = ForwardBondContract(2, 3.6, 10.0)
        got = forward_bond(FLAT2, c, 0.0)
        assert got == pytest.approx(
            zcb_foreign(FLAT2, 2, 0.0, 10.0) / zcb_domestic(FLAT2, 0.0, 3.6), rel=1e-14
        )

    def test_physical_settlement_delegates(self):
        c = ForwardBondContract(1, 3.6, 10.0)
        assert forward_bond(FLAT2, c, 5.0) == zcb_foreign(FLAT2, 1, 5.0, 10.0)

    def test_delivery_after_maturity_rejected(self):
        with pytest.raises(ModelValidationError):
            ForwardBondContract(1, 11.0, 10.0)


class TestSwaps:
    DATES = tuple(float(k) for k in range(1, 11))

    @pytest.mark.parametrize("field", ["notional", "fixed_rate", "start", "date"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_terms_rejected(self, field, bad):
        terms = {"notional": 1.0, "fixed_rate": 0.02, "payment_dates": self.DATES, "start": 0.0}
        if field == "date":
            terms["payment_dates"] = self.DATES[:-1] + (bad,)
        else:
            terms[field] = bad
        with pytest.raises(ModelValidationError, match="must be finite"):
            SwapSpec(**terms)

    def test_flat_forward_rate(self):
        swap = SwapSpec(1.0, 0.0, self.DATES)
        ell = forward_ibor(FLAT2, swap, 0.0, 1)
        assert ell == pytest.approx(math.exp(0.02) - 1.0, rel=1e-12)

    def test_zero_rate_ibor_is_zero(self):
        swap = SwapSpec(1.0, 0.0, self.DATES)
        assert forward_ibor(ZERO_RATE, swap, 0.0, 3) == pytest.approx(0.0, abs=1e-15)

    def test_bond_ratio_identity(self):
        model = _model(0.02, xi0=0.006)
        swap = SwapSpec(1.0, 0.0, self.DATES)
        for k in (1, 4, 10):
            tau = 1.0
            lhs = 1.0 + tau * forward_ibor(model, swap, 0.0, k)
            rhs = zcb_domestic(model, 0.0, self.DATES[k - 1] - 1.0) / zcb_domestic(
                model, 0.0, self.DATES[k - 1]
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_strike_telescopes(self):
        swap = SwapSpec(2.5, 0.0, self.DATES)
        got = swap_value(FLAT2, swap, 0.0)
        assert got == pytest.approx(2.5 * (1.0 - zcb_domestic(FLAT2, 0.0, 10.0)), rel=1e-12)

    def test_par_swap_is_worthless(self):
        k = par_rate(FLAT2, self.DATES)
        swap = SwapSpec(1e7, k, self.DATES)
        assert abs(swap_value(FLAT2, swap, 0.0)) < 1e-6  # notional-sized rounding only

    def test_one_period_zero_rate(self):
        swap = SwapSpec(1.0, 0.0, (5.0,))
        assert swap_value(ZERO_RATE, swap, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_ctd_method_none_matches_plain(self):
        swap = SwapSpec(1.0, 0.01, self.DATES)
        assert swap_value_ctd(FLAT2, swap, 0.0, "none") == swap_value(FLAT2, swap, 0.0)

    def test_nonpositive_spreads_leave_swap_unchanged(self):
        model = MarketModel(
            FLAT2.domestic,
            [HullWhiteSpec(0.01, 0.0, SpreadCurve.constant(-0.002, 0.0, H))],
            CorrelationMatrix(np.eye(2)),
        )
        swap = SwapSpec(1.0, 0.01, self.DATES)
        for method in ("deterministic", "common_factor"):
            assert swap_value_ctd(model, swap, 0.0, method) == pytest.approx(
                swap_value(model, swap, 0.0), rel=1e-9
            )

    def test_option_shrinks_every_leg(self):
        # legs scaled by a factor in (0, 1]: absolute leg values never grow
        swap = SwapSpec(1.0, 0.005, self.DATES)
        plain = swap_value(FLAT2, swap, 0.0)
        det = swap_value_ctd(FLAT2, swap, 0.0, "deterministic")
        cf = swap_value_ctd(FLAT2, swap, 0.0, "common_factor")
        # all legs positive here (forward rate above strike), so ordering is clean
        assert 0.0 < det < plain
        assert 0.0 < cf <= det + 1e-8  # the deterministic factor is never smaller

    @pytest.mark.parametrize("t", [0.0, 2.5, 4.0, 9.5, 10.0])
    def test_one_pass_matches_per_leg_pricing_bitwise(self, t, crossing_model):
        # the legs share one pipeline pass; each leg's factor must be the one
        # ctd_common_factor gives for its maturity alone, added in leg order
        swap = SwapSpec(1.0, 0.005, self.DATES)
        for model in (_model(0.02, xi0=0.006), crossing_model):
            for npy in (24, 48):
                want = 0.0
                for maturity, value in _leg_values(model, swap, t):
                    want += ctd_common_factor(model, t, maturity, npy) * value
                got = swap_value_ctd(model, swap, t, "common_factor", npy)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_unknown_ctd_method_rejected(self):
        message = "ctd_method must be one of ('none', 'deterministic', 'common_factor')"
        with pytest.raises(ModelValidationError, match=re.escape(message)):
            swap_value_ctd(FLAT2, SwapSpec(1.0, 0.005, self.DATES), 0.0, "bogus")

    def test_payment_dates_validated(self):
        with pytest.raises(ModelValidationError):
            SwapSpec(1.0, 0.01, (1.0, 1.0))
        with pytest.raises(ModelValidationError):
            SwapSpec(1.0, 0.01, ())

    def test_first_payment_must_follow_the_start(self):
        message = "first payment date 0 must fall after the start 0"
        with pytest.raises(ModelValidationError, match=message):
            SwapSpec(1.0, 0.0, (0.0, 1.0))
        later = "first payment date 1 must fall after the start 1.5"
        with pytest.raises(ModelValidationError, match=later):
            SwapSpec(1.0, 0.0, (1.0, 2.0), start=1.5)
        # par_rate stops at the check before forward_ibor divides by a zero accrual
        with pytest.raises(ModelValidationError, match=message):
            par_rate(FLAT2, (0.0, 1.0, 2.0))

    def test_periods_start_at_the_swap_start(self):
        forward = SwapSpec(1.0, 0.0, (2.0, 3.0), start=1.5)
        assert forward.periods() == [(1.5, 2.0, 0.5), (2.0, 3.0, 1.0)]
        assert SwapSpec(1.0, 0.0, (2.0, 3.0)).periods()[0] == (0.0, 2.0, 2.0)

    @pytest.mark.parametrize("start", [0.0, 0.5])
    def test_par_rate_prices_the_swap_to_zero_at_its_start(self, start):
        model = _model(0.02, xi0=0.006)
        for dates in (self.DATES, (1.0, 2.5, 4.0)):
            k = par_rate(model, dates, start=start)
            swap = SwapSpec(1.0, k, dates, start=start)
            assert abs(swap_value(model, swap, start)) < 1e-15

    @pytest.mark.parametrize(
        "dates", [(1.0,), tuple(float(k) for k in range(1, 11)), (0.25, 0.7, 3.1, 9.9)]
    )
    def test_par_rate_matches_its_own_leg_loop_bitwise(self, dates):
        # the parent's par_rate, verbatim but for periods() taking no argument
        def reference(model, payment_dates):
            t = model.t0
            swap = SwapSpec(1.0, 0.0, tuple(payment_dates))
            annuity = 0.0
            floating = 0.0
            for k, (s, e, tau) in enumerate(swap.periods(), start=1):
                ell = forward_ibor(model, swap, min(t, s), k)
                df = zcb_domestic(model, t, e)
                annuity += tau * df
                floating += tau * df * ell
            return floating / annuity

        for model in (FLAT2, _model(0.02, xi0=0.006), _model(0.035, xi0=0.012)):
            assert par_rate(model, dates) == reference(model, dates)


def test_deterministic_ctd_bounds_leg_scaling():
    # CTD factors live in (0, 1]
    for t_end in (2.0, 7.0, 12.0):
        f = ctd_deterministic(FLAT2, 0.0, t_end)
        assert 0.0 < f <= 1.0
