import dataclasses
import math
from itertools import product as _iter_product

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctdhedge import (
    CorrelationMatrix,
    HullWhiteSpec,
    MarketModel,
    SpreadCurve,
    ctd_common_factor,
    hedging,
)
from ctdhedge.ctd import CommonFactorState, GaussianVectorSnapshot, NumericalError, ctd_deterministic
from ctdhedge.hedging import (
    CrossingSchedule,
    HedgeWeights,
    Portfolio,
    QuadraticForm,
    _box_qp,
    _conditional_bond,
    assemble_quadratic,
    build_basic_portfolio,
    build_deterministic_portfolio,
    build_none_portfolio,
    build_stochastic_portfolio,
    crossing_schedule,
    evaluate_portfolio_paths,
    model_crossing_schedule,
    solve_min_variance,
    stochastic_strategy,
    synthetic_replication_pnl,
)
from ctdhedge import ctd as ctd_module
from ctdhedge.config import load_config
from ctdhedge.instruments import SwapSpec, par_rate, zcb_domestic, zcb_foreign
from ctdhedge.montecarlo import SimulationPlan, simulate
from ctdhedge.spread_model import ModelValidationError
from single_maturity_table import SingleMaturityCtdTable
import per_position_revaluation as per_position
import three_pass_strategy as three_pass
from three_pass_strategy import three_pass_strategy


class TestQuadraticProgram:
    def test_unconstrained_origin(self):
        form = QuadraticForm(np.eye(3) * 2.0, np.zeros(3))
        w = solve_min_variance(form, "zero")
        assert np.allclose(w.alpha, 0.0, atol=1e-12)
        assert w.objective == pytest.approx(0.0, abs=1e-15)

    def test_interior_matches_linear_solve(self):
        q = np.array([[2.0, 0.3], [0.3, 1.0]]) * 1e-3
        b = np.array([0.5, -0.2]) * 1e-3
        form = QuadraticForm(q, b)
        w = solve_min_variance(form, "zero")
        expected = -np.linalg.solve(q, b)
        assert np.allclose(w.alpha, expected, atol=1e-10)

    def test_binding_box(self):
        q = np.array([[1e-3]])
        b = np.array([5e-3])  # unconstrained minimum at -5, clipped to -1
        w = solve_min_variance(QuadraticForm(q, b), "zero")
        assert w.alpha[0] == pytest.approx(-1.0, abs=1e-12)

    def test_kkt_local_optimality(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = rng.normal(size=(3, 3))
            q = a @ a.T * 1e-4
            b = rng.normal(size=3) * 1e-4
            form = QuadraticForm(q, b)
            w = solve_min_variance(form, "zero")
            f0 = form.objective(w.alpha)
            for k in range(3):
                for step in (-0.01, 0.01):
                    trial = w.alpha.copy()
                    trial[k] = np.clip(trial[k] + step, -1.0, 1.0)
                    assert form.objective(trial) >= f0 - 1e-12

    def test_degenerate_cash_weight_policies(self):
        q = np.zeros((3, 3))
        q[1:, 1:] = np.array([[2.0, 0.2], [0.2, 1.0]]) * 1e-3
        b = np.array([0.0, 1e-3, -2e-4])
        prices = [0.96, 1.0, 0.97, 0.98]
        form = QuadraticForm(q, b, prices)
        w = solve_min_variance(form, "zero")
        assert w.alpha0_degenerate
        assert w.alpha[0] == 0.0
        with pytest.raises(ModelValidationError, match="alpha0_policy"):
            solve_min_variance(form, "free")
        w = solve_min_variance(form, "cash_neutral")
        recon = prices[1] * w.alpha[0] + prices[2] * w.alpha[1] + prices[3] * w.alpha[2]
        assert prices[0] + recon == pytest.approx(0.0, abs=1e-12)

    def test_cash_neutral_needs_prices(self):
        q = np.zeros((2, 2))
        q[1, 1] = 1e-3
        with pytest.raises(ModelValidationError):
            solve_min_variance(QuadraticForm(q, np.zeros(2)), "cash_neutral")

    def test_non_psd_rejected(self):
        with pytest.raises(ModelValidationError):
            QuadraticForm(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2))

    def test_prices_need_one_per_asset(self):
        q = np.eye(2) * 1e-3
        for prices in ([0.96, 1.0], [0.96, 1.0, 0.97, 0.98], [[0.96, 1.0, 0.97]]):
            with pytest.raises(ModelValidationError):
                QuadraticForm(q, np.zeros(2), prices)
        form = QuadraticForm(q, np.zeros(2), [0.96, 1.0, 0.97])
        assert not form.prices.flags.writeable


def _enumerate_boxed_minimum(q: np.ndarray, b: np.ndarray, lo: float, hi: float):
    """
    Exact minimizer of a' q a + 2 b' a over the box by face enumeration.

    Every coordinate is tried interior, at the lower or the upper bound;
    candidates must satisfy the first-order conditions of their face.  The
    matrix is positive semidefinite, so those conditions are sufficient.
    """
    n = b.size
    best = None
    best_f = math.inf
    gtol = 1e-9 + 1e-7 * max(float(np.abs(q).max()), float(np.abs(b).max()))
    for states in _iter_product((0, -1, +1), repeat=n):
        a = np.empty(n)
        free = [k for k, s in enumerate(states) if s == 0]
        for k, s in enumerate(states):
            if s == -1:
                a[k] = lo
            elif s == +1:
                a[k] = hi
        if free:
            qff = q[np.ix_(free, free)]
            fixed = [k for k in range(n) if k not in free]
            rhs = -b[free]
            if fixed:
                rhs = rhs - q[np.ix_(free, fixed)] @ a[fixed]
            sol, *_ = np.linalg.lstsq(qff, rhs, rcond=None)
            a[free] = sol
            if np.any(a[free] < lo - 1e-12) or np.any(a[free] > hi + 1e-12):
                continue
        grad = 2.0 * (q @ a + b)
        ok = True
        for k, s in enumerate(states):
            if s == 0 and abs(grad[k]) > gtol:
                ok = False
                break
            if s == -1 and grad[k] < -gtol:
                ok = False
                break
            if s == +1 and grad[k] > gtol:
                ok = False
                break
        if not ok:
            continue
        f = float(a @ q @ a + 2.0 * b @ a)
        if best is None or f < best_f:
            best_f = f
            best = np.clip(a, lo, hi)
    if best is None:
        raise ModelValidationError("box-constrained minimization found no KKT point")
    return best, best_f


def _scale(q, b):
    return max(float(np.abs(q).max()), float(np.abs(b).max()), 1e-300)


def _kkt_violation(q, b, a, lo=-1.0, hi=1.0):
    """Largest breach of the box QP's first-order conditions, relative to the form's scale."""
    grad = 2.0 * (q @ a + b)
    viol = np.where(a <= lo, -grad, np.where(a >= hi, grad, np.abs(grad)))
    return float(max(viol.max(), 0.0)) / _scale(q, b)


def _assert_bitwise_reference(q, b):
    alpha, f = _box_qp(q, b, -1.0, 1.0)
    ref_alpha, ref_f = _enumerate_boxed_minimum(q, b, -1.0, 1.0)
    assert alpha.tobytes() == ref_alpha.tobytes()
    assert np.float64(f).tobytes() == np.float64(ref_f).tobytes()


def _random_form(rng, n, rank=None, scale=1e-4):
    a = rng.normal(size=(n, n if rank is None else rank))
    return a @ a.T * scale, rng.normal(size=n) * 2.0 * scale


@st.composite
def _pd_forms(draw):
    n = draw(st.integers(1, 6))
    a = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    ridge = draw(st.floats(1e-3, 1.0))
    b = draw(hnp.arrays(np.float64, n, elements=st.floats(-3.0, 3.0)))
    scale = draw(st.sampled_from((1e-6, 1e-3, 1.0)))
    return (a @ a.T + ridge * np.eye(n)) * scale, b * scale


class TestBoxQp:
    """The active-set solver against exhaustive face enumeration."""

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(_pd_forms())
    def test_positive_definite_matches_enumeration_bitwise(self, form):
        q, b = form
        ref_alpha, ref_f = _enumerate_boxed_minimum(q, b, -1.0, 1.0)
        grad = 2.0 * (q @ ref_alpha + b)
        gtol = 1e-9 + 1e-7 * max(float(np.abs(q).max()), float(np.abs(b).max()))
        weak = (np.abs(np.abs(ref_alpha) - 1.0) <= 1e-9) & (np.abs(grad) <= gtol)
        if not weak.any():
            _assert_bitwise_reference(q, b)
            return
        # A bound that holds with a vanishing multiplier (q = 1e-9 I, b = 1e-9 gives one)
        # is met by several faces at the same point to rounding; enumeration keeps the face
        # whose f is lowest in the last bit, so only the point and f to rounding are fixed.
        alpha, f = _box_qp(q, b, -1.0, 1.0)
        assert np.abs(alpha - ref_alpha).max() <= 1e-9
        assert abs(f - ref_f) <= 1e-14 * _scale(q, b)
        assert _kkt_violation(q, b, alpha) <= 1e-12

    @pytest.mark.parametrize("n", [8, 9])
    def test_large_dimensions_match_enumeration_bitwise(self, n):
        q, b = _random_form(np.random.default_rng(n), n)
        alpha, _ = _box_qp(q, b, -1.0, 1.0)
        assert 0 < np.sum(np.abs(alpha) == 1.0) < n  # some bounds bind, some do not
        _assert_bitwise_reference(q, b)

    def test_degenerate_cash_weight_sub_problems_match_enumeration(self):
        for n in (7, 8):
            sub_q, sub_b = _random_form(np.random.default_rng(10 + n), n)
            q, b = np.zeros((n + 1, n + 1)), np.zeros(n + 1)
            q[1:, 1:], b[1:] = sub_q, sub_b
            form = QuadraticForm(q, b)
            w = solve_min_variance(form, "zero")
            assert w.alpha0_degenerate and w.alpha[0] == 0.0
            ref_alpha, ref_f = _enumerate_boxed_minimum(form.matrix[1:, 1:], b[1:], -1.0, 1.0)
            assert w.alpha[1:].tobytes() == ref_alpha.tobytes()
            assert np.float64(w.objective).tobytes() == np.float64(ref_f).tobytes()

    def test_rank_deficient_and_zero_forms(self):
        rng = np.random.default_rng(3)
        forms = [(np.zeros((n, n)), rng.normal(size=n)) for n in (1, 3, 5)]
        forms.append((np.zeros((4, 4)), np.array([1.0, 0.0, -2.0, 0.0])))
        for n in (2, 3, 4, 6):
            for rank in range(n):
                q, b = _random_form(rng, n, rank)
                forms.append((q, b))
                forms.append((q, q @ rng.normal(size=n)))  # b in the range of q
                forms.append((QuadraticForm(q, b).matrix, b))
        for q, b in forms:
            alpha, f = _box_qp(q, b, -1.0, 1.0)
            _, ref_f = _enumerate_boxed_minimum(q, b, -1.0, 1.0)
            assert abs(f - ref_f) <= 1e-12 * _scale(q, b)
            assert f == pytest.approx(float(alpha @ q @ alpha + 2.0 * b @ alpha), abs=1e-12 * _scale(q, b))
            assert _kkt_violation(q, b, alpha) <= 1e-12

    def test_iteration_bound_is_loud(self, monkeypatch):
        q, b = _random_form(np.random.default_rng(1), 3)
        monkeypatch.setattr(hedging, "_QP_ITERATIONS_PER_DIM", 0)
        with pytest.raises(NumericalError):
            _box_qp(q, b, -1.0, 1.0)


class TestCrossingSchedule:
    def test_non_crossing(self):
        zero = SpreadCurve.constant(0.0, 0.0, 10.0)
        hi = SpreadCurve.constant(0.004, 0.0, 10.0)
        lo = SpreadCurve.constant(0.002, 0.0, 10.0)
        sched = crossing_schedule([zero, hi, lo], 0.0, 10.0)
        assert sched.times == (0.0,)
        assert sched.indices == (1,)

    def test_crossing_at_published_time(self, crossing_model):
        sched = model_crossing_schedule(crossing_model, 0.0, 10.0)
        assert len(sched.times) == 2
        assert sched.times[1] == pytest.approx(3.6, abs=1e-9)
        assert sched.indices == (1, 2)

    def test_all_negative_spreads_pick_domestic(self):
        zero = SpreadCurve.constant(0.0, 0.0, 10.0)
        neg1 = SpreadCurve.constant(-0.004, 0.0, 10.0)
        neg2 = SpreadCurve.linear(0.0, 10.0, -0.001, -0.01)
        sched = crossing_schedule([zero, neg1, neg2], 0.0, 10.0)
        assert sched.times == (0.0,)
        assert sched.indices == (0,)

    def test_validation(self):
        with pytest.raises(ModelValidationError):
            CrossingSchedule((0.0, 0.0), (1, 2))


class TestPortfolios:
    def test_zero_initial_value(self, crossing_model):
        sched = model_crossing_schedule(crossing_model, 0.0, 10.0)
        form = assemble_quadratic(crossing_model, 0.0, 10.0)
        portfolios = [
            build_none_portfolio(crossing_model, 0.0, 10.0, form),
            build_basic_portfolio(crossing_model, 1, 0.0, 10.0, form),
            build_basic_portfolio(crossing_model, 2, 0.0, 10.0, form),
            build_deterministic_portfolio(crossing_model, sched, 0.0, 10.0, form),
        ]
        for pf in portfolios:
            value = pf.position_value(crossing_model, 0.0) + pf.cash
            assert abs(value) < 1e-12, pf.name

    def test_deterministic_portfolio_forward_accounting(self, crossing_model):
        # with a zero domestic rate the forwards coincide with spot bonds, so
        # the crossing strategy is worth the basic second-bond hedge at all
        # times, and the physically held bond after the final settlement is
        # minus one unit of the last winner
        sched = model_crossing_schedule(crossing_model, 0.0, 10.0)
        pf = build_deterministic_portfolio(
            crossing_model, sched, 0.0, 10.0, assemble_quadratic(crossing_model, 0.0, 10.0)
        )
        for t in (1.0, 7.0):
            value = pf.position_value(crossing_model, t)
            pc = ctd_common_factor(crossing_model, t, 10.0) * zcb_domestic(crossing_model, t, 10.0)
            assert value == pytest.approx(pc - zcb_foreign(crossing_model, 2, t, 10.0), abs=1e-12)

    def test_deterministic_portfolio_with_stochastic_rate(self, small_spread_model):
        # the unsettled offsetting forwards carry the discount-curve ratio
        model = small_spread_model
        sched = model_crossing_schedule(model, 0.0, 10.0)
        pf = build_deterministic_portfolio(model, sched, 0.0, 10.0, assemble_quadratic(model, 0.0, 10.0))
        t = 1.0
        value = pf.position_value(model, t)
        pc = ctd_common_factor(model, t, 10.0) * zcb_domestic(model, t, 10.0)
        manual = pc
        times = list(sched.times) + [None]
        for k, idx in enumerate(sched.indices):
            q = zcb_foreign(model, idx, t, 10.0)
            start, nxt = times[k], times[k + 1]
            manual -= q if t >= start else q / zcb_domestic(model, t, start)
            if nxt is not None:
                manual += q if t >= nxt else q / zcb_domestic(model, t, nxt)
        assert value == pytest.approx(manual, rel=1e-12)

    def test_none_is_basic_zero(self, crossing_model):
        form = assemble_quadratic(crossing_model, 0.0, 10.0)
        assert build_none_portfolio(crossing_model, 0.0, 10.0, form).name == "none"

    def test_zero_spread_basic_hedge_is_perfect(self):
        h = 12.0
        model = MarketModel(
            HullWhiteSpec(0.03, 0.005, SpreadCurve.constant(0.02, 0.0, h)),
            [HullWhiteSpec(0.01, 0.0, SpreadCurve.constant(0.0, 0.0, h))],
            CorrelationMatrix(np.eye(2)),
        )
        pf = build_basic_portfolio(model, 1, 0.0, 10.0, assemble_quadratic(model, 0.0, 10.0))
        for t in (0.0, 3.0, 8.0):
            assert abs(pf.position_value(model, t) + pf.cash) < 1e-9

    @pytest.mark.parametrize("build", [
        lambda model, form: build_basic_portfolio(model, 1, 0.0, 10.0, form),
        lambda model, form: build_none_portfolio(model, 0.0, 10.0, form),
        lambda model, form: build_deterministic_portfolio(model, None, 0.0, 10.0, form),
        lambda model, form: build_stochastic_portfolio(
            form, HedgeWeights(np.full(model.n_spreads + 1, -0.5), "zero", 0.0, False), 10.0
        ),
    ], ids=["basic", "none", "deterministic", "stochastic"])
    def test_builders_need_a_priced_form_of_the_model_size(self, crossing_model, build):
        form = assemble_quadratic(crossing_model, 0.0, 10.0)
        unpriced = QuadraticForm(form.matrix, form.vector)
        short = QuadraticForm(form.matrix[:2, :2], form.vector[:2], form.prices[:3])
        for bad in (unpriced, short):
            with pytest.raises(ModelValidationError, match="needs a form priced on 3 bonds"):
                build(crossing_model, bad)
        assert isinstance(build(crossing_model, form), Portfolio)


class TestAssembledForm:
    def test_zero_volatility_collapses_to_zero(self):
        h = 12.0
        model = MarketModel(
            HullWhiteSpec(0.03, 0.0, SpreadCurve.constant(0.02, 0.0, h)),
            [HullWhiteSpec(0.0078, 0.0, SpreadCurve.constant(0.003, 0.0, h)),
             HullWhiteSpec(0.0076, 0.0, SpreadCurve.constant(0.002, 0.0, h))],
            CorrelationMatrix.from_single(0.3),
        )
        form = assemble_quadratic(model, 0.0, 10.0)
        assert np.allclose(form.matrix, 0.0, atol=1e-12)
        assert np.allclose(form.vector, 0.0, atol=1e-9)

    def test_deterministic_rate_zeroes_the_domestic_row(self, crossing_model):
        form = assemble_quadratic(crossing_model, 0.0, 10.0)
        assert np.allclose(form.matrix[0], 0.0, atol=1e-15)
        assert form.vector[0] == pytest.approx(0.0, abs=1e-15)

    def test_minimizer_dominates_rival_weights(self, crossing_model):
        form = assemble_quadratic(crossing_model, 0.0, 10.0)
        w = solve_min_variance(form, "zero")
        rivals = [
            np.array([-1.0, 0.0, 0.0]),
            np.array([0.0, -1.0, 0.0]),
            np.array([0.0, 0.0, -1.0]),
            np.array([0.0, 0.0, 0.0]),
        ]
        for rival in rivals:
            assert form.objective(w.alpha) <= form.objective(rival) + 1e-18


def _generated_model(n: int, stochastic_domestic: bool, negative_corr: bool):
    """A random n-spread market on [0, 12] with curves crossing zero and each other."""
    rng = np.random.default_rng([n, int(stochastic_domestic), int(negative_corr)])

    def curve():
        return SpreadCurve([0.0, rng.uniform(1.0, 11.0), 12.0], rng.uniform(-0.02, 0.02, size=3))

    def spec(xi):
        return HullWhiteSpec(float(np.exp(rng.uniform(np.log(1e-3), 0.0))), xi, curve())

    domestic = spec(rng.uniform(5e-4, 1e-2) if stochastic_domestic else 0.0)
    spreads = [spec(rng.uniform(5e-4, 1e-2)) for _ in range(n)]
    a = rng.uniform(0.0, 1.0, size=n)
    # every pair negative (c < 1/(n-1) keeps the matrix positive definite) or nonnegative
    block = (-0.9 / max(n - 1, 1) if negative_corr else 0.8) * np.outer(a, a)
    corr = np.eye(n + 1)
    corr[1:, 1:] = block
    np.fill_diagonal(corr, 1.0)
    return MarketModel(domestic, spreads, CorrelationMatrix(corr))


def _strategy_cases():
    """(model, t0, T, policy, nodes per year): the bundled hedge configs and generated markets."""
    for name in ("experiment1", "experiment2"):
        cfg = load_config(name)
        yield pytest.param(lambda cfg=cfg: (cfg.build_model(), cfg.t0, cfg.maturity,
                                            cfg.alpha0_policy, cfg.nodes_per_year), id=name)
    for n in range(1, 9):
        for stochastic, negative in _iter_product((False, True), repeat=2):
            T = 3.0 + 0.5 * n + (1.0 if stochastic else 0.0)
            yield pytest.param(
                lambda n=n, s=stochastic, g=negative, T=T: (_generated_model(n, s, g), 0.0, T, "cash_neutral", 12),
                id=f"n{n}-{'stoch' if stochastic else 'det'}-{'neg' if negative else 'pos'}",
            )


class TestOnePassStrategy:
    """`stochastic_strategy` on one pipeline pass against the three-pass routine it replaced."""

    @pytest.mark.parametrize("case", _strategy_cases())
    def test_matches_three_pass_reference_bitwise(self, case):
        model, t0, T, policy, npy = case()
        weights, form, pf = stochastic_strategy(model, t0, T, policy, npy)
        ref_weights, ref_form, ref_pf = three_pass_strategy(model, t0, T, policy, npy)
        assert weights.alpha.tobytes() == ref_weights.alpha.tobytes()
        assert np.float64(weights.objective).tobytes() == np.float64(ref_weights.objective).tobytes()
        assert weights.alpha0_degenerate == ref_weights.alpha0_degenerate
        assert form.matrix.tobytes() == ref_form.matrix.tobytes()
        assert form.vector.tobytes() == ref_form.vector.tobytes()
        assert type(pf.cash) is float
        assert np.float64(pf.cash).tobytes() == np.float64(ref_pf.cash).tobytes()
        assert (pf.name, pf.maturity) == (ref_pf.name, ref_pf.maturity)
        assert [(p.kind, np.float64(p.units).tobytes(), p.currency) for p in pf.positions] == [
            (p.kind, np.float64(p.units).tobytes(), p.currency) for p in ref_pf.positions
        ]

    @pytest.mark.parametrize("case", _strategy_cases())
    def test_form_prices_are_the_inception_prices_bitwise(self, case):
        model, t0, T, _, npy = case()
        form = assemble_quadratic(model, t0, T, npy)
        want = [ctd_common_factor(model, t0, T, npy) * zcb_domestic(model, t0, T)]
        want += [zcb_foreign(model, i, t0, T) for i in range(model.n_spreads + 1)]
        assert form.prices.tobytes() == np.asarray(want).tobytes()
        assert not form.prices.flags.writeable

    def test_one_pipeline_pass_per_strategy(self, monkeypatch):
        calls = []
        original = ctd_module._cf_pipeline

        def counted(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        for module in (hedging, ctd_module, three_pass):
            monkeypatch.setattr(module, "_cf_pipeline", counted)
        for n, stochastic in ((2, False), (3, True)):
            model = _generated_model(n, stochastic, False)
            calls.clear()
            stochastic_strategy(model, 0.0, 5.0, "cash_neutral", 12)
            assert calls == [(5.0,)]
            calls.clear()  # the counter sees every route: the reference makes three passes
            three_pass_strategy(model, 0.0, 5.0, "cash_neutral", 12)
            assert len(calls) == 3


class TestConditionalBond:
    @pytest.mark.parametrize("kappa", [1e-9, 0.0076])
    @pytest.mark.parametrize("tau", [1.0 / 80.0, 10.0])
    def test_load_against_mpmath(self, kappa, tau):
        # zero volatility and a zero curve leave P = exp(-load * u); a
        # displacement of 1 / load puts the exponent near -1, where exp and
        # the relative error of the load are both well conditioned
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            load = -mpmath.expm1(-mpmath.mpf(kappa) * mpmath.mpf(tau)) / mpmath.mpf(kappa)
            u = float(1 / load)
            want = mpmath.exp(-load * u)
        spec = HullWhiteSpec(kappa, 0.0, SpreadCurve.constant(0.0, 0.0, 12.0))
        got = _conditional_bond(spec, 0.0, tau, np.array([u]))[0]
        assert abs(got / float(want) - 1.0) <= 1e-15


class TestPathEvaluation:
    def test_zero_volatility_sd_is_zero(self):
        h = 12.0
        model = MarketModel(
            HullWhiteSpec(0.03, 0.0, SpreadCurve.constant(0.0, 0.0, h)),
            [HullWhiteSpec(0.0078, 0.0, SpreadCurve.constant(0.003, 0.0, h)),
             HullWhiteSpec(0.0076, 0.0, SpreadCurve.constant(0.002, 0.0, h))],
            CorrelationMatrix.from_single(0.3),
        )
        plan = SimulationPlan(100, 4, 10.0, seed=5, observation_times=(0.0, 5.0, 10.0))
        bundle = simulate(model, plan)
        pf = build_none_portfolio(model, 0.0, 10.0, assemble_quadratic(model, 0.0, 10.0))
        stats = evaluate_portfolio_paths(pf, bundle)
        assert np.allclose(stats[0].sd, 0.0, atol=1e-12)

    def test_endpoints_are_deterministic(self, crossing_model):
        obs = tuple(np.linspace(0.0, 10.0, 11))
        plan = SimulationPlan(4_000, 8, 10.0, seed=6, observation_times=obs)
        bundle = simulate(crossing_model, plan)
        weights, form, pf = stochastic_strategy(crossing_model, 0.0, 10.0)
        stats = evaluate_portfolio_paths([pf, build_none_portfolio(crossing_model, 0.0, 10.0, form)], bundle)
        for st in stats:
            assert st.sd[0] < 1e-10
            assert st.sd[-1] < 1e-10

    def test_predicted_variance_matches_realized(self, crossing_model):
        # realized: terminal payoff variance of pi(alpha) from pathwise
        # integrals.  The bond-bond block is exact, so its part must agree at
        # Monte Carlo precision; the cross terms carry the semi-analytic
        # shifted-maximum factor whose second-order/diffusion-proxy bias is a
        # few percent, so the full comparison gets that documented allowance.
        model = crossing_model
        weights, form, pf = stochastic_strategy(model, 0.0, 10.0)
        plan = SimulationPlan(200_000, 24, 10.0, seed=17)
        bundle = simulate(model, plan)
        k1 = bundle.observation_index(10.0)
        k0 = bundle.observation_index(0.0)
        q0 = np.exp(-(bundle.integral(0, k1) - bundle.integral(0, k0)))
        pc = np.exp(-bundle.max_integral) * q0
        hedge = weights.alpha[0] * q0
        for i in (1, 2):
            qi = np.exp(-(bundle.integral(i, k1) - bundle.integral(i, k0))) * q0
            hedge = hedge + weights.alpha[i] * qi
        pi = pc + hedge
        # exact block at 4 standard errors
        quad_emp = float(np.var(hedge, ddof=1))
        quad_pred = float(weights.alpha @ form.matrix @ weights.alpha)
        centered = hedge - hedge.mean()
        se_quad = math.sqrt(max(np.mean(centered**4) - quad_emp**2, 0.0) / hedge.size)
        assert abs(quad_pred - quad_emp) < 4 * se_quad
        # full comparison within the cross-term method allowance (10% of |b|)
        realized = float(np.var(pi, ddof=1))
        predicted = form.objective(weights.alpha) + float(np.var(pc, ddof=1))
        centered = pi - pi.mean()
        se_var = math.sqrt(max(np.mean(centered**4) - realized**2, 0.0) / pi.size)
        allowance = 0.2 * float(np.abs(weights.alpha) @ np.abs(form.vector))
        assert abs(predicted - realized) < 4 * se_var + allowance

    def test_same_named_portfolios_keep_their_own_values(self, crossing_model):
        plan = SimulationPlan(1_000, 4, 10.0, seed=3, observation_times=(0.0, 5.0, 10.0))
        bundle = simulate(crossing_model, plan)
        form = assemble_quadratic(crossing_model, 0.0, 10.0)
        q1, q2 = (build_basic_portfolio(crossing_model, i, 0.0, 10.0, form) for i in (1, 2))
        twin = dataclasses.replace(q2, name=q1.name)
        pair = evaluate_portfolio_paths([q1, twin], bundle)
        for got, pf in zip(pair, (q1, q2)):
            (alone,) = evaluate_portfolio_paths([pf], bundle)
            assert got.sd.tobytes() == alone.sd.tobytes()
            assert got.samples.tobytes() == alone.samples.tobytes()
        assert pair[0].sd.tobytes() != pair[1].sd.tobytes()

    def test_observations_past_the_maturity_fail(self, crossing_model, monkeypatch):
        plan = SimulationPlan(200, 4, 6.0, seed=3, observation_times=(0.0, 2.0, 4.0, 6.0))
        bundle = simulate(crossing_model, plan)
        pf = build_none_portfolio(crossing_model, 0.0, 4.0, assemble_quadratic(crossing_model, 0.0, 4.0))
        monkeypatch.setattr(hedging, "ConditionalCtdTable", None)  # fails before the table
        with pytest.raises(ModelValidationError,
                           match="observation time 6 is past the portfolios' maturity 4"):
            evaluate_portfolio_paths(pf, bundle)

    @pytest.mark.parametrize("n_samples", [-1, 201])
    def test_sample_count_outside_the_paths_fails(self, crossing_model, monkeypatch, n_samples):
        plan = SimulationPlan(200, 4, 4.0, seed=3, observation_times=(0.0, 2.0, 4.0))
        bundle = simulate(crossing_model, plan)
        pf = build_none_portfolio(crossing_model, 0.0, 4.0, assemble_quadratic(crossing_model, 0.0, 4.0))
        monkeypatch.setattr(hedging, "ConditionalCtdTable", None)  # fails before the table
        with pytest.raises(ModelValidationError, match=f"n_samples {n_samples} is outside 0..200"):
            evaluate_portfolio_paths(pf, bundle, n_samples)

    def test_mean_and_sd_match_exactly_rounded_sums(self, crossing_model):
        # values about 1.04 + 1e-3 N(0, 1) at the interior times.  numpy sums
        # a row of 1e5 pairwise: blocks of about 98 values on 8 accumulators,
        # then 10 levels of halves, so with the division each value passes
        # at most 27 roundings of the row's magnitude, and the mean and sd
        # stay within 32 u of their fsum values.  The reference sd is taken
        # about the computed mean, whose error enters the sd only squared
        # on a spread row and linearly on the constant rows at t0 and T.
        plan = SimulationPlan(100_000, 1, 10.0, seed=11, observation_times=(0.0, 2.5, 5.0, 7.5, 10.0))
        bundle = simulate(crossing_model, plan)
        pf = Portfolio("offset", 10.0, (hedging.Position("bond", 0.05, currency=1),), 1.0)
        (stats,) = evaluate_portfolio_paths(pf, bundle, n_samples=bundle.n_paths)
        bound = 32 * 2.0**-53
        spread = stats.samples.std(axis=0)
        assert np.all(spread[1:-1] > 5e-4) and np.all(spread[1:-1] < 2e-3)
        for k in range(stats.times.size):
            x = stats.samples[:, k]
            mean = math.fsum(x) / x.size
            sd = math.sqrt(math.fsum((x - stats.mean[k]) ** 2) / (x.size - 1))
            assert abs(stats.mean[k] - mean) <= bound * mean, k
            assert abs(stats.sd[k] - sd) <= bound * sd, k

    def test_cash_account_constant_without_rates(self, crossing_model):
        plan = SimulationPlan(500, 4, 10.0, seed=9, observation_times=(0.0, 5.0, 10.0))
        bundle = simulate(crossing_model, plan)
        assert np.allclose(bundle.bank_factor(0.0, 5.0), 1.0, atol=1e-15)


def _builder_portfolios(model, t0, T, npy):
    """One portfolio from every builder, on one model and horizon."""
    _, form, stochastic = stochastic_strategy(model, t0, T, "cash_neutral", npy)
    basics = [build_basic_portfolio(model, i, t0, T, form) for i in range(1, model.n_spreads + 1)]
    deterministic = build_deterministic_portfolio(model, None, t0, T, form)
    return [build_none_portfolio(model, t0, T, form), *basics, deterministic, stochastic]


class TestLegSum:
    """
    One leg sum prices portfolios at inception and along paths, against the
    per-position loops it replaced: experiment2, whose forwards deliver at
    the crossing 3.6, observed before and after delivery, and its spreads
    under a stochastic domestic rate, where P(t, S) != 1.
    """

    OBSERVATIONS = (0.0, 1.0, 2.5, 3.6, 5.0, 7.0, 10.0)

    @pytest.fixture(params=["experiment2", "stochastic_domestic"])
    def market(self, request, small_spread_model):
        model = load_config("experiment2").build_model()
        if request.param == "stochastic_domestic":
            model = MarketModel(small_spread_model.domestic, model.spreads, model.correlations)
            assert _conditional_bond(model.domestic, 1.0, 3.6, np.zeros(1))[0] != 1.0
        portfolios = _builder_portfolios(model, 0.0, 10.0, 24)
        deliveries = {p.delivery for pf in portfolios for p in pf.positions if p.kind == "forward"}
        assert any(0.0 < s < 10.0 for s in deliveries)
        return model, portfolios

    def test_inception_cash_and_position_values_bitwise(self, market):
        model, portfolios = market
        for pf in portfolios:
            draft = Portfolio(pf.name, pf.maturity, pf.positions, 0.0)
            assert pf.cash == -per_position.position_value(draft, model, 0.0, 24), pf.name
            for t in (0.0, 1.0, 3.6, 7.0):
                got = pf.position_value(model, t, 24)
                want = per_position.position_value(pf, model, t, 24)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (pf.name, t)

    def test_path_statistics_bitwise(self, market):
        # every value is a sample, so the samples pin every leg sum
        model, portfolios = market
        plan = SimulationPlan(1_000, 8, 10.0, seed=3, observation_times=self.OBSERVATIONS)
        bundle = simulate(model, plan)
        got = evaluate_portfolio_paths(portfolios, bundle, n_samples=bundle.n_paths)
        want = per_position.evaluate_portfolio_paths(portfolios, bundle, n_samples=bundle.n_paths)
        assert [s.name for s in got] == [s.name for s in want]
        for a, b in zip(got, want):
            for field in ("times", "mean", "sd", "sd_se", "samples"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), (a.name, field)


@pytest.mark.parametrize("config", ["experiment1", "experiment2"])
def test_builder_portfolios_are_flat_at_inception(config):
    # `ctd hedge`'s own check: at t0 every path holds the same value, whose
    # sd and sd_se must be exactly 0.0 over the bundled 1e5 paths
    cfg = load_config(config)
    model = cfg.build_model()
    portfolios = _builder_portfolios(model, cfg.t0, cfg.maturity, cfg.nodes_per_year)
    plan = SimulationPlan(cfg.mc_paths, 1, cfg.maturity, seed=cfg.seed, t0=cfg.t0)
    assert plan.n_paths == 100_000
    for st in evaluate_portfolio_paths(portfolios, simulate(model, plan)):
        assert st.times.tolist() == [cfg.t0, cfg.maturity]
        assert st.sd[0] == 0.0 and st.sd_se[0] == 0.0, st.name
        assert abs(st.mean[0]) < 1e-6, st.name


def test_constructors_copy_the_arrays_they_freeze():
    given = {
        "grid": np.array([0.0, 1.0]), "values": np.array([0.01, 0.02]), "vector": np.zeros(2),
        "alpha": np.array([0.5, -0.5]), "means": np.array([0.01, 0.02]), "covariance": 1e-4 * np.eye(2),
        "component_means": np.array([0.01, 0.02]), "component_vars": np.array([1e-4, 2e-4]),
    }
    objects = [
        SpreadCurve(given["grid"], given["values"]),
        QuadraticForm(np.eye(2), given["vector"]),
        HedgeWeights(given["alpha"], "zero", 0.0, False),
        GaussianVectorSnapshot(given["means"], given["covariance"], 1.0),
        CommonFactorState(1.0, 0.0, 1e-4, given["component_means"], given["component_vars"], 0.0),
    ]
    for name, array in given.items():
        held = next(getattr(obj, name) for obj in objects if hasattr(obj, name))
        assert not held.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 0.0
        before = held.copy()
        array[0] += 1.0  # the caller's array stays the caller's
        assert held.tobytes() == before.tobytes(), name


# ---------------------------------------------------------------------------
# reference implementation: the one-scheme P&L routine that the one-pass
# harness replaced, verbatim but for its unused per-time account output and
# its tables, which are the one-maturity reference tables
# ---------------------------------------------------------------------------

def _single_scheme_pnl(model, swap, scheme, bundle, nodes_per_year=24, tables=None):
    if scheme not in ("none", "deterministic", "common_factor"):
        raise ModelValidationError("scheme must be none, deterministic or common_factor")
    times = bundle.times
    for tk in swap.payment_dates:
        if not np.any(np.abs(times - tk) < 1e-9):
            raise ModelValidationError(
                f"payment date {tk:g} is not in the rebalancing grid"
            )
    model_t0 = bundle.plan.t0
    n_paths = bundle.n_paths
    if tables is None:
        tables = {}
        for tk in swap.payment_dates:
            anchors = times[times <= tk + 1e-12]
            tables[tk] = SingleMaturityCtdTable(
                model, anchors, tk, nodes_per_dim=7, nodes_per_year=nodes_per_year
            )

    # synthetic factor schedule per (observation time, payment date)
    synth = {}
    for tk in swap.payment_dates:
        for k, t in enumerate(times):
            t = float(t)
            if t > tk:
                continue
            if scheme == "none":
                synth[(t, tk)] = 1.0
            elif scheme == "deterministic":
                synth[(t, tk)] = ctd_deterministic(model, t, tk)
            else:
                synth[(t, tk)] = ctd_common_factor(model, t, tk, nodes_per_year)

    periods = swap.periods()
    sign = 1.0 if swap.payer else -1.0
    fixings = {}
    pnl = None
    prev_pi = None
    prev_t = None
    for k, t in enumerate(times):
        t = float(t)
        u = bundle.displacements(t)
        u0 = bundle.value(0, k) - model.domestic.mean_curve(t)
        # record fixings at period starts
        for s, e_, tau in periods:
            if abs(t - s) < 1e-9:
                p_end = _conditional_bond(model.domestic, t, e_, u0)
                fixings[s] = (1.0 / p_end - 1.0) / tau
        # mark the un-hedged residue sum_{T_k > t} (CTD_cond - C_j) * leg_k
        pi = np.zeros(n_paths)
        for (s, e_, tau) in periods:
            if e_ <= t + 1e-12:
                continue
            p_end = _conditional_bond(model.domestic, t, e_, u0)
            if t >= s - 1e-9:
                ell = fixings[s]
            else:
                p_start = _conditional_bond(model.domestic, t, s, u0)
                ell = (p_start / p_end - 1.0) / tau
            leg = sign * swap.notional * tau * p_end * (ell - swap.fixed_rate)
            tk_idx = tables[e_].anchor_times
            a_idx = int(np.argmin(np.abs(tk_idx - t)))
            ctd_cond = tables[e_].evaluate(a_idx, u)
            pi = pi + (ctd_cond - synth[(t, e_)]) * leg
        if pnl is None:
            pnl = pi.copy()
        else:
            pnl = pnl * bundle.bank_factor(prev_t, t) + (pi - prev_pi)
        prev_pi = pi
        prev_t = t
    return pnl


class TestSyntheticReplication:
    SCHEMES = ("none", "deterministic", "common_factor")

    def _swap_setup(self, xi0, spread_xi=(0.0018, 0.0023), dates=(1.0, 2.0, 3.0, 4.0),
                    payer=True, n_paths=2_000):
        h = 12.0
        model = MarketModel(
            HullWhiteSpec(0.03, xi0, SpreadCurve.constant(0.02, 0.0, h)),
            [HullWhiteSpec(0.0078, spread_xi[0], SpreadCurve.constant(0.014, 0.0, h)),
             HullWhiteSpec(0.0076, spread_xi[1], SpreadCurve.constant(0.0133, 0.0, h))],
            CorrelationMatrix.from_single(0.5),
        )
        swap = SwapSpec(1.0, par_rate(model, dates), dates, payer=payer)
        rebal = tuple(np.linspace(0.0, dates[-1], 4 * int(dates[-1]) + 1))
        plan = SimulationPlan(n_paths, 12, dates[-1], seed=21, observation_times=rebal)
        return model, swap, simulate(model, plan)

    def test_exact_model_replicates_perfectly(self):
        model, swap, bundle = self._swap_setup(0.0, spread_xi=(0.0, 0.0))
        pnl = synthetic_replication_pnl(model, swap, ("deterministic", "common_factor"), bundle)
        for scheme in ("deterministic", "common_factor"):
            assert np.max(np.abs(pnl[scheme])) < 1e-9

    def test_zero_spreads_make_schemes_identical(self):
        h = 12.0
        model = MarketModel(
            HullWhiteSpec(0.03, 0.006, SpreadCurve.constant(0.02, 0.0, h)),
            [HullWhiteSpec(0.01, 0.0, SpreadCurve.constant(0.0, 0.0, h))],
            CorrelationMatrix(np.eye(2)),
        )
        dates = (1.0, 2.0, 3.0)
        swap = SwapSpec(1.0, par_rate(model, dates), dates)
        plan = SimulationPlan(1_000, 12, 3.0, seed=23,
                              observation_times=tuple(np.linspace(0.0, 3.0, 13)))
        bundle = simulate(model, plan)
        out = list(synthetic_replication_pnl(model, swap, self.SCHEMES, bundle).values())
        assert np.allclose(out[0], out[1], atol=1e-12)
        assert np.allclose(out[0], out[2], atol=1e-12)

    def test_payment_dates_must_be_on_grid(self):
        model, swap, bundle = self._swap_setup(0.005)
        odd_swap = SwapSpec(1.0, 0.02, (1.0, 2.5001, 4.0))
        with pytest.raises(ModelValidationError):
            synthetic_replication_pnl(model, odd_swap, ("none",), bundle)

    def test_swap_must_not_start_before_the_bundle(self):
        model, _, _ = self._swap_setup(0.005)
        plan = SimulationPlan(200, 12, 4.0, seed=21, t0=1.0,
                              observation_times=tuple(np.linspace(1.0, 4.0, 13)))
        late = simulate(model, plan)
        swap = SwapSpec(1.0, 0.02, (2.0, 3.0, 4.0))
        message = "the swap starts at 0, before the first observation time 1"
        with pytest.raises(ModelValidationError, match=message):
            synthetic_replication_pnl(model, swap, ("none",), late)

    def test_forward_start_matches_single_scheme_reference_bitwise(self):
        # the swap fixes its first period at 1, four observations into the bundle
        model, _, bundle = self._swap_setup(0.005, dates=(1.0, 2.0, 3.0), n_paths=600)
        dates = (2.0, 3.0)
        swap = SwapSpec(1.0, par_rate(model, dates, start=1.0), dates, start=1.0)
        got = synthetic_replication_pnl(model, swap, self.SCHEMES, bundle)
        for scheme in self.SCHEMES:
            want = _single_scheme_pnl(model, swap, scheme, bundle)
            assert got[scheme].tobytes() == want.tobytes(), scheme

    @pytest.mark.parametrize("xi0,payer", [(0.005, True), (0.005, False), (0.0, True), (0.0, False)])
    def test_one_pass_matches_single_scheme_reference_bitwise(self, xi0, payer):
        model, swap, bundle = self._swap_setup(xi0, dates=(1.0, 2.0, 3.0), payer=payer, n_paths=600)
        schemes = ("common_factor", "none", "deterministic", "none")
        got = synthetic_replication_pnl(model, swap, schemes, bundle)
        assert tuple(got) == ("common_factor", "none", "deterministic")
        times = bundle.times
        tables = {
            tk: SingleMaturityCtdTable(model, times[times <= tk + 1e-12], tk, nodes_per_dim=7)
            for tk in swap.payment_dates
        }
        for scheme in self.SCHEMES:
            want = _single_scheme_pnl(model, swap, scheme, bundle, tables=tables)
            assert got[scheme].tobytes() == want.tobytes(), scheme

    def test_unknown_scheme_fails_before_any_table(self, monkeypatch):
        model, swap, bundle = self._swap_setup(0.005)

        def no_table(*args, **kwargs):
            raise AssertionError("a table was built before the schemes were checked")

        monkeypatch.setattr(hedging, "ConditionalCtdTable", no_table)
        for schemes in (("none", "bogus"), (), "none"):
            with pytest.raises(ModelValidationError):
                synthetic_replication_pnl(model, swap, schemes, bundle)
