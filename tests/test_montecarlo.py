import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctdhedge import (
    CorrelationMatrix,
    HullWhiteSpec,
    MarketModel,
    SpreadCurve,
    bond_moment,
    ctd_deterministic,
    joint_bond_moment,
    shifted_max_ctd,
    spread_cross_covariance,
)
from ctdhedge import montecarlo
from ctdhedge.montecarlo import SimulationPlan, mc_covariance, mc_ctd, mc_expectation, simulate
from ctdhedge.config import load_config
from ctdhedge.spread_model import ModelValidationError
from scalar_covariance import scalar_step_covariance


def _model(xi0=0.006):
    h = 12.0
    dom = HullWhiteSpec(0.03, xi0, SpreadCurve.constant(0.02, 0.0, h))
    s1 = HullWhiteSpec(0.0078, 0.0018, SpreadCurve.constant(0.014, 0.0, h))
    s2 = HullWhiteSpec(0.0076, 0.0023, SpreadCurve.constant(0.0133, 0.0, h))
    return MarketModel(dom, [s1, s2], CorrelationMatrix.from_single(0.3))


def _wide_model(n_spreads, xi0):
    h = 12.0
    dom = HullWhiteSpec(0.03, xi0, SpreadCurve.constant(0.02, 0.0, h))
    spreads = [
        HullWhiteSpec(0.006 + 0.002 * i, 0.0015 + 0.0004 * i,
                      SpreadCurve.linear(0.0, h, 0.012 + 0.001 * i, 0.015 - 0.0008 * i))
        for i in range(n_spreads)
    ]
    n = n_spreads + 1
    return MarketModel(dom, spreads, CorrelationMatrix(0.7 * np.eye(n) + 0.3 * np.ones((n, n))))


def _row_major_simulate(model, plan, antithetic):
    """Reference: the row-major (paths, proc) block loop, run block after block.

    `antithetic` mirrors each block's shocks (path p with p + n/2); the
    simulator draws every path's own shocks, which is the False branch.
    """
    grid, obs = plan.step_grid(), plan.observation_grid()
    obs_set = {round(float(t), 12) for t in obs}
    specs = [model.domestic] + list(model.spreads)
    n_proc, n_paths = len(specs), plan.n_paths
    means_grid = np.stack([s.mean_curve(grid) for s in specs], axis=1)
    stoch_idx = np.array([j for j, s in enumerate(specs) if s.xi > 0.0], dtype=int)
    record = [round(float(t), 12) in obs_set for t in grid]
    cache = {}  # step coefficients, keyed on the rounded step size
    values = np.empty((n_paths, obs.size, n_proc))
    integrals_out = np.empty((n_paths, obs.size, n_proc))
    max_out = np.empty((n_paths, obs.size))
    for block, lo in enumerate(range(0, n_paths, montecarlo._PATH_BLOCK)):
        hi = min(lo + montecarlo._PATH_BLOCK, n_paths)
        n = hi - lo
        rng = np.random.Generator(
            np.random.Philox(key=np.array([plan.seed % 2**64, block], dtype=np.uint64)))
        draw = n // 2 if antithetic else n
        u = np.zeros((n, stoch_idx.size))
        level = np.tile(means_grid[0], (n, 1))
        integrals = np.zeros((n, n_proc))
        max_int = np.zeros(n)
        prev_max = np.maximum(0.0, level[:, 1:].max(axis=1))
        cursor = 0
        if record[0]:
            values[lo:hi, 0], integrals_out[lo:hi, 0], max_out[lo:hi, 0] = level, integrals, max_int
            cursor = 1
        for k in range(grid.size - 1):
            dt = float(grid[k + 1] - grid[k])
            key = round(dt, 12)
            if key not in cache:
                cache[key] = (
                    np.exp(-np.array([specs[j].kappa for j in stoch_idx]) * dt),
                    montecarlo._safe_cholesky(montecarlo._step_covariance(model, dt, stoch_idx)),
                )
            decay, chol = cache[key]
            z = rng.standard_normal((draw, stoch_idx.size))
            integrals += (0.5 * dt) * level
            max_int += (0.5 * dt) * prev_max
            u *= decay[None, :]
            if antithetic:
                shock = z @ chol.T
                u[:draw] += shock
                u[draw:] -= shock
            else:
                u += z @ chol.T
            level = np.tile(means_grid[k + 1], (n, 1))
            level[:, stoch_idx] += u
            prev_max = np.maximum(0.0, level[:, 1:].max(axis=1))
            integrals += (0.5 * dt) * level
            max_int += (0.5 * dt) * prev_max
            if record[k + 1]:
                values[lo:hi, cursor] = level
                integrals_out[lo:hi, cursor] = integrals
                max_out[lo:hi, cursor] = max_int
                cursor += 1
    return values, integrals_out, max_out


def _process_major(values, integrals, max_integral):
    """
    What the bundle keeps of the reference's [paths, obs, proc] arrays, in
    its [proc, obs, paths] order: every state, the domestic integral at every
    observation, the spreads' integrals at t0 and the horizon, and the
    maximum's at the horizon.
    """
    return (values.transpose(2, 1, 0), integrals[:, :, 0].T,
            integrals[:, [0, -1], 1:].transpose(2, 1, 0), max_integral[:, -1])


def _through_accessors(bundle):
    """Every kept row, read through `value` and `integral`, in `_process_major`'s order."""
    n_obs, n_proc = bundle.times.size, bundle.model.n_spreads + 1
    values = np.array([[bundle.value(j, k) for k in range(n_obs)] for j in range(n_proc)])
    domestic = np.array([bundle.integral(0, k) for k in range(n_obs)])
    spreads = np.array([[bundle.integral(j, k) for k in (0, n_obs - 1)] for j in range(1, n_proc)])
    return values, domestic, spreads, bundle.max_integral


def _same_bytes(bundle, reference):
    got = _through_accessors(bundle)
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, reference))


class TestPlan:
    def test_validation(self):
        with pytest.raises(ModelValidationError):
            SimulationPlan(1, 10, 10.0, seed=1)
        with pytest.raises(ModelValidationError):
            SimulationPlan(100, 0, 10.0, seed=1)
        with pytest.raises(ModelValidationError):
            SimulationPlan(100, 10, 0.0, seed=1)

    @pytest.mark.parametrize("kwargs", [
        {"horizon": math.nan}, {"horizon": math.inf}, {"t0": math.nan}, {"t0": -math.inf},
        {"observation_times": (math.nan,)}, {"observation_times": (1.0, math.inf)},
        {"observation_times": ()},
    ])
    def test_non_finite_or_empty_times_rejected(self, kwargs):
        with pytest.raises(ModelValidationError):
            SimulationPlan(100, 10, **{"horizon": 10.0, "seed": 1, **kwargs})

    @pytest.mark.parametrize("n_paths, steps_per_year", [(100.5, 10), (100.0, 10), (100, 10.0),
                                                          (100, "10")])
    def test_non_integer_counts_rejected(self, n_paths, steps_per_year):
        with pytest.raises(ModelValidationError, match="must be an integer"):
            SimulationPlan(n_paths, steps_per_year, 1.0, seed=1)

    def test_numpy_integer_counts_accepted(self):
        plan = SimulationPlan(np.int64(100), np.int32(10), 1.0, seed=1)
        assert simulate(_model(), plan).max_integral.shape == (100,)

    @pytest.mark.parametrize("obs", [(5.0,), (-0.5, 0.5), (0.5, 1.5)])
    def test_observation_times_outside_the_horizon_rejected(self, obs):
        with pytest.raises(ModelValidationError, match=r"outside \[t0, horizon\]"):
            SimulationPlan(100, 10, 1.0, seed=1, observation_times=obs)

    def test_observation_grid_includes_endpoints(self):
        plan = SimulationPlan(100, 10, 10.0, seed=1, observation_times=(2.0, 5.0))
        assert plan.observation_grid()[0] == 0.0
        assert plan.observation_grid()[-1] == 10.0

    @pytest.mark.parametrize("obs", [(1e-13, 1.0), (1.0, 2.0 - 1e-13), (-1e-13, 1.0, 2.0 + 1e-13)])
    def test_times_beside_an_end_snap_onto_it(self, obs):
        plan = SimulationPlan(200, 4, 2.0, seed=1, observation_times=obs)
        assert plan.observation_grid().tolist() == [0.0, 1.0, 2.0]
        assert np.diff(plan.step_grid()).min() == 0.25  # no sliver step beside an end
        bundle = simulate(_model(), plan)
        assert bundle.times.tolist() == [0.0, 1.0, 2.0]
        assert not np.any(bundle.integral(0, 0))

    def test_records_exactly_the_requested_nodes(self):
        # linspace's 0.30000000000000004 sits on the step grid beside the requested 0.3
        plan = SimulationPlan(10, 10, 1.0, seed=1, observation_times=(0.3,))
        assert plan.step_grid().size == 12
        assert simulate(_model(), plan).times.tolist() == [0.0, 0.3, 1.0]

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        horizon=st.floats(0.05, 12.0),
        steps_per_year=st.integers(1, 100),
        per_year=st.integers(1, 24),
        interior=st.lists(st.floats(0.0, 1.0), max_size=3),
        n_paths=st.integers(2, 4),
    )
    def test_bundle_times_are_the_observation_grid(
        self, horizon, steps_per_year, per_year, interior, n_paths
    ):
        # observation times as the CLI builds them, plus a few arbitrary ones
        obs = np.linspace(0.0, horizon, int(round(horizon * per_year)) + 1)
        obs = np.concatenate((obs, [f * horizon for f in interior]))
        plan = SimulationPlan(n_paths, steps_per_year, horizon, seed=7, observation_times=tuple(obs))
        assert simulate(_model(), plan).times.tobytes() == plan.observation_grid().tobytes()


class TestSimulate:
    def test_indefinite_step_covariance_names_its_smallest_eigenvalue(self):
        with pytest.raises(ModelValidationError, match=r"smallest eigenvalue -1\b.*correlation matrix"):
            montecarlo._safe_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_bitwise_determinism(self):
        model = _model()
        plan = SimulationPlan(30_000, 10, 5.0, seed=99)
        a = simulate(model, plan)
        b = simulate(model, plan)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.integrals, b.integrals)
        assert np.array_equal(a.max_integral, b.max_integral)

    def test_zero_volatility_paths_follow_the_curve(self):
        h = 12.0
        model = MarketModel(
            HullWhiteSpec(0.03, 0.0, SpreadCurve.constant(0.02, 0.0, h)),
            [HullWhiteSpec(0.0078, 0.0, SpreadCurve.linear(0.0, h, 0.014, 0.02))],
            CorrelationMatrix(np.eye(2)),
        )
        bundle = simulate(model, SimulationPlan(4, 12, 10.0, seed=1))
        assert np.allclose(bundle.value(1, -1), model.spread(1).mean_curve(10.0), atol=1e-16)
        est, se = mc_ctd(bundle, 0.0, 10.0)
        assert se == 0.0
        assert est == pytest.approx(ctd_deterministic(model, 0.0, 10.0), rel=1e-6)

    def test_marginals_match_closed_forms(self):
        # exact transition: coarse steps still give exact marginals
        model = _model()
        plan = SimulationPlan(120_000, 1, 10.0, seed=31)
        bundle = simulate(model, plan)
        specs = [model.domestic, model.spread(1), model.spread(2)]
        for j, spec in enumerate(specs):
            sample = bundle.value(j, -1)
            var = spec.variance(10.0)
            se_var = var * math.sqrt(2.0 / (sample.size - 1))
            assert abs(sample.var(ddof=1) - var) < 4 * se_var
            assert abs(sample.mean() - spec.mean_curve(10.0)) < 4 * math.sqrt(var / sample.size)
        cov = spread_cross_covariance(model.spread(1), model.spread(2), 0.3, 10.0, 10.0)
        q1, q2 = bundle.value(1, -1), bundle.value(2, -1)
        prod = (q1 - q1.mean()) * (q2 - q2.mean())
        assert abs(float(np.cov(q1, q2)[0, 1]) - cov) < 4 * np.std(prod, ddof=1) / math.sqrt(q1.size)


class TestProcessMajorLayout:
    """The block loop reproduces the row-major reference byte for byte."""

    @pytest.mark.parametrize("n_spreads, xi0", [(1, 0.0), (4, 0.006)])
    def test_matches_row_major_reference(self, n_spreads, xi0):
        model = _wide_model(n_spreads, xi0)
        # two blocks (one partial) and off-grid observations, so step sizes differ
        plan = SimulationPlan(montecarlo._PATH_BLOCK + 600, 4, 3.0, seed=2024,
                              observation_times=(0.3, 1.1, 2.55))
        assert len({round(float(d), 12) for d in np.diff(plan.step_grid())}) > 1
        reference = _process_major(*_row_major_simulate(model, plan, False))
        assert _same_bytes(simulate(model, plan), reference)

    @pytest.mark.parametrize("xi0", [0.0, 0.006])
    def test_readers_match_row_major_expressions(self, xi0):
        model = _wide_model(2, xi0)
        plan = SimulationPlan(montecarlo._PATH_BLOCK + 600, 4, 3.0, seed=2024,
                              observation_times=(0.3, 1.1, 2.55))
        bundle = simulate(model, plan)
        values, ints, max_int = _row_major_simulate(model, plan, False)
        n_proc, n_obs = model.n_spreads + 1, bundle.times.size
        n_stoch = n_proc if xi0 else n_proc - 1
        assert bundle.values.shape == (n_stoch, n_obs, plan.n_paths)
        assert bundle.integrals.shape == ((n_obs if xi0 else 0) + model.n_spreads, plan.n_paths)
        assert bundle.max_integral.shape == (plan.n_paths,)
        for k, t in enumerate(bundle.times):
            means = [s.mean_curve(float(t)) for s in model.spreads]
            assert bundle.displacements(t).shape == (plan.n_paths, model.n_spreads)
            assert bundle.displacements(t).tobytes() == (values[:, k, 1:] - np.array(means)).tobytes()
        seg = lambda j: ints[:, k1, j] - ints[:, k0, j]  # noqa: E731
        # the domestic rate's integral is kept at every observation
        for k0 in range(n_obs):
            for k1 in range(k0, n_obs):
                bank = bundle.bank_factor(bundle.times[k0], bundle.times[k1])
                assert bank.tobytes() == np.exp(ints[:, k1, 0] - ints[:, k0, 0]).tobytes()
                want = {"bond(0)": np.exp(-seg(0)), "bond_squared(0)": np.exp(-2.0 * seg(0)),
                        "joint_bond(0,0)": np.exp(-(seg(0) + seg(0)))}
                for payoff, samples in want.items():
                    got = montecarlo._payoff_samples(bundle, payoff, k0, k1)
                    assert got.tobytes() == samples.tobytes(), (payoff, k0, k1)
        # the spreads' and the maximum's over [t0, horizon] only
        k0, k1 = 0, n_obs - 1
        max_seg = max_int[:, k1] - max_int[:, k0]
        want = {"ctd": np.exp(-max_seg), "collateral_bond_pc": np.exp(-(max_seg + seg(0)))}
        for i in range(n_proc):
            want[f"bond({i})"] = np.exp(-seg(i))
            want[f"bond_squared({i})"] = np.exp(-2.0 * seg(i))
            want[f"joint_bond({i},{n_proc - 1 - i})"] = np.exp(-(seg(i) + seg(n_proc - 1 - i)))
            if i:
                want[f"shifted_max({i})"] = np.exp(-(max_seg + seg(i)))
        for payoff, samples in want.items():
            got = montecarlo._payoff_samples(bundle, payoff, k0, k1)
            assert got.tobytes() == samples.tobytes(), payoff

    def test_zero_volatility_model_matches_reference(self):
        model = MarketModel(
            HullWhiteSpec(0.03, 0.0, SpreadCurve.constant(0.02, 0.0, 12.0)),
            [HullWhiteSpec(0.0078, 0.0, SpreadCurve.linear(0.0, 12.0, 0.014, -0.002))],
            CorrelationMatrix(np.eye(2)),
        )
        plan = SimulationPlan(64, 12, 10.0, seed=1, observation_times=(2.5,))
        reference = _process_major(*_row_major_simulate(model, plan, False))
        bundle = simulate(model, plan)
        assert _same_bytes(bundle, reference)
        # no process moves: every row is a curve, and only the maximum is held per path
        assert bundle.values.shape == (0, 3, 64) and bundle.integrals.shape == (0, 64)
        assert bundle.curve_values.shape == bundle.curve_integrals.shape == (2, 3)
        assert bundle.max_integral.shape == (64,)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_mixed_zero_volatility_model_matches_reference(self, monkeypatch, workers):
        # a zero-volatility domestic rate and middle spread among stochastic
        # spreads; the still spread starts highest, so the floored maximum
        # reads its row
        base = _wide_model(3, 0.0)
        still = HullWhiteSpec(0.01, 0.0, SpreadCurve.linear(0.0, 12.0, 0.02, 0.008))
        model = base.with_spread(2, still)
        assert still.mean_curve(0.0) > max(model.spread(i).mean_curve(0.0) for i in (1, 3))
        plan = SimulationPlan(montecarlo._PATH_BLOCK + 600, 4, 3.0, seed=2024,
                              observation_times=(0.3, 1.1, 2.55))
        monkeypatch.setenv("CTD_THREADS", workers)
        bundle = simulate(model, plan)
        assert bundle.values.shape == (2, 5, plan.n_paths)
        assert bundle.curve_values.shape == (2, 5)
        reference = _process_major(*_row_major_simulate(model, plan, False))
        assert _same_bytes(bundle, reference)

    def test_curve_rows_are_read_only(self):
        bundle = simulate(_model(xi0=0.0), SimulationPlan(100, 4, 2.0, seed=1))
        for row in (bundle.value(0, 1), bundle.integral(0, 1)):
            assert row.shape == (100,) and not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 1.0
        assert bundle.value(1, 1).flags.writeable
        with pytest.raises(IndexError):
            bundle.value(3, 1)

    @pytest.mark.parametrize("build, planes", [
        (lambda: load_config("experiment1").build_model(), 2),
        (lambda: _wide_model(2, 0.006), 4),
    ], ids=["experiment1", "moving_domestic"])
    def test_bundle_holds_states_bank_and_horizon_rows(self, build, planes):
        # experiment1's domestic rate has xi = 0: its two spreads' value
        # planes, plus the spreads' and the maximum's horizon rows.  A moving
        # domestic rate adds its value plane and its integral plane.
        plan = SimulationPlan(500, 4, 10.0, seed=1, observation_times=(2.5, 5.0))
        bundle = simulate(build(), plan)
        row = plan.n_paths * 8
        held = bundle.values.nbytes + bundle.integrals.nbytes + bundle.max_integral.nbytes
        assert held == (planes * bundle.times.size + 3) * row

    def test_independent_of_worker_count(self, monkeypatch):
        model = _wide_model(2, 0.006)
        plan = SimulationPlan(3 * montecarlo._PATH_BLOCK + 10, 6, 2.0, seed=5,
                              observation_times=(0.7,))
        monkeypatch.setenv("CTD_THREADS", "1")
        one = simulate(model, plan)
        for workers in ("2", "4"):  # four blocks: one worker each, more workers than cores
            monkeypatch.setenv("CTD_THREADS", workers)
            assert _same_bytes(simulate(model, plan), _through_accessors(one))

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5", ""])
    def test_malformed_thread_count_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("CTD_THREADS", raw)
        with pytest.raises(ModelValidationError, match="CTD_THREADS"):
            simulate(_model(), SimulationPlan(100, 2, 1.0, seed=1))

    @pytest.mark.parametrize("name", ["experiment1", "experiment2", "swap_pnl"])
    def test_bundled_models_match_scalar_step_covariance(self, monkeypatch, name):
        cfg = load_config(name)
        model = cfg.build_model()
        plan = SimulationPlan(2000, cfg.mc_steps_per_year, cfg.maturity, seed=5, t0=cfg.t0,
                              observation_times=tuple(np.linspace(cfg.t0, cfg.maturity, 9)))
        kernel = simulate(model, plan)
        monkeypatch.setattr(montecarlo, "_step_covariance", scalar_step_covariance)
        assert _same_bytes(simulate(model, plan), _through_accessors(kernel))


class TestEstimators:
    def test_payoffs_match_closed_forms(self):
        model = _model()
        plan = SimulationPlan(60_000, 24, 10.0, seed=11)
        bundle = simulate(model, plan)
        cases = [
            ("bond(1)", bond_moment(model.spread(1), 0.0, 10.0, 1)),
            ("bond(0)", bond_moment(model.domestic, 0.0, 10.0, 1)),
            ("bond_squared(0)", bond_moment(model.domestic, 0.0, 10.0, 2)),
            ("joint_bond(1,2)",
             joint_bond_moment(model.spread(1), model.spread(2), 0.3, 0.0, 10.0)),
        ]
        for payoff, closed in cases:
            est, se = mc_expectation(bundle, payoff)
            assert abs(est - closed) < 4 * se, payoff

    def test_shifted_max_matches_shifted_max_ctd(self):
        # the pivot-covariance defect reaches this factor only through
        # Psi / 2 and does not show at this path count
        model = load_config("experiment2").build_model()
        bundle = simulate(model, SimulationPlan(200_000, 40, 10.0, seed=4242))
        for p in (1, 2):
            est, se = mc_expectation(bundle, f"shifted_max({p})")
            got = shifted_max_ctd(model, p, 0.0, 10.0)
            assert abs(got - est) <= 4 * se, (p, (got - est) / se)
        with pytest.raises(ModelValidationError, match="spread index"):
            mc_expectation(bundle, "shifted_max(0)")

    def test_unknown_payoff_rejected(self):
        bundle = simulate(_model(), SimulationPlan(100, 2, 1.0, seed=1))
        with pytest.raises(ModelValidationError):
            mc_expectation(bundle, "swaption(1)")

    @pytest.mark.parametrize("payoff", [
        # process indices outside 0..N (N = 2), 1..N for shifted_max
        "bond(-1)", "bond(3)", "bond_squared(3)", "joint_bond(-1,0)", "joint_bond(0,3)",
        "shifted_max(3)", "shifted_max(-1)",
        # wrong argument counts and non-integer arguments
        "bond()", "bond", "bond(1,2)", "joint_bond(1)", "joint_bond(1,)", "ctd(1)",
        "collateral_bond_pc(0)", "bond(1.5)", "bond(x)", "bond(1", "bond((1))",
    ])
    def test_malformed_payoff_rejected(self, payoff):
        bundle = simulate(_model(), SimulationPlan(100, 2, 1.0, seed=1))
        with pytest.raises(ModelValidationError):
            mc_expectation(bundle, payoff)

    @pytest.mark.parametrize("estimate", [
        lambda bundle: mc_ctd(bundle, 1.0, 0.0),
        lambda bundle: mc_expectation(bundle, "bond(1)", 1.0, 0.0),
    ], ids=["mc_ctd", "mc_expectation"])
    def test_horizon_before_start_rejected(self, estimate):
        bundle = simulate(_model(), SimulationPlan(100, 2, 1.0, seed=1))
        with pytest.raises(ModelValidationError, match="before t0"):
            estimate(bundle)

    def test_covariance_estimator_self_consistency(self):
        bundle = simulate(_model(), SimulationPlan(50_000, 12, 5.0, seed=13))
        cov, se = mc_covariance(bundle, "bond(1)", "bond(1)")
        est, _ = mc_expectation(bundle, "bond(1)")
        samples = np.exp(-(bundle.integral(1, -1) - bundle.integral(1, 0)))
        assert cov == pytest.approx(float(np.var(samples, ddof=1)), rel=1e-10)
        assert se > 0

    def test_ctd_is_the_ctd_payoff_bitwise(self):
        bundle = simulate(_model(), SimulationPlan(2_000, 12, 5.0, seed=3, observation_times=(2.0,)))
        got = np.array(mc_ctd(bundle, 0.0, 5.0))
        assert got.tobytes() == np.array(mc_expectation(bundle, "ctd", 0.0, 5.0)).tobytes()
        assert got.tobytes() == np.array(mc_expectation(bundle, "ctd")).tobytes()

    @pytest.mark.parametrize("xi0", [0.0, 0.006])
    def test_interior_spread_and_maximum_reads_are_loud(self, xi0):
        # spreads' and the maximum's integrals are kept at t0 and the horizon only
        bundle = simulate(_model(xi0), SimulationPlan(200, 12, 5.0, seed=3, observation_times=(2.0,)))
        for j in (1, 2):
            with pytest.raises(ModelValidationError, match=f"spread {j} is kept at t0 and the horizon"):
                bundle.integral(j, 1)
        for t0, T in ((2.0, 5.0), (0.0, 2.0), (0.0, 0.0), (5.0, 5.0)):
            with pytest.raises(ModelValidationError, match=r"\[t0, horizon\] only"):
                mc_ctd(bundle, t0, T)
            for payoff in ("bond(1)", "bond_squared(2)", "joint_bond(0,1)", "shifted_max(1)",
                           "collateral_bond_pc"):
                with pytest.raises(ModelValidationError, match=r"\[t0, horizon\] only"):
                    mc_expectation(bundle, payoff, t0, T)
            # the domestic rate's integral is kept at every observation
            mc_expectation(bundle, "bond(0)", t0, T)
        assert bundle.integral(0, 1).shape == (200,)
        # a negative k counts observations, not the kept rows
        for j in (0, 1):
            assert bundle.integral(j, -1).tobytes() == bundle.integral(j, 2).tobytes()
        with pytest.raises(IndexError):
            bundle.integral(1, 3)

    def test_bank_factor_refuses_a_reversed_interval(self):
        bundle = simulate(_model(), SimulationPlan(100, 4, 2.0, seed=1, observation_times=(1.0,)))
        assert bundle.bank_factor(1.0, 1.0).tobytes() == np.ones(100).tobytes()
        with pytest.raises(ModelValidationError, match="t1 1 is before t0 2"):
            bundle.bank_factor(2.0, 1.0)

    def test_requested_time_must_be_observed(self):
        bundle = simulate(_model(), SimulationPlan(100, 2, 1.0, seed=1))
        with pytest.raises(ModelValidationError):
            mc_ctd(bundle, 0.0, 0.37)
