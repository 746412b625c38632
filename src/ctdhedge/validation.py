"""Executable validation suite binding every engine claim to a check.

Each case states a claim in plain words, lists the operations it
exercises, and decides pass/fail against a fixed numeric tolerance or an
ordinal property.  Statistical cases use frozen seeds.  The registry is
machine-checked for coverage: the suite fails if any public operation has
no case exercising it.

To add a case, decorate a function of no arguments that returns
`(passed, summary)`:

    @_case("a11_example", "claim in plain words", ("operation",), limit_s=30)
    def _a11() -> tuple[bool, str]:
        gap = ...
        return gap < 1e-6, f"gap {gap:.2e} (limit 1e-6)"

The registration times the function, fails it when it takes `limit_s`
seconds or more (no limit when omitted), appends the elapsed time and the
limit to the summary, and builds the CaseResult from the registered id,
claim and operations; a case never times itself or names its own id.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import simpson

from . import ctd as _ctd
from .config import ConfigError, load_config
from .curves import SpreadCurve
from .hedging import (
    assemble_quadratic,
    build_basic_portfolio,
    build_deterministic_portfolio,
    build_none_portfolio,
    evaluate_portfolio_paths,
    model_crossing_schedule,
    stochastic_strategy,
    synthetic_replication_pnl,
)
from .instruments import (
    ForwardBondContract,
    SwapSpec,
    forward_bond,
    forward_ibor,
    par_rate,
    swap_value,
    swap_value_ctd,
    zcb_domestic,
    zcb_foreign,
)
from .montecarlo import SimulationPlan, mc_covariance, mc_ctd, mc_expectation, simulate
from .reporting import atomic_write_text, write_csv
from .sensitivity import BumpRequest, ctd_sensitivity, sensitivity_profile
from .spread_model import (
    CorrelationMatrix,
    HullWhiteSpec,
    MarketModel,
    bond_moment,
    integral_covariance,
    joint_bond_moment,
    mean_under_piecewise_theta,
    spread_cross_covariance,
    spread_mean,
    theta_continuous,
    theta_piecewise,
)

__all__ = ["CaseResult", "run_suite", "run_case", "write_report", "OPERATIONS"]

# public operations the registry must cover (coverage gate)
OPERATIONS = (
    "theta_continuous", "theta_piecewise", "spread_mean", "spread_cross_covariance",
    "integral_covariance", "bond_moment", "joint_bond_moment",
    "fit_gamma", "max_cdf", "max_moments", "integral_variance_estimator",
    "ctd_deterministic", "ctd_common_factor", "shifted_max_ctd",
    "simulate", "mc_ctd", "mc_expectation",
    "zcb_domestic", "zcb_foreign", "forward_bond", "forward_ibor",
    "swap_value", "swap_value_ctd",
    "ctd_sensitivity", "sensitivity_profile",
    "assemble_quadratic", "solve_min_variance", "crossing_schedule",
    "build_deterministic_portfolio", "build_basic_portfolio", "build_none_portfolio",
    "evaluate_portfolio_paths", "synthetic_replication_pnl",
    "run",
)


@dataclass
class CaseResult:
    case_id: str
    claim: str
    operations: tuple[str, ...]
    passed: bool
    summary: str
    elapsed: float


_REGISTRY: dict[str, tuple] = {}


def _case(case_id: str, claim: str, operations: tuple[str, ...], limit_s: float | None = None):
    """Register a case function; the module docstring says what its runner adds."""

    def wrap(fn):
        def run() -> CaseResult:
            start = time.perf_counter()
            passed, summary = fn()
            elapsed = time.perf_counter() - start
            if limit_s is not None:
                passed = passed and elapsed < limit_s
                summary += f"; {elapsed:.1f}s (limit {limit_s:g}s)"
            return CaseResult(case_id, claim, operations, bool(passed), summary, elapsed)

        _REGISTRY[case_id] = (claim, operations, run)
        return fn

    return wrap


def _experiment_model(name: str):
    cfg = load_config(name)
    return cfg, cfg.build_model()


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------

@_case(
    "a01_theta_calibration",
    "piecewise long-term mean reproduces the forecast at every grid node",
    ("theta_piecewise",),
    limit_s=1,
)
def _a1() -> tuple[bool, str]:
    grid = np.linspace(0.0, 10.0, 121)
    worst = 0.0
    for name in ("experiment1", "experiment2"):
        _, model = _experiment_model(name)
        for i in range(1, model.n_spreads + 1):
            spec = model.spread(i)
            theta = theta_piecewise(spec, grid)
            mean = mean_under_piecewise_theta(spec, grid, theta)
            worst = max(worst, float(np.max(np.abs(mean - spec.mean_curve(grid)))))
    return worst < 1e-12, f"max |mean error| {worst:.2e} (limit 1e-12)"


@_case(
    "a02_cf_inside_mc_band",
    "common-factor factor sits inside the 99% Monte Carlo band (1e5 paths, 80 steps/year)",
    ("ctd_common_factor", "simulate", "mc_ctd", "max_moments", "fit_gamma",
     "integral_variance_estimator"),
    limit_s=30,
)
def _a2() -> tuple[bool, str]:
    _, model = _experiment_model("fig2_sensitivity")
    cf = _ctd.ctd_common_factor(model, 0.0, 20.0)
    plan = SimulationPlan(100_000, 80, 20.0, seed=932024)
    est, se = mc_ctd(simulate(model, plan), 0.0, 20.0)
    band = 2.576 * se
    dev = cf - est
    return abs(dev) < band, f"cf {cf:.6f} mc {est:.6f} dev {dev:+.2e} band +-{band:.2e}"


def _sample_admissible_model(rng: np.random.Generator):
    horizon = 14.0
    spreads = []
    for _ in range(2):
        kappa = rng.uniform(0.001, 1.0)
        xi = rng.uniform(0.0, 0.01)
        values = rng.uniform(-0.02, 0.02, size=3)
        curve = SpreadCurve(np.array([0.0, horizon / 2, horizon]), values)
        spreads.append(HullWhiteSpec(kappa, xi, curve))
    rho = rng.uniform(-0.9, 0.9)
    dom = HullWhiteSpec(0.05, 0.0, SpreadCurve.constant(0.0, 0.0, horizon))
    model = MarketModel(dom, spreads, CorrelationMatrix.from_single(rho))
    maturity = rng.uniform(2.0, 12.0)
    return model, maturity


@_case(
    "a03_deterministic_upper_bound",
    "stochastic factor never exceeds the deterministic factor across sampled models",
    ("ctd_deterministic", "ctd_common_factor"),
    limit_s=60,
)
def _a3() -> tuple[bool, str]:
    rng = np.random.default_rng(57721)
    violations = []
    worst = -math.inf
    for k in range(200):
        model, maturity = _sample_admissible_model(rng)
        det = _ctd.ctd_deterministic(model, 0.0, maturity)
        cf = _ctd.ctd_common_factor(model, 0.0, maturity)
        gap = cf - det
        worst = max(worst, gap)
        if gap > 1e-8:
            violations.append((k, gap))
    summary = f"{len(violations)} violations in 200 samples, worst gap {worst:+.2e} (limit 1e-8)"
    return not violations, summary


@_case(
    "a04_zero_volatility_collapse",
    "with volatilities at 1e-7 the stochastic factor matches the deterministic one",
    ("ctd_deterministic", "ctd_common_factor"),
)
def _a4() -> tuple[bool, str]:
    worst = 0.0
    for name in ("experiment1", "experiment2"):
        _, model = _experiment_model(name)
        tiny = model
        for i in range(1, model.n_spreads + 1):
            tiny = tiny.with_spread(i, tiny.spread(i).bumped_xi(1e-7))
        det = _ctd.ctd_deterministic(tiny, 0.0, 10.0)
        cf = _ctd.ctd_common_factor(tiny, 0.0, 10.0)
        worst = max(worst, abs(cf - det))
    return worst < 1e-6, f"max |cf - det| {worst:.2e} (limit 1e-6)"


@_case(
    "a05_hedge_covariance_analytics",
    "every hedge covariance entry matches its Monte Carlo estimate within 3 standard errors, "
    "and the closed-form integral covariance matches fine quadrature",
    ("assemble_quadratic", "bond_moment", "joint_bond_moment", "shifted_max_ctd",
     "integral_covariance", "spread_cross_covariance", "mc_expectation", "simulate"),
)
def _a5() -> tuple[bool, str]:
    _, model = _experiment_model("experiment1")
    t0, T = 0.0, 10.0
    form = assemble_quadratic(model, t0, T)
    plan = SimulationPlan(1_000_000, 80, T, seed=552024)
    bundle = simulate(model, plan)
    payoffs = ["bond(0)", "bond(1)", "bond(2)"]
    checks = []
    n = model.n_spreads
    for i in range(n + 1):
        for j in range(i, n + 1):
            cov, se = mc_covariance(bundle, payoffs[i], payoffs[j])
            checks.append((f"q[{i},{j}]", form.matrix[i, j], cov, se))
    for i in range(n + 1):
        cov, se = mc_covariance(bundle, "collateral_bond_pc", payoffs[i])
        checks.append((f"b[{i}]", form.vector[i], cov, se))
    bad = []
    detail = []
    for name, analytic, cov, se in checks:
        dev = (analytic - cov) / se if se > 0 else 0.0
        detail.append(f"{name} {dev:+.1f}se")
        if abs(dev) > 3.0:
            bad.append(name)
    # closed-form vs 400x400 quadrature (Simpson on the smooth triangles)
    grid = np.linspace(t0, T, 400)
    s1, s2 = model.spread(1), model.spread(2)
    rho = model.rho(1, 2)
    kern = spread_cross_covariance(s1, s2, rho, grid[:, None], grid[None, :])
    inner = np.zeros(400)
    inner[1] = np.trapezoid(kern[:2, 1] + kern[1, :2], grid[:2])
    for j in range(2, 400):
        inner[j] = simpson(kern[: j + 1, j] + kern[j, : j + 1], x=grid[: j + 1])
    quad = float(simpson(inner, x=grid))
    closed = integral_covariance(s1, s2, rho, t0, T)
    quad_rel = abs(closed / quad - 1.0)
    summary = (f"entries: {', '.join(detail)}; offenders: {bad or 'none'}; "
               f"quadrature rel err {quad_rel:.2e} (limit 1e-6)")
    return not bad and quad_rel < 1e-6, summary


@_case(
    "a06_weight_regression",
    "variance-minimizing weights land in the reported windows and the crossing "
    "schedule finds the reported switch time",
    ("solve_min_variance", "assemble_quadratic", "crossing_schedule"),
)
def _a6() -> tuple[bool, str]:
    windows = {
        "experiment1": ((-0.53, -0.43), (-0.41, -0.31)),
        "experiment2": ((-0.39, -0.29), (-0.49, -0.39)),
    }
    msgs = []
    ok = True
    for name, (w1, w2) in windows.items():
        _, model = _experiment_model(name)
        weights, _, _ = stochastic_strategy(model, 0.0, 10.0)
        a1, a2 = float(weights.alpha[1]), float(weights.alpha[2])
        ok &= w1[0] <= a1 <= w1[1] and w2[0] <= a2 <= w2[1]
        msgs.append(f"{name}: a1 {a1:+.3f} in {w1}, a2 {a2:+.3f} in {w2}")
        if name == "experiment2":
            sched = model_crossing_schedule(model, 0.0, 10.0)
            cross_ok = (
                len(sched.times) == 2
                and abs(sched.times[1] - 3.6) < 1e-9
                and sched.indices == (1, 2)
            )
            ok &= cross_ok
            msgs.append(f"crossing {sched.times} idx {sched.indices}")
            a0 = float(weights.alpha[0])
            ok &= abs(a0 + 0.19) <= 0.03
            msgs.append(f"cash-neutral a0 {a0:+.3f} (target -0.19 +-0.03)")
    return ok, "; ".join(msgs)


def _portfolio_suite(name: str, paths: int, sd_points_per_year: int = 4, seed: int = 72024):
    cfg, model = _experiment_model(name)
    t0, T = 0.0, 10.0
    schedule = model_crossing_schedule(model, t0, T)
    weights, form, stochastic = stochastic_strategy(model, t0, T)
    portfolios = [
        stochastic,
        build_deterministic_portfolio(model, schedule, t0, T, form),
        build_none_portfolio(model, t0, T, form),
        build_basic_portfolio(model, 1, t0, T, form),
    ]
    obs = np.linspace(t0, T, int(round((T - t0) * sd_points_per_year)) + 1)
    plan = SimulationPlan(paths, 12, T, seed=seed, t0=t0, observation_times=tuple(obs))
    bundle = simulate(model, plan)
    stats = evaluate_portfolio_paths(portfolios, bundle)
    return model, weights, {s.name: s for s in stats}


@_case(
    "a07_variance_dominance",
    "the variance-minimizing portfolio has the smallest standard deviation at every "
    "interior node, at 4 standard errors",
    ("evaluate_portfolio_paths", "build_deterministic_portfolio", "build_basic_portfolio",
     "build_none_portfolio", "simulate"),
    limit_s=120,
)
def _a7() -> tuple[bool, str]:
    msgs = []
    ok = True
    for name in ("experiment1", "experiment2"):
        _, _, stats = _portfolio_suite(name, paths=100_000)
        sto = stats["stochastic"]
        worst = 0.0
        for rival_name in ("deterministic", "none"):
            rival = stats[rival_name]
            margin = rival.sd[1:-1] - sto.sd[1:-1]
            allowed = -4.0 * np.hypot(rival.sd_se[1:-1], sto.sd_se[1:-1])
            if np.any(margin < allowed):
                ok = False
            worst = min(worst, float(np.min(margin)))
        msgs.append(f"{name}: min margin {worst:+.2e}")
    return ok, "; ".join(msgs)


@_case(
    "a08_terminal_values",
    "terminal portfolio values match the reported levels within 0.01",
    ("build_deterministic_portfolio", "build_basic_portfolio", "build_none_portfolio",
     "evaluate_portfolio_paths"),
)
def _a8() -> tuple[bool, str]:
    targets = {
        "experiment1": {"none": 0.045, "deterministic": 0.017, "stochastic": 0.025},
        "experiment2": {"none": 0.039, "deterministic": 0.021, "stochastic": 0.027,
                        "basic_q1": 0.025},
    }
    msgs = []
    ok = True
    for name, targ in targets.items():
        _, _, stats = _portfolio_suite(name, paths=4_000, sd_points_per_year=1)
        for strategy, wanted in targ.items():
            got = float(stats[strategy].mean[-1])
            good = abs(got - wanted) <= 0.01
            ok &= good
            msgs.append(f"{name}/{strategy} {got:+.4f} vs {wanted:+.3f}"
                        + ("" if good else " <- off (check curve constants, not engine,"
                           " if a02-a07 pass)"))
    return ok, "; ".join(msgs)


@_case(
    "a09_sensitivity_structure",
    "the deterministic factor shows digital level sensitivity, the stochastic one a "
    "smooth damped profile, and synthetic replication quality orders the hedge P&L widths",
    ("ctd_sensitivity", "sensitivity_profile", "synthetic_replication_pnl",
     "swap_value_ctd", "swap_value", "forward_ibor", "zcb_domestic"),
)
def _a9() -> tuple[bool, str]:
    horizon = 25.0
    q1 = 0.014
    dom = HullWhiteSpec(0.01, 0.0, SpreadCurve.constant(0.0, 0.0, horizon))
    model = MarketModel(
        dom,
        [HullWhiteSpec(0.0078, 0.0018, SpreadCurve.constant(q1, 0.0, horizon)),
         HullWhiteSpec(0.0076, 0.0023, SpreadCurve.constant(0.008, 0.0, horizon))],
        CorrelationMatrix.from_single(0.5),
    )
    T = 20.0
    sweep = np.linspace(0.0, 0.02, 21)
    rows = sensitivity_profile(model, 0.0, T, "mean_level", sweep, index=2, epsilon=1e-4)
    ok = True
    msgs = []
    below = [r for r in rows if r.parameter < q1 - 5e-4]
    above = [r for r in rows if r.parameter > q1 + 5e-4]
    det_zero_below = all(r.dctd_det == 0.0 for r in below)
    ok &= det_zero_below
    msgs.append(f"det quotient zero below the kink: {det_zero_below}")
    slope_ok = True
    for r in above:
        target = -T * r.ctd_det
        slope_ok &= abs(r.dctd_det - target) <= 1e-4 * abs(target)
    ok &= slope_ok
    msgs.append(f"det quotient = -(T-t0)*ctd above the kink: {slope_ok}")
    cf_negative = all(r.dctd_cf < 0.0 for r in rows)
    ok &= cf_negative
    msgs.append(f"cf quotient strictly negative: {cf_negative}")
    # the quotient curves must cross near the kink
    diff = [r.dctd_cf - r.dctd_det for r in rows]
    near = [d for r, d in zip(rows, diff) if abs(r.parameter - q1) <= 2.5e-3]
    crossing = any(a * b < 0 for a, b in zip(near, near[1:]))
    ok &= crossing
    msgs.append(f"quotients cross near the kink: {crossing}")
    # Fig-2-style: the gap between the two volatility sensitivities shrinks
    _, vol_model = _experiment_model("fig2_sensitivity")
    gaps = []
    for v in (0.001, 0.004):
        swept = vol_model
        for i in (1, 2):
            swept = swept.with_spread(i, swept.spread(i).bumped_xi(v))
        d1 = ctd_sensitivity(swept, 0.0, T, BumpRequest("xi", 1, 2e-4))
        d2 = ctd_sensitivity(swept, 0.0, T, BumpRequest("xi", 2, 2e-4))
        gaps.append(abs(d1 - d2))
    vol_ok = gaps[1] < gaps[0] and d1 < 0 and d2 < 0
    ok &= vol_ok
    msgs.append(f"volatility sensitivity gap shrinks: {gaps[0]:.3f} -> {gaps[1]:.3f}")
    # ordinal synthetic-replication check on a smaller swap; spread vols are
    # raised so the replication-quality gap is well resolved at this scale
    pnl_model = MarketModel(
        HullWhiteSpec(0.03, 0.008, SpreadCurve.constant(0.02, 0.0, horizon)),
        [model.spread(1).bumped_xi(0.004), model.spread(2).bumped_xi(0.005)],
        CorrelationMatrix.from_single(0.5),
    )
    dates = tuple(float(k) for k in range(1, 9))
    swap = SwapSpec(1.0, par_rate(pnl_model, dates), dates)
    plan = SimulationPlan(8_000, 12, 8.0, seed=92024,
                          observation_times=(*np.linspace(0.0, 8.0, 33), *dates))
    bundle = simulate(pnl_model, plan)
    pnls = synthetic_replication_pnl(
        pnl_model, swap, ("none", "deterministic", "common_factor"), bundle
    )
    sds = {scheme: float(pnl.std(ddof=1)) for scheme, pnl in pnls.items()}
    pnl_ok = sds["common_factor"] < sds["deterministic"] < sds["none"]
    ok &= pnl_ok
    msgs.append("pnl sd " + " < ".join(f"{k}:{v:.4e}" for k, v in sds.items()) + f" ordered: {pnl_ok}")
    return ok, "; ".join(msgs)


@_case(
    "a10_cli_determinism",
    "rerunning any command with the same configuration and seed is byte-identical, "
    "independent of the thread cap",
    ("run",),
)
def _a10() -> tuple[bool, str]:
    import tempfile

    jobs = [
        ("price", ["--config", "experiment1"]),
        ("calibrate-theta", ["--config", "experiment2"]),
        ("sensitivity", ["--config", "fig5_sensitivity", "--set", "sensitivity.sweep_count=3",
                         "--set", "horizon.maturity=5"]),
        ("hedge", ["--config", "experiment1", "--paths", "2000",
                   "--set", "horizon.maturity=4", "--set", "hedge.sd_points_per_year=1"]),
        # a multi-maturity table, its two-spread moments closed-form; the
        # simulator's one 2000-path block is the run's only worker thread
        ("simulate-pnl", ["--config", "swap_pnl", "--paths", "2000",
                          "--set", "horizon.maturity=3", "--set", "pnl.payment_dates=1,2,3"]),
        # two simulator blocks (16384 + 116 paths), which one and two workers
        # schedule differently; the path sd at t = 0.5 reads every path, where
        # at t = 0 and at maturity every path has the same value
        ("hedge", ["--config", "experiment1", "--paths", "16500",
                   "--set", "horizon.maturity=1", "--set", "hedge.sd_points_per_year=2"]),
    ]
    ok = True
    msgs = []
    # the children import this very checkout, whatever the caller's path
    src_root = str(Path(__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, (src_root, os.environ.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as tmp:
        for job_idx, (cmd, extra) in enumerate(jobs):
            digests = []
            for run_idx, threads in enumerate(("1", "2", "1")):
                out = Path(tmp) / f"{job_idx}-{run_idx}"
                env = dict(os.environ, CTD_THREADS=threads, PYTHONPATH=pythonpath)
                proc = subprocess.run(
                    [sys.executable, "-m", "ctdhedge.cli", cmd, *extra, "--out", str(out)],
                    capture_output=True, text=True, env=env,
                )
                if proc.returncode != 0:
                    ok = False
                    msgs.append(f"{cmd}: exit {proc.returncode}: {proc.stderr.strip()[:200]}")
                    break
                digest = {}
                for f in sorted(out.iterdir()):
                    digest[f.name] = f.read_bytes()
                digests.append(digest)
            else:
                same = all(d == digests[0] for d in digests[1:])
                ok &= same
                msgs.append(f"{cmd}: {'byte-identical' if same else 'MISMATCH'} across "
                            f"{len(digests)} runs")
    return ok, "; ".join(msgs)


# ---------------------------------------------------------------------------
# coverage cases for operations not central to the acceptance criteria
# ---------------------------------------------------------------------------

@_case(
    "x01_continuous_theta",
    "the continuous long-term mean reproduces the forecast under a fine mean recursion",
    ("theta_continuous", "spread_mean"),
)
def _x1() -> tuple[bool, str]:
    curve = SpreadCurve([0.0, 3.6, 10.0], [0.002, 0.0035, 0.001])
    spec = HullWhiteSpec(0.35, 0.004, curve)
    grid = np.linspace(0.0, 10.0, 20001)
    mids = 0.5 * (grid[:-1] + grid[1:])
    theta = np.array([theta_continuous(spec, float(t)) for t in mids])
    mean = mean_under_piecewise_theta(spec, grid, theta)
    err = float(np.max(np.abs(mean - np.array([spread_mean(spec, float(t)) for t in grid]))))
    return err < 5e-7, f"ODE-refined mean error {err:.2e} (limit 5e-7)"


@_case(
    "x02_max_cdf_empirical",
    "the analytic maximum cdf matches a large direct simulation of the construction",
    ("max_cdf", "fit_gamma", "max_moments"),
)
def _x2() -> tuple[bool, str]:
    rng = np.random.default_rng(12024)
    snapshot = _ctd.GaussianVectorSnapshot(
        means=[0.002, -0.001],
        covariance=[[0.004**2, 0.5 * 0.004 * 0.006], [0.5 * 0.004 * 0.006, 0.006**2]],
        time=5.0,
    )
    state = _ctd.CommonFactorState.from_snapshot(snapshot)
    n = 10_000_000
    c = rng.normal(0.0, math.sqrt(state.common_var), n)
    a = rng.normal(state.component_means, np.sqrt(state.component_vars), (n, 2))
    m = np.maximum(0.0, c + a.max(axis=1))
    xs = np.linspace(-0.00199, 0.02501, 1000)  # avoids the atom at exactly zero
    analytic = _ctd.max_cdf(state, xs)
    empirical = np.searchsorted(np.sort(m), xs, side="right") / n
    sup = float(np.max(np.abs(analytic - empirical)))
    mean, var = _ctd.max_moments(state)
    mom_ok = abs(mean - m.mean()) < 4 * m.std() / math.sqrt(n)
    passed = sup < 1e-3 and mom_ok  # binomial noise at 1e7 samples is ~1.6e-4
    return passed, f"sup cdf gap {sup:.2e}, mean gap {abs(mean - m.mean()):.2e}"


@_case(
    "x03_instrument_identities",
    "bond, forward and swap identities hold: pull to par, forward-spot consistency, "
    "telescoping floating leg, zero par swap, option-adjusted legs never larger",
    ("zcb_domestic", "zcb_foreign", "forward_bond", "forward_ibor", "swap_value",
     "swap_value_ctd", "ctd_deterministic"),
)
def _x3() -> tuple[bool, str]:
    horizon = 15.0
    dom = HullWhiteSpec(0.04, 0.007, SpreadCurve.linear(0.0, horizon, 0.02, 0.025))
    model = MarketModel(
        dom,
        [HullWhiteSpec(0.0078, 0.0018, SpreadCurve.constant(0.003, 0.0, horizon)),
         HullWhiteSpec(0.0076, 0.0023, SpreadCurve.linear(0.0, horizon, 0.001, 0.004))],
        CorrelationMatrix.from_single(0.3),
    )
    ok = True
    msgs = []
    pull = abs(zcb_domestic(model, 10.0 - 1e-8, 10.0) - 1.0)
    ok &= pull < 1e-6
    msgs.append(f"pull-to-par {pull:.1e}")
    f = forward_bond(model, ForwardBondContract(2, 3.6, 10.0), 0.0)
    gap = abs(f * zcb_domestic(model, 0.0, 3.6) - zcb_foreign(model, 2, 0.0, 10.0))
    ok &= gap < 1e-12
    msgs.append(f"forward-spot {gap:.1e}")
    dates = tuple(float(k) for k in range(1, 11))
    swap = SwapSpec(1.0, 0.0, dates)
    ident = abs(swap_value(model, swap, 0.0) - (1.0 - zcb_domestic(model, 0.0, 10.0)))
    ok &= ident < 1e-12
    msgs.append(f"telescoping {ident:.1e}")
    k_par = par_rate(model, dates)
    par_swap = SwapSpec(1.0, k_par, dates)
    atpar = abs(swap_value(model, par_swap, 0.0))
    ok &= atpar < 1e-12
    msgs.append(f"par swap {atpar:.1e}")
    ibor = forward_ibor(model, par_swap, 0.0, 4)
    lhs = 1.0 + (dates[3] - dates[2]) * ibor
    rhs = zcb_domestic(model, 0.0, dates[2]) / zcb_domestic(model, 0.0, dates[3])
    ok &= abs(lhs - rhs) < 1e-12
    msgs.append(f"ibor identity {abs(lhs - rhs):.1e}")
    v_plain = swap_value(model, par_swap, 0.0)
    v_det = swap_value_ctd(model, par_swap, 0.0, "deterministic")
    v_none = swap_value_ctd(model, par_swap, 0.0, "none")
    ok &= abs(v_none - v_plain) < 1e-12
    msgs.append(f"ctd none == plain {abs(v_none - v_plain):.1e}")
    # each option-adjusted leg is factor * leg, so |factor| <= 1 is |adjusted| <= |leg|
    factors = [_ctd.ctd_deterministic(model, 0.0, tk) for tk in dates]
    ok &= math.isfinite(v_det) and all(0.0 < c <= 1.0 for c in factors)
    msgs.append(f"ctd factors in [{min(factors):.6f}, {max(factors):.6f}]")
    return ok, "; ".join(msgs)


@_case(
    "x04_oracle_bond_moments",
    "bond and joint bond moments match exact-step Monte Carlo",
    ("bond_moment", "joint_bond_moment", "mc_expectation", "simulate",
     "spread_cross_covariance"),
)
def _x4() -> tuple[bool, str]:
    _, model = _experiment_model("experiment1")
    plan = SimulationPlan(200_000, 40, 10.0, seed=42024)
    bundle = simulate(model, plan)
    ok = True
    msgs = []
    for payoff, analytic in [
        ("bond(1)", bond_moment(model.spread(1), 0.0, 10.0, 1)),
        ("bond_squared(1)", bond_moment(model.spread(1), 0.0, 10.0, 2)),
        ("joint_bond(1,2)",
         joint_bond_moment(model.spread(1), model.spread(2), model.rho(1, 2), 0.0, 10.0)),
    ]:
        est, se = mc_expectation(bundle, payoff)
        dev = (analytic - est) / se
        ok &= abs(dev) < 3.0
        msgs.append(f"{payoff} {dev:+.1f}se")
    cov_cf = spread_cross_covariance(model.spread(1), model.spread(2), model.rho(1, 2),
                                     10.0, 10.0)
    q1 = bundle.values[1, -1]
    q2 = bundle.values[2, -1]
    emp = float(np.cov(q1, q2)[0, 1])
    prod = (q1 - q1.mean()) * (q2 - q2.mean())
    dev = (cov_cf - emp) / (float(np.std(prod, ddof=1)) / math.sqrt(q1.size))
    ok &= abs(dev) < 3.0
    msgs.append(f"cross-cov {dev:+.1f}se")
    return ok, "; ".join(msgs)


@_case(
    "x05_operation_coverage",
    "every public operation is exercised by at least one case",
    (),
)
def _x5() -> tuple[bool, str]:
    covered = set()
    for claim, ops, fn in _REGISTRY.values():
        covered.update(ops)
    missing = sorted(set(OPERATIONS) - covered)
    return not missing, f"missing: {missing or 'none'}"


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_case(case_id: str) -> CaseResult:
    return _REGISTRY[case_id][2]()


def case_ids() -> list[str]:
    return sorted(_REGISTRY)


def run_suite(criteria: str = "all") -> list[CaseResult]:
    """Run every case whose id contains the filter (or all)."""
    selected = sorted(_REGISTRY)
    if criteria not in ("all", ""):
        wanted = [c.strip() for c in criteria.split(",")]
        selected = [cid for cid in selected if any(w in cid for w in wanted)]
        if not selected:
            raise ConfigError(f"acceptance criteria {criteria!r} match no case id")
    return [run_case(cid) for cid in selected]


def write_report(report: list[CaseResult], out_dir) -> None:
    out = Path(out_dir)
    write_csv(out / "acceptance_report.csv",
              ["case", "passed", "elapsed_seconds", "claim", "summary"],
              [(c.case_id, c.passed, c.elapsed, c.claim, c.summary.replace(",", ";"))
               for c in report])
    lines = []
    for c in report:
        lines.append(f"{'PASS' if c.passed else 'FAIL'}  {c.case_id}  [{c.elapsed:.1f}s]")
        lines.append(f"      {c.claim}")
        lines.append(f"      {c.summary}")
    lines.append("")
    lines.append(f"{sum(c.passed for c in report)}/{len(report)} cases passed")
    atomic_write_text(out / "acceptance_report.txt", "\n".join(lines) + "\n")
