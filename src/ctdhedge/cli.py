"""Command-line surface: `ctd <command> --config <file> [options]`.

Commands
--------
price            deterministic and common-factor CTD factors
sensitivity      parameter sweeps with central difference quotients
hedge            strategy weights, schedules, portfolio paths
simulate-pnl     synthetic-replication P&L of a collateral-choice swap
calibrate-theta  piecewise long-term mean per spread, with the mean check
acceptance       the built-in validation suite

Every command writes headered CSV files (12 significant digits, atomic
writes) plus the effective configuration, so a run is reproducible from
its own output directory.  Exit codes: 0 success, 2 configuration error,
3 numerical failure.  `--seed N` and `--paths N` are the overrides
`seed=N` and `mc.paths=N`, checked as a file line is.  A configuration
error is any `ConfigError` or `ModelValidationError`, raised before or
during the run: a time outside the forecast curves, a first payment date
at or before t0 and an empty hedge horizon among them.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import _COMMANDS as COMMANDS
from .config import ConfigError, ExperimentConfig, apply_override, load_config, serialize_config
from .ctd import NumericalError, ctd_common_factor_detailed, ctd_deterministic
from .hedging import (
    build_basic_portfolio,
    build_deterministic_portfolio,
    build_none_portfolio,
    evaluate_portfolio_paths,
    model_crossing_schedule,
    stochastic_strategy,
    synthetic_replication_pnl,
)
from .montecarlo import SimulationPlan, block_workers, simulate
from .reporting import fmt, atomic_write_text, svg_line_chart, write_csv
from .sensitivity import sensitivity_profile
from .spread_model import ModelValidationError, mean_under_piecewise_theta, theta_piecewise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ctd", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True,
                        help="config file path or bundled name (e.g. experiment1)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry, e.g. --set horizon.maturity=20")
    parser.add_argument("--out", default="ctd-out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument("--paths", type=int, default=None, help="override mc paths")
    parser.add_argument("--svg", action="store_true", help="also write SVG charts")
    args = parser.parse_args(argv)

    # --seed and --paths are the entries seed= and mc.paths=, checked as a file line is
    flags = {"seed": args.seed, "mc.paths": args.paths}
    overrides = args.set + [f"{key}={value}" for key, value in flags.items() if value is not None]
    try:
        block_workers()  # reject a malformed CTD_THREADS before any work
        cfg = load_config(args.config)
        cfg.command = args.command
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            key, _, value = item.partition("=")
            apply_override(cfg, key.strip(), value)
        model = cfg.build_model()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out / "effective.cfg", serialize_config(cfg))
        if args.command in ("price", "sensitivity", "hedge", "simulate-pnl"):
            _note_domestic_correlation(model)
        runner = {
            "price": _run_price,
            "sensitivity": _run_sensitivity,
            "hedge": _run_hedge,
            "simulate-pnl": _run_pnl,
            "calibrate-theta": _run_theta,
            "acceptance": _run_acceptance,
        }[args.command]
        return runner(cfg, model, out, args.svg)
    except (ConfigError, ModelValidationError) as exc:  # CurveDomainError included
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def _note_domestic_correlation(model) -> None:
    """Name the domestic-spread correlations that only the simulator sees."""
    rhos = [f"rho_0_{i} = {fmt(model.rho(0, i))}" for i in range(1, model.n_spreads + 1)
            if model.rho(0, i) != 0.0]
    if model.domestic.xi > 0.0 and rhos:
        print(f"note: only the simulator sees {', '.join(rhos)}; the analytic prices "
              "treat the spreads as independent of the domestic rate")


def _run_price(cfg: ExperimentConfig, model, out: Path, svg: bool) -> int:
    det = ctd_deterministic(model, cfg.t0, cfg.maturity)
    detail = ctd_common_factor_detailed(model, cfg.t0, cfg.maturity, cfg.nodes_per_year)
    rows = [
        ("deterministic", cfg.t0, cfg.maturity, det, 0.0, 0.0, 0),
        ("common_factor", cfg.t0, cfg.maturity, detail.value, detail.mean_integral,
         detail.psi, detail.gamma_clamped),
    ]
    write_csv(out / "price.csv",
              ["method", "t0", "maturity", "ctd", "max_mean_integral", "psi", "gamma_clamped"],
              rows)
    write_csv(out / "max_moments.csv",
              ["time", "max_mean", "max_variance"],
              zip(detail.moments.times, detail.moments.mean, detail.moments.variance))
    print(f"ctd deterministic = {fmt(det)}")
    print(f"ctd common_factor = {fmt(detail.value)}")
    return 0


def _run_sensitivity(cfg: ExperimentConfig, model, out: Path, svg: bool) -> int:
    values = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    rows = sensitivity_profile(
        model, cfg.t0, cfg.maturity, cfg.sens_kind, values,
        index=cfg.sens_index, epsilon=cfg.epsilon, nodes_per_year=cfg.nodes_per_year,
    )
    write_csv(out / "sensitivity.csv",
              ["parameter", "bump_index", "ctd_det", "ctd_cf", "dctd_det", "dctd_cf"],
              [(r.parameter, r.bump_index, r.ctd_det, r.ctd_cf, r.dctd_det, r.dctd_cf)
               for r in rows])
    if svg:
        base = [r for r in rows if r.bump_index == rows[0].bump_index]
        svg_line_chart(out / "sensitivity.svg", [r.parameter for r in base],
                       {"ctd_det": [r.ctd_det for r in base],
                        "ctd_cf": [r.ctd_cf for r in base]},
                       title=f"CTD vs {cfg.sens_kind}")
    print(f"wrote {len(rows)} sweep rows")
    return 0


def _once_each(names, what: str) -> None:
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ConfigError(f"{what} {name!r} is listed twice")


def _strategy_names(cfg: ExperimentConfig, model) -> list[str]:
    known = ["stochastic", "deterministic", "none"] + [
        f"basic_q{i}" for i in range(1, model.n_spreads + 1)
    ]
    if cfg.hedge_strategies == "all":
        return known
    names = [s.strip() for s in cfg.hedge_strategies.split(",") if s.strip()]
    if not names:
        raise ConfigError("[hedge] strategies names no strategy: list some, or write all")
    for name in names:
        if name not in known:
            raise ConfigError(
                f"unknown strategy {name!r}: expected one of {', '.join(known)} (none is basic_q0)"
            )
    _once_each(names, "strategy")
    return names


def _run_hedge(cfg: ExperimentConfig, model, out: Path, svg: bool) -> int:
    if cfg.sample_paths > cfg.mc_paths:
        raise ConfigError(f"sample_paths {cfg.sample_paths} exceeds the {cfg.mc_paths} simulated paths")
    t0, T = cfg.t0, cfg.maturity
    names = _strategy_names(cfg, model)
    schedule = model_crossing_schedule(model, t0, T)
    weights, form, stoch_pf = stochastic_strategy(
        model, t0, T, cfg.alpha0_policy, cfg.nodes_per_year
    )
    portfolios = []
    for name in names:
        if name == "stochastic":
            portfolios.append(stoch_pf)
        elif name == "deterministic":
            portfolios.append(build_deterministic_portfolio(model, schedule, t0, T, form))
        elif name == "none":
            portfolios.append(build_none_portfolio(model, t0, T, form))
        else:
            portfolios.append(build_basic_portfolio(model, int(name.removeprefix("basic_q")), t0, T, form))

    obs = np.linspace(t0, T, int(round((T - t0) * cfg.sd_points_per_year)) + 1)
    plan = SimulationPlan(cfg.mc_paths, cfg.mc_steps_per_year, T, cfg.seed, t0=t0,
                          observation_times=tuple(obs))
    bundle = simulate(model, plan)
    stats = evaluate_portfolio_paths(portfolios, bundle, n_samples=cfg.sample_paths)

    n = model.n_spreads
    alpha_cols = [f"alpha_{i}" for i in range(n + 1)]
    rows = []
    for pf, st in zip(portfolios, stats):
        alphas = [math.nan] * (n + 1)
        if pf.name == "stochastic":
            alphas = list(weights.alpha)
        elif pf.name == "none":
            alphas[0] = -1.0
        elif pf.name.startswith("basic_q"):
            alphas[int(pf.name.removeprefix("basic_q"))] = -1.0
        terminal = float(st.mean[-1])
        pred_var = weights.objective if pf.name == "stochastic" else math.nan
        rows.append([pf.name] + alphas + [pf.cash, pred_var, terminal])
    write_csv(out / "hedge_report.csv",
              ["strategy"] + alpha_cols + ["cash", "objective_variance", "terminal_value"],
              rows)
    write_csv(out / "crossing_schedule.csv", ["interval_start", "maximal_index"],
              zip(schedule.times, schedule.indices))
    header = ["time"]
    cols = [stats[0].times]
    for st in stats:
        header += [f"sd_{st.name}", f"mean_{st.name}"]
        cols += [st.sd, st.mean]
    write_csv(out / "sd_paths.csv", header, zip(*cols))
    sample_header = ["strategy", "path"] + [fmt(t) for t in stats[0].times]
    sample_rows = []
    for st in stats:
        for p in range(st.samples.shape[0]):
            sample_rows.append([st.name, p] + list(st.samples[p]))
    write_csv(out / "sample_paths.csv", sample_header, sample_rows)
    if svg:
        svg_line_chart(out / "sd_paths.svg", stats[0].times,
                       {st.name: st.sd for st in stats}, title="portfolio standard deviations")
    for pf, st in zip(portfolios, stats):
        print(f"{pf.name}: terminal value {fmt(float(st.mean[-1]))}")
    print("stochastic weights:", ", ".join(fmt(a) for a in weights.alpha))
    return 0


def _run_pnl(cfg: ExperimentConfig, model, out: Path, svg: bool) -> int:
    _once_each(cfg.pnl_schemes, "scheme")
    swap = cfg.swap(model)
    T = swap.payment_dates[-1]
    rebal = np.linspace(cfg.t0, T, int(round((T - cfg.t0) * cfg.pnl_rebalance_per_year)) + 1)
    plan = SimulationPlan(cfg.mc_paths, cfg.mc_steps_per_year, T, cfg.seed, t0=cfg.t0,
                          observation_times=(*rebal, *swap.payment_dates))
    samples = synthetic_replication_pnl(model, swap, cfg.pnl_schemes, simulate(model, plan),
                                        cfg.nodes_per_year)
    rows = []
    for scheme in cfg.pnl_schemes:
        pnl = samples[scheme]
        q = np.quantile(pnl, [0.05, 0.25, 0.5, 0.75, 0.95])
        rows.append([scheme, pnl.mean(), pnl.std(ddof=1), *q, pnl.min(), pnl.max()])
    write_csv(out / "pnl.csv",
              ["scheme", "mean", "sd", "q05", "q25", "q50", "q75", "q95", "min", "max"],
              rows)
    lo = min(s.min() for s in samples.values())
    hi = max(s.max() for s in samples.values())
    edges = np.linspace(lo, hi, 41)
    hist_rows = []
    counts = {scheme: np.histogram(s, bins=edges)[0] for scheme, s in samples.items()}
    for b in range(edges.size - 1):
        hist_rows.append([edges[b], edges[b + 1]] + [int(counts[s][b]) for s in cfg.pnl_schemes])
    write_csv(out / "pnl_hist.csv",
              ["bin_left", "bin_right"] + [f"count_{s}" for s in cfg.pnl_schemes], hist_rows)
    for scheme in cfg.pnl_schemes:
        print(f"{scheme}: terminal P&L sd {fmt(float(samples[scheme].std(ddof=1)))}")
    return 0


def _run_theta(cfg: ExperimentConfig, model, out: Path, svg: bool) -> int:
    grid = np.linspace(cfg.t0, cfg.maturity,
                       int(round((cfg.maturity - cfg.t0) * cfg.theta_intervals_per_year)) + 1)
    rows = []
    worst = 0.0
    for i in range(1, model.n_spreads + 1):
        spec = model.spread(i)
        theta = theta_piecewise(spec, grid)
        mean = mean_under_piecewise_theta(spec, grid, theta)
        target = spec.mean_curve(grid)
        err = float(np.max(np.abs(mean - target)))
        worst = max(worst, err)
        for k in range(theta.size):
            rows.append([i, grid[k], grid[k + 1], theta[k], mean[k + 1] - target[k + 1]])
    write_csv(out / "theta.csv",
              ["spread", "interval_start", "interval_end", "theta", "mean_error"], rows)
    print(f"max |mean error| = {fmt(worst)}")
    return 0


def _run_acceptance(cfg: ExperimentConfig, model, out: Path, svg: bool) -> int:
    from .validation import run_suite, write_report

    report = run_suite(cfg.acceptance_criteria)
    write_report(report, out)
    failures = [c for c in report if not c.passed]
    for case in report:
        print(f"{'PASS' if case.passed else 'FAIL'}  {case.case_id}: {case.summary}")
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
