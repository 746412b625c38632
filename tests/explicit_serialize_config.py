"""Reference for the serializer test: `serialize_config` as it was before it
was built from the key tables, verbatim, with every section and key written
out by hand."""

from __future__ import annotations

from ctdhedge.config import ExperimentConfig, _fmt


def serialize_config(cfg: ExperimentConfig) -> str:
    """Write the effective configuration (defaults expanded) back to text."""
    lines = [
        f"seed = {cfg.seed}",
        f"command = {cfg.command}",
        "",
        "[horizon]",
        f"t0 = {_fmt(cfg.t0)}",
        f"maturity = {_fmt(cfg.maturity)}",
        f"nodes_per_year = {cfg.nodes_per_year}",
        "",
        "[domestic]",
    ]
    for key in ("kappa", "xi", "curve.grid", "curve.values"):
        lines.append(f"{key} = {_fmt(cfg.domestic[key])}")
    for i, block in enumerate(cfg.spreads, start=1):
        lines += ["", f"[spread.{i}]"]
        for key in ("kappa", "xi", "curve.grid", "curve.values"):
            lines.append(f"{key} = {_fmt(block[key])}")
    lines += ["", "[correlation]"]
    for (i, j) in sorted(cfg.correlations):
        lines.append(f"rho_{i}_{j} = {_fmt(cfg.correlations[(i, j)])}")
    lines += [
        "",
        "[mc]",
        f"paths = {cfg.mc_paths}",
        f"steps_per_year = {cfg.mc_steps_per_year}",
        "",
        "[hedge]",
        f"strategies = {cfg.hedge_strategies}",
        f"alpha0_policy = {cfg.alpha0_policy}",
        f"sd_points_per_year = {cfg.sd_points_per_year}",
        f"sample_paths = {cfg.sample_paths}",
        "",
        "[sensitivity]",
        f"kind = {cfg.sens_kind}",
        f"index = {cfg.sens_index}",
        f"sweep_start = {_fmt(cfg.sweep_start)}",
        f"sweep_stop = {_fmt(cfg.sweep_stop)}",
        f"sweep_count = {cfg.sweep_count}",
        f"epsilon = {_fmt(cfg.epsilon)}",
        "",
        "[theta]",
        f"intervals_per_year = {cfg.theta_intervals_per_year}",
    ]
    if cfg.pnl_payment_dates:
        lines += [
            "",
            "[pnl]",
            f"payment_dates = {_fmt(cfg.pnl_payment_dates)}",
            f"fixed_rate = {_fmt(cfg.pnl_fixed_rate)}",
            f"notional = {_fmt(cfg.pnl_notional)}",
            f"rebalance_per_year = {cfg.pnl_rebalance_per_year}",
            f"schemes = {', '.join(cfg.pnl_schemes)}",
        ]
    if cfg.acceptance_criteria != "all":
        lines += ["", "[acceptance]", f"criteria = {cfg.acceptance_criteria}"]
    return "\n".join(lines) + "\n"
