"""Experiment configuration files: parsing, validation, serialization.

The format is line-oriented structured text: `key = value` pairs grouped
under `[section]` headers, `#` comments, lists comma-separated.  Spread
processes live in numbered sections `[spread.1]`, `[spread.2]`, ...;
correlations are `rho_i_j` keys.  Unknown keys fail with a line number and
a close-match suggestion, so configs cannot silently drift.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .curves import SpreadCurve
from .spread_model import CorrelationMatrix, HullWhiteSpec, MarketModel

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config", "bundled_config_path"]


class ConfigError(ValueError):
    """Configuration problem; message carries the offending key and line."""


_TOP_KEYS = {"seed", "command"}
_SECTION_KEYS = {
    "horizon": {"t0", "maturity", "nodes_per_year"},
    "domestic": {"kappa", "xi", "curve.grid", "curve.values"},
    "spread": {"kappa", "xi", "curve.grid", "curve.values"},
    "correlation": None,  # rho_i_j keys validated structurally
    "mc": {"paths", "steps_per_year", "antithetic"},
    "hedge": {"strategies", "alpha0_policy", "sd_points_per_year", "sample_paths"},
    "sensitivity": {"kind", "index", "sweep_start", "sweep_stop", "sweep_count", "epsilon"},
    "pnl": {"payment_dates", "fixed_rate", "notional", "rebalance_per_year", "schemes"},
    "theta": {"intervals_per_year"},
    "acceptance": {"criteria"},
}
_COMMANDS = ("price", "sensitivity", "hedge", "simulate-pnl", "calibrate-theta", "acceptance")


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description."""

    command: str = "price"
    seed: int = 20240
    t0: float = 0.0
    maturity: float = 10.0
    nodes_per_year: int = 48
    domestic: dict = field(default_factory=dict)
    spreads: list = field(default_factory=list)
    correlations: dict = field(default_factory=dict)
    mc_paths: int = 100_000
    mc_steps_per_year: int = 80
    mc_antithetic: bool = False
    hedge_strategies: str = "all"
    alpha0_policy: str = "cash_neutral"
    sd_points_per_year: int = 4
    sample_paths: int = 8
    sens_kind: str = "mean_level"
    sens_index: int = 2
    sweep_start: float = 0.0
    sweep_stop: float = 0.02
    sweep_count: int = 21
    epsilon: float = 1e-4
    pnl_payment_dates: tuple = ()
    pnl_fixed_rate: str | float = "par"
    pnl_notional: float = 1.0
    pnl_rebalance_per_year: int = 4
    pnl_schemes: tuple = ("none", "deterministic", "common_factor")
    theta_intervals_per_year: int = 12
    acceptance_criteria: str = "all"

    def build_model(self) -> MarketModel:
        if not self.spreads:
            raise ConfigError("no [spread.N] sections found")
        n = len(self.spreads)
        specs = []
        for block in [self.domestic] + self.spreads:
            missing = {"kappa", "xi", "curve.grid", "curve.values"} - set(block)
            if missing:
                raise ConfigError(f"process block missing keys: {sorted(missing)}")
            curve = SpreadCurve(block["curve.grid"], block["curve.values"])
            specs.append(HullWhiteSpec(block["kappa"], block["xi"], curve))
        entries = np.eye(n + 1)
        for (i, j), rho in self.correlations.items():
            if not (0 <= i <= n and 0 <= j <= n):
                raise ConfigError(f"rho_{i}_{j} references a process that does not exist")
            entries[i, j] = entries[j, i] = rho
        return MarketModel(specs[0], specs[1:], CorrelationMatrix(entries))

    def swap(self):
        from .instruments import SwapSpec

        if not self.pnl_payment_dates:
            raise ConfigError("[pnl] payment_dates is required for simulate-pnl")
        rate = self.pnl_fixed_rate
        return SwapSpec(self.pnl_notional, 0.0 if rate == "par" else float(rate),
                        self.pnl_payment_dates)


def _parse_scalar(text: str):
    raw = text.strip()
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    if "," in raw:
        return tuple(_parse_scalar(part) for part in raw.split(",") if part.strip())
    try:
        if raw.lower().startswith("0x"):
            return int(raw, 16)
        f = float(raw)
        return int(f) if f.is_integer() and ("e" not in raw.lower() and "." not in raw) else f
    except ValueError:
        return raw


def _suggest(key: str, candidates) -> str:
    close = difflib.get_close_matches(key, list(candidates), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse configuration text; raise ConfigError with line context."""
    cfg = ExperimentConfig()
    section = None
    spread_blocks: dict[int, dict] = {}
    seen_spread_curve = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{source}:{lineno}: malformed section header {line!r}")
            section = line[1:-1].strip().lower()
            base = section.split(".", 1)[0]
            if base not in _SECTION_KEYS:
                raise ConfigError(
                    f"{source}:{lineno}: unknown section [{section}]"
                    f"{_suggest(base, _SECTION_KEYS)}"
                )
            if base == "spread":
                try:
                    idx = int(section.split(".", 1)[1])
                except (IndexError, ValueError):
                    raise ConfigError(
                        f"{source}:{lineno}: spread sections are [spread.1], [spread.2], ..."
                    ) from None
                if idx < 1:
                    raise ConfigError(f"{source}:{lineno}: spread indices start at 1")
                spread_blocks.setdefault(idx, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        parsed = _parse_scalar(value)
        if section is None:
            if key not in _TOP_KEYS:
                raise ConfigError(
                    f"{source}:{lineno}: unknown top-level key {key!r}{_suggest(key, _TOP_KEYS)}"
                )
            if key == "seed":
                cfg.seed = int(parsed)
            else:
                cfg.command = str(parsed)
            continue
        base = section.split(".", 1)[0]
        allowed = _SECTION_KEYS[base]
        if base == "correlation":
            parts = key.split("_")
            if len(parts) != 3 or parts[0] != "rho":
                raise ConfigError(
                    f"{source}:{lineno}: correlation keys look like rho_1_2, got {key!r}"
                )
            cfg.correlations[(int(parts[1]), int(parts[2]))] = float(parsed)
            continue
        if allowed is not None and key not in allowed:
            raise ConfigError(
                f"{source}:{lineno}: unknown key {key!r} in [{section}]{_suggest(key, allowed)}"
            )
        if base == "spread":
            idx = int(section.split(".", 1)[1])
            spread_blocks[idx][key] = parsed
            seen_spread_curve[(idx, key)] = lineno
        elif base == "domestic":
            cfg.domestic[key] = parsed
        elif base == "horizon":
            if key == "t0":
                cfg.t0 = float(parsed)
            elif key == "maturity":
                cfg.maturity = float(parsed)
            else:
                cfg.nodes_per_year = int(parsed)
        elif base == "mc":
            if key == "paths":
                cfg.mc_paths = int(parsed)
            elif key == "steps_per_year":
                cfg.mc_steps_per_year = int(parsed)
            else:
                cfg.mc_antithetic = bool(parsed)
        elif base == "hedge":
            if key == "strategies":
                cfg.hedge_strategies = parsed if isinstance(parsed, str) else ",".join(map(str, parsed))
            elif key == "alpha0_policy":
                cfg.alpha0_policy = str(parsed)
            elif key == "sd_points_per_year":
                cfg.sd_points_per_year = int(parsed)
            else:
                cfg.sample_paths = int(parsed)
        elif base == "sensitivity":
            if key == "kind":
                cfg.sens_kind = str(parsed)
            elif key == "index":
                cfg.sens_index = int(parsed)
            elif key == "sweep_start":
                cfg.sweep_start = float(parsed)
            elif key == "sweep_stop":
                cfg.sweep_stop = float(parsed)
            elif key == "sweep_count":
                cfg.sweep_count = int(parsed)
            else:
                cfg.epsilon = float(parsed)
        elif base == "pnl":
            if key == "payment_dates":
                dates = parsed if isinstance(parsed, tuple) else (parsed,)
                cfg.pnl_payment_dates = tuple(float(d) for d in dates)
            elif key == "fixed_rate":
                cfg.pnl_fixed_rate = parsed if parsed == "par" else float(parsed)
            elif key == "notional":
                cfg.pnl_notional = float(parsed)
            elif key == "rebalance_per_year":
                cfg.pnl_rebalance_per_year = int(parsed)
            else:
                schemes = parsed if isinstance(parsed, tuple) else (parsed,)
                cfg.pnl_schemes = tuple(str(s) for s in schemes)
        elif base == "theta":
            cfg.theta_intervals_per_year = int(parsed)
        elif base == "acceptance":
            cfg.acceptance_criteria = str(parsed)
    if cfg.command not in _COMMANDS:
        raise ConfigError(
            f"{source}: unknown command {cfg.command!r}{_suggest(cfg.command, _COMMANDS)}"
        )
    cfg.spreads = [spread_blocks[i] for i in sorted(spread_blocks)]
    if sorted(spread_blocks) != list(range(1, len(spread_blocks) + 1)):
        raise ConfigError(f"{source}: spread sections must be numbered 1..N without gaps")
    return cfg


def apply_override(cfg: ExperimentConfig, dotted: str, value: str) -> None:
    """Apply a --set override like 'horizon.maturity=20' or 'spread.1.xi=0.002'."""
    parts = dotted.lower().split(".")
    parsed = _parse_scalar(value)

    def known(section: str, key: str) -> str:
        allowed = _SECTION_KEYS[section]
        if key not in allowed:
            raise ConfigError(
                f"--set {dotted}: unknown key {key!r} in [{section}]{_suggest(key, allowed)}"
            )
        return key

    try:
        if parts[0] in ("seed", "command"):
            setattr(cfg, parts[0], int(parsed) if parts[0] == "seed" else str(parsed))
        elif parts[0] == "horizon":
            attr = {"t0": "t0", "maturity": "maturity", "nodes_per_year": "nodes_per_year"}[parts[1]]
            setattr(cfg, attr, type(getattr(cfg, attr))(parsed))
        elif parts[0] == "mc":
            attr = {"paths": "mc_paths", "steps_per_year": "mc_steps_per_year",
                    "antithetic": "mc_antithetic"}[parts[1]]
            setattr(cfg, attr, type(getattr(cfg, attr))(parsed))
        elif parts[0] == "domestic":
            cfg.domestic[known("domestic", ".".join(parts[1:]))] = parsed
        elif parts[0] == "spread":
            idx = int(parts[1])
            if not 1 <= idx <= len(cfg.spreads):
                raise ConfigError(f"--set {dotted}: spread indices run 1..{len(cfg.spreads)}")
            cfg.spreads[idx - 1][known("spread", ".".join(parts[2:]))] = parsed
        elif parts[0] == "correlation":
            cfg.correlations[(int(parts[1].split("_")[1]), int(parts[1].split("_")[2]))] = float(parsed)
        elif parts[0] == "hedge":
            attr = {"strategies": "hedge_strategies", "alpha0_policy": "alpha0_policy",
                    "sd_points_per_year": "sd_points_per_year", "sample_paths": "sample_paths"}[parts[1]]
            if isinstance(parsed, tuple):
                parsed = ",".join(map(str, parsed))
            setattr(cfg, attr, type(getattr(cfg, attr))(parsed))
        elif parts[0] == "sensitivity":
            attr = {"kind": "sens_kind", "index": "sens_index", "sweep_start": "sweep_start",
                    "sweep_stop": "sweep_stop", "sweep_count": "sweep_count", "epsilon": "epsilon"}[parts[1]]
            setattr(cfg, attr, type(getattr(cfg, attr))(parsed))
        elif parts[0] == "pnl":
            key = parts[1]
            if key == "payment_dates":
                cfg.pnl_payment_dates = tuple(float(x) for x in (parsed if isinstance(parsed, tuple) else (parsed,)))
            elif key == "fixed_rate":
                cfg.pnl_fixed_rate = parsed if parsed == "par" else float(parsed)
            elif key == "notional":
                cfg.pnl_notional = float(parsed)
            elif key == "rebalance_per_year":
                cfg.pnl_rebalance_per_year = int(parsed)
            elif key == "schemes":
                cfg.pnl_schemes = tuple(str(s) for s in (parsed if isinstance(parsed, tuple) else (parsed,)))
            else:
                raise KeyError(key)
        elif parts[0] == "theta":
            known("theta", ".".join(parts[1:]))
            cfg.theta_intervals_per_year = int(parsed)
        else:
            raise KeyError(parts[0])
    except (KeyError, IndexError):
        raise ConfigError(f"--set {dotted}: unknown configuration path") from None


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (tuple, list, np.ndarray)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


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
        f"antithetic = {_fmt(cfg.mc_antithetic)}",
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
    return "\n".join(lines) + "\n"


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        bundled = bundled_config_path(str(path))
        if bundled is not None:
            p = bundled
        else:
            raise ConfigError(f"config file {path!r} not found")
    return parse_config(p.read_text(encoding="utf-8"), source=str(p))


def bundled_config_path(name: str) -> Path | None:
    """Resolve a bundled example config by bare name (e.g. 'experiment1')."""
    stem = name.removesuffix(".cfg")
    candidate = Path(__file__).parent / "configs" / f"{stem}.cfg"
    return candidate if candidate.exists() else None
