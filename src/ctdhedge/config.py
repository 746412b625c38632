"""Experiment configuration files: parsing, validation, serialization.

The format is line-oriented structured text: `key = value` pairs grouped
under `[section]` headers, `#` comments, lists comma-separated.  Spread
processes live in numbered sections `[spread.1]`, `[spread.2]`, ...;
correlations are `rho_i_j` keys.  Unknown keys fail with a line number and
a close-match suggestion, so configs cannot silently drift.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .curves import SpreadCurve
from .spread_model import CorrelationMatrix, HullWhiteSpec, MarketModel

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config", "bundled_config_path"]


class ConfigError(ValueError):
    """Configuration problem; message carries the offending key and line."""


def _joined(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _finite(value) -> float:
    """A float that is neither NaN nor infinite."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(value)
    return x


def _floats(value) -> tuple:
    return tuple(_finite(v) for v in (value if isinstance(value, tuple) else (value,)))


def _strs(value) -> tuple:
    return tuple(str(v) for v in (value if isinstance(value, tuple) else (value,)))


def _rate(value):
    return value if value == "par" else _finite(value)


def _whole(value) -> int:
    """A whole number, exact at any size; 3.9 is refused, not truncated."""
    n = int(value)
    if n != value:
        raise ValueError(value)
    return n


def _count(value) -> int:
    """A positive whole number, for the keys that size a grid or a sample."""
    n = _whole(value)
    if n < 1:
        raise ValueError(value)
    return n


# (ExperimentConfig attribute, conversion) per key, in the order
# `serialize_config` writes them; the process sections [domestic] and
# [spread.N] keep their keys in a dict per process
_PROCESS_FIELDS = {"kappa": _finite, "xi": _finite, "curve.grid": _floats, "curve.values": _floats}
_TOP_FIELDS = {"seed": ("seed", _whole), "command": ("command", str)}
_FIELDS = {
    "horizon": {"t0": ("t0", _finite), "maturity": ("maturity", _finite),
                "nodes_per_year": ("nodes_per_year", _count)},
    "mc": {"paths": ("mc_paths", _count), "steps_per_year": ("mc_steps_per_year", _count)},
    "hedge": {"strategies": ("hedge_strategies", _joined), "alpha0_policy": ("alpha0_policy", str),
              "sd_points_per_year": ("sd_points_per_year", _count),
              "sample_paths": ("sample_paths", _count)},
    "sensitivity": {"kind": ("sens_kind", str), "index": ("sens_index", _whole),
                    "sweep_start": ("sweep_start", _finite), "sweep_stop": ("sweep_stop", _finite),
                    "sweep_count": ("sweep_count", _count), "epsilon": ("epsilon", _finite)},
    "theta": {"intervals_per_year": ("theta_intervals_per_year", _count)},
    "pnl": {"payment_dates": ("pnl_payment_dates", _floats), "fixed_rate": ("pnl_fixed_rate", _rate),
            "notional": ("pnl_notional", _finite),
            "rebalance_per_year": ("pnl_rebalance_per_year", _count),
            "schemes": ("pnl_schemes", _strs)},
    "acceptance": {"criteria": ("acceptance_criteria", _joined)},
}
_SECTIONS = (*_FIELDS, "domestic", "spread", "correlation")
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
        names = ["domestic"] + [f"spread.{i}" for i in range(1, n + 1)]
        for name, block in zip(names, [self.domestic] + self.spreads):
            missing = set(_PROCESS_FIELDS) - set(block)
            if missing:
                raise ConfigError(f"[{name}] missing keys: {sorted(missing)}")
            try:
                curve = SpreadCurve(block["curve.grid"], block["curve.values"])
            except ValueError as exc:
                raise ConfigError(f"[{name}] curve: {exc}") from None
            specs.append(HullWhiteSpec(block["kappa"], block["xi"], curve))
        entries = np.eye(n + 1)
        for (i, j), rho in self.correlations.items():
            if not (0 <= i <= n and 0 <= j <= n):
                raise ConfigError(f"rho_{i}_{j} references a process that does not exist")
            entries[i, j] = entries[j, i] = rho
        return MarketModel(specs[0], specs[1:], CorrelationMatrix(entries))

    def swap(self, model: MarketModel):
        from .instruments import SwapSpec, par_rate

        if not self.pnl_payment_dates:
            raise ConfigError("[pnl] payment_dates is required for simulate-pnl")
        rate = self.pnl_fixed_rate
        if rate == "par":
            rate = par_rate(model, self.pnl_payment_dates, start=self.t0)
        return SwapSpec(self.pnl_notional, rate, self.pnl_payment_dates, start=self.t0)


def _parse_scalar(text: str):
    raw = text.strip()
    if "," in raw:
        return tuple(_parse_scalar(part) for part in raw.split(",") if part.strip())
    # an integer literal stays an exact int, whatever its size
    try:
        return int(raw, 16) if raw.lower().startswith("0x") else int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _suggest(key: str, candidates) -> str:
    close = difflib.get_close_matches(key, list(candidates), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _convert(kind, value, where: str, what: str):
    """kind(value), with a value of the wrong type reported as a ConfigError at `where`."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: invalid {what} {value!r}") from None


def _rho_key(key: str, where: str) -> tuple[int, int]:
    parts = key.split("_")
    if len(parts) != 3 or parts[0] != "rho" or not (parts[1].isdecimal() and parts[2].isdecimal()):
        raise ConfigError(f"{where}: correlation keys look like rho_1_2, got {key!r}")
    return int(parts[1]), int(parts[2])


def _assign(cfg: ExperimentConfig, section: str | None, key: str, parsed, where: str, block) -> None:
    """
    Store one parsed entry of `section` (None for the top level) on cfg.

    `block` is the key dict of the process a [domestic] or [spread.N] entry
    belongs to.  Unknown keys and unconvertible values raise ConfigError
    prefixed with `where`, the file line or the --set argument.
    """
    base = section and section.split(".", 1)[0]
    if base == "correlation":
        cfg.correlations[_rho_key(key, where)] = _convert(_finite, parsed, where, key)
        return
    fields = _TOP_FIELDS if base is None else _PROCESS_FIELDS if block is not None else _FIELDS[base]
    if key not in fields:
        scope = "top-level key" if section is None else "key"
        place = "" if section is None else f" in [{section}]"
        raise ConfigError(f"{where}: unknown {scope} {key!r}{place}{_suggest(key, fields)}")
    if block is not None:
        block[key] = _convert(fields[key], parsed, where, key)
    else:
        attr, kind = fields[key]
        setattr(cfg, attr, _convert(kind, parsed, where, key))


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse configuration text; raise ConfigError with line context."""
    cfg = ExperimentConfig()
    section = block = None
    spread_blocks: dict[int, dict] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{source}:{lineno}: malformed section header {line!r}")
            section = line[1:-1].strip().lower()
            base = section.split(".", 1)[0]
            if base not in _SECTIONS:
                raise ConfigError(
                    f"{source}:{lineno}: unknown section [{section}]"
                    f"{_suggest(base, _SECTIONS)}"
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
                block = spread_blocks.setdefault(idx, {})
            else:
                block = cfg.domestic if base == "domestic" else None
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        _assign(cfg, section, key.strip().lower(), _parse_scalar(value), f"{source}:{lineno}", block)
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
    where = f"--set {dotted}"
    section, _, key = dotted.lower().partition(".")
    if not key:
        section, key = None, section
        if key == "command":
            raise ConfigError(f"{where}: the command is the CLI's positional argument, not a setting")
    block = None
    if section == "spread":
        idx, _, key = key.partition(".")
        idx = _convert(int, idx, where, "spread index")
        if not 1 <= idx <= len(cfg.spreads):
            raise ConfigError(f"{where}: spread indices run 1..{len(cfg.spreads)}")
        block = cfg.spreads[idx - 1]
    elif section == "domestic":
        block = cfg.domestic
    elif section is not None and section not in _SECTIONS:
        raise ConfigError(f"{where}: unknown configuration path")
    _assign(cfg, section, key, _parse_scalar(value), where, block)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (tuple, list, np.ndarray)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Write the effective configuration (defaults expanded) back to text."""

    def entries(fields) -> list[str]:
        return [f"{key} = {_fmt(getattr(cfg, attr))}" for key, (attr, _) in fields.items()]

    skip = {"pnl": not cfg.pnl_payment_dates, "acceptance": cfg.acceptance_criteria == "all"}
    lines = entries(_TOP_FIELDS)
    for name, fields in _FIELDS.items():
        if skip.get(name):
            continue
        lines += ["", f"[{name}]", *entries(fields)]
        if name != "horizon":
            continue
        # the processes and their correlations follow the horizon
        spreads = [(f"spread.{i}", block) for i, block in enumerate(cfg.spreads, start=1)]
        for title, block in [("domestic", cfg.domestic), *spreads]:
            lines += ["", f"[{title}]", *(f"{key} = {_fmt(block[key])}" for key in _PROCESS_FIELDS)]
        lines += ["", "[correlation]"]
        lines += [f"rho_{i}_{j} = {_fmt(cfg.correlations[(i, j)])}" for i, j in sorted(cfg.correlations)]
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
