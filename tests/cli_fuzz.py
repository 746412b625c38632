"""Seeded random `--set` overrides for the `ctd` CLI, one run each.

Usage: CTD_THREADS=2 python tests/cli_fuzz.py [--seed 1] [--runs 40]

Each run draws a command and overrides that the config accepts (horizons
inside the bundled curves, positive grid counts, payment dates on a
tenth-of-a-year grid, half of the swaps starting at a `t0` before their
first date, a quarter of the runs with a `rho_0_1` in [-0.5, 0.5]) and
executes it at `--paths 300` in a fresh interpreter on the `src/` tree
next to this script.  Exit codes 0, 2 (configuration error) and 3
(numerical failure) are outcomes the CLI promises; any other code is a
crash.  A run that exits 0 prints the note on the domestic-spread
correlation exactly when its `rho_0_1` is nonzero and its domestic rate
is stochastic, which among the drawn configs is swap_pnl's alone.  About
a third of the runs then add one input outside the model: a maturity past
the curves' end, a negative `t0` for `price`, a first payment date at the
start or a `t0` at or after it, `--paths` of -3 or 0, a hedge maturity at
or before `t0`, or an empty hedge strategy list.  Such a run must exit
exactly 2.
The valid draws come from their own stream, so they do not depend on the
invalid ones.  The script prints every run that breaks its rule with the
tail of its stderr, the exit codes of both kinds, and exits 1 if any run
broke its rule.  Not a collected test: 40 runs take a few minutes on two
cores.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HORIZON = 12.0  # the bundled configs' curves end here


def _maturity(rng: random.Random) -> str:
    return f"{rng.uniform(0.2, HORIZON - 0.1):.1f}"


def _late(rng: random.Random) -> str:
    """A time past the curves' end."""
    return f"{rng.uniform(HORIZON + 0.1, 20.0):.1f}"


def _draw(rng: random.Random) -> list[str]:
    command = rng.choice(["hedge", "hedge", "simulate-pnl", "price"])
    sets: dict[str, object] = {}
    if command == "hedge":
        config = rng.choice(["experiment1", "experiment2"])
        sets["horizon.maturity"] = _maturity(rng)
        sets["mc.steps_per_year"] = rng.randint(1, 100)
        sets["hedge.sd_points_per_year"] = rng.randint(1, 24)
        sets["hedge.sample_paths"] = rng.randint(1, 8)
    elif command == "simulate-pnl":
        config = "swap_pnl"
        end = rng.randint(2, int(HORIZON * 10) - 1)
        dates = sorted(rng.sample(range(1, end + 1), min(end, rng.randint(1, 6))))
        sets["pnl.payment_dates"] = ",".join(f"{d / 10:g}" for d in dates)
        if rng.random() < 0.5:  # the swap starts at a t0 on the grid before its first date
            sets["horizon.t0"] = f"{rng.randrange(dates[0]) / 10:g}"
        sets["mc.steps_per_year"] = rng.randint(1, 100)
        sets["pnl.rebalance_per_year"] = rng.randint(1, 24)
    else:
        config = rng.choice(["experiment1", "experiment2", "swap_pnl"])
        sets["horizon.maturity"] = _maturity(rng)
    sets["horizon.nodes_per_year"] = rng.randint(4, 48)
    if rng.random() < 0.25:  # a domestic-spread correlation, which only the simulator sees
        sets["correlation.rho_0_1"] = f"{rng.uniform(-0.5, 0.5):.2f}"
    args = [command, "--config", config, "--paths", "300"]
    for key, value in sets.items():
        args += ["--set", f"{key}={value}"]
    return args


def _invalid(rng: random.Random, args: list[str]) -> list[str]:
    """One override outside what the model accepts, appended after the valid ones."""
    command = args[0]
    kind = rng.choice(["maturity", "paths", *{"price": ["t0"],
                                              "simulate-pnl": ["first_date", "late_start"],
                                              "hedge": ["empty_horizon", "no_strategies"]}[command]])
    if kind == "paths":
        return ["--paths", rng.choice(["-3", "0"])]
    if kind == "t0":
        return ["--set", f"horizon.t0={rng.uniform(-2.0, -0.1):.1f}"]
    if kind == "empty_horizon":
        t0 = rng.uniform(1.0, HORIZON - 0.1)
        return ["--set", f"horizon.t0={t0:.1f}", "--set", f"horizon.maturity={rng.uniform(0.2, t0):.1f}"]
    if kind == "no_strategies":
        return ["--set", "hedge.strategies="]
    if command != "simulate-pnl":
        return ["--set", f"horizon.maturity={_late(rng)}"]
    dates = next(a for a in args if a.startswith("pnl.payment_dates=")).partition("=")[2]
    if kind == "first_date":
        return ["--set", f"pnl.payment_dates=0,{dates}"]
    if kind == "late_start":
        first = float(dates.split(",")[0])
        return ["--set", f"horizon.t0={rng.uniform(first, min(first + 1.0, HORIZON)):.1f}"]
    return ["--set", f"pnl.payment_dates={dates},{_late(rng)}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=40)
    opts = parser.parse_args(argv)
    rng = random.Random(opts.seed)
    invalid_rng = random.Random(f"invalid-{opts.seed}")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    codes: dict[bool, Counter[int]] = {False: Counter(), True: Counter()}
    broken = 0
    with tempfile.TemporaryDirectory(prefix="ctd-fuzz-") as tmp:
        for run in range(opts.runs):
            args = _draw(rng)
            invalid = invalid_rng.random() < 1 / 3
            if invalid:
                args += _invalid(invalid_rng, args)
            proc = subprocess.run(
                [sys.executable, "-m", "ctdhedge.cli", *args, "--out", str(Path(tmp) / str(run))],
                env=env, capture_output=True, text=True,
            )
            codes[invalid][proc.returncode] += 1
            rho = next((a for a in args if a.startswith("correlation.rho_0_1=")), "=0")
            noted = float(rho.partition("=")[2]) != 0.0 and "swap_pnl" in args
            if proc.returncode == 0 and noted != ("only the simulator sees" in proc.stdout):
                broken += 1
                print(f"run {run}: the domestic-spread note is {'missing' if noted else 'unwanted'}"
                      f"  ctd {' '.join(args)}")
            elif proc.returncode not in ((2,) if invalid else (0, 2, 3)):
                broken += 1
                print(f"run {run}: exit {proc.returncode}  ctd {' '.join(args)}")
                print("".join(proc.stderr.splitlines(keepends=True)[-3:]), end="")
    for invalid, name, rule in ((False, "valid", "0, 2 or 3"), (True, "invalid", "2")):
        print(f"{sum(codes[invalid].values())} {name} runs (must exit {rule}); "
              f"exit codes {dict(sorted(codes[invalid].items()))}")
    print(f"{opts.runs} runs, {broken} broke their rule")
    return 1 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main())
