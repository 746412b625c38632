"""Seeded random valid `--set` overrides for the `ctd` CLI, one run each.

Usage: CTD_THREADS=2 python tests/cli_fuzz.py [--seed 1] [--runs 40]

Each run draws a command and overrides that the config accepts (horizons
inside the bundled curves, positive grid counts, payment dates on a
tenth-of-a-year grid) and executes it at `--paths 300` in a fresh
interpreter on the `src/` tree next to this script.  Exit codes 0, 2
(configuration error) and 3 (numerical failure) are outcomes the CLI
promises; any other code is a crash.  The script prints every crashing run
with the tail of its stderr and exits 1 if there was one.  Not a collected
test: 40 runs take a few minutes on two cores.
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
        sets["mc.steps_per_year"] = rng.randint(1, 100)
        sets["pnl.rebalance_per_year"] = rng.randint(1, 24)
    else:
        config = rng.choice(["experiment1", "experiment2", "swap_pnl"])
        sets["horizon.maturity"] = _maturity(rng)
    sets["horizon.nodes_per_year"] = rng.randint(4, 48)
    args = [command, "--config", config, "--paths", "300"]
    for key, value in sets.items():
        args += ["--set", f"{key}={value}"]
    return args


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=40)
    opts = parser.parse_args(argv)
    rng = random.Random(opts.seed)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    codes: Counter[int] = Counter()
    with tempfile.TemporaryDirectory(prefix="ctd-fuzz-") as tmp:
        for run in range(opts.runs):
            args = _draw(rng)
            proc = subprocess.run(
                [sys.executable, "-m", "ctdhedge.cli", *args, "--out", str(Path(tmp) / str(run))],
                env=env, capture_output=True, text=True,
            )
            codes[proc.returncode] += 1
            if proc.returncode not in (0, 2, 3):
                print(f"run {run}: exit {proc.returncode}  ctd {' '.join(args)}")
                print("".join(proc.stderr.splitlines(keepends=True)[-3:]), end="")
    crashes = sum(n for code, n in codes.items() if code not in (0, 2, 3))
    print(f"{opts.runs} runs, {crashes} crashes; exit codes {dict(sorted(codes.items()))}")
    return 1 if crashes else 0


if __name__ == "__main__":
    raise SystemExit(main())
