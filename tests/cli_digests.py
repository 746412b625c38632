"""sha256 digests of the `ctd` CLI's artifacts and stdout on eleven small runs.

Usage: CTD_THREADS=2 python tests/cli_digests.py

Runs each command in a fresh interpreter (so the thread cap applies before
numpy loads) on the `src/` tree next to this script, and prints one line
per artifact and per stdout: `<sha256>  <run>/<file>`.  Two trees hold the
same bytes when the outputs of this script at the same CTD_THREADS are
equal, which one `diff` shows.  Not a collected test: it takes about
20 s on two cores.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RUNS = {
    "price_experiment1": ["price", "--config", "experiment1"],
    "price_experiment2": ["price", "--config", "experiment2"],
    "sensitivity_fig2": ["sensitivity", "--config", "fig2_sensitivity"],
    "sensitivity_fig5": ["sensitivity", "--config", "fig5_sensitivity",
                         "--set", "sensitivity.sweep_count=5"],
    "hedge_experiment1": ["hedge", "--config", "experiment1", "--paths", "4000"],
    "hedge_experiment2": ["hedge", "--config", "experiment2", "--paths", "4000"],
    "simulate_pnl": ["simulate-pnl", "--config", "swap_pnl", "--paths", "4000"],
    # the seed and the scheme list enter through --set, parsed as the file's entries are
    "simulate_pnl_set": ["simulate-pnl", "--config", "swap_pnl", "--paths", "2000",
                         "--set", "seed=20241", "--set", "pnl.schemes=common_factor,none"],
    "calibrate_theta": ["calibrate-theta", "--config", "experiment1"],
    # a swap that starts at t0 = 1, after the model's start, priced and hedged from there
    "simulate_pnl_forward": ["simulate-pnl", "--config", "swap_pnl", "--paths", "2000",
                             "--set", "horizon.t0=1", "--set", "pnl.payment_dates=2,3,4"],
    # three spreads: the conditional tables integrate their moments on the panels
    "hedge_three_spreads": ["hedge", "--config", "three_spreads", "--paths", "2000",
                            "--set", "horizon.maturity=2", "--set", "hedge.sd_points_per_year=2"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    failed = 0
    with tempfile.TemporaryDirectory(prefix="ctd-digests-") as tmp:
        for name, args in RUNS.items():
            out = Path(tmp) / name
            proc = subprocess.run(
                [sys.executable, "-m", "ctdhedge.cli", *args, "--out", str(out)],
                env=env, capture_output=True,
            )
            if proc.returncode != 0:
                failed += 1
                print(f"exit {proc.returncode}  {name}", file=sys.stderr)
                sys.stderr.write(proc.stderr.decode(errors="replace"))
            print(f"{_sha(proc.stdout)}  {name}/stdout")
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                print(f"{_sha(path.read_bytes())}  {name}/{path.relative_to(out)}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
