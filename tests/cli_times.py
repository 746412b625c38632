"""Wall time and peak memory of each bundled `ctd` run, on one or two trees.

Usage: python tests/cli_times.py [--repeat N] [--json FILE] TREE_A [TREE_B]

Runs each bundled config's own `command` at its bundled size (three_spreads
at `--set horizon.maturity=2`, as in `tests/cli_digests.py`), plus
`price --config experiment1` and `calibrate-theta --config experiment2`,
each in a fresh interpreter at CTD_THREADS=2 on the tree's `src/`.  Every
run is repeated N times (default 5) per tree; with two trees the runs come
in pairs, and the tree that goes first alternates from pair to pair.  For
each run and tree it prints the median and quartiles of the wall time and
the median peak RSS (`ru_maxrss` from `os.wait4`), and `--json` writes them
with every single measurement.  A run that does not exit 0 is reported and
makes the script exit 1.  Not a collected test: on two cores one
repetition of all runs takes about half a minute per tree.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

EXTRA = {
    "price_experiment1": ["price", "--config", "experiment1"],
    "calibrate_theta_experiment2": ["calibrate-theta", "--config", "experiment2"],
}
OVERRIDES = {"three_spreads": ["--set", "horizon.maturity=2"]}


def _runs(tree: Path) -> dict[str, list[str]]:
    """Each bundled config's own command, then the extra runs."""
    runs = {}
    for cfg in sorted((tree / "src" / "ctdhedge" / "configs").glob("*.cfg")):
        command = re.search(r"^command\s*=\s*(\S+)", cfg.read_text(), re.MULTILINE).group(1)
        runs[f"{command.replace('-', '_')}_{cfg.stem}"] = [
            command, "--config", cfg.stem, *OVERRIDES.get(cfg.stem, [])
        ]
    return runs | EXTRA


def _measure(tree: Path, args: list[str], out: Path) -> tuple[float, float, int]:
    """(wall s, peak RSS MB, exit code) of one run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), CTD_THREADS="2")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "ctdhedge.cli", *args, "--out", str(out)],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", type=Path, metavar="TREE")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--json", type=Path, default=None)
    opts = parser.parse_args(argv)
    if len(opts.trees) > 2 or opts.repeat < 1:
        parser.error("give one or two trees and --repeat of at least 1")
    trees = [t.resolve() for t in opts.trees]
    runs = _runs(trees[0])
    samples = {(name, str(t)): {"wall_s": [], "peak_rss_mb": []} for name in runs for t in trees}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="ctd-times-") as tmp:
        pair = 0
        for rep in range(opts.repeat):
            for name, args in runs.items():
                order = trees if pair % 2 == 0 else trees[::-1]
                pair += 1
                for tree in order:
                    wall, rss, code = _measure(tree, args, Path(tmp) / name)
                    if code != 0:
                        failed += 1
                        print(f"exit {code}  {name} on {tree}", file=sys.stderr)
                    record = samples[(name, str(tree))]
                    record["wall_s"].append(round(wall, 4))
                    record["peak_rss_mb"].append(round(rss, 1))
    summary = []
    print(f"{'run':34s} {'tree':>4s} {'wall_p25':>9s} {'wall_p50':>9s} {'wall_p75':>9s} {'rss_mb':>8s}")
    for (name, tree), record in samples.items():
        q1, q2, q3 = np.percentile(record["wall_s"], [25, 50, 75])
        rss = float(np.median(record["peak_rss_mb"]))
        label = "AB"[trees.index(Path(tree))]
        print(f"{name:34s} {label:>4s} {q1:9.3f} {q2:9.3f} {q3:9.3f} {rss:8.1f}")
        summary.append({"run": name, "tree": tree, "argv": runs[name],
                        "wall_s_p25": round(float(q1), 4), "wall_s_p50": round(float(q2), 4),
                        "wall_s_p75": round(float(q3), 4), "peak_rss_mb_p50": round(rss, 1),
                        **record})
    if opts.json is not None:
        opts.json.write_text(json.dumps({"repeat": opts.repeat, "ctd_threads": 2,
                                         "runs": summary}, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
