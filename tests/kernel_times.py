"""Cost of the common-factor moment kernel per (row x component), on one or two trees.

Usage: python tests/kernel_times.py [--repeat N] [--json FILE] TREE_A [TREE_B]

Times `ctd._cf_pipeline` on generated N-spread models, N = 1..8, with every
spread correlation nonnegative (a positive common factor) and with every one
negative (the common factor clamps to zero), each as a plain pass and as a
pivot pass over all N spreads (as `hedging.assemble_quadratic` makes it), at
one maturity of 5 years and 48 nodes per year.  A row is one time node of
the pass's grid, so the figure is the pass's wall time over (nodes x N), in
ns.  Each tree runs all cases in a fresh interpreter on its own `src/` at
CTD_THREADS=1, best of 5 calls after one warm-up call; this repeats N times
(default 3) per tree, and with two trees the tree that goes first
alternates from repetition to repetition.  It prints the median over
repetitions per case and tree, and each pivot pass over its plain pass;
`--json` writes them with every single measurement.  Not a collected test:
one repetition takes about ten seconds per tree on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

MATURITY = 5.0
NODES_PER_YEAR = 48
CALLS = 5


def _model(n: int, negative: bool):
    """n spreads, every correlation pair nonnegative or every pair negative."""
    from ctdhedge import CorrelationMatrix, HullWhiteSpec, MarketModel, SpreadCurve

    rng = np.random.default_rng([n, int(negative)])
    h = 12.0
    dom = HullWhiteSpec(0.05, 0.0, SpreadCurve.constant(0.0, 0.0, h))
    spreads = [
        HullWhiteSpec(float(rng.uniform(0.01, 0.5)), float(rng.uniform(5e-4, 1e-2)),
                      SpreadCurve([0.0, float(rng.uniform(1.0, 11.0)), h], rng.uniform(-0.02, 0.02, 3)))
        for _ in range(n)
    ]
    a = rng.uniform(0.2, 1.0, n)
    corr = np.eye(n + 1)
    corr[1:, 1:] = (-0.9 / max(n - 1, 1) if negative else 0.8) * np.outer(a, a)
    np.fill_diagonal(corr, 1.0)
    return MarketModel(dom, spreads, CorrelationMatrix(corr))


def _child() -> None:
    """Time every case on the `ctdhedge` of PYTHONPATH; print one JSON line."""
    from ctdhedge import ctd

    out = []
    for n in range(1, 9):
        for negative in (False, True):
            model = _model(n, negative)
            rows = ctd._model_time_grid(model, 0.0, MATURITY, NODES_PER_YEAR).size
            for kind, pivots in (("plain", ()), ("pivot", tuple(range(1, n + 1)))):
                ctd._cf_pipeline(model, 0.0, (MATURITY,), NODES_PER_YEAR, pivots=pivots)
                best = np.inf
                for _ in range(CALLS):
                    start = time.perf_counter()
                    ctd._cf_pipeline(model, 0.0, (MATURITY,), NODES_PER_YEAR, pivots=pivots)
                    best = min(best, time.perf_counter() - start)
                out.append({"n": n, "corr": "negative" if negative else "positive", "pass": kind,
                            "rows": rows, "ns_per_row_component": best * 1e9 / (rows * n)})
    print(json.dumps(out))


def _measure(tree: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), CTD_THREADS="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", type=Path, metavar="TREE")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--json", type=Path, default=None)
    opts = parser.parse_args(argv)
    if len(opts.trees) > 2 or opts.repeat < 1:
        parser.error("give one or two trees and --repeat of at least 1")
    trees = [t.resolve() for t in opts.trees]
    samples: dict[tuple, list[float]] = {}
    rows = {}
    for rep in range(opts.repeat):
        for tree in trees if rep % 2 == 0 else trees[::-1]:
            for case in _measure(tree):
                key = (str(tree), case["n"], case["corr"], case["pass"])
                samples.setdefault(key, []).append(round(case["ns_per_row_component"], 1))
                rows[key[1:]] = case["rows"]
    median = {key: float(np.median(v)) for key, v in samples.items()}
    print(f"{'n':>2s} {'corr':>8s} {'rows':>5s} {'tree':>4s} {'plain_ns':>9s} {'pivot_ns':>9s} "
          f"{'ratio':>6s}")
    summary = []
    for n in range(1, 9):
        for corr in ("positive", "negative"):
            for label, tree in zip("AB", trees):
                plain = median[(str(tree), n, corr, "plain")]
                pivot = median[(str(tree), n, corr, "pivot")]
                print(f"{n:2d} {corr:>8s} {rows[(n, corr, 'plain')]:5d} {label:>4s} {plain:9.1f} "
                      f"{pivot:9.1f} {pivot / plain:6.2f}")
                summary.append({"n": n, "corr": corr, "tree": str(tree),
                                "rows": rows[(n, corr, "plain")],
                                "plain_ns_per_row_component": round(plain, 1),
                                "pivot_ns_per_row_component": round(pivot, 1),
                                "pivot_over_plain": round(pivot / plain, 3),
                                "plain_samples": samples[(str(tree), n, corr, "plain")],
                                "pivot_samples": samples[(str(tree), n, corr, "pivot")]})
    if opts.json is not None:
        opts.json.write_text(json.dumps({"repeat": opts.repeat, "ctd_threads": 1,
                                         "maturity": MATURITY, "nodes_per_year": NODES_PER_YEAR,
                                         "calls": CALLS, "cases": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:  # one tree's cases, in the interpreter `_measure` started
        _child()
    else:
        raise SystemExit(main())
