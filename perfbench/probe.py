"""Set-up probe: time from interpreter launch until a workload can issue its first operation.

Run by `run.py` in a fresh interpreter:

    python3 perfbench/probe.py --workload hedge_mc --launched-ns <monotonic ns>

It imports the package (and scipy's lazily loaded `interpolate`, which the
conditional tables need), loads the bundled configs the workload uses and
builds their models, then prints the elapsed seconds since `--launched-ns`,
read on the system-wide monotonic clock by the parent just before launch.
"""

import argparse
import sys
import time
from pathlib import Path

CONFIGS = {"hedge_mc": ("experiment1", "experiment2"), "swap_pnl": ("swap_pnl",), "quote_stream": ()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    parser.add_argument("--launched-ns", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import scipy.interpolate  # noqa: F401
    import ctdhedge
    from ctdhedge import cli  # noqa: F401
    from ctdhedge.config import load_config

    for name in CONFIGS[args.workload]:
        load_config(name).build_model()
    if not CONFIGS[args.workload]:
        # the quote desk builds its models from parameters, not configs
        curve = ctdhedge.SpreadCurve([0.0, 6.0, 12.0], [0.01, 0.012, 0.011])
        spec = ctdhedge.HullWhiteSpec(0.05, 0.005, curve)
        ctdhedge.MarketModel(spec, [spec, spec], ctdhedge.CorrelationMatrix.from_single(0.3))
    print(f"{(time.monotonic_ns() - args.launched_ns) * 1e-9:.9f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
