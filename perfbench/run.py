"""ctdhedge benchmark: one workload, one process, one client in a closed loop.

    python3 perfbench/run.py --workload hedge_mc --seed 1 --seconds 15 --trace 0

Run from the repository root.  Workloads (see perfbench/README.md):
hedge_mc, swap_pnl, quote_stream.  The seed generates every input; the
package receives only those inputs.  Each operation starts when the previous
one has returned and been checked; checks run outside the timed interval and
a failed check counts as a failed operation.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 each operation is run once untraced and once traced on the same
input, a run ends on a whole trace round of such pairs, and the last line
carries the per-layer metrics.  Per-operation digests, counts and the
environment go to .perfbench_out/ in the checkout, spans of a traced run too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = ("CTD_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
WORKLOAD_NAMES = ("hedge_mc", "swap_pnl", "quote_stream")

END_TO_END_UNITS = {"op_s_p50": "s", "op_s_p90": "s", "ops_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "montecarlo.simulate.path_steps": "count",
    "montecarlo.simulate.ns_per_path_step": "ns",
    "montecarlo.simulate.out_mb": "MB",
    "ctd.table.anchors": "count",
    "ctd.table.states": "count",
    "ctd.table.ms_per_anchor": "ms",
    "ctd.conditional.ns_per_state_node": "ns",
    "ctd.table.evaluate.ns_per_query": "ns",
    "ctd.table.clamped_query_frac": "fraction",
    "hedging.evaluate_portfolio_paths.ns_per_path_time": "ns",
    "hedging.synthetic_replication_pnl.ns_per_path_time": "ns",
    "ctd.common_factor.ms_per_call": "ms",
    "ctd.shifted_max.ms_per_call": "ms",
    "ctd.psi.self_s": "s",
    "hedging.assemble_quadratic.ms_per_call": "ms",
    "spread_model.spread_covariance.calls_per_op": "count",
    "hedging.solve_min_variance.ms_per_call": "ms",
    "hedging.qp.kkt_residual_max": "ratio",
    "sensitivity.ctd_sensitivity.ms_per_call": "ms",
    "instruments.calls_per_op": "count",
    "curves.max_curve_breakpoints.calls_per_op": "count",
    "config.load_s": "s",
    "reporting.write_csv.self_s": "s",
    "reporting.bytes_written": "bytes",
    "montecarlo.simulate.op_share": "fraction",
    "ctd.table.op_share": "fraction",
    "hedging.evaluate_portfolio_paths.op_share": "fraction",
    "hedging.synthetic_replication_pnl.op_share": "fraction",
    "hedging.stochastic_strategy.op_share": "fraction",
    "run.cpu_s_per_op": "s",
    "run.uncovered_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_thread_cap() -> int:
    """Cap every numerical pool at the CPUs this process may use (before numpy loads)."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def measure_setup(workload: str) -> list[float]:
    """Seconds to first operation, from SETUP_PROBES fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        launched = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "--workload", workload,
             "--launched-ns", str(launched)],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def environment(args, nthreads: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind = _read(f"{base}/level"), _read(f"{base}/type")
        if level and kind != "Instruction":
            caches[f"L{level}"] = _read(f"{base}/size")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict form
        blas = None
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "thread_cap": nthreads,
        "cpu_model": cpu_model, "caches": caches, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "git_commit": commit, "src_sha256": src.hexdigest(),
    }


def run_op(wl, i: int, tracer=None) -> dict:
    """Issue operation i, time it, then check it outside the timed interval."""
    inp = wl.make_input(i)
    traced = tracer.operation() if tracer is not None else contextlib.nullcontext()
    error = None
    with traced:
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            out = wl.operate(inp)
        except Exception:  # counted as a failed operation, with its traceback
            out, error = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    rec = {"index": i, "traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
           "completed": error is None}
    if error is None:
        try:
            ok, digest, detail = wl.check(inp, out)
        except Exception:
            ok, digest, detail = False, None, {"problems": [traceback.format_exc()]}
    else:
        wl.discard()
        ok, digest, detail = False, None, {"problems": [error]}
    rec.update(ok=ok, digest=digest, detail=detail)
    return rec


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "ctdhedge" / "__init__.py").is_file():
        print(f"no ctdhedge sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nthreads = set_thread_cap()
    sys.path.insert(0, str(SRC))
    setup_probes = measure_setup(args.workload)

    import numpy as np

    import ctdhedge
    import layers
    import workloads

    if Path(ctdhedge.__file__).resolve().parent != SRC / "ctdhedge":
        print(f"imported ctdhedge from {ctdhedge.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    env = environment(args, nthreads)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{stem}-work-{os.getpid()}"
    workdir.mkdir()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = layers.Tracer() if args.trace else None

    records = []
    pairs = []  # (untraced, traced) records of a traced run
    try:
        with wl.capture:
            start = time.perf_counter()
            i = 0
            while True:
                if tracer is None:
                    records.append(run_op(wl, i))
                    done = len(records) % wl.round_ops == 0
                else:
                    plain, traced = run_op(wl, i), run_op(wl, i, tracer)
                    if traced["ok"] and plain["digest"] != traced["digest"]:
                        traced["ok"] = False
                        traced["detail"]["problems"].append("tracing changed the outputs")
                    records += [plain, traced]
                    pairs.append((plain, traced))
                    done = len(pairs) % wl.trace_round == 0
                i += 1
                if done and time.perf_counter() - start >= args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    plain = [r for r in records if not r["traced"]]
    walls = [r["wall_s"] for r in plain]
    completed = sum(r["completed"] for r in plain)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        values = {
            "op_s_p50": float(np.quantile(walls, 0.5)),
            "op_s_p90": float(np.quantile(walls, 0.9)),
            "ops_per_s": completed / sum(walls),
            "setup_s": statistics.median(setup_probes),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        overhead = statistics.median(t["wall_s"] / p["wall_s"] - 1.0 for p, t in pairs)
        cpu_per_op = statistics.mean(r["cpu_s"] for r in plain)
        values = tracer.per_layer_metrics(cpu_per_op, overhead)
        units = PER_LAYER_UNITS
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")

    run_digest = hashlib.sha256(
        "".join(f"{r['index']}:{r['digest']};" for r in plain).encode()).hexdigest()
    record = {
        "env": env, "setup_probes_s": setup_probes, "attempted": attempted, "failed": failed,
        "failed_op_frac": failed / attempted, "run_digest": run_digest, "operations": records,
        "calls_per_traced_op": [dict(c) for c in tracer.counts] if tracer else None,
        "largest_spans_s": tracer.largest_spans() if tracer else None,
        "metrics": values,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                      encoding="utf-8")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations, {failed} failed, "
          f"failed_op_frac {failed / attempted:.6g}, run digest {run_digest[:16]}")
    for r in records:
        for problem in r["detail"].get("problems", []):
            print(f"  op {r['index']}{' traced' if r['traced'] else ''}: {problem}")
    if tracer is not None:
        print("largest spans: " + ", ".join(f"{n} {s:.3f} s" for n, s in tracer.largest_spans()))
    for name, value in values.items():
        print(f"  {name:<52} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
