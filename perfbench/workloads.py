"""The three benchmark workloads: inputs from the seed, one operation, its check.

A workload object is built once per run (after the imports it needs) and then
driven by `run.py` in a closed loop.  `make_input(i)` generates the i-th
operation's input from the workload seed; `operate(inp)` is the timed user
request; `check(inp, out)` verifies the result outside the timed interval and
returns `(ok, digest, detail)`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from pathlib import Path

import numpy as np
import scipy.interpolate  # noqa: F401  (loaded lazily by the tables; set-up, not an operation)

import ctdhedge
from ctdhedge import cli, montecarlo
from ctdhedge.config import load_config

# the CF oracle check: |mc - cf| within this many Monte Carlo standard errors
ORACLE_SE = 4.0


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _op_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, 0xC7D])
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=count)]


class BundleCapture:
    """Keeps the PathBundle of the last simulation made by the CLI.

    The CLI discards its bundle; the oracle check needs it without simulating
    again, so the name `simulate` in the CLI's namespace is pointed at this
    pass-through for the run and restored afterwards.  It calls
    `montecarlo.simulate` by module attribute, so a traced run still sees it.
    """

    def __init__(self):
        self.bundle = None
        self._original = None

    def __enter__(self):
        self._original = cli.simulate

        def simulate(model, plan):
            self.bundle = montecarlo.simulate(model, plan)
            return self.bundle

        cli.simulate = simulate
        return self

    def __exit__(self, *exc):
        cli.simulate = self._original
        self.bundle = None

    def take(self):
        bundle, self.bundle = self.bundle, None
        return bundle


class _CliWorkload:
    """One `ctd <command>` run in-process per operation, on a bundled config."""

    command = ""
    configs: tuple[str, ...] = ()
    artifacts: tuple[str, ...] = ()
    round_ops = 1  # runs end on a whole round of operations
    trace_round = 1  # traced runs end on a whole round of (untraced, traced) pairs

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.cfgs = {name: load_config(name) for name in self.configs}
        self._seeds = _op_seeds(seed, 4096)
        self.capture = BundleCapture()

    def make_input(self, i: int) -> dict:
        name = self.configs[i % len(self.configs)]
        out = self.workdir / f"op{i:04d}"
        if out.exists():
            shutil.rmtree(out)
        argv = [self.command, "--config", name, "--out", str(out), "--seed", str(self._seeds[i])]
        return {"config": name, "seed": self._seeds[i], "out": out, "argv": argv}

    def operate(self, inp: dict):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(inp["argv"])

    def discard(self):
        """Drop what a failed operation left behind."""
        self.capture.take()

    def check(self, inp: dict, code) -> tuple[bool, str, dict]:
        bundle = self.capture.take()
        out = inp["out"]
        digests = {}
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        for name in self.artifacts:
            path = out / name
            if path.is_file():
                digests[name] = _sha256_file(path)
            else:
                problems.append(f"missing {name}")
        if not problems:
            problems += self._check_outputs(inp, out, bundle)
        shutil.rmtree(out, ignore_errors=True)
        digest = hashlib.sha256(
            "".join(f"{k}:{v};" for k, v in sorted(digests.items())).encode()
        ).hexdigest()
        return not problems, digest, {"config": inp["config"], "op_seed": inp["seed"],
                                      "artifacts": digests, "problems": problems}

    def _oracle(self, cfg, bundle, T: float) -> list[str]:
        """Monte Carlo CTD factor of the operation's own paths against the CF factor."""
        if bundle is None:
            return ["no simulation bundle captured"]
        mc, se = montecarlo.mc_ctd(bundle, cfg.t0, T)
        cf = ctdhedge.ctd_common_factor(bundle.model, cfg.t0, T, cfg.nodes_per_year)
        z = (mc - cf) / se if se > 0.0 else math.inf
        return [] if abs(z) <= ORACLE_SE else [f"oracle |z| = {abs(z):.2f} > {ORACLE_SE}"]

    def _check_outputs(self, inp, out: Path, bundle) -> list[str]:
        raise NotImplementedError


class HedgeMC(_CliWorkload):
    """`ctd hedge` on experiment1 and experiment2, alternating, bundled size."""

    command = "hedge"
    configs = ("experiment1", "experiment2")
    artifacts = ("effective.cfg", "hedge_report.csv", "crossing_schedule.csv",
                 "sd_paths.csv", "sample_paths.csv")
    round_ops = 2  # one of each config

    def _check_outputs(self, inp, out: Path, bundle) -> list[str]:
        problems = []
        header, rows = _read_csv(out / "sd_paths.csv")
        table = np.array([[float(x) for x in row] for row in rows])
        col = {name: k for k, name in enumerate(header)}
        strategies = [h.removeprefix("sd_") for h in header if h.startswith("sd_")]
        for s in strategies:
            if table[0, col[f"sd_{s}"]] != 0.0 or abs(table[0, col[f"mean_{s}"]]) >= 1e-6:
                problems.append(f"{s}: nonzero value or sd at t0")
        interior = slice(1, table.shape[0] - 1)
        if not np.all(table[interior, col["sd_stochastic"]] < table[interior, col["sd_none"]]):
            problems.append("stochastic sd not below none at every interior node")
        header, rows = _read_csv(out / "hedge_report.csv")
        stoch = next(r for r in rows if r[0] == "stochastic")
        alphas = [float(v) for h, v in zip(header, stoch) if h.startswith("alpha_")]
        if not all(-1.0 <= a <= 1.0 for a in alphas):
            problems.append(f"stochastic weights outside [-1, 1]: {alphas}")
        cfg = self.cfgs[inp["config"]]
        return problems + self._oracle(cfg, bundle, cfg.maturity)


class SwapPnL(_CliWorkload):
    """`ctd simulate-pnl` on swap_pnl at the bundled size."""

    command = "simulate-pnl"
    configs = ("swap_pnl",)
    artifacts = ("effective.cfg", "pnl.csv", "pnl_hist.csv")
    round_ops = 2  # a median of more than one operation per run

    def _check_outputs(self, inp, out: Path, bundle) -> list[str]:
        problems = []
        header, rows = _read_csv(out / "pnl.csv")
        sd = {r[0]: float(r[header.index("sd")]) for r in rows}
        if not (sd["none"] > sd["deterministic"] and sd["none"] > sd["common_factor"]):
            problems.append(f"P&L sd ordering broken: {sd}")
        cfg = self.cfgs[inp["config"]]
        return problems + self._oracle(cfg, bundle, max(cfg.pnl_payment_dates))


# ---------------------------------------------------------------------------
# quote_stream: generated models, no Monte Carlo
# ---------------------------------------------------------------------------

# A round is 28 quotes: the spread counts of _N_CYCLE twice, half of them at
# N=2, once with a deterministic and once with a stochastic domestic rate
# (alternating along the cycle, so each half round has both).  The
# deterministic quote of a slot matures at m and the stochastic one at 14 - m,
# with m in [2, 12] from the golden-ratio sequence, so a round always carries
# the same pricing work (linear in maturity) and every count meets every
# maturity over the rounds.  The two quotes of a slot also differ in the sign
# of the spread correlations, all nonnegative in one and all negative in the
# other: negative covariances clamp the common factor to zero and send the
# moments to the general kernel, about twice as slow, so each round takes that
# path equally often.  Runs end on a whole round; the seed draws the markets:
# rates, volatilities, curves and correlation sizes.
_N_CYCLE = (2, 1, 2, 3, 2, 4, 2, 5, 2, 6, 2, 7, 2, 8)
QUOTE_ROUND = 2 * len(_N_CYCLE)
QUOTE_NODES_PER_YEAR = 48
CURVE_END = 12.0
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _random_model(rng: np.random.Generator, n: int, stochastic_domestic: bool,
                  negative_corr: bool):
    def curve():
        mid = rng.uniform(1.0, CURVE_END - 1.0)
        return ctdhedge.SpreadCurve([0.0, mid, CURVE_END], rng.uniform(-0.02, 0.02, size=3))

    def kappa():
        return float(np.exp(rng.uniform(np.log(1e-3), np.log(1.0))))

    dom_xi = rng.uniform(5e-4, 1e-2) if stochastic_domestic else 0.0
    domestic = ctdhedge.HullWhiteSpec(kappa(), dom_xi, curve())
    spreads = [ctdhedge.HullWhiteSpec(kappa(), rng.uniform(5e-4, 1e-2), curve()) for _ in range(n)]
    corr = np.eye(n + 1)
    if negative_corr:
        # rho_ij = -c a_i a_j with c < 1/(n-1): every pair negative, matrix positive definite
        a = rng.uniform(0.0, 1.0, size=n)
        block = -0.9 / max(n - 1, 1) * np.outer(a, a)
    else:
        # two nonnegative factors with loading norms below 0.9: every pair nonnegative
        loadings = rng.uniform(0.0, 1.0, size=(n, 2))
        loadings *= (rng.uniform(0.0, 0.9, size=n) / np.linalg.norm(loadings, axis=1))[:, None]
        block = loadings @ loadings.T
    corr[1:, 1:] = block
    np.fill_diagonal(corr, 1.0)
    return ctdhedge.MarketModel(domestic, spreads, ctdhedge.CorrelationMatrix(corr))


def quote_inputs(seed: int, i: int) -> dict:
    """The i-th quote request of the stream for `seed` (random access)."""
    rnd, pos = divmod(i, QUOTE_ROUND)
    half, slot = divmod(pos, len(_N_CYCLE))
    n = _N_CYCLE[slot]
    m = 2.0 + 10.0 * ((rnd * len(_N_CYCLE) + slot) * _GOLDEN % 1.0)
    stochastic_domestic = bool((half + slot + rnd) % 2)
    negative_corr = bool((half + slot // 2 + rnd) % 2)
    maturity = 14.0 - m if stochastic_domestic else m
    rng = np.random.default_rng([seed, 0x9E1, i])
    model = _random_model(rng, n, stochastic_domestic, negative_corr)
    return {"index": i, "n": n, "maturity": maturity, "model": model,
            "stochastic_domestic": stochastic_domestic, "negative_corr": negative_corr,
            "bump_index": int(rng.integers(1, n + 1))}


class QuoteStream:
    """One desk quote per operation: deterministic, CF, hedge weights, one bump."""

    round_ops = QUOTE_ROUND
    trace_round = len(_N_CYCLE)  # a traced run pairs one quote per spread count

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.capture = contextlib.nullcontext()

    def make_input(self, i: int) -> dict:
        return quote_inputs(self.seed, i)

    def discard(self):
        pass

    def operate(self, inp: dict):
        model, T = inp["model"], inp["maturity"]
        npy = QUOTE_NODES_PER_YEAR
        det = ctdhedge.ctd_deterministic(model, 0.0, T)
        cf = ctdhedge.ctd_common_factor_detailed(model, 0.0, T, npy)
        weights, form, _ = ctdhedge.stochastic_strategy(model, 0.0, T, "cash_neutral", npy)
        bump = ctdhedge.BumpRequest("mean_level", inp["bump_index"])
        sens = ctdhedge.ctd_sensitivity(model, 0.0, T, bump, "common_factor", npy)
        return {"det": det, "cf": cf.value, "psi": cf.psi, "alpha": weights.alpha,
                "objective": weights.objective, "degenerate": weights.alpha0_degenerate,
                "form": form, "sens": sens}

    def check(self, inp: dict, res) -> tuple[bool, str, dict]:
        problems = []
        scalars = [res["det"], res["cf"], res["psi"], res["objective"], res["sens"]]
        arrays = [res["alpha"], res["form"].matrix, res["form"].vector]
        if not (all(math.isfinite(v) for v in scalars) and all(np.all(np.isfinite(a)) for a in arrays)):
            problems.append("non-finite output")
        if not res["cf"] > 0.0:
            problems.append(f"CF factor {res['cf']} not positive")
        model, T = inp["model"], inp["maturity"]
        cond = ctdhedge.ctd.ctd_common_factor_conditional(
            model, 0.0, T, np.zeros((1, model.n_spreads)), QUOTE_NODES_PER_YEAR)
        if not abs(cond[0] - res["cf"]) <= 1e-12 * abs(res["cf"]):
            problems.append(f"conditional at t0 {cond[0]!r} != unconditional {res['cf']!r}")
        boxed = res["alpha"][1:] if res["degenerate"] else res["alpha"]
        if np.any(boxed < -1.0) or np.any(boxed > 1.0):
            problems.append(f"weights outside the box: {res['alpha']}")
        canon = ",".join(float(v).hex() for v in scalars + list(res["alpha"]))
        digest = hashlib.sha256(canon.encode()).hexdigest()
        return not problems, digest, {"n": inp["n"], "maturity": inp["maturity"],
                                      "stochastic_domestic": inp["stochastic_domestic"],
                                      "problems": problems}


WORKLOADS = {"hedge_mc": HedgeMC, "swap_pnl": SwapPnL, "quote_stream": QuoteStream}
