"""Exact-step Monte Carlo simulation of the correlated spread market.

The domestic rate and every collateral spread are simulated through the
exact conditional Gaussian transition of their centred Ornstein-Uhlenbeck
components, so path marginals carry no discretization error; only the
pathwise time integrals (trapezoidal on the step grid) do.  The resulting
bundles back every semi-analytic quantity in the package with an unbiased
statistical estimate.

The step grid is the uniform grid united with the observation times, and
the simulator records exactly those steps; callers reach a time's row
through `PathBundle.observation_index`, the one 1e-9 tolerance.

Paths advance in fixed-size blocks, each with its own counter-based random
stream.  A block keeps its state process-major ([process, path]) in buffers
reused across steps and copies into its own path columns of the bundle only
what some reader takes there: at every observation node the stochastic
states and the domestic running integral (the bank account), and at the
horizon the running integrals of the spreads and of the floored maximum,
which every payoff reads over the whole [t0, horizon] and which are 0.0 at
t0.  A zero-volatility process is the same on every path, so the bundle
holds it as one [observation] curve, copied from the first path of block 0;
`PathBundle.value` and `PathBundle.integral` return any process's row
either way.  Blocks run concurrently on `CTD_THREADS` worker threads
(default: the CPUs this process may use); numpy releases the interpreter
lock inside the random fills and array loops, and the results do not
depend on the worker count.  These blocks
are the package's only threads; the pricing kernels run on the calling
thread.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .spread_model import MarketModel, ModelValidationError, _ou_covariance

__all__ = ["SimulationPlan", "PathBundle", "simulate", "mc_ctd", "mc_expectation"]


@dataclass(frozen=True)
class SimulationPlan:
    """
    Reproducible simulation request.

    The transition scheme is fixed to the exact Ornstein-Uhlenbeck step;
    `steps_per_year` only controls the resolution of pathwise integrals.
    `observation_times`, joined with {t0, T}, are the times at which states
    and the domestic running integral are stored on the bundle; a time
    within 1e-12 of t0 or T is that end.  `step_grid` is the uniform grid
    united with them, so each is a step node exactly.  Every path draws
    its own shocks, so the paths are independent and the estimators'
    standard errors are the plain sample ones.
    """

    n_paths: int
    steps_per_year: int
    horizon: float
    seed: int
    t0: float = 0.0
    observation_times: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("n_paths", "steps_per_year"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ModelValidationError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_paths < 2:
            raise ModelValidationError("need at least two paths")
        if self.steps_per_year < 1:
            raise ModelValidationError("steps_per_year must be at least 1")
        obs = () if self.observation_times is None else tuple(self.observation_times)
        if not all(map(math.isfinite, (self.t0, self.horizon, *obs))):
            raise ModelValidationError("t0, horizon and observation times must be finite")
        if self.observation_times is not None and not obs:
            raise ModelValidationError("observation_times is empty; None records t0 and the horizon")
        if self.horizon <= self.t0:
            raise ModelValidationError("horizon must exceed the start time")
        if obs and (min(obs) < self.t0 - 1e-12 or max(obs) > self.horizon + 1e-12):
            raise ModelValidationError("observation times outside [t0, horizon]")

    def step_grid(self) -> np.ndarray:
        n = max(1, int(round((self.horizon - self.t0) * self.steps_per_year)))
        grid = np.linspace(self.t0, self.horizon, n + 1)
        return np.unique(np.concatenate((grid, self.observation_grid())))

    def observation_grid(self) -> np.ndarray:
        if self.observation_times is None:
            return np.asarray([self.t0, self.horizon])
        obs = np.asarray(self.observation_times, dtype=float)
        # snapped onto the ends, so no sliver step starts the grid and the
        # running integrals are exactly 0.0 at t0
        for end in (self.t0, self.horizon):
            obs = np.where(np.abs(obs - end) <= 1e-12, end, obs)
        obs = np.unique(obs)
        if obs[0] != self.t0:
            obs = np.concatenate(([self.t0], obs))
        if obs[-1] != self.horizon:
            obs = np.concatenate((obs, [self.horizon]))
        return obs


@dataclass(frozen=True)
class PathBundle:
    """
    Simulated market states and running integrals at observation times.

    Process 0 is the domestic rate and 1..N are the collateral spreads;
    `value(j, k)` and `integral(j, k)` return process j's row of paths at
    observation k, its state and its trapezoidal running integral from t0
    on the fine step grid.  States and the domestic integral are kept at
    every observation.  A spread's integral, and max_integral[p], that of
    max(0, q_1, ..., q_N), are kept at the horizon only: every payoff reads
    them over the whole [t0, horizon], and they are 0.0 at t0.  Asking for
    one at an interior observation raises `ModelValidationError`.

    The stochastic processes' (xi > 0) states, in process order, are
    values[r, k, p], each (r, k) one contiguous row of paths.  Each row
    integrals[i, p] is one kept running integral: first the domestic rate's
    at every observation when it moves, then each stochastic spread's at
    the horizon, in process order; integrals and max_integral are views of
    one array.  A zero-volatility process is one row of curve_values[d, k]
    and curve_integrals[d, k], in process order, and its accessor rows are
    read-only broadcasts of those curves.
    """

    model: MarketModel
    plan: SimulationPlan
    times: np.ndarray
    values: np.ndarray
    integrals: np.ndarray
    max_integral: np.ndarray
    curve_values: np.ndarray
    curve_integrals: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.plan.n_paths

    def value(self, j: int, k: int) -> np.ndarray:
        """Process j at observation k, [paths]."""
        row, moves = self._rank(j)
        if moves:
            return self.values[row, k]
        return np.broadcast_to(self.curve_values[j - row, k], (self.n_paths,))

    def integral(self, j: int, k: int) -> np.ndarray:
        """
        Running integral of process j from t0 to observation k, [paths].

        A spread's (j >= 1) is kept at t0 and the horizon only; at any
        other observation this raises `ModelValidationError`.
        """
        last = self.times.size - 1
        k = range(last + 1)[k]  # a negative k counts from the end, as in the arrays
        if j and 0 < k < last:
            raise ModelValidationError(
                f"the integral of spread {j} is kept at t0 and the horizon only, "
                f"not at t = {float(self.times[k]):g}")
        row, moves = self._rank(j)
        if not moves:
            return np.broadcast_to(self.curve_integrals[j - row, k], (self.n_paths,))
        if j == 0:
            return self.integrals[k]
        if k == 0:
            return np.broadcast_to(0.0, (self.n_paths,))
        # the domestic rate's rows, when it moves, come before the spreads' horizon rows
        domestic = _stochastic(self.model)[0]
        bank_rows = self.times.size if domestic else 0
        return self.integrals[bank_rows + row - domestic]

    def _rank(self, j: int) -> tuple[int, bool]:
        """(stochastic processes before j, whether j is stochastic)."""
        if not 0 <= j <= self.model.n_spreads:
            raise IndexError(f"process index {j} is outside 0..{self.model.n_spreads}")
        stochastic = _stochastic(self.model)
        return sum(stochastic[:j]), stochastic[j]

    def observation_index(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(float(self.times[idx]) - t) > 1e-9:
            raise ModelValidationError(f"time {t:g} is not an observation node")
        return idx

    def displacements(self, t: float) -> np.ndarray:
        """Centred OU offsets u_i(t) of the spread processes, [paths, N] (a transposed view)."""
        k = self.observation_index(t)
        out = np.empty((self.model.n_spreads, self.n_paths))
        for i, s in enumerate(self.model.spreads):
            np.subtract(self.value(i + 1, k), s.mean_curve(float(t)), out=out[i])
        return out.T

    def bank_factor(self, t0: float, t1: float) -> np.ndarray:
        """Pathwise accrual exp(int_t0^t1 r_0) between observation nodes, t0 <= t1."""
        k0, k1 = self.observation_index(t0), self.observation_index(t1)
        if k1 < k0:
            raise ModelValidationError(f"t1 {t1:g} is before t0 {t0:g}")
        return np.exp(self.integral(0, k1) - self.integral(0, k0))


def _stochastic(model: MarketModel) -> list[bool]:
    """Per process, in process order: does it move (xi > 0)?"""
    return [s.xi > 0.0 for s in (model.domestic, *model.spreads)]


def _step_covariance(model: MarketModel, dt: float, idx: np.ndarray) -> np.ndarray:
    """Exact covariance of the OU innovations over one step (procs in idx)."""
    specs = [model.domestic, *model.spreads]
    kappa = np.array([specs[j].kappa for j in idx])
    xi = np.array([specs[j].xi for j in idx])
    return _ou_covariance(kappa, xi, model.correlations.entries[np.ix_(idx, idx)], dt)


def _safe_cholesky(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # deterministic drivers produce zero rows; clip tiny negative modes
        w, v = np.linalg.eigh(cov)
        if w.min() < -1e-12 * max(w.max(), 1e-300):
            raise ModelValidationError(
                f"step covariance is not positive semidefinite (smallest eigenvalue "
                f"{w.min():.3g}); check the correlation matrix"
            )
        return v * np.sqrt(np.clip(w, 0.0, None))


def simulate(model: MarketModel, plan: SimulationPlan) -> PathBundle:
    """
    Simulate (r_0, q_1, ..., q_N) under the exact OU transition.

    Returns a bundle with states and the domestic running integral at the
    plan's observation times, and the spreads' and the floored maximum's
    running integrals at its horizon.  Identical plans (same seed) give
    bitwise-identical results at any `CTD_THREADS`.  Paths advance in blocks of 16384.
    """
    workers = block_workers()
    grid = plan.step_grid()
    obs = plan.observation_grid()
    n_proc = model.n_spreads + 1
    n_paths = plan.n_paths
    specs = [model.domestic] + list(model.spreads)

    # forecast means for every process along the whole step grid, computed once
    means_grid = np.stack([s.mean_curve(grid) for s in specs], axis=1)

    # zero-volatility processes never leave their forecast curve
    stochastic = _stochastic(model)
    stoch_idx = np.flatnonzero(stochastic)

    # transition coefficients per distinct step size
    cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    for k in range(grid.size - 1):
        dt = float(grid[k + 1] - grid[k])
        key = round(dt, 12)
        if key not in cache:
            decay = np.exp(-np.array([specs[j].kappa for j in stoch_idx]) * dt)
            chol = _safe_cholesky(_step_covariance(model, dt, stoch_idx))
            cache[key] = (decay, chol)
    record_step = np.isin(grid, obs)  # the observation times are members of the grid

    # the stochastic states at every observation; the domestic integral at
    # every observation when it moves, then the stochastic spreads' and the
    # floored maximum's at the horizon; each zero-volatility process is one
    # curve
    n_stoch = stoch_idx.size
    n_bank = obs.size if stochastic[0] else 0
    out_values = np.empty((n_stoch, obs.size, n_paths))
    out_integrals = np.empty((n_bank + n_stoch - stochastic[0] + 1, n_paths))
    curves = np.empty((2, n_proc - n_stoch, obs.size))

    # paths advance in fixed-size blocks, each with its own counter-based
    # stream keyed on (seed, block) and its own output columns, so the blocks
    # run concurrently and results are independent of scheduling
    def run(block: int) -> None:
        lo = block * _PATH_BLOCK
        hi = min(lo + _PATH_BLOCK, n_paths)
        _simulate_block(
            plan, grid, record_step, means_grid, cache, stochastic, block,
            out_values[..., lo:hi], out_integrals[:, lo:hi], curves,
        )

    from concurrent.futures import ThreadPoolExecutor

    blocks = range((n_paths + _PATH_BLOCK - 1) // _PATH_BLOCK)
    with ThreadPoolExecutor(min(len(blocks), workers)) as pool:
        list(pool.map(run, blocks))
    return PathBundle(model, plan, obs, out_values, out_integrals[:-1], out_integrals[-1],
                      curves[0], curves[1])


_PATH_BLOCK = 16384


def block_workers() -> int:
    """
    Worker threads for the simulation blocks: `CTD_THREADS`, else the CPUs
    this process may use.  Results do not depend on it.
    """
    raw = os.environ.get("CTD_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ModelValidationError(f"CTD_THREADS must be a positive integer, got {raw!r}")
    return workers


def _simulate_block(
    plan, grid, record_step, means_grid, cache, stochastic, block, out_values, out_integrals,
    curves,
):
    # State is process-major ([proc, paths]) in buffers reused across steps,
    # with max(0, q_1..q_N) as one more row after the processes; every update
    # is the row-major scheme's arithmetic, element for element, so the paths
    # are bitwise those of a (paths, proc) layout.  A zero-volatility row
    # equals its first path everywhere: only the stochastic rows are
    # recorded, and block 0 copies the others' first paths into the curves.
    # The domestic integral is recorded at every observation when it moves,
    # the spreads' and the maximum's at the last one, the horizon.
    n_proc = len(stochastic)
    _, n_obs, n = out_values.shape
    key = np.array([plan.seed % 2**64, block], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    stoch_idx = np.flatnonzero(stochastic)
    det_idx = np.flatnonzero(np.logical_not(stochastic))
    at_horizon = np.append(stoch_idx[stoch_idx > 0], n_proc)
    n_bank = out_integrals.shape[0] - at_horizon.size
    n_stoch = stoch_idx.size

    u = np.zeros((n_stoch, n))
    z = np.empty((n, n_stoch))
    shock = np.empty((n, n_stoch))
    level = np.empty((n_proc + 1, n))
    prev_level = np.empty((n_proc + 1, n))
    integrals = np.zeros((n_proc + 1, n))
    scaled = np.empty((n_proc + 1, n))

    def floored_max(lv):
        out = lv[n_proc]
        np.copyto(out, lv[1])
        for j in range(2, n_proc):
            np.maximum(out, lv[j], out=out)
        np.maximum(0.0, out, out=out)

    level[:n_proc] = means_grid[0][:, None]
    floored_max(level)
    cursor = 0
    for k, record in enumerate(record_step):
        if k:
            dt = float(grid[k] - grid[k - 1])
            half = 0.5 * dt
            decay, chol = cache[round(dt, 12)]
            level, prev_level = prev_level, level
            np.multiply(half, prev_level, out=scaled)
            integrals += scaled
            if n_stoch:
                rng.standard_normal(out=z)
                u *= decay[:, None]
                np.matmul(z, chol.T, out=shock)
                u += shock.T
            level[:n_proc] = means_grid[k][:, None]
            for r, j in enumerate(stoch_idx):
                level[j] += u[r]
            floored_max(level)
            np.multiply(half, level, out=scaled)
            integrals += scaled
        if record:
            out_values[:, cursor] = level[stoch_idx]
            if n_bank:
                out_integrals[cursor] = integrals[0]
            if cursor == n_obs - 1:
                out_integrals[n_bank:] = integrals[at_horizon]
            if block == 0:
                curves[:, :, cursor] = level[det_idx, 0], integrals[det_idx, 0]
            cursor += 1
    if cursor != n_obs:
        raise RuntimeError("observation bookkeeping failed")


def _estimate(samples: np.ndarray) -> tuple[float, float]:
    est = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(samples.size))
    return est, se


def mc_ctd(bundle: PathBundle, t0: float, T: float) -> tuple[float, float]:
    """
    Monte Carlo CTD factor: mean of exp(-int_t0^T max(0, q_1..q_N)).

    Returns (estimate, standard error).  The bundle keeps the maximum's
    integral at its horizon only, so [t0, T] must be the bundle's own
    [t0, horizon]; any other pair raises `ModelValidationError`.
    """
    return mc_expectation(bundle, "ctd", t0, T)


_PAYOFF_ARITY = {"bond": 1, "bond_squared": 1, "joint_bond": 2, "shifted_max": 1,
                 "collateral_bond_pc": 0, "ctd": 0}


def _payoff_samples(bundle: PathBundle, payoff: str, k0: int, k1: int) -> np.ndarray:
    m = re.fullmatch(r"(\w+)(?:\((.*)\))?", payoff)
    if not m or m[1] not in _PAYOFF_ARITY:
        raise ModelValidationError(f"unknown payoff {payoff!r}; expected bond(i), bond_squared(i), "
                                   "joint_bond(i,j), shifted_max(i), collateral_bond_pc or ctd")
    name, hi = m[1], bundle.model.n_spreads
    lo = 1 if name == "shifted_max" else 0
    try:
        args = [int(a) for a in m[2].split(",")] if m[2] else []
    except ValueError:
        args = None
    if args is None or len(args) != _PAYOFF_ARITY[name] or not all(lo <= i <= hi for i in args):
        raise ModelValidationError(
            f"{name} takes {_PAYOFF_ARITY[name]} integer {'spread' if lo else 'process'} "
            f"index(es) in {lo}..{hi}, got {payoff!r}"
        )
    reads_max = name in ("shifted_max", "collateral_bond_pc", "ctd")
    if (reads_max or any(args)) and (k0, k1) != (0, bundle.times.size - 1):
        raise ModelValidationError(
            f"{payoff} reads integrals that the bundle keeps over [t0, horizon] only, "
            f"not over [{bundle.times[k0]:g}, {bundle.times[k1]:g}]")
    seg = lambda j: bundle.integral(j, k1) - bundle.integral(j, k0)  # noqa: E731
    max_seg = bundle.max_integral  # the running integral at the horizon; 0.0 at t0
    if name == "bond":
        return np.exp(-seg(*args))
    if name == "bond_squared":
        return np.exp(-2.0 * seg(*args))
    if name == "joint_bond":
        return np.exp(-(seg(args[0]) + seg(args[1])))
    if name == "shifted_max":
        return np.exp(-(max_seg + seg(*args)))
    if name == "collateral_bond_pc":
        return np.exp(-(max_seg + seg(0)))
    return np.exp(-max_seg)


def mc_expectation(
    bundle: PathBundle,
    payoff: str,
    t0: float | None = None,
    T: float | None = None,
) -> tuple[float, float]:
    """
    Monte Carlo estimate of a named pathwise discount functional.

    Payoffs: ``bond(i)`` = exp(-int q_i) (i = 0 gives the domestic bond),
    ``bond_squared(i)``, ``joint_bond(i,j)``, ``shifted_max(i)`` =
    exp(-int (max + q_i)), ``collateral_bond_pc`` = exp(-int (max + r_0)),
    and ``ctd``.  Returns (estimate, standard error).  t0 and T default to
    the plan's t0 and horizon.  The bundle keeps the spreads' and the
    maximum's integrals at those two times only, so only payoffs of the
    domestic rate alone (``bond(0)``, ``bond_squared(0)``,
    ``joint_bond(0,0)``) take other observation times; for the rest any
    other pair raises `ModelValidationError`, as does T before t0.
    """
    t0 = bundle.plan.t0 if t0 is None else t0
    T = bundle.plan.horizon if T is None else T
    k0, k1 = bundle.observation_index(t0), bundle.observation_index(T)
    if k1 < k0:
        raise ModelValidationError(f"T {T:g} is before t0 {t0:g}")
    return _estimate(_payoff_samples(bundle, payoff, k0, k1))


def mc_covariance(bundle: PathBundle, payoff_a: str, payoff_b: str) -> tuple[float, float]:
    """
    Sample covariance of two payoffs with a delta-method standard error.
    """
    k0 = bundle.observation_index(bundle.plan.t0)
    k1 = bundle.observation_index(bundle.plan.horizon)
    xa = _payoff_samples(bundle, payoff_a, k0, k1)
    xb = _payoff_samples(bundle, payoff_b, k0, k1)
    n = xa.size
    da = xa - xa.mean()
    db = xb - xb.mean()
    prod = da * db
    cov = float(np.sum(prod) / (n - 1))
    # SE of the sample covariance via the variance of the product terms
    se = float(np.std(prod, ddof=1) / math.sqrt(n))
    return cov, se
