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
reused across steps and copies its rows into its own path columns of the
[process, observation, path] bundle at observation nodes, so every reader
takes contiguous rows.  Blocks run concurrently on
`CTD_THREADS` worker threads (default: the CPUs this process may use);
numpy releases the interpreter lock inside the random fills and array
loops, and the results do not depend on the worker count.  These blocks
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
    and running integrals are stored on the bundle; `step_grid` is the
    uniform grid united with them, so each is a step node exactly.  Every
    path draws its own shocks, so the paths are independent and the
    estimators' standard errors are the plain sample ones.
    """

    n_paths: int
    steps_per_year: int
    horizon: float
    seed: int
    t0: float = 0.0
    observation_times: tuple[float, ...] | None = None

    def __post_init__(self):
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

    def step_grid(self) -> np.ndarray:
        n = max(1, int(round((self.horizon - self.t0) * self.steps_per_year)))
        grid = np.linspace(self.t0, self.horizon, n + 1)
        return np.unique(np.concatenate((grid, self.observation_grid())))

    def observation_grid(self) -> np.ndarray:
        if self.observation_times is None:
            return np.asarray([self.t0, self.horizon])
        obs = np.unique(np.asarray(self.observation_times, dtype=float))
        if obs[0] < self.t0 - 1e-12 or obs[-1] > self.horizon + 1e-12:
            raise ModelValidationError("observation times outside [t0, horizon]")
        if abs(obs[0] - self.t0) > 1e-12:
            obs = np.concatenate(([self.t0], obs))
        if abs(obs[-1] - self.horizon) > 1e-12:
            obs = np.concatenate((obs, [self.horizon]))
        return obs


@dataclass(frozen=True)
class PathBundle:
    """
    Simulated market states and running integrals at observation times.

    values[j, k, p] is process j at observation k on path p: process 0 is the
    domestic rate, 1..N are the collateral spreads, and each (j, k) is one
    contiguous row of paths.  integrals[j, k, p] holds the trapezoidal running
    integrals of the same processes on the fine step grid and max_integral[k, p]
    that of max(0, q_1, ..., q_N), as views of one [N + 2, obs, paths] array.
    """

    model: MarketModel
    plan: SimulationPlan
    times: np.ndarray
    values: np.ndarray
    integrals: np.ndarray
    max_integral: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.values.shape[-1]

    def observation_index(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(float(self.times[idx]) - t) > 1e-9:
            raise ModelValidationError(f"time {t:g} is not an observation node")
        return idx

    def displacements(self, t: float) -> np.ndarray:
        """Centred OU offsets u_i(t) of the spread processes, [paths, N] (a transposed view)."""
        k = self.observation_index(t)
        means = [s.mean_curve(float(t)) for s in self.model.spreads]
        return (self.values[1:, k] - np.array(means)[:, None]).T

    def bank_factor(self, t0: float, t1: float) -> np.ndarray:
        """Pathwise accrual exp(int_t0^t1 r_0) between observation nodes."""
        k0, k1 = self.observation_index(t0), self.observation_index(t1)
        return np.exp(self.integrals[0, k1] - self.integrals[0, k0])


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

    Returns a bundle with states and running integrals at the plan's
    observation times.  Identical plans (same seed) give bitwise-identical
    results at any `CTD_THREADS`.  Paths advance in blocks of 16384.
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
    stoch_idx = np.array([j for j, s in enumerate(specs) if s.xi > 0.0], dtype=int)

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

    # the floored maximum's running integral is the integrals' last row
    out_values = np.empty((n_proc, obs.size, n_paths))
    out_integrals = np.empty((n_proc + 1, obs.size, n_paths))

    # paths advance in fixed-size blocks, each with its own counter-based
    # stream keyed on (seed, block) and its own output columns, so the blocks
    # run concurrently and results are independent of scheduling
    def run(block: int) -> None:
        lo = block * _PATH_BLOCK
        hi = min(lo + _PATH_BLOCK, n_paths)
        _simulate_block(
            plan, grid, record_step, means_grid, cache, stoch_idx, block,
            out_values[..., lo:hi], out_integrals[..., lo:hi],
        )

    from concurrent.futures import ThreadPoolExecutor

    blocks = range((n_paths + _PATH_BLOCK - 1) // _PATH_BLOCK)
    with ThreadPoolExecutor(min(len(blocks), workers)) as pool:
        list(pool.map(run, blocks))
    return PathBundle(model, plan, obs, out_values, out_integrals[:n_proc], out_integrals[n_proc])


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
    plan, grid, record_step, means_grid, cache, stoch_idx, block, out_values, out_integrals,
):
    # State is process-major ([proc, paths]) in buffers reused across steps,
    # with max(0, q_1..q_N) as one more row after the processes; every update
    # is the row-major scheme's arithmetic, element for element, so the paths
    # are bitwise those of a (paths, proc) layout.
    n_proc, n_obs, n = out_values.shape
    key = np.array([plan.seed % 2**64, block], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
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
            out_values[:, cursor] = level[:n_proc]
            out_integrals[:, cursor] = integrals
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

    Returns (estimate, standard error); both t0 and T must be observation
    nodes of the bundle.
    """
    return mc_expectation(bundle, "ctd", t0, T)


_PAYOFF_ARITY = {"bond": 1, "bond_squared": 1, "joint_bond": 2, "shifted_max": 1,
                 "collateral_bond_pc": 0, "ctd": 0}


def _payoff_samples(bundle: PathBundle, payoff: str, k0: int, k1: int) -> np.ndarray:
    m = re.fullmatch(r"(\w+)(?:\((.*)\))?", payoff)
    if not m or m[1] not in _PAYOFF_ARITY:
        raise ModelValidationError(f"unknown payoff {payoff!r}; expected bond(i), bond_squared(i), "
                                   "joint_bond(i,j), shifted_max(i), collateral_bond_pc or ctd")
    name, hi = m[1], bundle.values.shape[0] - 1
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
    ints = bundle.integrals
    seg = lambda j: ints[j, k1] - ints[j, k0]  # noqa: E731
    max_seg = bundle.max_integral[k1] - bundle.max_integral[k0]
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
    and ``ctd``.  Returns (estimate, standard error).
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
