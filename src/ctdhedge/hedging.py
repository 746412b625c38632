"""Static hedging of the collateral-choice bond and swap P&L replication.

The target asset is the domestic zero-coupon bond carrying the collateral
choice option.  Hedging instruments are the domestic and foreign
zero-coupon bonds (and forwards on them), which do not carry the option.
Four portfolio families are built:

* the variance-minimizing static portfolio, whose weights solve a
  box-constrained quadratic program assembled from closed-form bond
  covariances and semi-analytic shifted-maximum factors,
* the crossing-time strategy, short the bond of whichever currency the
  forecast curves make maximal on each time interval (entered through
  forwards at inception),
* the basic one-bond hedges, and
* the option-blind hedge using the domestic bond alone.

A separate harness replicates the option's discount factors synthetically
on a swap and accumulates the hedge P&L account along simulated paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .ctd import (
    CTD_METHODS,
    ConditionalCtdTable,
    NumericalError,
    _cf_pipeline,
    _ctd_factors,
    _forecast_curves,
    ctd_common_factor,
)
from .curves import SpreadCurve, max_curve_breakpoints
from .instruments import SwapSpec, zcb_domestic, zcb_foreign
from .montecarlo import PathBundle
from .spread_model import (
    MarketModel,
    ModelValidationError,
    bond_moment,
    integral_covariance,
    joint_bond_moment,
)

__all__ = [
    "QuadraticForm",
    "HedgeWeights",
    "CrossingSchedule",
    "Position",
    "Portfolio",
    "PortfolioPathStats",
    "assemble_quadratic",
    "solve_min_variance",
    "crossing_schedule",
    "model_crossing_schedule",
    "build_deterministic_portfolio",
    "build_basic_portfolio",
    "build_none_portfolio",
    "build_stochastic_portfolio",
    "stochastic_strategy",
    "evaluate_portfolio_paths",
    "synthetic_replication_pnl",
]

ALPHA0_POLICIES = ("cash_neutral", "zero")
_DEGENERATE_DIAG = 1e-14
# active-set iterations allowed per coordinate of the hedge QP before it is a failure
_QP_ITERATIONS_PER_DIM = 10
# first-order conditions hold to this fraction of the form's largest entry: far above
# the rounding of q a + b for |a| <= 1, far below any gain in the objective worth having
_QP_TOL = 1e-13
# eigenvalues of a free block below this fraction of its largest span its flat directions
_QP_FLAT_CURVATURE = 1e-10


@dataclass(frozen=True)
class QuadraticForm:
    """
    Covariance data of the hedge objective and the inception prices it hedges.

    matrix[i, j] = Cov of the bond payoff factors of currencies i and j
    (0 = domestic), vector[i] = Cov between the collateral-choice bond
    payoff and currency i's.  `prices`, when given, holds the inception
    prices (choice bond, bonds 0..N) that the cash-neutral weight and the
    portfolio's cash account are fixed from.
    """

    matrix: np.ndarray
    vector: np.ndarray
    prices: np.ndarray | None = None

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        b = np.atleast_1d(np.array(self.vector, dtype=float))
        if q.shape[0] != q.shape[1] or b.size != q.shape[0]:
            raise ModelValidationError("quadratic form dimensions disagree")
        if not np.allclose(q, q.T, atol=1e-12 * max(1.0, float(np.abs(q).max()))):
            raise ModelValidationError("covariance matrix must be symmetric")
        q = 0.5 * (q + q.T)
        w, v = np.linalg.eigh(q)
        # tolerate eigenvalue dust from exact cancellations of O(1) products
        floor = -(1e-12 * max(float(w.max()), 0.0) + 1e-14)
        if float(w.min()) < floor:
            raise ModelValidationError(
                f"covariance matrix has negative eigenvalue {float(w.min()):.3e}"
            )
        q = (v * np.clip(w, 0.0, None)) @ v.T
        q = 0.5 * (q + q.T)
        q.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "matrix", q)
        object.__setattr__(self, "vector", b)
        if self.prices is not None:
            prices = np.array(self.prices, dtype=float, ndmin=1)
            if prices.shape != (b.size + 1,):
                raise ModelValidationError("need one price for the choice bond and one per hedge bond")
            prices.setflags(write=False)
            object.__setattr__(self, "prices", prices)

    @property
    def size(self) -> int:
        return self.vector.size

    def objective(self, alpha: np.ndarray) -> float:
        """f(alpha) = alpha' Q alpha + 2 b' alpha (variance up to a constant)."""
        a = np.asarray(alpha, dtype=float)
        return float(a @ self.matrix @ a + 2.0 * self.vector @ a)


def assemble_quadratic(
    model: MarketModel,
    t0: float,
    T: float,
    nodes_per_year: int = 48,
) -> QuadraticForm:
    """
    Build the hedge covariance data over [t0, T] with the inception prices.

    Bond-bond covariances are exact lognormal expressions; the cross terms
    against the collateral-choice bond use the common-factor factor for the
    plain maximum (domestic entry) and the shifted maximum (foreign
    entries).  The same pipeline pass prices the choice bond, ctd P(t0, T),
    and the bond moments price the plain bonds, E[exp(-int q_i)] P(t0, T).
    """
    n = model.n_spreads
    r1 = bond_moment(model.domestic, t0, T, 1)
    r2 = bond_moment(model.domestic, t0, T, 2)
    e = np.array([1.0] + [bond_moment(s, t0, T, 1) for s in model.spreads])
    q = np.empty((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(i, n + 1):
            if i == 0 and j == 0:
                joint = 1.0
            elif i == 0:
                joint = e[j]
            else:
                joint = joint_bond_moment(model.spread(i), model.spread(j), model.rho(i, j), t0, T)
            q[i, j] = q[j, i] = joint * r2 - e[i] * e[j] * r1 * r1
    # the plain factor and every shifted factor from one pipeline pass
    cf = _cf_pipeline(model, t0, (T,), nodes_per_year, pivots=range(1, n + 1))[0]
    ctd = cf.value
    b = np.array([ctd * (r2 - r1 * r1)] + [s * r2 - ctd * ei * r1 * r1 for s, ei in zip(cf.shifted, e[1:])])
    return QuadraticForm(q, b, np.concatenate(([ctd * r1], e * r1)))


@dataclass(frozen=True)
class HedgeWeights:
    """Solved hedge weights with the degenerate-cash-weight bookkeeping."""

    alpha: np.ndarray
    alpha0_policy: str
    objective: float
    alpha0_degenerate: bool

    def __post_init__(self):
        a = np.atleast_1d(np.array(self.alpha, dtype=float))
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)


def _box_qp(q: np.ndarray, b: np.ndarray, lo: float, hi: float):
    """
    Exact minimizer of a' q a + 2 b' a over the box [lo, hi]^n, q PSD.

    Primal active-set method (Nocedal & Wright, Numerical Optimization,
    2nd ed., sec. 16.5): every coordinate is free or fixed at a bound.  On
    a face the free coordinates head for the least-squares solution of the
    face system and stop at the first bound in the way, which joins the
    fixed set.  A singular free block whose system has no solution leaves
    the face unbounded below along its flat directions, so the point moves
    along the descent direction in that null space until a bound blocks.
    At the face minimizer the fixed coordinate whose multiplier has the
    wrong sign by most is freed; when none has, the first-order conditions
    hold, and they suffice because q is positive semidefinite.  The free
    coordinates returned are the least-squares solution of the final face,
    f is evaluated before the clip to the box.
    """
    n = b.size
    tol = _QP_TOL * max(float(np.abs(q).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    side = np.zeros(n, dtype=int)  # 0 free, -1 at lo, +1 at hi
    a = np.clip(np.zeros(n), lo, hi)
    for _ in range(_QP_ITERATIONS_PER_DIM * (n + 1)):
        free, fixed = np.flatnonzero(side == 0), np.flatnonzero(side)
        target = a.copy()
        if free.size:
            qff = q[np.ix_(free, free)]
            target[free], *_ = np.linalg.lstsq(
                qff, -b[free] - q[np.ix_(free, fixed)] @ a[fixed], rcond=None
            )
        grad = 2.0 * (q @ target + b)
        step = target[free] - a[free]
        if np.any(np.abs(grad[free]) > tol):
            w, v = np.linalg.eigh(qff)
            flat = v[:, w <= _QP_FLAT_CURVATURE * max(float(w.max()), 0.0)]
            if flat.shape[1]:
                step = -flat @ (flat.T @ (q[free] @ a + b[free]))
        elif np.all((target[free] >= lo - 1e-12) & (target[free] <= hi + 1e-12)):
            a = target
            wrong = side * grad  # > 0 where a bound holds a coordinate against descent
            if not np.any(wrong > tol):
                return np.clip(a, lo, hi), float(a @ q @ a + 2.0 * b @ a)
            side[int(np.argmax(wrong))] = 0
            continue
        ratio = np.full(free.size, np.inf)
        up, down = step > 0.0, step < 0.0
        with np.errstate(over="ignore"):  # a subnormal step never blocks
            ratio[up] = (hi - a[free[up]]) / step[up]
            ratio[down] = (lo - a[free[down]]) / step[down]
        j = int(np.argmin(ratio))
        if not np.isfinite(ratio[j]):
            raise NumericalError("box-constrained minimization found no descent direction")
        a[free] += max(float(ratio[j]), 0.0) * step
        side[free[j]] = 1 if step[j] > 0.0 else -1
        a[free[j]] = hi if step[j] > 0.0 else lo
    raise NumericalError(
        f"box-constrained minimization found no KKT point in {_QP_ITERATIONS_PER_DIM * (n + 1)} "
        f"active-set iterations (dimension {n})"
    )


def solve_min_variance(
    form: QuadraticForm,
    alpha0_policy: str = "cash_neutral",
    box: tuple[float, float] = (-1.0, 1.0),
) -> HedgeWeights:
    """
    Variance-minimizing weights over the box, with the cash-weight policy.

    When the domestic bond carries no variance (its row of the covariance
    matrix vanishes, e.g. a deterministic domestic rate), the weight
    alpha_0 drops out of the objective.  It is then fixed by policy:
    "zero" leaves it at zero, "cash_neutral" solves for zero
    portfolio price at inception from the form's `prices`.
    """
    if alpha0_policy not in ALPHA0_POLICIES:
        raise ModelValidationError(f"alpha0_policy must be one of {ALPHA0_POLICIES}")
    q, b = form.matrix, form.vector
    lo, hi = box
    degenerate = q[0, 0] < _DEGENERATE_DIAG * max(float(np.diag(q).max()), 1e-300)
    k = 1 if degenerate else 0
    a_sub, f = _box_qp(q[k:, k:], b[k:], lo, hi)
    alpha = np.concatenate((np.zeros(k), a_sub))
    if degenerate and alpha0_policy == "cash_neutral":
        if form.prices is None:
            raise ModelValidationError("cash_neutral policy needs the form's prices")
        pc, bonds = float(form.prices[0]), form.prices[1:]
        alpha[0] = -(pc + float(bonds[1:] @ alpha[1:])) / float(bonds[0])
    return HedgeWeights(
        alpha=alpha,
        alpha0_policy=alpha0_policy,
        objective=f,
        alpha0_degenerate=bool(degenerate),
    )


# ---------------------------------------------------------------------------
# crossing-time schedule and portfolio compositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossingSchedule:
    """Times at which the maximal forecast spread changes, with winners."""

    times: tuple[float, ...]
    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.times) != len(self.indices):
            raise ModelValidationError("schedule needs one index per interval")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ModelValidationError("crossing times must be strictly increasing")


def crossing_schedule(curves: Sequence[SpreadCurve], t0: float, T: float) -> CrossingSchedule:
    """
    Iterative crossing times of the pointwise-maximal curve on [t0, T).

    `curves[0]` is conventionally the zero spread of the domestic currency.
    Curves are piecewise linear, so crossings are segment intersections and
    are found exactly.  Ties go to the lowest curve index.
    """
    nodes, winners = max_curve_breakpoints(curves, t0, T)
    times = [float(nodes[0])]
    indices = [int(winners[0])]
    for k in range(1, winners.size):
        if winners[k] != indices[-1]:
            times.append(float(nodes[k]))
            indices.append(int(winners[k]))
    return CrossingSchedule(tuple(times), tuple(indices))


def model_crossing_schedule(model: MarketModel, t0: float, T: float) -> CrossingSchedule:
    """Crossing schedule of the model's forecast curves (plus zero spread)."""
    if not T > t0:
        raise ModelValidationError(f"hedge needs maturity > t0, got t0 {t0:g} and maturity {T:g}")
    return crossing_schedule(_forecast_curves(model, t0, T), t0, T)


@dataclass(frozen=True)
class Position:
    """One instrument leg: collateral-choice bond, plain bond, or forward."""

    kind: str  # "choice_bond" | "bond" | "forward"
    units: float
    currency: int = 0
    delivery: float = math.nan  # forwards only

    def __post_init__(self):
        if self.kind not in ("choice_bond", "bond", "forward"):
            raise ModelValidationError(f"unknown position kind {self.kind!r}")


@dataclass(frozen=True)
class Portfolio:
    """Static composition plus the cash account fixed at inception."""

    name: str
    maturity: float
    positions: tuple[Position, ...]
    cash: float

    def position_value(self, model: MarketModel, t: float, nodes_per_year: int = 48) -> float:
        """Value of the instrument legs at time t off the forecast curves."""
        T = self.maturity
        return _leg_sum(
            self.positions, t, 0.0,
            lambda: ctd_common_factor(model, t, T, nodes_per_year) * zcb_domestic(model, t, T),
            lambda i: zcb_foreign(model, i, t, T), lambda S: zcb_domestic(model, t, S),
        )


def _leg_sum(positions, t, start, choice, bond, discount):
    """
    start plus units * value of every leg at time t, added in position order:
    choice() for the choice bond, bond(i) for bond i, and bond(i) / discount(S)
    for a forward on it delivered at S > t.  The prices are scalars at one
    state and per-path arrays along simulated paths.
    """
    total = start
    for p in positions:
        if p.kind == "choice_bond":
            v = choice()
        else:
            v = bond(p.currency)
            if p.kind == "forward" and t < p.delivery:
                v = v / discount(p.delivery)
        total = total + p.units * v
    return total


def _priced_portfolio(name, T, positions, form, n_bonds, t, discount=None) -> Portfolio:
    """The portfolio whose cash offsets its legs at time t at the prices of
    `form`, which must price n_bonds bonds on the portfolio's horizon."""
    if form.prices is None or form.size != n_bonds:
        raise ModelValidationError(f"the {name} portfolio needs a form priced on {n_bonds} bonds")
    pc, *bonds = form.prices.tolist()
    value = _leg_sum(positions, t, 0.0, lambda: pc, bonds.__getitem__, discount)
    return Portfolio(name, T, tuple(positions), -value)


def build_basic_portfolio(
    model: MarketModel, i: int, t0: float, T: float, form: QuadraticForm
) -> Portfolio:
    """Choice bond hedged by one unit of bond i (0 = domestic); cash from the
    prices of `form`, assembled on the same model over [t0, T]."""
    if not 0 <= i <= model.n_spreads:
        raise ModelValidationError(f"bond index {i} out of range 0..{model.n_spreads}")
    positions = [Position("choice_bond", 1.0), Position("bond", -1.0, currency=i)]
    name = "none" if i == 0 else f"basic_q{i}"
    return _priced_portfolio(name, T, positions, form, model.n_spreads + 1, t0)


def build_none_portfolio(model: MarketModel, t0: float, T: float, form: QuadraticForm) -> Portfolio:
    """The option-blind hedge: the domestic bond against the choice bond."""
    return build_basic_portfolio(model, 0, t0, T, form)


def build_deterministic_portfolio(
    model: MarketModel,
    schedule: CrossingSchedule | None,
    t0: float,
    T: float,
    form: QuadraticForm,
) -> Portfolio:
    """
    Crossing-time strategy: short the interval-maximal bond via forwards.

    For every crossing interval [S_k, S_{k+1}) the portfolio is short a
    forward on the winner's bond delivered at S_k and long the offsetting
    forward delivered at S_{k+1} (none for the last interval), so after
    physical settlement the net holding is minus one unit of the currently
    maximal currency's bond.  Cash from the prices of `form`, assembled over [t0, T].
    """
    if schedule is None:
        schedule = model_crossing_schedule(model, t0, T)
    positions = [Position("choice_bond", 1.0)]
    times = list(schedule.times) + [None]
    for k, idx in enumerate(schedule.indices):
        start = times[k]
        nxt = times[k + 1]
        positions.append(Position("forward", -1.0, currency=idx, delivery=start))
        if nxt is not None:
            positions.append(Position("forward", +1.0, currency=idx, delivery=nxt))
    return _priced_portfolio("deterministic", T, positions, form, model.n_spreads + 1, t0,
                             lambda S: zcb_domestic(model, t0, S))


def build_stochastic_portfolio(form: QuadraticForm, weights: HedgeWeights, T: float) -> Portfolio:
    """Variance-minimizing strategy: alpha_i units of each bond, cash from the form's prices."""
    positions = [Position("choice_bond", 1.0)] + [
        Position("bond", float(a), currency=i) for i, a in enumerate(weights.alpha) if a != 0.0
    ]
    return _priced_portfolio("stochastic", T, positions, form, weights.alpha.size, T)  # no forwards


def stochastic_strategy(
    model: MarketModel,
    t0: float,
    T: float,
    alpha0_policy: str = "cash_neutral",
    nodes_per_year: int = 48,
) -> tuple[HedgeWeights, QuadraticForm, Portfolio]:
    """
    Assemble the quadratic form, solve for weights, build the portfolio, on
    one common-factor pass: the form carries the inception prices.
    """
    form = assemble_quadratic(model, t0, T, nodes_per_year)
    weights = solve_min_variance(form, alpha0_policy)
    return weights, form, build_stochastic_portfolio(form, weights, T)


# ---------------------------------------------------------------------------
# pathwise revaluation
# ---------------------------------------------------------------------------

def _conditional_bond(spec, t, T, u):
    """P(t, T | displacement u) of one Hull-White process (domestic or spread)."""
    load = -math.expm1(-spec.kappa * (T - t)) / spec.kappa  # no cancellation as kappa * tau -> 0
    base = -spec.mean_curve.integral(t, T) + 0.5 * integral_covariance(spec, spec, 1.0, t, T)
    return np.exp(base - load * u)


@dataclass(frozen=True)
class PortfolioPathStats:
    """
    Per-time summary of a portfolio's simulated values.

    `values` holds the [paths, times] value array the summary is taken
    from.  `sd_se`, the standard error of `sd`, is computed from it on
    first read and cached: its fourth moment costs more than the rest of
    the summary, and `ctd hedge` never reads it.
    """

    name: str
    times: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    values: np.ndarray  # [paths, times]
    samples: np.ndarray  # [n_samples, times]

    @cached_property
    def sd_se(self) -> np.ndarray:
        mean, sd, n_paths = self.mean, self.sd, self.values.shape[0]
        centered = self.values - mean[None, :]
        m4 = np.mean(centered**4, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            sd_se = np.sqrt(np.maximum(m4 - sd**4, 0.0) / (4.0 * np.maximum(sd, 1e-300) ** 2 * n_paths))
        return np.where(sd > 1e-14, sd_se, 0.0)


def evaluate_portfolio_paths(
    portfolios: Portfolio | Sequence[Portfolio],
    bundle: PathBundle,
    n_samples: int = 8,
) -> list[PortfolioPathStats]:
    """
    Revalue portfolios along simulated paths at every observation time.

    The collateral-choice bond is repriced with the common-factor method
    re-anchored at each path state (via an interpolation table shared by
    all portfolios); plain bonds and forwards are repriced with the
    Hull-White closed forms; cash accrues at the realized domestic rate.
    The legs of every portfolio add up in the same leg sum that prices it
    at inception, on per-path arrays.
    """
    if isinstance(portfolios, Portfolio):
        portfolios = [portfolios]
    model = bundle.model
    maturities = {p.maturity for p in portfolios}
    if len(maturities) != 1:
        raise ModelValidationError("portfolios must share one maturity")
    maturity = maturities.pop()
    times = bundle.times
    if times[-1] > maturity:
        raise ModelValidationError(
            f"observation time {times[-1]:g} is past the portfolios' maturity {maturity:g}"
        )
    n_paths = bundle.n_paths
    if not 0 <= n_samples <= n_paths:
        raise ModelValidationError(f"n_samples {n_samples} is outside 0..{n_paths}, the simulated paths")
    table = ConditionalCtdTable(model, times, (maturity,))
    # one contiguous row per time while the values are filled in, turned
    # into the C-ordered [paths, times] array of the statistics at the end
    rows = [np.empty((times.size, n_paths)) for _ in portfolios]
    for k, t in enumerate(times):
        t = float(t)
        u = bundle.displacements(t)
        u0 = bundle.values[:, k, 0] - model.domestic.mean_curve(t)
        pdom = _conditional_bond(model.domestic, t, maturity, u0)
        # the anchors are the observation times; at the maturity
        # the table's row and pdom are exactly 1
        choice = table.evaluate(k, u)[0] * pdom
        bonds = {0: pdom}
        for i in range(1, model.n_spreads + 1):
            bonds[i] = _conditional_bond(model.spread(i), t, maturity, u[:, i - 1]) * pdom
        bank = bundle.bank_factor(bundle.plan.t0, t)
        for p, r in zip(portfolios, rows):
            r[k] = _leg_sum(
                p.positions, t, p.cash * bank, lambda: choice, bonds.__getitem__,
                lambda S: _conditional_bond(model.domestic, t, S, u0),
            )
    # each portfolio's [paths, times] array takes the memory of the previous
    # portfolio's rows, so the transposes hold one more array, not one per portfolio
    spare = np.empty(times.size * n_paths)
    values = []
    for r in rows:
        v = spare.reshape(n_paths, times.size)
        v[...] = r.T
        values.append(v)
        spare = r.reshape(-1)
    del rows, r, spare  # the last rows, before the statistics' temporaries
    return [
        PortfolioPathStats(p.name, times.copy(), v.mean(axis=0), v.std(axis=0, ddof=1), v,
                           v[:n_samples].copy())
        for p, v in zip(portfolios, values)
    ]


# ---------------------------------------------------------------------------
# synthetic replication of a swap's CTD factors
# ---------------------------------------------------------------------------

def synthetic_replication_pnl(
    model: MarketModel,
    swap: SwapSpec,
    schemes: Sequence[str],
    bundle: PathBundle,
    nodes_per_year: int = 24,
) -> dict[str, np.ndarray]:
    """
    Terminal P&L of hedging the collateral-choice swap with plain bonds.

    The hedge holds, per payment date, the swap leg scaled by a synthetic
    discount factor fixed at inception: 1 for scheme "none", the
    deterministic factor for "deterministic", the common-factor value for
    "common_factor".  The P&L account accrues at the realized domestic
    rate and is marked at every observation time of the bundle, which must
    contain the swap's start and payment dates; the swap itself is marked
    with the conditional common-factor pricer, from one `ConditionalCtdTable`
    for all payment dates, evaluated once per observation time.  At each
    observation time the loop also takes every scheme's synthetic factors
    for the payment dates still ahead, the common-factor ones from one
    pipeline pass, and one domestic bond per period bound still ahead,
    which gives the forward rates and the fixings.  All schemes share one
    pass over the paths, so the table, the legs and the marks are computed once.
    Returns one terminal P&L per path for each scheme, keyed in the order
    given.
    """
    if isinstance(schemes, str):
        raise ModelValidationError("schemes must be a sequence of scheme names")
    schemes = tuple(dict.fromkeys(schemes))
    if not schemes or any(name not in CTD_METHODS for name in schemes):
        raise ModelValidationError(f"schemes must be a non-empty selection of {CTD_METHODS}")
    times = bundle.times
    dates = swap.payment_dates
    if swap.start < times[0]:
        raise ModelValidationError(f"the swap starts at {swap.start:g}, before the first "
                                   f"observation time {times[0]:g}")
    periods = swap.periods()  # period j ends on dates[j], row j of the table
    # the period bounds (start, payment dates) as observation indices; a date off the grid raises
    edges = [(d, bundle.observation_index(d)) for d in (swap.start, *dates)]
    bounds = [(k_start, k_end) for (_, k_start), (_, k_end) in zip(edges, edges[1:])]
    table = ConditionalCtdTable(
        model, times[: bounds[-1][1] + 1], dates, nodes_per_dim=7, nodes_per_year=nodes_per_year
    )
    sign = 1.0 if swap.payer else -1.0
    fixings: dict[int, np.ndarray] = {}  # per period, its rate as last seen up to its start
    pnl = prev_pi = prev_t = None
    for k, t in enumerate(times):
        t = float(t)
        u = bundle.displacements(t)
        u0 = bundle.values[:, k, 0] - model.domestic.mean_curve(t)
        # P(t, d) once per period bound d not yet passed; P(t, t) = 1 on d's own row
        bond = {d: 1.0 if k_d == k else _conditional_bond(model.domestic, t, d, u0)
                for d, k_d in edges if k_d >= k}
        # mark the un-hedged residue sum_{T_k > t} (CTD_cond - C_j) * leg_k
        pi = {name: np.zeros(bundle.n_paths) for name in schemes}
        live = [j for j, (_, k_end) in enumerate(bounds) if k_end > k]
        if live:
            ctd_cond = table.evaluate(k, u)  # the anchors are a prefix of the observation times
            ends = [periods[j][1] for j in live]
            synth = {name: _ctd_factors(model, name, t, ends, nodes_per_year) for name in schemes}
        for n, j in enumerate(live):
            (s, e_, tau), (k_start, _) = periods[j], bounds[j]
            if k <= k_start:  # the forward rate; on the start's row, the fixing
                fixings[j] = (bond[s] / bond[e_] - 1.0) / tau
            ell = fixings[j]
            leg = sign * swap.notional * tau * bond[e_] * (ell - swap.fixed_rate)
            for name in schemes:
                pi[name] = pi[name] + (ctd_cond[j] - synth[name][n]) * leg
        if prev_t is None:
            pnl = pi
        else:
            bank = bundle.bank_factor(prev_t, t)
            pnl = {name: pnl[name] * bank + (pi[name] - prev_pi[name]) for name in schemes}
        prev_pi = pi
        prev_t = t
    return pnl
