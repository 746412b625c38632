"""Piecewise-linear spread curves and exact operations on them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["SpreadCurve", "max_curve_integral", "max_curve_breakpoints"]


class ModelValidationError(ValueError):
    """Raised when model inputs violate a structural invariant."""


class CurveDomainError(ModelValidationError):
    """Raised when a curve is evaluated outside its time grid."""


_DOMAIN_TOL = 1e-12


@dataclass(frozen=True)
class SpreadCurve:
    """
    Deterministic collateral-spread forecast on a time grid.

    Values between grid nodes are obtained by linear interpolation; at a
    kink the derivative follows the left-hand segment (the first segment
    at the curve start). Levels are absolute rates, e.g. 0.014 = 140 bps.
    """

    grid: np.ndarray
    values: np.ndarray

    def __init__(self, grid: Sequence[float], values: Sequence[float]):
        g = np.array(grid, dtype=float)
        v = np.array(values, dtype=float)
        if g.ndim != 1 or v.ndim != 1:
            raise ModelValidationError("grid and values must be one-dimensional")
        if g.size != v.size:
            raise ModelValidationError(f"grid has {g.size} nodes but values has {v.size}")
        if g.size < 2:
            raise ModelValidationError("curve needs at least two nodes")
        if not np.all(np.diff(g) > 0.0):
            raise ModelValidationError("grid must be strictly increasing")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
            raise ModelValidationError("grid and values must be finite")
        g.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, level: float, start: float, end: float) -> "SpreadCurve":
        """Flat curve at `level` on [start, end]."""
        return cls([start, end], [level, level])

    @classmethod
    def linear(cls, start: float, end: float, level_start: float, level_end: float) -> "SpreadCurve":
        """Straight line between two endpoint levels."""
        return cls([start, end], [level_start, level_end])

    @property
    def start(self) -> float:
        return float(self.grid[0])

    @property
    def end(self) -> float:
        return float(self.grid[-1])

    def _check_domain(self, t: np.ndarray) -> None:
        lo, hi = self.grid[0], self.grid[-1]
        if np.any(t < lo - _DOMAIN_TOL) or np.any(t > hi + _DOMAIN_TOL):
            bad = t[(t < lo - _DOMAIN_TOL) | (t > hi + _DOMAIN_TOL)]
            raise CurveDomainError(
                f"time {float(np.ravel(bad)[0]):g} outside curve domain [{lo:g}, {hi:g}]"
            )

    def __call__(self, t):
        """Evaluate the curve; grid nodes return stored values exactly."""
        arr = np.asarray(t, dtype=float)
        self._check_domain(arr)
        out = np.interp(arr, self.grid, self.values)
        if arr.ndim == 0:
            return float(out)
        return out

    def derivative(self, t) -> float | np.ndarray:
        """
        Slope at time t with the left-derivative convention at kinks.

        At the first grid node the (only available) right slope is used.
        """
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        self._check_domain(arr)
        slopes = np.diff(self.values) / np.diff(self.grid)
        # side="left" maps an exact node t_k to the segment ending at t_k
        idx = np.searchsorted(self.grid, arr, side="left")
        idx = np.clip(idx - 1, 0, slopes.size - 1)
        out = slopes[idx]
        if np.asarray(t).ndim == 0:
            return float(out[0])
        return out

    def integral(self, a: float, b: float) -> float:
        """Exact integral of the piecewise-linear curve over [a, b]."""
        if b < a:
            raise ModelValidationError("integration bounds must satisfy a <= b")
        self._check_domain(np.asarray([a, b], dtype=float))
        if a == b:
            return 0.0
        inner = self.grid[(self.grid > a) & (self.grid < b)]
        nodes = np.concatenate(([a], inner, [b]))
        vals = np.interp(nodes, self.grid, self.values)
        return float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(nodes)))

    def shifted(self, delta: float) -> "SpreadCurve":
        """Curve with all levels moved by `delta` (parallel shift)."""
        return SpreadCurve(self.grid, self.values + delta)

    def translated(self, offset: float) -> "SpreadCurve":
        """Curve with the time origin moved by `offset`."""
        return SpreadCurve(self.grid + offset, self.values)


def _pairwise_crossings(nodes: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Intersection times of curve segments between consecutive nodes.

    `table` holds curve values sampled at `nodes`, one row per curve.  On
    each elementary interval every curve is a straight segment, so any two
    of them cross at most once.
    """
    crossings = []
    n_curves = table.shape[0]
    for k in range(nodes.size - 1):
        t0, t1 = nodes[k], nodes[k + 1]
        h = t1 - t0
        for i in range(n_curves):
            for j in range(i + 1, n_curves):
                d0 = table[i, k] - table[j, k]
                d1 = table[i, k + 1] - table[j, k + 1]
                if d0 == d1:
                    continue
                s = d0 / (d0 - d1)
                if 0.0 < s < 1.0:
                    crossings.append(t0 + s * h)
    return np.asarray(sorted(crossings))


def max_curve_breakpoints(curves: Sequence[SpreadCurve], a: float, b: float):
    """
    Breakpoints and per-interval winner of the pointwise maximum of curves.

    Returns (nodes, winners): `nodes` is an ascending array covering [a, b]
    such that on each interval the maximum is attained by the single curve
    `winners[k]`; ties resolve to the lowest curve index.
    """
    if b <= a:
        raise ModelValidationError("interval must satisfy a < b")
    base = {a, b}
    for c in curves:
        base.update(float(t) for t in c.grid if a < t < b)
    nodes = np.asarray(sorted(base))
    table = np.vstack([c(nodes) for c in curves])
    crossings = _pairwise_crossings(nodes, table)
    if crossings.size:
        nodes = np.unique(np.concatenate((nodes, crossings)))
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    mid_table = np.vstack([c(mids) for c in curves])
    winners = np.argmax(mid_table, axis=0)  # argmax picks the lowest index on ties
    return nodes, winners


def max_curve_integral(curves: Sequence[SpreadCurve], a: float, b: float) -> float:
    """Exact integral of max over piecewise-linear curves on [a, b]."""
    if a == b:
        return 0.0
    nodes, winners = max_curve_breakpoints(curves, a, b)
    total = 0.0
    for k, w in enumerate(winners):
        left, right = nodes[k], nodes[k + 1]
        total += curves[w].integral(left, right)
    return total
