"""Reference for the conditional-table tests: the one-maturity
`ConditionalCtdTable` that the multi-maturity table replaced, verbatim but
for its class name, its panel choice and its spline.  It prices each
maturity with its own conditional pass through
`ctd_common_factor_conditional`, on that pricer's 96-node panels; the
two-spread models it is built on take closed-form moments, so the panel
changes none of their bytes.  Its spline is the table's own exact per-cell
spline (`_cell_spline`) with one column, so a multi-maturity table equals
these tables bitwise when its pass gives each maturity the same log
factors."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ctdhedge.ctd import _cell_spline, _cell_spline_values, ctd_common_factor_conditional
from ctdhedge.spread_model import MarketModel


class SingleMaturityCtdTable:
    """
    Interpolation table for conditional CTD factors at fixed anchor times.

    For every anchor time a tensor grid of spread displacements is priced
    with the conditional common-factor routine; queries interpolate the log
    factor (cubic, at least 4 nodes per dimension).  Displacements
    outside the grid are clamped to its edge, which is five standard
    deviations out by default.
    """

    def __init__(
        self,
        model: MarketModel,
        anchor_times: Sequence[float],
        maturity: float,
        nodes_per_dim: int = 9,
        half_width_sds: float = 4.5,
        nodes_per_year: int = 24,
    ):
        self.model = model
        self.maturity = float(maturity)
        self.anchor_times = np.asarray(anchor_times, dtype=float)
        n = model.n_spreads
        self._interps: list = []
        self._grids: list = []
        for t in self.anchor_times:
            if t >= maturity:
                self._interps.append(None)
                self._grids.append(None)
                continue
            sds = [math.sqrt(model.spread(i).variance(float(t))) for i in range(1, n + 1)]
            if max(sds) < 1e-10:
                # no dispersion yet: a single conditional value serves all states
                val = ctd_common_factor_conditional(
                    model, float(t), maturity, np.zeros((1, n)), nodes_per_year
                )
                self._interps.append(float(np.log(val[0])))
                self._grids.append(None)
                continue
            axes = [
                np.linspace(-half_width_sds * max(sd, 1e-12), half_width_sds * max(sd, 1e-12), nodes_per_dim)
                for sd in sds
            ]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
            vals = ctd_common_factor_conditional(model, float(t), maturity, pts, nodes_per_year)
            table = np.log(vals).reshape([nodes_per_dim] * n + [1])
            self._interps.append(_cell_spline(axes, table))
            self._grids.append(axes)

    def evaluate(self, anchor_index: int, displacements: np.ndarray) -> np.ndarray:
        """Conditional CTD factors for states at one anchor time."""
        interp = self._interps[anchor_index]
        n_states = np.atleast_2d(displacements).shape[0]
        if interp is None:
            return np.ones(n_states)
        if isinstance(interp, float):
            return np.full(n_states, math.exp(interp))
        u = np.atleast_2d(np.asarray(displacements, dtype=float))
        return np.exp(_cell_spline_values(self._grids[anchor_index], interp, u)[0])
