"""The benchmark's per-layer tracer reads the package by name: the entry points
it wraps, the arguments it binds and the table attributes it inspects.  These
tests run it, unedited, around small hedging calls, so that an API change that
breaks `perfbench/run.py --trace 1` fails here."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import ctdhedge.hedging
from ctdhedge import CorrelationMatrix, HullWhiteSpec, MarketModel, SpreadCurve
from ctdhedge.instruments import SwapSpec, par_rate
from ctdhedge.montecarlo import SimulationPlan, simulate

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def market():
    h = 6.0
    return MarketModel(
        HullWhiteSpec(0.03, 0.005, SpreadCurve.constant(0.02, 0.0, h)),
        [HullWhiteSpec(0.0078, 0.0018, SpreadCurve.constant(0.014, 0.0, h)),
         HullWhiteSpec(0.0076, 0.0023, SpreadCurve.constant(0.0133, 0.0, h))],
        CorrelationMatrix.from_single(0.5),
    )


def _traced(layers, call):
    tracer = layers.Tracer()
    with tracer.operation():
        result = call()
    return tracer, tracer.per_layer_metrics(0.0, 0.0), result


def test_trace_of_synthetic_replication(layers, market):
    dates = (1.0, 2.0)
    swap = SwapSpec(1.0, par_rate(market, dates), dates)
    plan = SimulationPlan(200, 12, 2.0, seed=3, observation_times=(0.0, 0.5, 1.0, 1.5, 2.0))
    bundle = simulate(market, plan)
    _, metrics, pnl = _traced(layers, lambda: ctdhedge.hedging.synthetic_replication_pnl(
        market, swap, ("none", "common_factor"), bundle))
    assert set(pnl) == {"none", "common_factor"}
    assert metrics["ctd.table.anchors"] > 0
    assert metrics["ctd.table.evaluate.ns_per_query"] > 0
    assert metrics["hedging.synthetic_replication_pnl.ns_per_path_time"] > 0


def test_trace_of_portfolio_revaluation(layers, market):
    form = ctdhedge.hedging.assemble_quadratic(market, 0.0, 2.0)
    portfolio = ctdhedge.hedging.build_none_portfolio(market, 0.0, 2.0, form)
    plan = SimulationPlan(200, 12, 2.0, seed=4, observation_times=(0.0, 1.0, 2.0))
    bundle = simulate(market, plan)
    _, metrics, stats = _traced(
        layers, lambda: ctdhedge.hedging.evaluate_portfolio_paths(portfolio, bundle))
    assert np.all(np.isfinite(stats[0].mean))
    assert metrics["ctd.table.anchors"] > 0
    assert metrics["hedging.evaluate_portfolio_paths.ns_per_path_time"] > 0
