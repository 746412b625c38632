"""Per-layer tracing of ctdhedge from outside the package.

`Tracer.installed()` replaces the public entry points of every layer module by
wrappers, found by module attribute, so calls between functions of one module
(`ConditionalCtdTable` calling `ctd.ctd_common_factor_conditional`) and names
imported into other modules (`cli.simulate`) are caught too.  Leaving the
context restores every original object.  Spans (name, start, end, parent) and
call counts are kept in memory; `per_layer_metrics` turns them into the
benchmark's per-layer metrics and `dump` writes them once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import sys
import time
import weakref
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "ctdhedge"

# (module, attribute) entry points that the workloads reach, recorded as timed
# spans; "Class.method" wraps the method on the class
SPANNED = (
    ("montecarlo", "simulate"),
    ("ctd", "ctd_deterministic"),
    ("ctd", "ctd_common_factor"),
    ("ctd", "ctd_common_factor_detailed"),
    ("ctd", "shifted_max_ctd"),
    ("ctd", "ctd_common_factor_conditional"),
    ("ctd", "integral_variance_estimator"),
    ("ctd", "ConditionalCtdTable.__init__"),
    ("ctd", "ConditionalCtdTable.evaluate"),
    ("hedging", "assemble_quadratic"),
    ("hedging", "solve_min_variance"),
    ("hedging", "stochastic_strategy"),
    ("hedging", "evaluate_portfolio_paths"),
    ("hedging", "synthetic_replication_pnl"),
    ("hedging", "build_basic_portfolio"),
    ("hedging", "build_deterministic_portfolio"),
    ("hedging", "build_stochastic_portfolio"),
    ("hedging", "model_crossing_schedule"),
    ("sensitivity", "ctd_sensitivity"),
    ("config", "load_config"),
    ("config", "serialize_config"),
    ("config", "ExperimentConfig.build_model"),
    ("reporting", "write_csv"),
    ("reporting", "atomic_write_text"),
)

# entry points that are only counted: the spread covariance runs thousands of
# times per operation, where a span each would cost more than the work it
# measures, and the others only feed call-count metrics
COUNTED = (
    ("spread_model", "MarketModel.spread_covariance"),
    ("curves", "max_curve_breakpoints"),
    ("instruments", "zcb_domestic"),
    ("instruments", "zcb_foreign"),
    ("instruments", "forward_bond"),
    ("instruments", "forward_ibor"),
    ("instruments", "swap_value"),
    ("instruments", "swap_value_ctd"),
    ("instruments", "par_rate"),
)

# span name of the conditional table build, excluded from revaluation cost
TABLE = "ctd.ConditionalCtdTable.__init__"


def _resolve(module: str, attr: str):
    """(owner, name, original) for a dotted attribute, or None if it is gone."""
    owner = sys.modules.get(f"{PACKAGE}.{module}")
    if owner is None:
        return None
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if original is None else (owner, name, original)


def _kkt_residual(form, weights, box) -> float:
    """Largest violation of the box QP's first-order conditions, relative to the form's scale."""
    q, b, a = form.matrix, form.vector, np.asarray(weights.alpha, dtype=float)
    if weights.alpha0_degenerate:
        q, b, a = q[1:, 1:], b[1:], a[1:]
    if a.size == 0:
        return 0.0
    grad = 2.0 * (q @ a + b)
    lo, hi = box
    at_lo, at_hi = a <= lo + 1e-12, a >= hi - 1e-12
    viol = np.where(at_lo, np.maximum(-grad, 0.0), np.where(at_hi, np.maximum(grad, 0.0), np.abs(grad)))
    scale = max(float(np.abs(q).max()), float(np.abs(b).max()), 1e-300)
    return float(viol.max() / scale)


class Tracer:
    """Span and counter store for traced operations of one run."""

    def __init__(self):
        self.spans: list = []  # [op, parent, name, start_ns, end_ns]
        self.counts: list[Counter] = []  # calls per entry point, one Counter per op
        self.work: dict = defaultdict(float)  # units of work per metric key
        self.kkt_max = 0.0
        self.op = -1
        self._stack: list[int] = []
        self._half_width = weakref.WeakKeyDictionary()
        self._signatures: dict = {}

    # -- operations ---------------------------------------------------------
    @contextlib.contextmanager
    def operation(self):
        """Record one traced operation as the root span of its calls."""
        self.op += 1
        self.counts.append(Counter())
        with self.installed():
            root = len(self.spans)
            self.spans.append([self.op, None, "op", time.perf_counter_ns(), 0])
            self._stack = [root]
            try:
                yield
            finally:
                self.spans[root][4] = time.perf_counter_ns()
                self._stack = []

    @contextlib.contextmanager
    def installed(self):
        """Swap wrappers in for every entry point, restoring the originals on exit."""
        replaced = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        try:
            for entries, spanned in ((SPANNED, True), (COUNTED, False)):
                for module, attr in entries:
                    found = _resolve(module, attr)
                    if found is None:
                        continue
                    owner, name, original = found
                    label = f"{module}.{attr}"
                    wrapper = self._span(label, original) if spanned else self._count(label, original)
                    setattr(owner, name, wrapper)
                    replaced.append((owner, name, original))
                    if isinstance(owner, type):
                        continue
                    for mod in modules:  # names imported into other modules
                        for key, value in list(vars(mod).items()):
                            if value is original and mod is not owner:
                                setattr(mod, key, wrapper)
                                replaced.append((mod, key, original))
            yield
        finally:
            for owner, name, original in reversed(replaced):
                setattr(owner, name, original)

    # -- wrappers -----------------------------------------------------------
    def _count(self, label, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[-1][label] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, label, fn):
        post = getattr(self, "_post_" + label.replace(".", "_"), None)
        if post is not None and fn not in self._signatures:
            self._signatures[fn] = inspect.signature(fn)
        sig = self._signatures.get(fn)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self.counts[-1][label] += 1
            sid = len(self.spans)
            self.spans.append([self.op, self._stack[-1], label, time.perf_counter_ns(), 0])
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[sid][4] = time.perf_counter_ns()
                self._stack.pop()
            if post is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                post(bound.arguments, result)
            return result
        return spanned

    # -- work counters, computed from each call's arguments and result ---------
    def _post_montecarlo_simulate(self, a, bundle):
        plan = a["plan"]
        self.work["simulate.path_steps"] += plan.n_paths * (plan.step_grid().size - 1)
        self.work["simulate.out_bytes"] += sum(
            x.nbytes for x in (bundle.values, bundle.integrals, bundle.max_integral))

    def _post_ctd_ConditionalCtdTable___init__(self, a, _):
        table, model = a["self"], a["model"]
        self._half_width[table] = float(a["half_width_sds"])
        for t in table.anchor_times:
            if t >= table.maturity:
                continue
            sds = [model.spread(i).variance(float(t)) ** 0.5 for i in range(1, model.n_spreads + 1)]
            self.work["table.anchors"] += 1
            self.work["table.states"] += 1 if max(sds) < 1e-10 else a["nodes_per_dim"] ** model.n_spreads

    def _post_ctd_ConditionalCtdTable_evaluate(self, a, _):
        table = a["self"]
        u = np.atleast_2d(np.asarray(a["displacements"], dtype=float))
        self.work["evaluate.queries"] += u.shape[0]
        t = float(table.anchor_times[a["anchor_index"]])
        if t >= table.maturity:
            return
        model = table.model
        sds = np.sqrt([model.spread(i).variance(t) for i in range(1, model.n_spreads + 1)])
        if sds.max() < 1e-10:  # no grid yet: one value serves every state
            return
        edge = self._half_width.get(table, 4.5) * sds
        self.work["evaluate.clamped"] += int(np.count_nonzero(np.any(np.abs(u) > edge, axis=1)))

    def _post_ctd_ctd_common_factor_conditional(self, a, _):
        rows = np.atleast_2d(np.asarray(a["displacements"])).shape[0]
        nodes = max(2, int(round((a["T"] - a["t"]) * a["nodes_per_year"]))) + 1
        self.work["conditional.state_nodes"] += rows * nodes

    def _post_hedging_evaluate_portfolio_paths(self, a, _):
        bundle = a["bundle"]
        self.work["evaluate_portfolio_paths.path_times"] += bundle.n_paths * bundle.times.size

    def _post_hedging_synthetic_replication_pnl(self, a, _):
        bundle = a["bundle"]
        self.work["synthetic_replication_pnl.path_times"] += bundle.n_paths * bundle.times.size

    def _post_hedging_solve_min_variance(self, a, weights):
        self.kkt_max = max(self.kkt_max, _kkt_residual(a["form"], weights, a["box"]))

    def _post_reporting_atomic_write_text(self, a, _):
        self.work["reporting.bytes"] += len(a["content"].encode("utf-8"))

    # -- reduction ------------------------------------------------------------
    def summary(self) -> dict:
        """Inclusive and self seconds per span name, and the ops' durations."""
        child_ns = defaultdict(int)
        child_table_ns = defaultdict(int)
        for op, parent, name, t0, t1 in self.spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
                if name == TABLE:
                    child_table_ns[parent] += t1 - t0
        incl = defaultdict(float)
        self_s = defaultdict(float)
        calls = Counter()
        top = defaultdict(float)
        ex_table = defaultdict(float)  # inclusive time less nested table builds
        op_s = []
        for sid, (op, parent, name, t0, t1) in enumerate(self.spans):
            dur = (t1 - t0) * 1e-9
            if name == "op":
                op_s.append(dur)
                continue
            incl[name] += dur
            self_s[name] += dur - child_ns[sid] * 1e-9
            ex_table[name] += dur - child_table_ns[sid] * 1e-9
            calls[name] += 1
            if self.spans[parent][2] == "op":
                top[name] += dur
        return {"incl": incl, "self": self_s, "calls": calls, "top": top,
                "ex_table": ex_table, "op_s": op_s}

    def per_layer_metrics(self, cpu_s_per_op: float, overhead_frac: float) -> dict:
        s = self.summary()
        n_ops = max(len(s["op_s"]), 1)
        op_total = sum(s["op_s"]) or math.nan
        incl, calls, w = s["incl"], s["calls"], self.work
        total_calls = Counter()
        for c in self.counts:
            total_calls.update(c)

        def per(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        def ms_per_call(name):
            return per(incl[name], calls[name], 1e3)

        instruments = sum(v for k, v in total_calls.items() if k.startswith("instruments."))
        return {
            "montecarlo.simulate.path_steps": per(w["simulate.path_steps"], n_ops),
            "montecarlo.simulate.ns_per_path_step": per(
                incl["montecarlo.simulate"], w["simulate.path_steps"], 1e9),
            "montecarlo.simulate.out_mb": per(w["simulate.out_bytes"], n_ops, 1e-6),
            "ctd.table.anchors": per(w["table.anchors"], n_ops),
            "ctd.table.states": per(w["table.states"], n_ops),
            "ctd.table.ms_per_anchor": per(incl[TABLE], w["table.anchors"], 1e3),
            "ctd.conditional.ns_per_state_node": per(
                incl["ctd.ctd_common_factor_conditional"], w["conditional.state_nodes"], 1e9),
            "ctd.table.evaluate.ns_per_query": per(
                incl["ctd.ConditionalCtdTable.evaluate"], w["evaluate.queries"], 1e9),
            "ctd.table.clamped_query_frac": per(w["evaluate.clamped"], w["evaluate.queries"]),
            "hedging.evaluate_portfolio_paths.ns_per_path_time": per(
                s["ex_table"]["hedging.evaluate_portfolio_paths"],
                w["evaluate_portfolio_paths.path_times"], 1e9),
            "hedging.synthetic_replication_pnl.ns_per_path_time": per(
                s["ex_table"]["hedging.synthetic_replication_pnl"],
                w["synthetic_replication_pnl.path_times"], 1e9),
            "ctd.common_factor.ms_per_call": ms_per_call("ctd.ctd_common_factor_detailed"),
            "ctd.shifted_max.ms_per_call": ms_per_call("ctd.shifted_max_ctd"),
            "ctd.psi.self_s": per(s["self"]["ctd.integral_variance_estimator"], n_ops),
            "hedging.assemble_quadratic.ms_per_call": ms_per_call("hedging.assemble_quadratic"),
            "spread_model.spread_covariance.calls_per_op": per(
                total_calls["spread_model.MarketModel.spread_covariance"], n_ops),
            "hedging.solve_min_variance.ms_per_call": ms_per_call("hedging.solve_min_variance"),
            "hedging.qp.kkt_residual_max": self.kkt_max,
            "sensitivity.ctd_sensitivity.ms_per_call": ms_per_call("sensitivity.ctd_sensitivity"),
            "instruments.calls_per_op": per(instruments, n_ops),
            "curves.max_curve_breakpoints.calls_per_op": per(
                total_calls["curves.max_curve_breakpoints"], n_ops),
            "config.load_s": per(incl["config.load_config"], n_ops),
            "reporting.write_csv.self_s": per(s["self"]["reporting.write_csv"], n_ops),
            "reporting.bytes_written": per(w["reporting.bytes"], n_ops),
            "montecarlo.simulate.op_share": incl["montecarlo.simulate"] / op_total,
            "ctd.table.op_share": incl[TABLE] / op_total,
            "hedging.evaluate_portfolio_paths.op_share":
                s["ex_table"]["hedging.evaluate_portfolio_paths"] / op_total,
            "hedging.synthetic_replication_pnl.op_share":
                s["ex_table"]["hedging.synthetic_replication_pnl"] / op_total,
            "hedging.stochastic_strategy.op_share": incl["hedging.stochastic_strategy"] / op_total,
            "run.cpu_s_per_op": cpu_s_per_op,
            "run.uncovered_frac": 1.0 - sum(s["top"].values()) / op_total,
            "trace.overhead_frac": overhead_frac,
        }

    def largest_spans(self, k: int = 8) -> list[tuple[str, float]]:
        """Span names by inclusive seconds, largest first."""
        incl = self.summary()["incl"]
        return sorted(incl.items(), key=lambda kv: -kv[1])[:k]

    def dump(self, path) -> None:
        data = {
            "spans": [{"op": op, "id": sid, "parent": parent, "name": name,
                       "start_ns": t0, "end_ns": t1}
                      for sid, (op, parent, name, t0, t1) in enumerate(self.spans)],
            "counts": [dict(c) for c in self.counts],
            "work": dict(self.work),
        }
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
