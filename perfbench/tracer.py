"""Per-layer tracing from outside the program.

The tracer replaces engine functions with timing wrappers at the names where
their callers look them up at call time (module attributes and class
methods); nothing inside `src/qident` changes.  Layer-boundary calls record
one span each (name, start, end, parent span, command id); the hot kernels
and small helpers that run hundreds of thousands of times per command are
aggregated into a call count, a total time and work counters instead, so the
traced run's memory stays bounded.  Every wrapper adds its duration to its
parent's child time, so self time is duration minus child spans.
"""

from __future__ import annotations

import time

_perf = time.perf_counter

# span record fields
NAME, START, END, PARENT, COMMAND, CHILD_S, TAG = range(7)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, command, child_s, tag]
        self.stack = []          # [span index or -1 when aggregated, child seconds]
        self.agg = {}            # name -> {"calls", "total_s", "self_s", counters...}
        self.command = None
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = next((f[0] for f in reversed(stack) if f[0] >= 0), -1)
            rec = [name, 0.0, 0.0, parent, self.command, 0.0, None]
            frame = [len(spans), 0.0]
            spans.append(rec)
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                rec[START], rec[END], rec[CHILD_S] = t0, t1, frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if on_result is not None:
                on_result(self, rec, args, result)
            return result

        return wrapper

    def aggregate(self, name, fn, count=None):
        stack = self.stack
        acc = self.agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

        def wrapper(*args, **kwargs):
            frame = [-1, 0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                stack.pop()
                acc["calls"] += 1
                acc["total_s"] += dt
                acc["self_s"] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if count is not None:
                count(acc, args, result)
            return result

        return wrapper

    def patch(self, owner, attr, wrapper_of):
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper_of(original))
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------

    def of(self, name):
        return [s for s in self.spans if s[NAME] == name]

    def total(self, name):
        return sum(s[END] - s[START] for s in self.of(name))

    def self_time(self, name):
        return sum(s[END] - s[START] - s[CHILD_S] for s in self.of(name))

    def agg_value(self, name, key):
        return self.agg.get(name, {}).get(key, 0)


def _bump(acc, key, n):
    acc[key] = acc.get(key, 0) + n


def _count_geom_div(acc, args, _result):
    arr, step = args
    _bump(acc, "elems", max(len(arr) - step, 0))


def _count_nahm_tail(acc, _args, result):
    _bump(acc, "nodes", result)


def _count_conv_trunc(acc, args, _result):
    a, b, n = args
    la, lb = len(a), len(b)
    out_len = min(n, la + lb - 1) if la and lb else 0
    _bump(acc, "ops", sum(min(lb, out_len - i) for i in range(min(la, out_len))))


def _count_rank(acc, args, result):
    rows = args[0]
    _bump(acc, "rows", len(rows))
    _bump(acc, "nnz", sum(len(r) for r in rows))
    _bump(acc, "monomial_rows", sum(1 for r in rows if len(r) == 1))
    _bump(acc, "sum", result)
    acc["max_rows"] = max(acc.get("max_rows", 0), len(rows))


def _count_reps(acc, _args, result):
    _bump(acc, "reps", len(result))


def _count_nc_terms(_tracer, rec, _args, result):
    rec[TAG] = len(result.terms)


def _count_result_terms(_tracer, rec, _args, result):
    rec[TAG] = {"terms": len(result.terms), "strategy": rec[TAG]}


def _count_ideal(_tracer, rec, _args, result):
    rec[TAG] = len(result)


def _tag_strategy(tracer, rec, _args, result):
    # evaluate() asks for its bound first; record the strategy on its span
    parent = rec[PARENT]
    if parent >= 0 and tracer.spans[parent][NAME] == "nahm.evaluate":
        tracer.spans[parent][TAG] = result.strategy


def install(tracer):
    """Wrap every traced call site; returns the tracer for chaining."""
    from qident import cli, jets, kernels, nahm, quiver, qweyl, series

    span, agg, patch = tracer.span, tracer.aggregate, tracer.patch
    patch(nahm, "evaluate", lambda f: span("nahm.evaluate", f, _count_result_terms))
    patch(nahm, "compute_bound", lambda f: span("nahm.compute_bound", f, _tag_strategy))
    patch(kernels, "geom_div", lambda f: agg("kernels.geom_div", f, _count_geom_div))
    patch(kernels, "nahm_tail", lambda f: agg("kernels.nahm_tail", f, _count_nahm_tail))
    patch(kernels, "conv_trunc", lambda f: agg("kernels.conv_trunc", f, _count_conv_trunc))
    patch(series.QSeries, "__mul__", lambda f: agg("series.mul", f))
    for module in (nahm, jets, quiver, cli):
        patch(module, "series_eq", lambda f: agg("series.compare", f))
    for module in (series, nahm, qweyl, quiver):
        patch(module, "inv_pochhammer_dense",
              lambda f: agg("series.inv_pochhammer_dense", f))
    patch(cli, "euler_product", lambda f: agg("series.euler_product", f))
    patch(jets, "hilbert_series", lambda f: span("jets.hilbert_series", f))
    patch(jets, "generate_ideal", lambda f: span("jets.generate_ideal", f, _count_ideal))
    patch(jets, "monomials_of_weight", lambda f: agg("jets.monomials_of_weight", f))
    patch(jets, "rank_of_rows", lambda f: agg("linalg.rank", f, _count_rank))
    patch(qweyl, "dilog", lambda f: span("qweyl.dilog", f))
    patch(qweyl, "nc_eq", lambda f: span("qweyl.nc_eq", f))
    patch(qweyl.NCElement, "__mul__", lambda f: span("qweyl.nc_mul", f, _count_nc_terms))
    patch(qweyl.LaurentQ, "__mul__", lambda f: agg("qweyl.laurent_mul", f))
    patch(quiver, "verify_theorem51", lambda f: span("quiver.verify_theorem51", f))
    patch(quiver, "enumerate_reps", lambda f: agg("quiver.enumerate_reps", f, _count_reps))
    patch(quiver, "codim", lambda f: agg("quiver.codim", f))
    return tracer


def layer_metrics(tracer, report_bytes):
    """Per-layer metrics of one traced pass: {name: (value, unit)}."""
    t = tracer
    evals = t.of("nahm.evaluate")
    rank_rows = t.agg_value("linalg.rank", "rows")
    rank_sum = t.agg_value("linalg.rank", "sum")

    def eval_s(strategy):
        return sum(s[END] - s[START] for s in evals
                   if isinstance(s[TAG], dict) and s[TAG]["strategy"] == strategy)

    m = {
        "cli.commands": (len(t.of("cli.command")), "count"),
        "cli.self_s": (t.self_time("cli.command"), "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
        "nahm.evaluate.calls": (len(evals), "count"),
        "nahm.evaluate.pd_s": (eval_s("positive_definite"), "s"),
        "nahm.evaluate.monotone_s": (eval_s("all_nonneg"), "s"),
        "nahm.compute_bound_s": (t.total("nahm.compute_bound"), "s"),
        "nahm.result_terms": (sum(s[TAG]["terms"] for s in evals
                                  if isinstance(s[TAG], dict)), "count"),
    }
    for kernel, work in (("geom_div", "elems"), ("nahm_tail", "nodes"), ("conv_trunc", "ops")):
        name = f"kernels.{kernel}"
        m[f"{name}.calls"] = (t.agg_value(name, "calls"), "count")
        m[f"{name}.{work}"] = (t.agg_value(name, work), "count")
        m[f"{name}_s"] = (t.agg_value(name, "total_s"), "s")
    m.update({
        "series.mul.calls": (t.agg_value("series.mul", "calls"), "count"),
        "series.mul_s": (t.agg_value("series.mul", "total_s"), "s"),
        "series.compare_s": (t.agg_value("series.compare", "total_s"), "s"),
        "series.inv_pochhammer_dense_s":
            (t.agg_value("series.inv_pochhammer_dense", "total_s"), "s"),
        "jets.hilbert_series_s": (t.total("jets.hilbert_series"), "s"),
        "jets.generate_ideal_s": (t.total("jets.generate_ideal"), "s"),
        "jets.ideal_gens": (sum(s[TAG] for s in t.of("jets.generate_ideal")
                                if s[TAG] is not None), "count"),
        "jets.monomials_of_weight_s": (t.agg_value("jets.monomials_of_weight", "total_s"), "s"),
        "jets.row_build_s": (t.self_time("jets.hilbert_series"), "s"),
        "linalg.rank.calls": (t.agg_value("linalg.rank", "calls"), "count"),
        "linalg.rank.rows": (rank_rows, "count"),
        "linalg.rank.nnz": (t.agg_value("linalg.rank", "nnz"), "count"),
        "linalg.rank.max_rows": (t.agg_value("linalg.rank", "max_rows"), "count"),
        "linalg.rank.monomial_rows": (t.agg_value("linalg.rank", "monomial_rows"), "count"),
        "linalg.rank.sum": (rank_sum, "count"),
        "linalg.rank_s": (t.agg_value("linalg.rank", "total_s"), "s"),
        # useful pivots per row built; its base is linalg.rank.rows
        "linalg.rank.yield": (rank_sum / rank_rows if rank_rows else 0.0, "1"),
        "qweyl.dilog.calls": (len(t.of("qweyl.dilog")), "count"),
        "qweyl.dilog_s": (t.total("qweyl.dilog"), "s"),
        "qweyl.nc_mul.calls": (len(t.of("qweyl.nc_mul")), "count"),
        "qweyl.nc_mul_s": (t.total("qweyl.nc_mul"), "s"),
        "qweyl.nc_mul.terms": (sum(s[TAG] for s in t.of("qweyl.nc_mul")
                                   if s[TAG] is not None), "count"),
        "qweyl.laurent_mul.calls": (t.agg_value("qweyl.laurent_mul", "calls"), "count"),
        "qweyl.nc_eq_s": (t.total("qweyl.nc_eq"), "s"),
        "quiver.verify_theorem51.calls": (len(t.of("quiver.verify_theorem51")), "count"),
        "quiver.verify_theorem51_s": (t.total("quiver.verify_theorem51"), "s"),
        "quiver.enumerate_reps.reps": (t.agg_value("quiver.enumerate_reps", "reps"), "count"),
        "quiver.codim.calls": (t.agg_value("quiver.codim", "calls"), "count"),
    })
    return m
