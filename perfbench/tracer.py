"""Spans and counters around the public functions of linestab's modules.

The tracer patches the program from outside: each public function of the
layer modules is replaced, in every linestab namespace that holds it (the
defining module and every module that imported it by name), by a wrapper
that records a span.  Spans stay in memory as tuples
``(span_id, name, op_id, parent_id, start, end, child_s, evals, rows)`` and
are written out once, when the pass ends.  ``child_s`` is the time covered
by direct children, so a span's self time is ``end - start - child_s``;
``evals`` and ``rows`` are the sextic point evaluations and kernel rows
done inside the span.

Functions called once per point (``HOT``) get a call count and busy time
instead of a span, and ``DirectionPoly.__call__`` only a count, so that
tracing does not swamp what it measures.
"""
from __future__ import annotations

import json
import sys
import types
from time import perf_counter

LAYERS = ("geom", "cone", "sextic", "flexprobe", "polyid")

HOT = {
    "geom.disks_common_point",
    "cone.canonical_permutation",
    "sextic.chart_point_to_direction",
    "polyid.as_exact",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open spans: [id, start, child_s, evals0, rows0]
        self.hot: dict[str, list] = {}  # name -> [calls, busy_s]
        self.point_evals = 0
        self.kernel_rows = 0
        self.op = None
        self.flex_probed = 0
        self.flex_requested = 0
        self.boundary_points = 0
        self.boundary_requested = 0
        self.sample_feasible = 0
        self.sample_total = 0
        self.trace_vertices = 0
        self.sigma_exact_s = 0.0
        self.master_s = 0.0

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            frame = [len(self.spans) + len(self.stack), perf_counter(), 0.0,
                     self.point_evals, self.kernel_rows]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                if self.stack:
                    self.stack[-1][2] += end - frame[1]
                self.spans.append((frame[0], name, self.op, parent, frame[1], end, frame[2],
                                   self.point_evals - frame[3], self.kernel_rows - frame[4]))
            if after is not None:
                after(args, kwargs, result, end - frame[1])
            return result

        return wrapper

    def hot_call(self, name, fn):
        acc = self.hot.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                acc[0] += 1
                acc[1] += dt
                if self.stack:
                    self.stack[-1][2] += dt

        return wrapper

    # -- result hooks ------------------------------------------------------

    def _after(self, name):
        if name == "cone.sample_scene":
            def hook(args, kwargs, result, dt):
                self.sample_feasible += int(result.feasible.sum())
                self.sample_total += len(result.directions)
            return hook
        if name == "cone.boundary_directions_for_triple":
            def hook(args, kwargs, result, dt):
                count = args[1] if len(args) > 1 else kwargs["count"]
                self.boundary_points += len(result)
                self.boundary_requested += int(count)
            return hook
        if name == "flexprobe.certify_flex_free":
            def hook(args, kwargs, result, dt):
                self.flex_probed += result.probed
                self.flex_requested += int(kwargs.get("boundary_samples", 200))
            return hook
        if name == "sextic.trace_curves":
            def hook(args, kwargs, result, dt):
                self.trace_vertices += sum(len(p) for polys in result.curves.values() for p in polys)
            return hook
        if name == "sextic.sigma_from_geometry":
            def hook(args, kwargs, result, dt):
                if hasattr(args[0][0], "denominator"):
                    self.sigma_exact_s += dt
            return hook
        if name == "polyid.check_identity":
            def hook(args, kwargs, result, dt):
                if "master" in args[0].identifier:
                    self.master_s += dt
            return hook
        return None

    def install(self):
        """Wrap the layer modules' public functions wherever they are bound."""
        from linestab import sextic

        namespaces = [m for k, m in sys.modules.items()
                      if (k == "linestab" or k.startswith("linestab.")) and m is not None]
        for layer in LAYERS:
            mod = sys.modules[f"linestab.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in HOT:
                    wrapped = self.hot_call(name, fn)
                elif name == "cone.minimax_slack_batch":
                    wrapped = self.span(name, self._count_rows(fn))
                else:
                    wrapped = self.span(name, fn, self._after(name))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, key, wrapped)

        call = sextic.DirectionPoly.__call__

        def counted_call(poly, *args):
            self.point_evals += 1
            return call(poly, *args)

        sextic.DirectionPoly.__call__ = counted_call

    def _count_rows(self, fn):
        def inner(centers, radii, U, *args, **kwargs):
            result = fn(centers, radii, U, *args, **kwargs)
            self.kernel_rows += len(result)
            return result
        return inner

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for s in sorted(self.spans):
                fh.write(json.dumps({
                    "id": s[0], "name": s[1], "op": s[2], "parent": s[3],
                    "start": s[4], "end": s[5], "child_s": s[6],
                    "sextic_evals": s[7], "kernel_rows": s[8],
                }) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer figures of the traced pass, keyed by metric name."""
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        evals: dict[str, int] = {}
        rows: dict[str, int] = {}
        for _, name, _, _, start, end, child, ev, rw in self.spans:
            busy[name] = busy.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child)
            calls[name] = calls.get(name, 0) + 1
            evals[name] = evals.get(name, 0) + ev
            rows[name] = rows.get(name, 0) + rw
        for name, (n, t) in self.hot.items():
            busy[name] = t
            calls[name] = n

        def ratio(a, b):
            return a / b if b else 0.0

        k = "cone.minimax_slack_batch"
        bd = "cone.boundary_directions_for_triple"
        tc = "sextic.trace_curves"
        ci = "polyid.check_identity"
        sg = "sextic.sigma_from_geometry"
        dcp = "geom.disks_common_point"
        eof = "cone.entry_order_feasible"
        cli_self = sum(self_s[n] for n in self_s if n.startswith("cli."))
        return {
            "cli.self_s": cli_self,
            f"{k}.calls": calls.get(k, 0),
            f"{k}.rows": self.kernel_rows,
            f"{k}.busy_s": busy.get(k, 0.0),
            f"{k}.us_per_row": 1e6 * ratio(busy.get(k, 0.0), self.kernel_rows),
            f"{k}.rows_per_call": ratio(self.kernel_rows, calls.get(k, 0)),
            "cone.sample_scene.feasible_ratio": ratio(self.sample_feasible, self.sample_total),
            "cone.count_components.self_s": self_s.get("cone.count_components", 0.0),
            "cone.enumerate_geometric_permutations.self_s":
                self_s.get("cone.enumerate_geometric_permutations", 0.0),
            f"{eof}.calls": calls.get(eof, 0),
            f"{eof}.busy_s": busy.get(eof, 0.0),
            f"{eof}.ms_per_call": 1e3 * ratio(busy.get(eof, 0.0), calls.get(eof, 0)),
            f"{bd}.busy_s": busy.get(bd, 0.0),
            f"{bd}.rows_per_point": ratio(rows.get(bd, 0), self.boundary_points),
            f"{bd}.delivered_ratio": ratio(self.boundary_points, self.boundary_requested),
            "cone.classify_boundary_direction.busy_s":
                busy.get("cone.classify_boundary_direction", 0.0),
            f"{dcp}.calls": calls.get(dcp, 0),
            f"{dcp}.us_per_call": 1e6 * ratio(busy.get(dcp, 0.0), calls.get(dcp, 0)),
            f"{tc}.calls": calls.get(tc, 0),
            f"{tc}.busy_s": busy.get(tc, 0.0),
            f"{tc}.evals_per_vertex": ratio(evals.get(tc, 0), self.trace_vertices),
            "sextic.point_evals": self.point_evals,
            "sextic.tangent_lines_for_direction.calls":
                calls.get("sextic.tangent_lines_for_direction", 0),
            "sextic.tangent_lines_for_direction.busy_s":
                busy.get("sextic.tangent_lines_for_direction", 0.0),
            f"{sg}.float_busy_s": busy.get(sg, 0.0) - self.sigma_exact_s,
            f"{sg}.exact_busy_s": self.sigma_exact_s,
            "flexprobe.certify_flex_free.self_s": self_s.get("flexprobe.certify_flex_free", 0.0),
            "flexprobe.lifted_config_for_direction.calls":
                calls.get("flexprobe.lifted_config_for_direction", 0),
            "flexprobe.lifted_config_for_direction.busy_s":
                busy.get("flexprobe.lifted_config_for_direction", 0.0),
            "flexprobe.probed_ratio": ratio(self.flex_probed, self.flex_requested),
            f"{ci}.calls": calls.get(ci, 0),
            f"{ci}.ms_per_trial": 1e3 * ratio(busy.get(ci, 0.0), calls.get(ci, 0)),
            f"{ci}.master_share": ratio(self.master_s, busy.get(ci, 0.0)),
        }
