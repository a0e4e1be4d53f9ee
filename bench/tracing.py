"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces every public function of every weaktrace
module with a wrapper, in the module that defines it and wherever it was
re-bound by import (``cli.enumerate_paths``, ``spectra.enumerate_paths``,
the package namespace, ...).  Each call becomes a span (name, parent,
start, end, operation) kept in memory; ``write`` stores them once, at the
end of the run.  Self time is a span's duration minus its direct
children's.

Counters are read from arguments and results after the call returns.
The route and signature-class counts behind ``spectra.readout_pairs`` and
``spectra.signature_classes`` are computed by the benchmark's own graph
walk, inside a ``bench.count`` span so that they are not billed to the
program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import oracle

MODULES = ("cli", "scenario", "netgraph", "pathsum", "weakval", "spectra", "reports", "randomnet")


def _self_ms(name):
    return ("self", (name,))


# metric -> (kind, names).  "self" sums the self time of the named spans,
# "self_prefix" of every span whose name starts with the prefix, "incl"
# their durations, "calls" counts them, "counter" sums a recorded counter,
# "ratio" divides two counters.
LAYER_METRICS = {
    "cli.main.ms": ("incl", ("cli.main",)),
    "cli.self.ms": ("self_prefix", ("cli.",)),
    "cli.bytes_written": ("counter", ("bytes_written",)),
    "scenario.parse_scenario.ms": _self_ms("scenario.parse_scenario"),
    "scenario.build_scenario_network.ms": _self_ms("scenario.build_scenario_network"),
    "scenario.scenario_doc.ms": _self_ms("scenario.scenario_doc"),
    "netgraph.build_network.ms": _self_ms("netgraph.build_network"),
    "netgraph.build_network.calls": ("calls", ("netgraph.build_network",)),
    "netgraph.nodes_validated": ("counter", ("nodes",)),
    "netgraph.apply_block.ms": ("incl", ("netgraph.apply_block",)),
    "pathsum.enumerate_paths.ms": _self_ms("pathsum.enumerate_paths"),
    "pathsum.enumerate_paths.calls": ("calls", ("pathsum.enumerate_paths",)),
    "pathsum.paths_enumerated": ("counter", ("paths",)),
    "pathsum.propagate.ms": (
        "self",
        ("pathsum.propagate", "pathsum.terminal_amplitudes", "pathsum.arm_input_amplitudes"),
    ),
    "weakval.weak_values.ms": ("incl", ("weakval.weak_values",)),
    "weakval.relative_amplitudes.ms": _self_ms("weakval.relative_amplitudes"),
    "weakval.projector_weak_value.calls": ("calls", ("weakval.projector_weak_value",)),
    "weakval.pointer_shift_exact.ms": _self_ms("weakval.pointer_shift_exact"),
    "spectra.readout_timeseries.ms": _self_ms("spectra.readout_timeseries"),
    "spectra.readout_pairs": ("counter", ("readout_pairs",)),
    "spectra.signature_classes": ("counter", ("signature_classes",)),
    "spectra.spectrum.ms": _self_ms("spectra.spectrum"),
    "spectra.run_spectral_experiment.self.ms": _self_ms("spectra.run_spectral_experiment"),
    "spectra.run_blocking_suite.ms": ("incl", ("spectra.run_blocking_suite",)),
    "reports.render_json.ms": _self_ms("reports.render_json"),
    "reports.json_bytes": ("counter", ("json_bytes",)),
    "reports.result.ms": (
        "self",
        (
            "reports.envelope",
            "reports.paths_result",
            "reports.weak_result",
            "reports.pointer_result",
            "reports.spectral_result",
            "reports.blocking_result",
        ),
    ),
    "reports.csv.ms": ("self", ("reports.timeseries_csv", "reports.spectrum_csv")),
    "reports.csv_bytes_built": ("counter", ("csv_bytes_built",)),
    "reports.csv_used_ratio": ("ratio", ("csv_bytes_written", "csv_bytes_built")),
}


def metric_unit(name: str) -> str:
    if name.endswith(".ms"):
        return "ms"
    if name.endswith("bytes_written") or name.endswith("_bytes") or name.endswith("bytes_built"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Records spans and counters for the program's public functions."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []  # [name, parent index, start, end, op, counters]
        self.stack: list[int] = []
        self.op = -1
        self.op_counters: list[dict] = []
        self._class_cache: dict = {}

    def install(self):
        modules = [importlib.import_module(f"weaktrace.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules + [self.package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def begin_op(self):
        self.op += 1
        self.op_counters.append({})

    def add_op_counter(self, key: str, value: float):
        counters = self.op_counters[self.op]
        counters[key] = counters.get(key, 0) + value

    def _span(self, name):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, parent, 0.0, 0.0, self.op, None])
        self.stack.append(idx)
        return idx

    def _wrap(self, name, fn):
        counter = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._span(name)
            span = self.spans[idx]
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return wrapper

    # counters, keyed by wrapped function name --------------------------

    def _count_netgraph_build_network(self, args, kwargs, result):
        return {"nodes": len(result.nodes)}

    def _count_pathsum_enumerate_paths(self, args, kwargs, result):
        return {"paths": len(result.paths)}

    def _count_reports_render_json(self, args, kwargs, result):
        return {"json_bytes": len(result)}

    def _count_reports_timeseries_csv(self, args, kwargs, result):
        return {"csv_bytes_built": len(result)}

    _count_reports_spectrum_csv = _count_reports_timeseries_csv

    def _count_spectra_readout_timeseries(self, args, kwargs, result):
        net, plan = args[0], args[1]
        detector = args[3] if len(args) > 3 else kwargs.get("detector")
        idx = self._span("bench.count")
        self.spans[idx][2] = time.perf_counter()
        try:
            routes, classes = self._classes(net, plan, detector)
        finally:
            self.spans[idx][3] = time.perf_counter()
            self.stack.pop()
        return {"readout_pairs": plan.samples * routes**2, "signature_classes": classes}

    def _classes(self, net, plan, detector):
        """(routes, signature classes) to the detector, cached per geometry.

        Blocking an arm keeps the node tuple and the route set, so the node
        tuple, held here to keep its id unique, identifies the geometry.
        """
        detector = detector or net.detectors[0]
        sites = tuple(sorted(sm.site for sm in plan.sites))
        key = (id(net.nodes), detector, sites)
        if key not in self._class_cache:
            doc = {
                "nodes": [
                    {"id": n.id, "kind": n.kind}
                    | ({"scatter": [list(r) for r in n.scatter]} if n.scatter else {})
                    for n in net.nodes
                ],
                "arms": [
                    {"id": a.id, "from": [a.from_node, a.from_port], "to": [a.to_node, a.to_port], "label": a.label}
                    for a in net.arms
                ],
            }
            routes, classes = oracle.Graph(doc).classes(detector, sites)
            self._class_cache[key] = (net.nodes, routes, len(classes))
        _, routes, k = self._class_cache[key]
        return routes, k

    # aggregation ---------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                out[s[1]] -= s[3] - s[2]
        return out

    def layer_metrics(self, ops: list[int]) -> dict:
        """Per-operation means of every metric in LAYER_METRICS over ``ops``."""
        ops = set(ops)
        n = max(1, len(ops))
        selft = self.self_times()
        spans: dict = {}  # name -> [self seconds, inclusive seconds, calls]
        counts: dict = {}
        for i, (name, _parent, t0, t1, op, counters) in enumerate(self.spans):
            if op not in ops:
                continue
            rec = spans.setdefault(name, [0.0, 0.0, 0])
            rec[0] += selft[i]
            rec[1] += t1 - t0
            rec[2] += 1
            for key, value in (counters or {}).items():
                counts[key] = counts.get(key, 0) + value
        for op in ops:
            for key, value in self.op_counters[op].items():
                counts[key] = counts.get(key, 0) + value

        field = {"self": 0, "incl": 1, "calls": 2}
        out = {}
        for metric, (kind, names) in LAYER_METRICS.items():
            if kind == "ratio":
                built = counts.get(names[1], 0)
                value = counts.get(names[0], 0) / built if built else 1.0
            else:
                if kind in field:
                    total = sum(spans.get(nm, (0.0, 0.0, 0))[field[kind]] for nm in names)
                elif kind == "self_prefix":
                    total = sum(r[0] for nm, r in spans.items() if nm.startswith(names[0]))
                else:
                    total = sum(counts.get(key, 0) for key in names)
                value = total / n * (1000.0 if metric.endswith(".ms") else 1.0)
            out[metric] = {"value": value, "unit": metric_unit(metric)}
        return out

    def write(self, path):
        """Store every span, one JSON object per line."""
        with open(path, "w") as fh:
            for name, parent, t0, t1, op, counters in self.spans:
                rec = {"name": name, "parent": parent, "start": t0, "end": t1, "op": op}
                if counters:
                    rec["counters"] = counters
                fh.write(json.dumps(rec) + "\n")
