"""Span tracing of the satagg layers, installed from outside the package.

`Tracer.install()` replaces public functions of the satagg modules by timing
wrappers, on the module that the caller looks the name up in, so nothing
inside `src/` changes. Each wrapped call records one span (name, start, end,
parent span, request id); the request id is (workload, round, algorithm,
frame) taken from the arguments of the enclosing round and frame calls.
Spans stay in memory until `write_spans`. A name that a later version of the
package no longer has is reported as absent and counts zero calls.

Work done by the tracer itself after a call returns (validating trees,
counting settled nodes) is recorded as a `trace.hook` span, so it is kept out
of every layer's self time and shows as tracing overhead instead.
"""
import functools
import importlib
import json
import math
import os
import time
from functools import cached_property

import numpy as np

LAYERS = ("cli", "config", "geometry", "channel", "topology", "routing", "sim", "hierfl")
ROUTERS = ("taeer", "d_merge", "orbit_greedy")

# (module, attribute) pairs wrapped; the span name is "module.attribute".
WRAPPED = (
    ("geometry", "positions"),
    ("geometry", "feasible_isl_pairs"),
    ("geometry", "nearest_in_orbit"),
    ("channel", "gamma0"),
    ("topology", "build_snapshot"),
    ("topology", "robust_weights"),
    ("routing", "taeer"),
    ("routing", "d_merge"),
    ("routing", "orbit_greedy"),
    ("routing", "select_root"),
    ("routing", "shortest_paths_to_root"),
    ("routing", "dijkstra"),
    ("routing", "shortest_path_csr"),
    ("routing", "build_substitute_graph"),
    ("routing", "chu_liu_edmonds"),
    ("sim", "compare_algorithms"),
    ("sim", "run_scenario"),
    ("sim", "terminals_for_round"),
    ("sim", "sample_attempts"),
    ("sim", "write_metrics_json"),
    ("sim", "write_rounds_csv"),
    ("hierfl", "run_training"),
    ("hierfl", "local_update"),
    ("hierfl", "tree_aggregate"),
    ("hierfl", "make_synthetic_tasks"),
    ("hierfl", "check_learning_rate"),
    ("hierfl", "write_loss_trace_csv"),
    ("config", "read_config"),
    ("config", "build_scenario"),
    ("config", "build_training"),
)
EDGE_INDEX = "topology.edge_index"   # cached property of topology.SnapshotGraph


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []          # (name, start, end, parent index, (round, algorithm, frame))
        self._stack = []
        self._round = None
        self._algorithm = None
        self._frame = None
        self._restore = []
        self.absent = []
        self.snapshot_edges = 0
        self.snapshot_dropped = 0
        self.robust_dropped = 0
        self.dijkstra_dups = 0
        self._dijkstra_seen = set()
        self.settled = 0
        self.terminals = []      # terminal count per round
        self.export_bytes = 0
        self._frame_edges = {}   # (round, frame) -> {algorithm: edge set}
        self.errors = []         # (algorithm, round, message) of trees failing validate()
        self.records = {}        # algorithm -> per-round record summaries

    # -- span recording -------------------------------------------------
    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            rid = (self._round, self._algorithm, self._frame)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, rid)
            if after is not None:
                self._hook(after, args, result)
            return result
        return wrapper

    def _hook(self, after, args, result):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        t0 = time.perf_counter()
        after(args, result)
        self.spans[idx] = ("trace.hook", t0, time.perf_counter(), parent,
                           (self._round, self._algorithm, self._frame))

    def call(self, name, fn, *args):
        """Run fn(*args) as a root span (the CLI command)."""
        return self._wrap(name, fn)(*args)

    # -- installation ---------------------------------------------------
    def install(self):
        hooks = self._hooks()
        for mod_name, attr in WRAPPED:
            module = importlib.import_module(f"satagg.{mod_name}")
            name = f"{mod_name}.{attr}"
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, *hooks.get(name, (None, None))))

        from satagg import topology
        prop = getattr(getattr(topology, "SnapshotGraph", None), "edge_index", None)
        if isinstance(prop, cached_property):
            wrapped = cached_property(self._wrap(EDGE_INDEX, prop.func))
            wrapped.__set_name__(topology.SnapshotGraph, "edge_index")
            self._restore.append((topology.SnapshotGraph, "edge_index", prop))
            topology.SnapshotGraph.edge_index = wrapped
        else:
            self.absent.append(EDGE_INDEX)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _hooks(self):
        def set_round(args):
            try:
                self._round = int(round(args[3] / args[2].slot_len_s))
            except (IndexError, AttributeError, TypeError, ZeroDivisionError):
                self._round = None
            self._algorithm = self._frame = None

        def snapshot_done(args, g):
            self.snapshot_edges += int(g.num_edges)
            self.snapshot_dropped += int(g.dropped_edges)

        def robust_done(args, g):
            self.robust_dropped += int(g.dropped_edges)

        def router(name):
            def before(args):
                self._algorithm = name
                self._frame = args[1] if len(args) > 1 else None
            return before

        def record_edges(name):
            def after(args, result):
                key = (self._round, self._frame)
                self._frame_edges.setdefault(key, {})[name] = frozenset(result.edges)
            return after

        def taeer_done(args, result):
            try:
                result.validate(args[2])
            except AssertionError as exc:
                self.errors.append(("taeer", self._round, str(exc)))
            record_edges("taeer")(args, result)

        def dijkstra_done(args, result):
            key = (self._round, id(args[0]), *args[1:4])
            if key in self._dijkstra_seen:
                self.dijkstra_dups += 1
            else:
                self._dijkstra_seen.add(key)

        def csr_done(args, result):
            self.settled += int(np.count_nonzero(np.isfinite(result[0])))

        def terminals_done(args, result):
            self.terminals.append(len(result[1]))

        def written(args, result):
            self.export_bytes += os.path.getsize(args[0])

        def metrics_done(args, result):
            runs = result.values() if isinstance(result, dict) else [result]
            for m in runs:
                self.records[m.algorithm] = [
                    [r.round_index, r.root, r.num_terminals, r.tree_energy_j,
                     r.attempts, r.edge_frames, bool(r.failed)]
                    for r in m.records]

        return {
            "topology.build_snapshot": (set_round, snapshot_done),
            "topology.robust_weights": (None, robust_done),
            "routing.taeer": (router("taeer"), taeer_done),
            "routing.d_merge": (router("d_merge"), record_edges("d_merge")),
            "routing.orbit_greedy": (router("orbit_greedy"), None),
            "routing.dijkstra": (None, dijkstra_done),
            "routing.shortest_path_csr": (None, csr_done),
            "sim.terminals_for_round": (None, terminals_done),
            "sim.write_metrics_json": (None, written),
            "sim.write_rounds_csv": (None, written),
            "sim.compare_algorithms": (None, metrics_done),
            "sim.run_scenario": (None, metrics_done),
        }

    # -- results --------------------------------------------------------
    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent,
                                     "rid": [self.workload, *rid]}) + "\n")

    def msa_changed(self):
        """(frames where taeer's tree differs from d_merge's edges, frames compared)."""
        both = [e for e in self._frame_edges.values() if "taeer" in e and "d_merge" in e]
        return sum(1 for e in both if e["taeer"] != e["d_merge"]), len(both)

    def metrics(self) -> dict:
        """Per-layer metrics, as (value, unit) pairs keyed by metric name."""
        n = len(self.spans)
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * n
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        incl, self_s, calls, lat = {}, {}, {}, {}
        for i, s in enumerate(self.spans):
            name = s[0]
            incl[name] = incl.get(name, 0.0) + dur[i]
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            calls[name] = calls.get(name, 0) + 1
            lat.setdefault(name, []).append(dur[i] * 1e3)

        def s(name):
            return incl.get(name, 0.0), "s"

        def c(name):
            return calls.get(name, 0), "count"

        path_solves = calls.get("routing.taeer", 0) + calls.get("routing.d_merge", 0)
        dijkstra_calls = calls.get("routing.dijkstra", 0)
        changed, compared = self.msa_changed()
        out = {
            "geometry.feasible_isl_pairs.s": s("geometry.feasible_isl_pairs"),
            "geometry.feasible_isl_pairs.calls": c("geometry.feasible_isl_pairs"),
            "geometry.nearest_in_orbit.calls": c("geometry.nearest_in_orbit"),
            "geometry.positions.calls": c("geometry.positions"),
            "geometry.positions.s": s("geometry.positions"),
            "channel.gamma0.calls": c("channel.gamma0"),
            "channel.gamma0.s": s("channel.gamma0"),
            "topology.build_snapshot.self_s": (self_s.get("topology.build_snapshot", 0.0), "s"),
            "topology.build_snapshot.calls": c("topology.build_snapshot"),
            "topology.snapshot.edges": (self.snapshot_edges, "count"),
            "topology.snapshot.dropped_edges": (self.snapshot_dropped, "count"),
            "topology.edge_index.s": s(EDGE_INDEX),
            "topology.robust_weights.s": s("topology.robust_weights"),
            "topology.robust_weights.dropped_edges": (self.robust_dropped, "count"),
        }
        for algo in ROUTERS:
            samples = lat.get(f"routing.{algo}", [])
            out[f"routing.{algo}.ms.p50"] = (percentile(samples, 0.50), "ms")
            out[f"routing.{algo}.ms.p99"] = (percentile(samples, 0.99), "ms")
        out.update({
            "routing.shortest_paths_to_root.s": s("routing.shortest_paths_to_root"),
            "routing.dijkstra.calls": (dijkstra_calls, "count"),
            "routing.dijkstra.per_frame": (
                dijkstra_calls / path_solves if path_solves else 0.0, "count"),
            "routing.shortest_path_csr.s": s("routing.shortest_path_csr"),
            "routing.shortest_path_csr.settled": (self.settled, "count"),
            "routing.build_substitute_graph.s": s("routing.build_substitute_graph"),
            "routing.chu_liu_edmonds.s": s("routing.chu_liu_edmonds"),
            "routing.taeer.self_s": (self_s.get("routing.taeer", 0.0), "s"),
            "routing.select_root.s": s("routing.select_root"),
            "routing.dijkstra.dup_frac": (
                self.dijkstra_dups / dijkstra_calls if dijkstra_calls else 0.0, "ratio"),
            "routing.msa_changed_frac": (changed / compared if compared else 0.0, "ratio"),
            "sim.terminals_for_round.s": s("sim.terminals_for_round"),
            "sim.terminals.per_round": (
                sum(self.terminals) / len(self.terminals) if self.terminals else 0.0,
                "count"),
            "sim.sample_attempts.calls": c("sim.sample_attempts"),
            "sim.sample_attempts.s": s("sim.sample_attempts"),
            "sim.attempts": (sum(r[4] for recs in self.records.values() for r in recs),
                             "count"),
            "sim.frames": (sum(calls.get(f"routing.{a}", 0) for a in ROUTERS), "count"),
            "sim.self_s": (self_s.get("sim.compare_algorithms", 0.0)
                           + self_s.get("sim.run_scenario", 0.0), "s"),
            "sim.write_metrics_json.s": s("sim.write_metrics_json"),
            "sim.write_rounds_csv.s": s("sim.write_rounds_csv"),
            "sim.export.bytes": (self.export_bytes, "bytes"),
            "hierfl.run_training.s": s("hierfl.run_training"),
            "hierfl.local_update.calls": c("hierfl.local_update"),
            "hierfl.tree_aggregate.calls": c("hierfl.tree_aggregate"),
            "hierfl.make_synthetic_tasks.s": s("hierfl.make_synthetic_tasks"),
            "hierfl.check_learning_rate.s": s("hierfl.check_learning_rate"),
            "hierfl.write_loss_trace_csv.s": s("hierfl.write_loss_trace_csv"),
            "config.read_config.s": s("config.read_config"),
            "config.build_scenario.s": s("config.build_scenario"),
            "config.build_training.s": s("config.build_training"),
        })
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, value in self_s.items():
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += value
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
        roots = [dur[i] for i, sp in enumerate(self.spans) if sp[3] < 0 and sp[0] != "trace.hook"]
        out["trace.wall_s"] = (sum(roots), "s")
        out["trace.self_sum_s"] = (sum(layer_self.values()), "s")
        out["trace.hooks_s"] = (incl.get("trace.hook", 0.0), "s")
        out["trace.spans"] = (n, "count")
        out["trace.absent"] = (len(self.absent), "count")
        return out


def percentile(samples, q):
    """Linear-interpolated quantile q of samples; 0.0 when there are none."""
    if not samples:
        return 0.0
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
