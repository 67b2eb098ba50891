"""Span tracing around calls into qsdsim's modules, and its analysis.

`install` wraps public functions of each qsdsim module (looked up where
their callers look them up) so that every call records a span: name,
start, end and the index of the enclosing span.  Spans stay in memory
and are saved once, when the execution ends.  `layer_metrics` turns the
saved spans into per-layer counts, busy times and self times; a span's
self time is its duration minus that of its direct children.
"""

import os
import time

import numpy as np

# Layer of each span name; the layer is the text before the first dot.
SPAN_NAMES = (
    "cli.main",
    "noise.stream_init", "noise.draw", "noise.sample_dxi",
    "ensemble.config_load", "ensemble.run", "ensemble.compare", "ensemble.write",
    "master.integrate", "master.rhs",
    "qcore.trace_distance",
    "trajectory.run", "trajectory.increment", "trajectory.write",
)
LAYERS = ("noise", "ensemble", "master", "qcore", "trajectory", "cli")


class Tracer:
    """In-memory span recorder for one single-threaded execution."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.normals = 0
        self.bytes_written = 0
        self._stack = [-1]

    def wrap(self, name, fn, after=None):
        """fn with a span around each call; after(args, result) runs inside it."""
        name_id = self._ids[name]
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def save(self, path):
        np.savez(path, names=np.asarray(self.names, dtype=np.int16),
                 starts=np.asarray(self.starts), ends=np.asarray(self.ends),
                 parents=np.asarray(self.parents, dtype=np.int64),
                 normals=self.normals, bytes_written=self.bytes_written)


def install(tracer: Tracer):
    """Patch qsdsim's modules so that calls between them record spans.

    Returns the traced stand-in for cli.main, the root span.
    """
    from qsdsim import cli, ensemble, master, qcore, trajectory
    from qsdsim.noise import NoiseStream

    def count_normals(args, result):
        tracer.normals += int(np.size(result))

    def count_bytes(args, result):      # ensemble writers take the path first
        tracer.bytes_written += os.path.getsize(args[0])

    NoiseStream.__init__ = tracer.wrap("noise.stream_init", NoiseStream.__init__)
    NoiseStream.standard_normal = tracer.wrap(
        "noise.draw", NoiseStream.standard_normal, count_normals)
    trajectory.sample_dxi = tracer.wrap("noise.sample_dxi", trajectory.sample_dxi)

    ensemble.config_from_dict = tracer.wrap("ensemble.config_load",
                                            ensemble.config_from_dict)
    ensemble.run_ensemble = tracer.wrap("ensemble.run", ensemble.run_ensemble)
    ensemble.compare_ensemble_to_master = tracer.wrap(
        "ensemble.compare", ensemble.compare_ensemble_to_master)
    for writer in ("write_summary_json", "write_ensemble_csv",
                   "write_trajectory_csv"):
        setattr(ensemble, writer, tracer.wrap(
            "ensemble.write", getattr(ensemble, writer), count_bytes))

    master.integrate_master = tracer.wrap("master.integrate", master.integrate_master)
    master.psd_master_rhs = tracer.wrap("master.rhs", master.psd_master_rhs)
    qcore.trace_distance = tracer.wrap("qcore.trace_distance", qcore.trace_distance)

    cli.run_trajectory = tracer.wrap("trajectory.run", cli.run_trajectory)
    trajectory.psd_increment = tracer.wrap("trajectory.increment",
                                           trajectory.psd_increment)
    record = trajectory.TrajectoryRecord
    record.write_csv = tracer.wrap("trajectory.write", record.write_csv)
    record.write_json = tracer.wrap("trajectory.write", record.write_json)
    return tracer.wrap("cli.main", cli.main)


def layer_metrics(path) -> dict:
    """Per-layer metrics of one traced execution from its saved spans.

    Raises ValueError when the spans do not nest under one cli.main root.
    """
    with np.load(path) as data:
        names, parents = data["names"], data["parents"]
        dur = data["ends"] - data["starts"]
        normals, bytes_written = int(data["normals"]), int(data["bytes_written"])
    inner = parents >= 0
    self_time = dur - np.bincount(parents[inner], weights=dur[inner],
                                  minlength=len(dur))
    roots = np.flatnonzero(~inner)
    if len(roots) != 1 or names[roots[0]] != SPAN_NAMES.index("cli.main"):
        raise ValueError("spans do not nest under a single cli.main span")
    n_ids = len(SPAN_NAMES)
    calls = dict(zip(SPAN_NAMES, np.bincount(names, minlength=n_ids).tolist()))
    busy = dict(zip(SPAN_NAMES, np.bincount(names, weights=dur, minlength=n_ids)))
    own = dict(zip(SPAN_NAMES, np.bincount(names, weights=self_time,
                                           minlength=n_ids)))
    metrics = {
        "noise.streams": calls["noise.stream_init"],
        "noise.draw_calls": calls["noise.draw"],
        "noise.normals": normals,
        "noise.stream_init_s": busy["noise.stream_init"],
        "noise.draw_s": busy["noise.draw"],
        "noise.sample_dxi_calls": calls["noise.sample_dxi"],
        "noise.sample_dxi_s": busy["noise.sample_dxi"],
        "ensemble.run_s": busy["ensemble.run"],
        "ensemble.kernel_self_s": own["ensemble.run"],
        "ensemble.compare_s": busy["ensemble.compare"],
        "ensemble.compare_self_s": own["ensemble.compare"],
        "ensemble.write_s": busy["ensemble.write"],
        "ensemble.bytes_written": bytes_written,
        "ensemble.config_load_s": busy["ensemble.config_load"],
        "master.integrate_s": busy["master.integrate"],
        "master.rhs_calls": calls["master.rhs"],
        "master.rhs_s": busy["master.rhs"],
        "qcore.trace_distance_calls": calls["qcore.trace_distance"],
        "qcore.trace_distance_s": busy["qcore.trace_distance"],
        "trajectory.run_s": busy["trajectory.run"],
        "trajectory.increment_calls": calls["trajectory.increment"],
        "trajectory.increment_s": busy["trajectory.increment"],
        "trajectory.self_s": own["trajectory.run"],
        "cli.main_s": busy["cli.main"],
        "cli.self_s": own["cli.main"],
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(
            own[name] for name in SPAN_NAMES if name.split(".")[0] == layer)
    return {k: float(v) if isinstance(v, float) else int(v)
            for k, v in metrics.items()}
