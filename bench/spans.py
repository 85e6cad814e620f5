"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of the windtree layers and records
one span per call: name, parent span, start and end. It rebinds every
module attribute that holds a wrapped function, because callers import
some functions by name (``cli`` binds ``build_sweep``, ``classify_motion``,
``distance_series`` and ``load_config``; ``sweep`` binds ``simulate``), and
patching only the defining module would miss those calls. ``uninstall``
restores every binding, so untraced iterations run the unmodified code.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("billiard", "sweep", "hmm", "io", "svg", "cli", "config")

# Per-element helpers, called once per number or CSV row: a span there would
# cost more than the work it times and swamp the trace.
UNTRACED = {"io.fmt", "billiard.unit", "billiard.locate_cell"}


def _written_bytes(result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def _log_counts(log, args, kwargs):
    return {
        "billiard.collisions": len(log),
        "billiard.corner_events": log.corner_count(),
        "billiard.truncations": int(log.truncated),
    }


# Counters taken from a call's result, keyed by span name. These repeat
# exactly for a given input: if a change moves one, it changed the work done.
COUNTERS = {
    "billiard.simulate": _log_counts,
    "sweep.build_sweep": lambda result, a, k: {"sweep.gaps": len(result.failures)},
    "hmm.baum_welch": lambda report, a, k: {"hmm.em_iterations": report.iterations},
    # one <rect> is the white background; the others are obstacles
    "svg.trajectory_svg_text": lambda text, a, k: {"svg.rects": text.count("<rect") - 1},
    "svg.write_trajectory_svg": lambda r, a, k: {"svg.bytes": _written_bytes(r, a, k)},
}


class Tracer:
    """Spans of one traced iteration: ``[name, parent index, start, end]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"windtree.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[obj] = self._wrap(name, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "windtree" and not mod_name.startswith("windtree."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._bindings.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        # io.write_json under io.write_trajectory_json is one file, not two
        counts_bytes = name.startswith("io.write_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(result, args, kwargs).items():
                    self.counters[key] += value
            if counts_bytes and not (parent >= 0 and spans[parent][0].startswith("io.write_")):
                self.counters["io.bytes_written"] += _written_bytes(result, args, kwargs)
            return result

        return traced

    def records(self) -> list[dict]:
        """Spans with their self time: duration minus the children's durations."""
        child = [0.0] * len(self.spans)
        for _name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            {"name": name, "parent": parent, "start": start, "end": end,
             "self_s": end - start - child[i]}
            for i, (name, parent, start, end) in enumerate(self.spans)
        ]

    def summary(self) -> dict:
        """Inclusive time and calls per span name, self time per layer."""
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_time = {layer: 0.0 for layer in LAYERS}
        for rec in self.records():
            name = rec["name"]
            inclusive[name] += rec["end"] - rec["start"]
            calls[name] += 1
            self_time[name.split(".", 1)[0]] += rec["self_s"]
        return {
            "inclusive_s": dict(inclusive),
            "calls": dict(calls),
            "self_s": self_time,
            "counters": dict(self.counters),
        }


# Per-layer metric -> span name whose inclusive time it reports.
SPAN_TIMES = {f"{name}_s": name for name in (
    "billiard.simulate", "billiard.segment_blocked",
    "sweep.build_sweep", "sweep.estimate_diffusion_exponent",
    "sweep.growth_exponent", "sweep.classify_motion",
    "hmm.default_init", "hmm.baum_welch", "hmm.forward_backward",
    "hmm.posterior_pairs", "hmm.pseudo_residuals",
    "io.write_trajectory_json", "io.write_trajectory_csv",
    "io.read_trajectory_json", "io.read_trajectory_csv", "io.json_roundtrips",
    "io.write_sweep_csv", "io.read_sweep_csv",
)} | {
    "svg.write_s": "svg.write_trajectory_svg",
    "cli.simulate_s": "cli.cmd_simulate",
    "cli.sweep_s": "cli.cmd_sweep",
    "cli.fit_s": "cli.cmd_fit",
    "cli.diagnose_s": "cli.cmd_diagnose",
    "config.load_s": "config.load_config",
}

COUNTS = ("billiard.collisions", "billiard.corner_events", "billiard.truncations",
          "sweep.gaps", "hmm.em_iterations", "io.bytes_written", "svg.bytes",
          "svg.rects")


def layer_metrics(summary: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced iteration whose chain took wall_s.

    A layer the workload never reaches reports 0.
    """
    inclusive, counters = summary["inclusive_s"], summary["counters"]
    metrics = {metric: inclusive.get(span, 0.0) for metric, span in SPAN_TIMES.items()}
    metrics.update({name: counters.get(name, 0) for name in COUNTS})
    metrics["billiard.segment_blocked_calls"] = summary["calls"].get("billiard.segment_blocked", 0)
    collisions = metrics["billiard.collisions"]
    metrics["billiard.us_per_collision"] = (
        1e6 * metrics["billiard.simulate_s"] / collisions if collisions else 0.0)
    iterations = metrics["hmm.em_iterations"]
    metrics["hmm.em_ms_per_iter"] = (
        1e3 * metrics["hmm.baum_welch_s"] / iterations if iterations else 0.0)
    for layer, seconds in summary["self_s"].items():
        metrics[f"{layer}.self_s"] = seconds
    metrics["trace.wall_s"] = wall_s
    metrics["trace.accounted_pct"] = 100.0 * sum(summary["self_s"].values()) / wall_s
    return metrics
