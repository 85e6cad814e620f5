#!/usr/bin/env python3
"""Benchmark of the windtree pipeline: one workload, untraced or traced.

Run from the repository root:

    python3 bench/run.py --workload pipeline --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 0

One client runs a closed loop in this process: each operation starts when
the previous one returns, every command runs with --jobs 1. With --trace 0
the run reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced iterations and reports the per-layer metrics. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. bench/README.md lists every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, layer_metrics

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("pipeline", "trajectory", "fit", "exponent")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


def setup(workload: str, seed: int, work: Path):
    """Import windtree from this checkout and make the workload's inputs."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    # scripts/run_pipeline.py holds the published table the fit workload draws from.
    sys.path.append(str(ROOT / "scripts"))
    import windtree
    if not Path(windtree.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"windtree came from {windtree.__file__}, not from {src}")
    import workloads
    return workloads.WORKLOADS[workload](ROOT, seed, work)


def measure_setup(args) -> list[float]:
    """setup_s samples: each a fresh process, from its start until windtree
    is imported and the inputs are made."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", repr(started)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def median(values: list):
    """Median; counts stay whole numbers (they repeat exactly for a seed)."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def reference_s() -> float:
    """Time of a fixed routine that uses nothing of windtree.

    It mixes what the workloads do: bytecode arithmetic, string formatting
    into lists and dicts, and numpy passes over arrays. It allocates little,
    so it leaves ``peak_rss_mb`` alone. Timed next to each iteration, it tells how fast the shared host
    runs Python at that moment; ``wall_ref`` divides by it.
    """
    import numpy as np
    gc.collect()
    started = time.perf_counter()
    total = 0
    for i in range(1_400_000):
        total += i * i
    for _ in range(12):
        lines, last = [], {}
        for i in range(10_000):
            lines.append(f"{i * 0.37:.6g},{i}\n")
            last[i % 977] = lines[-1]
        "".join(lines)
    values = np.linspace(0.0, 1.0, 100_000)
    scaled = np.empty_like(values)
    for _ in range(120):
        np.multiply(values, 1.0001, out=scaled)
        scaled += 0.5
        float(scaled.sum())
        np.sort(values[::-4])
    return time.perf_counter() - started


def run_iteration(wl, tracer=None) -> tuple[float, list[str]]:
    """Time one pass over the workload's operations, then check them."""
    wl.reset()
    # every iteration starts with the same garbage-collector state
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        started = time.perf_counter()
        codes = [op.run() for op in wl.ops]
        wall = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    errors = [f"{op.label}: {err}" for op, code in zip(wl.ops, codes)
              if (err := op.error(code)) is not None]
    return wall, errors


def measure(wl, seconds: float, trace: bool) -> dict:
    """Closed loop for about `seconds`; with trace, odd iterations are traced."""
    walls, ratios, traced, errors, artifact = [], [], [], [], []
    attempted = 0
    started = time.perf_counter()
    reference = reference_s()
    while True:
        tracer = Tracer() if trace and (len(walls) + len(traced)) % 2 == 1 else None
        wall, errs = run_iteration(wl, tracer)
        before, reference = reference, reference_s()
        attempted += len(wl.ops)
        errors += errs
        artifact.append(wl.artifact_bytes())
        ratio = 2.0 * wall / (before + reference)
        if tracer is None:
            walls.append(wall)
            ratios.append(ratio)
        else:
            traced.append((wall, layer_metrics(tracer.summary(), wall), tracer.records(), ratio))
        rounds = len(walls) + len(traced)
        spent = time.perf_counter() - started
        if rounds >= (2 if trace else 1) and spent * (rounds + 1) / rounds > seconds:
            break
    return {"walls": walls, "ratios": ratios, "traced": traced, "errors": errors,
            "attempted": attempted, "artifact_bytes": artifact}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(args, wl) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": wl.sizes,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "git_sha": git_sha(),
    }


def run_workload(args) -> int:
    work = WORK / args.workload
    if args.setup_probe is not None:
        setup(args.workload, args.seed, work / "probe")
        print(time.time() - float(args.setup_probe))
        return 0

    spec = json.loads(BENCHMARK.read_text())
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = setup(args.workload, args.seed, work / "run")
        # set-up is an end-to-end metric: a traced run skips the probes
        setup_samples = [] if args.trace else measure_setup(args)
    except Exception as exc:  # the benchmark cannot run here: report, print no result
        print(f"setup failed: {exc!r}", file=sys.stderr)
        return 2

    run = measure(wl, args.seconds, bool(args.trace))
    failed = len(run["errors"])
    walls = run["walls"]
    if args.trace:
        values = {name: median([t[1][name] for t in run["traced"]])
                  for name in run["traced"][0][1]}
        values.update(wl.layer_probes())
        # in reference units, so that the host's drift between iterations cancels
        traced_ref = statistics.median(t[3] for t in run["traced"])
        values["trace.overhead_pct"] = 100.0 * (traced_ref / statistics.median(run["ratios"]) - 1.0)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(walls),
            "wall_ref": statistics.median(run["ratios"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "artifact_mb": statistics.median(run["artifact_bytes"]) / 1e6,
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"no value for metrics {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    meta = run_metadata(args, wl)
    samples = {"setup_s": setup_samples, "wall_s": walls, "wall_ref": run["ratios"],
               "traced_wall_s": [t[0] for t in run["traced"]]}
    result = {"meta": meta, "samples": samples,
              "per_layer" if args.trace else "end_to_end": values,
              "failed_ratio": failed / run["attempted"], "errors": run["errors"]}
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        spans = [{"iteration": i, "spans": t[2]} for i, t in enumerate(run["traced"])]
        (work / "spans.json").write_text(json.dumps(spans))

    print(f"# meta {json.dumps(meta)}")
    for error in run["errors"][:20]:
        print(f"# FAILED {error}")
    basis = {"setup_s": f"median of {len(setup_samples)} processes",
             "wall_s": f"median of {len(walls)} iterations",
             "wall_ref": f"median of {len(walls)} iterations",
             "peak_rss_mb": "peak of this process",
             "artifact_mb": f"median of {len(run['artifact_bytes'])} iterations"}
    shown = dict(metrics)
    if not args.trace:
        shown.setdefault("wall_s", {"value": values["wall_s"], "unit": "s"})
    for name, metric in shown.items():
        note = basis.get(name, f"median of {len(run['traced'])} traced iterations")
        print(f"{name:<40} {metric['value']:>14.6g} {metric['unit']:<6} ({note})")
    print(f"{'failed_ratio':<40} {failed / run['attempted']:>14.6g} "
          f"{'ratio':<6} ({failed} of {run['attempted']} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": run["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one table at the end."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = proc.returncode
            continue
        # the metric and FAILED lines, without the metadata and the JSON result
        rows += [f"{name:<11} {line}" for line in proc.stdout.splitlines()[:-1]
                 if not line.startswith("# meta")]
    print("\n".join(rows))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description="windtree benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
