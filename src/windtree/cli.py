"""Command-line pipeline: simulate, sweep, fit, diagnose.

Exit codes: 0 success, 2 configuration or input error, 3 simulation
failure, 4 fit or diagnostic failure. Failures, usage errors among them,
also emit a one-line machine-readable error JSON on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import billiard, hmm, io, svg
from .config import ConfigError, PipelineConfig, apply_overrides, load_config
from .sweep import (
    MIN_OVERLAP,
    InsufficientData,
    MotionLabel,
    SweepSpec,
    build_sweep,
    classify_motion,
    motion_distances,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_FIT = 4


# Each flag that sets a config field: the field (its argparse dest) and its
# type. COMMANDS gives each command the flags it reads besides --out.
FLAGS = {"--out": ("output_dir", str),
         "--slope": ("simulate.slope", float), "--collisions": ("simulate.n_collisions", int),
         "--states": ("hmm.m", int), "--iters": ("hmm.max_iters", int)}
COMMANDS = {
    "simulate": ("run one trajectory, write CSV/JSON/SVG", ["--slope", "--collisions"]),
    "sweep": ("compute the recurrence statistic over the slope grid", []),
    "fit": ("fit the hidden Markov model to a sweep CSV", ["--states", "--iters"]),
    "diagnose": ("re-check invariants of persisted artifacts", []),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 2 like any other bad input
        raise ConfigError(f"{self.prog}: {message}")


# Built once per process: each parse fills a fresh Namespace, and flags a
# command does not read are never set (default SUPPRESS), so one command's
# flags cannot reach the next.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="windtree",
                     description="Periodic wind-tree billiard experiments and HMM fit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        for flag in ["--out", *flags]:
            dest, kind = FLAGS[flag]
            p.add_argument(flag, dest=dest, type=kind, default=argparse.SUPPRESS,
                           metavar=flag[2:].upper(), help=f"sets config {dest}")
        # bench/workloads.py passes --jobs 1 to every command, the only reason
        # --jobs parses: it sets nothing, any other value is a usage error,
        # and it goes when the bench stops passing it.
        p.add_argument("--jobs", type=int, choices=[1], default=argparse.SUPPRESS,
                       help="accepted only as 1; sets nothing")
        if command == "fit":
            p.add_argument("observations", nargs="?", default=None,
                           help="sweep CSV to fit (default: <out>/sweep.csv)")
    return parser


def _fail(code: int, message: str) -> int:
    print(json.dumps({"error": message, "exit_code": code}))
    return code


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
        overrides = {dest: args[dest] for dest, _ in FLAGS.values() if dest in args}
        config = apply_overrides(load_config(args["config"]), overrides)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    out = Path(config.output_dir)
    if args["command"] == "diagnose":
        return cmd_diagnose(config, out)
    out.mkdir(parents=True, exist_ok=True)

    if args["command"] == "simulate":
        return cmd_simulate(config, out)
    if args["command"] == "sweep":
        return cmd_sweep(config, out)
    return cmd_fit(config, out, args["observations"])


def cmd_simulate(config: PipelineConfig, out: Path) -> int:
    sim = config.simulate
    try:
        log = billiard.simulate(billiard.state_from_slope(sim.slope), sim.n_collisions)
    except (ValueError, billiard.DegenerateVelocity) as exc:
        return _fail(EXIT_SIMULATION, f"simulation failed: {exc}")

    io.write_artifact(io.trajectory_columns(log), out / "trajectory.csv")
    svg.write_trajectory_svg(log, out / "trajectory.svg")

    summary: dict = {
        "slope": sim.slope,
        "n_collisions_requested": sim.n_collisions,
        "n_collisions": len(log),
        "truncated": log.truncated,
        "truncation_reason": log.truncation_reason,
    }
    try:
        motion = classify_motion(log)
        summary["motion"] = {"label": motion.label.value, "evidence": motion.evidence}
    except InsufficientData as exc:
        summary["motion"] = {"label": None, "reason": str(exc)}
    io.write_artifact(summary, out / "summary.json")
    print(f"wrote trajectory ({len(log)} events) to {out}")
    return EXIT_OK


def cmd_sweep(config: PipelineConfig, out: Path) -> int:
    started = time.perf_counter()
    try:
        result = build_sweep(config.sweep)
    except ValueError as exc:
        return _fail(EXIT_SIMULATION, f"sweep failed: {exc}")
    elapsed = time.perf_counter() - started

    io.write_artifact(result.columns, out / "sweep.csv")
    io.write_artifact(io.sweep_meta_doc(result, elapsed), out / "sweep_meta.json")
    n_fail = len(result.failures)
    print(f"wrote {len(result.columns['t'])} observations "
          f"({n_fail} failures) to {out} in {elapsed:.1f}s")
    if n_fail > 0.10 * config.sweep.count:
        return _fail(EXIT_SIMULATION, f"{n_fail} of {config.sweep.count} slopes failed")
    return EXIT_OK


def cmd_fit(config: PipelineConfig, out: Path, observations: str | None) -> int:
    obs_path = Path(observations) if observations else out / "sweep.csv"
    try:
        obs = io.parse_csv(obs_path.read_text(), io.SWEEP_CSV)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_CONFIG, f"cannot read observations {obs_path}: {exc}")
    ts, xs = obs["t"], obs["logD"]
    if (ts[1:] <= ts[:-1]).any():
        i = int(np.argmax(ts[1:] <= ts[:-1])) + 1
        return _fail(EXIT_CONFIG, f"{obs_path} row t={ts[i]} is not greater than "
                                  f"t={ts[i - 1]} of the row before it")
    if not np.isfinite(xs).all():
        i = int(np.argmin(np.isfinite(xs)))
        return _fail(EXIT_CONFIG, f"{obs_path} row t={ts[i]} has non-finite logD {xs[i]}")
    if len(xs) < config.hmm.m:
        return _fail(EXIT_CONFIG,
                     f"{obs_path} has {len(xs)} rows, need >= {config.hmm.m}")

    try:
        init = hmm.default_init(xs, config.hmm.m)
        report = hmm.baum_welch(xs, init, max_iters=config.hmm.max_iters)
        u = hmm.pseudo_residuals(report.params, xs)
        counts = hmm.residual_histogram(u)
    except (hmm.NumericalUnderflow, ValueError) as exc:
        return _fail(EXIT_FIT, f"fit failed: {exc}")

    io.write_artifact(io.model_json_doc(report), out / "model.json")
    io.write_artifact({"t": ts, "x": xs, "u": u}, out / "residuals.csv")
    io.write_artifact({"counts": counts.tolist()}, out / "histogram.json")
    print(f"fitted {config.hmm.m}-state model on {len(xs)} observations; "
          f"final loglik {report.loglik_trace[-1]:.4f}; "
          f"means {np.round(report.params.mu, 4).tolist()}")
    return EXIT_OK


def _summary_checks(summary, _):
    n = summary["n_collisions"]
    yield "summary truncated exactly when short of the requested collisions", (
        summary["truncated"] is (n < summary["n_collisions_requested"]))
    yield "summary truncation_reason given exactly when truncated", (
        (summary["truncation_reason"] is not None) is summary["truncated"])
    motion, too_short = summary["motion"], n < 2 * MIN_OVERLAP
    yield f"summary motion label null exactly under {2 * MIN_OVERLAP} strikes", (
        (motion["label"] is None) is too_short)
    if motion["label"] is None or too_short:
        return
    # the label's own evidence; the lag scan behind the quasi-periodic fields
    # is not redone
    label, evidence = MotionLabel(motion["label"]), motion["evidence"]
    yield "summary motion Recurrent exactly when min_return_distance < eps_recur", (
        (label is MotionLabel.RECURRENT)
        is (evidence["min_return_distance"] < evidence["eps_recur"]))


def _trajectory_checks(cols, _):
    ks, xs, ys, ts = cols["k"], cols["x"], cols["y"], cols["t"]
    yield "trajectory k counts rows", ks.tolist() == list(range(len(ks)))
    yield "trajectory times strictly increasing", bool(np.all(ts[1:] > ts[:-1]))
    cx, cy = billiard.cell_centers(xs[1:], ys[1:])
    gap = np.maximum(np.abs(xs[1:] - cx), np.abs(ys[1:] - cy))
    yield "trajectory points on obstacle boundaries", bool(np.all(np.abs(gap - 0.5) <= 1e-9))


def _replay_checks(cols, summary):
    # the initial velocity is the slope's, as simulate started it
    log = io.read_trajectory(cols, billiard.state_from_slope(summary["slope"]).velocity)
    # each logged strike again, from the state before it; the kernel flips
    # each velocity itself, and the log derives it from the walls
    rays = billiard.strike_origins(log)
    rays.step()
    replayed = (*rays.p, rays.t, rays.wall, *rays.v)
    logged = (log.x, log.y, log.t, log.wall, *log.velocities())
    yield "trajectory replays on the collision kernel", all(
        a.tobytes() == b.tobytes() for a, b in zip(replayed, logged))
    yield "summary n_collisions counts trajectory strikes", summary["n_collisions"] == len(log)
    motion = summary["motion"]
    if motion["label"] is not None and len(log) >= 2 * MIN_OVERLAP:
        evidence = motion["evidence"]
        yield "summary motion distances recomputed from trajectory.csv", (
            (evidence["min_return_distance"], evidence["final_distance"],
             evidence["max_distance"]) == motion_distances(log))


def _sweep_checks(cols, _):
    ds, log_ds = cols["D"].tolist(), cols["logD"].tolist()
    yield "sweep logD = ln(D)", all(abs(b - math.log(a)) <= 1e-12 for a, b in zip(ds, log_ds))
    yield "sweep D positive finite", all(d > 0 and math.isfinite(d) for d in ds)


def _sweep_grid_checks(meta, cols):
    spec = SweepSpec(**meta["spec"])
    yield "sweep slopes on the arithmetic grid", all(
        abs(slope - spec.slope_at(t)) <= 1e-12
        for t, slope in zip(cols["t"].tolist(), cols["slope"].tolist()))
    yield "sweep_meta completed counts sweep rows", meta["completed"] == len(cols["t"])


def _model_checks(doc, _):
    # HmmParams checks the shapes, finiteness, probability sums and sigma > 0;
    # its ValueError fails "model.json fields"
    params = hmm.HmmParams(doc["delta"], doc["gamma"], doc["mu"], doc["sigma"])
    yield "model m counts the states", doc["m"] == params.m
    yield "model state_order is a permutation of its states", (
        sorted(doc["state_order"]) == list(range(params.m)))
    yield "model means sorted ascending", all(b >= a for a, b in zip(doc["mu"], doc["mu"][1:]))
    trace = doc["loglik_trace"]
    yield "model loglik trace non-decreasing", all(b >= a - 1e-9
                                                   for a, b in zip(trace, trace[1:]))
    return params, trace


def _residuals_checks(cols, _):
    ts, u = cols["t"], cols["u"]
    yield "residuals t strictly increasing", bool(np.all(ts[1:] > ts[:-1]))
    yield "residuals in [0, 1]", bool(np.all((u >= 0.0) & (u <= 1.0)))


def _residuals_model_checks(cols, model):
    params, trace = model
    x = cols["x"]
    tables = hmm.forward_backward(params, x)
    yield "residuals u recomputed from the model", bool(
        np.all(np.abs(hmm.pseudo_residuals(params, x, tables) - cols["u"]) <= 1e-12))
    # the trace ends at the parameters before the last EM update, which
    # cannot lower the likelihood
    yield "model loglik on the residual series reaches its trace", (
        tables.log_likelihood >= trace[-1] - 1e-9)


def _histogram_checks(hist, cols):
    yield "histogram counts sum to residual rows", sum(hist["counts"]) == len(cols["t"])
    yield f"histogram has {hmm.HIST_BINS} bins", len(hist["counts"]) == hmm.HIST_BINS


# artifact -> its content checks, each with the artifact it also reads, or
# None. A check of two files comes after the later file, and runs only
# where both parsed and the earlier file's own checks could read its fields.
# A check yields (name, passed) pairs. What it returns, if not None, later
# checks read of its artifact in place of the parsed document, so the
# model's parameters are built once.
DIAGNOSTICS = {
    "summary.json": [(None, _summary_checks)],
    "trajectory.csv": [(None, _trajectory_checks), ("summary.json", _replay_checks)],
    "sweep.csv": [(None, _sweep_checks)],
    "sweep_meta.json": [("sweep.csv", _sweep_grid_checks)],
    "model.json": [(None, _model_checks)],
    "residuals.csv": [(None, _residuals_checks), ("model.json", _residuals_model_checks)],
    "histogram.json": [("residuals.csv", _histogram_checks)],
}
# the files each artifact is checked with, either way round: one of the two
# files a check reads, found without the other, fails the other's round-trip
_PAIRS = [(name, partner) for name, entries in DIAGNOSTICS.items()
          for partner, _ in entries if partner is not None]
PAIRED = {name: [b for a, b in _PAIRS if a == name] + [a for a, b in _PAIRS if b == name]
          for name in DIAGNOSTICS}


def cmd_diagnose(config: PipelineConfig, out: Path) -> int:
    """Re-read persisted artifacts and re-check their invariants.

    Each artifact is read and parsed once and must re-render to its own
    bytes; its content checks then run on the parsed document.
    """
    checks: list[tuple[str, bool, str]] = []
    docs = {}
    for name in io.ARTIFACTS:
        path = out / name
        if not path.exists():
            continue
        entries = DIAGNOSTICS.get(name, [])
        for partner in PAIRED[name]:
            if not (out / partner).exists():
                checks.append((f"{partner} round-trip", False, f"missing beside {name}"))
        try:
            raw = path.read_text()
            docs[name] = doc = io.parse_artifact(name, raw)
        except ValueError as exc:  # a file that does not parse cannot round-trip
            checks.append((f"{name} round-trip", False, f"not {path.suffix[1:].upper()}: {exc}"))
            continue
        checks.append((f"{name} round-trip", io.render_artifact(name, doc) == raw, ""))
        for partner, content_checks in entries:
            if partner is not None and partner not in docs:
                continue
            run = content_checks(doc, docs.get(partner))
            try:
                while True:
                    check_name, ok = next(run)
                    checks.append((check_name, ok, ""))
            except StopIteration as done:
                if done.value is not None:
                    docs[name] = done.value
            # ValueError includes DegenerateVelocity and EmptyObservations
            except (LookupError, TypeError, ValueError, hmm.NumericalUnderflow) as exc:
                checks.append((f"{name} fields", False, f"{type(exc).__name__}: {exc}"))
                if partner is None:  # no later check reads a file whose fields failed
                    del docs[name]
                    break

    if not checks:
        return _fail(EXIT_CONFIG, f"no artifacts found under {out}")
    failed = 0
    for name, ok, detail in checks:
        mark = "ok  " if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{mark} {name}{suffix}")
        failed += 0 if ok else 1
    if failed:
        return _fail(EXIT_FIT, f"{failed} of {len(checks)} diagnostics failed")
    print(f"all {len(checks)} diagnostics passed")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
