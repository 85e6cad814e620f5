"""Command-line pipeline: simulate, sweep, fit, diagnose.

Exit codes: 0 success, 2 configuration or input error, 3 simulation
failure, 4 fit or diagnostic failure. Failures also emit a one-line
machine-readable error JSON on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from . import billiard, hmm, io, svg
from .billiard import distance_series
from .config import ConfigError, PipelineConfig, apply_overrides, load_config
from .sweep import InsufficientData, SweepSpec, build_sweep, classify_motion

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_FIT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windtree",
        description="Periodic wind-tree billiard experiments and HMM fit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--jobs", type=int, default=None, help="parallel workers for sweeps")
        p.add_argument("--slope", type=float, default=None, help="initial slope for simulate")
        p.add_argument("--collisions", type=int, default=None, help="collisions for simulate")
        p.add_argument("--states", type=int, default=None, help="number of hidden states")
        p.add_argument("--iters", type=int, default=None, help="EM iterations")

    p_sim = sub.add_parser("simulate", help="run one trajectory, write CSV/JSON/SVG")
    add_common(p_sim)
    p_sweep = sub.add_parser("sweep", help="compute the recurrence statistic over the slope grid")
    add_common(p_sweep)
    p_fit = sub.add_parser("fit", help="fit the hidden Markov model to a sweep CSV")
    add_common(p_fit)
    p_fit.add_argument("observations", nargs="?", default=None,
                       help="sweep CSV to fit (default: <out>/sweep.csv)")
    p_diag = sub.add_parser("diagnose", help="re-check invariants of persisted artifacts")
    add_common(p_diag)
    return parser


def _fail(code: int, message: str) -> int:
    print(json.dumps({"error": message, "exit_code": code}))
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        config = apply_overrides(
            config, out=args.out, jobs=args.jobs, slope=args.slope,
            collisions=args.collisions, states=args.states, iters=args.iters,
        )
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    out = Path(config.output_dir)
    if args.command == "diagnose":
        return cmd_diagnose(config, out)
    out.mkdir(parents=True, exist_ok=True)

    if args.command == "simulate":
        return cmd_simulate(config, out)
    if args.command == "sweep":
        return cmd_sweep(config, out)
    if args.command == "fit":
        return cmd_fit(config, out, args.observations)
    return _fail(EXIT_CONFIG, f"unknown command {args.command!r}")


def cmd_simulate(config: PipelineConfig, out: Path) -> int:
    sim = config.simulate
    try:
        log = billiard.simulate(billiard.state_from_slope(sim.slope), sim.n_collisions)
    except (ValueError, billiard.DegenerateVelocity) as exc:
        return _fail(EXIT_SIMULATION, f"simulation failed: {exc}")

    io.write_trajectory_csv(log, out / "trajectory.csv")
    io.write_trajectory_json(log, out / "trajectory.json")
    svg.write_trajectory_svg(log, out / "trajectory.svg")

    summary: dict = {
        "slope": sim.slope,
        "n_collisions_requested": sim.n_collisions,
        "n_collisions": len(log),
        "truncated": log.truncated,
        "truncation_reason": log.truncation_reason,
        "final_position": [log.final_state().position.x, log.final_state().position.y],
        "corner_events": log.corner_count(),
    }
    if len(log):
        d = distance_series(log)
        summary["distance"] = {
            "first": float(d[0]), "last": float(d[-1]),
            "min": float(d.min()), "max": float(d.max()),
        }
    try:
        motion = classify_motion(log)
        summary["motion"] = {"label": motion.label.value, "evidence": motion.evidence}
    except InsufficientData as exc:
        summary["motion"] = {"label": None, "reason": str(exc)}
    io.write_json(summary, out / "summary.json")
    print(f"wrote trajectory ({len(log)} events) to {out}")
    return EXIT_OK


def cmd_sweep(config: PipelineConfig, out: Path) -> int:
    started = time.perf_counter()
    try:
        result = build_sweep(config.sweep, jobs=config.jobs)
    except ValueError as exc:
        return _fail(EXIT_SIMULATION, f"sweep failed: {exc}")
    except BrokenProcessPool as exc:
        return _fail(EXIT_SIMULATION, f"sweep worker died: {exc}")
    elapsed = time.perf_counter() - started

    io.write_sweep_csv(result, out / "sweep.csv")
    io.write_json(io.sweep_meta_doc(result, elapsed), out / "sweep_meta.json")
    n_fail = len(result.failures)
    print(f"wrote {len(result.observations)} observations "
          f"({n_fail} failures) to {out} in {elapsed:.1f}s")
    if n_fail > 0.10 * config.sweep.count:
        return _fail(EXIT_SIMULATION, f"{n_fail} of {config.sweep.count} slopes failed")
    return EXIT_OK


def cmd_fit(config: PipelineConfig, out: Path, observations: str | None) -> int:
    obs_path = Path(observations) if observations else out / "sweep.csv"
    try:
        rows = io.read_sweep_csv(obs_path)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(EXIT_CONFIG, f"cannot read observations {obs_path}: {exc}")
    if len(rows) < config.hmm.m:
        return _fail(EXIT_CONFIG,
                     f"{obs_path} has {len(rows)} rows, need >= {config.hmm.m}")
    xs = np.array([r.log_min_distance for r in rows])

    try:
        init = hmm.default_init(xs, config.hmm.m, config.hmm.gamma_diag_init)
        report = hmm.baum_welch(xs, init, max_iters=config.hmm.max_iters,
                                tol=config.hmm.tol)
        residuals = hmm.pseudo_residuals(report.params, xs, config.hmm.variant)
        counts = hmm.residual_histogram(residuals, bins=10)
    except (hmm.NumericalUnderflow, ValueError) as exc:
        return _fail(EXIT_FIT, f"fit failed: {exc}")

    io.write_json(
        io.model_json_doc(
            report,
            residual_variant=config.hmm.residual_variant,
            gamma_diag_init=config.hmm.gamma_diag_init,
            max_iters=config.hmm.max_iters,
            tol=config.hmm.tol,
            update_delta=True,
        ),
        out / "model.json",
    )
    (out / "residuals.csv").write_text(
        io.residuals_csv_text([r.t for r in rows], xs, residuals.u)
    )
    io.write_json(io.histogram_json_doc(counts), out / "histogram.json")
    print(f"fitted {config.hmm.m}-state model on {len(rows)} observations; "
          f"final loglik {report.loglik_trace[-1]:.4f}; "
          f"means {np.round(report.params.mu, 4).tolist()}")
    return EXIT_OK


def cmd_diagnose(config: PipelineConfig, out: Path) -> int:
    """Re-read persisted artifacts and re-check their invariants."""
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    def read_json(path: Path):
        """The parsed artifact after its round-trip check; None when the file
        is not JSON."""
        try:
            raw = path.read_text()
            doc = json.loads(raw)
        except ValueError as exc:  # a file that does not parse cannot round-trip
            check(f"{path.name} round-trip", False, f"not JSON: {exc}")
            return None
        check(f"{path.name} round-trip", io.json_text(doc) == raw)
        return doc

    @contextlib.contextmanager
    def fields_of(path: Path):
        """Fail one check, instead of raising, when the checks in the block
        find a field of the document missing or of the wrong type."""
        try:
            yield
        except (KeyError, TypeError, ValueError) as exc:
            check(f"{path.name} fields", False, f"{type(exc).__name__}: {exc}")

    found_any = False

    traj_csv = out / "trajectory.csv"
    cols = None
    if traj_csv.exists():
        found_any = True
        try:
            cols = io.read_trajectory_csv(traj_csv)
        except ValueError as exc:  # a row that does not parse cannot round-trip
            check("trajectory.csv round-trip", False, str(exc))
        else:
            check("trajectory.csv round-trip",
                  io.trajectory_rows_text(**cols) == traj_csv.read_text())
            xs, ys, ts = cols["x"], cols["y"], cols["t"]
            check("trajectory times strictly increasing", bool(np.all(ts[1:] > ts[:-1])))
            cx, cy = billiard.cell_centers(xs[1:], ys[1:])
            gap = np.maximum(np.abs(xs[1:] - cx), np.abs(ys[1:] - cy))
            check("trajectory points on obstacle boundaries",
                  bool(np.all(np.abs(gap - 0.5) <= 1e-9)))

    traj_json = out / "trajectory.json"
    if traj_json.exists():
        found_any = True
        doc = read_json(traj_json)
        if not traj_csv.exists():
            check("trajectory.csv round-trip", False, "missing beside trajectory.json")
        elif cols is not None and doc is not None:
            # ValueError includes DegenerateVelocity; TypeError is a field
            # of the wrong type, or a document that is not an object
            try:
                log = io.read_trajectory(cols, doc)
            except (ValueError, KeyError, TypeError) as exc:
                check("trajectory speeds unit", False, f"{type(exc).__name__}: {exc}")
            else:
                speeds = np.hypot(log.vx, log.vy)
                check("trajectory speeds unit", bool(np.all(np.abs(speeds - 1.0) <= 1e-9)))
                # each logged strike again, from the state before it
                rays, walls = billiard.step_rays(billiard.strike_origins(log))
                replayed = (rays.x, rays.y, rays.t, walls, rays.vx, rays.vy)
                logged = (log.x, log.y, log.t, log.wall, log.vx, log.vy)
                check("trajectory replays on the collision kernel",
                      all(a.tobytes() == b.tobytes() for a, b in zip(replayed, logged)))

    sweep_csv = out / "sweep.csv"
    if sweep_csv.exists():
        found_any = True
        try:
            obs = io.read_sweep_csv(sweep_csv)
        except ValueError as exc:  # a row that does not parse cannot round-trip
            check("sweep.csv round-trip", False, str(exc))
        else:
            check("sweep.csv round-trip",
                  io.sweep_csv_text(obs) == sweep_csv.read_text())
            check("sweep logD = ln(D)",
                  all(abs(o.log_min_distance - math.log(o.min_distance)) <= 1e-12
                      for o in obs))
            check("sweep D positive finite",
                  all(o.min_distance > 0 and math.isfinite(o.min_distance) for o in obs))
            meta_path = out / "sweep_meta.json"
            meta = read_json(meta_path) if meta_path.exists() else None
            if meta is not None:
                with fields_of(meta_path):
                    spec = SweepSpec(**meta["spec"])
                    check("sweep slopes on the arithmetic grid",
                          all(abs(o.slope - spec.slope_at(o.t)) <= 1e-12 for o in obs))

    model_path = out / "model.json"
    if model_path.exists():
        found_any = True
        doc = read_json(model_path)
        if doc is not None:
            with fields_of(model_path):
                delta = np.array(doc["delta"])
                gamma = np.array(doc["gamma"])
                check("model delta is a distribution",
                      bool(np.all(delta >= 0) and abs(delta.sum() - 1.0) <= 1e-12))
                check("model gamma rows stochastic",
                      bool(np.all(gamma >= 0)
                           and np.all(np.abs(gamma.sum(axis=1) - 1.0) <= 1e-12)))
                check("model sigmas positive", all(s > 0 for s in doc["sigma"]))
                check("model means sorted ascending",
                      all(b >= a for a, b in zip(doc["mu"], doc["mu"][1:])))
                trace = doc["loglik_trace"]
                check("model loglik trace non-decreasing",
                      all(b >= a - 1e-9 for a, b in zip(trace, trace[1:])))

    res_path = out / "residuals.csv"
    if res_path.exists():
        found_any = True
        try:
            rows = io.read_residuals_csv(res_path)
        except ValueError as exc:  # a row that does not parse cannot round-trip
            check("residuals.csv round-trip", False, str(exc))
        else:
            check("residuals.csv round-trip",
                  io.residuals_csv_text([r["t"] for r in rows],
                                        [r["x"] for r in rows],
                                        [r["u"] for r in rows]) == res_path.read_text())
            check("residuals in [0, 1]", all(0.0 <= r["u"] <= 1.0 for r in rows))
            hist_path = out / "histogram.json"
            hist = read_json(hist_path) if hist_path.exists() else None
            if hist is not None:
                with fields_of(hist_path):
                    check("histogram counts sum to residual rows",
                          sum(hist["counts"]) == len(rows) == hist["total"])

    if not found_any:
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
