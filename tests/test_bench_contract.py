"""The benchmark's workloads against the program they drive.

Each workload is built as bench/run.py builds it, but no timed operation
runs: every CLI command it would send must parse, and every config file it
writes must load. One iteration of the pipeline, trajectory and fit
workloads runs as bench/run.py runs it, and every operation must pass the
workload's own check of its output, which reads artifact fields such as
summary.json's n_collisions and model.json's m. The exponent workload runs
one iteration at 10^4 collisions per direction, where the benchmark runs
2 * 10^4. The API the benchmark calls directly runs once on a tiny input:
the exponent workload's layer probe, and one sweep and one trajectory under
the span tracer, whose counters read the results. A key, flag, field or name the benchmark uses and the program
no longer has fails here, not in a benchmark run.
"""

from functools import partial
from pathlib import Path

import pytest

from windtree import billiard, cli, sweep
from windtree.config import load_config

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def bench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))


def test_workload_commands_parse_and_configs_load(tmp_path, bench_path):
    import workloads

    parser = cli.build_parser()
    commands = set()
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(ROOT, 0, tmp_path / name)
        for op in workload.ops:
            if not (isinstance(op.action, partial) and op.action.func is cli.main):
                continue  # an API call, not a command
            args = parser.parse_args(*op.action.args)
            load_config(args.config)
            commands.add(args.command)
    assert commands == {"simulate", "sweep", "fit", "diagnose"}


@pytest.mark.parametrize("name", ["pipeline", "trajectory", "fit"])
def test_workload_iteration_passes_its_checks(tmp_path, bench_path, name):
    import run
    import workloads

    _, errors = run.run_iteration(workloads.WORKLOADS[name](ROOT, 0, tmp_path))
    assert errors == []


def test_exponent_iteration_passes_its_checks(tmp_path, bench_path, monkeypatch):
    import run
    import workloads

    # the fewest collisions estimate_diffusion_exponent accepts
    monkeypatch.setattr(workloads, "EXP_COLLISIONS", 10_000)
    _, errors = run.run_iteration(workloads.Exponent(ROOT, 0, tmp_path))
    assert errors == []


def test_exponent_estimate_is_pinned(tmp_path, bench_path):
    import workloads

    # taken before the scalar walk kept its cells between strikes
    directions = workloads.Exponent(ROOT, 0, tmp_path).directions
    value = sweep.estimate_diffusion_exponent(directions, 10_000, min_successes=len(directions))
    assert repr(value) == "0.8056698519005128"


def test_exponent_layer_probe_runs(tmp_path, bench_path):
    import workloads

    probes = workloads.Exponent(ROOT, 0, tmp_path).layer_probes()
    assert probes["billiard.next_collision_us"] > 0.0


def test_traced_counters_read_the_results(bench_path):
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        # one gap record: slope_at(3) is exactly 0.0, a corridor
        sweep.build_sweep(sweep.SweepSpec(slope_start=-0.02, slope_step=0.01, count=3,
                                          k_min=5, k_max=10))
        billiard.simulate(billiard.state_from_slope(1.414), 20)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.summary(), 1.0)
    assert (metrics["sweep.gaps"], metrics["billiard.collisions"]) == (1, 20)
