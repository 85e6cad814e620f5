"""End-to-end tests of the command-line pipeline and artifact formats."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from windtree import hmm, io, svg, sweep
from windtree.billiard import simulate, state_from_slope
from windtree.cli import COMMANDS, build_parser, main
from windtree.config import PipelineConfig, apply_overrides, config_from_doc
from windtree.sweep import SweepSpec, build_sweep

from oracle import fmt

# SHA-256 of the `simulate --collisions 500` artifacts; 1.464 has 5 corner
# events. The summary.json digests were taken when it dropped the fields
# that copy trajectory.csv (final_position, corner_events, distance); every
# value it kept has held since the trajectory was a list of per-event
# objects. The trajectory.csv digests were taken when the table dropped its
# velocity columns vx, vy, which follow from summary.json's slope and the
# walls: each file is the seven-column table with every line cut to its
# first five fields, the same digests the table had before those columns
# joined it.
SIMULATE_DIGESTS = {
    "1.414": {
        "trajectory.csv": "089de7bbdb50220e82bf674bb96a2a0528e5c466f4ca5abc9fc0fb654846bb3b",
        "trajectory.svg": "bae5fd878380998a4d6f63add1afa69d77a30ecbc885a757a68f6db3fcb04933",
        "summary.json": "c4807eefb67601bec8ad878378d7c2af25a549794aa51ab5ac80af45540e2888",
    },
    "1.464": {
        "trajectory.csv": "04fc32801771bfc3931f5f152631d29742d80036d3059d4ece5af2aa2ebef62c",
        "trajectory.svg": "da2a2b3abaf6130d9e7dec7d605912f354ca9891e73293e8a4e239fbe9e6f05a",
        "summary.json": "028b1504492eeae1668ed3ea1521b0a0e4d92507f5befe533d2e93804579dfa8",
    },
}

# SHA-256 of the `fit --states m` artifacts on the reference sweep.csv. The
# model.json and residuals.csv digests were taken when the HMM passes and
# pseudo_residuals wrote every matrix product out elementwise, summed in j
# order, instead of through numpy's matrix multiplication, whose OpenBLAS
# kernel rounds differently from that sum in the last bit. Against the
# products through OpenBLAS the largest moves, for m = 2, 3 and 4, were:
# mu 0, 2.7e-15 and 8.9e-16; sigma 0, 5.6e-17 and 1.8e-15; gamma 0, 2.2e-16
# and 7.8e-16; the loglik trace 1.1e-13, 5.7e-14 and 1.1e-13; u 5.6e-17,
# 2.9e-15 and 7.8e-16, with 1, 284 and 224 of the 300 u values moved. The
# histogram.json digests were taken when it dropped bins and total, which
# copy the length and sum of counts; no count moved since.
FIT_DIGESTS = {
    2: {
        "model.json": "845c74ae86cb979b9e78b0d896fa732f540d4f40d826e8f80c00f9ae37a359c7",
        "residuals.csv": "8b591d266b9d13eb5e6796656931c601af2538044a1b37a17df23a8fbe0dc77d",
        "histogram.json": "e1174e311c691cb2ad507fb58cc3f400bd42c2eedf131ff75888c9d4822ca8f2",
    },
    3: {
        "model.json": "20b59bbd0463a4f90763f432286c5da8484204301cbb7db97c268b2d108c9346",
        "residuals.csv": "ef810d43202b88138e262796541a392aa9bf235411618bc1505e539a19aedfc6",
        "histogram.json": "1c90f37dd7764d4b7ecea3733e55754bbac1b3ae197df846f301c3251dc1b6b4",
    },
    4: {
        "model.json": "a7b376b23a3a59da41c834f138ed8ead5d0df85f3187977a14b1e908461a67eb",
        "residuals.csv": "c9367100427c4db0125d5f039eff47b18d888503ef94a67a216c5d4b651d504f",
        "histogram.json": "65572258c11b0d217ad91cc9929e5daee283070e479c4c45bfcc2ba4e56a522f",
    },
}

SMALL_CONFIG = {
    "sweep": {"slope_start": 1.5, "slope_step": 0.01, "count": 10,
              "k_min": 20, "k_max": 60},
    "hmm": {"m": 2, "max_iters": 5},
    "simulate": {"slope": 2.0, "n_collisions": 1},
}


def config_keys(doc=None, prefix=""):
    """Every config key as a dotted path, with its default value."""
    doc = asdict(PipelineConfig()) if doc is None else doc
    keys = {}
    for key, value in doc.items():
        keys.update(config_keys(value, f"{prefix}{key}.") if isinstance(value, dict)
                    else {prefix + key: value})
    return keys


# simulate flags for a 500-collision trajectory of each motion class that
# diagnose can check without the lag scan
RAPID = ["--collisions", "500"]
RECURRENT = ["--slope", "1.414", "--collisions", "500"]
# what both simulate and sweep report for slope 0, the corridor y = 0
ZERO_SLOPE_REASON = "no obstacle within horizon 1e+06 after 0 collisions"

# values of another type than the field's default: a float for an int, true,
# a string (a number for a str field) and null
WRONG_TYPES = {int: [2.5, True, "3", None], float: [True, "3", None], str: [3, True, None]}


def read_artifact(path):
    return io.parse_artifact(path.name, path.read_text())


def write_config(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSimulateCommand:
    def test_single_collision_rows(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path), "--slope", "2.0",
                   "--collisions", "1"])
        assert rc == 0
        cols = read_artifact(tmp_path / "trajectory.csv")
        assert list(cols) == ["k", "x", "y", "t", "wall"]
        assert [cols[name][0] for name in cols] == [0, 0.0, 0.0, 0.0, ""]
        assert cols["k"][1] == 1 and cols["wall"][1] == "Left"
        assert cols["x"][1] == 0.5 and abs(cols["y"][1] - 1.0) <= 1e-12
        assert (tmp_path / "trajectory.svg").read_text().startswith("<svg")

    def test_zero_collisions(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path), "--collisions", "0"])
        assert rc == 0
        cols = read_artifact(tmp_path / "trajectory.csv")
        assert cols["k"].tolist() == [0]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_collisions"] == 0

    def test_recurrent_label_in_summary(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path), "--slope", "1.414",
                   "--collisions", "300"])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["motion"]["label"] == "Recurrent"

    def test_trajectory_csv_roundtrip(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path), "--slope", "1.618",
                   "--collisions", "25"])
        assert rc == 0
        fresh = simulate(state_from_slope(1.618), 25)
        log = io.read_trajectory(read_artifact(tmp_path / "trajectory.csv"),
                                 fresh.initial.velocity)
        assert len(log) == len(fresh) == 25
        assert log.initial == fresh.initial
        for name in ("x", "y", "t", "wall"):
            assert getattr(log, name).tobytes() == getattr(fresh, name).tobytes(), name
        for a, b in zip(log.velocities(), fresh.velocities()):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("slope", sorted(SIMULATE_DIGESTS))
    def test_artifacts_are_pinned(self, tmp_path, slope):
        rc = main(["simulate", "--out", str(tmp_path), "--slope", slope,
                   "--collisions", "500"])
        assert rc == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in SIMULATE_DIGESTS[slope]}
        assert digests == SIMULATE_DIGESTS[slope]


class TestSweepCommand:
    def test_small_sweep(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        obs = read_artifact(tmp_path / "sweep.csv")
        assert len(obs["t"]) == 10
        meta = json.loads((tmp_path / "sweep_meta.json").read_text())
        assert meta["log_base"] == "e" and meta["failures"] == []

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path, monkeypatch):
        # 11 slopes in chunks of 4: the last chunk is short
        monkeypatch.setattr(sweep, "SWEEP_CHUNK", 4)
        doc = dict(SMALL_CONFIG, sweep=dict(SMALL_CONFIG["sweep"], count=11))
        cfg = write_config(tmp_path, doc)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(b), "--jobs", "1"]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_jobs_below_one_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--jobs", "0"]) == 2
        assert json.loads(capsys.readouterr().out)["exit_code"] == 2

    def test_count_one(self, tmp_path):
        doc = dict(SMALL_CONFIG)
        doc["sweep"] = {"slope_start": 1.618, "slope_step": 0.0025, "count": 1,
                        "k_min": 5, "k_max": 20}
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(read_artifact(tmp_path / "sweep.csv")["t"]) == 1

    # A grid through slope 0 (t = 3, exactly) has a ray with no statistic:
    # it runs along the corridor y = 0. One gap in 10 is within the 10% the
    # sweep may lose; one in 5 is not.
    @pytest.mark.parametrize("count, code", [(10, 0), (5, 3)])
    def test_non_positive_statistic_is_a_gap(self, tmp_path, count, code):
        grid = dict(SMALL_CONFIG["sweep"], slope_start=-0.02, slope_step=0.01, count=count)
        cfg = write_config(tmp_path, dict(SMALL_CONFIG, sweep=grid))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == code
        assert read_artifact(tmp_path / "sweep.csv")["t"].tolist() == [
            t for t in range(1, count + 1) if t != 3]
        meta = json.loads((tmp_path / "sweep_meta.json").read_text())
        assert meta["completed"] == count - 1
        assert [(f["t"], f["reason"]) for f in meta["failures"]] == [
            (3, f"slope 0.0: {ZERO_SLOPE_REASON}")]

    def test_zero_slope_simulate_is_the_same_corridor(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path), "--slope", "0",
                     "--collisions", "5"]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert (summary["truncated"], summary["n_collisions"], summary["truncation_reason"]) == (
            True, 0, ZERO_SLOPE_REASON)

    def test_majority_failures_exit_nonzero(self, tmp_path, monkeypatch):
        import windtree.cli as cli_mod
        from windtree.sweep import SweepFailure, SweepResult

        def all_fail(spec):
            failures = [SweepFailure(t, spec.slope_at(t), "synthetic corridor")
                        for t in range(1, spec.count + 1)]
            return SweepResult(spec=spec, columns={name: [] for name in io.SWEEP_CSV},
                               failures=failures)

        monkeypatch.setattr(cli_mod, "build_sweep", all_fail)
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3


class TestFitCommand:
    @pytest.fixture()
    def sweep_dir(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        return tmp_path

    def test_fit_writes_model_and_residuals(self, sweep_dir):
        rc = main(["fit", "--out", str(sweep_dir), "--states", "2", "--iters", "5"])
        assert rc == 0
        model = json.loads((sweep_dir / "model.json").read_text())
        assert model["m"] == 2
        assert len(model["loglik_trace"]) == 5
        trace = model["loglik_trace"]
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        rows = read_artifact(sweep_dir / "residuals.csv")
        hist = json.loads((sweep_dir / "histogram.json").read_text())
        assert sum(hist["counts"]) == len(rows["t"]) == 10

    def test_single_state_fit_is_sample_mean(self, sweep_dir):
        rc = main(["fit", "--out", str(sweep_dir), "--states", "1", "--iters", "3"])
        assert rc == 0
        model = json.loads((sweep_dir / "model.json").read_text())
        xs = read_artifact(sweep_dir / "sweep.csv")["logD"]
        assert model["mu"][0] == pytest.approx(xs.mean(), abs=1e-9)

    def test_refit_is_byte_identical(self, sweep_dir):
        assert main(["fit", "--out", str(sweep_dir), "--states", "2"]) == 0
        first = (sweep_dir / "model.json").read_bytes()
        assert main(["fit", "--out", str(sweep_dir), "--states", "2"]) == 0
        assert (sweep_dir / "model.json").read_bytes() == first

    @pytest.mark.parametrize("states", sorted(FIT_DIGESTS))
    def test_artifacts_are_pinned(self, tmp_path, reference_sweep, states):
        io.write_artifact(reference_sweep[0].columns, tmp_path / "sweep.csv")
        assert main(["fit", "--out", str(tmp_path), "--states", str(states)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in FIT_DIGESTS[states]}
        assert digests == FIT_DIGESTS[states]

    def test_missing_csv_is_config_error(self, tmp_path):
        assert main(["fit", "--out", str(tmp_path)]) == 2

    # values float() parses but no state has a density at; the error names
    # the first of the two bad rows
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_observation_is_config_error(self, sweep_dir, capsys, value):
        path = sweep_dir / "sweep.csv"
        lines = path.read_text().splitlines()
        assert lines[4].startswith("4,")
        lines[4] = lines[4].rsplit(",", 1)[0] + "," + value
        lines[7] = lines[7].rsplit(",", 1)[0] + ",nan"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["fit", "--out", str(sweep_dir)]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "error": f"{path} row t=4 has non-finite logD {value}", "exit_code": 2}
        assert captured.err == ""
        assert not (sweep_dir / "model.json").exists()

    def test_unordered_t_is_config_error(self, sweep_dir, capsys):
        path = sweep_dir / "sweep.csv"
        lines = path.read_text().splitlines()
        assert lines[2].startswith("2,") and lines[3].startswith("3,")
        lines[2], lines[3] = lines[3], lines[2]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["fit", "--out", str(sweep_dir)]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "error": f"{path} row t=2 is not greater than t=3 of the row before it",
            "exit_code": 2}
        assert captured.err == ""
        assert sorted(p.name for p in sweep_dir.iterdir()) == [
            "config.json", "sweep.csv", "sweep_meta.json"]

    def test_malformed_csv_is_config_error(self, tmp_path):
        bad = tmp_path / "sweep.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["fit", "--out", str(tmp_path), str(bad)]) == 2

    def test_quoted_observation_is_config_error(self, sweep_dir, capsys):
        path = sweep_dir / "sweep.csv"
        lines = path.read_text().splitlines()
        t, slope, D, logD = lines[4].split(",")
        lines[4] = ",".join([t, slope, D, f'"{logD}"'])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["fit", "--out", str(sweep_dir)]) == 2
        assert json.loads(capsys.readouterr().out)["error"].startswith(
            f"cannot read observations {path}: could not convert string to float: ")
        assert not (sweep_dir / "model.json").exists()


class TestDiagnoseCommand:
    def test_full_pipeline_then_diagnose(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                     "--collisions", "40"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
        # every artifact is in place and no temporary file is left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["config.json", "trajectory.svg", *io.ARTIFACTS])
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "all 29 diagnostics passed" in out

    def test_tampered_artifact_fails(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        path = tmp_path / "sweep.csv"
        lines = path.read_text().splitlines()
        t, slope, D, logD = lines[1].split(",")
        lines[1] = ",".join([t, slope, D, str(float(logD) + 0.5)])
        path.write_text("\n".join(lines) + "\n")
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == 4

    # the last edit quotes x, a quoting csv_text never writes
    @pytest.mark.parametrize("edit", [lambda r: r + ",extra", lambda r: r.rsplit(",", 1)[0],
                                      lambda r: "x" + r,
                                      lambda r: '{},"{}",{}'.format(*r.split(",", 2))])
    def test_unparsable_trajectory_row_fails_round_trip(self, tmp_path, capsys, edit):
        assert main(["simulate", "--out", str(tmp_path), "--collisions", "5"]) == 0
        path = tmp_path / "trajectory.csv"
        lines = path.read_text().splitlines()
        lines[3] = edit(lines[3])
        path.write_text("\n".join(lines) + "\n")
        assert main(["diagnose", "--out", str(tmp_path)]) == 4
        assert "FAIL trajectory.csv round-trip (not CSV: " in capsys.readouterr().out

    def test_lone_trajectory_fails_naming_summary(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path), "--collisions", "5"]) == 0
        (tmp_path / "summary.json").unlink()
        assert main(["diagnose", "--out", str(tmp_path)]) == 4
        out = capsys.readouterr().out
        assert "FAIL summary.json round-trip (missing beside trajectory.csv)" in out
        assert "trajectory replays on the collision kernel" not in out

    def test_lone_summary_fails_naming_trajectory(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path), "--collisions", "5"]) == 0
        (tmp_path / "trajectory.csv").unlink()
        assert main(["diagnose", "--out", str(tmp_path)]) == 4
        assert ("FAIL trajectory.csv round-trip (missing beside summary.json)"
                in capsys.readouterr().out)

    def test_trajectory_without_rows_fails_fields(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path), "--collisions", "0"]) == 0
        (tmp_path / "trajectory.csv").write_text(",".join(io.TRAJECTORY_CSV) + "\n")
        assert main(["diagnose", "--out", str(tmp_path)]) == 4
        assert ("FAIL trajectory.csv fields (ValueError: trajectory.csv has no k=0 row)"
                in capsys.readouterr().out)

    def test_initial_row_with_a_wall_fails_fields(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path), "--collisions", "5"]) == 0
        path = tmp_path / "trajectory.csv"
        lines = path.read_text().splitlines()
        k, x, y, t, wall = lines[1].split(",")
        assert (k, wall) == ("0", "")
        lines[1] = ",".join([k, x, y, t, "Top"])
        path.write_text("\n".join(lines) + "\n")
        assert main(["diagnose", "--out", str(tmp_path)]) == 4
        assert ("FAIL trajectory.csv fields (ValueError: trajectory.csv row k=0 "
                "names wall 'Top')" in capsys.readouterr().out)

    def test_unknown_wall_fails_fields_naming_it(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path), "--collisions", "5"]) == 0
        path = tmp_path / "trajectory.csv"
        lines = path.read_text().splitlines()
        k, x, y, t, wall = lines[4].split(",")
        assert k == "3"
        lines[4] = ",".join([k, x, y, t, "Diagonal"])
        path.write_text("\n".join(lines) + "\n")
        assert main(["diagnose", "--out", str(tmp_path)]) == 4
        assert ("FAIL trajectory.csv fields (ValueError: trajectory.csv row k=3 "
                "names unknown wall 'Diagonal')" in capsys.readouterr().out)

    def test_renumbered_trajectory_row_fails_k_check(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path), "--collisions", "5"]) == 0
        path = tmp_path / "trajectory.csv"
        lines = path.read_text().splitlines()
        assert lines[4].startswith("3,")
        lines[4] = "99" + lines[4][1:]
        path.write_text("\n".join(lines) + "\n")
        assert main(["diagnose", "--out", str(tmp_path)]) == 4
        assert "FAIL trajectory k counts rows" in capsys.readouterr().out

    def test_trajectory_csv_is_parsed_once(self, tmp_path, monkeypatch):
        assert main(["simulate", "--out", str(tmp_path), "--collisions", "5"]) == 0
        calls = []
        parse_csv = io.parse_csv
        monkeypatch.setattr(io, "parse_csv",
                            lambda text, spec: calls.append(spec) or parse_csv(text, spec))
        assert main(["diagnose", "--out", str(tmp_path)]) == 0
        assert calls == [io.TRAJECTORY_CSV]

    def test_log_and_model_are_built_once(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        # enough strikes for a motion label, whose distances read the log too
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                     "--collisions", "60"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
        calls = []
        for module, name in [(io, "read_trajectory"), (hmm, "HmmParams")]:
            built = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, built=built, name=name: (
                calls.append(name) or built(*args)))
        capsys.readouterr()
        assert main(["diagnose", "--out", str(tmp_path)]) == 0
        assert "all 31 diagnostics passed" in capsys.readouterr().out
        assert sorted(calls) == ["HmmParams", "read_trajectory"]

    @pytest.mark.parametrize("name, key, fault", [
        *((name, key, fault) for fault in ("not_json", "missing_key")
          for name, key in [("sweep_meta.json", "spec"), ("model.json", "delta"),
                            ("histogram.json", "counts")]),
        ("summary.json", None, "not_json"),
        ("summary.json", "n_collisions", "missing_key"),
    ])
    def test_bad_json_artifact_fails_a_check(self, tmp_path, capsys, name, key, fault):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        for command in ("simulate", "sweep", "fit"):
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        path = tmp_path / name
        if fault == "not_json":
            path.write_text("{")
        else:
            doc = json.loads(path.read_text())
            del doc[key]
            io.write_json(doc, path)
        capsys.readouterr()
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == 4
        out = capsys.readouterr().out
        if fault == "not_json":
            assert f"FAIL {name} round-trip (not JSON: " in out
        else:
            assert f"ok   {name} round-trip" in out
            assert re.search(rf"^FAIL .*\(KeyError: '{key}'\)$", out, re.MULTILINE)
        # the other artifacts are still checked
        assert "ok   trajectory.csv round-trip" in out
        assert "ok   residuals.csv round-trip" in out

    # each edit keeps the file parsable and leaves every other file as written;
    # `simulate` holds the flags simulate runs with besides SMALL_CONFIG's
    @pytest.mark.parametrize("name, edit, failure, simulate", [
        ("model.json", lambda d: d.update(m=7), "FAIL model m counts the states", []),
        ("model.json", lambda d: d["gamma"].append([0.5, 0.5]),
         "FAIL model.json fields (ValueError: inconsistent parameter shapes)", []),
        ("model.json", lambda d: d.update(state_order=[5, 5]),
         "FAIL model state_order is a permutation of its states", []),
        # still non-decreasing and of the right length, but above what the
        # stored model attains on the residuals' series
        ("model.json", lambda d: d.update(loglik_trace=[v + 1e-6 for v in d["loglik_trace"]]),
         "FAIL model loglik on the residual series reaches its trace", []),
        # three bins, the same total
        ("histogram.json", lambda d: d.update(counts=[sum(d["counts"]), 0, 0]),
         "FAIL histogram has 10 bins", []),
        ("sweep_meta.json", lambda d: d.update(completed=99),
         "FAIL sweep_meta completed counts sweep rows", []),
        # SMALL_CONFIG simulates one collision, which completes
        ("summary.json", lambda d: d.update(n_collisions=7),
         "FAIL summary n_collisions counts trajectory strikes", []),
        ("summary.json", lambda d: d.update(n_collisions_requested=5),
         "FAIL summary truncated exactly when short of the requested collisions", []),
        ("summary.json", lambda d: d.update(truncation_reason="horizon"),
         "FAIL summary truncation_reason given exactly when truncated", []),
        # one strike is too few to classify; slope 2.0 diverges rapidly over
        # 500 collisions and 1.414 returns
        ("summary.json", lambda d: d["motion"].update(label="Recurrent"),
         "FAIL summary motion label null exactly under 50 strikes", []),
        ("summary.json", lambda d: d["motion"].update(label=None),
         "FAIL summary motion label null exactly under 50 strikes", RAPID),
        ("summary.json", lambda d: d["motion"]["evidence"].update(
            final_distance=d["motion"]["evidence"]["final_distance"] * (1 + 2**-52)),
         "FAIL summary motion distances recomputed from trajectory.csv", RAPID),
        ("summary.json", lambda d: d["motion"]["evidence"].update(max_distance=1e6),
         "FAIL summary motion distances recomputed from trajectory.csv", RAPID),
        # below eps_recur, but not below the recomputed minimum
        ("summary.json", lambda d: d["motion"]["evidence"].update(min_return_distance=4.0),
         "FAIL summary motion distances recomputed from trajectory.csv", RECURRENT),
        ("summary.json", lambda d: d["motion"].update(label="Recurrent"),
         "FAIL summary motion Recurrent exactly when min_return_distance < eps_recur", RAPID),
        ("summary.json", lambda d: d["motion"].update(label="RapidDivergent"),
         "FAIL summary motion Recurrent exactly when min_return_distance < eps_recur",
         RECURRENT),
        ("summary.json", lambda d: d["motion"]["evidence"].update(eps_recur=1e6),
         "FAIL summary motion Recurrent exactly when min_return_distance < eps_recur", RAPID),
        ("summary.json", lambda d: d["motion"].update(label="Periodic"),
         "FAIL summary.json fields (ValueError: 'Periodic' is not a valid MotionLabel)",
         RAPID),
    ], ids=["model_m", "gamma_row", "state_order", "loglik_trace", "bins", "completed",
            "n_collisions", "truncated", "truncation_reason", "label_too_few_strikes",
            "label_null", "final_distance", "max_distance", "min_return_distance",
            "label_recurrent", "label_divergent", "eps_recur", "label_unknown"])
    def test_inconsistent_json_artifact_fails(self, tmp_path, capsys, name, edit, failure,
                                              simulate):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        for command in ("simulate", "sweep", "fit"):
            extra = simulate if command == "simulate" else []
            assert main([command, "--config", cfg, "--out", str(tmp_path), *extra]) == 0
        path = tmp_path / name
        doc = json.loads(path.read_text())
        edit(doc)
        io.write_json(doc, path)
        capsys.readouterr()
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == 4
        out = capsys.readouterr().out
        assert f"ok   {name} round-trip" in out
        assert failure in out
        assert out.count("FAIL") == 1

    def test_bad_sidecar_beside_a_missing_csv_fails_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
        for name in ("sweep_meta.json", "histogram.json"):
            (tmp_path / name).write_text("{")
        for name in ("sweep.csv", "residuals.csv"):
            (tmp_path / name).unlink()
        capsys.readouterr()
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == 4
        out = capsys.readouterr().out
        assert "FAIL sweep_meta.json round-trip" in out
        assert "FAIL histogram.json round-trip" in out

    @pytest.mark.parametrize("edit", ["bad_number", "short_row", "int_beyond_int64"])
    @pytest.mark.parametrize("name", ["sweep.csv", "residuals.csv"])
    def test_unparsable_sweep_or_residuals_row_fails_round_trip(self, tmp_path, capsys,
                                                                 name, edit):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
        path = tmp_path / name
        lines = path.read_text().splitlines()
        assert lines[2].startswith("2,")
        lines[2] = {"bad_number": "2x" + lines[2][1:],
                    "short_row": lines[2].rsplit(",", 1)[0],
                    "int_beyond_int64": str(2**63) + lines[2][1:]}[edit]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert f"FAIL {name} round-trip" in capsys.readouterr().out

    def test_renumbered_residuals_row_fails_t_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
        path = tmp_path / "residuals.csv"
        lines = path.read_text().splitlines()
        assert lines[2].startswith("2,")
        lines[2] = "7" + lines[2][1:]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "FAIL residuals t strictly increasing" in capsys.readouterr().out

    # an x far from every state has zero density under the model, which
    # fails the recompute without keeping the histogram from its checks
    @pytest.mark.parametrize("edit, failure", [
        ("u", "FAIL residuals u recomputed from the model"),
        ("x", "FAIL residuals.csv fields (NumericalUnderflow: observation 1 has zero "
              "density under every state)"),
    ])
    def test_edited_residual_fails_recompute(self, tmp_path, capsys, edit, failure):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
        path = tmp_path / "residuals.csv"
        lines = path.read_text().splitlines()
        t, x, u = lines[2].split(",")
        lines[2] = ",".join([t, x, fmt(float(u) + 1e-10)] if edit == "u"
                            else [t, fmt(1e6), u])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == 4
        out = capsys.readouterr().out
        assert "ok   residuals.csv round-trip" in out
        assert failure in out
        assert "ok   histogram counts sum to residual rows" in out
        assert out.count("FAIL") == 1

    @pytest.mark.parametrize("slope, collisions", [("1.414", "0"), ("1e-7", "5"),
                                                   ("1.464", "500")])
    def test_trajectory_replays_on_the_collision_kernel(self, tmp_path, capsys,
                                                        slope, collisions):
        assert main(["simulate", "--out", str(tmp_path), "--slope", slope,
                     "--collisions", collisions]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        corners = read_artifact(tmp_path / "trajectory.csv")["wall"].count("Corner")
        # no strike, a corridor that truncates before its first strike, corners
        expected = {"1.414": (0, False, 0), "1e-7": (0, True, 0), "1.464": (500, False, 5)}
        assert (summary["n_collisions"], summary["truncated"], corners) == expected[slope]
        assert main(["diagnose", "--out", str(tmp_path)]) == 0
        assert "ok   trajectory replays on the collision kernel" in capsys.readouterr().out

    @pytest.mark.parametrize("edit", ["csv_x", "summary_slope"])
    def test_edited_trajectory_fails_replay(self, tmp_path, capsys, edit):
        assert main(["simulate", "--out", str(tmp_path), "--slope", "1.464",
                     "--collisions", "40"]) == 0
        if edit == "csv_x":
            # the last row: no later strike starts from it, so only the
            # edited column itself can disagree with the replay
            path = tmp_path / "trajectory.csv"
            lines = path.read_text().splitlines()
            row = lines[-1].split(",")
            row[1] = fmt(float(row[1]) + 1e-6)
            lines[-1] = ",".join(row)
            path.write_text("\n".join(lines) + "\n")
        else:
            # another initial velocity, from which the first strike moves
            path = tmp_path / "summary.json"
            summary = json.loads(path.read_text())
            summary["slope"] *= 1.0000001
            io.write_json(summary, path)
        capsys.readouterr()
        assert main(["diagnose", "--out", str(tmp_path)]) == 4
        out = capsys.readouterr().out
        assert "FAIL trajectory replays on the collision kernel" in out
        assert out.count("FAIL") == 1

    # a coordinate with no exact cell center fails the trajectory's fields
    # and is no cast warning, so diagnose runs to its report under -W error
    @pytest.mark.filterwarnings("error")
    def test_trajectory_point_beyond_cells_fails_fields(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path), "--slope", "1.464",
                     "--collisions", "40"]) == 0
        path = tmp_path / "trajectory.csv"
        lines = path.read_text().splitlines()
        row = lines[-1].split(",")
        row[1] = "1e+20"
        lines[-1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["diagnose", "--out", str(tmp_path)]) == 4
        out, err = capsys.readouterr()
        assert ("FAIL trajectory.csv fields (ValueError: no exact cell center for coordinate "
                "1e+20)" in out)
        assert "ok   trajectory.csv round-trip" in out
        assert "Traceback" not in err

    def test_empty_directory_is_config_error(self, tmp_path):
        assert main(["diagnose", "--out", str(tmp_path)]) == 2

    def test_missing_directory_is_config_error_and_not_created(self, tmp_path):
        missing = tmp_path / "missing"
        assert main(["diagnose", "--out", str(missing)]) == 2
        assert not missing.exists()


class TestConfigHandling:
    def test_invalid_json_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_integer_beyond_the_digit_limit_is_config_error(self, tmp_path, capsys):
        # json.loads raises a plain ValueError for more digits than int() reads
        bad = tmp_path / "bad.json"
        bad.write_text('{"simulate": {"slope": 1' + "0" * 5000 + "}}")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().out)["exit_code"] == 2

    def test_unknown_field_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"swep": {}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    # fit options that are constants of the hmm module, not config keys
    @pytest.mark.parametrize("key, value", [("residual_variant", "conditional"),
                                            ("gamma_diag_init", 0.8), ("tol", 0.0)])
    def test_removed_hmm_key_rejected(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {"hmm": {key: value}})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
        error = json.loads(capsys.readouterr().out)
        assert error["exit_code"] == 2 and key in error["error"]

    # the sweep runs in one process, so no config key picks a worker count
    def test_removed_jobs_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"jobs": 1})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        error = json.loads(capsys.readouterr().out)
        assert error["exit_code"] == 2 and "jobs" in error["error"]

    def test_config_has_ten_keys(self):
        assert len(config_keys()) == 10

    @pytest.mark.parametrize("key, value", [
        (key, value) for key, default in config_keys().items()
        for value in WRONG_TYPES[type(default)]])
    def test_wrong_type_is_config_error(self, tmp_path, capsys, key, value):
        *blocks, name = key.split(".")
        doc = json.loads(json.dumps(SMALL_CONFIG))
        node = doc
        for block in blocks:
            node = node.setdefault(block, {})
        node[name] = value
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        error = json.loads(capsys.readouterr().out)
        assert error["exit_code"] == 2 and f"{key} must be of type" in error["error"]

    # each of these ran on a wrong value or ended in a traceback (exit 1)
    # before the loader checked types
    @pytest.mark.parametrize("command, doc, key", [
        ("sweep", {"sweep": {"count": 2.5}}, "sweep.count"),
        ("sweep", {"output_dir": 3}, "output_dir"),
        ("sweep", {"sweep": {"count": True}}, "sweep.count"),
        ("fit", {"hmm": {"max_iters": 2.5}}, "hmm.max_iters"),
        ("simulate", {"simulate": {"slope": None}}, "simulate.slope"),
    ])
    def test_mistyped_value_exits_two(self, tmp_path, capsys, command, doc, key):
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        error = json.loads(capsys.readouterr().out)
        assert error["exit_code"] == 2 and key in error["error"]

    # JSON's NaN and Infinity, which json.loads reads, and an integer beyond
    # the float range; the first two once ran on (exit 3) and the last
    # failed without naming its key
    @pytest.mark.parametrize("key, value", [
        *((key, value) for key, default in config_keys().items() if type(default) is float
          for value in (math.nan, math.inf, -math.inf)),
        pytest.param("simulate.slope", 10**400, id="simulate.slope-401_digits")])
    def test_out_of_range_float_is_config_error(self, tmp_path, capsys, key, value):
        block, name = key.split(".")
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc[block][name] = value
        cfg = write_config(tmp_path, doc)
        # each block's key is read by the command of the same name
        assert main([block, "--config", cfg, "--out", str(tmp_path)]) == 2
        error = json.loads(capsys.readouterr().out)
        assert error["exit_code"] == 2 and key in error["error"]

    def test_integer_for_a_float_field_is_accepted(self, tmp_path):
        config = config_from_doc({"sweep": {"slope_start": 2, "slope_step": 1},
                                  "simulate": {"slope": 2}})
        values = (config.sweep.slope_start, config.sweep.slope_step, config.simulate.slope)
        assert values == (2.0, 1.0, 2.0) and all(type(v) is float for v in values)
        cfg = write_config(tmp_path, {"simulate": {"slope": 2, "n_collisions": 1}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["slope"] == 2.0

    # a value argparse cannot convert, and flags a command does not read
    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--jobs", "abc"], "--jobs"),
        (["sweep", "--states", "3"], "--states"),
        (["sweep", "--states", "7", "--slope", "9"], "--states"),
        (["simulate", "--iters", "3"], "--iters"),
        (["fit", "--collisions", "3"], "--collisions"),
        (["diagnose", "--slope", "2"], "--slope"),
        (["sweep", "--jobs", "2"], "--jobs"),
    ])
    def test_usage_error_is_config_error(self, tmp_path, capsys, argv, flag):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        [line] = captured.out.splitlines()
        error = json.loads(line)
        assert error["exit_code"] == 2 and flag in error["error"]
        assert captured.err == ""

    # accepted for the benchmark, which passes --jobs 1 to every command
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_jobs_one_parses_and_sets_nothing(self, tmp_path, monkeypatch, command):
        import windtree.cli as cli_mod
        configs = []

        def recording(config, overrides):
            configs.append(apply_overrides(config, overrides))
            return configs[-1]

        monkeypatch.setattr(cli_mod, "apply_overrides", recording)
        cfg = write_config(tmp_path, SMALL_CONFIG)
        args = [command, "--config", cfg, "--out", str(tmp_path)]
        assert main(args) == main([*args, "--jobs", "1"])
        assert len(configs) == 2 and configs[0] == configs[1]

    def test_one_parser_carries_no_flag_to_the_next_command(self, tmp_path):
        assert build_parser() is build_parser()  # one parser for the process
        cfg = write_config(tmp_path, dict(SMALL_CONFIG, hmm={"m": 3, "max_iters": 5}))
        args = ["--config", cfg, "--out", str(tmp_path)]
        assert main(["sweep", *args]) == 0
        assert main(["fit", *args, "--states", "2"]) == 0
        assert json.loads((tmp_path / "model.json").read_text())["m"] == 2
        assert "hmm.m" not in vars(build_parser().parse_args(["fit", *args]))
        assert main(["fit", *args]) == 0
        assert json.loads((tmp_path / "model.json").read_text())["m"] == 3
        assert main(["simulate", *args]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert (summary["slope"], summary["n_collisions_requested"]) == (2.0, 1)
        assert main(["diagnose", *args]) == 0

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--help"])
        assert exc.value.code == 0
        assert "--states" in capsys.readouterr().out

    def test_checked_in_reference_config_loads(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "reference.json"
        doc = json.loads(path.read_text())
        assert doc["sweep"]["count"] == 300
        assert doc["hmm"] == {"m": 3, "max_iters": 15}

    def test_checked_in_reference_config_is_the_defaults(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "reference.json"
        assert json.loads(path.read_text()) == asdict(PipelineConfig())

    def test_defaults_are_the_reference_pipeline(self):
        config = PipelineConfig()
        assert (config.sweep.slope_start, config.sweep.slope_step,
                config.sweep.count, config.sweep.k_min,
                config.sweep.k_max) == (1.4140, 0.0025, 300, 500, 1000)
        assert (config.hmm.m, config.hmm.max_iters) == (3, 15)


class TestArtifactFormats:
    @pytest.mark.parametrize("name", ["trajectory.csv", "sweep.csv", "residuals.csv"])
    def test_csv_text_roundtrip(self, name):
        spec = io.ARTIFACTS[name]
        header = {"trajectory.csv": "k,x,y,t,wall", "sweep.csv": "t,slope,D,logD",
                  "residuals.csv": "t,x,u"}[name]
        if name == "trajectory.csv":
            columns = io.trajectory_columns(simulate(state_from_slope(1.732), 30))
        elif name == "sweep.csv":
            result = build_sweep(SweepSpec(count=5, k_min=10, k_max=40))
            columns = result.columns
        else:
            rng = np.random.default_rng(5)
            columns = {"t": range(1, 21), "x": rng.normal(size=20), "u": rng.random(20)}
        # then one row each of -0.0, the smallest subnormal and a 17-digit value
        extra = {int: [10**6, 10**6 + 1, 10**6 + 2], float: [-0.0, 5e-324, 0.1 + 0.2],
                 str: ["Top", "Corner", "Left"]}
        columns = {key: [*columns[key], *extra[kind]] for key, kind in spec.items()}
        text = io.csv_text(columns, spec)
        assert text.splitlines()[0] == header
        parsed = io.parse_csv(text, spec)
        assert io.csv_text(parsed, spec) == text
        for key, kind in spec.items():
            if kind is float:
                assert parsed[key].tobytes() == np.array(columns[key]).tobytes(), key
            else:
                assert list(parsed[key]) == list(columns[key]), key
        if name == "sweep.csv":
            for D, logD, d in zip(parsed["D"], parsed["logD"], result.columns["D"]):
                assert D == d
                assert abs(logD - math.log(D)) <= 1e-12

    # csv_text writes no quoting, so parse_csv reads none: each text differs
    # from a parsable sweep.csv in one place
    @pytest.mark.parametrize("text", [
        't,slope,D,logD\n1,"1.414",2.5,0.9\n',
        '"t",slope,D,logD\n1,1.414,2.5,0.9\n',
        "t,slope,D,logD\n1,1.414,2.5,0.9,7\n",
        f"t,slope,D,logD\n{2**63},1.414,2.5,0.9\n",
        "t,slope,D,logD\n1,1.414,2.5,abc\n",
    ], ids=["quoted-field", "quoted-header", "extra-field", "int-beyond-int64",
            "non-numeric-float"])
    def test_parse_csv_rejects_another_dialect(self, text):
        assert io.parse_csv("t,slope,D,logD\n1,1.414,2.5,0.9\n", io.SWEEP_CSV)
        with pytest.raises(ValueError):
            io.parse_csv(text, io.SWEEP_CSV)

    def test_csv_text_renders_each_value_as_fmt_and_str_do(self):
        spec = io.TRAJECTORY_CSV
        floats = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072009e-308,
                  1e308, -1.7976931348623157e308, 0.1 + 0.2, 3, -7, 2**53 + 1, True,
                  np.float64(0.1), np.float32(0.1), np.int64(-5), np.float64(-0.0)]
        n = len(floats)
        columns = {"k": [*range(n - 2), np.int64(2**62), True],
                   "x": floats, "y": np.array(floats[::-1], dtype=float),
                   "t": [np.float64(v) for v in floats],
                   "wall": ["", "Top", np.str_("Corner"), *(["Left"] * (n - 3))]}
        rows = zip(*(columns[name] for name in spec))
        want = "".join(",".join(fmt(v) if kind is float else str(v)
                                for v, kind in zip(row, spec.values())) + "\n" for row in rows)
        assert io.csv_text(columns, spec) == ",".join(spec) + "\n" + want

    @pytest.mark.parametrize("slope", [1.414, 2.0])
    def test_svg_pattern_tiles_the_obstacle_grid(self, slope):
        log = simulate(state_from_slope(slope), 500)
        text = svg.trajectory_svg_text(log)
        pattern = re.search(r'<pattern id="forest" patternUnits="userSpaceOnUse" '
                            r'x="(\S+)" y="(\S+)" width="(\S+)" height="(\S+)">\n'
                            r'<rect x="(\S+)" y="(\S+)" width="(\S+)" height="(\S+)"', text)
        tile_x, tile_y, tile_w, tile_h, dx, dy, side_w, side_h = map(float, pattern.groups())
        # an obstacle's top-left corner is to_px(cx - 0.5, cy + 0.5) on this canvas
        xs = [0.0, *log.x.tolist()]
        ys = [0.0, *log.y.tolist()]
        x0, x1 = min(xs) - svg._PAD, max(xs) + svg._PAD
        y0, y1 = min(ys) - svg._PAD, max(ys) + svg._PAD
        scale = svg._CANVAS / max(x1 - x0, y1 - y0)
        assert tile_w == tile_h == 2 * scale and side_w == side_h == scale
        far = (2 * math.floor((x1 - 1) / 2) + 1, 2 * math.ceil((y0 - 1) / 2) + 1)
        for cx, cy in [(1, 1), (-1, 3), far]:
            want_x, want_y = (cx - 0.5 - x0) * scale, (y1 - cy - 0.5) * scale
            for want, origin, size in [(want_x, tile_x + dx, tile_w),
                                       (want_y, tile_y + dy, tile_h)]:
                tiles = (want - origin) / size
                assert abs(tiles - round(tiles)) * size <= 0.01, (cx, cy)
        assert text.count("<rect") == 3

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "residuals.csv"
        io.write_artifact({"t": [1], "x": [0.5], "u": [0.25]}, path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            io.write_artifact({"t": [1, 2], "x": [0.5, 1.5], "u": [0.25, 0.75]}, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_fmt_keeps_17_significant_digits(self):
        values = [math.pi, 1.0 / 3.0, 1234567.89012345, 5e-324, -0.0]
        for v in values:
            assert float(fmt(v)) == v

    def test_json_text_idempotent(self, tmp_path):
        doc = {"a": [1.0, math.pi], "b": {"c": "x"}}
        path = tmp_path / "doc.json"
        io.write_json(doc, path)
        raw = path.read_text()
        assert io.json_text(json.loads(raw)) == raw


@pytest.fixture(scope="module")
def cli_import_packages():
    """The top-level packages a fresh process holds after importing windtree.cli."""
    code = ("import json, sys, windtree.cli; "
            "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=Path(__file__).resolve().parent.parent,
                          env={**os.environ, "PYTHONPATH": "src"}, check=True)
    return json.loads(proc.stdout)


def test_cli_import_loads_no_scipy(cli_import_packages):
    # scipy is a test-only oracle: importing scipy.stats costs about 1 s, which
    # every fresh windtree process would pay
    assert "scipy" not in cli_import_packages


def test_cli_import_loads_no_process_pool(cli_import_packages):
    # the sweep runs in one process; multiprocessing and concurrent.futures
    # cost about 20 ms of the import
    assert not {"multiprocessing", "concurrent"} & set(cli_import_packages)
