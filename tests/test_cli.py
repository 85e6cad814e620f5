"""End-to-end tests of the command-line pipeline and artifact formats."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from windtree import io, svg
from windtree.billiard import simulate, state_from_slope
from windtree.cli import main
from windtree.sweep import SweepSpec, build_sweep

# SHA-256 of the `simulate --collisions 500` artifacts; 1.464 has 5 corner
# events. The summary.json digests have held since the trajectory was a
# list of per-event objects. The trajectory.csv digests were taken when the
# velocity columns joined the table: its first five columns are the earlier
# table's, and vx, vy carry the same bits the initial state and velocity
# columns had in the former trajectory.json.
SIMULATE_DIGESTS = {
    "1.414": {
        "trajectory.csv": "a72aac0c2e0b763516aee9cbd2c7c6d5a60db0eec4b03ec0442873ae92b7b486",
        "trajectory.svg": "bae5fd878380998a4d6f63add1afa69d77a30ecbc885a757a68f6db3fcb04933",
        "summary.json": "7b49e21b88c8138166e081d1b99760da2a8f1ccb41fda12e9a9d9adf827725e5",
    },
    "1.464": {
        "trajectory.csv": "6c65f4b1e772c26404c2fc4c31e48607cffebe59ef294a2a09f78d6e85495c85",
        "trajectory.svg": "da2a2b3abaf6130d9e7dec7d605912f354ca9891e73293e8a4e239fbe9e6f05a",
        "summary.json": "d2cf7ac2974a293986a9f3fecaee8e33238058e865de6503fec12aabdca90554",
    },
}

# SHA-256 of the `fit --states m` artifacts on the reference sweep.csv. The
# model.json and residuals.csv digests were taken when both HMM passes became
# one two-level scan over blocks of 8 steps: against the doubling scan over
# all T, for m = 2, 3 and 4, mu moved by at most 1.3e-15, sigma 1.4e-15,
# gamma 6.1e-16 and the loglik trace 1.1e-13, and 123, 204 and 279 of the
# 300 u values moved, by at most 1.0e-15. The histogram.json digests have
# held since posterior_pairs built the pair tensor one observation at a time.
FIT_DIGESTS = {
    2: {
        "model.json": "438e9d95df31f4460cc705dde0ccb32b5b394a3e9940e4e55ea4e44376180a38",
        "residuals.csv": "fa5d449785f8c61127553b48e3e648ee7286a896fee439918ffc7951b869c41c",
        "histogram.json": "08cba2539e717fbe7cd5ee02213fd4daad160548f5abbe5d2253cca3b4a11321",
    },
    3: {
        "model.json": "a31e184cd16057d6e80cefe6f7240dea3f7702670c7810d6ad6d7dcf6c8d9084",
        "residuals.csv": "82df7189764e3f79d007ce819565fa83aa251e79b5b6a7161bc7e17db7d7560a",
        "histogram.json": "dbfbe749e924fb0cfe97bcd487efd6c6d6c497fd4235f4a04e6c8b88d701b810",
    },
    4: {
        "model.json": "dee021cae5fc46c7a6bb2eb98a0d214777a70e0b30887e236bf3bbd1fd67aad9",
        "residuals.csv": "094aecd65809979ee247ebfde5877aa264ebb534ccd41a5758dea9408052d415",
        "histogram.json": "87efb83167bc924b0ad446ec8f430e8e6ceec13e7d52996dd5229f6a478e5fd9",
    },
}

SMALL_CONFIG = {
    "sweep": {"slope_start": 1.5, "slope_step": 0.01, "count": 10,
              "k_min": 20, "k_max": 60},
    "hmm": {"m": 2, "max_iters": 5},
    "simulate": {"slope": 2.0, "n_collisions": 1},
}


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
        assert list(cols) == ["k", "x", "y", "t", "wall", "vx", "vy"]
        assert [cols[name][0] for name in cols] == [0, 0.0, 0.0, 0.0, "",
                                                    *state_from_slope(2.0).velocity]
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
        log = io.read_trajectory(read_artifact(tmp_path / "trajectory.csv"))
        fresh = simulate(state_from_slope(1.618), 25)
        assert len(log) == len(fresh) == 25
        assert log.initial == fresh.initial
        for name in ("x", "y", "t", "wall", "vx", "vy"):
            assert getattr(log, name).tobytes() == getattr(fresh, name).tobytes(), name

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

    def test_jobs_do_not_change_output(self, tmp_path):
        # 11 slopes: neither 2 nor 3 workers get equal contiguous chunks
        doc = dict(SMALL_CONFIG, sweep=dict(SMALL_CONFIG["sweep"], count=11))
        cfg = write_config(tmp_path, doc)
        serial = tmp_path / "serial"
        assert main(["sweep", "--config", cfg, "--out", str(serial)]) == 0
        for jobs in ("2", "3"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
            assert (out / "sweep.csv").read_bytes() == (serial / "sweep.csv").read_bytes()

    def test_jobs_below_one_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--jobs", "0"]) == 2
        assert json.loads(capsys.readouterr().out)["exit_code"] == 2

    def test_broken_worker_pool_is_simulation_error(self, tmp_path, monkeypatch, capsys):
        import windtree.cli as cli_mod
        from concurrent.futures.process import BrokenProcessPool

        def crash(spec, jobs=1):
            raise BrokenProcessPool("a worker terminated abruptly")

        monkeypatch.setattr(cli_mod, "build_sweep", crash)
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--jobs", "2"]) == 3
        error = json.loads(capsys.readouterr().out)
        assert error["exit_code"] == 3 and "worker" in error["error"]

    def test_count_one(self, tmp_path):
        doc = dict(SMALL_CONFIG)
        doc["sweep"] = {"slope_start": 1.618, "slope_step": 0.0025, "count": 1,
                        "k_min": 5, "k_max": 20}
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(read_artifact(tmp_path / "sweep.csv")["t"]) == 1

    # one gap in 10 is within the 10% the sweep may lose; one in 5 is not
    @pytest.mark.parametrize("count, code", [(10, 0), (5, 3)])
    def test_non_positive_statistic_is_a_gap(self, tmp_path, ray_on_origin, count, code):
        doc = dict(SMALL_CONFIG, sweep=dict(SMALL_CONFIG["sweep"], count=count))
        cfg = write_config(tmp_path, doc)
        ray_on_origin(1, SMALL_CONFIG["sweep"]["k_min"])
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == code
        assert read_artifact(tmp_path / "sweep.csv")["t"].tolist() == [
            t for t in range(1, count + 1) if t != 2]
        meta = json.loads((tmp_path / "sweep_meta.json").read_text())
        assert meta["completed"] == count - 1
        assert [(f["t"], f["reason"]) for f in meta["failures"]] == [
            (2, "slope 1.51: non-positive recurrence statistic 0.0")]

    def test_majority_failures_exit_nonzero(self, tmp_path, monkeypatch):
        import windtree.cli as cli_mod
        from windtree.sweep import SweepFailure, SweepResult

        def all_fail(spec, jobs=1):
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

    def test_malformed_csv_is_config_error(self, tmp_path):
        bad = tmp_path / "sweep.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["fit", "--out", str(tmp_path), str(bad)]) == 2


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
        assert "all 27 diagnostics passed" in out

    def test_tampered_artifact_fails(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        path = tmp_path / "sweep.csv"
        lines = path.read_text().splitlines()
        t, slope, D, logD = lines[1].split(",")
        lines[1] = ",".join([t, slope, D, str(float(logD) + 0.5)])
        path.write_text("\n".join(lines) + "\n")
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("edit", [lambda r: r + ",extra", lambda r: r.rsplit(",", 1)[0],
                                      lambda r: "x" + r])
    def test_unparsable_trajectory_row_fails_round_trip(self, tmp_path, capsys, edit):
        assert main(["simulate", "--out", str(tmp_path), "--collisions", "5"]) == 0
        path = tmp_path / "trajectory.csv"
        lines = path.read_text().splitlines()
        lines[3] = edit(lines[3])
        path.write_text("\n".join(lines) + "\n")
        assert main(["diagnose", "--out", str(tmp_path)]) == 4
        assert "FAIL trajectory.csv round-trip" in capsys.readouterr().out

    # line 1 is the initial state (k=0), line 3 a strike
    @pytest.mark.parametrize("line", [1, 3])
    def test_non_unit_speed_fails_speed_check(self, tmp_path, capsys, line):
        assert main(["simulate", "--out", str(tmp_path), "--collisions", "5"]) == 0
        path = tmp_path / "trajectory.csv"
        lines = path.read_text().splitlines()
        *rest, vx, vy = lines[line].split(",")
        lines[line] = ",".join([*rest, io.fmt(float(vx) * 1.01), vy])
        path.write_text("\n".join(lines) + "\n")
        assert main(["diagnose", "--out", str(tmp_path)]) == 4
        assert "FAIL trajectory speeds unit" in capsys.readouterr().out

    def test_trajectory_without_rows_fails_fields(self, tmp_path, capsys):
        (tmp_path / "trajectory.csv").write_text(",".join(io.TRAJECTORY_CSV) + "\n")
        assert main(["diagnose", "--out", str(tmp_path)]) == 4
        assert ("FAIL trajectory.csv fields (ValueError: trajectory.csv has no k=0 row)"
                in capsys.readouterr().out)

    def test_initial_row_with_a_wall_fails_fields(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path), "--collisions", "5"]) == 0
        path = tmp_path / "trajectory.csv"
        lines = path.read_text().splitlines()
        k, x, y, t, wall, vx, vy = lines[1].split(",")
        assert (k, wall) == ("0", "")
        lines[1] = ",".join([k, x, y, t, "Top", vx, vy])
        path.write_text("\n".join(lines) + "\n")
        assert main(["diagnose", "--out", str(tmp_path)]) == 4
        assert ("FAIL trajectory.csv fields (ValueError: trajectory.csv row k=0 "
                "names wall 'Top')" in capsys.readouterr().out)

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

    @pytest.mark.parametrize("name, key, fault", [
        *((name, key, fault) for fault in ("not_json", "missing_key")
          for name, key in [("sweep_meta.json", "spec"), ("model.json", "delta"),
                            ("histogram.json", "counts")]),
        # summary.json has no content checks, so only its round-trip can fail
        ("summary.json", None, "not_json"),
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

    # each edit keeps the file parsable and leaves every other file as written
    @pytest.mark.parametrize("name, edit, failure", [
        ("model.json", lambda d: d.update(m=7), "FAIL model m counts the states"),
        ("model.json", lambda d: d["gamma"].append([0.5, 0.5]),
         "FAIL model.json fields (ValueError: inconsistent parameter shapes)"),
        ("model.json", lambda d: d["metadata"].update(iterations=99),
         "FAIL model iterations count the loglik trace"),
        ("model.json", lambda d: d.update(state_order=[5, 5]),
         "FAIL model state_order is a permutation of its states"),
        # still non-decreasing and of the right length, but above what the
        # stored model attains on the residuals' series
        ("model.json", lambda d: d.update(loglik_trace=[v + 1e-6 for v in d["loglik_trace"]]),
         "FAIL model loglik on the residual series reaches its trace"),
        ("histogram.json", lambda d: d.update(bins=3), "FAIL histogram has 10 bins"),
        ("sweep_meta.json", lambda d: d.update(completed=99),
         "FAIL sweep_meta completed counts sweep rows"),
    ], ids=["model_m", "gamma_row", "iterations", "state_order", "loglik_trace", "bins",
            "completed"])
    def test_inconsistent_json_artifact_fails(self, tmp_path, capsys, name, edit, failure):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
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
        lines[2] = ",".join([t, x, io.fmt(float(u) + 1e-10)] if edit == "u"
                            else [t, io.fmt(1e6), u])
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
        # no strike, a corridor that truncates before its first strike, corners
        expected = {"1.414": (0, False, 0), "1e-7": (0, True, 0), "1.464": (500, False, 5)}
        assert (summary["n_collisions"], summary["truncated"],
                summary["corner_events"]) == expected[slope]
        assert main(["diagnose", "--out", str(tmp_path)]) == 0
        assert "ok   trajectory replays on the collision kernel" in capsys.readouterr().out

    @pytest.mark.parametrize("edit", ["csv_x", "csv_vx"])
    def test_edited_trajectory_fails_replay(self, tmp_path, capsys, edit):
        assert main(["simulate", "--out", str(tmp_path), "--slope", "1.464",
                     "--collisions", "40"]) == 0
        # the last row: no later strike starts from it, so only the edited
        # column itself can disagree with the replay
        path = tmp_path / "trajectory.csv"
        lines = path.read_text().splitlines()
        row = lines[-1].split(",")
        column = {"csv_x": 1, "csv_vx": 5}[edit]
        value = float(row[column])
        row[column] = io.fmt(value + 1e-6 if edit == "csv_x" else value * 1.0000001)
        lines[-1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["diagnose", "--out", str(tmp_path)]) == 4
        assert "FAIL trajectory replays on the collision kernel" in capsys.readouterr().out

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

    def test_checked_in_reference_config_loads(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "reference.json"
        doc = json.loads(path.read_text())
        assert doc["sweep"]["count"] == 300
        assert doc["hmm"] == {"m": 3, "max_iters": 15}

    def test_checked_in_reference_config_is_the_defaults(self):
        from windtree.config import PipelineConfig

        path = Path(__file__).resolve().parent.parent / "configs" / "reference.json"
        assert json.loads(path.read_text()) == PipelineConfig().to_doc()

    def test_defaults_are_the_reference_pipeline(self):
        from windtree.config import PipelineConfig

        config = PipelineConfig()
        assert (config.sweep.slope_start, config.sweep.slope_step,
                config.sweep.count, config.sweep.k_min,
                config.sweep.k_max) == (1.4140, 0.0025, 300, 500, 1000)
        assert (config.hmm.m, config.hmm.max_iters) == (3, 15)


class TestArtifactFormats:
    @pytest.mark.parametrize("name", ["trajectory.csv", "sweep.csv", "residuals.csv"])
    def test_csv_text_roundtrip(self, name):
        spec = io.ARTIFACTS[name]
        header = {"trajectory.csv": "k,x,y,t,wall,vx,vy", "sweep.csv": "t,slope,D,logD",
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
            assert float(io.fmt(v)) == v

    def test_json_text_idempotent(self, tmp_path):
        doc = {"a": [1.0, math.pi], "b": {"c": "x"}}
        path = tmp_path / "doc.json"
        io.write_json(doc, path)
        raw = path.read_text()
        assert io.json_text(json.loads(raw)) == raw


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle: importing scipy.stats costs about 1 s, which
    # every fresh windtree process, sweep workers included, would pay
    code = ("import windtree.cli, sys; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=Path(__file__).resolve().parent.parent,
                          env={**os.environ, "PYTHONPATH": "src"}, check=True)
    assert proc.stdout.strip() == "[]"
