"""Tests for the slope sweep, motion classification, and exponent estimator."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from windtree import io, sweep
from windtree.billiard import (
    Lockstep,
    ParticleState,
    TrajectoryLog,
    Vec2,
    simulate,
    state_from_slope,
    unit,
)
from windtree.sweep import (
    LAG_BLOCK_ELEMENTS,
    SweepFailure,
    CorridorTruncation,
    InsufficientData,
    MotionLabel,
    SweepSpec,
    _sweep_span,
    build_sweep,
    classify_motion,
    estimate_diffusion_exponent,
    growth_exponent,
)

from oracle import recurrence_statistic, sequential_classify_motion


class TestSweepSpec:
    def test_defaults_span_published_grid(self):
        spec = SweepSpec()
        assert spec.count == 300
        assert spec.slope_at(1) == 1.4140
        assert abs(spec.slope_at(spec.count) - 2.1615) <= 1e-12
        assert abs(spec.slope_at(2) - 1.4165) <= 1e-12

    def test_grid_is_index_based(self):
        spec = SweepSpec()
        diffs = [spec.slope_at(t + 1) - spec.slope_at(t) for t in range(1, spec.count)]
        # computed from the integer index, so the worst step error is one ulp
        assert max(abs(d - 0.0025) for d in diffs) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(count=0)
        with pytest.raises(ValueError):
            SweepSpec(k_min=0)
        with pytest.raises(ValueError):
            SweepSpec(k_min=10, k_max=5)
        with pytest.raises(ValueError):
            SweepSpec().slope_at(0)


class TestRecurrenceStatistic:
    def test_single_event_window(self):
        # k_min = k_max = 1 reduces to the first collision distance
        obs = recurrence_statistic(2.0, SweepSpec(count=1, k_min=1, k_max=1))
        assert abs(obs["D"] - math.sqrt(1.25)) <= 1e-12
        assert abs(obs["logD"] - math.log(math.sqrt(1.25))) <= 1e-12

    def test_recurrent_band_small_statistic(self):
        obs = recurrence_statistic(1.414, SweepSpec())
        assert obs["logD"] < 0.5

    def test_rapid_band_large_statistic(self):
        obs = recurrence_statistic(1.618, SweepSpec())
        assert 4.5 < obs["logD"] < 7.0

    def test_log_is_natural(self):
        obs = recurrence_statistic(1.618, SweepSpec(k_min=10, k_max=50))
        assert abs(obs["logD"] - math.log(obs["D"])) <= 1e-12

    def test_corridor_slope_raises(self):
        with pytest.raises((CorridorTruncation, ValueError)):
            recurrence_statistic(0.0, SweepSpec(k_min=1, k_max=10))


def assert_gaps_tie_oracle(spec, gap_ts):
    """Check that build_sweep(spec) has gap records at exactly `gap_ts`,
    each with the reason the oracle raises, and that every other sample's
    row is the oracle's. Returns the sweep."""
    result = build_sweep(spec)
    assert [f.t for f in result.failures] == gap_ts
    for failure in result.failures:
        with pytest.raises(CorridorTruncation) as scalar:
            recurrence_statistic(spec.slope_at(failure.t), spec, t=failure.t)
        assert failure.reason == str(scalar.value)
    rows = [recurrence_statistic(spec.slope_at(t), spec, t=t)
            for t in range(1, spec.count + 1) if t not in gap_ts]
    assert {name: column.tolist() for name, column in result.columns.items()} == {
        name: [row[name] for row in rows] for name in result.columns}
    return result


class TestBuildSweep:
    def test_single_observation(self):
        result = build_sweep(SweepSpec(count=1, k_min=5, k_max=10))
        assert len(result.columns["t"]) == 1
        assert result.columns["slope"][0] == 1.4140

    def test_default_sweep_shape(self, reference_sweep):
        result, _elapsed = reference_sweep
        assert list(result.columns) == ["t", "slope", "D", "logD"]
        assert result.columns["t"].tolist() == list(range(1, 301))
        assert result.failures == []
        assert result.columns["slope"][0] == 1.4140
        assert abs(result.columns["slope"][-1] - 2.1615) <= 1e-12
        xs = result.columns["logD"]
        assert np.all(np.isfinite(xs))
        # every strike lies on an obstacle wall, off the bands |x|, |y| < 0.5
        assert result.columns["D"].min() >= math.hypot(0.5, 0.5)

    def test_reference_sweep_csv_is_pinned(self, reference_sweep):
        # the bytes `windtree sweep` writes for configs/reference.json
        text = io.csv_text(reference_sweep[0].columns, io.SWEEP_CSV)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "fdbfb178c0dac35e22d1c45c2b9f56d42e3893fa1c3fe3a0803e7a3001566144")

    # the sweep reads the rays' positions alone, so no step of it builds
    # the wall codes of its strikes
    def test_sweep_reads_no_wall_codes(self, wall_reads):
        assert build_sweep(SweepSpec()).failures == []
        assert wall_reads == []

    def test_mirrored_grid_gives_the_same_statistics_bitwise(self, reference_sweep):
        # reflecting the slopes in the x axis reflects every trajectory, and
        # with it every collision point, exactly
        result = reference_sweep[0]
        mirrored = build_sweep(SweepSpec(slope_start=-1.4140, slope_step=-0.0025))
        assert mirrored.failures == []
        assert mirrored.columns["slope"].tobytes() == (-result.columns["slope"]).tobytes()
        for name in ("D", "logD"):
            assert mirrored.columns[name].tobytes() == result.columns[name].tobytes(), name

    def test_three_separated_clusters(self, reference_series):
        centers = _three_means(reference_series)
        assert centers[1] - centers[0] > 1.5
        assert centers[2] - centers[1] > 1.0
        labels = np.argmin(np.abs(reference_series[:, None] - centers[None, :]), axis=1)
        assert all((labels == j).sum() >= 30 for j in range(3))

    def test_rerun_is_bitwise_identical(self):
        spec = SweepSpec(count=12, k_min=50, k_max=120)
        first, again = build_sweep(spec), build_sweep(spec)
        for name, column in first.columns.items():
            assert column.dtype == again.columns[name].dtype
            assert column.tobytes() == again.columns[name].tobytes(), name

    # 11 slopes in chunks: the last chunk is short. On the grid through
    # slope 0, t = 3 is exactly 0, and in chunks of 2 its gap falls in the
    # second chunk.
    @pytest.mark.parametrize("spec, chunk, gaps", [
        (SweepSpec(count=11, k_min=50, k_max=120), 4, []),
        (SweepSpec(slope_start=-0.02, slope_step=0.01, count=11, k_min=50, k_max=120), 2, [3]),
    ])
    def test_chunks_give_the_one_batch_sweep(self, monkeypatch, spec, chunk, gaps):
        one_batch = _sweep_span(spec, 1, spec.count)
        monkeypatch.setattr(sweep, "SWEEP_CHUNK", chunk)
        chunked = build_sweep(spec)
        for name, column in one_batch.columns.items():
            assert column.dtype == chunked.columns[name].dtype
            assert column.tobytes() == chunked.columns[name].tobytes(), name
        assert chunked.failures == one_batch.failures
        assert [f.t for f in chunked.failures] == gaps

    def test_failed_slopes_become_gap_records(self):
        # t=1 runs along the corridor y = 0 and meets nothing within the horizon
        spec = SweepSpec(slope_start=1e-7, slope_step=0.05, count=40, k_min=10, k_max=200)
        assert_gaps_tie_oracle(spec, [1])

    def test_zero_slope_becomes_gap_record(self):
        # slope_at(3) is exactly 0.0, the corridor y = 0
        spec = SweepSpec(slope_start=-0.02, slope_step=0.01, count=12, k_min=50, k_max=120)
        result = assert_gaps_tie_oracle(spec, [3])
        assert result.failures == [SweepFailure(
            t=3, slope=0.0,
            reason="slope 0.0: no obstacle within horizon 1e+06 after 0 collisions")]

    def test_all_corridor_sweep_is_one_gap(self):
        # the lockstep batch runs on with zero rays after its only ray leaves
        result = build_sweep(SweepSpec(slope_start=1e-7, slope_step=0.05, count=1,
                                       k_min=10, k_max=20))
        assert [f.t for f in result.failures] == [1]
        assert {name: len(column) for name, column in result.columns.items()} == {
            "t": 0, "slope": 0, "D": 0, "logD": 0}

    # the batch's numpy settings hold over the sweep loop only: numpy's error
    # handling and buffer size are the caller's again afterwards, also where
    # the loop raises (here at the drop of the slope-0 gap, t = 3)
    @pytest.mark.parametrize("raises", [False, True])
    def test_sweep_leaves_the_numpy_settings(self, monkeypatch, raises):
        spec = SweepSpec(slope_start=-0.02, slope_step=0.01, count=5, k_min=5, k_max=20)
        if raises:
            def drop(rays, rows):
                raise RuntimeError("drop")
            monkeypatch.setattr(Lockstep, "drop", drop)
        with np.errstate(divide="raise", over="warn", under="ignore", invalid="call"):
            np.setbufsize(4096)
            before = np.geterr(), np.getbufsize()
            if raises:
                with pytest.raises(RuntimeError, match="drop"):
                    build_sweep(spec)
            else:
                assert [f.t for f in build_sweep(spec).failures] == [3]
            assert (np.geterr(), np.getbufsize()) == before


def _three_means(xs, rounds=60):
    centers = np.quantile(xs, [1 / 6, 3 / 6, 5 / 6])
    for _ in range(rounds):
        labels = np.argmin(np.abs(xs[:, None] - centers[None, :]), axis=1)
        centers = np.array([
            xs[labels == j].mean() if np.any(labels == j) else centers[j]
            for j in range(3)
        ])
    return np.sort(centers)


class TestClassifyMotion:
    def test_recurrent_exemplar(self):
        motion = classify_motion(simulate(state_from_slope(1.414), 500))
        assert motion.label is MotionLabel.RECURRENT
        assert motion.evidence["min_return_distance"] < 5.0

    def test_quasi_periodic_exemplar(self):
        motion = classify_motion(simulate(state_from_slope(1.732), 500))
        assert motion.label is MotionLabel.QUASI_PERIODIC_DIVERGENT
        # the underlying drift cycle repeats every 450 collisions
        assert motion.evidence["quasi_period"] == 450
        assert motion.evidence["quasi_max_dev"] <= 1e-9

    def test_rapid_exemplar(self):
        motion = classify_motion(simulate(state_from_slope(1.618), 500))
        assert motion.label is MotionLabel.RAPID_DIVERGENT

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            classify_motion(simulate(state_from_slope(1.414), 10))

    @given(st.floats(1.0, 3.0), st.integers(50, 3000))
    def test_block_scan_matches_the_lag_loop(self, slope, n):
        log = simulate(state_from_slope(slope), n)
        try:
            want = sequential_classify_motion(log)
        except InsufficientData:  # a corridor that truncates early
            with pytest.raises(InsufficientData):
                classify_motion(log)
            return
        assert classify_motion(log) == want

    # the drift cycle repeats every `period` strikes: the scan stops there,
    # at the seam between two blocks of lags, or past n - n // 2, where the
    # compared tail is shorter than n // 2 and the padding is masked out
    @pytest.mark.parametrize("n, blocks, offset", [
        (500, 1, 0), (500, 1, 1), (500, 1, 2), (500, 2, 1), (3000, 1, 1), (3000, 2, 1)])
    def test_block_scan_stops_at_a_block_seam(self, n, blocks, offset):
        period = blocks * (LAG_BLOCK_ELEMENTS // (n // 2)) + offset
        cycle = np.random.default_rng(period).uniform(0.0, 100.0, period)
        log = _drifting_log(cycle[np.arange(n) % period])
        motion = classify_motion(log)
        assert motion == sequential_classify_motion(log)
        assert motion.label is MotionLabel.QUASI_PERIODIC_DIVERGENT
        assert (motion.evidence["quasi_period"], motion.evidence["quasi_max_dev"]) == (period, 0.0)

    def test_block_scan_stops_at_the_first_lag_within_eps(self):
        # every other cycle is raised by 0.75: lag 40 deviates by 0.75 and
        # lag 80, in the same block of lags, by 0
        k = np.arange(500)
        cycle = np.random.default_rng(40).uniform(0.0, 100.0, 40)
        log = _drifting_log(cycle[k % 40] + 0.75 * (k // 40 % 2))
        motion = classify_motion(log)
        assert motion == sequential_classify_motion(log)
        assert motion.evidence["quasi_period"] == 40
        assert abs(motion.evidence["quasi_max_dev"] - 0.75) <= 1e-12

    @given(st.sampled_from([1.414, 1.618, 1.732]))
    def test_mirror_invariance(self, slope):
        fwd = classify_motion(simulate(state_from_slope(slope), 500))
        mirrored_state = ParticleState(Vec2(0.0, 0.0), unit(1.0, -slope))
        mir = classify_motion(simulate(mirrored_state, 500))
        assert fwd.label is mir.label


def _drifting_log(y):
    """A log of strikes at x = 10, 11, ..., far enough from the start never
    to count as a return, at heights y."""
    n = len(y)
    return TrajectoryLog(initial=ParticleState(Vec2(0.0, 0.0), Vec2(1.0, 0.0)),
                         x=10.0 + np.arange(n), y=np.asarray(y, dtype=float),
                         t=1.0 + np.arange(n), wall=np.zeros(n, dtype=np.int8))


class TestGrowthExponent:
    def test_constant_distance_is_flat(self):
        t = np.arange(1.0, 20001.0)
        assert growth_exponent(t, np.ones_like(t)) == pytest.approx(0.0, abs=1e-12)

    def test_exact_power_law_recovered(self):
        t = np.arange(1.0, 50001.0)
        d = t ** (2.0 / 3.0)
        assert growth_exponent(t, d) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_ballistic_trajectory_near_one(self):
        log = simulate(state_from_slope(1.618), 20_000)
        e = growth_exponent(log.t, np.hypot(log.x, log.y))
        assert 0.85 < e < 1.1

    def test_estimator_validates_inputs(self):
        with pytest.raises(ValueError):
            estimate_diffusion_exponent([0.5] * 5, 20_000)
        with pytest.raises(ValueError):
            estimate_diffusion_exponent([0.5] * 12, 100)

    def test_estimator_value_is_pinned(self):
        # the median as computed when the trajectory was a list of per-event
        # objects; the columnar log must reproduce it bit for bit
        directions = [0.15 + 0.125 * i for i in range(10)]
        value = estimate_diffusion_exponent(directions, 10_000, min_successes=10)
        assert value == 0.7147769196940466

    def test_estimator_requires_enough_completed_directions(self):
        # axis-parallel directions are all corridors, so nothing completes
        with pytest.raises(CorridorTruncation):
            estimate_diffusion_exponent([0.0] * 12, 10_000)
