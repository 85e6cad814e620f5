"""Geometry tests for the event-driven billiard core."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from windtree import billiard
from windtree.billiard import (
    CORNER_TOL,
    DEFAULT_HORIZON,
    LOCKSTEP_CELLS,
    MIN_FLIGHT,
    NO_HIT,
    WALLS,
    _FLIPS,
    DegenerateVelocity,
    NoHitWithinHorizon,
    ParticleState,
    Rays,
    TrajectoryLog,
    Vec2,
    cell_centers,
    distance_series,
    next_collision,
    point_in_obstacle,
    simulate,
    state_from_angle,
    state_from_slope,
    step_rays,
    strike_origins,
    unit,
)
from windtree.sweep import SweepSpec

from oracle import (
    final_state,
    inside_obstacle,
    march_first_hit,
    position_at_time,
    segment_enters_interior,
)

SQRT5 = math.sqrt(5.0)


def free_position(rng):
    while True:
        x, y = rng.uniform(-1.0, 1.0, 2)
        if not point_in_obstacle(x, y, shrink=-1e-9):
            return x, y


def locate_cell(p):
    """The cell_centers of one point, as a pair of ints."""
    cx, cy = cell_centers(np.array([p[0]]), np.array([p[1]]))
    assert cx.dtype == cy.dtype == np.int64
    return int(cx[0]), int(cy[0])


class TestLocateCell:
    def test_origin_resolves_northeast(self):
        assert locate_cell(Vec2(0.0, 0.0)) == (1, 1)

    def test_nearest_odd_pair(self):
        assert locate_cell(Vec2(2.3, -0.7)) == (3, -1)

    def test_half_integer_boundary(self):
        # each cell [2i, 2i+2) holds its lower edge: an even coordinate
        # lies in the cell above it on each axis
        assert locate_cell(Vec2(-0.5, 0.5)) == (-1, 1)
        assert locate_cell(Vec2(2.0, -2.0)) == (3, -1)

    # integers and half-integers hit the tie rule and the cell edges
    @given(*[st.floats(-50, 50) | st.integers(-50, 50).map(float)
             | st.integers(-100, 100).map(lambda i: i / 2)] * 2)
    def test_cell_contains_point(self, x, y):
        cx, cy = locate_cell(Vec2(x, y))
        assert cx % 2 == 1 and cy % 2 == 1
        assert abs(x - cx) <= 1.0 + 1e-12
        assert abs(y - cy) <= 1.0 + 1e-12
        # an even coordinate, between two centers, takes the one above it
        for z, c in ((x, cx), (y, cy)):
            if z % 2 == 0:
                assert c == z + 1


def reflect(vx, vy, wall):
    """The velocity (vx, vy) after a strike on `wall`, by the flip table."""
    flip_x, flip_y = _FLIPS[WALLS.index(wall)]
    return (-vx if flip_x else vx), (-vy if flip_y else vy)


class TestReflect:
    def test_vertical_wall(self):
        assert reflect(0.6, 0.8, "Left") == (-0.6, 0.8)

    def test_horizontal_wall(self):
        assert reflect(0.6, 0.8, "Bottom") == (0.6, -0.8)

    def test_corner_reverses_both(self):
        assert reflect(0.6, 0.8, "Corner") == (-0.6, -0.8)

    @given(st.floats(-math.pi, math.pi), st.sampled_from(WALLS))
    def test_unit_norm_and_involution(self, theta, wall):
        vx, vy = math.cos(theta), math.sin(theta)
        rx, ry = reflect(vx, vy, wall)
        assert abs(math.hypot(rx, ry) - 1.0) <= 1e-12
        rrx, rry = reflect(rx, ry, wall)
        assert math.hypot(rrx - vx, rry - vy) <= 1e-12


class TestNextCollision:
    def test_slope_two_hits_left_wall(self):
        # analytic: the ray (1, 2)/sqrt(5) crosses x = 0.5 at y = 1.0
        ev = next_collision(state_from_slope(2.0))
        assert ev.wall == "Left"
        assert ev.obstacle_center == (1, 1)
        assert ev.point.x == 0.5
        assert abs(ev.point.y - 1.0) <= 1e-12
        assert abs(ev.time - 0.5 * SQRT5) <= 1e-12
        # cross-check against fine-step ray marching
        s, ox, oy, wall, _, _ = march_first_hit(0.0, 0.0, 1.0 / SQRT5, 2.0 / SQRT5)
        assert math.hypot(ev.point.x - ox, ev.point.y - oy) <= 1e-6
        assert ev.wall == wall

    def test_axis_corridor_never_hits(self):
        state = ParticleState(Vec2(0.0, 0.0), Vec2(1.0, 0.0))
        with pytest.raises(NoHitWithinHorizon):
            next_collision(state, horizon=1e6)

    def test_axis_parallel_ray_inside_band_hits(self):
        # off the gap centerline, a horizontal ray does strike the obstacle row
        ev = next_collision(ParticleState(Vec2(0.0, 0.7), Vec2(1.0, 0.0)))
        assert ev.point == Vec2(0.5, 0.7)
        assert ev.wall == "Left"
        assert ev.obstacle_center == (1, 1)
        ev = next_collision(ParticleState(Vec2(0.7, 0.0), Vec2(0.0, -1.0)))
        assert ev.point == Vec2(0.7, -0.5)
        assert ev.wall == "Top"
        assert ev.obstacle_center == (1, -1)

    # within CORNER_TOL of either edge of its band, on each axis and in each
    # direction, an axis-parallel ray strikes a corner, snapped onto it
    @pytest.mark.parametrize("edge", [0.5 + 1e-10, 1.5 - 1e-10])
    @pytest.mark.parametrize("along", [1.0, -1.0])
    def test_axis_parallel_ray_at_band_edge_is_corner(self, edge, along):
        corner = 0.5 if edge < 1.0 else 1.5
        ev = next_collision(ParticleState(Vec2(0.0, edge), Vec2(along, 0.0)))
        assert (ev.point, ev.wall) == (Vec2(0.5 * along, corner), "Corner")
        ev = next_collision(ParticleState(Vec2(edge, 0.0), Vec2(0.0, along)))
        assert (ev.point, ev.wall) == (Vec2(corner, 0.5 * along), "Corner")

    def test_exact_diagonal_is_corner(self):
        ev = next_collision(state_from_slope(1.0))
        assert ev.wall == "Corner"
        assert ev.point == Vec2(0.5, 0.5)
        assert ev.obstacle_center == (1, 1)

    def test_degenerate_velocity_rejected(self):
        # next_collision takes a ParticleState, which cannot hold one
        with pytest.raises(DegenerateVelocity):
            ParticleState(Vec2(0.0, 0.0), Vec2(0.5, 0.5))

    def test_wall_just_departed_is_excluded(self):
        log = simulate(state_from_slope(1.414), 50)
        assert len(log) == 50
        assert np.all(np.diff(log.t) >= MIN_FLIGHT)

    @given(st.integers(0, 10_000), st.floats(0.0, 2.0 * math.pi))
    def test_hit_lies_on_stated_obstacle(self, seed, theta):
        rng = np.random.default_rng(seed)
        x, y = free_position(rng)
        state = ParticleState(Vec2(x, y), Vec2(math.cos(theta), math.sin(theta)))
        try:
            ev = next_collision(state, horizon=1e4)
        except NoHitWithinHorizon:
            assume(False)
        cx, cy = ev.obstacle_center
        assert abs(max(abs(ev.point.x - cx), abs(ev.point.y - cy)) - 0.5) <= 1e-9
        assert ev.time > 0.0


class TestSimulate:
    def test_single_collision_from_slope_two(self):
        log = simulate(state_from_slope(2.0), 1)
        assert len(log) == 1
        assert (log.x[0], round(log.y[0], 12)) == (0.5, 1.0)
        assert WALLS[log.wall[0]] == "Left"
        assert [c.tolist() for c in cell_centers(log.x, log.y)] == [[1], [1]]
        want = unit(-1.0, 2.0)
        assert math.hypot(log.vx[0] - want.x, log.vy[0] - want.y) <= 1e-12

    def test_zero_collisions(self):
        log = simulate(state_from_slope(1.5), 0)
        assert len(log) == 0 and not log.truncated
        assert all(c.size == 0 for c in (log.x, log.y, log.t, log.wall, log.vx, log.vy))
        assert final_state(log) == log.initial

    def test_fifteen_collisions_free_flight(self):
        log = simulate(state_from_slope(1.414), 15)
        assert len(log) == 15
        prev = log.initial.position
        total = 0.0
        for point in map(Vec2, log.x.tolist(), log.y.tolist()):
            assert not segment_enters_interior(prev, point)
            total += math.hypot(point.x - prev.x, point.y - prev.y)
            prev = point
        assert abs(total - final_state(log).elapsed_time) <= 1e-9

    def test_corridor_truncates_with_reason(self):
        state = ParticleState(Vec2(0.0, 0.0), Vec2(0.0, 1.0))
        log = simulate(state, 5, horizon=1e4)
        assert log.truncated and "horizon" in log.truncation_reason
        assert len(log) == 0

    def test_times_strictly_increase(self):
        log = simulate(state_from_slope(1.618), 500)
        times = log.t
        assert np.all(np.diff(times) > 0)

    def test_initial_inside_obstacle_rejected(self):
        state = ParticleState(Vec2(1.0, 1.0), Vec2(1.0, 0.0))
        with pytest.raises(ValueError, match="inside an obstacle"):
            simulate(state, 1)

    def test_corner_retroreflection_cycles(self):
        # the exact diagonal bounces between opposite corners through the origin
        log = simulate(state_from_slope(1.0), 4)
        pts = list(zip(log.x.tolist(), log.y.tolist()))
        assert pts == [(0.5, 0.5), (-0.5, -0.5), (0.5, 0.5), (-0.5, -0.5)]
        assert all(WALLS[w] == "Corner" for w in log.wall)


class TestDistanceSeries:
    def test_single_event(self):
        log = simulate(state_from_slope(2.0), 1)
        np.testing.assert_allclose(distance_series(log), [math.sqrt(1.25)], rtol=1e-12)

    def test_empty_log(self):
        log = simulate(state_from_slope(2.0), 0)
        assert distance_series(log).size == 0

    def test_rapid_divergence_grows(self):
        log = simulate(state_from_slope(1.618), 500)
        d = distance_series(log)
        assert d.max() > 50.0 * d[0]


class TestInvariants:
    def test_speed_conservation_long_run(self):
        log = simulate(state_from_slope(1.414), 2000)
        assert len(log) == 2000
        assert np.all(np.abs(np.hypot(log.vx, log.vy) - 1.0) <= 1e-9)

    def test_time_reversal_k50(self):
        log = simulate(state_from_slope(1.414), 50)
        final = final_state(log)
        back = simulate(
            ParticleState(final.position, Vec2(-final.velocity.x, -final.velocity.y)), 50
        )
        recovered = position_at_time(back, final.elapsed_time)
        assert math.hypot(recovered.x, recovered.y) <= 1e-8

    def test_time_reversal_k500(self):
        log = simulate(state_from_slope(1.7321), 500)
        final = final_state(log)
        back = simulate(
            ParticleState(final.position, Vec2(-final.velocity.x, -final.velocity.y)), 500
        )
        recovered = position_at_time(back, final.elapsed_time)
        assert math.hypot(recovered.x, recovered.y) <= 1e-6
        # the reversed run retraces the forward events in reverse order
        fwd = log.event_points()
        rev = back.event_points()
        np.testing.assert_allclose(rev[:-1], fwd[-2::-1], atol=1e-6)

    # A corner strike retro-reflects, but the reversed run need not strike
    # the same corner: at 7/5 (1.4) strike 5 is a Corner at (-6.5, 0.5) where
    # the line only touches the square, and the reversed run leaves toward
    # (-5.5, -0.9). The corner slopes of the grid fail for that reason.
    @pytest.mark.parametrize("t, n", [
        *((t, 10_000) for t in (1, 2, 100, 200, 300)),
        *(pytest.param(t, n, marks=pytest.mark.xfail(
            strict=True, reason="a corner strike does not reverse"))
          for t, n in ((21, 100), (85, 10_000), (181, 10_000), (277, 10_000))),
    ])
    def test_reference_grid_run_reverses_to_its_start(self, t, n):
        log = simulate(state_from_slope(SweepSpec().slope_at(t)), n)
        final = final_state(log)
        back = simulate(
            ParticleState(final.position, Vec2(-final.velocity.x, -final.velocity.y)), n
        )
        recovered = position_at_time(back, final.elapsed_time)
        assert math.hypot(recovered.x, recovered.y) <= 1e-8

    def test_free_flight_validity(self):
        log = simulate(state_from_slope(1.732), 300)
        prev = log.initial.position
        for point in map(Vec2, log.x.tolist(), log.y.tolist()):
            assert not segment_enters_interior(prev, point)
            prev = point

    @given(st.sampled_from([1.414, 1.618, 1.732, 2.0, 0.3, 5.0]))
    def test_x_axis_mirror_symmetry_exact(self, slope):
        fwd = simulate(state_from_slope(slope), 200)
        mir = simulate(
            ParticleState(Vec2(0.0, 0.0), Vec2(fwd.initial.velocity.x,
                                               -fwd.initial.velocity.y)), 200
        )
        flip = {"Bottom": "Top", "Top": "Bottom"}
        assert len(fwd) == len(mir) == 200
        assert np.array_equal(fwd.x, mir.x) and np.array_equal(fwd.y, -mir.y)
        assert np.array_equal(fwd.t, mir.t)
        assert [flip.get(WALLS[a], WALLS[a]) for a in fwd.wall] == [WALLS[b] for b in mir.wall]
        (fcx, fcy), (mcx, mcy) = cell_centers(fwd.x, fwd.y), cell_centers(mir.x, mir.y)
        assert np.array_equal(fcx, mcx) and np.array_equal(fcy, -mcy)


class TestOracleAgreement:
    def test_random_first_hits_match_marching(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            x, y = free_position(rng)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            vx, vy = math.cos(theta), math.sin(theta)
            ev = next_collision(ParticleState(Vec2(x, y), Vec2(vx, vy)))
            s, ox, oy, wall, _, _ = march_first_hit(x, y, vx, vy)
            assert math.hypot(ev.point.x - ox, ev.point.y - oy) <= 1e-6
            assert ev.wall == wall

    def test_inside_predicates_agree(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-9, 9, size=(500, 2))
        ours = np.array([point_in_obstacle(x, y) for x, y in pts])
        theirs = inside_obstacle(pts[:, 0], pts[:, 1])
        np.testing.assert_array_equal(ours, theirs)


def test_position_at_time_interpolates():
    log = simulate(state_from_slope(2.0), 1)
    mid = position_at_time(log, log.t[0] / 2.0)
    assert abs(mid.x - 0.25) <= 1e-12 and abs(mid.y - 0.5) <= 1e-12
    with pytest.raises(ValueError):
        position_at_time(log, -1.0)
    # later segments: each event time lands on its point, midpoints halfway
    log = simulate(state_from_slope(1.618), 20)
    for k in range(1, 20):
        at = position_at_time(log, float(log.t[k]))
        assert math.hypot(at.x - log.x[k], at.y - log.y[k]) <= 1e-12
        mid = position_at_time(log, float(log.t[k - 1] + log.t[k]) / 2.0)
        assert abs(mid.x - (log.x[k - 1] + log.x[k]) / 2.0) <= 1e-9
        assert abs(mid.y - (log.y[k - 1] + log.y[k]) / 2.0) <= 1e-9


def test_trajectory_log_rows_checked_like_particle_states():
    log = simulate(state_from_slope(1.414), 3)
    cols = {name: getattr(log, name) for name in ("x", "y", "t", "wall", "vx", "vy")}
    with pytest.raises(DegenerateVelocity):
        TrajectoryLog(log.initial, **{**cols, "vx": log.vx * 1.01})
    with pytest.raises(ValueError, match="finite"):
        TrajectoryLog(log.initial, **{**cols, "t": np.array([1.0, np.inf, 2.0])})
    with pytest.raises(ValueError, match="length"):
        TrajectoryLog(log.initial, **{**cols, "t": log.t[:2]})


def test_trajectory_log_event_arrays():
    log = simulate(state_from_slope(1.618), 20)
    assert log.event_points().shape == (20, 2)
    assert log.t.shape == (20,)
    assert log.corner_count() == 0


def batched_events(states, n, horizon=DEFAULT_HORIZON):
    """Per-ray (k, 4) arrays of x, y, t and wall code from n lockstep steps;
    a ray leaves the batch at its first step without a hit."""
    rays = Rays(*(np.array(column, dtype=float) for column in zip(
        *[(s.position.x, s.position.y, s.velocity.x, s.velocity.y, s.elapsed_time)
          for s in states])))
    rows = np.arange(len(states))
    events = np.zeros((len(states), n, 4))
    counts = np.zeros(len(states), dtype=int)
    for k in range(n):
        rays, walls = step_rays(rays, horizon)
        live = walls != NO_HIT
        rays = Rays(*(a[live] for a in rays))
        rows = rows[live]
        events[rows, k] = np.column_stack([rays.x, rays.y, rays.t, walls[live]])
        counts[rows] += 1
    return [events[i, :counts[i]] for i in range(len(states))]


def log_events(log):
    """The (k, 4) array of x, y, t and wall code of a log's strikes."""
    return np.column_stack([log.x, log.y, log.t, log.wall.astype(float)])


def scalar_events(state, n, horizon=DEFAULT_HORIZON):
    return log_events(simulate(state, n, horizon))


def assert_kernels_tie(states, n, horizon=DEFAULT_HORIZON):
    """step_rays reproduces simulate bitwise: same events, same truncation."""
    for state, batched in zip(states, batched_events(states, n, horizon)):
        scalar = scalar_events(state, n, horizon)
        assert batched.shape == scalar.shape, state
        assert batched.tobytes() == scalar.tobytes(), state


def assert_corners_walked(log, walked):
    """step_rays handed every corner strike of the log to the scalar walk,
    whose start states are `walked`, and kept on the block every strike with
    finite slab times (|vx vy| > 1e-300) that lies in its start's candidate
    block and farther than 2 CORNER_TOL from a corner."""
    origins = np.column_stack(strike_origins(log)[:4]).tolist()
    for (px, py, vx, vy), x, y, wall in zip(origins, log.x, log.y, log.wall):
        if WALLS[wall] == "Corner":
            assert (px, py, vx, vy) in walked
            continue
        (ox, oy), (cx, cy) = locate_cell((px, py)), locate_cell((x, y))
        ahead = (cx - ox) // 2 * math.copysign(1, vx) + (cy - oy) // 2 * math.copysign(1, vy)
        corner_gap = max(abs(0.5 - abs(x - cx)), abs(0.5 - abs(y - cy)))
        if abs(vx * vy) > 1e-300 and ahead < LOCKSTEP_CELLS and corner_gap > 2 * CORNER_TOL:
            assert (px, py, vx, vy) not in walked


CORNER_SLOPES = [SweepSpec().slope_at(t) for t in range(21, 278, 32)]
AXES = [Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(-1.0, 0.0), Vec2(0.0, -1.0)]


def free_state(x, y, theta):
    return ParticleState(Vec2(x, y), Vec2(math.cos(theta), math.sin(theta)))


def is_free(state):
    return not point_in_obstacle(*state.position, shrink=-1e-9)


coords = st.floats(-3.0, 3.0)
free_rays = st.builds(free_state, coords, coords, st.floats(-math.pi, math.pi)).filter(is_free)
corner_rays = st.sampled_from(CORNER_SLOPES).map(state_from_slope)
# within 1e-2 rad of an axis, or exactly along one: both take the scalar walk.
# Tilts log-uniform down to 1e-5 rad make the walk jump up to about 5e4 cells
# to the first obstacle band, which still lies within DEFAULT_HORIZON.
tilts = st.floats(math.log(1e-5), math.log(1e-2)).map(math.exp)
tilted_rays = st.builds(lambda x, y, axis, tilt: free_state(x, y, axis * math.pi / 2 + tilt),
                        coords, coords, st.integers(-1, 2),
                        tilts | tilts.map(lambda tilt: -tilt)).filter(is_free)
axis_rays = st.one_of(
    st.builds(lambda x, y, v: ParticleState(Vec2(x, y), v), coords, coords,
              st.sampled_from(AXES)).filter(is_free),
    tilted_rays,
)


def corner_aimed(center, gap, rise, offset, mirror, transpose):
    """A ray from the gap column left of the obstacle at `center` to the line
    of its Left wall, `offset` above the bottom-left corner: on the wall when
    positive, past the corner when negative. Nothing lies in between, and the
    obstacle is at most one cell ahead on each axis. Then mirrored and
    transposed, which maps the obstacle lattice onto itself."""
    cx, cy = center
    hx, hy = cx - 0.5, cy - 0.5 + offset
    px, py = hx - gap, hy - rise
    v = unit(hx - px, hy - py)
    mx, my = mirror
    px, py, vx, vy = mx * px, my * py, mx * v.x, my * v.y
    if transpose:
        px, py, vx, vy = py, px, vy, vx
    return ParticleState(Vec2(px, py), Vec2(vx, vy))


odd = st.sampled_from([-3, -1, 1, 3])
signs = st.sampled_from([1.0, -1.0])
# aimed within a few CORNER_TOL of an obstacle corner, on either side of it
corner_aimed_rays = st.builds(
    corner_aimed, st.tuples(odd, odd), st.floats(0.05, 0.95),
    st.floats(0.05, 1.5) | st.floats(-1.5, -0.05),
    st.sampled_from([sign * k * CORNER_TOL for k in (0.5, 1, 2, 4) for sign in (1, -1)]),
    st.tuples(signs, signs), st.booleans())


@pytest.fixture
def scalar_walks(monkeypatch):
    """The argument tuples of every scalar strike walk started."""
    calls = []
    walk = billiard._strikes

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(billiard, "_strikes", counted)
    return calls


def first_strike_length(entry, state, horizon):
    """Path length from `state` to its first strike by `entry` (simulate,
    next_collision or step_rays), or None if there is none within the horizon."""
    if entry == "simulate":
        log = simulate(state, 1, horizon)
        return float(log.t[0]) if len(log) else None
    if entry == "next_collision":
        try:
            return next_collision(state, horizon).time
        except NoHitWithinHorizon:
            return None
    rays, walls = step_rays(
        Rays(*(np.array([c]) for c in (*state.position, *state.velocity, 0.0))), horizon)
    return float(rays.t[0]) if walls[0] != NO_HIT else None


def row_bytes(*values):
    return np.array(values, dtype=float).tobytes()


class TestStrikeWalk:
    # After its first strike, simulate's walk starts on the wall just struck,
    # past that obstacle's band, and skips hypot once it has returned exactly
    # 1.0. A fresh walk from the same state places its bands from scratch
    # and calls hypot.
    @given(st.one_of(free_rays, corner_rays, axis_rays, corner_aimed_rays),
           st.sampled_from([1.5, 5.0, 1e3]))
    def test_each_strike_is_a_fresh_walks_first(self, state, horizon):
        log = simulate(state, 40, horizon)
        origins = strike_origins(log)
        for k in range(len(log)):
            px, py, vx, vy, t = (float(column[k]) for column in origins)
            s, hx, hy, wall, rx, ry = next(billiard._strikes(px, py, vx, vy, horizon))
            assert row_bytes(hx, hy, t + s, wall, rx, ry) == row_bytes(
                log.x[k], log.y[k], log.t[k], log.wall[k], log.vx[k], log.vy[k]), k

    def test_unit_hypot_bounces_only_flip_signs(self):
        # where hypot of a logged velocity is exactly 1.0, the next bounce
        # divides by 1.0, so the next row keeps (|vx|, |vy|)
        spec = SweepSpec()
        runs = [(state_from_slope(spec.slope_at(t)), 1000) for t in range(1, spec.count + 1)]
        angles = np.random.default_rng(0).uniform(0.1, math.pi / 2 - 0.1, 12)
        runs += [(state_from_angle(theta), 2000) for theta in angles]
        rows = unit_rows = 0
        for state, n in runs:
            log = simulate(state, n)
            unit_norm = np.array(list(map(math.hypot, log.vx.tolist(), log.vy.tolist()))) == 1.0
            k = np.flatnonzero(unit_norm[:-1])
            assert np.array_equal(np.abs(log.vx[k + 1]), np.abs(log.vx[k])), state
            assert np.array_equal(np.abs(log.vy[k + 1]), np.abs(log.vy[k])), state
            rows += len(log) - 1
            unit_rows += len(k)
        assert unit_rows > 0.99 * rows

    def test_long_run_is_pinned(self):
        # taken before the walk kept its cells between strikes
        log = simulate(state_from_angle(1.0), 20_000)
        digest = hashlib.sha256(b"".join(
            column.tobytes() for column in (log.x, log.y, log.t, log.wall, log.vx, log.vy)))
        assert (len(log), digest.hexdigest()) == (
            20_000, "306a6b0e54266381986b1d1771e9dd8797d66d60b7c9c09d6aa6a6e3449fec0f")

    RUNS = {
        "simulate": lambda state, horizon: simulate(state, 5, horizon),
        "next_collision": next_collision,
        "step_rays": lambda state, horizon: step_rays(
            Rays(*(np.array([c]) for c in (*state.position, *state.velocity, 0.0))), horizon),
    }

    # under an infinite horizon, the ray at pi / 2 (vx = 6.1e-17) would walk
    # up between two obstacle columns forever; past 2**52 the points along a
    # ray lose odd-integer resolution, so the walk's band steps could stall
    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf, 1e30])
    @pytest.mark.parametrize("entry", sorted(RUNS))
    def test_horizon_must_be_positive(self, scalar_walks, entry, horizon):
        # an axis-parallel ray, which step_rays finishes on the scalar walk
        state = ParticleState(Vec2(0.7, 0.0), Vec2(0.0, 1.0))
        with pytest.raises(ValueError, match=r"horizon must be positive and at most 2\*\*52"):
            self.RUNS[entry](state, horizon)
        assert scalar_walks == []

    def test_axis_corridor_returns_at_once(self):
        # from the origin, the ray at pi / 2 (vx = 6.1e-17) enters the
        # obstacle column x in [0.5, 1.5] only after path length 8e15, so no
        # cell up to the horizon can hold a hit
        log = simulate(state_from_angle(math.pi / 2), 1, 1e15)
        assert (len(log), log.truncated) == (0, True)

    # a near-axis ray from a gap may stop on the first time it can enter an
    # obstacle band, which must be the walk's own slab time: the first strike
    # is found at a horizon of exactly its path length, and not just below it
    @pytest.mark.parametrize("entry", ["simulate", "next_collision", "step_rays"])
    @given(tilted_rays)
    def test_near_axis_strike_found_at_its_horizon(self, entry, state):
        s = first_strike_length(entry, state, DEFAULT_HORIZON)
        assert s is not None
        assert first_strike_length(entry, state, s) == s
        assert first_strike_length(entry, state, math.nextafter(s, 0.0)) is None

    # past 2**52 from the origin, band centers and their steps of 2 are no
    # longer exact: a walk from there meets nothing instead of stalling, and
    # the lockstep kernel agrees
    @pytest.mark.parametrize("position", [Vec2(1e18, 0.3), Vec2(0.3, -1e17), Vec2(2.0**52, 0.3)])
    def test_walk_beyond_reach_meets_nothing(self, position):
        state = state_from_angle(0.2, position)
        log = simulate(state, 3)
        assert (len(log), log.truncated) == (0, True)
        assert_kernels_tie([state], 3)

    # every strike point lies on an obstacle wall, where |x| >= 0.5 and
    # |y| >= 0.5, so no distance from the origin is below sqrt(2) / 2
    @given(st.one_of(free_rays, corner_rays, axis_rays))
    def test_strikes_keep_off_the_axes(self, state):
        log = simulate(state, 200)
        assert np.all(np.minimum(np.abs(log.x), np.abs(log.y)) >= 0.5)


class TestStepRays:
    def test_reference_grid_ties_simulate(self, scalar_walks):
        spec = SweepSpec()
        states = [state_from_slope(spec.slope_at(t)) for t in range(1, spec.count + 1)]
        batched = batched_events(states, spec.k_max)
        # the block computes every strike of the sweep but its corners: one
        # scalar walk per corner, from the state the corner strike starts at
        walks = sorted(args[:4] for args in scalar_walks)
        corner_origins = []
        corners = 0
        for state, events in zip(states, batched):
            log = simulate(state, spec.k_max)
            scalar = log_events(log)
            assert events.tobytes() == scalar.tobytes(), state
            corners += int((events[:, 3] == WALLS.index("Corner")).sum())
            origins = np.column_stack(strike_origins(log)[:4])
            corner_origins += map(tuple, origins[log.wall == WALLS.index("Corner")].tolist())
        assert corners == 73
        assert len(walks) == 73
        assert walks == sorted(corner_origins)

    # short horizons bound the corridor walks and cut some rays within the
    # lockstep cells
    @settings(suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(st.lists(st.one_of(free_rays, corner_rays, axis_rays, corner_aimed_rays),
                    min_size=1, max_size=6),
           st.sampled_from([1.5, 5.0, 1e3]))
    def test_mixed_batches_tie_simulate(self, scalar_walks, states, horizon):
        scalar_walks.clear()
        batched = batched_events(states, 40, horizon)
        walked = {args[:4] for args in scalar_walks}
        for state, events in zip(states, batched):
            log = simulate(state, 40, horizon)
            assert events.tobytes() == log_events(log).tobytes(), state
            assert_corners_walked(log, walked)

    def test_near_axis_ray_finishes_on_scalar_walk(self, scalar_walks):
        state = free_state(0.0, 0.0, 1e-3)
        (events,) = batched_events([state], 1)
        # the candidate block's cells span x in [0, 2 * LOCKSTEP_CELLS); the
        # first strike lies far beyond it
        assert events[0, 0] > 2.0 * LOCKSTEP_CELLS
        assert len(scalar_walks) == 1
        assert_kernels_tie([state, *map(state_from_slope, CORNER_SLOPES[:2])], 20)

    # From the origin along the gap below the row y in [0.5, 1.5], the ray
    # first strikes the bottom wall of the obstacle centered (2a + 1, 1), a
    # cells ahead: a = LOCKSTEP_CELLS - 1 is the block's farthest cell along
    # x, and a = LOCKSTEP_CELLS is the first cell beyond the block.
    @pytest.mark.parametrize("ahead, walks", [(LOCKSTEP_CELLS - 1, 0), (LOCKSTEP_CELLS, 1)])
    def test_block_edge(self, scalar_walks, ahead, walks):
        state = state_from_slope(0.5 / (2 * ahead + 1))
        (events,) = batched_events([state], 1)
        assert len(scalar_walks) == walks
        x, y, _, wall = events[0]
        assert locate_cell(Vec2(x, y)) == (2 * ahead + 1, 1)
        assert (y, WALLS[int(wall)]) == (0.5, "Bottom")
        assert_kernels_tie([state], 20)

    def test_empty_batch(self):
        rays, walls = step_rays(Rays(*(np.zeros(0) for _ in Rays._fields)))
        assert [len(column) for column in rays] == [0] * len(Rays._fields)
        assert walls.shape == (0,)

    @pytest.mark.parametrize("mx, my", [(-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)])
    def test_mirrored_reference_batch_mirrors_bitwise(self, mx, my):
        # a mirror maps LEFT<->RIGHT (x) and BOTTOM<->TOP (y); CORNER and
        # NO_HIT (index -1, the last entry) stay
        codes = ["Right", "Left"] if mx < 0 else ["Left", "Right"]
        codes += ["Top", "Bottom"] if my < 0 else ["Bottom", "Top"]
        wall_map = np.array([WALLS.index(w) for w in codes] + [WALLS.index("Corner"), NO_HIT])
        spec = SweepSpec()
        velocities = [state_from_slope(spec.slope_at(t)).velocity
                      for t in range(1, spec.count + 1)]
        rays = Rays(*(np.array(c) for c in zip(*[(0.0, 0.0, v.x, v.y, 0.0) for v in velocities])))
        mirrored = Rays(mx * rays.x, my * rays.y, mx * rays.vx, my * rays.vy, rays.t)
        for _ in range(200):
            rays, walls = step_rays(rays)
            mirrored, mirrored_walls = step_rays(mirrored)
            for a, b in ((mx * rays.x, mirrored.x), (my * rays.y, mirrored.y),
                         (mx * rays.vx, mirrored.vx), (my * rays.vy, mirrored.vy),
                         (rays.t, mirrored.t)):
                assert a.tobytes() == b.tobytes()
            assert np.array_equal(wall_map[walls], mirrored_walls)

    def test_corridor_ray_truncates_like_simulate(self):
        corridor = state_from_slope(1e-7)
        assert simulate(corridor, 5).truncated
        assert_kernels_tie([corridor, state_from_slope(1.414)], 5)
