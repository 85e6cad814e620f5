"""Geometry tests for the event-driven billiard core."""

import contextlib
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from windtree import billiard
from windtree.billiard import (
    CORNER_TOL,
    LOCKSTEP_CELLS,
    MIN_FLIGHT,
    NO_HIT,
    WALLS,
    _FLIPS,
    DegenerateVelocity,
    Lockstep,
    ParticleState,
    TrajectoryLog,
    Vec2,
    cell_centers,
    distance_series,
    point_in_obstacle,
    simulate,
    state_from_angle,
    state_from_slope,
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
        # the farthest exact centers
        assert locate_cell(Vec2(2.0**53 - 1.0, -(2.0**53 - 1.0))) == (2**53 - 1, -(2**53 - 1))

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

    # below 2**53 every center is an exact odd integer; from there on, and
    # for a coordinate that is not finite, there is no center to cast
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [1e20, 2.0**53, -2.0**53, math.inf, math.nan])
    def test_point_without_exact_center_is_rejected(self, x):
        with pytest.raises(ValueError, match="no exact cell center"):
            point_in_obstacle(x, 0.3)


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


def first_strike(state):
    """simulate(state, 1)'s row as its hit point, wall name and obstacle
    center, or None where the log is empty, as it is in a corridor."""
    log = simulate(state, 1)
    if not len(log):
        assert log.truncated
        return None
    point = Vec2(float(log.x[0]), float(log.y[0]))
    return point, WALLS[log.wall[0]], locate_cell(point)


class TestNextCollision:
    def test_slope_two_hits_left_wall(self):
        # analytic: the ray (1, 2)/sqrt(5) crosses x = 0.5 at y = 1.0
        state = state_from_slope(2.0)
        point, wall, center = first_strike(state)
        assert (wall, center) == ("Left", (1, 1))
        assert point.x == 0.5
        assert abs(point.y - 1.0) <= 1e-12
        assert abs(simulate(state, 1).t[0] - 0.5 * SQRT5) <= 1e-12
        # cross-check against fine-step ray marching
        s, ox, oy, marched, _, _ = march_first_hit(0.0, 0.0, 1.0 / SQRT5, 2.0 / SQRT5)
        assert math.hypot(point.x - ox, point.y - oy) <= 1e-6
        assert wall == marched

    def test_axis_corridor_never_hits(self):
        assert first_strike(ParticleState(Vec2(0.0, 0.0), Vec2(1.0, 0.0))) is None

    def test_axis_parallel_ray_inside_band_hits(self):
        # off the gap centerline, a horizontal ray does strike the obstacle row
        assert first_strike(ParticleState(Vec2(0.0, 0.7), Vec2(1.0, 0.0))) == (
            Vec2(0.5, 0.7), "Left", (1, 1))
        assert first_strike(ParticleState(Vec2(0.7, 0.0), Vec2(0.0, -1.0))) == (
            Vec2(0.7, -0.5), "Top", (1, -1))

    # within CORNER_TOL of either edge of its band, on each axis and in each
    # direction, an axis-parallel ray strikes a corner, snapped onto it
    @pytest.mark.parametrize("edge", [0.5 + 1e-10, 1.5 - 1e-10])
    @pytest.mark.parametrize("along", [1.0, -1.0])
    def test_axis_parallel_ray_at_band_edge_is_corner(self, edge, along):
        corner = 0.5 if edge < 1.0 else 1.5
        point, wall, _ = first_strike(ParticleState(Vec2(0.0, edge), Vec2(along, 0.0)))
        assert (point, wall) == (Vec2(0.5 * along, corner), "Corner")
        point, wall, _ = first_strike(ParticleState(Vec2(edge, 0.0), Vec2(0.0, along)))
        assert (point, wall) == (Vec2(corner, 0.5 * along), "Corner")

    def test_exact_diagonal_is_corner(self):
        assert first_strike(state_from_slope(1.0)) == (Vec2(0.5, 0.5), "Corner", (1, 1))

    def test_degenerate_velocity_rejected(self):
        # simulate takes a ParticleState, which cannot hold one
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
        with capped(1e4):
            log = simulate(state, 1)
        assume(len(log))
        (cx,), (cy,) = cell_centers(log.x, log.y)
        assert abs(max(abs(log.x[0] - cx), abs(log.y[0] - cy)) - 0.5) <= 1e-9
        assert log.t[0] > 0.0


class TestSimulate:
    def test_single_collision_from_slope_two(self):
        log = simulate(state_from_slope(2.0), 1)
        assert len(log) == 1
        assert (log.x[0], round(log.y[0], 12)) == (0.5, 1.0)
        assert WALLS[log.wall[0]] == "Left"
        assert [c.tolist() for c in cell_centers(log.x, log.y)] == [[1], [1]]
        want = unit(-1.0, 2.0)
        vx, vy = log.velocities()
        assert math.hypot(vx[0] - want.x, vy[0] - want.y) <= 1e-12

    def test_zero_collisions(self):
        log = simulate(state_from_slope(1.5), 0)
        assert len(log) == 0 and not log.truncated
        assert all(c.size == 0 for c in (log.x, log.y, log.t, log.wall, *log.velocities()))
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
        with capped(1e4):
            log = simulate(state, 5)
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
        # numpy scalars print as plain floats
        state = ParticleState(Vec2(np.float64(2.500000002), np.float64(1.0)), Vec2(1.0, 0.0))
        with pytest.raises(ValueError, match=r"^initial position \(2\.500000002, 1\.0\) is "
                                             r"inside an obstacle$"):
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
        assert np.all(np.abs(np.hypot(*log.velocities()) - 1.0) <= 1e-9)

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
        np.testing.assert_allclose(back.x[:-1], log.x[-2::-1], atol=1e-6)
        np.testing.assert_allclose(back.y[:-1], log.y[-2::-1], atol=1e-6)

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
            point, wall, _ = first_strike(ParticleState(Vec2(x, y), Vec2(vx, vy)))
            s, ox, oy, marched, _, _ = march_first_hit(x, y, vx, vy)
            assert math.hypot(point.x - ox, point.y - oy) <= 1e-6
            assert wall == marched

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
    cols = {name: getattr(log, name) for name in ("x", "y", "t", "wall")}
    with pytest.raises(ValueError, match="finite"):
        TrajectoryLog(log.initial, **{**cols, "t": np.array([1.0, np.inf, 2.0])})
    with pytest.raises(ValueError, match="length"):
        TrajectoryLog(log.initial, **{**cols, "t": log.t[:2]})


# NO_HIT (-1) and one past the last wall index no WALLS entry; -1 would
# otherwise index the Corner flips when the velocities are derived
@pytest.mark.parametrize("code", [NO_HIT, len(WALLS)])
def test_wall_code_outside_walls_is_rejected(code):
    log = simulate(state_from_slope(1.414), 3)
    wall = log.wall.copy()
    wall[1] = code
    with pytest.raises(ValueError, match=f"wall code {code} is not an index into WALLS"):
        TrajectoryLog(log.initial, log.x, log.y, log.t, wall)


def test_trajectory_log_event_arrays():
    log = simulate(state_from_slope(1.618), 20)
    assert log.event_points().shape == (20, 2)
    assert log.t.shape == (20,)
    assert log.corner_count() == 0


@contextlib.contextmanager
def capped(horizon):
    """Within the block, every flight is capped at `horizon` instead of
    billiard.HORIZON."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(billiard, "HORIZON", horizon)
        yield


def batch(states):
    """The Lockstep batch of ParticleStates, each ray's velocity the first
    flight's (the start rule, billiard._start_velocity)."""
    return Lockstep(*(np.array(column, dtype=float) for column in zip(
        *[(*s.position, *billiard._start_velocity(s), s.elapsed_time) for s in states])))


def ray_columns(rays):
    """The x, y, vx, vy and t columns of a Lockstep batch."""
    return (*rays.p, *rays.v, rays.t)


def batched_events(states, n):
    """Per-ray (k, 4) arrays of x, y, t and wall code from n lockstep steps;
    a ray leaves the batch at its first step without a hit."""
    rays = batch(states)
    rows = np.arange(len(states))
    events = np.zeros((len(states), n, 4))
    counts = np.zeros(len(states), dtype=int)
    for k in range(n):
        misses = rays.step()
        if misses:
            rays.drop(misses)
            rows = np.delete(rows, misses)
        events[rows, k] = np.column_stack([*rays.p, rays.t, rays.wall])
        counts[rows] += 1
    return [events[i, :counts[i]] for i in range(len(states))]


def log_events(log):
    """The (k, 4) array of x, y, t and wall code of a log's strikes."""
    return np.column_stack([log.x, log.y, log.t, log.wall.astype(float)])


def assert_kernels_tie(states, n):
    """Lockstep reproduces simulate bitwise: same events, same truncation."""
    for state, batched in zip(states, batched_events(states, n)):
        scalar = log_events(simulate(state, n))
        assert batched.shape == scalar.shape, state
        assert batched.tobytes() == scalar.tobytes(), state


def assert_hand_off(log, walked):
    """Lockstep handed to the scalar walk, whose start states are `walked`,
    every strike of the log that fails _strikes' interior pre-check along
    its wall (c - _INTERIOR < h < c + _INTERIOR, about 2 CORNER_TOL or more
    inside both ends of the wall), every corner among them, and kept on the
    block every strike that passes it, has finite slab times (|vx vy| >
    1e-300) and lies in its start's candidate block."""
    origins = np.column_stack(ray_columns(strike_origins(log))[:4]).tolist()
    for (px, py, vx, vy), x, y, wall in zip(origins, log.x, log.y, log.wall):
        if WALLS[wall] == "Corner":
            assert (px, py, vx, vy) in walked
            continue
        (ox, oy), (cx, cy) = locate_cell((px, py)), locate_cell((x, y))
        ahead = (cx - ox) // 2 * math.copysign(1, vx) + (cy - oy) // 2 * math.copysign(1, vy)
        h, c = (y, cy) if WALLS[wall] in ("Left", "Right") else (x, cx)
        if not c - billiard._INTERIOR < h < c + billiard._INTERIOR:
            assert (px, py, vx, vy) in walked
        elif abs(vx * vy) > 1e-300 and ahead < LOCKSTEP_CELLS:
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
# to the first obstacle band, which still lies within HORIZON.
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


def wall_start(center, side, along, theta):
    """A ray from a point on one wall of the obstacle at `center`, `along`
    from the wall's middle (a corner at +-0.5), at angle theta: simulate
    first reflects a velocity into the obstacle in place."""
    cx, cy = center
    x, y = [(cx - 0.5, cy + along), (cx + 0.5, cy + along),
            (cx + along, cy - 0.5), (cx + along, cy + 0.5)][side]
    return free_state(x, y, theta)


wall_rays = st.builds(wall_start, st.tuples(odd, odd), st.integers(0, 3),
                      st.floats(-0.5, 0.5), st.floats(-math.pi, math.pi))


# free rays moved by an even lattice vector of up to 2**46 on each axis, out
# where the spacing of floats (up to 2**-6) far exceeds CORNER_TOL
lattice_shifts = st.integers(-2**45, 2**45).map(lambda k: 2.0 * k)
far_rays = st.builds(
    lambda state, dx, dy: ParticleState(
        Vec2(state.position.x + dx, state.position.y + dy), state.velocity),
    free_rays, lattice_shifts, lattice_shifts).filter(is_free)


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


def first_strike_length(entry, state, horizon=billiard.HORIZON):
    """Path length from `state` to its first strike by `entry` (simulate or
    "step_rays", one step of a one-ray Lockstep), or None if there is none
    within `horizon`."""
    with capped(horizon):
        if entry == "simulate":
            log = simulate(state, 1)
            return float(log.t[0]) if len(log) else None
        rays = batch([state])
        return None if rays.step() else float(rays.t[0])


def row_bytes(*values):
    return np.array(values, dtype=float).tobytes()


# a start strictly inside an obstacle, at least 0.01 from its walls
inside_starts = st.builds(
    lambda center, dx, dy, theta: free_state(center[0] + dx, center[1] + dy, theta),
    st.tuples(odd, odd), st.floats(-0.49, 0.49), st.floats(-0.49, 0.49),
    st.floats(-math.pi, math.pi))


class TestNextCollisionIsSimulatesFirst:
    # the start rules of the first strike: the ValueError from inside an
    # obstacle and the reflection in place off the wall a start sits on
    @given(inside_starts)
    def test_start_inside_an_obstacle_is_rejected_alike(self, state):
        # before any strike, so whatever the number of collisions asked for
        with pytest.raises(ValueError, match="inside an obstacle") as first:
            simulate(state, 1)
        with pytest.raises(ValueError, match="inside an obstacle") as none:
            simulate(state, 0)
        assert str(none.value) == str(first.value)

    def test_wall_start_into_its_obstacle_reflects_in_place(self):
        # on the Left wall of the obstacle at (1, 1), moving into it: the
        # walk from this state as given passes through to (5.5, 2.5)
        assert first_strike(ParticleState(Vec2(0.5, 1.0), unit(1.0, 0.3))) == (
            Vec2(-0.5, 1.3), "Right", (-1, 1))

    # The first strike is a corner at (-3.5, -3.5), which leaves the ray on
    # the corner point moving into one of its two walls. The start rule
    # reflects that velocity in place (vy negated), so simulate from the
    # post-bounce state strikes (-5, -6.5) where the log goes on to
    # (-4.5, -1.5).
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the start rule at a corner point waits for ROADMAP item 1's "
                              "corner rule")
    def test_post_corner_state_continues_its_log(self):
        with capped(5.0):
            log = simulate(corner_aimed((-3, -3), 0.5, -1.0, 5e-10, (1, 1), False), 40)
            vx, vy = log.velocities()
            after = ParticleState(Vec2(float(log.x[0]), float(log.y[0])),
                                  Vec2(float(vx[0]), float(vy[0])), float(log.t[0]))
            assert log_events(simulate(after, 1)).tobytes() == log_events(log)[1:2].tobytes()


class TestUnit:
    # unit() lands on the fixed point hypot == 1.0, which bounces keep
    @given(st.one_of(
        (st.floats(-1e3, 1e3) | st.floats(allow_nan=False, allow_infinity=False)).map(
            lambda slope: (1.0, slope)),
        st.floats(-math.pi, math.pi).map(lambda theta: (math.cos(theta), math.sin(theta))),
        st.builds(lambda axis, tilt: (math.cos(axis * math.pi / 2 + tilt),
                                      math.sin(axis * math.pi / 2 + tilt)),
                  st.integers(-1, 2), tilts | tilts.map(lambda tilt: -tilt))))
    def test_speed_is_exactly_one(self, xy):
        assert math.hypot(*unit(*xy)) == 1.0


def flip_sign_states():
    spec = SweepSpec()
    states = [state_from_slope(spec.slope_at(t)) for t in range(1, spec.count + 1)]
    angles = np.random.default_rng(0).uniform(0.1, math.pi / 2 - 0.1, 12)
    states += [state_from_angle(theta) for theta in angles]
    states.append(ParticleState(Vec2(0.0, 0.0), Vec2(0.6 * (1.0 + 1e-7), 0.8)))
    return states


def hard_starts():
    """Seeded starts that reach every branch of the strike walk, most of
    them away from the origin: wall and corner starts, slopes p/q aimed
    through lattice corners, a velocity component of 0, 5e-324, 1e-300 or
    1e-9, starts within 1e4 of +-2**51 (either side of the reach edge),
    free starts within +-1e6, and rays aimed 0.5 to 3 CORNER_TOL from a wall
    end, on either axis, at obstacles up to 2**50 from the origin."""
    rng = np.random.default_rng(2014)
    signs = [-1.0, 1.0]
    states = []
    for along in (0.5, -0.5, 0.5 - CORNER_TOL, -0.5 + 0.5 * CORNER_TOL,
                  *rng.uniform(-0.5, 0.5, 6).tolist()):
        for side in range(4):
            states.append(wall_start(rng.choice([-3, -1, 1, 3], 2).tolist(), side, along,
                                     rng.uniform(-math.pi, math.pi)))
    for p in range(1, 30):
        for q in range(1, 30):
            if math.gcd(p, q) == 1:
                sx, sy = rng.choice(signs, 2).tolist()
                states.append(ParticleState(Vec2(0.0, 0.0), unit(sx * q, sy * p)))
    for tiny in (0.0, 5e-324, 1e-300, 1e-9):
        for _ in range(8):
            (px, py), (sf, ss) = rng.uniform(-3.0, 3.0, 2).tolist(), rng.choice(signs, 2).tolist()
            position, velocity = (px, py), (sf, ss * tiny)
            if rng.random() < 0.5:
                position, velocity = position[::-1], velocity[::-1]
            states.append(ParticleState(Vec2(*position), Vec2(*velocity)))
    for _ in range(32):
        edge = float(rng.choice(signs)) * (2.0**51 + rng.uniform(-1e4, 1e4))
        other = rng.uniform(-3.0, 3.0)
        position = Vec2(edge, other) if rng.random() < 0.5 else Vec2(other, edge)
        states.append(state_from_angle(rng.uniform(-math.pi, math.pi), position))
    for _ in range(16):
        states.append(state_from_angle(rng.uniform(-math.pi, math.pi),
                                       Vec2(*rng.uniform(-1e6, 1e6, 2).tolist())))
    # Out where floats are spaced wider than CORNER_TOL, the hit lands as
    # near the aimed offset as they allow; one ulp of the center is aimed at
    # too. A gap of at least 0.25 leaves the start off the wall's plane up
    # to 2**51, and a rise below the gap makes the struck wall's normal axis
    # the faster one, above it the slower one.
    for scale in (1, 2**20, 2**23, 2**24, 2**40, 2**50):
        for k in (0.5, 1.0, 1.5, 2.0, 3.0, math.ulp(scale) / CORNER_TOL):
            for offset in (k * CORNER_TOL, -k * CORNER_TOL):
                for ratio in (0.5, 2.0):
                    for transpose in (False, True):
                        center = (scale | 1, int(rng.choice([scale | 1, 1])))
                        gap = rng.uniform(0.25, 0.75)
                        states.append(corner_aimed(center, gap, ratio * gap, offset,
                                                   rng.choice(signs, 2).tolist(), transpose))
    return states


class TestStrikeWalk:
    # After its first strike, simulate's walk carries its bands, its inverse
    # velocity and its (fast, slow) frame over from the strike before. A
    # fresh walk from the same state places its bands from scratch and
    # divides.
    @given(st.one_of(free_rays, corner_rays, axis_rays, corner_aimed_rays, far_rays),
           st.sampled_from([1.5, 5.0, 1e3]))
    def test_each_strike_is_a_fresh_walks_first(self, state, horizon):
        with capped(horizon):
            log = simulate(state, 40)
            origins = strike_origins(log)
            lvx, lvy = log.velocities()
            for k in range(len(log)):
                px, py, vx, vy, t = (float(column[k]) for column in ray_columns(origins))
                s, hx, hy, wall = next(billiard._strikes(px, py, vx, vy))
                rx, ry = reflect(vx, vy, WALLS[wall])
                assert row_bytes(hx, hy, t + s, wall, rx, ry) == row_bytes(
                    log.x[k], log.y[k], log.t[k], log.wall[k], lvx[k], lvy[k]), k

    def test_unit_hypot_bounces_only_flip_signs(self):
        # the walk never renormalizes: every bounce of simulate keeps the
        # initial (|vx|, |vy|) bit for bit, on the reference grid, at seeded
        # angles, and at a hand-built speed a little above 1
        for state in flip_sign_states():
            log = simulate(state, 1000)
            assert len(log) == 1000
            vx, vy = log.velocities()
            assert np.all(np.abs(vx) == abs(state.velocity.x)), state
            assert np.all(np.abs(vy) == abs(state.velocity.y)), state

    def test_long_run_is_pinned(self):
        # taken before the walk kept its cells between strikes
        log = simulate(state_from_angle(1.0), 20_000)
        digest = hashlib.sha256(b"".join(
            column.tobytes() for column in (log.x, log.y, log.t, log.wall, *log.velocities())))
        assert (len(log), digest.hexdigest()) == (
            20_000, "306a6b0e54266381986b1d1771e9dd8797d66d60b7c9c09d6aa6a6e3449fec0f")

    def test_hard_starts_are_pinned(self):
        # taken at commit d95af52, before the walk inlined its band jumps,
        # carried its wall sides and pre-checked the interior of a struck
        # wall; it passes unedited on both sides of that change. A start
        # inside an obstacle pins simulate's ValueError instead of a log.
        digest = hashlib.sha256()
        for state in hard_starts():
            try:
                log = simulate(state, 64)
            except ValueError as error:
                digest.update(str(error).encode())
                continue
            digest.update(np.array([len(log), log.truncated]).tobytes())
            for column in (log.x, log.y, log.t, log.wall):
                digest.update(column.tobytes())
        assert digest.hexdigest() == (
            "4846b1ea482e7badac5e7b5fc2776b13f08d3e271ad79a71b7f9c33dba884847")

    def test_axis_corridor_returns_at_once(self):
        # from the origin, the ray at pi / 2 (vx = 6.1e-17) enters the
        # obstacle column x in [0.5, 1.5] only after path length 8e15, so no
        # cell up to the horizon can hold a hit
        with capped(1e15):
            log = simulate(state_from_angle(math.pi / 2), 1)
        assert (len(log), log.truncated) == (0, True)

    # a velocity component below 2**-1024, whose inverse overflows, moves
    # the ray less than 2**-973 across the bands within any horizon: on the
    # edge of a band, from an obstacle's wall plane, the ray grazes into its
    # corridor, as an axis-parallel one does
    @pytest.mark.parametrize("tiny", [5e-324, -2.2e-311, 1e-309])
    @pytest.mark.parametrize("edge", [0.5, 1.5])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_subnormal_component_on_a_band_edge_grazes(self, tiny, edge, transpose):
        (px, py), (vx, vy) = (-2.875, edge), (1.0, tiny)
        if transpose:
            px, py, vx, vy = py, px, vy, vx
        state = ParticleState(Vec2(px, py), Vec2(vx, vy))
        log = simulate(state, 5)
        assert (len(log), log.truncated) == (0, True)
        assert_kernels_tie([state], 5)

    # a near-axis ray from a gap may stop on the first time it can enter an
    # obstacle band, which must be the walk's own slab time: the first strike
    # is found at a horizon of exactly its path length, and not just below it
    @pytest.mark.parametrize("entry", ["simulate", "step_rays"])
    @given(tilted_rays)
    def test_near_axis_strike_found_at_its_horizon(self, entry, state):
        s = first_strike_length(entry, state)
        assert s is not None
        assert first_strike_length(entry, state, s) == s
        assert first_strike_length(entry, state, math.nextafter(s, 0.0)) is None

    # a walk from 2**51 or farther from the origin meets nothing, as its
    # strikes could lie past 2**52, where band walls are no longer exact, and
    # the lockstep kernel agrees. No cell is looked up there, so past 2**63,
    # where a cell center has no int64 value, nothing warns of a bad cast.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("position", [Vec2(1e18, 0.3), Vec2(0.3, -1e17), Vec2(2.0**52, 0.3),
                                          Vec2(1e20, 0.3), Vec2(0.3, -2.0**51)])
    def test_walk_beyond_reach_meets_nothing(self, position):
        state = state_from_angle(0.2, position)
        log = simulate(state, 3)
        assert (len(log), log.truncated) == (0, True)
        assert len(strike_origins(log)) == 0
        assert_kernels_tie([state], 3)

    # Starts in a gap row (or column) up to 200 inside +-_REACH, running
    # outward along the axis with a tilt of about 2**-53, first strike a wall
    # parallel to that axis up to _REACH farther out. There the wall planes
    # c +- 0.5 are still exact, so every strike lies on its obstacle's
    # boundary; with a reach of 2**52, most of them would not.
    def test_strikes_from_the_reach_edge_lie_on_their_obstacles(self):
        reach = billiard._REACH
        rng = np.random.default_rng(7)
        states = []
        for _ in range(2000):
            sign, tilt_sign = rng.choice([-1.0, 1.0], 2)
            p, q = sign * (reach - rng.uniform(0.0, 200.0)), rng.uniform(-0.5, 0.5)
            tilt = tilt_sign * rng.uniform(0.3, 3.0) * 2.0**-53
            states.append(ParticleState(Vec2(p, q), Vec2(sign, tilt)) if rng.random() < 0.5
                          else ParticleState(Vec2(q, p), Vec2(tilt, sign)))
        hits = 0
        with capped(reach):
            for state in states:
                strike = first_strike(state)
                if strike is None:
                    continue
                hits += 1
                (x, y), _, (cx, cy) = strike
                offsets = sorted((abs(x - cx), abs(y - cy)))
                assert offsets[0] <= 0.5 and offsets[1] == 0.5, (state, strike)
            assert hits > 500
            assert_kernels_tie(states, 1)

    # swapping x and y maps the obstacle lattice onto itself, and with
    # |vx| != |vy| the walk's fast axis is swapped too, so the log transposes
    # bit for bit
    @given(st.one_of(free_rays, corner_aimed_rays, axis_rays))
    def test_transposed_state_transposes_the_log(self, state):
        (px, py), (vx, vy) = state.position, state.velocity
        assume(abs(vx) != abs(vy))
        log = simulate(state, 200)
        swapped = simulate(ParticleState(Vec2(py, px), Vec2(vy, vx)), 200)
        transpose = np.array([WALLS.index(w) for w in ("Bottom", "Top", "Left", "Right", "Corner")],
                             dtype=np.int8)
        assert (len(swapped), swapped.truncated) == (len(log), log.truncated)
        (vx, vy), (swapped_vx, swapped_vy) = log.velocities(), swapped.velocities()
        for a, b in ((log.x, swapped.y), (log.y, swapped.x), (vx, swapped_vy),
                     (vy, swapped_vx), (log.t, swapped.t), (transpose[log.wall], swapped.wall)):
            assert a.tobytes() == b.tobytes()

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
            origins = np.column_stack(ray_columns(strike_origins(log))[:4])
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
        with capped(horizon):
            batched = batched_events(states, 40)
            walked = {args[:4] for args in scalar_walks}
            for state, events in zip(states, batched):
                log = simulate(state, 40)
                assert events.tobytes() == log_events(log).tobytes(), state
                assert_hand_off(log, walked)

    # a log's derived post-bounce velocities are the ones the lockstep kernel
    # computes for each strike itself, on the block or by the scalar walk,
    # from the state before it
    @given(st.lists(st.one_of(wall_rays, corner_rays, corner_aimed_rays, axis_rays, free_rays),
                    min_size=1, max_size=6))
    def test_derived_velocities_tie_the_batched_kernel(self, states):
        logs = [simulate(state, 40) for state in states]
        rays = Lockstep(*(np.concatenate(column) for column in zip(
            *(ray_columns(strike_origins(log)) for log in logs))))
        rays.step()
        derived = [np.concatenate(column) for column in zip(*(log.velocities() for log in logs))]
        assert rays.v[0].tobytes() == derived[0].tobytes()
        assert rays.v[1].tobytes() == derived[1].tobytes()
        assert rays.wall.tobytes() == np.concatenate([log.wall for log in logs]).tobytes()

    # free rays from 3000 seeded draws in the period cell [0, 2) x [0, 2)
    # strike each of the block's cells (a, b) first, kept on the block, and
    # tie simulate; the reference grid reaches only 4 of the 10
    def test_every_block_cell_is_reached(self, scalar_walks):
        rng = np.random.default_rng(37)
        states = [s for s in (free_state(x, y, theta) for x, y, theta in
                              rng.uniform(0.0, 2.0, (3000, 3)) * [1, 1, math.pi]) if is_free(s)]
        rays = batch(states)
        assert rays.step() == []
        walked = {args[:4] for args in scalar_walks}
        scalar = np.concatenate([log_events(simulate(state, 1)) for state in states])
        assert np.column_stack([*rays.p, rays.t, rays.wall]).tobytes() == scalar.tobytes()
        cells = set()
        for state, x, y in zip(states, *rays.p.tolist()):
            (px, py), (vx, vy) = state.position, state.velocity
            if (px, py, vx, vy) in walked:
                continue
            (ox, oy), (cx, cy) = locate_cell((px, py)), locate_cell((x, y))
            cells.add(((cx - ox) // 2 * int(math.copysign(1, vx)),
                       (cy - oy) // 2 * int(math.copysign(1, vy))))
        assert cells == {(a, b) for a in range(LOCKSTEP_CELLS) for b in range(LOCKSTEP_CELLS - a)}

    # With the corner tolerance at 1e-3, and the pre-check's half-width to
    # match, rays aimed 0.5 to 3 tolerances from a wall's end still tie
    # simulate. The walk takes every corner and every strike within 2
    # tolerances of a wall's end, and the block every other one it can: the
    # batch has no corner rule of its own.
    def test_one_corner_rule(self, scalar_walks, monkeypatch):
        tol = 1e-3
        monkeypatch.setattr(billiard, "CORNER_TOL", tol)
        monkeypatch.setattr(billiard, "_INTERIOR", 0.5 - 2.0 * tol)
        rng = np.random.default_rng(11)
        states = [corner_aimed(tuple(rng.choice([-3, -1, 1, 3], 2).tolist()),
                               rng.uniform(0.05, 0.95), sign * rng.uniform(0.05, 1.5),
                               side * k * tol, tuple(rng.choice([1.0, -1.0], 2).tolist()),
                               bool(rng.integers(2)))
                  for k in (0.5, 1.0, 1.5, 2.5, 3.0) for side in (1, -1) for sign in (1, -1)
                  for _ in range(4)]
        batched = batched_events(states, 40)
        walked = {args[:4] for args in scalar_walks}
        corners = near_ends = 0
        for state, events in zip(states, batched):
            log = simulate(state, 40)
            assert events.tobytes() == log_events(log).tobytes(), state
            assert_hand_off(log, walked)
            corners += log.corner_count()
            along = np.where(log.wall < WALLS.index("Bottom"), log.y, log.x)
            ends = np.abs(0.5 - np.abs(along - 2.0 * np.floor(along * 0.5) - 1.0))
            off_corner = log.wall != WALLS.index("Corner")
            near_ends += int(np.count_nonzero(off_corner & (ends < 2.0 * tol)))
        # the tolerance in force is the patched one, and some side strikes
        # lie between 1 and 2 tolerances of a wall's end
        assert corners > 0 and near_ends > 0

    # a step writes into the batch's own scratch arrays, so its peak
    # allocation is the same at 2000 rays and at 20,000
    def test_step_memory_does_not_grow_with_the_batch(self):
        peaks = []
        for count in (2000, 20000):
            spec = SweepSpec(slope_step=0.75 / count, count=count)
            rays = batch([state_from_slope(spec.slope_at(t)) for t in range(1, count + 1)])
            rays.step()
            tracemalloc.start()
            try:
                for _ in range(5):
                    rays.step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 64 * 1024, peaks

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

    def test_reference_rays_settle(self):
        # unit() starts every ray on hypot == 1.0 and Lockstep only flips
        # signs, so every bounce keeps (|vx|, |vy|) bit for bit, also at a
        # hand-built speed a little above 1
        states = flip_sign_states()
        assert all(math.hypot(*s.velocity) == 1.0 for s in states[:-1])
        rays = batch(states)
        speeds = np.abs(rays.v).tobytes()
        for k in range(1000):
            rays.step()
            assert np.all(rays.wall != NO_HIT)
            assert np.abs(rays.v).tobytes() == speeds, k

    def test_empty_batch(self):
        rays = Lockstep(*(np.zeros(0) for _ in range(5)))
        assert rays.step() == []
        assert [len(column) for column in ray_columns(rays)] == [0] * 5
        assert rays.wall.shape == (0,)

    # wall reads NO_HIT before the first step, and drop keeps each kept
    # ray's code, whether or not it was read before: a corridor that meets
    # nothing beside rays the walk takes (a zero component) and rays that
    # strike corners
    def test_drop_keeps_the_wall_codes(self):
        states = [state_from_slope(1e-7), ParticleState(Vec2(0.0, 1.0), Vec2(1.0, 0.0)),
                  *map(state_from_slope, CORNER_SLOPES)]
        read, unread = batch(states), batch(states)
        assert read.wall.tobytes() == np.full(len(states), NO_HIT, dtype=np.int8).tobytes()
        dropped = corners = 0
        for _ in range(300):
            misses = read.step()
            assert unread.step() == misses
            kept = np.delete(read.wall, misses)
            corners += int(np.count_nonzero(kept == WALLS.index("Corner")))
            read.drop(misses)
            unread.drop(misses)
            dropped += len(misses)
            assert read.wall.tobytes() == kept.tobytes() == unread.wall.tobytes()
        assert dropped > 0 and corners > 0

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
        x, y, vx, vy, t = (np.array(c) for c in zip(
            *[(0.0, 0.0, v.x, v.y, 0.0) for v in velocities]))
        rays = Lockstep(x, y, vx, vy, t)
        mirrored = Lockstep(mx * x, my * y, mx * vx, my * vy, t)
        for _ in range(200):
            rays.step()
            mirrored.step()
            for a, b, m in zip(ray_columns(rays), ray_columns(mirrored), (mx, my, mx, my, 1.0)):
                assert (m * a).tobytes() == b.tobytes()
            assert np.array_equal(wall_map[rays.wall], mirrored.wall)

    def test_corridor_ray_truncates_like_simulate(self):
        corridor = state_from_slope(1e-7)
        assert simulate(corridor, 5).truncated
        assert_kernels_tie([corridor, state_from_slope(1.414)], 5)

    # on the Left wall of the obstacle at (1, 1), moving into it: the batch
    # of the start rule's velocity strikes as simulate does
    def test_start_rule_of_simulate(self):
        wall = ParticleState(Vec2(0.5, 1.0), unit(1.0, 0.3))
        (events,) = batched_events([wall], 1)
        assert (events[0, 0], events[0, 1], WALLS[int(events[0, 3])]) == (-0.5, 1.3, "Right")
        assert events.tobytes() == log_events(simulate(wall, 1)).tobytes()

    # the batch of the start rule's velocities steps as simulate does: on
    # walls, at and around corners, within WALL_TOL either side of a wall
    # plane, with velocities along the axes, and past +-_REACH, where a
    # start is left as it is
    def test_start_rule_ties_the_scalar_one(self):
        rng = np.random.default_rng(34)
        reach, tol = billiard._REACH, billiard.WALL_TOL
        angles = [*rng.uniform(-math.pi, math.pi, 3).tolist(), 0.0, math.pi / 2, math.pi]
        states = []
        for along in (0.5, -0.5, 0.5 + 0.5 * tol, -0.5 - 2 * tol, 0.5 - 0.5 * tol,
                      *rng.uniform(-0.5, 0.5, 3).tolist()):
            for side in range(4):
                for theta in angles:
                    state = wall_start(rng.choice([-3, -1, 1, 3], 2).tolist(), side, along, theta)
                    (x, y), shift = state.position, rng.choice([0.0, 0.5 * tol, -0.5 * tol, 2 * tol])
                    x, y = (x + shift, y) if side < 2 else (x, y + shift)
                    states.append(ParticleState(Vec2(x, y), state.velocity))
        for edge in (reach + 0.5, reach - 0.5, -reach + 0.5, 2.0**60):
            for theta in angles:
                states.append(state_from_angle(theta, Vec2(edge, 1.0)))
                states.append(state_from_angle(theta, Vec2(1.5, -edge)))
        ready = []
        for state in states:
            try:
                simulate(state, 0)
            except ValueError:
                continue
            ready.append(state)
        assert len(ready) > 200
        assert_kernels_tie(ready, 20)
        # the rule reflects some of the starts
        started = np.array([billiard._start_velocity(state) for state in ready])
        assert not np.array_equal(started, np.array([state.velocity for state in ready]))

    # a batch built afresh from the stepped rays carries bitwise the same
    # inverse velocities, travel signs, finiteness and start cells, and
    # steps to the same strikes
    @pytest.mark.parametrize("states, steps, rare", [
        ([state_from_slope(SweepSpec().slope_at(t)) for t in range(1, 301)], 50, False),
        ([*map(state_from_slope, CORNER_SLOPES),
          ParticleState(Vec2(0.0, 0.0), Vec2(1.0, 0.0)),   # meets nothing
          ParticleState(Vec2(0.0, 1.0), Vec2(1.0, 0.0)),   # zero component
          ParticleState(Vec2(1.0, 0.0), Vec2(-0.0, 1.0)),  # -0.0 component
          state_from_angle(0.3, Vec2(2.0**52, 0.3)),       # beyond +-_REACH
          *[free_state(x, y, theta) for x, y, theta in
            np.random.default_rng(5).uniform(-0.45, 0.45, (8, 3)) * [1, 1, 7]]], 300, True),
    ], ids=["reference", "mixed"])
    def test_carried_state_is_a_fresh_batch(self, states, steps, rare):
        rays, fresh = batch(states), None
        corners = misses = 0
        for _ in range(steps):
            missed = rays.step()
            if fresh is not None:
                assert fresh.step() == missed
                assert fresh.wall.tobytes() == rays.wall.tobytes()
                for a, b in zip(ray_columns(fresh), ray_columns(rays)):
                    assert a.tobytes() == b.tobytes()
            fresh = Lockstep(*ray_columns(rays))
            for a, b in ((fresh.inv_v, rays.inv_v), (fresh.sign, rays.sign),
                         (fresh.finite, rays.finite), (fresh.centers, rays.centers)):
                assert a.tobytes() == b.tobytes()
            corners += int(np.count_nonzero(rays.wall == WALLS.index("Corner")))
            misses += len(missed)
        # the mixed batch has corner strikes and a ray that meets nothing
        assert (corners > 0 and misses > 0) is rare
