import itertools
import time

import pytest
from hypothesis import HealthCheck, settings

from windtree.hmm import baum_welch, default_init
from windtree import sweep
from windtree.sweep import SweepSpec, build_sweep

settings.register_profile(
    "windtree", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("windtree")


@pytest.fixture(scope="session")
def reference_sweep():
    """The full 300-slope sweep plus its wall-clock build time."""
    started = time.perf_counter()
    result = build_sweep(SweepSpec())
    return result, time.perf_counter() - started


@pytest.fixture(scope="session")
def reference_series(reference_sweep):
    return reference_sweep[0].columns["logD"]


@pytest.fixture(scope="session")
def reference_fit(reference_series):
    """Default-pipeline 3-state fit (15 EM iterations) plus fit time."""
    started = time.perf_counter()
    init = default_init(reference_series, 3)
    report = baum_welch(reference_series, init, max_iters=15)
    return report, time.perf_counter() - started


@pytest.fixture()
def ray_on_origin(monkeypatch):
    """Call with (row, k): from the k-th collision on, the lockstep sweep's
    ray `row` is moved onto the origin after each step, so its recurrence
    statistic over a window from k on is 0. Holds for jobs = 1 only."""
    step_rays = sweep.step_rays

    def arm(row, k):
        steps = itertools.count(1)

        def moved(rays, *args):
            rays, walls = step_rays(rays, *args)
            if next(steps) >= k:
                x, y = rays.x.copy(), rays.y.copy()
                x[row] = y[row] = 0.0
                rays = rays._replace(x=x, y=y)
            return rays, walls

        monkeypatch.setattr(sweep, "step_rays", moved)

    return arm
