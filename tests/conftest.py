import time

import pytest
from hypothesis import HealthCheck, settings

from windtree.billiard import Lockstep
from windtree.hmm import baum_welch, default_init
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


@pytest.fixture
def wall_reads(monkeypatch):
    """The length of the batch at every read of Lockstep.wall."""
    reads = []
    wall = Lockstep.wall
    monkeypatch.setattr(Lockstep, "wall", property(
        lambda rays: reads.append(len(rays)) or wall.fget(rays)))
    return reads
