"""Periodic wind-tree billiard: exact event-driven simulation, a recurrence
statistic swept over initial slopes, and a Gaussian hidden Markov model of
the resulting series with Baum-Welch fitting and pseudo-residual checks."""

from .billiard import (
    DegenerateVelocity,
    ParticleState,
    TrajectoryLog,
    Vec2,
    distance_series,
    next_collision,
    simulate,
    state_from_angle,
    state_from_slope,
)
from .config import HmmConfig, PipelineConfig, SimulateConfig
from .hmm import (
    FitReport,
    ForwardBackwardTables,
    HmmParams,
    baum_welch,
    default_init,
    forward_backward,
    posterior_pairs,
    pseudo_residuals,
    residual_histogram,
)
from .sweep import (
    CorridorTruncation,
    InsufficientData,
    MotionClass,
    MotionLabel,
    SweepResult,
    SweepSpec,
    build_sweep,
    classify_motion,
    estimate_diffusion_exponent,
    growth_exponent,
)

__all__ = [
    "DegenerateVelocity", "ParticleState", "TrajectoryLog", "Vec2",
    "distance_series", "next_collision",
    "simulate", "state_from_angle", "state_from_slope",
    "HmmConfig", "PipelineConfig", "SimulateConfig",
    "FitReport", "ForwardBackwardTables", "HmmParams",
    "baum_welch", "default_init", "forward_backward",
    "posterior_pairs", "pseudo_residuals", "residual_histogram",
    "CorridorTruncation", "InsufficientData", "MotionClass", "MotionLabel",
    "SweepResult", "SweepSpec", "build_sweep",
    "classify_motion", "estimate_diffusion_exponent", "growth_exponent",
]

__version__ = "0.1.0"
